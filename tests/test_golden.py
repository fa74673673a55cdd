"""Deterministic artifacts pinned by sha256 digest.

A change that claims byte-identical output keeps these digests; a change
that means to alter the results re-records them and says why. The digests
were recorded with Python 3.11.7 and numpy 2.4.6 (OpenBLAS) on x86-64; a
different numpy or BLAS build may round differently and change them.
"""

import hashlib
import json

import pytest

from coopalign.cli import main

_CONFIGS = {
    "default-3": {"num_scenarios": 3},
    # random encoder over 2 frames with a rotating search; the negative
    # objectness floor and the small world make the head emit boxes that
    # match targets, so AP is not zero everywhere
    "random-16": {
        "num_scenarios": 2,
        "frames": 2,
        "grid": {"width": 16, "height": 16},
        "encoder": {"mode": "random"},
        "head": {"height_floor": -5.0},
        "scenario": {"world_size": 48.0},
        "search": {"max_xy": 1.0, "step_xy": 0.5, "max_theta_deg": 5.0, "step_theta_deg": 2.5},
    },
    # random encoder with 4 heads over 16-dim tokens; an encoder one ulp off
    # in some attention rows moves this config's pooled AP@0.3, so it pins
    # the encoder bit for bit. Reading out the last frame's queries only
    # rounds P @ V differently at this shape: "none" went 0.020833 -> 0.022222
    "random-d16": {
        "num_scenarios": 3,
        "frames": 2,
        "grid": {"width": 16, "height": 16},
        "encoder": {"mode": "random", "dim": 16, "heads": 4},
        "head": {"height_floor": -5.0},
        "scenario": {"world_size": 48.0},
    },
    # passthrough encoder with the 729-candidate search of criterion 9
    # (+-2 m, +-10 deg), so the digests cover the full offset search
    "wide-search": {
        "num_scenarios": 2,
        "scenario": {"world_size": 48.0},
        "search": {"max_xy": 2.0, "step_xy": 0.5, "max_theta_deg": 10.0, "step_theta_deg": 2.5},
    },
    # three agents over 2 frames with the 729-candidate search: each pipeline
    # run scores two neighbors per frame against one ego search template, so
    # the digests pin the template's reuse across neighbors and frames
    "three-agent": {
        "num_scenarios": 2,
        "frames": 2,
        "scenario": {"num_agents": 3, "world_size": 48.0},
        "search": {"max_xy": 2.0, "step_xy": 0.5, "max_theta_deg": 10.0, "step_theta_deg": 2.5},
    },
}

_DIGESTS = {
    "default-3": {
        "sweep_results.csv": "0a53d51ed3a02b19ab1366082ff74481074989f52aef4efaba5e81d2ca69d281",
        "sweep_summary.json": "131018abb80341a639c7c98aab06eb7413e541c80c6c03445d82c063da2ad9c3",
        "alignment_results.csv": "998e976cf96373634bfab4886a43dba4691b98a41bfabd27b9b6488193b10cca",
        "alignment_summary.json": "acf83d4240cb6be12323493b986bdc4fdd64da15644f8e0ca3712b4c9e909741",
    },
    "random-16": {
        "sweep_results.csv": "a28d3cb048db3fa4db01914c1c813b5310d7640a12d66fd2d949cb8bd1e57eb0",
        "sweep_summary.json": "8214e58d03e7b23204268792cc75e22c1e53c4a2c0c91c536d1a5dc271786905",
        "alignment_results.csv": "95d0d08c703359de04bcb70031423c2a1f479f7390b17d0a0c43c0b924d0b8f3",
        "alignment_summary.json": "aad0ea198441c49238300a491bf6d4fcd9e88136eb3a6e47cbd2a0b536eeec5e",
    },
    "random-d16": {
        "sweep_results.csv": "c593bd6c687727a0aaeb384266a7f8fc67bcf0bdaeaf5b51295a6068c7144516",
        "sweep_summary.json": "f79b18de0a37674759a0051157703e7de777ed12a0e7ada04d0cbe31efb72ae8",
        "alignment_results.csv": "48a6fb50f2803e43e5fbeedca49be0b7adc4ffbeba216e7c5b4280665dd4068e",
        "alignment_summary.json": "2d9692d58ce8ea5c9ae54e0c892828c4271f8d4f02a3ef7eccf92e42f7ec2ecd",
    },
    "wide-search": {
        "sweep_results.csv": "67c9fa8f8ad548bc601822ff42df484fb44723804a4c1a03360bd0300016d571",
        "sweep_summary.json": "1234be7f05b85cb6ca911691e6521700d84741f0051935c4eb6b44f41c2ad5f3",
        "alignment_results.csv": "95d0d08c703359de04bcb70031423c2a1f479f7390b17d0a0c43c0b924d0b8f3",
        "alignment_summary.json": "aad0ea198441c49238300a491bf6d4fcd9e88136eb3a6e47cbd2a0b536eeec5e",
    },
    "three-agent": {
        "sweep_results.csv": "fcef97d5efe9a51d4ff5a41545feb6925908e606a66537f35114cede1517eb4a",
        "sweep_summary.json": "073fb54d563135b87e17d24f952a0d8a09eb664386a95e21e1ec861bd2729661",
        "alignment_results.csv": "529e578c488c66b89e8e17e32b5319ab1d215bfb43a75fd81b6c6ad898ec25f4",
        "alignment_summary.json": "1d43af66825e2d5b2169eab674be4389965d79b8c209ec77513a71068c620ac5",
    },
}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_artifacts_match_recorded_digests(tmp_path, capsys, name):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_CONFIGS[name]))
    out = tmp_path / "out"
    for command in ("sweep", "align"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {
        fname: hashlib.sha256((out / fname).read_bytes()).hexdigest() for fname in _DIGESTS[name]
    }
    assert digests == _DIGESTS[name]


# pipeline_result.json of `coopalign pipeline` for each pose source: these
# pin the pipeline's pose message bytes, which no sweep or align artifact holds
_PIPELINE_RUNS = {
    "defaults": (None, ["--seed", "7", "--scenario", "3"]),
    "three-agent": (
        {"num_scenarios": 2, "frames": 2, "scenario": {"num_agents": 3, "world_size": 48.0}},
        ["--scenario", "1"],
    ),
    # the random encoder's detections: one layer of 4 heads over 16-dim
    # tokens, and a two-layer stack, the only golden that runs more than
    # one layer (each emits boxes for every pose source)
    "random-d16": (_CONFIGS["random-d16"], ["--scenario", "1"]),
    "random-two-layer": (
        {
            "num_scenarios": 2,
            "frames": 2,
            "encoder": {"mode": "random", "layers": 2},
            "head": {"height_floor": -5.0},
            "scenario": {"world_size": 48.0},
        },
        ["--scenario", "1"],
    ),
}

# every box carries the head's nominal extents as configured, so the default
# l is written as 3.6 (a log-extent decode would write exp(log(3.6)),
# 3.5999999999999996); the sweep and align digests hold no box extent
# gt-noise perturbs the true poses by the config's alignment_noise, the GNSS
# noise of align's gt-noise rows
_PIPELINE_DIGESTS = {
    "defaults": {
        "pgc": "ee0e3bac7fc5375232cbd2d079317326599d21f6b412a1e405c9a8b72e3ee313",
        "gt-noise": "e2c2b9d3527f51950342ec425b4c655c08c4af2058318cde4c3e33931a069721",
        "gt": "d42ba058e817060ef5ba89013cf6c1e3ea79656133310aeccdfd3aea428e3a41",
        "none": "f592dae77e3b2b67885d93bc5b9621875852a8d671c9094cf6cbfe1038c7845b",
    },
    "three-agent": {
        "pgc": "52fe37064ba0e99ea0d3882c0bc7e44c09c88c80758e7d87a80c0b5ddf10230c",
        "gt-noise": "14b58277ad486851a74d58dbf1ad1cefcfb591b30f456a1c4e1cbc298f732178",
        "gt": "ce3c3432c33e844c92752f271d50df543e5068b914fa14bff775d02444eaf6e2",
        "none": "014cad329dcfa96acd2e5cfcece6c63f9e22f8475eb6b7cb3ecdc0eada43de6d",
    },
    "random-d16": {
        "pgc": "575c4e5373726a68d3cd5f1796ac34eecf3745c04af7571d6733ed814105e541",
        "gt-noise": "37a6afe3341351c62516b3838ae3337515024ee78ed19c081aa2716ff9f95271",
        "gt": "65ef7fb57f222b07db5ad97b5064fcde678ff483286d3fd388cc2491152c9516",
        "none": "f0be22a94bee45c0a2749d7026274e0a9f1137d65188d5e19145874ebe5ca56b",
    },
    "random-two-layer": {
        "pgc": "70cbded050636512886ce400197eee53f4b6e1c9ad83f0582aa236fa2faf57bf",
        "gt-noise": "3388cc9495030c1145e9ef8bb42f9da636075708bc3758991d42dd920edbb123",
        "gt": "72cb8d65940b98584198d55cd37fbbb1e1a180ebef74e25bfcc290c7e97a7fd4",
        "none": "42989a74345dcbf30b815723ea4a161a501a16dadf8ba408206c9d1e85ec8554",
    },
}


@pytest.mark.parametrize("name", sorted(_PIPELINE_RUNS))
def test_pipeline_results_match_recorded_digests(tmp_path, capsys, name):
    config, flags = _PIPELINE_RUNS[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = ["--config", str(path)] + flags
    digests = {}
    for source in _PIPELINE_DIGESTS[name]:
        out = tmp_path / source
        assert main(["pipeline", *flags, "--pose-source", source, "--out", str(out)]) == 0
        digests[source] = hashlib.sha256((out / "pipeline_result.json").read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == _PIPELINE_DIGESTS[name]
