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
# pin the ledger's pose message bytes, which no sweep or align artifact holds
_PIPELINE_RUNS = {
    "defaults": (None, ["--seed", "7", "--scenario", "3"]),
    "three-agent": (
        {"num_scenarios": 2, "frames": 2, "scenario": {"num_agents": 3, "world_size": 48.0}},
        ["--scenario", "1"],
    ),
}

_PIPELINE_DIGESTS = {
    "defaults": {
        "pgc": "e55421ebfb7060e1ef3f0c3c9c83b9c181564bad0788f7e424371e487b56848d",
        "gt-noise": "413e49b40d54c20d21c8719e0bd391c6d4dce57b45f3539d3862618ebf485db7",
        "gt": "9da8f033b68260eeb0380639a0e1c72b4a873caa6165059899a4e2e7d2002938",
        "none": "bc69fa408337b286edaaf65663e051b551bba79a7f77f167fe00caea08983d8d",
    },
    "three-agent": {
        "pgc": "289c9bc1531fe5396137b94435cc13a0fc1f9d85071e9266e82f9e197d42bca5",
        "gt-noise": "4d8c901d2645db6b9f69d4f3144eed36cc6a25d195445f858f21a53fd59ffd5c",
        "gt": "889c8373274720eebe83f7ee87631ea7e0a20f78b7296cb9acfb606cd891ef42",
        "none": "fce8f1491308fe75207773c9df97447563de7a2b582fcb08b9ef07426e2a3d23",
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
