import csv
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coopalign
from coopalign import cli
from coopalign.cli import main
from coopalign.config import ConfigError, config_from_dict

_TINY = {
    "seed": 3,
    "num_scenarios": 1,
    "scenario": {"num_objects": 5, "points_per_box": 50, "ground_points": 100},
    "noise_levels": [[0.0, 0.0], [1.0, 1.0]],
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_TINY))
    return str(path)


def test_selftest_command(tmp_path, capsys):
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    report = json.loads((tmp_path / "selftest_report.json").read_text())
    assert all(report.values())


def test_gen_command(tmp_path, tiny_config, capsys):
    out_dir = tmp_path / "scenes"
    assert main(["gen", "--config", tiny_config, "--out", str(out_dir)]) == 0
    assert (out_dir / "scenario_000" / "scenario.json").exists()
    assert "wrote 1 scenarios" in capsys.readouterr().out


def test_pipeline_command(tmp_path, tiny_config, capsys):
    out_dir = tmp_path / "pipe"
    rc = main(
        ["pipeline", "--config", tiny_config, "--out", str(out_dir), "--pose-source", "gt"]
    )
    assert rc == 0
    payload = json.loads((out_dir / "pipeline_result.json").read_text())
    assert payload["pose_source"] == "gt"
    assert {"detections", "targets", "messages", "total_bytes"} <= set(payload)
    assert "detections" in capsys.readouterr().out


@pytest.mark.parametrize("index", [-1, 1, 500])
def test_pipeline_scenario_out_of_range_exits_one(tmp_path, tiny_config, capsys, index):
    # the tiny config has one scenario, so index 0 is the only valid one
    out_dir = tmp_path / "pipe"
    rc = main(["pipeline", "--config", tiny_config, "--out", str(out_dir), "--scenario", str(index)])
    assert rc == 1
    assert "--scenario must lie in [0, 1)" in capsys.readouterr().err
    assert not out_dir.exists()


# 1024 cells of 8 bytes per candidate: a 361 x 361 search (130321
# candidates, 1067573248 bytes) fits the 2**30-byte budget, 363 x 363
# (131769, 1079451648 bytes) does not
@pytest.mark.parametrize("max_xy, rc", [(90.0, 0), (90.5, 1)])
def test_offset_template_budget_through_cli(tmp_path, capsys, max_xy, rc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "num_scenarios": 1,
        "search": {"max_xy": max_xy, "step_xy": 0.5, "max_theta_deg": 0.0},
    }))
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == rc
    err = capsys.readouterr().err
    if rc:
        assert "1079451648 bytes, over the 1073741824-byte budget" in err
    else:
        assert err == ""


def test_align_command_and_reruns_match(tmp_path, tiny_config, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["align", "--config", tiny_config, "--out", str(a), "--methods", "gt-noise,icp"]) == 0
    assert main(["align", "--config", tiny_config, "--out", str(b), "--methods", "gt-noise,icp"]) == 0
    assert (a / "alignment_results.csv").read_bytes() == (b / "alignment_results.csv").read_bytes()
    assert (a / "alignment_summary.json").read_bytes() == (b / "alignment_summary.json").read_bytes()
    # wall times are the one non-reproducible artifact
    assert (a / "alignment_timings.csv").exists()
    assert "gt-noise" in capsys.readouterr().out


def test_sweep_command(tmp_path, tiny_config, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", tiny_config, "--out", str(out_dir)]) == 0
    assert (out_dir / "sweep_results.csv").exists()
    assert (out_dir / "sweep_summary.json").exists()
    assert "pooled AP" in capsys.readouterr().out


def test_seed_override_changes_output(tmp_path, tiny_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen", "--config", tiny_config, "--out", str(a)]) == 0
    assert main(["gen", "--config", tiny_config, "--seed", "99", "--out", str(b)]) == 0
    pa = (a / "scenario_000" / "scenario.json").read_text()
    pb = (b / "scenario_000" / "scenario.json").read_text()
    assert pa != pb


def test_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_scenarios": 0}))
    assert main(["align", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["align", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["align", "--methods", "warp-drive", "--out", str(tmp_path / "y")]) == 1


def test_unreadable_config_exits_one(tmp_path, capsys):
    binary = tmp_path / "latin1.json"
    binary.write_bytes('{"seed": "\xe9"}'.encode("latin-1"))
    for path in (tmp_path, binary):  # a directory, then a file that is not UTF-8
        assert main(["align", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "cannot read config file" in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inside", [False, True])
def test_out_path_that_is_a_file_exits_one_before_any_work(tmp_path, tiny_config, capsys, monkeypatch, inside):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    monkeypatch.setattr(cli, "run_alignment_benchmark", lambda *a, **k: pytest.fail("the run started"))
    out = taken / "sub" if inside else taken
    assert main(["align", "--config", tiny_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{taken} exists and is not a directory" in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory"


def test_argparse_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _console_script_command():
    """Command prefix that runs the `coopalign` console script as its own process.

    The installed script is used when it is on PATH. A source checkout tested
    with `PYTHONPATH=src` has no script, so the `[project.scripts]` target is
    run with the current interpreter, as the generated wrapper would run it.
    """
    exe = shutil.which("coopalign")
    if exe is not None:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    target = scripts.get("coopalign")
    assert target is not None, f"{pyproject}: [project.scripts] has no 'coopalign' entry"
    module, _, func = target.partition(":")
    assert all(part.isidentifier() for part in module.split(".")) and func.isidentifier(), (
        f"{pyproject}: [project.scripts] coopalign = {target!r} is not 'module:function'"
    )
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def test_console_script_runs(tmp_path):
    command = _console_script_command()
    # the child imports the same package as this process, not a copy installed elsewhere
    pythonpath = [str(Path(coopalign.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        COOPALIGN_LOG="info",
        PYTHONPATH=os.pathsep.join(p for p in pythonpath if p),
    )
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_TINY))
    proc = subprocess.run(
        [*command, "align", "--config", str(cfg), "--out", str(tmp_path / "out"), "--methods", "gt-noise"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "alignment benchmark" in proc.stderr  # info logging reaches stderr
    assert (tmp_path / "out" / "alignment_results.csv").exists()


def test_package_exports_only_its_api():
    for name in coopalign.__all__:
        value = getattr(coopalign, name)
        assert not isinstance(value, types.ModuleType), name
    assert "OffsetDelta" not in coopalign.__all__
    assert {"estimate_offset", "Pose2D", "run_noise_sweep"} <= set(coopalign.__all__)


_NAN = float("nan")

# Inputs that once exited 2 with a traceback, or were silently accepted.
_INVALID_CONFIGS = {
    "negative seed": {"seed": -1},
    "negative alignment_noise": {"alignment_noise": [-1.0, 1.0]},
    "NaN alignment_noise": {"alignment_noise": [_NAN, 1.0]},
    "string noise level": {"noise_levels": [["a", 1.0]]},
    "NaN downsample_voxel": {"downsample_voxel": _NAN},
    "boolean noise level": {"noise_levels": [[True, 1.0]]},
    "repeated method": {"methods": ["gt-noise", "gt-noise"]},
    "colliding noise levels": {"noise_levels": [[3, 3], [3.0000001, 3]]},
    "repeated noise level": {"noise_levels": [[1.0, 1.0], [1.0, 1.0]]},
    "colliding iou thresholds": {"eval": {"iou_thresholds": [0.3, 0.3000001]}},
    "empty iou thresholds": {"eval": {"iou_thresholds": []}},
    "empty noise levels": {"noise_levels": []},
    "empty methods": {"methods": []},
    "infinite search range": {"search": {"max_xy": float("inf")}},
    "boolean count": {"num_scenarios": True},
    "fractional count": {"frames": 1.5},
    "radians key": {"search": {"max_theta": 0.1}},
    "ransac seed": {"ransac": {"seed": 3}},
    "section not an object": {"grid": [32, 32]},
    "root not an object": [1, 2],
    "grid width too large for a float": {"grid": {"width": 10**400}},
    # arrays that cannot fit: a dim x dim weight matrix, and about 2.1 GB of
    # (cells, tokens) attention scores for one layer over 16 frames of
    # 64 x 64 cells
    "encoder dim too large for memory": {"num_scenarios": 1, "encoder": {"dim": 4611686018427387904}},
    # the passthrough embedding and the decode head read four input channels
    "encoder dim below the input channels": {"num_scenarios": 1, "encoder": {"dim": 2}},
    # a second agent 12 to 20 m from the ego cannot fit in a 10 m world
    "scene too crowded to place": {"num_scenarios": 1, "scenario": {"world_size": 10.0}},
    "attention scores over the budget": {
        "frames": 16, "grid": {"width": 64, "height": 64}, "encoder": {"mode": "random"},
    },
    # RANSAC's (points, 16, 3) residual block over a cloud of 10**9 or
    # 8 * 10**8 points, and graph matching's (pairs, pairs) array over
    # 200**2 box pairs
    "ground points over the budget": {"scenario": {"ground_points": 10**9}},
    "box points over the budget": {"scenario": {"points_per_box": 10**8}},
    "box pairs over the budget": {"scenario": {"num_objects": 200, "world_size": 2000.0, "sensing_range": 2000.0}},
    # the squared pose error of such noise overflows to inf
    "huge sweep translation noise": {"num_scenarios": 1, "noise_levels": [[1e160, 0.0]]},
    "huge alignment translation noise": {"num_scenarios": 1, "alignment_noise": [1e160, 0.0]},
    # the aggregated oracle error squares to inf, so the pose confidence is 0
    "huge oracle outlier scale": {"num_scenarios": 3, "oracle": {"outlier_scale": 1e156}},
    "huge oracle inlier sigma": {"num_scenarios": 1, "oracle": {"inlier_sigma": 2e6}},
    # world coordinates over such cells overflow the int64 cell and voxel keys
    "sub-atomic grid resolution": {"num_scenarios": 2, "grid": {"resolution": 1e-300}},
    "sub-atomic downsample voxel": {"num_scenarios": 1, "downsample_voxel": 1e-300},
    # a heading draw of such noise overflows to inf, which has no cosine
    "huge sweep rotation noise": {"num_scenarios": 2, "noise_levels": [[0, 1e308]]},
    "huge alignment rotation noise": {"num_scenarios": 2, "alignment_noise": [0, 1e308], "methods": ["gt-noise"]},
    # the bias field's frequencies (1 / length) overflow, so its offsets are NaN
    "sub-atomic oracle bias correlation length": {"num_scenarios": 2, "oracle": {"bias_correlation_length": 1e-308}},
    # numpy arithmetic overflows in a world or sensing range this large (the
    # world drops every pgc agent); such a distance fails agent placement
    "huge world size": {"num_scenarios": 1, "scenario": {"world_size": 1e300}},
    "huge sensing range": {"num_scenarios": 1, "scenario": {"sensing_range": 1e300}},
    "huge agent distance": {"num_scenarios": 1, "scenario": {"max_agent_distance": 1e300}},
    # the head's gain, floor, height and extents are bounded like the scene's
    # lengths: a 1e308 gain saturates every score, a floor of -1e308 or 2e6
    # scores every cell 1 or 0, and a 1e308 extent makes box areas inf
    "huge head gain": {"num_scenarios": 1, "head": {"height_gain": 1e308}},
    "huge negative head floor": {"num_scenarios": 1, "head": {"height_floor": -1e308}},
    "huge head floor": {"num_scenarios": 1, "head": {"height_floor": 2e6}},
    "huge nominal height": {"num_scenarios": 1, "head": {"nominal_z": -1e308}},
    "huge nominal box height": {"num_scenarios": 1, "head": {"nominal_h": 1e308}},
    "huge nominal width": {"num_scenarios": 1, "head": {"nominal_w": 2e6}},
    "huge nominal length": {"num_scenarios": 1, "head": {"nominal_l": 1e308}},
}

# One out-of-range value for every key that has a bound.
_OUT_OF_RANGE = {
    "seed": -1,
    "num_scenarios": 0,
    "frames": 0,
    "downsample_voxel": 0.0,
    "alignment_noise": [0.0, -1.0],
    "noise_levels": [[-1.0, 0.0]],
    "grid.width": 0,
    "grid.height": 0,
    "grid.resolution": 0.0,
    "scenario.num_agents": 0,
    "scenario.num_objects": -1,
    "scenario.world_size": 0.0,
    "scenario.sensing_range": 0.0,
    "scenario.co_visible": -1,
    "scenario.points_per_box": 0,
    "scenario.ground_points": -1,
    "scenario.min_agent_distance": 0.0,
    "scenario.max_agent_distance": 5.0,
    "scenario.occluder_radius": -1.0,
    "oracle.inlier_sigma": -1.0,
    "oracle.outlier_fraction": 1.5,
    "oracle.outlier_scale": -1.0,
    "oracle.bias_correlation_length": -1.0,
    "oracle.error_fidelity": 1.5,
    "ransac.max_iterations": 0,
    "ransac.inlier_threshold": 0.0,
    "ransac.sample_size": 2,
    "ransac.min_inliers": 2,
    "ransac.confidence_stop": 1.5,
    "icp.max_iterations": 0,
    "icp.convergence_eps": 0.0,
    "icp.max_correspondence_dist": 0.0,
    "graph.edge_consistency_eps": 0.0,
    "graph.min_consensus": 2,
    "search.max_xy": -1.0,
    "search.step_xy": 0.0,
    "search.max_theta_deg": -1.0,
    "search.step_theta_deg": 0.0,
    "search.min_gain": -1.0,
    "encoder.dim": 0,
    "encoder.heads": 0,
    "encoder.layers": -1,
    "encoder.hidden": 0,
    "head.height_gain": 0.0,
    "head.nominal_h": 0.0,
    "head.nominal_w": 0.0,
    "head.nominal_l": 0.0,
    "head.nms_iou": 1.0,
    "eval.iou_thresholds": [1.0],
    "eval.score_threshold": 1.5,
}


def _nested(path: str, value) -> dict:
    section, _, key = path.rpartition(".")
    return {section: {key: value}} if section else {key: value}


@pytest.mark.parametrize(
    "raw",
    [*_INVALID_CONFIGS.values(), *(_nested(k, v) for k, v in _OUT_OF_RANGE.items())],
    ids=[*_INVALID_CONFIGS, *_OUT_OF_RANGE],
)
def test_invalid_config_exits_one(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["align", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--methods", "pgc,pgc"], ["--methods", ","]])
def test_invalid_flags_exit_one(tmp_path, capsys, flags):
    assert main(["align", *flags, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["align", "sweep"])
@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_parallel_below_one_exits_one(tmp_path, tiny_config, capsys, command, parallel):
    out = tmp_path / "out"
    assert main([command, "--config", tiny_config, "--parallel", parallel, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: --parallel must be at least 1" in err
    assert "Traceback" not in err
    assert not out.exists()


# Valid configs that once exited 2 with a traceback: agents whose clouds are
# empty (no ground points) or sparser than one RANSAC sample, and a RANSAC
# stop bound whose miss probability rounds to 1.0
_SPARSE_OR_STALLED = {
    "no ground points": {"num_scenarios": 20, "scenario": {"ground_points": 0}},
    "one point per box": {
        "num_scenarios": 5, "scenario": {"ground_points": 1, "points_per_box": 1, "num_objects": 1},
    },
    "tight ransac threshold": {"num_scenarios": 20, "ransac": {"inlier_threshold": 0.01, "sample_size": 6}},
}


@pytest.mark.parametrize("raw", _SPARSE_OR_STALLED.values(), ids=list(_SPARSE_OR_STALLED))
def test_sparse_clouds_and_stalled_ransac_run(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    for command in ("align", "sweep", "pipeline"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0, command
    assert "Traceback" not in capsys.readouterr().err
    if raw.get("scenario", {}).get("points_per_box") == 1:
        # at most two points per cloud: every pgc estimate fails
        with open(tmp_path / "align" / "alignment_results.csv") as fh:
            pgc = [row for row in csv.DictReader(fh) if row["method"] == "pgc"]
        assert pgc and all(row["success"] == "false" and row["translation_error_m"] == "inf" for row in pgc)


# Small configs over the grid, scenario, RANSAC, oracle, voxel, search,
# encoder, head and eval keys. Every key is optional and most draws are valid.
# A draw that config_from_dict refuses must exit 1 on both commands; a valid
# one exits 0, or 1 when its scenes are too crowded to place.
def _section(**fields):
    return st.fixed_dictionaries({}, optional=fields)


_FUZZ_CONFIGS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "num_scenarios": st.integers(1, 2),
        "noise_levels": st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.0, 1.0, 3.0])),
            min_size=1, max_size=2, unique=True,
        ),
    },
    optional={
        "frames": st.integers(1, 2),
        "downsample_voxel": st.sampled_from([0.05, 0.3, 1.0, 4.0]),
        "grid": _section(
            width=st.integers(4, 16), height=st.integers(4, 16), resolution=st.sampled_from([0.5, 1.25, 3.0]),
        ),
        "scenario": _section(
            num_agents=st.integers(1, 3),
            num_objects=st.integers(0, 5),
            world_size=st.sampled_from([40.0, 60.0, 80.0]),
            sensing_range=st.sampled_from([4.0, 12.0, 25.0]),
            co_visible=st.none() | st.integers(0, 3),
            points_per_box=st.integers(1, 60),
            ground_points=st.integers(0, 150),
            occluder_radius=st.sampled_from([0.0, 1.2, 4.0]),
        ),
        "ransac": _section(
            max_iterations=st.integers(1, 64),
            inlier_threshold=st.sampled_from([0.01, 0.2, 0.5, 2.0]),
            sample_size=st.integers(3, 6),
            min_inliers=st.integers(3, 30),
            confidence_stop=st.sampled_from([0.0, 0.9, 0.999, 1.0]),
        ),
        "oracle": _section(
            inlier_sigma=st.sampled_from([0.0, 0.02, 0.5]),
            outlier_fraction=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
            outlier_scale=st.sampled_from([0.0, 5.0]),
            bias_correlation_length=st.sampled_from([0.0, 20.0]),
            error_fidelity=st.sampled_from([0.0, 0.9, 1.0]),
        ),
        "search": _section(
            max_xy=st.sampled_from([0.0, 0.625, 1.25]),
            step_xy=st.sampled_from([0.3, 0.625]),
            max_theta_deg=st.sampled_from([0.0, 3.0]),
            step_theta_deg=st.sampled_from([1.5, 2.0]),
            min_gain=st.sampled_from([0.0, 0.02, 0.5]),
        ),
        "encoder": _section(
            dim=st.sampled_from([2, 4, 8]),
            heads=st.sampled_from([1, 2]),
            layers=st.integers(0, 2),
            hidden=st.integers(1, 8),
            mode=st.sampled_from(["passthrough", "random"]),
        ),
        "head": _section(
            height_gain=st.sampled_from([0.5, 2.0, 8.0]),
            height_floor=st.sampled_from([-1.0, 0.4, 2.0]),
            nominal_z=st.sampled_from([-1.0, 0.0, 0.8]),
            nominal_h=st.sampled_from([0.5, 1.6]),
            nominal_w=st.sampled_from([0.3, 2.2, 9.0]),
            nominal_l=st.sampled_from([0.3, 3.6, 9.0]),
            nms_iou=st.sampled_from([0.1, 0.5, 0.9]),
        ),
        "eval": _section(
            iou_thresholds=st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.95]), min_size=1, max_size=3, unique=True),
            score_threshold=st.sampled_from([0.0, 0.25, 0.9]),
        ),
    },
)

# the files each command writes that reruns reproduce byte for byte
_DETERMINISTIC = {
    "align": ("alignment_results.csv", "alignment_summary.json"),
    "sweep": ("sweep_results.csv", "sweep_summary.json"),
}


def _run_fuzzed(tmp, raw, name, *flags):
    """{command: (exit code, {file: bytes})} for align and sweep on raw."""
    path = tmp / "config.json"
    path.write_text(json.dumps(raw))
    out = {}
    for command, files in _DETERMINISTIC.items():
        target = tmp / name / command
        code = main([command, "--config", str(path), "--out", str(target), *flags])
        out[command] = (code, {f: (target / f).read_bytes() for f in files} if code == 0 else None)
    return out


def _accepted(raw) -> bool:
    try:
        config_from_dict(raw)
    except ConfigError:
        return False
    return True


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_FUZZ_CONFIGS)
def test_fuzzed_configs_run_or_are_refused_and_rerun_bitwise(tmp_path_factory, raw):
    tmp = tmp_path_factory.mktemp("fuzz")
    first = _run_fuzzed(tmp, raw, "first")
    codes = {command: code for command, (code, _) in first.items()}
    assert set(codes.values()) <= {0, 1}, (raw, codes)
    if not _accepted(raw):
        assert codes == {"align": 1, "sweep": 1}, raw
    elif 0 in codes.values():
        assert _run_fuzzed(tmp, raw, "again") == first, raw


@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_FUZZ_CONFIGS.filter(_accepted))
def test_fuzzed_configs_parallel_matches_serial(tmp_path_factory, raw):
    tmp = tmp_path_factory.mktemp("fuzz")
    assert _run_fuzzed(tmp, raw, "parallel", "--parallel", "2") == _run_fuzzed(tmp, raw, "serial"), raw
