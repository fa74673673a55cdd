"""The benchmark's tracer (``bench/tracer.py``) wraps named attributes of the
package from outside. This runs it around one sweep and one alignment so that
a refactor breaking what it relies on (attribute names, positional
parameters, the result's ``norm()``) fails here too, not only in the
benchmark's own smoke test. The tracer file is loaded, never changed."""

import importlib.util
import json
from pathlib import Path

from coopalign.cli import main

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("coopalign_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_sweep_and_an_alignment(tmp_path, capsys):
    tracer = _load_tracer()
    cfg = tmp_path / "config.json"
    # a small world puts objects in the ego grid, so the offset search has signal
    cfg.write_text(json.dumps({"num_scenarios": 1, "scenario": {"world_size": 48.0}}))
    owners = [(tracer._resolve(owner), attr) for owner, attr, _ in tracer.TARGETS]
    before = [vars(owner)[attr] for owner, attr in owners]

    t = tracer.Tracer()
    with t.installed():
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(owners, before))
        for command in ("sweep", "align"):
            with t.command():
                assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    capsys.readouterr()
    assert [vars(owner)[attr] for owner, attr in owners] == before

    names = {span[0] for span in t.spans}
    assert {
        "cli.main", "harness.run_pipeline", "fusion.estimate_offset", "fusion.warp_grid",
        "localization.ransac_pose", "baselines.icp_align", "baselines.graph_match_align",
        "geometry.Pose.validate", "fusion.BevGrid.validate",
    } <= names
    metrics = t.metrics(2, 1.0, 1.0)
    assert {name for name, _, _ in tracer.PER_LAYER} == set(metrics)
    assert metrics["fusion.estimate_offset.candidates"] > 0
    # the default passthrough encoder has no layers, so it computes no attention
    assert metrics["temporal.encode.attn_bytes_computed"] == 0
