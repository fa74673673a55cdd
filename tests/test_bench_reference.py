"""The benchmark's reference (``bench/reference.json``) records the digest
of every scenario's result rows for its seeds. This runs every input of run
seed 0 of each workload through the CLI, as a benchmark run does, and checks
the results with the benchmark's own checks, so a change that moves any
workload's results fails here too, not only when the benchmark runs. The
bench files are loaded, never changed, and everything is written under
tmp_path."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from coopalign.cli import main
from coopalign.config import load_config

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"coopalign_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules as the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_workloads = _load("workloads")
_checks = _load("checks")


@pytest.mark.parametrize("name", sorted(_workloads.WORKLOADS))
def test_run_seed_zero_reproduces_the_reference(tmp_path, capsys, name):
    workload = _workloads.WORKLOADS[name]
    reference = json.loads((_BENCH / "reference.json").read_text())["digests"][name]
    for index in range(workload.inputs):
        raw = _workloads.config_dict(name, 0, index)
        path = tmp_path / f"config_{index}.json"
        path.write_text(_workloads.config_text(raw))
        out = tmp_path / f"out_{index}"
        assert main([workload.command, "--config", str(path), "--out", str(out), "--parallel", "1"]) == 0
        cfg = load_config(str(path))
        check = _checks.CHECKS[workload.command](out, cfg, raw["seed"], reference)
        assert check.failed == set(), f"input {index}: {check.reasons}"
        assert check.checked == cfg.num_scenarios
    capsys.readouterr()
