"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Not part of the program's test suite (``testpaths`` names ``tests/``); it
runs every workload once per mode with one scenario per command.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from checks import CHECKS
from worker import check_command, run_command, setup

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _plan(workload: str, scenarios: int = 1) -> dict:
    return run.prepare(workload, workloads.DEFAULT_SEED, 0, 0, scenarios, run.load_reference(workload))[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record = run.run(workload, workloads.DEFAULT_SEED, 0, trace, scenarios=1)
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: unit for name, (_, unit) in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(value, (int, float)) for value, _ in record["metrics"].values())
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert {m["name"] for m in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(tracer.PER_LAYER)


def test_changing_the_seed_changes_the_inputs():
    for name, w in workloads.WORKLOADS.items():
        runs = [[workloads.config_text(workloads.config_dict(name, seed, i)) for i in range(w.inputs)]
                for seed in (0, 0, 1)]
        assert runs[0] == runs[1]
        assert not set(runs[0]) & set(runs[2])
        assert len(set(runs[0])) == w.inputs


def test_wrapped_attributes_are_restored():
    plan = _plan("sweep-default")
    cli, configs = setup(plan)
    owners = [(tracer._resolve(owner), attr) for owner, attr, _ in tracer.TARGETS]
    before = [vars(owner)[attr] for owner, attr in owners]

    t = tracer.Tracer()
    _, code = run_command(cli, plan, 0, t)
    assert code == 0
    assert [vars(owner)[attr] for owner, attr in owners] == before
    names = {span[0] for span in t.spans}
    assert {"cli.main", "temporal.encode", "fusion.warp_grid", "geometry.Pose.validate"} <= names

    with pytest.raises(RuntimeError):
        with t.installed():
            assert vars(owners[0][0])[owners[0][1]] is not before[0]
            raise RuntimeError("command failed")
    assert [vars(owner)[attr] for owner, attr in owners] == before


def test_tampered_rows_are_caught():
    plan = _plan("sweep-default")
    cli, configs = setup(plan)
    _, code = run_command(cli, plan, 0)
    failed, reasons, _ = check_command(plan, configs[0], 0, code)
    assert not failed, reasons

    results = Path(plan["out"]) / "sweep_results.csv"
    lines = results.read_text().splitlines()
    # last row: method none at the last noise level; AP 0.5 differs from
    # its value at the other levels and from the reference
    fields = lines[-1].split(",")
    assert fields[1] == "none"
    fields[-1] = "0.5" if fields[-1] != "0.5" else "0.25"
    results.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    check = CHECKS["sweep"](Path(plan["out"]), configs[0], plan["cfg_seeds"][0], plan["reference"])
    assert check.failed == {0} and check.checked == 1
    assert any("reference" in r for r in check.reasons)
    assert any("across noise levels" in r for r in check.reasons)

    plan = _plan("align-default", scenarios=2)
    cli, configs = setup(plan)
    _, code = run_command(cli, plan, 0)
    results = Path(plan["out"]) / "alignment_results.csv"
    lines = results.read_text().splitlines()
    results.write_text("\n".join(lines[:-1]) + "\n")
    check = CHECKS["align"](Path(plan["out"]), configs[0], plan["cfg_seeds"][0], plan["reference"])
    assert check.failed == {0, 1}

    failed, reasons, _ = check_command(plan, configs[0], 0, 1)
    assert failed == {0, 1} and "exit code 1" in reasons[0]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "align-default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
