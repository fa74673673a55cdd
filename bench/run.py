"""Benchmark for the ``coopalign`` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/coopalign``; the
benchmark drives ``coopalign.cli.main`` in process, importing the package
from ``src/``, so nothing needs to be installed. The workloads are in
``workloads.py``.

A run generates the workload's configs from the seed, times the set-up of
six probe processes and of the measured process (interpreter start,
imports and ``load_config`` of the generated JSON), then lets the measured
process run the CLI command in a closed loop for ``S`` seconds. Every
scenario's results are checked (``checks.py``). Before and after every
set-up and every command this process times a calibration loop
(``calibrate``); each command's throughput and each set-up time are
scaled by the calibration times around it to a reference host speed,
because the speed of a shared host drifts.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run
(``tracer.py``). The lines before it print the same metrics with their
units, information figures (the raw throughput and set-up time, the
calibration time, the number of scenarios compared with the recorded
reference, the quality of the results) and the provenance. A record of the run
is kept under ``.bench_out/results/``, and the spans of the latest traced
run under ``.bench_out/spans-<workload>.jsonl``.

Exit status: 0 when a result was printed, 1 when the measured process
failed, 2 when the checkout has no ``src/coopalign``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_PROBES = 6
DEADLINE_S = 170.0
# Calibration seconds of the reference host, a round figure near the loop's
# time on a shared 2-core 2.1 GHz Xeon VM; scenarios_per_ref_s and setup_s
# are scaled to it.
CALIBRATION_REF_S = 0.04

END_TO_END: tuple[tuple[str, str], ...] = (
    ("scenarios_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The measured process failed; no result can be printed."""


def git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the host's speed at this moment.
    It runs in this process, which imports neither the program nor numpy,
    and only while no worker is busy, so it measures the host and not the
    program or the state the program left behind."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    sorted(range(100_000, 0, -1), key=lambda x: x % 1000)
    return time.perf_counter() - start


def run_worker(plan_path: Path, deadline: float, *extra: str) -> tuple[float, str, list[float]]:
    """Run one worker process to its end. Returns the seconds from its start
    until it printed ``ready``, its last line of output, and a calibration
    time for every ``step`` it printed (it waits at each for the
    calibration to end). The worker is killed at the deadline."""
    started = time.perf_counter()
    calibrations: list[float] = []
    with subprocess.Popen([sys.executable, str(WORKER), str(plan_path), *extra], cwd=str(ROOT),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(0.0, deadline - started), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            out = ""
            for out in proc.stdout:
                if out.strip() == "step":
                    calibrations.append(calibrate())
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
            proc.wait()
        except BrokenPipeError:
            proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
    if line.strip() != "ready":
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return ready, out, calibrations


def load_reference(workload: str) -> dict[str, list[str]]:
    """The recorded row digests of a workload: config seed -> one digest
    per scenario."""
    return json.loads(REFERENCE.read_text())["digests"][workload]


def prepare(workload: str, seed: int, seconds: float, trace: int,
            scenarios: int | None = None, reference: dict | None = None) -> tuple[Path, dict]:
    """Write the run's configs and plan under .bench_out; return the plan.
    ``reference`` holds the digests the run's rows are compared with."""
    w = workloads.WORKLOADS[workload]
    work = ROOT / ".bench_out" / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    configs, cfg_seeds, texts = [], [], []
    for index in range(w.inputs):
        raw = workloads.config_dict(workload, seed, index, scenarios)
        text = workloads.config_text(raw)
        path = work / "configs" / f"input_{index}.json"
        path.write_text(text)
        configs.append(str(path))
        cfg_seeds.append(raw["seed"])
        texts.append(text)
    plan = {
        "root": str(ROOT),
        "workload": workload,
        "command": w.command,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scenarios": w.scenarios if scenarios is None else scenarios,
        "configs": configs,
        "config_json": texts,
        "cfg_seeds": cfg_seeds,
        "reference": reference,
        "out": str(work / "out"),
        "spans": str(ROOT / ".bench_out" / f"spans-{workload}.jsonl"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=2) + "\n")
    return plan_path, plan


def run(workload: str, seed: int, seconds: float, trace: int,
        scenarios: int | None = None) -> dict:
    """One benchmark run; returns the record that run.py prints and keeps."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    plan_path, plan = prepare(workload, seed, seconds, trace, scenarios, load_reference(workload))
    # set-up i runs between calibrations i and i + 1; so does command j
    # between the measured worker's calibrations j and j + 1
    setup, calibrations = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        setup.append(run_worker(plan_path, deadline, "--setup-only")[0])
        calibrations.append(calibrate())
    ready, out, steps = run_worker(plan_path, deadline)
    setup.append(ready)
    calibrations.append(steps[0])
    worker = json.loads(out)

    def slowdown(cal: list[float], i: int) -> float:
        """How much slower than the reference the host was around sample i."""
        return (cal[i] + cal[i + 1]) / 2 / CALIBRATION_REF_S

    info = {
        "calibration_s": statistics.median(calibrations + steps[1:]),
        "setup_raw_s": statistics.median(setup),
        "reference_checked": worker["reference_checked"],
        **worker["quality"],
    }
    if trace:
        metrics = {name: (worker["per_layer"][name], unit) for name, unit, _ in PER_LAYER}
    else:
        rates = [n / wall for n, wall in zip(worker["scenarios"], worker["walls"])]
        info["scenarios_per_s"] = statistics.median(rates)
        values = {
            "scenarios_per_ref_s": statistics.median(r * slowdown(steps, i) for i, r in enumerate(rates)),
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(t / slowdown(calibrations, i) for i, t in enumerate(setup)),
            "ok_ratio": 1.0 - worker["failed"] / worker["attempted"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    shutil.rmtree(plan_path.parent, ignore_errors=True)
    return {
        "workload": workload,
        "trace": trace,
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "reasons": worker["reasons"],
        "metrics": metrics,
        "info": info,
        "digests": worker["digests"],
        "detail": {
            "commands": worker["commands"],
            "command_walls_s": worker["walls"],
            "calibrations_s": {"setup": calibrations, "commands": steps},
            "setup_samples_s": setup,
            "run_wall_s": time.perf_counter() - start,
        },
        "provenance": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            **worker["runtime"],
            "git_commit": git_commit(ROOT),
            "seed": seed,
            "scenarios_per_command": plan["scenarios"],
            "configs": [{"seed": s, "sha256": workloads.sha256_text(t), "json": json.loads(t)}
                        for s, t in zip(plan["cfg_seeds"], plan["config_json"])],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "coopalign" / "cli.py").is_file():
        print(f"bench: no src/coopalign under {ROOT}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, (value, unit) in record["metrics"].items():
        print(f"{args.workload:<14} {name:<44} {value:>16.6g} {unit}")
    for name, value in sorted(record["info"].items()):
        print(f"{args.workload:<14} info.{name:<39} {value:>16.6g}")
    for reason in record["reasons"]:
        print(f"{args.workload:<14} FAILED {reason}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
