"""One measured process of a benchmark run.

    python3 bench/worker.py PLAN.json [--setup-only]

Imports ``coopalign`` from ``src/``, loads every generated config with
``load_config`` and prints ``ready``; that is the set-up the parent times.
With ``--setup-only`` it stops there. Otherwise it runs the plan's CLI
command in a closed loop, one command at a time, cycling through the
configs until the next command would end past the plan's time budget, and
prints one JSON line with the wall time of every command, the check results
and its own peak RSS. Before the first command and after every command it
prints ``step`` and waits for a line on standard input, while the parent
times its calibration loop.

With ``trace`` set, every input runs twice in a row: once untraced, then
once with the tracer's wrappers installed, which are removed again before
the next command.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from checks import CHECKS

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


def setup(plan: dict):
    """Import the CLI from the checkout's sources and load every config."""
    sys.path.insert(0, str(Path(plan["root"]) / "src"))
    import coopalign.cli as cli

    configs = [cli.load_config(path) for path in plan["configs"]]
    return cli, configs


def runtime_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError) as exc:
        blas = {"error": repr(exc)}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
    }


def pause() -> None:
    """Let the parent calibrate while this process is idle."""
    print("step", flush=True)
    sys.stdin.readline()


def run_command(cli, plan: dict, index: int, tracer=None) -> tuple[float, int]:
    """Run the CLI command on input ``index``; (wall seconds, exit code)."""
    out = Path(plan["out"])
    if out.exists():
        shutil.rmtree(out)
    argv = [plan["command"], "--config", plan["configs"][index], "--out", str(out), "--parallel", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.installed(), tracer.command():
                    code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    return wall, code


def check_command(plan: dict, cfg, index: int, code: int):
    """The ids of the failed scenarios, the reasons, and the check itself."""
    scenarios = range(cfg.num_scenarios)
    if code != 0:
        return set(scenarios), [f"input {index}: exit code {code}"], None
    try:
        check = CHECKS[plan["command"]](Path(plan["out"]), cfg, plan["cfg_seeds"][index], plan["reference"])
    except (OSError, ValueError, KeyError, IndexError, StopIteration, ZeroDivisionError) as exc:
        return set(scenarios), [f"input {index}: unreadable results: {exc!r}"], None
    return check.failed, [f"input {index}: {r}" for r in check.reasons], check


def measure(cli, configs: list, plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    walls: list[float] = []
    traced_walls: list[float] = []
    steps: list[float] = []
    attempted = 0
    failed = 0
    checked = 0
    reasons: list[str] = []
    quality: dict[int, dict] = {}
    digests: dict[str, str] = {}
    pause()
    begin = time.perf_counter()
    r = 0
    while True:
        index = r % len(configs)
        cfg = configs[index]
        step_start = time.perf_counter()
        # alternate which of the pair runs first, so warm-up is shared
        modes = (None,) if tracer is None else (None, tracer)[:: 1 if r % 2 == 0 else -1]
        for mode in modes:
            wall, code = run_command(cli, plan, index, mode)
            (walls if mode is None else traced_walls).append(wall)
            bad, why, check = check_command(plan, cfg, index, code)
            attempted += cfg.num_scenarios
            failed += len(bad)
            reasons.extend(why)
            if check is not None:
                quality[index] = check.quality
                checked += check.checked
                for sid, digest in check.digests.items():
                    digests[f"{plan['cfg_seeds'][index]}:{sid}"] = digest
        pause()
        steps.append(time.perf_counter() - step_start)
        r += 1
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(steps) > plan["seconds"]:
            break

    shutil.rmtree(plan["out"], ignore_errors=True)
    result = {
        "commands": r,
        "walls": walls,
        "scenarios": [configs[i % len(configs)].num_scenarios for i in range(r)],
        "attempted": attempted,
        "failed": failed,
        "reference_checked": checked,
        "reasons": reasons[:20],
        "quality": {k: statistics.fmean(q[k] for q in quality.values())
                    for k in next(iter(quality.values()), {})},
        "digests": digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "runtime": runtime_info(),
    }
    if tracer is not None:
        traced_scenarios = sum(result["scenarios"])
        result["per_layer"] = tracer.metrics(traced_scenarios, sum(traced_walls), sum(walls))
        tracer.write_spans(Path(plan["spans"]))
    return result


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text())
    cli, configs = setup(plan)
    print("ready", flush=True)
    if "--setup-only" in argv[1:]:
        return 0
    print(json.dumps(measure(cli, configs, plan)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
