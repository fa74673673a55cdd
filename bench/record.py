"""Run the benchmark over several seeds and keep a trajectory record.

    python3 bench/record.py --label NAME --seeds 1-10 [--workloads a,b] [--out FILE]

Each (workload, seed) pair is one fresh ``run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``, seeds in the outer loop. For every
end-to-end metric the record keeps the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound, and the same figures for the raw throughput, the raw set-up time
and the calibration time. One traced run per workload at the default seed
adds the per-layer metrics. With ``--out`` the record is written as JSON;
the spreads are printed either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    kept = json.loads((ROOT / ".bench_out" / "results" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return {"result": result, "info": kept["info"], "provenance": kept["provenance"]}


def summarize(values: list[float], bound: float | None = None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run_once(name, seed, bench["run_seconds"], 0))

    record = {"label": args.label, "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        end_to_end = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs[name]]
            end_to_end[metric] = summarize(values, bound)
            s = end_to_end[metric]
            flag = "" if s["spread"] <= bound / 3 else "  <-- above a third of the bound"
            print(f"{name:<14} {metric:<16} median {s['median']:<12.6g} {units[metric]:<6} "
                  f"spread {s['spread']:.4f} bound {bound}{flag}")
        raw = {}
        for key in ("scenarios_per_s", "setup_raw_s", "calibration_s"):
            raw[key] = summarize([r["info"][key] for r in runs[name]])
            print(f"{name:<14} info.{key:<21} median {raw[key]['median']:<12.6g} "
                  f"spread {raw[key]['spread']:.4f}")
        traced = run_once(name, workloads.DEFAULT_SEED, bench["run_seconds"], 1)
        per_layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        self_s = {k.removesuffix(".self_s"): v for k, v in per_layer.items() if k.endswith(".self_s")}
        dominant = max(self_s, key=self_s.get)
        print(f"{name:<14} traced: dominant layer {dominant} ({self_s[dominant]:.4g} s/scenario), "
              f"coverage {per_layer['trace.coverage']:.4f}, overhead {per_layer['trace.overhead_ratio']:.4f}")
        record["workloads"][name] = {
            "correct": all(r["result"]["correct"] for r in runs[name]) and traced["result"]["correct"],
            "attempted": sum(r["result"]["attempted"] for r in runs[name]),
            "failed": sum(r["result"]["failed"] for r in runs[name]),
            "end_to_end": end_to_end,
            "info": raw,
            "info_by_seed": [r["info"] for r in runs[name]],
            "dominant_layer": dominant,
            "per_layer_default_seed": per_layer,
            "provenance_first_seed": runs[name][0]["provenance"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
