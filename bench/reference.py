"""Record the digest of every scenario's result rows for a range of seeds.

    python3 bench/reference.py [--seeds 0-20]

Runs each workload's CLI command once on every input of every seed and
writes ``reference.json`` next to this file; a benchmark run on one of these
seeds then compares every scenario's rows with it. Re-record only in a
change that says why the program's results change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
import workloads
from record import parse_seeds
from worker import check_command, run_command, setup

HERE = Path(__file__).resolve().parent


def record_seed(name: str, seed: int) -> dict[str, list[str]]:
    """Config seed -> the digest of each scenario, for one run seed."""
    plan_path, plan = run.prepare(name, seed, 0, 0)
    cli, configs = setup(plan)
    digests = {}
    for i, cfg in enumerate(configs):
        _, code = run_command(cli, plan, i)
        bad, reasons, check = check_command(plan, cfg, i, code)
        if bad:
            raise SystemExit(f"{name} seed {seed} input {i}: {reasons}")
        digests[str(plan["cfg_seeds"][i])] = [check.digests[sid] for sid in range(cfg.num_scenarios)]
    shutil.rmtree(plan_path.parent)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20")
    seeds = parse_seeds(parser.parse_args().seeds)
    digests: dict[str, dict[str, list[str]]] = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for seed in seeds:
            digests[name].update(record_seed(name, seed))
        print(f"{name}: {sum(map(len, digests[name].values()))} scenarios", flush=True)
    # one line per config seed keeps the file small and its diffs readable
    lines = [f'{{"seeds": {json.dumps(seeds)}, "digests": {{']
    for w, (name, per_seed) in enumerate(digests.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        items = sorted(per_seed.items(), key=lambda kv: int(kv[0]))
        lines += [f"    {json.dumps(k)}: {json.dumps(v)}" + ("," if j < len(items) - 1 else "")
                  for j, (k, v) in enumerate(items)]
        lines.append("  }" + ("," if w < len(digests) - 1 else ""))
    lines.append("}}")
    text = "\n".join(lines) + "\n"
    json.loads(text)
    (HERE / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
