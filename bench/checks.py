"""Result checks for one CLI command, per scenario.

A scenario fails when the command exits non-zero, or when its rows break an
invariant:

- sweep: the expected number of rows, every AP in [0, 1], and the ``pgc``
  and ``none`` rows identical across noise levels (those pipelines never
  read the injected noise);
- align: scenarios x neighbors x methods rows in total, one block of
  neighbors x methods rows per scenario;
- both: the sha256 of the scenario's result rows equals the reference
  recorded in ``reference.json``, when there is one for that scenario (the
  seeds that file lists; other seeds get the invariants only).

The quality figures (pooled AP, success rate, message bytes) are read from
the same files, so a speed-up that changes results shows in the report.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_METHODS = ("gt-noise", "pgc", "none")
FLAT_METHODS = ("pgc", "none")


@dataclass
class CommandCheck:
    failed: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    checked: int = 0  # scenarios compared with the reference
    quality: dict[str, float] = field(default_factory=dict)

    def fail(self, scenario_ids, reason: str) -> None:
        self.failed.update(scenario_ids)
        self.reasons.append(reason)


def _rows_by_scenario(path: Path) -> tuple[list[str], dict[int, list[tuple[str, list[str]]]]]:
    """(header, scenario id -> [(raw line, fields)]) of a result CSV."""
    lines = path.read_text().splitlines()
    header = next(csv.reader(lines[:1]))
    rows: dict[int, list[tuple[str, list[str]]]] = {}
    for line, fields in zip(lines[1:], csv.reader(lines[1:])):
        rows.setdefault(int(fields[0]), []).append((line, fields))
    return header, rows


def row_digest(lines: list[str]) -> str:
    """The first 64 bits of the sha256 of the rows, in hex; enough to tell
    changed results apart, and short enough to record many seeds."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()[:16]


def _common(check: CommandCheck, rows: dict, expected: int, per_scenario: int,
            cfg_seed: int, reference: dict | None) -> list[int]:
    """Checks shared by both commands; returns the scenario ids present.
    ``reference`` maps a config seed to the digest of each of its scenarios."""
    ids = list(range(expected))
    recorded = (reference or {}).get(str(cfg_seed), [])
    extra = sorted(set(rows) - set(ids))
    if extra:
        check.fail(ids, f"rows for unexpected scenarios {extra}")
    for sid in ids:
        got = rows.get(sid, [])
        if len(got) != per_scenario:
            check.fail([sid], f"scenario {sid}: {len(got)} rows, expected {per_scenario}")
            continue
        digest = row_digest([line for line, _ in got])
        check.digests[sid] = digest
        if sid < len(recorded):
            check.checked += 1
            if recorded[sid] != digest:
                check.fail([sid], f"scenario {sid}: rows differ from the recorded reference")
    return [sid for sid in ids if sid in rows]


def check_sweep(out: Path, cfg, cfg_seed: int, reference: dict | None) -> CommandCheck:
    check = CommandCheck()
    thr_key = f"{cfg.eval.iou_thresholds[0]:g}"
    levels = len(cfg.noise_levels)
    thresholds = len(cfg.eval.iou_thresholds)
    _, rows = _rows_by_scenario(out / "sweep_results.csv")
    present = _common(check, rows, cfg.num_scenarios, len(SWEEP_METHODS) * levels * thresholds,
                      cfg_seed, reference)
    for sid in present:
        by_key: dict[tuple[str, str], set[str]] = {}
        for _, (_, method, _st, _sr, thr, ap) in rows[sid]:
            value = float(ap)
            if not 0.0 <= value <= 1.0:
                check.fail([sid], f"scenario {sid}: AP {ap} outside [0, 1]")
            if method in FLAT_METHODS:
                by_key.setdefault((method, thr), set()).add(ap)
        if any(len(aps) != 1 for aps in by_key.values()):
            check.fail([sid], f"scenario {sid}: pgc/none rows differ across noise levels")

    pooled = json.loads((out / "sweep_summary.json").read_text())["pooled"]
    values = [ap for per_level in pooled.values() for per_thr in per_level.values()
              for ap in per_thr.values()]
    if any(not 0.0 <= v <= 1.0 for v in values):
        check.fail(range(cfg.num_scenarios), "pooled AP outside [0, 1]")
    gt_noise = [per_thr[thr_key] for per_thr in pooled["gt-noise"].values()]
    check.quality = {
        "ap_pgc": next(iter(pooled["pgc"].values()))[thr_key],
        "ap_gt_noise": sum(gt_noise) / len(gt_noise),
    }
    return check


def check_align(out: Path, cfg, cfg_seed: int, reference: dict | None) -> CommandCheck:
    check = CommandCheck()
    per_scenario = (cfg.scenario.num_agents - 1) * len(cfg.methods)
    header, rows = _rows_by_scenario(out / "alignment_results.csv")
    total = sum(len(r) for r in rows.values())
    if total != cfg.num_scenarios * per_scenario:
        check.fail(range(cfg.num_scenarios),
                   f"{total} rows, expected {cfg.num_scenarios} x {per_scenario}")
    _common(check, rows, cfg.num_scenarios, per_scenario, cfg_seed, reference)

    summary = json.loads((out / "alignment_summary.json").read_text())["methods"]
    col = header.index("message_bytes")
    pgc_bytes = [int(f[col]) for r in rows.values() for _, f in r if f[1] == "pgc"]
    check.quality = {
        "success_pct_pgc": summary["pgc"]["delta_s_percent"],
        "msg_bytes_pgc": sum(pgc_bytes) / len(pgc_bytes),
    }
    return check


CHECKS = {"sweep": check_sweep, "align": check_align}
