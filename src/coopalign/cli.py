"""Command line front end.

Exit codes: 0 on success, 1 for configuration problems, 2 for a usage error
or a runtime failure. Set COOPALIGN_LOG=debug|info|warning|error to adjust
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .config import BENCHMARK_METHODS, ConfigError, ExperimentConfig, level_key, load_config
from .harness import (
    POSE_SOURCES,
    emit_alignment_report,
    emit_sweep_report,
    generate_and_emit,
    log_pipeline_fallbacks,
    run_alignment_benchmark,
    run_noise_sweep,
    run_pipeline,
    scenario_at,
    selftest,
    setup_scenario,
)

logger = logging.getLogger("coopalign.cli")


def _configure_logging() -> None:
    level_name = os.environ.get("COOPALIGN_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coopalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=str, default="out", help="output directory")

    p_gen = sub.add_parser("gen", help="generate scenario files")
    common(p_gen)

    p_align = sub.add_parser("align", help="run the relative-pose benchmark")
    common(p_align)
    p_align.add_argument("--methods", type=str, default=None,
                         help="comma-separated subset of: " + ",".join(BENCHMARK_METHODS))
    p_align.add_argument("--parallel", type=int, default=1, help="worker processes")

    p_sweep = sub.add_parser("sweep", help="run the pose-noise sweep")
    common(p_sweep)
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")

    p_pipe = sub.add_parser("pipeline", help="run the fusion pipeline on one scenario")
    common(p_pipe)
    p_pipe.add_argument("--scenario", type=int, default=0, help="scenario index")
    p_pipe.add_argument("--pose-source", type=str, default="pgc",
                        choices=POSE_SOURCES)

    p_self = sub.add_parser("selftest", help="run built-in invariant checks")
    common(p_self)

    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "parallel", 1) < 1:
        raise ConfigError("--parallel must be at least 1")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    methods = getattr(args, "methods", None)
    if methods is not None:
        cfg = dataclasses.replace(cfg, methods=tuple(m.strip() for m in methods.split(",") if m.strip()))
    return cfg


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = _load(args)
    paths = generate_and_emit(cfg, args.out)
    print(f"wrote {len(paths)} scenarios under {args.out}")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    cfg = _load(args)
    report = run_alignment_benchmark(cfg, parallel=args.parallel)
    files = emit_alignment_report(report, args.out)
    agg = report.aggregates()
    print(f"{'method':<10} {'success %':>10} {'log2 bytes':>11} {'mean time s':>12}")
    for method in sorted(agg):
        row = agg[method]
        print(f"{method:<10} {row['delta_s_percent']:>10.1f} {row['log2_mean_bytes']:>11.2f} "
              f"{report.mean_time_s(method):>12.5f}")
    print(f"results: {files['results']}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    report = run_noise_sweep(cfg, parallel=args.parallel)
    files = emit_sweep_report(report, args.out)
    thr = cfg.eval.iou_thresholds[0]
    print(f"{'method':<10} " + " ".join(level_key(lv).rjust(9) for lv in cfg.noise_levels)
          + f"   (pooled AP @ IoU {thr:g})")
    for method in sorted(report.pooled):
        aps = [report.pooled_ap(method, lv, thr) for lv in cfg.noise_levels]
        print(f"{method:<10} " + " ".join(f"{ap:9.3f}" for ap in aps))
    print(f"results: {files['results']}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if not 0 <= args.scenario < cfg.num_scenarios:
        raise ConfigError(f"--scenario must lie in [0, {cfg.num_scenarios}), the config's scenario indices")
    setup = setup_scenario(scenario_at(cfg, args.scenario), cfg)
    result = run_pipeline(setup, cfg, pose_source=args.pose_source)
    log_pipeline_fallbacks(args.scenario, result.dropped, result.no_signal)
    total_bytes = sum(r.size_bytes for r in result.messages)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "scenario": args.scenario,
        "pose_source": args.pose_source,
        "detections": [dict(box=d.box.as_list(), score=d.score) for d in result.detections],
        "targets": [b.as_list() for b in setup.targets],
        "messages": [dataclasses.asdict(r) for r in result.messages],
        "total_bytes": total_bytes,
    }
    path = out / "pipeline_result.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"{len(result.detections)} detections, {len(setup.targets)} targets, "
          f"{total_bytes} bytes exchanged")
    print(f"result: {path}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    checks = selftest()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "selftest_report.json").write_text(
        json.dumps({name: bool(ok) for name, ok in checks}, indent=2, sort_keys=True) + "\n"
    )
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 2
    print(f"all {len(checks)} checks passed")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "align": _cmd_align,
    "sweep": _cmd_sweep,
    "pipeline": _cmd_pipeline,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # refuse an --out that cannot become a directory before any work
        taken = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
        if not taken.is_dir():
            raise ConfigError(f"--out {args.out}: {taken} exists and is not a directory")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001
        logger.exception("command failed")
        return 2


if __name__ == "__main__":
    sys.exit(main())
