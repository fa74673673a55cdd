"""Spans and counters recorded from outside the program.

The tracer replaces module attributes with wrappers for the length of one
traced command and puts every original back afterwards; nothing under
``src/`` knows about it. Harness-level calls are wrapped where the harness
looks them up (``coopalign.harness.<fn>``, and ``coopalign.cli.<fn>`` for what
the CLI calls), ``warp_grid`` and ``rotated_iou_bev`` in their own modules so
that calls from inside fusion and detection count too, and the
``__post_init__`` validators of ``Pose`` and ``BevGrid`` on their classes.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``run`` numbers the traced command.
Spans stay in memory until the benchmark writes them out at the end. A
span's self time is its duration minus the durations of its direct children;
children nest strictly because the pipeline is single-threaded.

Counters are derived only from arguments, return values and raised
exceptions, never from program internals.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (owner, attribute, span name). owner is a module, or "module:Class".
TARGETS = (
    ("coopalign.cli", "load_config", "config.load_config"),
    ("coopalign.cli", "run_noise_sweep", "harness.run_noise_sweep"),
    ("coopalign.cli", "run_alignment_benchmark", "harness.run_alignment_benchmark"),
    ("coopalign.cli", "emit_sweep_report", "harness.emit"),
    ("coopalign.cli", "emit_alignment_report", "harness.emit"),
    ("coopalign.harness", "generate_scenario", "harness.generate_scenario"),
    ("coopalign.harness", "run_pipeline", "harness.run_pipeline"),
    ("coopalign.harness", "voxel_downsample", "localization.voxel_downsample"),
    ("coopalign.harness", "oracle_predict", "localization.oracle_predict"),
    ("coopalign.harness", "ransac_pose", "localization.ransac_pose"),
    ("coopalign.harness", "icp_align", "baselines.icp_align"),
    ("coopalign.harness", "graph_match_align", "baselines.graph_match_align"),
    ("coopalign.harness", "rasterize_bev", "fusion.rasterize_bev"),
    ("coopalign.harness", "coarse_align", "fusion.coarse_align"),
    ("coopalign.harness", "estimate_offset", "fusion.estimate_offset"),
    ("coopalign.harness", "apply_offset", "fusion.apply_offset"),
    ("coopalign.harness", "confidence_embed", "fusion.confidence_embed"),
    ("coopalign.fusion", "warp_grid", "fusion.warp_grid"),
    ("coopalign.harness", "encode", "temporal.encode"),
    ("coopalign.harness", "decode_head", "detection.decode_head"),
    ("coopalign.detection", "rotated_iou_bev", "detection.rotated_iou_bev"),
    ("coopalign.harness", "average_precision", "detection.average_precision"),
    ("coopalign.harness", "pooled_average_precision", "detection.pooled_average_precision"),
    ("coopalign.geometry:Pose", "__post_init__", "geometry.Pose.validate"),
    ("coopalign.fusion:BevGrid", "__post_init__", "fusion.BevGrid.validate"),
)

ROOT = "cli.main"

_CALLS = (
    "geometry.Pose.validate", "localization.ransac_pose", "baselines.icp_align",
    "baselines.graph_match_align", "fusion.estimate_offset", "fusion.warp_grid",
    "fusion.BevGrid.validate", "temporal.encode", "detection.decode_head",
    "detection.rotated_iou_bev",
)

# Every per-layer metric: (name, unit, better). Times and counts are per
# traced scenario; a ratio has its own span's calls as base, and reads 0
# when the span never ran.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{name}.self_s", "s/scenario", "lower") for name in sorted({ROOT, *(t[2] for t in TARGETS)})),
    *((f"{name}.calls", "count/scenario", "lower") for name in _CALLS),
    ("harness.run_pipeline.ms_p50", "ms", "lower"),
    ("harness.run_pipeline.ms_p90", "ms", "lower"),
    ("harness.run_pipeline.samples", "count", "higher"),
    ("localization.ransac_pose.fail_ratio", "ratio", "lower"),
    ("baselines.icp_align.ok_ratio", "ratio", "higher"),
    ("baselines.graph_match_align.ok_ratio", "ratio", "higher"),
    ("fusion.estimate_offset.candidates", "count/scenario", "lower"),
    ("fusion.estimate_offset.nosignal_ratio", "ratio", "lower"),
    ("fusion.estimate_offset.adopt_ratio", "ratio", "higher"),
    ("temporal.encode.tokens", "count", "lower"),
    ("temporal.encode.attn_bytes_computed", "bytes", "lower"),
    ("detection.decode_head.dets", "count/scenario", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wrappers, spans and counters for traced commands."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.run = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._nosignal: type[BaseException] = importlib.import_module("coopalign.fusion").NoSignalError
        self._observers = {
            "fusion.estimate_offset": self._observe_offset,
            "temporal.encode": self._observe_encode,
            "localization.ransac_pose": self._observe_ransac,
            "baselines.icp_align": self._ok_counter("baselines.icp_align"),
            "baselines.graph_match_align": self._ok_counter("baselines.graph_match_align"),
            "detection.decode_head": self._observe_decode,
        }

    # -- spans ------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: float, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.run)

    @contextmanager
    def command(self):
        """Root span around one traced CLI command; a new run id."""
        self.run += 1
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, ROOT, start, parent)

    def _wrap(self, fn, name: str):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, name, start, parent)
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            self._close(idx, name, start, parent)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner_name, attr, name in TARGETS:
            owner = _resolve(owner_name)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- counters ----------------------------------------------------------

    def _observe_offset(self, args, kwargs, result, exc) -> None:
        if isinstance(exc, self._nosignal):
            self.counts["fusion.estimate_offset.nosignal"] += 1
        elif exc is None:
            search = _arg(args, kwargs, 2, "search")
            n_xy = len(search.xy_values())
            self.counts["fusion.estimate_offset.candidates"] += len(search.theta_values()) * n_xy * n_xy
            if result.norm() > 0.0:
                self.counts["fusion.estimate_offset.adopted"] += 1

    def _observe_encode(self, args, kwargs, result, exc) -> None:
        params = _arg(args, kwargs, 0, "params")
        frames = _arg(args, kwargs, 1, "frames")
        tokens = sum(f.spec.height * f.spec.width for f in frames)
        # one layer's float64 (heads, S, S) score array, as the shapes imply
        attn = params.heads * tokens * tokens * 8 if params.layers else 0
        self.maxima["temporal.encode.tokens"] = max(self.maxima["temporal.encode.tokens"], tokens)
        self.maxima["temporal.encode.attn_bytes_computed"] = max(
            self.maxima["temporal.encode.attn_bytes_computed"], attn)

    def _observe_ransac(self, args, kwargs, result, exc) -> None:
        if exc is None and result is None:
            self.counts["localization.ransac_pose.failed"] += 1

    def _ok_counter(self, span: str):
        def observe(args, kwargs, result, exc) -> None:
            if exc is None and result is not None:
                self.counts[f"{span}.ok"] += 1
        return observe

    def _observe_decode(self, args, kwargs, result, exc) -> None:
        if exc is None:
            self.counts["detection.decode_head.dets"] += len(result)

    # -- aggregation -------------------------------------------------------

    def layer_stats(self) -> tuple[dict[str, float], dict[str, int], dict[str, list[float]]]:
        """Per span name: total self time, calls and inclusive durations."""
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("spans still open")
        child = [0.0] * len(done)
        for name, start, end, parent, _ in done:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _), covered in zip(done, child):
            self_s[name] += end - start - covered
            calls[name] += 1
            durations[name].append(end - start)
        return self_s, calls, durations

    def metrics(self, scenarios: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Every PER_LAYER metric from the spans and counters so far."""
        self_s, calls, durations = self.layer_stats()

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            span, _, kind = name.rpartition(".")
            if kind == "self_s":
                out[name] = self_s.get(span, 0.0) / scenarios
            elif kind == "calls":
                out[name] = calls.get(span, 0) / scenarios
        pipeline_ms = [1000.0 * d for d in durations.get("harness.run_pipeline", [])]
        if len(pipeline_ms) >= 2:
            cuts = statistics.quantiles(pipeline_ms, n=10, method="inclusive")
            out["harness.run_pipeline.ms_p50"], out["harness.run_pipeline.ms_p90"] = cuts[4], cuts[8]
        else:
            out["harness.run_pipeline.ms_p50"] = out["harness.run_pipeline.ms_p90"] = (
                pipeline_ms[0] if pipeline_ms else 0.0)
        out["harness.run_pipeline.samples"] = len(pipeline_ms)
        n_ransac = calls.get("localization.ransac_pose", 0)
        out["localization.ransac_pose.fail_ratio"] = ratio(
            self.counts["localization.ransac_pose.failed"], n_ransac)
        for span in ("baselines.icp_align", "baselines.graph_match_align"):
            out[f"{span}.ok_ratio"] = ratio(self.counts[f"{span}.ok"], calls.get(span, 0))
        n_offset = calls.get("fusion.estimate_offset", 0)
        n_nosignal = self.counts["fusion.estimate_offset.nosignal"]
        out["fusion.estimate_offset.candidates"] = self.counts["fusion.estimate_offset.candidates"] / scenarios
        out["fusion.estimate_offset.nosignal_ratio"] = ratio(n_nosignal, n_offset)
        out["fusion.estimate_offset.adopt_ratio"] = ratio(
            self.counts["fusion.estimate_offset.adopted"], n_offset - n_nosignal)
        out["temporal.encode.tokens"] = self.maxima["temporal.encode.tokens"]
        out["temporal.encode.attn_bytes_computed"] = self.maxima["temporal.encode.attn_bytes_computed"]
        out["detection.decode_head.dets"] = self.counts["detection.decode_head.dets"] / scenarios
        out["trace.overhead_ratio"] = ratio(traced_wall, untraced_wall)
        covered = sum(t for name, t in self_s.items() if name != ROOT)
        out["trace.coverage"] = ratio(covered, traced_wall)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, run]) + "\n")
