"""Rotated-box detection types, BEV IoU, and evaluation metrics.

Boxes follow the (x, y, z, h, w, l, theta) layout: center, vertical extent h,
width w across the heading, length l along the heading, and yaw theta. BEV
overlap is computed on the rotated (l, w) footprint via convex polygon
clipping. Most pairs that NMS and AP matching score lie far apart, so
``rotated_iou_bev`` first rejects pairs whose centers are further apart than
the two footprints' circumradii plus a margin: those footprints cannot
overlap, so their IoU is exactly 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fusion import BevGrid
from .geometry import normalize_angle


@dataclass(frozen=True)
class RotatedBox3D:
    x: float
    y: float
    z: float
    h: float
    w: float
    l: float
    theta: float

    def __post_init__(self) -> None:
        vals = [self.x, self.y, self.z, self.h, self.w, self.l, self.theta]
        if not all(math.isfinite(float(v)) for v in vals):
            raise ValueError("box fields must be finite")
        if self.h <= 0.0 or self.w <= 0.0 or self.l <= 0.0:
            raise ValueError("box extents must be positive")
        for name in ("x", "y", "z", "h", "w", "l"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.z, self.h, self.w, self.l, self.theta]

    def corners_bev(self) -> np.ndarray:
        """Footprint corners, counter-clockwise, shape (4, 2)."""
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        dx = self.l / 2.0
        dy = self.w / 2.0
        local = np.array([[dx, dy], [-dx, dy], [-dx, -dy], [dx, -dy]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.x, self.y])


@dataclass(frozen=True)
class Detection:
    box: RotatedBox3D
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")
        object.__setattr__(self, "score", float(self.score))


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = (0.3, 0.5, 0.7)
    score_threshold: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError("score_threshold must lie in [0, 1]")
        if not self.iou_thresholds:
            raise ValueError("at least one iou threshold is required")
        for t in self.iou_thresholds:
            if not 0.0 < t < 1.0:
                raise ValueError("iou thresholds must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class HeadParams:
    """Per-cell linear decode head: 8 outputs from C input channels.

    Output layout: [objectness, dx, dy, z, log h, log w, log l, theta]."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weight, dtype=float)
        b = np.array(self.bias, dtype=float).reshape(-1)
        if w.ndim != 2 or w.shape[0] != 8 or b.shape[0] != 8:
            raise ValueError("head weight must be (8, C) and bias (8,)")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


# A point counts as inside a clip edge down to this cross product.
_CLIP_TOL = 1e-12


def _polygon_area(poly: np.ndarray) -> float:
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(poly: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Keep the part of poly on the left of directed edge a -> b.

    A crossing is clamped to the segment it splits: when one end lies in the
    tolerance band outside the edge and the segment is nearly parallel to
    it, the line crossing can fall beyond the segment's ends."""
    edge = b - a
    out: list[np.ndarray] = []
    n = len(poly)
    for i in range(n):
        cur = poly[i]
        nxt = poly[(i + 1) % n]
        cur_in = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= -_CLIP_TOL
        nxt_in = edge[0] * (nxt[1] - a[1]) - edge[1] * (nxt[0] - a[0]) >= -_CLIP_TOL
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            seg = nxt - cur
            denom = edge[0] * seg[1] - edge[1] * seg[0]
            if denom != 0.0:
                t = (edge[0] * (a[1] - cur[1]) - edge[1] * (a[0] - cur[0])) / denom
                out.append(cur + min(1.0, max(0.0, t)) * seg)
    return out


def rotated_iou_bev(a: RotatedBox3D, b: RotatedBox3D) -> float:
    """Intersection over union of the two rotated BEV footprints.

    Far pairs return 0.0 before any corner is built. A footprint lies within
    its circumradius ``r = 0.5 * hypot(l, w)`` of its center. The clip keeps
    a point of a when its cross product with an edge of b is at least
    ``-_CLIP_TOL``, a signed distance of ``-_CLIP_TOL / |edge|``. So b's
    footprint grows by at most that much per side, and its corners move out
    by at most ``sqrt(2) * _CLIP_TOL / min(b.l, b.w)``. Rounding in the
    corners and cross products is about 1e-16 of the scale of the
    coordinates and extents; the margin adds 1e-9 of that scale on top.
    Beyond ``r_a + r_b + margin`` no point of a survives the four clips, so
    the clip's answer is 0.0 as well."""
    dx = a.x - b.x
    dy = a.y - b.y
    reach = (
        0.5 * (math.hypot(a.l, a.w) + math.hypot(b.l, b.w))
        + math.sqrt(2.0) * _CLIP_TOL / min(b.l, b.w)
        + 1e-9 * (abs(a.x) + abs(a.y) + abs(b.x) + abs(b.y) + a.l + a.w + b.l + b.w)
    )
    if dx * dx + dy * dy > reach * reach:
        return 0.0
    pa = a.corners_bev()
    pb = b.corners_bev()
    clipped = [pa[i] for i in range(4)]
    for i in range(4):
        if not clipped:
            break
        clipped = _clip_polygon(clipped, pb[i], pb[(i + 1) % 4])
    inter = _polygon_area(np.array(clipped)) if len(clipped) >= 3 else 0.0
    area_a = a.l * a.w
    area_b = b.l * b.w
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))


@dataclass(frozen=True, eq=False)
class ScoredSet:
    """One detection set matched against its targets at several IoU
    thresholds. ``scores`` holds the detection scores in rank order (score
    descending, ties by detection index), ``tp[t, rank]`` is True where the
    detection at that rank is a true positive at threshold number t, and
    ``num_gt`` counts the targets."""

    scores: np.ndarray
    tp: np.ndarray
    num_gt: int


def score_detection_set(
    dets: Sequence[Detection], gts: Sequence[RotatedBox3D], iou_thresholds: Sequence[float]
) -> ScoredSet:
    """Greedy score-descending matching of dets to gts at every threshold,
    from one pass of detection x target IoUs.

    Each detection, in rank order, takes the untaken target of highest IoU
    above 0 (the lowest target index wins ties), and is a true positive when
    that IoU reaches the threshold; below it, the detection takes nothing.
    Only the nonzero IoUs of each detection are kept, as (target index, IoU)
    pairs in ascending target order, so memory grows with the overlapping
    pairs, not with detections x targets."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    overlaps: list[list[tuple[int, float]]] = []
    for i in order:
        box = dets[i].box
        row = []
        for j, gt in enumerate(gts):
            iou = rotated_iou_bev(box, gt)
            if iou > 0.0:
                row.append((j, iou))
        overlaps.append(row)
    tp = np.zeros((len(iou_thresholds), len(dets)), dtype=bool)
    for t, thr in enumerate(iou_thresholds):
        taken = [False] * len(gts)
        for rank, row in enumerate(overlaps):
            best_iou = 0.0
            best_j = -1
            for j, iou in row:
                if iou > best_iou and not taken[j]:
                    best_iou = iou
                    best_j = j
            if best_j >= 0 and best_iou >= thr:
                taken[best_j] = True
                tp[t, rank] = True
    scores = np.array([dets[i].score for i in order], dtype=float)
    return ScoredSet(scores=scores, tp=tp, num_gt=len(gts))


def _ap_from_counts(tp: np.ndarray, num_gt: int) -> float:
    """All-point interpolated AP: the area under the precision envelope."""
    tp_cum = np.cumsum(tp.astype(float))
    fp_cum = np.cumsum((~tp).astype(float))
    recall = tp_cum / num_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    changed = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


def pooled_ap_from_sets(sets: Sequence[ScoredSet], threshold_index: int) -> float:
    """Average precision pooled over scored sets at threshold number
    threshold_index: matching stays within each set, the precision-recall
    curve is built over all detections jointly, ranked by score with ties
    broken by set order and then by rank within the set.

    With no target in any set the AP is 1.0 when no set has a detection
    (nothing to find, nothing hallucinated) and 0.0 otherwise."""
    num_gt = sum(s.num_gt for s in sets)
    nonempty = [s for s in sets if len(s.scores)]
    if num_gt == 0:
        return 1.0 if not nonempty else 0.0
    if not nonempty:
        return 0.0
    scores = np.concatenate([s.scores for s in nonempty])
    flags = np.concatenate([s.tp[threshold_index] for s in nonempty])
    return _ap_from_counts(flags[np.argsort(-scores, kind="stable")], num_gt)


def average_precision(
    dets: Sequence[Detection],
    gts: Sequence[RotatedBox3D],
    iou_thr: float,
) -> float:
    """Average precision at one IoU threshold for a single frame: the pooled
    AP of that one frame."""
    return pooled_average_precision([(dets, gts)], iou_thr)


def pooled_average_precision(
    frames: Sequence[tuple[Sequence[Detection], Sequence[RotatedBox3D]]],
    iou_thr: float,
) -> float:
    """Average precision pooled over (detections, targets) frames; see
    pooled_ap_from_sets for the ranking and the empty-set conventions."""
    return pooled_ap_from_sets([score_detection_set(dets, gts, (iou_thr,)) for dets, gts in frames], 0)


def _peak_mask(values: np.ndarray) -> np.ndarray:
    """Cells that win their 3x3 neighborhood, one winner per local window.

    Ties on the value fall back to the 3x3 neighborhood sum so a flat
    plateau resolves to an interior cell rather than its first corner, and
    remaining ties go to the lower scan index. Fully deterministic."""
    h, w = values.shape
    idx = np.arange(h * w).reshape(h, w)
    vpad = np.full((h + 2, w + 2), -np.inf)
    vpad[1:-1, 1:-1] = values
    spad = np.zeros((h + 2, w + 2))
    spad[1:-1, 1:-1] = values
    nbsum = np.zeros((h, w))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            nbsum += spad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    fpad = np.full((h + 2, w + 2), -np.inf)
    fpad[1:-1, 1:-1] = nbsum
    ipad = np.full((h + 2, w + 2), h * w, dtype=np.int64)
    ipad[1:-1, 1:-1] = idx
    peak = np.ones((h, w), dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            nv = vpad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
            ns = fpad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
            ni = ipad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
            beats = (nv > values) | (
                (nv == values) & ((ns > nbsum) | ((ns == nbsum) & (ni < idx)))
            )
            peak &= ~beats
    return peak


def decode_head(fused: BevGrid, params: HeadParams, cfg: EvalConfig, nms_iou: float = 0.5) -> list[Detection]:
    """Decode per-cell boxes from a fused grid with a linear head.

    Objectness is the clipped linear response in [0, 1]; cells above
    cfg.score_threshold emit one box with center offset (dx, dy) from the cell
    center, absolute z, exp-decoded extents, and a yaw. Each candidate must
    also be a 3x3 local maximum of the raw objectness, which collapses an
    extended object footprint to one box; the box center then shifts to the
    score-weighted centroid of the peak's 3x3 window, recovering sub-cell
    localization from the response shape. Greedy NMS finally drops any box
    whose BEV IoU with a kept higher-scoring box exceeds nms_iou."""
    if params.weight.shape[1] != fused.data.shape[0]:
        raise ValueError("head weight channel count must match the grid")
    raw = np.einsum("kc,chw->khw", params.weight, fused.data) + params.bias[:, None, None]
    scores = np.clip(raw[0], 0.0, 1.0)
    rows, cols = np.nonzero((scores > cfg.score_threshold) & _peak_mask(raw[0]))
    spec = fused.spec
    height, width = scores.shape
    candidates: list[Detection] = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        vec = raw[:, r, c]
        cx = spec.origin[0] + c * spec.resolution + vec[1]
        cy = spec.origin[1] + r * spec.resolution + vec[2]
        acc_w = acc_x = acc_y = 0.0
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = r + dr, c + dc
                if 0 <= rr < height and 0 <= cc < width:
                    v = float(scores[rr, cc])
                    acc_w += v
                    acc_x += v * dc
                    acc_y += v * dr
        if acc_w > 0.0:
            cx += spec.resolution * acc_x / acc_w
            cy += spec.resolution * acc_y / acc_w
        box = RotatedBox3D(
            x=cx,
            y=cy,
            z=vec[3],
            h=math.exp(vec[4]),
            w=math.exp(vec[5]),
            l=math.exp(vec[6]),
            theta=vec[7],
        )
        candidates.append(Detection(box=box, score=float(scores[r, c])))
    candidates.sort(key=lambda d: -d.score)
    kept: list[Detection] = []
    for det in candidates:
        if all(rotated_iou_bev(det.box, k.box) <= nms_iou for k in kept):
            kept.append(det)
    return kept
