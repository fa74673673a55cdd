"""Rotated-box detection types, BEV IoU, and evaluation metrics.

Boxes follow the (x, y, z, h, w, l, theta) layout: center, vertical extent h,
width w across the heading, length l along the heading, and yaw theta. BEV
overlap is computed on the rotated (l, w) footprint via convex polygon
clipping, on (x, y) pairs of Python floats. Most pairs that AP matching
scores lie far apart, so ``rotated_iou_bev`` first rejects pairs whose
centers are further apart than the two footprints' circumradii plus a
margin: those footprints cannot overlap, so their IoU is exactly 0.0. The
decode head's boxes all have yaw 0 and the same extents, so its NMS uses the
closed-form IoU of two such boxes instead.

AP is computed for every IoU threshold of a scored set list at once
(``pooled_ap_per_threshold``): one pooled ranking, then one row of
cumulative counts per threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fusion import MAX_HEIGHT_CHANNEL, BevGrid, box_sum_3x3
from .geometry import normalize_angle
from .localization import MAX_SIGMA_T


@dataclass(frozen=True)
class RotatedBox3D:
    x: float
    y: float
    z: float
    h: float
    w: float
    l: float
    theta: float
    # corner_pairs' cache; a field, so that every box has the same attributes
    # from construction on and attribute lookups stay on CPython's fast path
    _corner_pairs: tuple[tuple[float, float], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    @property
    def corner_pairs(self) -> tuple[tuple[float, float], ...]:
        """``corners_bev()`` as (x, y) pairs of Python floats, built on first
        use and kept: a target is clipped against every detection near it."""
        pairs = self._corner_pairs
        if pairs is None:
            pairs = tuple((x, y) for x, y in self.corners_bev().tolist())
            object.__setattr__(self, "_corner_pairs", pairs)
        return pairs


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


@dataclass(frozen=True)
class HeadConfig:
    """The analytic decode head: objectness is a clipped linear ramp in fused
    max height above ``height_floor``, and every box has the nominal extents,
    height ``nominal_z`` and yaw 0."""

    height_gain: float = 2.0
    height_floor: float = 0.4
    nominal_z: float = 0.8
    nominal_h: float = 1.6
    nominal_w: float = 2.2
    nominal_l: float = 3.6
    nms_iou: float = 0.5

    def __post_init__(self) -> None:
        if self.height_gain <= 0.0:
            raise ValueError("height_gain must be positive")
        if min(self.nominal_h, self.nominal_w, self.nominal_l) <= 0.0:
            raise ValueError("nominal extents must be positive")
        lengths = (self.height_floor, self.nominal_z, self.nominal_h, self.nominal_w, self.nominal_l)
        if max(abs(v) for v in (self.height_gain, *lengths)) > MAX_SIGMA_T:
            raise ValueError(f"head gain, floor, height and extents must not exceed {MAX_SIGMA_T:g} in magnitude")
        if not 0.0 < self.nms_iou < 1.0:
            raise ValueError("nms_iou must lie in (0, 1)")


# A point counts as inside a clip edge down to this cross product.
_CLIP_TOL = 1e-12


def _polygon_area(poly: np.ndarray) -> float:
    x = poly[:, 0]
    y = poly[:, 1]
    x_next = np.concatenate((x[1:], x[:1]))
    y_next = np.concatenate((y[1:], y[:1]))
    return 0.5 * abs(float(np.dot(x, y_next) - np.dot(y, x_next)))


def _clip_polygon(
    poly: Sequence[Sequence[float]], a: Sequence[float], b: Sequence[float]
) -> list[tuple[float, float]]:
    """Keep the part of poly on the left of directed edge a -> b.

    Vertices and edge ends are (x, y) pairs of Python floats: each cross
    product and crossing takes the same IEEE steps, in the same order, as
    on numpy 2-vectors, without a numpy call per step. A crossing is
    clamped to the segment it splits: when one end lies in the tolerance
    band outside the edge and the segment is nearly parallel to it, the
    line crossing can fall beyond the segment's ends."""
    ax, ay = a
    ex = b[0] - ax
    ey = b[1] - ay
    inside = [ex * (y - ay) - ey * (x - ax) >= -_CLIP_TOL for x, y in poly]
    out: list[tuple[float, float]] = []
    n = len(poly)
    for i in range(n):
        cx, cy = poly[i]
        cur_in = inside[i]
        if cur_in:
            out.append((cx, cy))
        if cur_in != inside[(i + 1) % n]:
            nx, ny = poly[(i + 1) % n]
            sx = nx - cx
            sy = ny - cy
            denom = ex * sy - ey * sx
            if denom != 0.0:
                t = min(1.0, max(0.0, (ex * (ay - cy) - ey * (ax - cx)) / denom))
                out.append((cx + t * sx, cy + t * sy))
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
    the clip's answer is 0.0 as well. Near pairs are clipped on each box's
    cached float pairs (``corner_pairs``, see _clip_polygon)."""
    dx = a.x - b.x
    dy = a.y - b.y
    reach = (
        0.5 * (math.hypot(a.l, a.w) + math.hypot(b.l, b.w))
        + math.sqrt(2.0) * _CLIP_TOL / min(b.l, b.w)
        + 1e-9 * (abs(a.x) + abs(a.y) + abs(b.x) + abs(b.y) + a.l + a.w + b.l + b.w)
    )
    if dx * dx + dy * dy > reach * reach:
        return 0.0
    clipped = a.corner_pairs
    pb = b.corner_pairs
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


def _ap_rows(tp: np.ndarray, num_gt: int) -> list[float]:
    """All-point interpolated AP of each row of ranked true-positive flags
    (T, D): the area under that row's precision envelope.

    The counts are small integers, so the cumulative sums along the rows are
    exact and the detections so far at rank k are k + 1. Each row then sums
    its own steps where recall changes, in one 1-D sum as a lone row would."""
    rows, size = tp.shape
    tp_cum = np.cumsum(tp, axis=1, dtype=float)
    mrec = np.empty((rows, size + 2))
    mrec[:, 0] = 0.0
    np.divide(tp_cum, num_gt, out=mrec[:, 1:-1])
    mrec[:, -1] = 1.0
    mpre = np.zeros_like(mrec)
    np.divide(tp_cum, np.arange(1.0, size + 1.0), out=mpre[:, 1:-1])
    mpre = np.maximum.accumulate(mpre[:, ::-1], axis=1)[:, ::-1]
    steps = mrec[:, 1:] - mrec[:, :-1]
    areas = steps * mpre[:, 1:]
    return [float(np.sum(area[step != 0.0])) for step, area in zip(steps, areas)]


def _ap_from_counts(tp: np.ndarray, num_gt: int) -> float:
    """All-point interpolated AP of one ranked flag vector."""
    return _ap_rows(tp[None], num_gt)[0]


def pooled_ap_per_threshold(sets: Sequence[ScoredSet], num_thresholds: int) -> list[float]:
    """Average precision pooled over scored sets at each of threshold
    numbers 0 .. num_thresholds - 1: matching stays within each set, the
    precision-recall curve is built over all detections jointly, ranked by
    score with ties broken by set order and then by rank within the set.
    One ranking serves every threshold.

    With no target in any set the AP is 1.0 when no set has a detection
    (nothing to find, nothing hallucinated) and 0.0 otherwise."""
    num_gt = sum(s.num_gt for s in sets)
    nonempty = [s for s in sets if len(s.scores)]
    if num_gt == 0:
        return [1.0 if not nonempty else 0.0] * num_thresholds
    if not nonempty:
        return [0.0] * num_thresholds
    scores = np.concatenate([s.scores for s in nonempty])
    flags = np.concatenate([s.tp[:num_thresholds] for s in nonempty], axis=1)
    return _ap_rows(flags[:, np.argsort(-scores, kind="stable")], num_gt)


def pooled_ap_from_sets(sets: Sequence[ScoredSet], threshold_index: int) -> float:
    """Average precision pooled over scored sets at threshold number
    threshold_index; see pooled_ap_per_threshold."""
    return pooled_ap_per_threshold(sets, threshold_index + 1)[threshold_index]


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
    pooled_ap_per_threshold for the ranking and the empty-set conventions."""
    return pooled_ap_from_sets([score_detection_set(dets, gts, (iou_thr,)) for dets, gts in frames], 0)


# The 3x3 window's taps in row-major (dr, dc) order, and its eight neighbors
# (the taps without the center), as (9, 1) and (8, 1) columns.
_TAPS = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1))
_TAP_DR, _TAP_DC = np.array(_TAPS).T[:, :, None]
_NEIGHBOR_DR, _NEIGHBOR_DC = np.array(_TAPS[:4] + _TAPS[5:]).T[:, :, None]
# The weights of the centroid's sums (1, dc, dr), for a leading zero row and
# each tap.
_TAP_WEIGHTS = np.stack([np.ones(10), np.append(0.0, _TAP_DC), np.append(0.0, _TAP_DR)])[:, :, None]


def _peak_cells(values: np.ndarray, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the boolean mask ``candidates`` that win their 3x3
    neighborhood of values, one winner per local window, as (rows, cols)
    in scan order.

    Ties on the value fall back to the 3x3 neighborhood sum so a flat
    plateau resolves to an interior cell rather than its first corner, and
    remaining ties go to the lower scan index; cells past the border beat
    none. Fully deterministic. Only the candidates are judged, so the work
    beyond one neighborhood sum of the grid grows with their number."""
    h, w = values.shape
    rows, cols = np.nonzero(candidates)
    vpad = np.full((h + 2, w + 2), -np.inf)
    vpad[1:-1, 1:-1] = values
    nbsum = box_sum_3x3(values)
    fpad = np.full((h + 2, w + 2), -np.inf)
    fpad[1:-1, 1:-1] = nbsum
    ipad = np.full((h + 2, w + 2), h * w, dtype=np.int64)
    ipad[1:-1, 1:-1] = np.arange(h * w).reshape(h, w)
    nr = rows + 1 + _NEIGHBOR_DR
    nc = cols + 1 + _NEIGHBOR_DC
    nv, ns, ni = vpad[nr, nc], fpad[nr, nc], ipad[nr, nc]
    v, s, i = values[rows, cols], nbsum[rows, cols], rows * w + cols
    beats = (nv > v) | ((nv == v) & ((ns > s) | ((ns == s) & (ni < i))))
    wins = ~beats.any(axis=0)
    return rows[wins], cols[wins]


def decode_head(fused: BevGrid, head: HeadConfig, cfg: EvalConfig, height_offset: float = 0.0) -> list[Detection]:
    """Decode boxes from a fused grid with the analytic head.

    Objectness is ``height_gain`` times the max-height channel less
    ``height_offset`` and ``height_floor``, clipped to [0, 1]; cells above
    cfg.score_threshold emit one box with the head's nominal height and
    extents and yaw 0. Each candidate must also be a 3x3 local maximum of
    the raw objectness, which collapses an extended object footprint to one
    box; the box center is the peak cell's center shifted to the
    score-weighted centroid of its 3x3 window, recovering sub-cell
    localization from the response shape (all windows at once, tap by tap
    in a per-cell loop's order, zeros outside the grid).

    Greedy NMS then drops any box whose BEV IoU with a kept higher-scoring
    box exceeds head.nms_iou. All boxes share yaw 0 and (l, w), so that IoU
    is ``inter / (l*w + l*w - inter)`` with ``inter = max(0, l - |dx|) *
    max(0, w - |dy|)``, one row over the later boxes per kept box. It equals
    ``rotated_iou_bev``'s polygon clip up to the clip's rounding (about
    eps * S**2 / (l*w) at coordinates of magnitude S) and edge tolerance
    ``_CLIP_TOL``, so the two keep different boxes only where some pair's
    IoU lies within that band of head.nms_iou."""
    if fused.data.shape[0] <= MAX_HEIGHT_CHANNEL:
        raise ValueError("the fused grid has no max-height channel")
    gain = head.height_gain
    raw = gain * fused.data[MAX_HEIGHT_CHANNEL] + -gain * (head.height_floor + height_offset)
    scores = np.clip(raw, 0.0, 1.0)
    rows, cols = _peak_cells(raw, scores > cfg.score_threshold)
    spec = fused.spec
    padded = np.zeros((scores.shape[0] + 2, scores.shape[1] + 2))
    padded[1:-1, 1:-1] = scores
    # each peak's 3x3 window, one row per tap in a per-cell loop's (dr, dc)
    # order after a row of zeros, so that cumsum adds them as the loop did
    taps = np.zeros((10, rows.shape[0]))
    taps[1:] = padded[rows + 1 + _TAP_DR, cols + 1 + _TAP_DC]
    acc_w, acc_x, acc_y = np.cumsum(_TAP_WEIGHTS * taps, axis=1)[:, -1]
    # acc_w holds the peak's own score, which exceeds the threshold, so it is
    # positive
    xs = spec.origin[0] + cols * spec.resolution + spec.resolution * acc_x / acc_w
    ys = spec.origin[1] + rows * spec.resolution + spec.resolution * acc_y / acc_w
    peak_scores = scores[rows, cols]
    order = np.argsort(-peak_scores, kind="stable")
    xs, ys, peak_scores = xs[order], ys[order], peak_scores[order]

    length, width = head.nominal_l, head.nominal_w
    union_base = length * width + length * width
    alive = np.ones(order.shape[0], dtype=bool)
    kept: list[Detection] = []
    for i, (x, y, score) in enumerate(zip(xs.tolist(), ys.tolist(), peak_scores.tolist())):
        if not alive[i]:
            continue
        box = RotatedBox3D(x=x, y=y, z=head.nominal_z, h=head.nominal_h, w=width, l=length, theta=0.0)
        kept.append(Detection(box=box, score=score))
        if i + 1 < order.shape[0]:
            overlap_x = np.maximum(0.0, length - np.abs(xs[i + 1 :] - x))
            inter = overlap_x * np.maximum(0.0, width - np.abs(ys[i + 1 :] - y))
            alive[i + 1 :] &= inter / (union_base - inter) <= head.nms_iou
    return kept
