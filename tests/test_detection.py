import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopalign import detection
from coopalign.detection import (
    Detection,
    EvalConfig,
    HeadConfig,
    RotatedBox3D,
    _ap_from_counts,
    _peak_mask,
    average_precision,
    decode_head,
    pooled_ap_from_sets,
    pooled_average_precision,
    rotated_iou_bev,
    score_detection_set,
)
from coopalign.fusion import MAX_HEIGHT_CHANNEL, BevGrid, GridSpec


def _box(x=0.0, y=0.0, w=1.0, l=1.0, theta=0.0, z=0.0, h=1.0):
    return RotatedBox3D(x=x, y=y, z=z, h=h, w=w, l=l, theta=theta)


def test_box_validation_and_angle_wrap():
    b = RotatedBox3D(x=0, y=0, z=0, h=1, w=1, l=1, theta=3 * math.pi)
    assert abs(b.theta - math.pi) < 1e-12
    assert b.as_list() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, b.theta]
    with pytest.raises(ValueError):
        _box(w=0.0)
    with pytest.raises(ValueError):
        _box(x=math.nan)


def test_corners_axis_aligned_and_ccw():
    b = RotatedBox3D(x=1, y=2, z=0, h=1, w=2, l=4, theta=0.0)
    corners = b.corners_bev()
    want = {(3.0, 3.0), (-1.0, 3.0), (-1.0, 1.0), (3.0, 1.0)}
    assert {(round(cx, 9), round(cy, 9)) for cx, cy in corners} == want
    x, y = corners[:, 0], corners[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area2 > 0  # counter-clockwise

    quarter = RotatedBox3D(x=0, y=0, z=0, h=1, w=2, l=4, theta=math.pi / 2)
    spans = quarter.corners_bev().max(axis=0) - quarter.corners_bev().min(axis=0)
    np.testing.assert_allclose(spans, [2.0, 4.0], atol=1e-12)


def test_detection_score_range():
    with pytest.raises(ValueError):
        Detection(_box(), 1.5)
    with pytest.raises(ValueError):
        Detection(_box(), -0.1)


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(score_threshold=1.5)
    with pytest.raises(ValueError):
        EvalConfig(iou_thresholds=(0.5, 1.0))


def test_iou_identical_disjoint_and_offset():
    a = _box()
    assert rotated_iou_bev(a, a) == 1.0
    assert rotated_iou_bev(a, _box(x=50.0)) == 0.0
    # unit squares offset by half a side: 0.5 / 1.5
    assert abs(rotated_iou_bev(a, _box(x=0.5)) - 1.0 / 3.0) < 1e-12


def test_iou_forty_five_degree_rotation():
    a = _box(w=2.0, l=2.0)
    b = _box(w=2.0, l=2.0, theta=math.pi / 4)
    inter = 8.0 * (math.sqrt(2.0) - 1.0)
    want = inter / (8.0 - inter)
    got = rotated_iou_bev(a, b)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.7071067811865475) < 1e-12


def test_iou_containment_and_z_blindness():
    outer = _box(w=2.0, l=2.0)
    inner = _box(w=1.0, l=1.0)
    assert abs(rotated_iou_bev(outer, inner) - 0.25) < 1e-12
    lifted = RotatedBox3D(x=0, y=0, z=5.0, h=3.0, w=1, l=1, theta=0)
    assert rotated_iou_bev(_box(), lifted) == 1.0


def test_iou_invariant_under_common_rigid_motion():
    rng = np.random.default_rng(80)
    for _ in range(20):
        a = _box(*rng.uniform(-2, 2, size=2), w=rng.uniform(0.5, 2), l=rng.uniform(0.5, 3), theta=rng.uniform(-3, 3))
        b = _box(*rng.uniform(-2, 2, size=2), w=rng.uniform(0.5, 2), l=rng.uniform(0.5, 3), theta=rng.uniform(-3, 3))
        phi = rng.uniform(-math.pi, math.pi)
        tx, ty = rng.uniform(-5, 5, size=2)
        cp, sp = math.cos(phi), math.sin(phi)

        def moved(box):
            return RotatedBox3D(
                x=cp * box.x - sp * box.y + tx,
                y=sp * box.x + cp * box.y + ty,
                z=box.z,
                h=box.h,
                w=box.w,
                l=box.l,
                theta=box.theta + phi,
            )

        before = rotated_iou_bev(a, b)
        after = rotated_iou_bev(moved(a), moved(b))
        assert abs(before - after) < 1e-9


def test_iou_symmetry_and_bounds():
    rng = np.random.default_rng(81)
    for _ in range(30):
        a = _box(*rng.uniform(-1, 1, size=2), w=rng.uniform(0.3, 2), l=rng.uniform(0.3, 2), theta=rng.uniform(-3, 3))
        b = _box(*rng.uniform(-1, 1, size=2), w=rng.uniform(0.3, 2), l=rng.uniform(0.3, 2), theta=rng.uniform(-3, 3))
        ab = rotated_iou_bev(a, b)
        assert abs(ab - rotated_iou_bev(b, a)) < 1e-12
        assert 0.0 <= ab <= 1.0


def _clip_iou(a, b):
    """rotated_iou_bev without the far-pair reject: always runs the clip."""
    pa = a.corners_bev()
    pb = b.corners_bev()
    clipped = [pa[i] for i in range(4)]
    for i in range(4):
        if not clipped:
            break
        clipped = detection._clip_polygon(clipped, pb[i], pb[(i + 1) % 4])
    inter = detection._polygon_area(np.array(clipped)) if len(clipped) >= 3 else 0.0
    area_a = a.l * a.w
    area_b = b.l * b.w
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))


_extents = st.floats(-3.0, 2.0).map(lambda e: 10.0**e)
_yaws = st.floats(-math.pi, math.pi)


@settings(max_examples=400, deadline=None)
@given(
    al=_extents, aw=_extents, at=_yaws, bl=_extents, bw=_extents, bt=_yaws,
    bearing=_yaws,
    origin=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    near=st.booleans(),
    gap=st.one_of(
        st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
        st.floats(-12.0, 0.0).map(lambda e: -(10.0**e)),
        st.floats(-1.0, 1.0),
    ),
    fraction=st.floats(0.0, 3.0),
    aligned=st.booleans(),
)
def test_far_pair_reject_matches_clip_bitwise(
    al, aw, at, bl, bw, bt, bearing, origin, near, gap, fraction, aligned
):
    # near pairs sit at r_a + r_b + gap (gap down to +-1e-12), the others at
    # up to three times r_a + r_b; aligned pairs turn one corner of each box
    # toward the other (the drawn yaw becomes a small jitter), the only way
    # footprints still overlap when the circumcircles barely do
    if aligned:
        at = bearing - math.atan2(aw, al) + 1e-3 * at
        bt = bearing + math.pi - math.atan2(bw, bl) + 1e-3 * bt
    a = _box(x=origin[0], y=origin[1], w=aw, l=al, theta=at)
    touch = 0.5 * (math.hypot(al, aw) + math.hypot(bl, bw))
    dist = max(0.0, touch + gap) if near else fraction * touch
    b = _box(
        x=origin[0] + dist * math.cos(bearing), y=origin[1] + dist * math.sin(bearing),
        w=bw, l=bl, theta=bt,
    )
    for p, q in ((a, b), (b, a)):
        got = rotated_iou_bev(p, q)
        want = _clip_iou(p, q)
        assert struct.pack("<d", got) == struct.pack("<d", want)


def _count_corner_builds(monkeypatch):
    calls = []
    original = RotatedBox3D.corners_bev

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(RotatedBox3D, "corners_bev", counted)
    return calls


def test_far_pair_builds_no_corners(monkeypatch):
    calls = _count_corner_builds(monkeypatch)
    a = _box(w=2.0, l=4.0)
    # circumradii sqrt(5) and sqrt(2): 3.65 m apart at most for any overlap
    assert rotated_iou_bev(a, _box(x=3.7, w=2.0, l=2.0, theta=0.4)) == 0.0
    assert calls == []
    # inside the reach the clip runs, even for a pair that does not touch
    assert rotated_iou_bev(a, _box(x=3.6, w=2.0, l=2.0)) == 0.0
    assert len(calls) == 2
    assert rotated_iou_bev(a, _box(x=0.5, w=2.0, l=2.0)) > 0.0
    assert len(calls) == 4


def _dropped_box(left, drop, run):
    """A 2x2 box whose lower edge starts at x = left, drop m below the line
    y = -1, and falls a further drop m every run m."""
    theta = math.atan(-drop / run)
    c, s = math.cos(theta), math.sin(theta)
    return _box(x=left + c - s, y=-1.0 - drop + s + c, w=2.0, l=2.0, theta=theta)


def test_far_pair_reject_drops_clip_extrapolation():
    # a's lower corners lie just below the line of b's bottom edge, the first
    # inside the clip tolerance and the second beyond it; the crossing of a's
    # nearly parallel edge with that line lies off the edge, and the clip
    # clamps it to the edge's end, so disjoint boxes overlap by nothing
    b = _box(w=2.0, l=2.0)
    far = _dropped_box(4.0, 3.4e-13, 4.0)  # 5 m apart: the far-pair reject
    near = _dropped_box(1.5, 4e-13, 1.5)  # 2.5 m apart: the clip decides
    for a in (far, near):
        for p, q in ((a, b), (b, a)):
            assert _clip_iou(p, q) == 0.0
            assert rotated_iou_bev(p, q) == 0.0


def _match_detections(dets, gts, iou_thr):
    """One greedy matching pass at one threshold, recomputing every IoU: the
    rule score_detection_set must reproduce. Each detection in score order
    (ties by index) takes the untaken target of highest IoU above 0, the
    lowest index winning ties, and is a true positive when that IoU reaches
    the threshold."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gts)
    tp = np.zeros(len(dets), dtype=bool)
    for rank, i in enumerate(order):
        best_iou = 0.0
        best_j = -1
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            iou = rotated_iou_bev(dets[i].box, gt)
            if iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0 and best_iou >= iou_thr:
            taken[best_j] = True
            tp[rank] = True
    return tp


def _envelope_ap(tp, num_gt):
    """_ap_from_counts with the precision envelope built by a Python loop."""
    tp_cum = np.cumsum(tp.astype(float))
    fp_cum = np.cumsum((~tp).astype(float))
    recall = tp_cum / num_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.shape[0] - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    changed = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


def _reference_pooled_ap(frames, iou_thr):
    """Pooled AP matched one threshold at a time, with a Python pooled sort."""
    scores, flags, num_gt, any_det = [], [], 0, False
    for dets, gts in frames:
        num_gt += len(gts)
        if len(dets) == 0:
            continue
        any_det = True
        tp = _match_detections(dets, gts, iou_thr)
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        scores.extend(dets[i].score for i in order)
        flags.extend(bool(v) for v in tp)
    if num_gt == 0:
        return 1.0 if not any_det else 0.0
    if not flags:
        return 0.0
    pooled = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return _envelope_ap(np.array([flags[i] for i in pooled], dtype=bool), num_gt)


def _bits(value):
    return struct.pack("<d", value)


def test_match_greedy_takes_best_iou_first():
    gt_a = _box(x=0.0)
    gt_b = _box(x=0.6)
    d1 = Detection(_box(x=0.1), 0.9)
    d2 = Detection(_box(x=0.05), 0.8)
    tp = score_detection_set([d1, d2], [gt_a, gt_b], (0.5,)).tp[0]
    assert tp.tolist() == [True, False]


def test_match_score_ties_break_by_index():
    gt = [_box(x=0.0)]
    d1 = Detection(_box(x=0.05), 0.5)
    d2 = Detection(_box(x=0.0), 0.5)
    tp = score_detection_set([d1, d2], gt, (0.5,)).tp[0]
    # d1 is ranked first by index, claims the box despite lower IoU
    assert tp.tolist() == [True, False]


def test_match_below_threshold_takes_nothing():
    # d1 overlaps the box too little at 0.5, so the box stays free for d2;
    # at 0.1 d1 takes it and d2 finds nothing left
    gt = [_box(x=0.0)]
    d1 = Detection(_box(x=0.7), 0.9)
    d2 = Detection(_box(x=0.1), 0.8)
    scored = score_detection_set([d1, d2], gt, (0.1, 0.5))
    assert scored.tp.tolist() == [[True, False], [False, True]]
    assert scored.scores.tolist() == [0.9, 0.8]
    assert scored.num_gt == 1


def test_match_iou_ties_break_by_target_index():
    # d1 overlaps both boxes by exactly 1/3 and takes the first; d2 sits on
    # the first box, so it finds only the second, which it does not overlap
    gts = [_box(x=-0.5), _box(x=0.5)]
    d1 = Detection(_box(x=0.0), 0.9)
    d2 = Detection(_box(x=-0.5), 0.8)
    assert rotated_iou_bev(d1.box, gts[0]) == rotated_iou_bev(d1.box, gts[1]) > 0.0
    assert score_detection_set([d1, d2], gts, (0.3,)).tp.tolist() == [[True, False]]
    assert score_detection_set([d1, d2], gts[::-1], (0.3,)).tp.tolist() == [[True, True]]


# Boxes on a coarse lattice with few extents and yaws, and scores from a short
# list: equal boxes, equal IoUs and equal scores all come up often.
_lattice_boxes = st.builds(
    lambda x, y, l, w, t: _box(x=0.5 * x, y=0.5 * y, l=l, w=w, theta=t),
    st.integers(-3, 3), st.integers(-1, 1),
    st.sampled_from([1.0, 2.0]), st.sampled_from([1.0, 1.5]), st.sampled_from([0.0, math.pi / 2, 0.3]),
)
_frames = st.tuples(
    st.lists(st.builds(Detection, _lattice_boxes, st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0])), max_size=8),
    st.lists(_lattice_boxes, max_size=6),
)
_thresholds = st.lists(
    st.sampled_from([0.3, 0.5, 0.7, 1.0 / 3.0, 0.25, 0.6, 0.999]), min_size=1, max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(frame=_frames, thresholds=_thresholds)
def test_scored_set_flags_equal_one_pass_per_threshold(frame, thresholds):
    dets, gts = frame
    scored = score_detection_set(dets, gts, thresholds)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    assert scored.scores.tolist() == [dets[i].score for i in order]
    assert scored.num_gt == len(gts)
    assert scored.tp.shape == (len(thresholds), len(dets))
    for t, thr in enumerate(thresholds):
        assert scored.tp[t].tolist() == _match_detections(dets, gts, thr).tolist()


@settings(max_examples=200, deadline=None)
@given(frames=st.lists(_frames, max_size=4), thresholds=_thresholds)
def test_ap_from_scored_sets_equals_reference(frames, thresholds):
    sets = [score_detection_set(dets, gts, thresholds) for dets, gts in frames]
    for t, thr in enumerate(thresholds):
        for frame, one in zip(frames, sets):
            want = _reference_pooled_ap([frame], thr)
            assert _bits(pooled_ap_from_sets([one], t)) == _bits(want)
            assert _bits(average_precision(*frame, thr)) == _bits(want)
        want = _reference_pooled_ap(frames, thr)
        assert _bits(pooled_ap_from_sets(sets, t)) == _bits(want)
        assert _bits(pooled_average_precision(frames, thr)) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=40), extra=st.integers(0, 5))
def test_precision_envelope_is_bitwise_the_loop(flags, extra):
    tp = np.array(flags, dtype=bool)
    num_gt = int(tp.sum()) + extra
    if num_gt == 0:
        num_gt = 1
    assert _bits(_ap_from_counts(tp, num_gt)) == _bits(_envelope_ap(tp, num_gt))


def _brute_force_ap(tp, num_gt):
    """Area under the right-continuous precision envelope."""
    tp = np.asarray(tp, dtype=float)
    rec = np.cumsum(tp) / num_gt
    prec = np.cumsum(tp) / np.arange(1, tp.size + 1)
    area = 0.0
    prev_r = 0.0
    for r in sorted(set(rec.tolist())):
        best = max(prec[rec >= r - 1e-12]) if (rec >= r - 1e-12).any() else 0.0
        area += (r - prev_r) * best
        prev_r = r
    return area


def test_average_precision_matches_brute_force():
    gts = [_box(x=0.0), _box(x=10.0), _box(x=20.0)]
    dets = [
        Detection(_box(x=0.0), 0.9),
        Detection(_box(x=100.0), 0.8),
        Detection(_box(x=10.0), 0.7),
        Detection(_box(x=20.0), 0.6),
    ]
    got = average_precision(dets, gts, iou_thr=0.5)
    assert abs(got - 5.0 / 6.0) < 1e-12
    assert abs(got - _brute_force_ap([1, 0, 1, 1], 3)) < 1e-12


def test_average_precision_empty_conventions():
    assert average_precision([], [], 0.5) == 1.0
    assert average_precision([Detection(_box(), 0.9)], [], 0.5) == 0.0
    assert average_precision([], [_box()], 0.5) == 0.0


def test_ap_random_agreement_with_brute_force():
    rng = np.random.default_rng(83)
    for _ in range(10):
        num_gt = int(rng.integers(1, 6))
        gts = [_box(x=10.0 * j) for j in range(num_gt)]
        dets = []
        for j in range(int(rng.integers(1, 8))):
            hit = rng.random() < 0.6
            x = 10.0 * rng.integers(0, num_gt) + (0.05 if hit else 500.0 + j)
            dets.append(Detection(_box(x=float(x)), float(rng.uniform(0.05, 1.0))))
        got = average_precision(dets, gts, iou_thr=0.5)
        tp = score_detection_set(dets, gts, (0.5,)).tp[0]
        assert abs(got - _brute_force_ap(tp, num_gt)) < 1e-12


def test_pooled_ap_differs_from_frame_mean():
    f1 = ([Detection(_box(x=0.0), 0.9)], [_box(x=0.0)])
    f2 = (
        [Detection(_box(x=500.0), 0.95), Detection(_box(x=0.0), 0.5)],
        [_box(x=0.0)],
    )
    pooled = pooled_average_precision([f1, f2], iou_thr=0.5)
    assert abs(pooled - 2.0 / 3.0) < 1e-12
    mean = 0.5 * (
        average_precision(*f1, iou_thr=0.5) + average_precision(*f2, iou_thr=0.5)
    )
    assert abs(pooled - mean) > 0.05


def test_pooled_ap_empty_conventions():
    assert pooled_average_precision([([], [])], 0.5) == 1.0
    assert pooled_average_precision([([Detection(_box(), 0.5)], [])], 0.5) == 0.0
    assert pooled_average_precision([([], [_box()])], 0.5) == 0.0


def test_peak_mask_isolated_maxima():
    grid = np.zeros((6, 7))
    grid[1, 2] = 3.0
    grid[4, 5] = 2.0
    grid[4, 4] = 1.0  # shoulder of the second peak
    mask = _peak_mask(grid)
    assert mask[1, 2] and mask[4, 5]
    assert mask.sum() == 2


def test_peak_mask_plateau_resolves_to_interior():
    grid = np.zeros((5, 5))
    grid[1:4, 1:4] = 1.0
    mask = _peak_mask(grid)
    rows, cols = np.nonzero(mask)
    assert list(zip(rows.tolist(), cols.tolist())) == [(2, 2)]


def _unit_head(**fields):
    """A head whose objectness is the max-height channel itself."""
    return HeadConfig(height_gain=1.0, height_floor=0.0, **fields)


def test_decode_head_exact_single_box():
    spec = GridSpec.centered(9, 9, 1.0)
    data = np.zeros((8, 9, 9))
    r, c = 3, 5
    data[MAX_HEIGHT_CHANNEL, r, c] = 1.0
    head = _unit_head(nominal_z=0.8, nominal_h=1.5, nominal_w=2.0, nominal_l=4.0)
    dets = decode_head(BevGrid(spec, data), head, EvalConfig())
    assert len(dets) == 1
    xs, ys = spec.cell_centers()
    assert dets[0].box == RotatedBox3D(x=xs[c], y=ys[r], z=0.8, h=1.5, w=2.0, l=4.0, theta=0.0)
    assert dets[0].score == 1.0


def test_decode_head_objectness_is_a_ramp_above_the_floor():
    spec = GridSpec.centered(5, 5, 1.0)
    data = np.zeros((4, 5, 5))
    data[MAX_HEIGHT_CHANNEL, 2, 2] = 1.3
    head = HeadConfig(height_gain=2.0, height_floor=0.4)
    # 2 * (1.3 - 0.4 - 0.5) = 0.8, and the offset 0.5 raises the floor
    (det,) = decode_head(BevGrid(spec, data), head, EvalConfig(), height_offset=0.5)
    assert det.score == 2.0 * 1.3 + -2.0 * (0.4 + 0.5)
    assert abs(det.score - 0.8) < 1e-12
    assert decode_head(BevGrid(spec, data), head, EvalConfig(), height_offset=0.8) == []


def test_decode_head_center_refinement_shifts_toward_mass():
    spec = GridSpec.centered(9, 9, 1.0)
    data = np.zeros((8, 9, 9))
    r, c = 4, 4
    data[MAX_HEIGHT_CHANNEL, r, c] = 1.0
    data[MAX_HEIGHT_CHANNEL, r, c - 1] = 0.2
    data[MAX_HEIGHT_CHANNEL, r, c + 1] = 0.6
    dets = decode_head(BevGrid(spec, data), _unit_head(), EvalConfig())
    assert len(dets) == 1
    xs, _ = spec.cell_centers()
    want_shift = (0.6 - 0.2) / 1.8
    assert abs(dets[0].box.x - (xs[c] + want_shift)) < 1e-12


def test_decode_head_peak_pick_collapses_footprint():
    spec = GridSpec.centered(9, 9, 1.0)
    data = np.zeros((8, 9, 9))
    data[MAX_HEIGHT_CHANNEL, 4, 3:6] = [0.6, 0.9, 0.6]
    # three cells clear the threshold, and lenient NMS would keep them all
    dets = decode_head(BevGrid(spec, data), _unit_head(nms_iou=0.99), EvalConfig())
    assert [d.score for d in dets] == [0.9]


def test_decode_head_nms_drops_duplicates():
    spec = GridSpec.centered(9, 9, 1.0)
    data = np.zeros((8, 9, 9))
    data[MAX_HEIGHT_CHANNEL, 4, 2] = 0.9
    data[MAX_HEIGHT_CHANNEL, 4, 4] = 0.7  # two peaks 2 m apart, 8 m boxes overlap at IoU 0.6
    both = decode_head(BevGrid(spec, data), _unit_head(nominal_w=8.0, nominal_l=8.0, nms_iou=0.61), EvalConfig())
    assert [d.score for d in both] == [0.9, 0.7]
    dets = decode_head(BevGrid(spec, data), _unit_head(nominal_w=8.0, nominal_l=8.0), EvalConfig())
    assert [d.score for d in dets] == [0.9]


def test_decode_head_respects_threshold_and_channel_check():
    spec = GridSpec.centered(5, 5, 1.0)
    data = np.zeros((8, 5, 5))
    data[MAX_HEIGHT_CHANNEL, 2, 2] = 0.2  # below the 0.25 default
    assert decode_head(BevGrid(spec, data), _unit_head(), EvalConfig()) == []
    with pytest.raises(ValueError):
        decode_head(BevGrid(spec, data[:MAX_HEIGHT_CHANNEL]), _unit_head(), EvalConfig())


def _linear_head_decode(fused, head, cfg, height_offset=0.0):
    """The learned-style linear head that decode_head replaced, kept as its
    reference: an (8, C) weight and an (8,) bias over [objectness, dx, dy,
    z, log h, log w, log l, theta], filled with the analytic head's gain,
    floor and nominal box, then the same peak pick, centroid refinement and
    NMS."""
    weight = np.zeros((8, fused.data.shape[0]))
    bias = np.zeros(8)
    gain = head.height_gain
    weight[0, MAX_HEIGHT_CHANNEL] = gain
    bias[0] = -gain * (head.height_floor + height_offset)
    bias[3] = head.nominal_z
    bias[4] = math.log(head.nominal_h)
    bias[5] = math.log(head.nominal_w)
    bias[6] = math.log(head.nominal_l)
    raw = np.einsum("kc,chw->khw", weight, fused.data) + bias[:, None, None]
    scores = np.clip(raw[0], 0.0, 1.0)
    rows, cols = np.nonzero((scores > cfg.score_threshold) & _peak_mask(raw[0]))
    spec = fused.spec
    height, width = scores.shape
    candidates = []
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
            x=cx, y=cy, z=vec[3], h=math.exp(vec[4]), w=math.exp(vec[5]), l=math.exp(vec[6]), theta=vec[7],
        )
        candidates.append(Detection(box=box, score=float(scores[r, c])))
    candidates.sort(key=lambda d: -d.score)
    kept = []
    for det in candidates:
        if all(rotated_iou_bev(det.box, k.box) <= head.nms_iou for k in kept):
            kept.append(det)
    return kept


def _det_bits(det):
    return [_bits(v) for v in (det.score, *det.box.as_list())]


# extents the linear head's exp(log(x)) returns unchanged
_exact_extents = st.floats(min_value=0.05, max_value=20.0).filter(lambda x: math.exp(math.log(x)) == x)


@st.composite
def _fused_grids(draw):
    channels = draw(st.integers(MAX_HEIGHT_CHANNEL + 1, 6))
    height = draw(st.integers(1, 7))
    width = draw(st.integers(1, 7))
    # repeated values make plateaus, where the peak pick breaks ties
    values = st.sampled_from([0.0, 0.5, 0.9, 1.2]) | st.floats(min_value=-3.0, max_value=3.0)
    data = np.array(draw(st.lists(values, min_size=channels * height * width, max_size=channels * height * width)))
    resolution = draw(st.sampled_from([0.5, 1.0, 1.25]))
    return BevGrid(GridSpec.centered(width, height, resolution), data.reshape(channels, height, width))


@settings(max_examples=200, deadline=None)
@given(
    fused=_fused_grids(),
    head=st.builds(
        HeadConfig,
        height_gain=st.floats(min_value=0.1, max_value=10.0),
        height_floor=st.floats(min_value=-3.0, max_value=3.0),
        # the linear head's z was a sum of zero products plus nominal_z,
        # which turns a -0.0 into +0.0
        nominal_z=st.floats(min_value=-5.0, max_value=5.0).map(lambda z: z + 0.0),
        nominal_h=_exact_extents,
        nominal_w=_exact_extents,
        nominal_l=_exact_extents,
        nms_iou=st.floats(min_value=0.05, max_value=0.95),
    ),
    score_threshold=st.floats(min_value=0.0, max_value=1.0),
    height_offset=st.floats(min_value=-1.0, max_value=1.0),
)
def test_decode_head_matches_the_linear_head_bitwise(fused, head, score_threshold, height_offset):
    cfg = EvalConfig(score_threshold=score_threshold)
    got = decode_head(fused, head, cfg, height_offset)
    want = _linear_head_decode(fused, head, cfg, height_offset)
    assert [_det_bits(d) for d in got] == [_det_bits(d) for d in want]


def test_default_length_is_the_one_extent_the_linear_head_rounded():
    # exp(log(3.6)) is one ulp below 3.6, so the linear head wrote the
    # default length as 3.5999999999999996; the analytic head writes 3.6
    assert math.exp(math.log(3.6)) == 3.5999999999999996
    head = HeadConfig()
    assert [math.exp(math.log(x)) == x for x in (head.nominal_h, head.nominal_w, head.nominal_l)] == [True, True, False]
    spec = GridSpec.centered(5, 5, 1.0)
    data = np.zeros((4, 5, 5))
    data[MAX_HEIGHT_CHANNEL, 2, 2] = 1.0
    (got,) = decode_head(BevGrid(spec, data), head, EvalConfig())
    (want,) = _linear_head_decode(BevGrid(spec, data), head, EvalConfig())
    assert got.box.l == 3.6
    assert want.box.l == 3.5999999999999996
    assert _det_bits(got)[:6] == _det_bits(want)[:6]
    assert _det_bits(got)[7] == _det_bits(want)[7]
