import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopalign.geometry import PointCloud, Pose, pose_error, transform_points
from coopalign.localization import (
    _BLOCK_CAP,
    DegenerateSampleError,
    OracleErrorModel,
    PoseEstimate,
    RansacConfig,
    SceneCoordPrediction,
    _kabsch_arrays,
    _residuals,
    confidence_from_error,
    kabsch_solve,
    oracle_predict,
    ransac_pose,
    sample_structured_offsets,
    voxel_downsample,
)
from conftest import counting_constructions, random_full_pose


def clean_model(fidelity=1.0):
    return OracleErrorModel(0.02, 0.3, 5.0, bias_correlation_length=0.0, error_fidelity=fidelity)


def test_confidence_anchors():
    assert confidence_from_error(0.0) == 1.0
    assert abs(confidence_from_error(1.0) - 0.5) < 1e-15
    assert abs(confidence_from_error(2.0) - 0.2) < 1e-15
    vals = [confidence_from_error(e) for e in (0.0, 0.5, 1.0, 2.0, 10.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        confidence_from_error(-0.1)
    with pytest.raises(ValueError):
        confidence_from_error(float("inf"))


def test_voxel_downsample_hand_case():
    # two voxels at size 1: first three points share voxel (0,0,0),
    # the fourth sits alone; output keeps first-occurrence order
    pts = np.array(
        [
            [0.1, 0.1, 0.1],
            [0.9, 0.2, 0.3],
            [0.5, 0.5, 0.5],
            [2.5, 0.0, 0.0],
        ]
    )
    out = voxel_downsample(PointCloud(pts), 1.0)
    assert len(out) == 2
    np.testing.assert_allclose(out.points[0], pts[:3].mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(out.points[1], pts[3], atol=1e-15)


def test_voxel_downsample_matches_dict_oracle():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-4, 4, size=(500, 3))
    voxel = 0.75
    out = voxel_downsample(PointCloud(pts), voxel)

    groups: dict = {}
    order = []
    for p in pts:
        key = tuple(np.floor(p / voxel).astype(int))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(p)
    expected = np.array([np.mean(groups[k], axis=0) for k in order])
    np.testing.assert_allclose(out.points, expected, atol=1e-12)


def test_voxel_downsample_validation_and_empty():
    with pytest.raises(ValueError):
        voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)
    out = voxel_downsample(PointCloud(np.zeros((0, 3))), 1.0)
    assert len(out) == 0


def test_kabsch_recovers_constructed_transform():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pose = random_full_pose(rng)
        local = rng.uniform(-5, 5, size=(25, 3))
        world = local @ pose.rotation.T + pose.translation
        solved = kabsch_solve(local, world)
        t_err, r_err = pose_error(solved, pose)
        assert t_err < 1e-9
        assert r_err < 1e-5


def test_kabsch_no_reflection():
    # mirrored targets must not produce a determinant -1 "rotation"
    rng = np.random.default_rng(8)
    local = rng.uniform(-3, 3, size=(30, 3))
    world = local.copy()
    world[:, 2] = -world[:, 2]
    solved = kabsch_solve(local, world)
    assert np.linalg.det(solved.rotation) > 0.0


def test_kabsch_degenerate_inputs():
    line = np.outer(np.linspace(0, 1, 10), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateSampleError):
        kabsch_solve(line, line + 1.0)
    with pytest.raises(DegenerateSampleError):
        kabsch_solve(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        kabsch_solve(np.zeros((4, 3)), np.zeros((5, 3)))


def test_oracle_predict_world_points_and_fidelity_one():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.uniform(-5, 5, size=(200, 3)))
    pose = Pose.from_planar(2.0, -1.0, 0.4)
    pred = oracle_predict(cloud, pose, clean_model(fidelity=1.0), np.random.default_rng(10))
    np.testing.assert_allclose(pred.gt_world.points, transform_points(pose, cloud).points)
    true_err = np.abs(pred.predicted_world.points - pred.gt_world.points).sum(axis=1)
    np.testing.assert_allclose(pred.predicted_error, true_err, atol=1e-12)


def test_oracle_predict_fidelity_zero_is_shuffled_marginal():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.uniform(-5, 5, size=(300, 3)))
    pose = Pose.identity()
    pred = oracle_predict(cloud, pose, clean_model(fidelity=0.0), np.random.default_rng(12))
    true_err = np.abs(pred.predicted_world.points - pred.gt_world.points).sum(axis=1)
    # same multiset of values, decorrelated from per-point truth
    np.testing.assert_allclose(np.sort(pred.predicted_error), np.sort(true_err), atol=1e-12)
    corr = np.corrcoef(pred.predicted_error, true_err)[0, 1]
    assert abs(corr) < 0.2


def test_oracle_predict_deterministic_and_rejects_empty():
    cloud = PointCloud(np.random.default_rng(13).uniform(-1, 1, size=(50, 3)))
    p1 = oracle_predict(cloud, Pose.identity(), clean_model(), np.random.default_rng(3))
    p2 = oracle_predict(cloud, Pose.identity(), clean_model(), np.random.default_rng(3))
    np.testing.assert_array_equal(p1.predicted_world.points, p2.predicted_world.points)
    np.testing.assert_array_equal(p1.predicted_error, p2.predicted_error)
    with pytest.raises(ValueError):
        oracle_predict(PointCloud(np.zeros((0, 3))), Pose.identity(), clean_model(), np.random.default_rng(0))


def _ransac_problem(seed_cloud=7, seed_noise=100):
    cloud = PointCloud(np.random.default_rng(seed_cloud).uniform(-8, 8, size=(300, 3)))
    gt = Pose.from_planar(2.0, -1.0, 0.6)
    pred = oracle_predict(cloud, gt, clean_model(), np.random.default_rng(seed_noise))
    return pred, gt


def test_ransac_frozen_anchor():
    # frozen from a reference run; guards the sampling and refit streams
    pred, _ = _ransac_problem()
    est = ransac_pose(pred, RansacConfig(), seed=5)
    np.testing.assert_allclose(
        est.pose.translation,
        [2.0003002842414412, -0.9983099321921021, 0.0010501554960956616],
        atol=1e-12,
    )
    assert abs(est.pose.yaw - 0.6000499029971753) < 1e-12
    assert abs(est.confidence - 0.997625633472576) < 1e-12
    assert abs(est.inlier_ratio - 226 / 300) < 1e-12
    assert len(est.inlier_indices) == 226


def test_ransac_bitwise_deterministic():
    pred, _ = _ransac_problem()
    a = ransac_pose(pred, RansacConfig(), seed=42)
    b = ransac_pose(pred, RansacConfig(), seed=42)
    np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
    np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
    np.testing.assert_array_equal(a.inlier_indices, b.inlier_indices)
    assert a.confidence == b.confidence


def test_ransac_builds_one_pose():
    # hypotheses stay (R, t) arrays; only the returned estimate holds a Pose
    pred, _ = _ransac_problem()
    with counting_constructions(Pose) as counts:
        est = ransac_pose(pred, RansacConfig(), seed=5)
    assert est is not None
    assert counts == {"Pose": 1}


def test_ransac_refit_property():
    # the returned pose is the rigid solve over the reported consensus set
    pred, _ = _ransac_problem()
    est = ransac_pose(pred, RansacConfig(), seed=1)
    refit = kabsch_solve(
        pred.local_points.points[est.inlier_indices],
        pred.predicted_world.points[est.inlier_indices],
    )
    np.testing.assert_allclose(est.pose.matrix(), refit.matrix(), atol=1e-12)


def test_ransac_aggregated_error_is_inlier_mean():
    pred, _ = _ransac_problem()
    est = ransac_pose(pred, RansacConfig(), seed=2)
    agg = float(pred.predicted_error[est.inlier_indices].mean())
    assert abs(est.aggregated_error - agg) < 1e-15
    assert abs(est.confidence - 1.0 / (1.0 + agg * agg)) < 1e-15


def test_ransac_recovers_pose_with_outliers():
    pred, gt = _ransac_problem(seed_cloud=21, seed_noise=22)
    est = ransac_pose(pred, RansacConfig(), seed=3)
    t_err, r_err = pose_error(est.pose, gt)
    assert t_err < 0.1
    assert r_err < 0.5


def test_ransac_returns_none_without_consensus():
    rng = np.random.default_rng(30)
    n = 40
    local = PointCloud(rng.uniform(-5, 5, size=(n, 3)))
    # world points unrelated to any rigid motion of the locals
    world = PointCloud(rng.uniform(-50, 50, size=(n, 3)))
    pred = SceneCoordPrediction(local, world, np.ones(n))
    est = ransac_pose(pred, RansacConfig(max_iterations=64, inlier_threshold=0.05, min_inliers=10), seed=0)
    assert est is None


def test_ransac_stop_bound_survives_a_hit_share_below_one_ulp():
    # while the best hypothesis holds 1 of the 1000 points, w ** 6 is 1e-18,
    # so 1.0 - w ** 6 rounds to 1.0 and its log is 0.0: the stop bound stays
    # as it was instead of dividing by zero, and the solve finds no consensus
    rng = np.random.default_rng(30)
    n = 1000
    local = PointCloud(rng.uniform(-5, 5, size=(n, 3)))
    world = PointCloud(rng.uniform(-50, 50, size=(n, 3)))
    pred = SceneCoordPrediction(local, world, np.ones(n))
    cfg = RansacConfig(sample_size=6, min_inliers=6, inlier_threshold=3.0)
    assert ransac_pose(pred, cfg, seed=0) is None
    assert _ref_ransac(pred, cfg, 0)[0] is None


def test_ransac_rejects_tiny_input():
    local = PointCloud(np.random.default_rng(0).uniform(-1, 1, size=(2, 3)))
    pred = SceneCoordPrediction(local, local, np.zeros(2))
    with pytest.raises(ValueError):
        ransac_pose(pred, RansacConfig())


def test_pose_message_layout():
    pose = Pose.from_planar(1.0, 2.0, 0.5)
    msg = PoseEstimate(pose, 0.9, 0.1, (), 0.8).to_message_json()
    payload = json.loads(msg)
    assert set(payload) == {"pose", "confidence", "aggregated_error", "inlier_ratio"}
    assert len(payload["pose"]) == 12
    # compact separators, stable key order
    assert msg == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_pose_estimate_message_bytes():
    pred, _ = _ransac_problem()
    est = ransac_pose(pred, RansacConfig(), seed=5)
    assert est.message_bytes() == len(est.to_message_json().encode("utf-8"))


def test_prediction_validation():
    local = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        SceneCoordPrediction(local, PointCloud(np.zeros((4, 3))), np.zeros(3))
    with pytest.raises(ValueError):
        SceneCoordPrediction(local, local, np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        OracleErrorModel(0.1, 0.1, 1.0, bias_correlation_length=0.0, error_fidelity=1.5)


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RansacConfig(sample_size=2)
    with pytest.raises(ValueError):
        RansacConfig(min_inliers=2)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)


# ---------------------------------------------------------------------------
# reference copies of the one-hypothesis-at-a-time solver and the np.unique
# voxel grouping; the batched code must match them bitwise


def _ref_kabsch(local, world):
    if local.shape[0] < 3:
        raise DegenerateSampleError("rigid fit needs at least 3 points")
    centroid_l = local.mean(axis=0)
    centroid_w = world.mean(axis=0)
    h = (local - centroid_l).T @ (world - centroid_w)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0.0 or s[1] <= 1e-9 * s[0]:
        raise DegenerateSampleError("point set is collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rot, centroid_w - rot @ centroid_l


def _ref_ransac(pred, cfg, seed):
    """The per-iteration loop; returns (estimate fields or None, number of
    degenerate samples skipped)."""
    local = pred.local_points.points
    world = pred.predicted_world.points
    n = local.shape[0]
    best_count = -1
    best_mean = math.inf
    best_mask = None
    best_rt = None
    needed = float(cfg.max_iterations)
    degenerate = 0
    for it in range(cfg.max_iterations):
        idx = np.random.default_rng((seed, it)).choice(n, size=cfg.sample_size, replace=False)
        try:
            rot, trans = _ref_kabsch(local[idx], world[idx])
        except DegenerateSampleError:
            degenerate += 1
            continue
        resid = np.linalg.norm(local @ rot.T + trans - world, axis=1)
        mask = resid < cfg.inlier_threshold
        count = int(mask.sum())
        mean_resid = float(resid[mask].mean()) if count else math.inf
        if count > best_count or (count == best_count and mean_resid < best_mean):
            best_count = count
            best_mean = mean_resid
            best_mask = mask
            best_rt = (rot, trans)
            w = best_count / n
            if w >= 1.0:
                needed = 0.0
            else:
                miss_log = math.log(1.0 - w ** cfg.sample_size)
                if miss_log < 0.0 and cfg.confidence_stop < 1.0:
                    needed = math.log(1.0 - cfg.confidence_stop) / miss_log
        if it + 1 >= needed:
            break
    if best_rt is None or best_count < cfg.min_inliers:
        return None, degenerate
    inlier_idx = np.flatnonzero(best_mask)
    try:
        rot, trans = _ref_kabsch(local[inlier_idx], world[inlier_idx])
    except DegenerateSampleError:
        rot, trans = best_rt
    agg = float(pred.predicted_error[inlier_idx].mean())
    fields = (rot.tobytes(), trans.tobytes(), agg, confidence_from_error(agg),
              inlier_idx.tobytes(), best_count / n)
    return fields, degenerate


def _outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def _fields(est):
    if est is None:
        return None
    return (est.pose.rotation.tobytes(), est.pose.translation.tobytes(), est.aggregated_error,
            est.confidence, est.inlier_indices.astype(np.intp).tobytes(), est.inlier_ratio)


def _odd_cloud(rng, n, kind, outliers):
    """A correspondence set whose locals are random, integer-valued, mostly
    one repeated point, or mostly on one line; world points are a rigid motion
    of them with a share of gross outliers."""
    local = rng.uniform(-6.0, 6.0, size=(n, 3))
    if kind == "integer":
        local = np.round(local)
    elif kind == "duplicate":
        local[: max(n - 4, 1)] = local[0]
    elif kind == "collinear":
        keep = max(n // 5, 1)
        local[keep:] = np.outer(rng.uniform(-6.0, 6.0, n - keep), rng.normal(size=3))
    pose = random_full_pose(rng, span=5.0)
    world = local @ pose.rotation.T + pose.translation + rng.normal(scale=0.02, size=(n, 3))
    bad = rng.uniform(size=n) < outliers
    world[bad] += rng.normal(scale=4.0, size=(int(bad.sum()), 3))
    return SceneCoordPrediction(PointCloud(local), PointCloud(world), rng.uniform(0.0, 1.0, size=n))


@settings(max_examples=120, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 90),
    kind=st.sampled_from(["random", "integer", "duplicate", "collinear"]),
    outliers=st.sampled_from([0.0, 0.3, 0.7]),
    sample_size=st.integers(3, 6),
    max_iterations=st.integers(1, 300),
    confidence_stop=st.sampled_from([0.0, 0.5, 0.99, 0.999, 1.0]),
    log_threshold=st.floats(-12.0, 3.0),
    seed=st.integers(0, 2**63 - 1),
)
def test_ransac_matches_per_iteration_loop_bitwise(
    data_seed, n, kind, outliers, sample_size, max_iterations, confidence_stop, log_threshold, seed
):
    pred = _odd_cloud(np.random.default_rng(data_seed), n, kind, outliers)
    cfg = RansacConfig(
        max_iterations=max_iterations,
        inlier_threshold=10.0 ** log_threshold,
        sample_size=sample_size,
        min_inliers=sample_size,
        confidence_stop=confidence_stop,
    )
    expected = _outcome(lambda: _ref_ransac(pred, cfg, seed)[0])
    assert _outcome(lambda: _fields(ransac_pose(pred, cfg, seed))) == expected


@pytest.mark.parametrize("kind", ["duplicate", "collinear"])
def test_ransac_skips_degenerate_samples_like_the_loop(kind):
    # mostly one repeated point or one line: many samples are degenerate,
    # which skips the early-stop check of their iteration
    pred = _odd_cloud(np.random.default_rng(31), 40, kind, 0.2)
    for stop in (0.0, 0.9, 1.0):
        cfg = RansacConfig(max_iterations=120, inlier_threshold=0.2, confidence_stop=stop)
        for seed in range(4):
            expected, degenerate = _ref_ransac(pred, cfg, seed)
            assert degenerate > 0
            assert _fields(ransac_pose(pred, cfg, seed)) == expected


@settings(max_examples=80, deadline=None)
@given(data_seed=st.integers(0, 2**32 - 1), m=st.integers(3, 1500), planar=st.booleans())
def test_stacked_kabsch_matches_2d_kernel_bitwise(data_seed, m, planar):
    rng = np.random.default_rng(data_seed)
    local = rng.normal(scale=rng.uniform(0.1, 20.0), size=(m, 3))
    if planar:
        local[:, 2] = 0.0
    pose = random_full_pose(rng)
    world = local @ pose.rotation.T + pose.translation + rng.normal(scale=0.1, size=(m, 3))
    expected = _outcome(lambda: tuple(a.tobytes() for a in _ref_kabsch(local, world)))
    assert _outcome(lambda: tuple(a.tobytes() for a in _kabsch_arrays(local, world))) == expected


def test_stacked_kabsch_keeps_signed_zeros_of_the_2d_kernel():
    # axis-aligned sets give exact zeros in U and V, a quarter of them -0.0,
    # and exact rotations whose zero entries keep their sign
    rng = np.random.default_rng(5)
    for trial in range(200):
        m = int(rng.integers(3, 9))
        local = np.zeros((m, 3))
        local[:, trial % 3] = rng.integers(-3, 4, m)
        local[:, (trial + 1) % 3] = rng.integers(-3, 4, m)
        world = local[:, [1, 0, 2]] if trial % 2 else local * np.array([1.0, 1.0, -1.0])
        expected = _outcome(lambda: tuple(a.tobytes() for a in _ref_kabsch(local, world)))
        assert _outcome(lambda: tuple(a.tobytes() for a in _kabsch_arrays(local, world))) == expected


def _ref_voxel(pts, voxel):
    keys = np.floor(pts / voxel).astype(np.int64)
    _, inverse_idx, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse_idx = inverse_idx.reshape(-1)
    sums = np.zeros((counts.shape[0], 3))
    np.add.at(sums, inverse_idx, pts)
    centroids = sums / counts[:, None]
    first_seen = np.full(counts.shape[0], pts.shape[0], dtype=np.int64)
    np.minimum.at(first_seen, inverse_idx, np.arange(pts.shape[0]))
    return centroids[np.argsort(first_seen, kind="stable")]


@settings(max_examples=150, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    log_voxel=st.floats(-6.0, 2.0),
    scale=st.floats(0.01, 50.0),
    shift=st.floats(-100.0, 100.0),
    snap=st.booleans(),
    repeat=st.booleans(),
)
def test_voxel_downsample_matches_unique_grouping_bitwise(data_seed, n, log_voxel, scale, shift, snap, repeat):
    rng = np.random.default_rng(data_seed)
    pts = rng.normal(scale=scale, size=(n, 3)) + shift
    if snap:
        pts = np.round(pts, 1)
    if repeat:
        pts[: n // 2] = pts[-1]
        pts[0] = -0.0
    expected = _ref_voxel(pts, 10.0 ** log_voxel)
    out = voxel_downsample(PointCloud(pts), 10.0 ** log_voxel).points
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def test_ransac_working_set_is_bounded_by_the_block_cap():
    # every one of 256 iterations runs (no early stop), yet the peak stays a
    # small multiple of one block's (n, _BLOCK_CAP, 3) residual array
    n = 5000
    pred = _odd_cloud(np.random.default_rng(8), n, "random", 0.5)
    cfg = RansacConfig(max_iterations=256, confidence_stop=1.0)
    ransac_pose(pred, cfg, seed=0)
    block_bytes = n * _BLOCK_CAP * 3 * 8
    tracemalloc.start()
    try:
        est = ransac_pose(pred, cfg, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est is not None
    assert peak < 2 * block_bytes


# ---------------------------------------------------------------------------
# two plane adds in place of numpy's reduce over a length-3 axis; the
# reduce forms the code once used are kept here as references


@settings(max_examples=300, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 9), min_size=0, max_size=3),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    signed=st.booleans(),
)
def test_three_term_sum_is_the_length3_reduce_bitwise(data_seed, lead, zero_share, signed):
    rng = np.random.default_rng(data_seed)
    shape = (*lead, 3)
    x = rng.uniform(1.0, 10.0, size=shape) * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    if signed:
        x *= rng.choice([-1.0, 1.0], size=shape)
    # +0.0 only: the reduce starts from +0.0, so a row of three -0.0 sums to
    # +0.0 there. The code sums squares and absolute values, never -0.0.
    x[rng.random(shape) < zero_share] = 0.0
    got = x[..., 0] + x[..., 1]
    got += x[..., 2]
    assert got.tobytes() == np.add.reduce(x, axis=-1).tobytes()
    assert (x[..., 0] + x[..., 1] + x[..., 2]).tobytes() == got.tobytes()


def _reduce_residuals(local, world, rots, transs):
    diff = (local @ rots.transpose(2, 0, 1).reshape(3, -1)).reshape(local.shape[0], -1, 3)
    diff += transs
    diff -= world[:, None, :]
    resid = np.add.reduce(np.square(diff, out=diff), axis=2)
    return np.sqrt(resid, out=resid)


@settings(max_examples=150, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 700),
    b=st.integers(1, _BLOCK_CAP),
    log_scale=st.floats(-5.0, 5.0),
)
def test_residuals_match_the_reduce_form_bitwise(data_seed, n, b, log_scale):
    rng = np.random.default_rng(data_seed)
    scale = 10.0 ** log_scale
    local = rng.normal(scale=scale, size=(n, 3))
    world = rng.normal(scale=scale, size=(n, 3))
    poses = [random_full_pose(rng, span=scale) for _ in range(b)]
    rots = np.stack([p.rotation for p in poses])
    transs = np.stack([p.translation for p in poses])
    got = _residuals(local, world, rots, transs)
    assert got.tobytes() == _reduce_residuals(local, world, rots, transs).tobytes()


def _reduce_oracle_error(cloud, gt_pose, model, rng):
    """oracle_predict's predicted_error as it was, from a row sum."""
    gt_world = transform_points(gt_pose, cloud)
    offsets, _ = sample_structured_offsets(model, gt_world.points, rng)
    true_err = np.abs(offsets).sum(axis=1)
    shuffled = rng.permutation(true_err)
    fid = model.error_fidelity
    return fid * true_err + (1.0 - fid) * shuffled


@settings(max_examples=100, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 500),
    inlier_sigma=st.floats(0.0, 10.0),
    outlier_scale=st.floats(0.0, 1e3),
    fidelity=st.floats(0.0, 1.0),
)
def test_oracle_error_matches_the_row_sum_bitwise(data_seed, n, inlier_sigma, outlier_scale, fidelity):
    rng = np.random.default_rng(data_seed)
    cloud = PointCloud(rng.normal(scale=30.0, size=(n, 3)))
    pose = random_full_pose(rng)
    model = OracleErrorModel(inlier_sigma, 0.3, outlier_scale, error_fidelity=fidelity)
    got_rng, want_rng = np.random.default_rng(data_seed + 1), np.random.default_rng(data_seed + 1)
    got = oracle_predict(cloud, pose, model, got_rng).predicted_error
    assert got.tobytes() == _reduce_oracle_error(cloud, pose, model, want_rng).tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
