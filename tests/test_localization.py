import json

import numpy as np
import pytest

from coopalign.geometry import PointCloud, Pose, StructuredLocNoise, pose_error, transform_points
from coopalign.localization import (
    DegenerateSampleError,
    OracleErrorModel,
    RansacConfig,
    SceneCoordPrediction,
    confidence_from_error,
    kabsch_solve,
    oracle_predict,
    pose_message_json,
    ransac_pose,
    voxel_downsample,
)
from conftest import counting_constructions, random_full_pose


def clean_model(fidelity=1.0):
    return OracleErrorModel(
        noise=StructuredLocNoise(0.02, 0.3, 5.0, bias_correlation_length=0.0),
        error_prediction_fidelity=fidelity,
    )


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


def test_ransac_rejects_tiny_input():
    local = PointCloud(np.random.default_rng(0).uniform(-1, 1, size=(2, 3)))
    pred = SceneCoordPrediction(local, local, np.zeros(2))
    with pytest.raises(ValueError):
        ransac_pose(pred, RansacConfig())


def test_pose_message_layout():
    pose = Pose.from_planar(1.0, 2.0, 0.5)
    msg = pose_message_json(pose, 0.9, 0.1, 0.8)
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
        OracleErrorModel(noise=StructuredLocNoise(0.1, 0.1, 1.0), error_prediction_fidelity=1.5)


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RansacConfig(sample_size=2)
    with pytest.raises(ValueError):
        RansacConfig(min_inliers=2)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)
