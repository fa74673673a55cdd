import math

import numpy as np
import pytest

from coopalign.baselines import (
    BoxObservation,
    GraphMatchConfig,
    IcpConfig,
    _nearest_within,
    graph_match_align,
    icp_align,
)
from coopalign.detection import RotatedBox3D
from coopalign.geometry import PointCloud, Pose, compose, inverse, pose_error


def box_at(x, y, z=0.8):
    return RotatedBox3D(x, y, z, 1.6, 2.0, 4.0, 0.0)


def test_hash_nearest_matches_brute_force():
    rng = np.random.default_rng(3)
    targets = rng.uniform(-10, 10, size=(80, 3))
    query = rng.uniform(-10, 10, size=(40, 3))
    max_dist = 3.0
    si, di = _nearest_within(query, targets, max_dist)

    for qi, ti in zip(si, di):
        d2 = np.sum((targets - query[qi]) ** 2, axis=1)
        assert d2[ti] <= max_dist**2
        assert d2[ti] <= d2.min() + 1e-12
    # queries left unmatched really have no target in range
    matched = set(si.tolist())
    for qi in range(query.shape[0]):
        if qi not in matched:
            d2 = np.sum((targets - query[qi]) ** 2, axis=1)
            assert d2.min() > max_dist**2


def test_nearest_ties_take_the_lowest_index_and_max_dist_is_inclusive():
    targets = np.array([[5.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    query = np.array([[0.0, 0.0, 0.0], [7.0, 0.0, 0.0], [0.0, 0.0, 9.0]])
    si, di = _nearest_within(query, targets, 2.0)
    # three targets lie exactly 2.0 from the origin: the lowest index wins;
    # (7, 0, 0) is exactly 2.0 from target 0; (0, 0, 9) has none in range
    assert si.tolist() == [0, 1]
    assert di.tolist() == [1, 0]


def test_icp_identity_converges_immediately():
    cloud = PointCloud(np.random.default_rng(4).uniform(-5, 5, size=(100, 3)))
    result = icp_align(cloud, cloud, IcpConfig())
    assert result is not None
    t_err, r_err = pose_error(result.pose, Pose.identity())
    assert t_err < 1e-9
    assert r_err < 1e-5
    assert result.iterations == 1
    assert result.rmse < 1e-12


def test_icp_recovers_small_translation():
    rng = np.random.default_rng(5)
    src = rng.uniform(-5, 5, size=(200, 3))
    shift = np.array([0.3, -0.2, 0.1])
    result = icp_align(PointCloud(src), PointCloud(src + shift), IcpConfig())
    assert result is not None
    np.testing.assert_allclose(result.pose.translation, shift, atol=1e-6)
    t_err, r_err = pose_error(result.pose, Pose(np.eye(3), shift))
    assert t_err < 1e-6 and r_err < 1e-4


def test_icp_recovers_small_rigid_motion():
    rng = np.random.default_rng(6)
    src = rng.uniform(-5, 5, size=(300, 3))
    true_pose = Pose.from_planar(0.2, -0.1, math.radians(4.0))
    dst = src @ true_pose.rotation.T + true_pose.translation
    result = icp_align(PointCloud(src), PointCloud(dst), IcpConfig())
    t_err, r_err = pose_error(result.pose, true_pose)
    assert t_err < 0.01
    assert r_err < 0.1


def test_icp_rmse_history_trends_down():
    rng = np.random.default_rng(7)
    src = rng.uniform(-5, 5, size=(250, 3))
    true_pose = Pose.from_planar(0.4, 0.3, math.radians(5.0))
    dst = src @ true_pose.rotation.T + true_pose.translation
    result = icp_align(PointCloud(src), PointCloud(dst), IcpConfig())
    hist = result.rmse_history
    assert len(hist) == result.iterations
    assert hist[-1] <= hist[0]
    assert hist[-1] < 0.05


def test_icp_fails_on_disjoint_clouds():
    rng = np.random.default_rng(8)
    src = PointCloud(rng.uniform(-1, 1, size=(10, 3)) + np.array([100.0, 0.0, 0.0]))
    dst = PointCloud(rng.uniform(-1, 1, size=(10, 3)))
    assert icp_align(src, dst, IcpConfig(max_correspondence_dist=2.0)) is None


def test_icp_rejects_empty_cloud():
    empty = PointCloud(np.zeros((0, 3)))
    full = PointCloud(np.ones((5, 3)))
    with pytest.raises(ValueError):
        icp_align(empty, full, IcpConfig())
    with pytest.raises(ValueError):
        icp_align(full, empty, IcpConfig())


def test_icp_config_validation():
    with pytest.raises(ValueError):
        IcpConfig(max_iterations=0)
    with pytest.raises(ValueError):
        IcpConfig(convergence_eps=0.0)
    with pytest.raises(ValueError):
        IcpConfig(max_correspondence_dist=0.0)


def _constellation(rng, n):
    centers = rng.uniform(-15, 15, size=(n, 2))
    # enforce distinct pairwise distances so matching is unambiguous
    return [box_at(float(c[0]), float(c[1])) for c in centers]


def test_graph_match_recovers_relative_pose():
    rng = np.random.default_rng(9)
    boxes_world = _constellation(rng, 6)
    ego_pose = Pose.from_planar(1.0, 2.0, 0.3)
    nbr_pose = Pose.from_planar(-3.0, 4.0, -0.7)

    def in_frame(box, pose):
        inv = inverse(pose)
        c = inv.rotation @ np.array([box.x, box.y, box.z]) + inv.translation
        return RotatedBox3D(float(c[0]), float(c[1]), float(c[2]), box.h, box.w, box.l, box.theta)

    ego_obs = BoxObservation(tuple(in_frame(b, ego_pose) for b in boxes_world))
    nbr_obs = BoxObservation(tuple(in_frame(b, nbr_pose) for b in boxes_world))
    result = graph_match_align(ego_obs, nbr_obs, GraphMatchConfig())
    assert result is not None
    gt_rel = compose(inverse(ego_pose), nbr_pose)
    t_err, r_err = pose_error(result.pose, gt_rel)
    assert t_err < 1e-9
    assert r_err < 1e-5
    assert len(result.matched_pairs) == 6
    # the recovered correspondence is the identity permutation here
    assert all(i == a for i, a in result.matched_pairs)


def test_graph_match_tolerates_center_jitter():
    rng = np.random.default_rng(10)
    boxes_world = _constellation(rng, 7)
    nbr_pose = Pose.from_planar(5.0, -2.0, 1.1)

    def in_frame(box, pose):
        inv = inverse(pose)
        c = inv.rotation @ np.array([box.x, box.y, box.z]) + inv.translation
        return RotatedBox3D(float(c[0]), float(c[1]), float(c[2]), box.h, box.w, box.l, box.theta)

    jitter = rng.normal(0.0, 0.03, size=(7, 2))
    ego_boxes = [
        RotatedBox3D(b.x + jitter[i, 0], b.y + jitter[i, 1], b.z, b.h, b.w, b.l, b.theta)
        for i, b in enumerate(boxes_world)
    ]
    ego_obs = BoxObservation(tuple(ego_boxes))
    nbr_obs = BoxObservation(tuple(in_frame(b, nbr_pose) for b in boxes_world))
    result = graph_match_align(ego_obs, nbr_obs, GraphMatchConfig(edge_consistency_eps=0.3))
    assert result is not None
    t_err, _ = pose_error(result.pose, nbr_pose)
    assert t_err < 0.2


def test_graph_match_fails_below_consensus():
    rng = np.random.default_rng(11)
    shared = _constellation(rng, 2)
    ego_obs = BoxObservation(tuple(shared))
    nbr_obs = BoxObservation(tuple(shared))
    # only 2 shared objects, min_consensus 3
    assert graph_match_align(ego_obs, nbr_obs, GraphMatchConfig()) is None
    assert graph_match_align(BoxObservation(()), nbr_obs, GraphMatchConfig()) is None


def test_graph_match_no_false_consensus_on_unrelated_scenes():
    rng = np.random.default_rng(12)
    ego_obs = BoxObservation(tuple(_constellation(rng, 5)))
    nbr_obs = BoxObservation(tuple(_constellation(rng, 5)))
    result = graph_match_align(ego_obs, nbr_obs, GraphMatchConfig(edge_consistency_eps=0.05))
    if result is not None:
        # a coincidental match must still satisfy the consensus bound
        assert len(result.matched_pairs) >= 3


def test_graph_match_symmetric_directions():
    rng = np.random.default_rng(13)
    boxes_world = _constellation(rng, 6)
    ego_pose = Pose.from_planar(0.0, 0.0, 0.2)
    nbr_pose = Pose.from_planar(8.0, 1.0, -0.4)

    def in_frame(box, pose):
        inv = inverse(pose)
        c = inv.rotation @ np.array([box.x, box.y, box.z]) + inv.translation
        return RotatedBox3D(float(c[0]), float(c[1]), float(c[2]), box.h, box.w, box.l, box.theta)

    ego_obs = BoxObservation(tuple(in_frame(b, ego_pose) for b in boxes_world))
    nbr_obs = BoxObservation(tuple(in_frame(b, nbr_pose) for b in boxes_world))
    fwd = graph_match_align(ego_obs, nbr_obs, GraphMatchConfig())
    rev = graph_match_align(nbr_obs, ego_obs, GraphMatchConfig())
    ident = compose(fwd.pose, rev.pose)
    t_err, r_err = pose_error(ident, Pose.identity())
    assert t_err < 1e-9
    assert r_err < 1e-5


def test_box_observation_message():
    boxes = tuple(box_at(float(i), 0.0) for i in range(5))
    obs = BoxObservation(boxes)
    assert obs.centers().shape == (5, 3)
    assert obs.message_bytes() == len(obs.to_message_json().encode("utf-8"))
    assert BoxObservation(()).centers().shape == (0, 3)


def test_graph_config_validation():
    with pytest.raises(ValueError):
        GraphMatchConfig(edge_consistency_eps=0.0)
    with pytest.raises(ValueError):
        GraphMatchConfig(min_consensus=2)
