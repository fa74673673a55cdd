import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopalign.geometry import (
    _ORTHONORMAL_TOL,
    PointCloud,
    Pose,
    Pose2D,
    compose,
    inverse,
    load_point_cloud,
    normalize_angle,
    perturb_pose,
    pose_error,
    relative,
    rotation_z,
    save_points_binary,
    transform_points,
)
from coopalign.localization import OracleErrorModel, sample_structured_offsets
from conftest import random_full_pose, random_planar_pose


def test_normalize_angle_hand_cases():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi
    assert abs(normalize_angle(3 * math.pi) - math.pi) < 1e-12
    assert abs(normalize_angle(-0.5) + 0.5) < 1e-15


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_normalize_angle_range_and_equivalence(theta):
    w = normalize_angle(theta)
    assert -math.pi < w <= math.pi
    # wrapped angle differs from the input by a whole number of turns
    k = (theta - w) / (2 * math.pi)
    assert abs(k - round(k)) < 1e-6


def test_compose_matches_homogeneous_matmul():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_full_pose(rng)
        b = random_full_pose(rng)
        expected = a.matrix() @ b.matrix()
        got = compose(a, b).matrix()
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_inverse_matches_matrix_inverse():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = random_full_pose(rng)
        np.testing.assert_allclose(inverse(p).matrix(), np.linalg.inv(p.matrix()), atol=1e-10)


def test_relative_recovers_second_pose():
    rng = np.random.default_rng(13)
    a = random_planar_pose(rng)
    b = random_planar_pose(rng)
    rel = relative(a, b)
    t_err, r_err = pose_error(compose(a, rel), b)
    assert t_err < 1e-9
    assert r_err < 1e-5


def test_pose_rejects_bad_rotations():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Pose(refl, np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.eye(3), np.array([0.0, np.nan, 0.0]))


def _lapack_verdict(rot):
    """The rotation checks of Pose as they were, with the LAPACK
    determinant: None when the rotation is accepted, else the message."""
    rot = np.array(rot, dtype=float).reshape(3, 3)
    if not np.isfinite(rot).all():
        return "pose entries must be finite"
    if np.abs(rot @ rot.T - np.eye(3)).max() > _ORTHONORMAL_TOL:
        return "rotation must be orthonormal"
    if np.linalg.det(rot) <= 0.0:
        return "rotation must have determinant +1"
    return None


def _verdict(rot):
    try:
        Pose(rot, np.zeros(3))
    except ValueError as exc:
        return str(exc)
    return None


def _orthogonal(rng, reflect):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if (np.linalg.det(q) < 0.0) != reflect:
        q[:, 0] = -q[:, 0]
    return q


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    reflect=st.booleans(),
    # the perturbation's size in units of _ORTHONORMAL_TOL: 0 is none, and
    # sizes near 1 land just inside or just outside the tolerance
    size=st.sampled_from([0.0, 1e3]) | st.floats(0.9, 1.1) | st.floats(0.0, 4.0),
)
def test_pose_validator_matches_the_lapack_determinant(seed, reflect, size):
    rng = np.random.default_rng(seed)
    q = _orthogonal(rng, reflect)
    direction = rng.standard_normal((3, 3))
    # scale the direction so the deviation from orthonormality is about size * tol
    unit = np.abs(direction @ q.T + q @ direction.T).max()
    rot = q + (size * _ORTHONORMAL_TOL / unit) * direction
    assert _verdict(rot) == _lapack_verdict(rot)


def test_pose_validator_edges_match_the_lapack_determinant():
    rng = np.random.default_rng(5)
    verdicts = set()
    for reflect in (False, True):
        q = _orthogonal(rng, reflect)
        # (1 + s)^2 - 1 just below and just above the tolerance
        for s in (0.5 * _ORTHONORMAL_TOL * (1 - 1e-3), 0.5 * _ORTHONORMAL_TOL * (1 + 1e-3)):
            for rot in (q * (1.0 + s), q * (1.0 - s)):
                verdicts.add(_lapack_verdict(rot))
                assert _verdict(rot) == _lapack_verdict(rot)
        singular = q.copy()
        singular[2] = 0.0
        assert _verdict(singular) == _lapack_verdict(singular) == "rotation must be orthonormal"
    assert verdicts == {None, "rotation must be orthonormal", "rotation must have determinant +1"}


def test_pose_yaw_and_planar_projection():
    p = Pose.from_planar(3.0, -2.0, 0.8)
    assert abs(p.yaw - 0.8) < 1e-15
    flat = p.planar()
    assert (flat.x, flat.y) == (3.0, -2.0)
    assert abs(flat.theta - 0.8) < 1e-15


def test_flat_rt_round_trip():
    rng = np.random.default_rng(14)
    p = random_full_pose(rng)
    q = Pose.from_flat_rt(p.flat_rt())
    np.testing.assert_allclose(q.matrix(), p.matrix(), atol=1e-15)


def test_pose2d_apply_matches_manual_rotation():
    d = Pose2D(1.0, -2.0, 0.5)
    pts = np.array([[2.0, 3.0], [0.0, 0.0]])
    c, s = math.cos(0.5), math.sin(0.5)
    expected = np.array(
        [[c * 2 - s * 3 + 1, s * 2 + c * 3 - 2], [1.0, -2.0]]
    )
    np.testing.assert_allclose(d.apply(pts), expected, atol=1e-12)


def test_pose2d_inverse_round_trip():
    rng = np.random.default_rng(15)
    for _ in range(20):
        d = Pose2D(*rng.uniform(-5, 5, size=2), rng.uniform(-3, 3))
        pts = rng.uniform(-4, 4, size=(10, 2))
        back = d.inverse().apply(d.apply(pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)


def test_transform_points_manual_oracle():
    rng = np.random.default_rng(16)
    p = random_full_pose(rng)
    cloud = PointCloud(rng.uniform(-3, 3, size=(40, 3)))
    out = transform_points(p, cloud)
    expected = (p.rotation @ cloud.points.T).T + p.translation
    np.testing.assert_allclose(out.points, expected, atol=1e-12)


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.inf]]))
    empty = PointCloud(np.zeros((0, 3)))
    assert len(empty) == 0
    assert empty.points.shape == (0, 3)


def test_rotation_z_orthonormal():
    r = rotation_z(0.77)
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-15)
    assert abs(np.linalg.det(r) - 1.0) < 1e-15


def test_perturb_pose_zero_noise_is_identity():
    p = Pose.from_planar(1.0, 2.0, 0.3)
    q = perturb_pose(p, 0.0, 0.0, np.random.default_rng(0))
    t_err, r_err = pose_error(q, p)
    assert t_err == 0.0
    assert r_err < 1e-6


def test_perturb_pose_moments():
    # sample statistics over many draws should match the configured scales
    p = Pose.from_planar(0.0, 0.0, 0.0)
    rng = np.random.default_rng(77)
    dx, dyaw = [], []
    for _ in range(4000):
        q = perturb_pose(p, 0.5, 2.0, rng)
        dx.append(q.translation[0])
        dyaw.append(math.degrees(q.yaw))
    assert abs(np.std(dx) - 0.5) < 0.03
    assert abs(np.std(dyaw) - 2.0) < 0.12
    assert abs(np.mean(dx)) < 0.03
    # z never moves under planar noise
    assert q.translation[2] == 0.0


def test_pose_error_known_rotation():
    a = Pose.from_planar(0, 0, 0.0)
    b = Pose.from_planar(3.0, 4.0, math.radians(30.0))
    t_err, r_err = pose_error(b, a)
    assert abs(t_err - 5.0) < 1e-12
    assert abs(r_err - 30.0) < 1e-9


def test_structured_offsets_outlier_share_and_scales():
    noise = OracleErrorModel(inlier_sigma=0.02, outlier_fraction=0.3, outlier_scale=5.0, bias_correlation_length=0.0)
    pts = np.random.default_rng(1).uniform(-10, 10, size=(200000, 3))
    offs, mask = sample_structured_offsets(noise, pts, np.random.default_rng(4242))
    assert abs(mask.mean() - 0.3) < 0.01
    assert np.all(np.abs(offs[mask]) <= 5.0)
    np.testing.assert_allclose(offs[~mask].std(axis=0), 0.02, atol=0.002)
    # uniform(-5, 5) has std 5/sqrt(3)
    np.testing.assert_allclose(offs[mask].std(axis=0), 5.0 / math.sqrt(3.0), atol=0.05)


def test_structured_offsets_deterministic():
    noise = OracleErrorModel(0.05, 0.2, 2.0, bias_correlation_length=10.0)
    pts = np.random.default_rng(2).uniform(-5, 5, size=(500, 3))
    o1, m1 = sample_structured_offsets(noise, pts, np.random.default_rng(9))
    o2, m2 = sample_structured_offsets(noise, pts, np.random.default_rng(9))
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(m1, m2)


def test_structured_offsets_bias_field_smooth_and_optional():
    # with a long correlation length, nearby points share nearly the same bias
    base = OracleErrorModel(0.01, 0.0, 1.0, bias_correlation_length=0.0)
    biased = OracleErrorModel(0.01, 0.0, 1.0, bias_correlation_length=50.0)
    pts = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
    off_b, _ = sample_structured_offsets(biased, np.tile(pts, (1, 1)), np.random.default_rng(3))
    assert np.abs(off_b[0] - off_b[1]).max() < 0.05
    off0, _ = sample_structured_offsets(base, pts, np.random.default_rng(3))
    assert np.all(np.isfinite(off0))


def test_structured_noise_validation():
    with pytest.raises(ValueError):
        OracleErrorModel(-0.1, 0.3, 1.0)
    with pytest.raises(ValueError):
        OracleErrorModel(0.1, 1.5, 1.0)
    with pytest.raises(ValueError):
        perturb_pose(Pose.identity(), -1.0, 0.0, np.random.default_rng(0))


def test_point_cloud_binary_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    cloud = PointCloud(rng.uniform(-10, 10, size=(33, 3)).astype(np.float32))
    path = tmp_path / "pts.pcb"
    save_points_binary(cloud, path)
    loaded = load_point_cloud(path)
    np.testing.assert_array_equal(loaded.points, cloud.points)


def test_point_cloud_binary_truncation_rejected(tmp_path):
    cloud = PointCloud(np.ones((4, 3)))
    path = tmp_path / "pts.pcb"
    save_points_binary(cloud, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(ValueError):
        load_point_cloud(path)


def test_point_cloud_without_magic_rejected(tmp_path):
    path = tmp_path / "pts.txt"
    for raw in (b"1.0 2.0 3.0\n", b""):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="magic"):
            load_point_cloud(path)
