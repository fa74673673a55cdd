import math

import numpy as np
import pytest

from coopalign.fusion import (
    BevGrid,
    GridSpec,
    NoSignalError,
    OffsetSearch,
    apply_offset,
    coarse_align,
    confidence_embed,
    deserialize_grid,
    estimate_offset,
    rasterize_bev,
    serialize_grid,
    warp_grid,
)
from coopalign.geometry import PointCloud, Pose, Pose2D
from conftest import blob_grid, counting_constructions


def test_grid_spec_centered_is_symmetric():
    spec = GridSpec.centered(9, 5, 2.0)
    xs, ys = spec.cell_centers()
    assert abs(xs.mean()) < 1e-12
    assert abs(ys.mean()) < 1e-12
    assert xs[1] - xs[0] == 2.0
    assert spec.same_geometry(GridSpec.centered(9, 5, 2.0))
    assert not spec.same_geometry(GridSpec.centered(9, 5, 1.0))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 4, 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        GridSpec(4, 4, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        GridSpec(4, 4, 1.0, np.array([np.nan, 0.0]))


def test_rasterize_matches_scalar_binning_oracle():
    rng = np.random.default_rng(31)
    spec = GridSpec.centered(12, 10, 0.8)
    pts = rng.uniform(-6, 6, size=(400, 3))
    grid = rasterize_bev(PointCloud(pts), spec)

    count = np.zeros((spec.height, spec.width))
    zmax = np.zeros((spec.height, spec.width))
    for x, y, z in pts:
        col = math.floor((x - spec.origin[0]) / spec.resolution + 0.5)
        row = math.floor((y - spec.origin[1]) / spec.resolution + 0.5)
        if 0 <= col < spec.width and 0 <= row < spec.height:
            count[row, col] += 1
            zmax[row, col] = max(zmax[row, col], z)
    np.testing.assert_array_equal(grid.data[0], (count > 0).astype(float))
    np.testing.assert_allclose(grid.data[1], np.log1p(count), atol=1e-12)
    np.testing.assert_allclose(grid.data[2], zmax, atol=1e-12)


def test_rasterize_empty_cloud_is_zero():
    spec = GridSpec.centered(8, 8, 1.0)
    grid = rasterize_bev(PointCloud(np.zeros((0, 3))), spec)
    assert grid.data.shape == (3, 8, 8)
    assert not grid.data.any()


def test_bev_grid_validation():
    spec = GridSpec.centered(4, 4, 1.0)
    with pytest.raises(ValueError):
        BevGrid(spec, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        BevGrid(spec, np.zeros((1, 3, 4)))
    with pytest.raises(ValueError):
        BevGrid(spec, np.full((1, 4, 4), np.inf))


def test_warp_identity_is_bitwise():
    rng = np.random.default_rng(32)
    grid = blob_grid(rng)
    warped = warp_grid(grid, Pose2D(0.0, 0.0, 0.0))
    np.testing.assert_array_equal(warped.data, grid.data)


def test_warp_whole_cell_shift_matches_roll():
    rng = np.random.default_rng(33)
    grid = blob_grid(rng)
    res = grid.spec.resolution
    warped = warp_grid(grid, Pose2D(2 * res, -res, 0.0))
    expected = np.zeros_like(grid.data)
    # +x moves content right by 2 columns, -y moves it down one row index
    expected[:, : grid.spec.height - 1, 2:] = grid.data[:, 1:, : grid.spec.width - 2]
    np.testing.assert_allclose(warped.data, expected, atol=1e-12)


def test_warp_is_linear_in_grid_values():
    rng = np.random.default_rng(34)
    spec = GridSpec.centered(16, 16, 0.5)
    a = blob_grid(rng, spec)
    b = blob_grid(rng, spec)
    delta = Pose2D(0.33, -0.21, 0.1)
    combo = BevGrid(spec, 2.0 * a.data + 3.0 * b.data)
    lhs = warp_grid(combo, delta).data
    rhs = 2.0 * warp_grid(a, delta).data + 3.0 * warp_grid(b, delta).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_warp_fills_zero_outside_source():
    spec = GridSpec.centered(8, 8, 1.0)
    grid = BevGrid(spec, np.ones((1, 8, 8)))
    warped = warp_grid(grid, Pose2D(3.0, 0.0, 0.0))
    assert np.all(warped.data[0][:, :3] == 0.0)
    assert np.all(warped.data[0][:, 3:] == 1.0)


def test_coarse_align_identity_poses():
    rng = np.random.default_rng(35)
    grid = blob_grid(rng)
    pose = Pose.from_planar(4.0, -1.0, 0.7)
    out = coarse_align(pose, [(grid, pose)])
    np.testing.assert_array_equal(out[0].data, grid.data)


def test_coarse_align_pure_translation_matches_roll():
    rng = np.random.default_rng(36)
    grid = blob_grid(rng)
    res = grid.spec.resolution
    ego = Pose.from_planar(0.0, 0.0, 0.0)
    nbr = Pose.from_planar(3 * res, 0.0, 0.0)
    out = coarse_align(ego, [(grid, nbr)])[0]
    expected = np.zeros_like(grid.data)
    expected[:, :, 3:] = grid.data[:, :, : grid.spec.width - 3]
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_coarse_align_rejects_mixed_geometry():
    rng = np.random.default_rng(37)
    a = blob_grid(rng, GridSpec.centered(16, 16, 0.5))
    b = blob_grid(rng, GridSpec.centered(8, 8, 0.5))
    with pytest.raises(ValueError):
        coarse_align(Pose.identity(), [(a, Pose.identity()), (b, Pose.identity())])


def test_confidence_embed_normalization_and_exact_scaling():
    rng = np.random.default_rng(38)
    spec = GridSpec.centered(6, 6, 1.0)
    grids = [blob_grid(rng, spec) for _ in range(3)]
    sigmas = [0.2, 0.5, 0.8]
    out = confidence_embed(grids, sigmas)
    total = sum(g.data[-1] for g in out)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
    for g, grid in zip(out, grids):
        assert g.data.shape[0] == grid.data.shape[0] + 1
        np.testing.assert_array_equal(g.data[:-1], grid.data)
    # scaling all sigmas by a power of two leaves the weights bitwise equal
    scaled = confidence_embed(grids, [s * 4.0 for s in sigmas])
    for a, b in zip(out, scaled):
        np.testing.assert_array_equal(a.data[-1], b.data[-1])


def test_confidence_embed_validation():
    rng = np.random.default_rng(39)
    g = blob_grid(rng)
    with pytest.raises(ValueError):
        confidence_embed([g], [0.5, 0.5])
    with pytest.raises(ValueError):
        confidence_embed([g, g], [0.0, 0.0])
    with pytest.raises(ValueError):
        confidence_embed([g], [-1.0])


def test_offset_delta_normalizes_angle_and_inverts():
    d = Pose2D(1.0, -2.0, 3 * math.pi)
    assert abs(d.theta - math.pi) < 1e-12
    back = d.inverse().inverse()
    assert abs(back.x - d.x) < 1e-12
    assert abs(back.y - d.y) < 1e-12
    assert abs(back.theta - d.theta) < 1e-12
    assert Pose2D(3.0, 4.0, 0.0).norm() == 5.0


def test_offset_search_grids():
    s = OffsetSearch(max_xy=2.0, step_xy=0.5, max_theta_deg=10.0, step_theta_deg=2.5)
    np.testing.assert_allclose(s.xy_values(), np.arange(-4, 5) * 0.5)
    assert len(s.theta_values()) == 9
    assert abs(s.theta_values()[0] + math.radians(10)) < 1e-12
    with pytest.raises(ValueError):
        OffsetSearch(step_xy=0.0)
    with pytest.raises(ValueError):
        OffsetSearch(min_gain=-0.1)


def test_estimate_offset_recovers_injected_shift():
    rng = np.random.default_rng(40)
    search = OffsetSearch(max_xy=1.5, step_xy=0.5, max_theta_deg=0.0, step_theta_deg=2.5)
    for _ in range(5):
        ego = blob_grid(rng)
        true = Pose2D(
            float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])),
            float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0])),
            0.0,
        )
        nbr = warp_grid(ego, true)
        est = estimate_offset(ego, nbr, search)
        assert abs(est.x - true.x) < 1e-12
        assert abs(est.y - true.y) < 1e-12


def test_estimate_offset_recovers_rotation():
    rng = np.random.default_rng(41)
    ego = blob_grid(rng)
    search = OffsetSearch(max_xy=0.5, step_xy=0.5, max_theta_deg=10.0, step_theta_deg=2.5)
    true = Pose2D(0.0, 0.0, math.radians(5.0))
    nbr = warp_grid(ego, true)
    est = estimate_offset(ego, nbr, search)
    assert abs(est.theta - true.theta) < math.radians(2.5) + 1e-12


def test_estimate_offset_min_gain_suppresses_twitch():
    rng = np.random.default_rng(42)
    ego = blob_grid(rng)
    # neighbor view of the same scene with slight value noise
    noisy = BevGrid(ego.spec, ego.data + rng.normal(0.0, 1e-4, size=ego.data.shape))
    search = OffsetSearch(max_xy=1.0, step_xy=0.5, max_theta_deg=0.0, step_theta_deg=2.5, min_gain=0.02)
    est = estimate_offset(ego, noisy, search)
    assert est.norm() == 0.0


def test_estimate_offset_channel_selection_and_errors():
    rng = np.random.default_rng(43)
    spec = GridSpec.centered(16, 16, 0.5)
    base = blob_grid(rng, spec)
    two = BevGrid(spec, np.concatenate([np.ones((1, 16, 16)), base.data], axis=0))
    search = OffsetSearch(max_xy=0.5, step_xy=0.5, max_theta_deg=0.0, step_theta_deg=math.degrees(1.0))
    # a constant grid carries no usable signal
    flat = BevGrid(spec, np.ones((1, 16, 16)))
    with pytest.raises(NoSignalError):
        estimate_offset(flat, base, search)
    with pytest.raises(NoSignalError):
        estimate_offset(base, flat, search)
    assert estimate_offset(base, base, search).norm() == 0.0
    # the search correlates one channel; a multi-channel grid is refused
    with pytest.raises(ValueError, match="one channel") as info:
        estimate_offset(two, two, search)
    assert not isinstance(info.value, NoSignalError)
    other = blob_grid(rng, GridSpec.centered(8, 8, 0.5))
    with pytest.raises(ValueError):
        estimate_offset(base, other, search)


def test_estimate_offset_builds_no_object_per_candidate():
    rng = np.random.default_rng(45)
    ego = blob_grid(rng)
    nbr = warp_grid(ego, Pose2D(0.5, 0.0, 0.0))
    built = []
    for search in (
        OffsetSearch(max_xy=0.5, step_xy=0.5, max_theta_deg=0.0, step_theta_deg=2.5),
        OffsetSearch(max_xy=1.0, step_xy=0.5, max_theta_deg=5.0, step_theta_deg=2.5),
    ):
        with counting_constructions(BevGrid, Pose2D) as counts:
            estimate_offset(ego, nbr, search)
        built.append(dict(counts))
    # 9 and 75 candidates; only the result is a Pose2D
    assert built == [{"Pose2D": 1}, {"Pose2D": 1}]


def test_apply_offset_inverts_injected_misalignment():
    rng = np.random.default_rng(44)
    ego = blob_grid(rng)
    true = Pose2D(0.5, -0.5, 0.0)
    nbr = warp_grid(ego, true)
    corrected = apply_offset([nbr], [true.inverse()])[0]
    # interior cells come back to the original (border loses content)
    interior = (slice(None), slice(4, -4), slice(4, -4))
    np.testing.assert_allclose(corrected.data[interior], ego.data[interior], atol=1e-9)
    with pytest.raises(ValueError):
        apply_offset([ego], [])


def test_grid_serialization_round_trip():
    rng = np.random.default_rng(51)
    grid = blob_grid(rng)
    # payload stores float32, so compare after the same cast
    restored = deserialize_grid(serialize_grid(grid))
    assert restored.spec.same_geometry(grid.spec)
    np.testing.assert_array_equal(restored.data, grid.data.astype("<f4").astype(float))


def test_grid_serialization_rejects_garbage():
    rng = np.random.default_rng(52)
    blob = serialize_grid(blob_grid(rng))
    with pytest.raises(ValueError):
        deserialize_grid(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        deserialize_grid(blob[:-8])
    # the header is 44 bytes: 8 of magic, 3 int32 and 3 float64
    for cut in (8, 43):
        with pytest.raises(ValueError, match="truncated grid header"):
            deserialize_grid(blob[:cut])
