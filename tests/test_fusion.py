import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopalign import fusion
from coopalign.config import ExperimentConfig
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
    offset_template,
    rasterize_bev,
    serialize_grid,
    serialized_grid_bytes,
    warp_grid,
)
from coopalign.geometry import PointCloud, Pose, Pose2D, normalize_angle
from conftest import blob_grid, counting_constructions


def _estimate(ego, nbr, search):
    """estimate_offset of nbr against a template of the ego grid."""
    return estimate_offset(offset_template(ego, search), nbr, search)


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
    out = coarse_align(pose, grid, pose)
    np.testing.assert_array_equal(out.data, grid.data)


def test_coarse_align_pure_translation_matches_roll():
    rng = np.random.default_rng(36)
    grid = blob_grid(rng)
    res = grid.spec.resolution
    ego = Pose.from_planar(0.0, 0.0, 0.0)
    nbr = Pose.from_planar(3 * res, 0.0, 0.0)
    out = coarse_align(ego, grid, nbr)
    expected = np.zeros_like(grid.data)
    expected[:, :, 3:] = grid.data[:, :, : grid.spec.width - 3]
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


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
        est = _estimate(ego, nbr, search)
        assert abs(est.x - true.x) < 1e-12
        assert abs(est.y - true.y) < 1e-12


def test_estimate_offset_recovers_rotation():
    rng = np.random.default_rng(41)
    ego = blob_grid(rng)
    search = OffsetSearch(max_xy=0.5, step_xy=0.5, max_theta_deg=10.0, step_theta_deg=2.5)
    true = Pose2D(0.0, 0.0, math.radians(5.0))
    nbr = warp_grid(ego, true)
    est = _estimate(ego, nbr, search)
    assert abs(est.theta - true.theta) < math.radians(2.5) + 1e-12


def test_estimate_offset_min_gain_suppresses_twitch():
    rng = np.random.default_rng(42)
    ego = blob_grid(rng)
    # neighbor view of the same scene with slight value noise
    noisy = BevGrid(ego.spec, ego.data + rng.normal(0.0, 1e-4, size=ego.data.shape))
    search = OffsetSearch(max_xy=1.0, step_xy=0.5, max_theta_deg=0.0, step_theta_deg=2.5, min_gain=0.02)
    est = _estimate(ego, noisy, search)
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
        _estimate(flat, base, search)
    with pytest.raises(NoSignalError):
        _estimate(base, flat, search)
    assert _estimate(base, base, search).norm() == 0.0
    # the search correlates one channel; a multi-channel grid is refused
    with pytest.raises(ValueError, match="one channel") as info:
        _estimate(two, two, search)
    assert not isinstance(info.value, NoSignalError)
    with pytest.raises(ValueError, match="one channel"):
        _estimate(base, two, search)
    other = blob_grid(rng, GridSpec.centered(8, 8, 0.5))
    with pytest.raises(ValueError):
        _estimate(base, other, search)


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
            _estimate(ego, nbr, search)
        built.append(dict(counts))
    # 9 and 75 candidates; only the result is a Pose2D
    assert built == [{"Pose2D": 1}, {"Pose2D": 1}]


# The scalar kernel and NCC as they were before the search was batched:
# one translation per call, clip + where per tap. Kept as the oracle the
# batched kernel and search must match bit for bit.
def _oracle_sample(data, spec, x, y, theta):
    xs, ys = spec.cell_centers()
    px, py = np.meshgrid(xs, ys)
    c = math.cos(theta)
    s = math.sin(theta)
    qx = c * px - s * py + x
    qy = s * px + c * py + y
    u = (qx - spec.origin[0]) / spec.resolution
    v = (qy - spec.origin[1]) / spec.resolution
    u_round = np.round(u)
    v_round = np.round(v)
    u = np.where(np.abs(u - u_round) < 1e-9, u_round, u)
    v = np.where(np.abs(v - v_round) < 1e-9, v_round, v)
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0
    out = np.zeros_like(data)
    for dj, di, weight in (
        (0, 0, (1.0 - fv) * (1.0 - fu)),
        (0, 1, (1.0 - fv) * fu),
        (1, 0, fv * (1.0 - fu)),
        (1, 1, fv * fu),
    ):
        jj = j0 + dj
        ii = i0 + di
        valid = (ii >= 0) & (ii < spec.width) & (jj >= 0) & (jj < spec.height)
        jc = np.clip(jj, 0, spec.height - 1)
        ic = np.clip(ii, 0, spec.width - 1)
        contrib = data[:, jc, ic] * weight[None, :, :]
        out += np.where(valid[None, :, :], contrib, 0.0)
    return out


def _oracle_ncc(a, b_centered, b_norm):
    ac = a - a.mean()
    denom = math.sqrt(float((ac * ac).sum())) * b_norm
    if denom == 0.0:
        return -math.inf
    return float((ac * b_centered).sum()) / denom


def _oracle_estimate(ego, nbr, search):
    """One warp and one NCC per candidate; None where the search raises
    NoSignalError."""
    ego_occ = ego.data[0]
    nbr_occ = nbr.data[0]
    if float(ego_occ.std()) == 0.0 or float(nbr_occ.std()) == 0.0:
        return None
    b_centered = nbr_occ - nbr_occ.mean()
    b_norm = math.sqrt(float((b_centered * b_centered).sum()))
    best_score, best_norm, best, zero_score = -math.inf, math.inf, (0.0, 0.0, 0.0), -math.inf
    for dtheta in search.theta_values():
        for dy in search.xy_values():
            for dx in search.xy_values():
                x, y, theta = float(dx), float(dy), normalize_angle(float(dtheta))
                inv = Pose2D(x, y, theta).inverse()
                score = _oracle_ncc(_oracle_sample(ego.data, ego.spec, inv.x, inv.y, inv.theta)[0], b_centered, b_norm)
                norm = math.sqrt(x**2 + y**2 + theta**2)
                if norm == 0.0:
                    zero_score = score
                if score > best_score or (score == best_score and norm < best_norm):
                    best_score, best_norm, best = score, norm, (x, y, theta)
    if not math.isfinite(best_score):
        return None
    if search.min_gain > 0.0 and best_norm > 0.0 and best_score < zero_score + search.min_gain:
        return Pose2D(0.0, 0.0, 0.0)
    return Pose2D(*best)


@st.composite
def _random_grids(draw, max_channels=3):
    """Non-square grids of 1-3 channels with half their cells zero."""
    spec = GridSpec.centered(
        draw(st.integers(1, 12)),
        draw(st.integers(1, 12)),
        draw(st.sampled_from([0.25, 0.5, 0.7, 1.0, 2.0])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(draw(st.integers(1, max_channels)), spec.height, spec.width))
    data[rng.random(data.shape) < 0.5] = 0.0
    return BevGrid(spec, data)


@settings(max_examples=150, deadline=None)
@given(
    grid=_random_grids(),
    shift=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    whole_cells=st.booleans(),
    theta=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
)
def test_warp_matches_scalar_oracle_bitwise(grid, shift, whole_cells, theta):
    # shifts up to 1.5 grid extents, so many samples leave the source
    spec = grid.spec
    x, y = (f * spec.resolution * max(spec.width, spec.height) for f in shift)
    if whole_cells:
        x = round(x / spec.resolution) * spec.resolution
        y = round(y / spec.resolution) * spec.resolution
    delta = Pose2D(x, y, theta)
    inv = delta.inverse()
    expected = _oracle_sample(grid.data, spec, inv.x, inv.y, inv.theta)
    assert warp_grid(grid, delta).data.tobytes() == expected.tobytes()


@st.composite
def _tie_pairs(draw):
    """Integer spikes on a power-of-two grid, with the neighbor holding
    each ego spike moved by whole cells both ways along one axis: every sum
    in the NCC is exact, so mirrored candidates score exactly equal."""
    spec = GridSpec.centered(draw(st.sampled_from([4, 8, 16])), draw(st.sampled_from([4, 8, 16])), 0.5)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ego = np.zeros((1, spec.height, spec.width))
    for _ in range(draw(st.integers(1, 3))):
        ego[0, rng.integers(spec.height), rng.integers(spec.width)] = float(rng.integers(1, 4))
    axis = draw(st.sampled_from([1, 2]))
    steps = draw(st.integers(1, 2))
    nbr = np.roll(ego, steps, axis=axis) + np.roll(ego, -steps, axis=axis)
    return BevGrid(spec, ego), BevGrid(spec, nbr)


@st.composite
def _noise_pairs(draw):
    ego = draw(_random_grids(max_channels=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ego, BevGrid(ego.spec, rng.normal(size=ego.data.shape))


@settings(max_examples=60, deadline=None)
@given(
    pair=st.one_of(_tie_pairs(), _noise_pairs()),
    n_xy=st.integers(0, 3),
    step_xy=st.sampled_from([0.25, 0.5, 0.625, 1.0]),
    n_theta=st.integers(0, 2),
    step_theta=st.sampled_from([2.0, 2.5, 30.0]),
    min_gain=st.sampled_from([0.0, 0.02, 0.5]),
)
def test_estimate_offset_matches_scalar_oracle(pair, n_xy, step_xy, n_theta, step_theta, min_gain):
    ego, nbr = pair
    search = OffsetSearch(
        max_xy=n_xy * step_xy, step_xy=step_xy,
        max_theta_deg=n_theta * step_theta, step_theta_deg=step_theta,
        min_gain=min_gain,
    )
    expected = _oracle_estimate(ego, nbr, search)
    if expected is None:
        with pytest.raises(NoSignalError):
            _estimate(ego, nbr, search)
    else:
        got = _estimate(ego, nbr, search)
        assert (got.x, got.y, got.theta) == (expected.x, expected.y, expected.theta)


def _loop_offset_choice(template, nbr, search):
    """estimate_offset's choice as a per-candidate loop over (x, y, theta,
    norm) tuples built from the search in Python floats, scored against the
    template's rows; None where the search raises NoSignalError. The array
    choice must pick the same candidate bit for bit."""
    nbr_occ = nbr.data[0]
    if template.centered is None or float(nbr_occ.std()) == 0.0:
        return None
    b_centered = (nbr_occ - nbr_occ.mean()).reshape(-1)
    b_norm = math.sqrt(float((b_centered * b_centered).sum()))
    cross = (template.centered * b_centered).sum(axis=1)
    xs = search.xy_values().tolist()
    thetas = [normalize_angle(float(t)) for t in search.theta_values()]
    candidates = [(x, y, t, math.sqrt(x**2 + y**2 + t**2)) for t in thetas for y in xs for x in xs]
    best_score, best_norm, best, zero_score = -math.inf, math.inf, (0.0, 0.0, 0.0), -math.inf
    for (x, y, theta, norm), sq_k, cross_k in zip(candidates, template.sq.tolist(), cross.tolist()):
        denom = math.sqrt(sq_k) * b_norm
        score = cross_k / denom if denom != 0.0 else -math.inf
        if norm == 0.0:
            zero_score = score
        if score > best_score or (score == best_score and norm < best_norm):
            best_score, best_norm, best = score, norm, (x, y, theta)
    if not math.isfinite(best_score):
        return None
    if search.min_gain > 0.0 and best_norm > 0.0 and best_score < zero_score + search.min_gain:
        return Pose2D(0.0, 0.0, 0.0)
    return Pose2D(*best)


@st.composite
def _mirror_pairs(draw):
    """An ego grid and a neighbor that are both mirror-symmetric about the
    grid's center column, with small integer values on an 8 x 8 or 16 x 8
    grid: with whole or half-cell steps every NCC sum is exact, so each
    candidate (x, y, 0) ties exactly with its mirror (-x, y, 0)."""
    spec = GridSpec.centered(8, draw(st.sampled_from([8, 16])), draw(st.sampled_from([0.5, 1.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2, 1, spec.height, spec.width // 2)
    halves = rng.integers(0, 3, size=shape) * (rng.random(shape) < 0.3)
    ego, nbr = (BevGrid(spec, np.concatenate([h, h[..., ::-1]], axis=2).astype(float)) for h in halves)
    return ego, nbr


@st.composite
def _flat_pairs(draw):
    """A constant neighbor or a constant ego grid: both sides raise."""
    ego, nbr = draw(_noise_pairs())
    flat = BevGrid(ego.spec, np.full(ego.data.shape, draw(st.sampled_from([0.0, 1.0]))))
    return (ego, flat) if draw(st.booleans()) else (flat, nbr)


@settings(max_examples=300, deadline=None)
@given(
    pair=st.one_of(_mirror_pairs(), _tie_pairs(), _noise_pairs(), _flat_pairs()),
    n_xy=st.integers(0, 4),
    step_xy=st.sampled_from([0.5, 1.0, 0.3]),
    n_theta=st.integers(0, 4),
    step_theta=st.sampled_from([2.5, 30.0]),
    min_gain=st.sampled_from([0.0, 1e-12, 0.02, 0.5]),
)
def test_offset_choice_matches_the_per_candidate_loop(pair, n_xy, step_xy, n_theta, step_theta, min_gain):
    ego, nbr = pair
    search = OffsetSearch(
        max_xy=n_xy * step_xy, step_xy=step_xy,
        max_theta_deg=n_theta * step_theta, step_theta_deg=step_theta,
        min_gain=min_gain,
    )
    template = offset_template(ego, search)
    expected = _loop_offset_choice(template, nbr, search)
    if expected is None:
        with pytest.raises(NoSignalError):
            estimate_offset(template, nbr, search)
    else:
        got = estimate_offset(template, nbr, search)
        assert np.array([got.x, got.y, got.theta]).tobytes() == np.array([expected.x, expected.y, expected.theta]).tobytes()


def test_mirrored_candidates_tie_and_the_earlier_wins():
    # spikes at columns 3 and 4, mirror images about the grid's center,
    # against spikes at columns 2 and 5: dx = -1 and dx = +1 score exactly
    # equal at the maximum, with equal norms, so the earlier candidate wins
    spec = GridSpec.centered(8, 8, 1.0)
    ego = np.zeros((1, 8, 8))
    ego[0, 4, [3, 4]] = 1.0
    nbr = np.zeros((1, 8, 8))
    nbr[0, 4, [2, 5]] = 1.0
    search = OffsetSearch(max_xy=1.0, step_xy=1.0, max_theta_deg=0.0, step_theta_deg=2.5)
    template = offset_template(BevGrid(spec, ego), search)
    got = estimate_offset(template, BevGrid(spec, nbr), search)
    b = (nbr[0] - nbr[0].mean()).reshape(-1)
    scores = (template.centered @ b) / np.sqrt(template.sq)
    tied = np.flatnonzero(scores == scores.max())
    assert template.candidates[tied].tolist() == [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    assert (got.x, got.y, got.theta) == (-1.0, 0.0, 0.0)
    assert _loop_offset_choice(template, BevGrid(spec, nbr), search) == got


def test_estimate_offset_samples_one_row_per_call(monkeypatch):
    # one kernel call per (theta, dy) row: rows bound the temporaries
    calls = []
    kernel = fusion._sample

    def counted(data, spec, x, y, theta):
        calls.append(len(x))
        return kernel(data, spec, x, y, theta)

    monkeypatch.setattr(fusion, "_sample", counted)
    rng = np.random.default_rng(46)
    ego = blob_grid(rng)
    nbr = warp_grid(ego, Pose2D(0.5, 0.0, 0.0))
    per_search = []
    for search in (
        ExperimentConfig().search,
        OffsetSearch(max_xy=2.0, step_xy=0.5, max_theta_deg=10.0, step_theta_deg=2.5),
    ):
        calls.clear()
        _estimate(ego, nbr, search)
        per_search.append((len(calls), set(calls)))
    assert per_search == [(5, {5}), (81, {9})]


@settings(max_examples=40, deadline=None)
@given(
    pair=st.one_of(_tie_pairs(), _noise_pairs()),
    seeds=st.lists(st.integers(0, 2**32 - 1), max_size=2),
    flat=st.booleans(),
    n_xy=st.integers(0, 3),
    step_xy=st.sampled_from([0.25, 0.5, 0.625, 1.0]),
    n_theta=st.integers(0, 2),
    step_theta=st.sampled_from([2.0, 2.5, 30.0]),
    min_gain=st.sampled_from([0.0, 0.02, 0.5]),
)
def test_one_template_scores_every_neighbor_as_the_oracle(pair, seeds, flat, n_xy, step_xy, n_theta, step_theta, min_gain):
    ego, nbr = pair
    search = OffsetSearch(
        max_xy=n_xy * step_xy, step_xy=step_xy,
        max_theta_deg=n_theta * step_theta, step_theta_deg=step_theta,
        min_gain=min_gain,
    )
    # the drawn neighbor, noise neighbors, the ego itself and maybe a
    # constant grid, all scored against one template
    neighbors = [nbr, ego] + [
        BevGrid(ego.spec, np.random.default_rng(seed).normal(size=ego.data.shape)) for seed in seeds
    ]
    if flat:
        neighbors.append(BevGrid(ego.spec, np.ones(ego.data.shape)))
    template = offset_template(ego, search)
    for other in neighbors:
        expected = _oracle_estimate(ego, other, search)
        if expected is None:
            with pytest.raises(NoSignalError):
                estimate_offset(template, other, search)
        else:
            got = estimate_offset(template, other, search)
            assert (got.x, got.y, got.theta) == (expected.x, expected.y, expected.theta)


def test_scoring_against_a_template_warps_nothing(monkeypatch):
    rng = np.random.default_rng(47)
    ego = blob_grid(rng)
    nbrs = [warp_grid(ego, Pose2D(0.5, 0.0, 0.0)), warp_grid(ego, Pose2D(0.0, -1.0, math.radians(5.0)))]
    search = OffsetSearch(max_xy=2.0, step_xy=0.5, max_theta_deg=10.0, step_theta_deg=2.5)
    template = offset_template(ego, search)
    assert template.centered.shape == (729, ego.spec.width * ego.spec.height)
    assert len(template.candidates) == len(template.sq) == search.candidate_count() == 729
    want = [_estimate(ego, nbr, search) for nbr in nbrs]
    calls = []
    monkeypatch.setattr(fusion, "_sample", lambda *args: calls.append(args))
    assert [estimate_offset(template, nbr, search) for nbr in nbrs] == want
    assert calls == []


def test_template_rows_stay_off_the_traced_heap():
    # The template's rows are the largest array of a wide search, and a block
    # that size on the malloc heap shifts the arena under the encoder's
    # attention buffer, so a sweep's peak RSS jumps between two levels from
    # one code version to the next. The rows come from an anonymous mapping
    # instead, which tracemalloc does not see: what it traces is each row
    # batch's temporaries and the small per-candidate arrays.
    rng = np.random.default_rng(49)
    ego = blob_grid(rng)
    search = OffsetSearch(max_xy=2.0, step_xy=0.5, max_theta_deg=10.0, step_theta_deg=2.5)
    tracemalloc.start()
    try:
        template = offset_template(ego, search)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(template.candidates) == 729
    assert peak < template.centered.nbytes


def test_template_must_match_the_search_and_geometry():
    rng = np.random.default_rng(48)
    ego = blob_grid(rng)
    search = OffsetSearch(max_xy=1.0, step_xy=0.5, max_theta_deg=0.0, step_theta_deg=2.5)
    template = offset_template(ego, search)
    with pytest.raises(ValueError, match="another search"):
        estimate_offset(template, ego, OffsetSearch(max_xy=0.5, step_xy=0.5, max_theta_deg=0.0, step_theta_deg=2.5))
    with pytest.raises(ValueError, match="GridSpec"):
        estimate_offset(template, blob_grid(rng, GridSpec.centered(8, 8, 0.5)), search)
    # a constant ego grid gives a template without rows: every neighbor
    # then finds no signal
    flat = offset_template(BevGrid(ego.spec, np.ones(ego.data.shape)), search)
    assert flat.centered is None and flat.sq is None
    with pytest.raises(NoSignalError):
        estimate_offset(flat, ego, search)


def test_apply_offset_inverts_injected_misalignment():
    rng = np.random.default_rng(44)
    ego = blob_grid(rng)
    true = Pose2D(0.5, -0.5, 0.0)
    nbr = warp_grid(ego, true)
    corrected = apply_offset(nbr, true)
    # interior cells come back to the original (border loses content)
    interior = (slice(None), slice(4, -4), slice(4, -4))
    np.testing.assert_allclose(corrected.data[interior], ego.data[interior], atol=1e-9)


def test_grid_serialization_round_trip():
    rng = np.random.default_rng(51)
    grid = blob_grid(rng)
    # payload stores float32, so compare after the same cast
    restored = deserialize_grid(serialize_grid(grid))
    assert restored.spec.same_geometry(grid.spec)
    np.testing.assert_array_equal(restored.data, grid.data.astype("<f4").astype(float))


@settings(max_examples=100, deadline=None)
@given(
    channels=st.integers(1, 5),
    height=st.integers(1, 12),
    width=st.integers(1, 12),
    resolution=st.floats(min_value=0.05, max_value=4.0),
    origin=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_serialized_grid_bytes_is_the_blob_length(channels, height, width, resolution, origin):
    data = np.arange(channels * height * width, dtype=float).reshape(channels, height, width)
    grid = BevGrid(GridSpec(width, height, resolution, np.array(origin)), data)
    assert serialized_grid_bytes(grid) == len(serialize_grid(grid))


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
