"""BEV rasterization, grid warping, confidence embedding, and residual
spatial alignment.

Grids are (C, H, W) float64 arrays over a shared GridSpec. Cell (row, col)
has its center at origin + (col, row) * resolution in the owning agent's
frame, with col along x and row along y. Warping uses inverse bilinear
sampling with zero fill outside the source.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .geometry import Pose, Pose2D, PointCloud, normalize_angle, relative

BEV_GRID_MAGIC = b"CPALBG01"

_SNAP = 1e-9


class NoSignalError(ValueError):
    """Raised when correlation-based alignment gets a zero-variance channel."""


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Geometry of a BEV grid: cell counts, meters per cell, and the world
    position of cell (0, 0)'s center."""

    width: int
    height: int
    resolution: float
    origin: np.ndarray

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.resolution <= 0.0:
            raise ValueError("resolution must be positive")
        origin = np.array(self.origin, dtype=float).reshape(2)
        if not np.isfinite(origin).all():
            raise ValueError("origin must be finite")
        origin.setflags(write=False)
        object.__setattr__(self, "origin", origin)

    @staticmethod
    def centered(width: int, height: int, resolution: float) -> "GridSpec":
        ox = -resolution * (width - 1) / 2.0
        oy = -resolution * (height - 1) / 2.0
        return GridSpec(width, height, resolution, np.array([ox, oy]))

    def same_geometry(self, other: "GridSpec") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and bool(np.all(self.origin == other.origin))
        )

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """World x per column and world y per row."""
        xs = self.origin[0] + np.arange(self.width) * self.resolution
        ys = self.origin[1] + np.arange(self.height) * self.resolution
        return xs, ys


@dataclass(frozen=True, eq=False)
class BevGrid:
    spec: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=float)
        if data.ndim != 3:
            raise ValueError("grid data must be (C, H, W)")
        if data.shape[1] != self.spec.height or data.shape[2] != self.spec.width:
            raise ValueError("grid data shape must match the spec")
        if data.shape[0] < 1:
            raise ValueError("grid needs at least one channel")
        if not np.isfinite(data).all():
            raise ValueError("grid values must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def channels(self) -> int:
        return int(self.data.shape[0])


def rasterize_bev(cloud: PointCloud, spec: GridSpec) -> BevGrid:
    """Bin points into three channels: occupancy (0/1), log(1 + count), and
    max point height. Points outside the grid are dropped; empty cells stay
    zero in every channel."""
    pts = cloud.points
    cols = np.floor((pts[:, 0] - spec.origin[0]) / spec.resolution + 0.5).astype(np.int64)
    rows = np.floor((pts[:, 1] - spec.origin[1]) / spec.resolution + 0.5).astype(np.int64)
    keep = (cols >= 0) & (cols < spec.width) & (rows >= 0) & (rows < spec.height)
    cols = cols[keep]
    rows = rows[keep]
    z = pts[keep, 2]
    data = np.zeros((3, spec.height, spec.width))
    count = np.zeros((spec.height, spec.width))
    np.add.at(count, (rows, cols), 1.0)
    data[0] = (count > 0.0).astype(float)
    data[1] = np.log1p(count)
    np.maximum.at(data[2], (rows, cols), z)
    return BevGrid(spec, data)


def warp_grid(grid: BevGrid, delta: Pose2D) -> BevGrid:
    """Resample a grid under a planar rigid motion.

    The output at world position p takes the input value at delta^{-1}(p)
    via bilinear interpolation, zero outside the source extent. Sample
    coordinates within 1e-9 of a cell center snap to it, so an identity delta
    or an exact whole-cell translation reproduces values bitwise."""
    spec = grid.spec
    xs, ys = spec.cell_centers()
    px, py = np.meshgrid(xs, ys)
    inv = delta.inverse()
    c = math.cos(inv.theta)
    s = math.sin(inv.theta)
    qx = c * px - s * py + inv.x
    qy = s * px + c * py + inv.y
    u = (qx - spec.origin[0]) / spec.resolution
    v = (qy - spec.origin[1]) / spec.resolution
    u_round = np.round(u)
    v_round = np.round(v)
    u = np.where(np.abs(u - u_round) < _SNAP, u_round, u)
    v = np.where(np.abs(v - v_round) < _SNAP, v_round, v)
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0
    out = np.zeros_like(grid.data)
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
        contrib = grid.data[:, jc, ic] * weight[None, :, :]
        out += np.where(valid[None, :, :], contrib, 0.0)
    return BevGrid(spec, out)


def coarse_align(
    ego_pose: Pose, neighbor_grids: Sequence[tuple[BevGrid, Pose]]
) -> list[BevGrid]:
    """Warp each neighbor grid into the ego frame using the planar projection
    of the relative pose. All grids must share the ego's GridSpec geometry."""
    warped: list[BevGrid] = []
    base: GridSpec | None = None
    for grid, pose in neighbor_grids:
        if base is None:
            base = grid.spec
        elif not grid.spec.same_geometry(base):
            raise ValueError("neighbor grids must share one GridSpec")
        warped.append(warp_grid(grid, relative(ego_pose, pose).planar()))
    return warped


def confidence_embed(grids: Sequence[BevGrid], sigmas: Sequence[float]) -> list[BevGrid]:
    """Append one constant channel per grid holding sigma_i / sum(sigma).

    The weights are invariant to a common positive rescaling of the sigmas and
    sum to one across agents. All-zero sigmas are rejected."""
    if len(grids) != len(sigmas):
        raise ValueError("need one sigma per grid")
    vals = [float(s) for s in sigmas]
    if any(v < 0.0 or not math.isfinite(v) for v in vals):
        raise ValueError("sigmas must be finite and non-negative")
    total = sum(vals)
    if total <= 0.0:
        raise ValueError("at least one sigma must be positive")
    out = []
    for grid, val in zip(grids, vals):
        plane = np.full((1, grid.spec.height, grid.spec.width), val / total)
        out.append(BevGrid(grid.spec, np.concatenate([grid.data, plane], axis=0)))
    return out


@dataclass(frozen=True)
class OffsetDelta:
    """A small planar misalignment (dx, dy, dtheta), dtheta in (-pi, pi]."""

    dx: float
    dy: float
    dtheta: float

    def __post_init__(self) -> None:
        for name in ("dx", "dy", "dtheta"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, val)
        object.__setattr__(self, "dtheta", normalize_angle(self.dtheta))

    def as_pose2d(self) -> Pose2D:
        return Pose2D(self.dx, self.dy, self.dtheta)

    def invert(self) -> "OffsetDelta":
        inv = self.as_pose2d().inverse()
        return OffsetDelta(inv.x, inv.y, inv.theta)

    def norm(self) -> float:
        return math.sqrt(self.dx**2 + self.dy**2 + self.dtheta**2)


@dataclass(frozen=True)
class OffsetSearch:
    """Symmetric search grid around zero for the exhaustive offset estimator.

    min_gain is an evidence margin: a non-zero candidate is adopted only when
    its correlation beats the zero-offset correlation by at least this much,
    which keeps the estimator from twitching on rasterization differences
    between two views of the same scene. Angles are stored in degrees, as
    configs state them, and converted once in theta_values."""

    max_xy: float = 2.0
    step_xy: float = 0.5
    max_theta_deg: float = 10.0
    step_theta_deg: float = 2.5
    min_gain: float = 0.0

    def __post_init__(self) -> None:
        if self.step_xy <= 0.0 or self.step_theta_deg <= 0.0:
            raise ValueError("search steps must be positive")
        if self.max_xy < 0.0 or self.max_theta_deg < 0.0:
            raise ValueError("search ranges must be non-negative")
        if self.min_gain < 0.0:
            raise ValueError("min_gain must be non-negative")

    def xy_values(self) -> np.ndarray:
        n = int(round(self.max_xy / self.step_xy))
        return self.step_xy * np.arange(-n, n + 1)

    def theta_values(self) -> np.ndarray:
        """Candidate rotations in radians."""
        step = math.radians(self.step_theta_deg)
        n = int(round(math.radians(self.max_theta_deg) / step))
        return step * np.arange(-n, n + 1)


def _ncc(a: np.ndarray, b_centered: np.ndarray, b_norm: float) -> float:
    ac = a - a.mean()
    denom = math.sqrt(float((ac * ac).sum())) * b_norm
    if denom == 0.0:
        return -math.inf
    return float((ac * b_centered).sum()) / denom


def estimate_offset(
    ego: BevGrid, nbr: BevGrid, search: OffsetSearch, channel: int = 0
) -> OffsetDelta:
    """Exhaustively search for the planar offset that carries one ego channel
    onto the neighbor's.

    Maximizes normalized cross-correlation of the chosen channel between
    warp_grid(ego, delta) and nbr over the search grid. Ties break toward the
    smaller offset norm, then the earlier candidate. The returned delta is
    the neighbor's misalignment relative to ego; warp the neighbor by its
    inverse to correct it. Raises NoSignalError when either channel has zero
    variance. Pick a channel that is blind to omnipresent background (for
    the standard rasterization, max height ignores ground returns); raw
    occupancy correlates the two sensing footprints instead of the scene
    content when a dominant uniform background is present."""
    if not ego.spec.same_geometry(nbr.spec):
        raise ValueError("grids must share one GridSpec")
    if not 0 <= channel < ego.data.shape[0]:
        raise ValueError("channel out of range")
    ego_occ = ego.data[channel]
    nbr_occ = nbr.data[channel]
    if float(ego_occ.std()) == 0.0 or float(nbr_occ.std()) == 0.0:
        raise NoSignalError("correlation channel has zero variance")
    b_centered = nbr_occ - nbr_occ.mean()
    b_norm = math.sqrt(float((b_centered * b_centered).sum()))
    best_score = -math.inf
    best_norm = math.inf
    best = OffsetDelta(0.0, 0.0, 0.0)
    zero_score = -math.inf
    ego_single = BevGrid(ego.spec, ego_occ[None, :, :])
    for dtheta in search.theta_values():
        for dy in search.xy_values():
            for dx in search.xy_values():
                cand = OffsetDelta(float(dx), float(dy), float(dtheta))
                warped = warp_grid(ego_single, cand.as_pose2d())
                score = _ncc(warped.data[0], b_centered, b_norm)
                if cand.norm() == 0.0:
                    zero_score = score
                if score > best_score or (score == best_score and cand.norm() < best_norm):
                    best_score = score
                    best_norm = cand.norm()
                    best = cand
    if not math.isfinite(best_score):
        raise NoSignalError("no candidate produced a finite correlation")
    if search.min_gain > 0.0 and best.norm() > 0.0:
        if not math.isfinite(zero_score):
            zero_score = _ncc(warp_grid(ego_single, OffsetDelta(0.0, 0.0, 0.0).as_pose2d()).data[0],
                              b_centered, b_norm)
        if best_score < zero_score + search.min_gain:
            return OffsetDelta(0.0, 0.0, 0.0)
    return best


def apply_offset(grids: Sequence[BevGrid], deltas: Sequence[OffsetDelta]) -> list[BevGrid]:
    """Warp each grid by its own delta. Lengths must match."""
    if len(grids) != len(deltas):
        raise ValueError("need one delta per grid")
    return [warp_grid(g, d.as_pose2d()) for g, d in zip(grids, deltas)]


@dataclass(eq=False)
class OffsetNetParams:
    """Weights for the small offset-regression network: two stride-2 conv
    stages, global average pooling, one hidden linear layer, linear output
    (dx, dy, dtheta). Also serves as the gradient container."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray

    @staticmethod
    def zeros(in_channels: int, c1: int = 8, c2: int = 16, hidden: int = 32) -> "OffsetNetParams":
        return OffsetNetParams(
            conv1_w=np.zeros((c1, 2 * in_channels, 3, 3)),
            conv1_b=np.zeros(c1),
            conv2_w=np.zeros((c2, c1, 3, 3)),
            conv2_b=np.zeros(c2),
            fc1_w=np.zeros((hidden, c2)),
            fc1_b=np.zeros(hidden),
            fc2_w=np.zeros((3, hidden)),
            fc2_b=np.zeros(3),
        )

    @staticmethod
    def seeded(
        in_channels: int,
        rng: np.random.Generator,
        c1: int = 8,
        c2: int = 16,
        hidden: int = 32,
        scale: float = 0.1,
    ) -> "OffsetNetParams":
        return OffsetNetParams(
            conv1_w=scale * rng.standard_normal((c1, 2 * in_channels, 3, 3)),
            conv1_b=np.zeros(c1),
            conv2_w=scale * rng.standard_normal((c2, c1, 3, 3)),
            conv2_b=np.zeros(c2),
            fc1_w=scale * rng.standard_normal((hidden, c2)),
            fc1_b=np.zeros(hidden),
            fc2_w=scale * rng.standard_normal((3, hidden)),
            fc2_b=np.zeros(3),
        )

    def field_names(self) -> list[str]:
        return [f.name for f in fields(self)]


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 2, pad: int = 1):
    cin, h, wd = x.shape
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.broadcast_to(b[:, None, None], (w.shape[0], oh, ow)).copy()
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di : di + stride * oh : stride, dj : dj + stride * ow : stride]
            out += np.einsum("oc,chw->ohw", w[:, :, di, dj], patch)
    return out, xp


def _conv2d_backward(
    xp: np.ndarray, w: np.ndarray, grad_out: np.ndarray, x_shape, stride: int = 2, pad: int = 1
):
    k = w.shape[2]
    oh, ow = grad_out.shape[1:]
    grad_w = np.zeros_like(w)
    grad_xp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di : di + stride * oh : stride, dj : dj + stride * ow : stride]
            grad_w[:, :, di, dj] = np.einsum("ohw,chw->oc", grad_out, patch)
            grad_xp[:, di : di + stride * oh : stride, dj : dj + stride * ow : stride] += (
                np.einsum("oc,ohw->chw", w[:, :, di, dj], grad_out)
            )
    grad_b = grad_out.sum(axis=(1, 2))
    grad_x = grad_xp[:, pad : pad + x_shape[1], pad : pad + x_shape[2]]
    return grad_x, grad_w, grad_b


def _offset_net_raw(params: OffsetNetParams, ego: BevGrid, nbr: BevGrid):
    if not ego.spec.same_geometry(nbr.spec):
        raise ValueError("grids must share one GridSpec")
    x = np.concatenate([ego.data, nbr.data], axis=0)
    if x.shape[0] != params.conv1_w.shape[1]:
        raise ValueError("channel count does not match conv1 weights")
    a1, xp1 = _conv2d(x, params.conv1_w, params.conv1_b)
    h1 = np.tanh(a1)
    a2, xp2 = _conv2d(h1, params.conv2_w, params.conv2_b)
    h2 = np.tanh(a2)
    pooled = h2.mean(axis=(1, 2))
    a3 = params.fc1_w @ pooled + params.fc1_b
    h3 = np.tanh(a3)
    out = params.fc2_w @ h3 + params.fc2_b
    cache = (x, xp1, h1, xp2, h2, pooled, h3)
    return out, cache


def offset_net_forward(params: OffsetNetParams, ego: BevGrid, nbr: BevGrid) -> OffsetDelta:
    """Run the offset network on a grid pair. All-zero parameters give the
    zero offset because the output layer is linear."""
    out, _ = _offset_net_raw(params, ego, nbr)
    return OffsetDelta(float(out[0]), float(out[1]), float(out[2]))


def offset_net_backward(
    params: OffsetNetParams, ego: BevGrid, nbr: BevGrid, target: np.ndarray
) -> tuple[float, OffsetNetParams]:
    """Loss and exact parameter gradients for the squared error
    sum((out - target)^2) against a target offset triple."""
    target = np.asarray(target, dtype=float).reshape(3)
    out, cache = _offset_net_raw(params, ego, nbr)
    x, xp1, h1, xp2, h2, pooled, h3 = cache
    diff = out - target
    loss = float((diff * diff).sum())
    d_out = 2.0 * diff
    g_fc2_w = np.outer(d_out, h3)
    g_fc2_b = d_out
    d_h3 = params.fc2_w.T @ d_out
    d_a3 = d_h3 * (1.0 - h3 * h3)
    g_fc1_w = np.outer(d_a3, pooled)
    g_fc1_b = d_a3
    d_pooled = params.fc1_w.T @ d_a3
    oh2, ow2 = h2.shape[1:]
    d_h2 = np.broadcast_to(d_pooled[:, None, None], h2.shape) / (oh2 * ow2)
    d_a2 = d_h2 * (1.0 - h2 * h2)
    d_h1, g_conv2_w, g_conv2_b = _conv2d_backward(xp2, params.conv2_w, d_a2, h1.shape)
    d_a1 = d_h1 * (1.0 - h1 * h1)
    _, g_conv1_w, g_conv1_b = _conv2d_backward(xp1, params.conv1_w, d_a1, x.shape)
    grads = OffsetNetParams(
        conv1_w=g_conv1_w,
        conv1_b=g_conv1_b,
        conv2_w=g_conv2_w,
        conv2_b=g_conv2_b,
        fc1_w=g_fc1_w,
        fc1_b=g_fc1_b,
        fc2_w=g_fc2_w,
        fc2_b=g_fc2_b,
    )
    return loss, grads


def serialize_grid(grid: BevGrid) -> bytes:
    """Magic, (H, W, C) int32 LE, (resolution, origin_x, origin_y) float64 LE,
    then row-major channel-major float32 values."""
    spec = grid.spec
    header = BEV_GRID_MAGIC + struct.pack(
        "<iiiddd",
        spec.height,
        spec.width,
        grid.channels,
        spec.resolution,
        float(spec.origin[0]),
        float(spec.origin[1]),
    )
    return header + grid.data.astype("<f4").tobytes()


def deserialize_grid(blob: bytes) -> BevGrid:
    magic_len = len(BEV_GRID_MAGIC)
    if blob[:magic_len] != BEV_GRID_MAGIC:
        raise ValueError("bad grid magic")
    offset = magic_len + struct.calcsize("<iiiddd")
    if len(blob) < offset:
        raise ValueError("truncated grid header")
    h, w, c, res, ox, oy = struct.unpack_from("<iiiddd", blob, magic_len)
    expected = c * h * w * 4
    body = blob[offset:]
    if len(body) != expected:
        raise ValueError("truncated grid payload")
    data = np.frombuffer(body, dtype="<f4").astype(float).reshape(c, h, w)
    return BevGrid(GridSpec(w, h, res, np.array([ox, oy])), data)
