"""BEV rasterization, grid warping, confidence embedding, and residual
spatial alignment.

Grids are (C, H, W) float64 arrays over a shared GridSpec. Cell (row, col)
has its center at origin + (col, row) * resolution in the owning agent's
frame, with col along x and row along y. Warping uses inverse bilinear
sampling with zero fill outside the source.

One array kernel, _sample, does all warping: it samples a stack of
translations that share one rotation. warp_grid, apply_offset and
coarse_align call it with one translation. The residual offset search is
split in two: offset_template warps the ego grid by a whole row of
candidates per call (every dx for one (theta, dy)) and keeps every
candidate's centered warp, and estimate_offset scores a neighbor against
those rows with reductions along their last axis. One template serves every
neighbor correlated with the same ego grid. Batching changes no value: each
sample and each score is computed with the same elementwise arithmetic, in
the same order, as a call for one candidate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Pose, Pose2D, PointCloud, normalize_angle, relative

BEV_GRID_MAGIC = b"CPALBG01"

_SNAP = 1e-9

# rasterize_bev's channels, then confidence_embed's plane: the encoder's
# BEV_CHANNELS input channels per cell.
MAX_HEIGHT_CHANNEL = 2
BEV_CHANNELS = 4

# Template rows multiplied and summed at a time when a neighbor is scored.
_SCORE_BLOCK = 64


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
    np.maximum.at(data[MAX_HEIGHT_CHANNEL], (rows, cols), z)
    return BevGrid(spec, data)


def _sample(data: np.ndarray, spec: GridSpec, x: np.ndarray, y: np.ndarray, theta: float) -> np.ndarray:
    """Bilinear samples of (C, H, W) data at every cell center moved by each
    planar motion (x[k], y[k], theta), zero outside the source extent, as a
    (K, C, H, W) stack. Sample coordinates within 1e-9 of a cell center snap
    to it.

    Each of the four taps is one gather from a copy of the source with two
    zero cells of border per side. The tap corner (floor of the sample
    coordinates) is clamped to [-2, W] x [-2, H]; that moves only corners
    whose taps all lie outside the data, and keeps them in the border, so
    the taps are fixed flat offsets from the corner and a tap outside the
    extent reads a border zero. That is exactly the zero fill: grid data is
    finite and every bilinear weight is >= 0, so such a tap adds a zero to
    an accumulator that starts at +0.0 and so is never -0.0."""
    chans, height, width = data.shape
    xs, ys = spec.cell_centers()
    px = xs[None, :]
    py = ys[:, None]
    c = math.cos(theta)
    s = math.sin(theta)
    qx = (c * px - s * py) + x[:, None, None]
    qy = (s * px + c * py) + y[:, None, None]
    u = (qx - spec.origin[0]) / spec.resolution
    v = (qy - spec.origin[1]) / spec.resolution
    u_round = np.round(u)
    v_round = np.round(v)
    np.copyto(u, u_round, where=np.abs(u - u_round) < _SNAP)
    np.copyto(v, v_round, where=np.abs(v - v_round) < _SNAP)
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0
    stride = width + 4
    padded = np.zeros((chans, height + 4, stride))
    padded[:, 2:-2, 2:-2] = data
    flat = padded.reshape(chans, -1)
    corner = (np.clip(j0, -2, height) + 2) * stride + (np.clip(i0, -2, width) + 2)
    gu = 1.0 - fu
    gv = 1.0 - fv
    out = np.zeros((chans,) + u.shape)
    for step, weight in ((0, gv * gu), (1, gv * fu), (stride, fv * gu), (stride + 1, fv * fu)):
        out += np.take(flat, corner + step, axis=1) * weight
    return out.transpose(1, 0, 2, 3)


def warp_grid(grid: BevGrid, delta: Pose2D) -> BevGrid:
    """Resample a grid under a planar rigid motion.

    The output at world position p takes the input value at delta^{-1}(p)
    via bilinear interpolation, zero outside the source extent. Sample
    coordinates within 1e-9 of a cell center snap to it, so an identity delta
    or an exact whole-cell translation reproduces values bitwise."""
    inv = delta.inverse()
    warped = _sample(grid.data, grid.spec, np.array([inv.x]), np.array([inv.y]), inv.theta)
    return BevGrid(grid.spec, warped[0])


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


def box_sum_3x3(field: np.ndarray) -> np.ndarray:
    """Sum over each cell's 3x3 neighborhood of a 2-D array, with zeros
    past the border, added in row-major offset order."""
    h, w = field.shape
    pad = np.zeros((h + 2, w + 2))
    pad[1:-1, 1:-1] = field
    out = np.zeros((h, w))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            out += pad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    return out


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

    def _half_counts(self) -> tuple[int, int]:
        """(n_xy, n_theta): each axis runs over steps -n..n."""
        n_xy = int(round(self.max_xy / self.step_xy))
        n_theta = int(round(math.radians(self.max_theta_deg) / math.radians(self.step_theta_deg)))
        return n_xy, n_theta

    def xy_values(self) -> np.ndarray:
        n = self._half_counts()[0]
        return self.step_xy * np.arange(-n, n + 1)

    def theta_values(self) -> np.ndarray:
        """Candidate rotations in radians."""
        n = self._half_counts()[1]
        return math.radians(self.step_theta_deg) * np.arange(-n, n + 1)

    def candidate_count(self) -> int:
        """Candidates per search: theta count times xy count squared."""
        n_xy, n_theta = self._half_counts()
        return (2 * n_theta + 1) * (2 * n_xy + 1) ** 2


@dataclass(frozen=True, eq=False)
class OffsetTemplate:
    """The ego side of the residual offset search, a pure function of the
    ego grid and the search.

    candidates holds each candidate's (x, y, theta, norm) in search order:
    theta outermost, then dy, then dx. Row k of centered is the ego grid
    warped by the inverse of candidate k, flattened and minus its mean, and
    sq[k] is that row's sum of squares. centered and sq are None when the
    ego grid has zero variance, so every neighbor scored against it raises
    NoSignalError."""

    spec: GridSpec
    search: OffsetSearch
    candidates: tuple[tuple[float, float, float, float], ...]
    centered: np.ndarray | None
    sq: tuple[float, ...] | None


def offset_template(ego: BevGrid, search: OffsetSearch) -> OffsetTemplate:
    """Warp, center and square-sum the one-channel ego grid for every
    candidate of the search.

    A single _sample call warps the ego grid by every dx of one (theta, dy),
    and its rows are centered straight into one preallocated
    (candidates, H*W) array. Rows, not whole rotations, keep each temporary
    to a few grids: a rotation holds 81 at criterion 9 settings (+-2 m in
    0.5 m steps)."""
    if ego.channels != 1:
        raise ValueError("offset search correlates grids of exactly one channel")
    xy = search.xy_values()
    xs = xy.tolist()
    thetas = [normalize_angle(float(dtheta)) for dtheta in search.theta_values()]
    candidates = tuple(
        (x, y, theta, math.sqrt(x**2 + y**2 + theta**2)) for theta in thetas for y in xs for x in xs
    )
    if float(ego.data[0].std()) == 0.0:
        return OffsetTemplate(ego.spec, search, candidates, None, None)
    centered = np.empty((len(candidates), ego.data[0].size))
    sq = np.empty(len(candidates))
    row = 0
    for theta in thetas:
        # the inverse of each candidate, as Pose2D.inverse() computes it
        c = math.cos(theta)
        s = math.sin(theta)
        inv_theta = normalize_angle(-theta)
        for y in xs:
            warped = _sample(ego.data, ego.spec, -(c * xy + s * y), -(-s * xy + c * y), inv_theta)
            a = warped.reshape(len(xs), -1)
            ac = centered[row : row + len(xs)]
            np.subtract(a, a.mean(axis=1)[:, None], out=ac)
            sq[row : row + len(xs)] = (ac * ac).sum(axis=1)
            row += len(xs)
    centered.setflags(write=False)
    return OffsetTemplate(ego.spec, search, candidates, centered, tuple(sq.tolist()))


def estimate_offset(template: OffsetTemplate, nbr: BevGrid, search: OffsetSearch) -> Pose2D:
    """Exhaustively search for the planar offset that carries the ego grid
    onto the neighbor's.

    template is the offset_template of the one-channel ego grid for this
    search, and nbr holds one channel. Maximizes normalized cross-correlation
    between warp_grid(ego, delta) and nbr over the search grid. Ties break
    toward the smaller offset norm, then the earlier candidate. The returned
    delta is the neighbor's misalignment relative to ego; warp the neighbor
    by its inverse to correct it. Raises NoSignalError when either grid has
    zero variance. Correlate a channel that is blind to omnipresent
    background (for the standard rasterization, max height ignores ground
    returns); raw occupancy correlates the two sensing footprints instead of
    the scene content when a dominant uniform background is present.

    One template serves every neighbor of its ego grid, so only the neighbor
    side is computed here. The cross terms are summed along the last axis
    of _SCORE_BLOCK template rows at a time. Each score is bitwise what
    warp_grid and a scalar NCC give for that candidate alone, so the choice
    is too."""
    if not template.spec.same_geometry(nbr.spec):
        raise ValueError("grids must share one GridSpec")
    if nbr.channels != 1:
        raise ValueError("offset search correlates grids of exactly one channel")
    if template.search != search:
        raise ValueError("the offset template was built for another search")
    nbr_occ = nbr.data[0]
    if template.centered is None or float(nbr_occ.std()) == 0.0:
        raise NoSignalError("correlation channel has zero variance")
    b_centered = (nbr_occ - nbr_occ.mean()).reshape(-1)
    b_norm = math.sqrt(float((b_centered * b_centered).sum()))
    rows = template.centered
    cross = np.empty(len(rows))
    prod = np.empty((min(_SCORE_BLOCK, len(rows)), rows.shape[1]))
    for start in range(0, len(rows), _SCORE_BLOCK):
        block = rows[start : start + _SCORE_BLOCK]
        part = prod[: len(block)]
        np.multiply(block, b_centered, out=part)
        cross[start : start + len(block)] = part.sum(axis=1)
    best_score = -math.inf
    best_norm = math.inf
    best = (0.0, 0.0, 0.0)
    zero_score = -math.inf
    for (x, y, theta, norm), sq_k, cross_k in zip(template.candidates, template.sq, cross.tolist()):
        denom = math.sqrt(sq_k) * b_norm
        score = cross_k / denom if denom != 0.0 else -math.inf
        if norm == 0.0:
            zero_score = score
        if score > best_score or (score == best_score and norm < best_norm):
            best_score = score
            best_norm = norm
            best = (x, y, theta)
    if not math.isfinite(best_score):
        raise NoSignalError("no candidate produced a finite correlation")
    if search.min_gain > 0.0 and best_norm > 0.0 and best_score < zero_score + search.min_gain:
        return Pose2D(0.0, 0.0, 0.0)
    return Pose2D(*best)


def apply_offset(grids: Sequence[BevGrid], deltas: Sequence[Pose2D]) -> list[BevGrid]:
    """Warp each grid by its own delta. Lengths must match."""
    if len(grids) != len(deltas):
        raise ValueError("need one delta per grid")
    return [warp_grid(g, d) for g, d in zip(grids, deltas)]


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


def serialized_grid_bytes(grid: BevGrid) -> int:
    """len(serialize_grid(grid)), from the grid's shape alone."""
    spec = grid.spec
    return len(BEV_GRID_MAGIC) + struct.calcsize("<iiiddd") + 4 * grid.channels * spec.height * spec.width


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
