"""Map-free pose estimation from per-point scene-coordinate predictions.

A synthetic oracle stands in for a learned scene-coordinate regressor: it maps
a local cloud into world coordinates through the ground-truth pose, corrupts
the result with a structured noise model, and reports a per-point error
estimate of configurable fidelity. A RANSAC rigid solve turns the predicted
correspondences into a pose, and the mean predicted error over the consensus
set becomes a confidence in (0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, PointCloud, transform_points


# Most RANSAC hypotheses one block holds. A block keeps a (3, b, n) residual
# array, so this bounds the working set; a larger block also computes more
# hypotheses past the early stop.
_BLOCK_CAP = 16


class DegenerateSampleError(ValueError):
    """Raised when a rigid fit is attempted on a rank-deficient point set."""


@dataclass(frozen=True, eq=False)
class SceneCoordPrediction:
    """Per-point world-coordinate predictions for a local cloud.

    predicted_error holds the regressor's own error estimates (meters, one per
    point). gt_world, when given, holds the true world coordinates."""

    local_points: PointCloud
    predicted_world: PointCloud
    predicted_error: np.ndarray
    gt_world: PointCloud | None = None

    def __post_init__(self) -> None:
        err = np.array(self.predicted_error, dtype=float).reshape(-1)
        n = len(self.local_points)
        if len(self.predicted_world) != n or err.shape[0] != n:
            raise ValueError("prediction arrays must share one length")
        if self.gt_world is not None and len(self.gt_world) != n:
            raise ValueError("gt_world must match the prediction length")
        if not np.isfinite(err).all() or (err < 0.0).any():
            raise ValueError("predicted_error must be finite and non-negative")
        err.setflags(write=False)
        object.__setattr__(self, "predicted_error", err)

    def __len__(self) -> int:
        return len(self.local_points)


# Largest translation noise sigma (meters) a config may ask for: GNSS noise,
# and the oracle's inlier sigma and outlier scale. Far beyond it, a squared
# pose or point error overflows and the grid warp's cell indices no longer
# fit an int64. The config also bounds its other lengths and the decode
# head's gain by it: a scene in a 1e300 m world drops every pgc agent, and a
# 1e308 head gain saturates every score.
MAX_SIGMA_T = 1e6

# Largest GNSS heading noise sigma (degrees) a config may ask for, millions
# of turns. Near 1e308 the heading draw overflows to inf, which has no cosine.
MAX_SIGMA_R = 1e9


@dataclass(frozen=True)
class OracleErrorModel:
    """The oracle's per-point localization noise and the fidelity of its error
    estimates.

    Noise: a Gaussian inlier component, a uniform outlier mixture, and a
    smooth bias field with a spatial correlation length; the bias field has
    standard deviation inlier_sigma per axis and is disabled when
    bias_correlation_length is zero. error_fidelity 1.0 reports each point's
    true error exactly; 0.0 reports errors drawn from the right marginal
    distribution but uncorrelated with which point is actually bad."""

    inlier_sigma: float = 0.02
    outlier_fraction: float = 0.3
    outlier_scale: float = 5.0
    bias_correlation_length: float = 20.0
    error_fidelity: float = 0.9

    def __post_init__(self) -> None:
        for name in ("inlier_sigma", "outlier_scale"):
            if not 0.0 <= getattr(self, name) <= MAX_SIGMA_T:
                raise ValueError(f"{name} must lie in [0, {MAX_SIGMA_T:g}] m")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1]")
        if self.bias_correlation_length < 0.0:
            raise ValueError("bias_correlation_length must be non-negative")
        if not 0.0 <= self.error_fidelity <= 1.0:
            raise ValueError("error_fidelity must lie in [0, 1]")


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 256
    inlier_threshold: float = 0.5
    sample_size: int = 3
    min_inliers: int = 10
    confidence_stop: float = 0.999

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.inlier_threshold <= 0.0:
            raise ValueError("inlier_threshold must be positive")
        if self.sample_size < 3:
            raise ValueError("sample_size must be at least 3")
        if self.min_inliers < self.sample_size:
            raise ValueError("min_inliers must be at least sample_size")
        if not 0.0 <= self.confidence_stop <= 1.0:
            raise ValueError("confidence_stop must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class PoseEstimate:
    """The pose record an agent sends. ransac_pose fills in every field, with
    confidence = 1 / (1 + err^2) of the aggregated error; other pose sources
    send their own confidence, error 0, no inliers and inlier ratio 1."""

    pose: Pose
    confidence: float
    aggregated_error: float
    inlier_indices: np.ndarray
    inlier_ratio: float

    def __post_init__(self) -> None:
        idx = np.array(self.inlier_indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "inlier_indices", idx)
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError("confidence must lie in (0, 1]")
        if not 0.0 <= self.inlier_ratio <= 1.0:
            raise ValueError("inlier_ratio must lie in [0, 1]")

    def to_message_json(self) -> str:
        """Compact deterministic wire format: 12 row-major [R | t] floats
        plus the three scalar quality fields; the inlier indices stay home."""
        payload = {
            "pose": self.pose.flat_rt(),
            "confidence": float(self.confidence),
            "aggregated_error": float(self.aggregated_error),
            "inlier_ratio": float(self.inlier_ratio),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def message_bytes(self) -> int:
        return len(self.to_message_json().encode("utf-8"))


def confidence_from_error(eps: float) -> float:
    """Map an aggregated localization error (meters) to (0, 1]."""
    eps = float(eps)
    if eps < 0.0 or not math.isfinite(eps):
        raise ValueError("error must be finite and non-negative")
    return 1.0 / (1.0 + eps * eps)


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Replace each occupied voxel with the centroid of its points.

    Output order follows the first occurrence of each voxel in the input, so
    the result is deterministic. Attributes are dropped."""
    if voxel <= 0.0:
        raise ValueError("voxel size must be positive")
    pts = cloud.points
    if len(cloud) == 0:
        return PointCloud(np.zeros((0, 3)))
    keys = np.floor(pts / voxel).astype(np.int64)
    # a stable sort keeps each voxel's points in input order, so bincount
    # adds them in the order np.add.at would and the first point of a run
    # is the voxel's first occurrence
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    boundary = np.empty(pts.shape[0], dtype=bool)
    boundary[0] = True
    # a key differs from the one before when any of its three components does
    rest = np.not_equal(sorted_keys[1:, 0], sorted_keys[:-1, 0], out=boundary[1:])
    rest |= sorted_keys[1:, 1] != sorted_keys[:-1, 1]
    rest |= sorted_keys[1:, 2] != sorted_keys[:-1, 2]
    group = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    counts = np.diff(starts, append=pts.shape[0])
    sorted_pts = pts[order]
    sums = np.stack(
        [np.bincount(group, weights=sorted_pts[:, c], minlength=starts.shape[0]) for c in range(3)],
        axis=1,
    )
    centroids = sums / counts[:, None]
    return PointCloud(centroids[np.argsort(order[starts], kind="stable")])


_BIAS_FEATURES = 16


def sample_structured_offsets(
    model: OracleErrorModel, positions: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw per-point offsets for the oracle's structured noise model.

    Returns (offsets, outlier_mask) where offsets has shape (N, 3). Inliers get
    independent N(0, inlier_sigma^2) per axis, outliers get uniform draws in
    [-outlier_scale, outlier_scale], and a smooth random bias field (cosine
    features with the requested correlation length) is added on top of the
    inlier noise. The draw order is fixed, so results are reproducible."""
    pts = np.asarray(positions, dtype=float)
    n = pts.shape[0]
    outlier_mask = rng.random(n) < model.outlier_fraction
    offsets = rng.normal(0.0, model.inlier_sigma, size=(n, 3))
    uniform = rng.uniform(-model.outlier_scale, model.outlier_scale, size=(n, 3))
    offsets = np.where(outlier_mask[:, None], uniform, offsets)
    if model.bias_correlation_length > 0.0 and model.inlier_sigma > 0.0:
        ell = model.bias_correlation_length
        freqs = rng.normal(0.0, 1.0 / ell, size=(3, _BIAS_FEATURES, 3))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(3, _BIAS_FEATURES))
        amp = model.inlier_sigma * math.sqrt(2.0 / _BIAS_FEATURES)
        for axis in range(3):
            offsets[:, axis] += amp * np.cos(pts @ freqs[axis].T + phases[axis]).sum(axis=1)
    return offsets, outlier_mask


def oracle_predict(
    cloud: PointCloud,
    gt_pose: Pose,
    model: OracleErrorModel,
    rng: np.random.Generator,
) -> SceneCoordPrediction:
    """Synthesize scene-coordinate predictions for a local cloud.

    World coordinates are the ground-truth transform of the cloud plus
    structured offsets drawn at the true world positions. The reported
    per-point error blends the true error with a shuffled copy of itself:
    fidelity * true + (1 - fidelity) * shuffled, which keeps the marginal
    distribution while degrading per-point informativeness."""
    if len(cloud) == 0:
        raise ValueError("cannot predict coordinates for an empty cloud")
    gt_world = transform_points(gt_pose, cloud)
    offsets, _ = sample_structured_offsets(model, gt_world.points, rng)
    predicted = PointCloud(gt_world.points + offsets)
    abs_off = np.abs(offsets)
    true_err = abs_off[:, 0] + abs_off[:, 1] + abs_off[:, 2]  # bitwise the row sum; see _residuals
    shuffled = rng.permutation(true_err)
    fid = model.error_fidelity
    predicted_error = fid * true_err + (1.0 - fid) * shuffled
    return SceneCoordPrediction(
        local_points=cloud,
        predicted_world=predicted,
        predicted_error=predicted_error,
        gt_world=gt_world,
    )


def _kabsch_stack(local: np.ndarray, world: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares rigid fits of a stack of (b, m, 3) point sets: rotations
    (b, 3, 3), translations (b, 3) and a (b,) mask of the fits whose set is
    neither collinear nor coincident. Every fit is bitwise the 2-D solve of
    its own set: the stacked matmul, svd and det run the same LAPACK/BLAS
    call per matrix, and scaling the last column of V by the reflection sign
    (plus 0.0, which maps -0.0 to +0.0 as a product with diag(1, 1, d)
    does) is exactly V @ diag(1, 1, d)."""
    centroid_l = local.mean(axis=1)
    centroid_w = world.mean(axis=1)
    h = (local - centroid_l[:, None]).transpose(0, 2, 1) @ (world - centroid_w[:, None])
    u, s, vt = np.linalg.svd(h)
    ok = ~((s[:, 0] <= 0.0) | (s[:, 1] <= 1e-9 * s[:, 0]))
    v = vt.transpose(0, 2, 1)
    ut = u.transpose(0, 2, 1)
    d = np.sign(np.linalg.det(v @ ut))
    v[:, :, 2] *= d[:, None]
    v += 0.0
    rot = v @ ut
    return rot, centroid_w - (rot @ centroid_l[:, :, None])[:, :, 0], ok


def _kabsch_arrays(local: np.ndarray, world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation of the least-squares rigid fit."""
    if local.shape[0] < 3:
        raise DegenerateSampleError("rigid fit needs at least 3 points")
    rot, trans, ok = _kabsch_stack(local[None], world[None])
    if not ok[0]:
        raise DegenerateSampleError("point set is collinear or coincident")
    return rot[0], trans[0]


def kabsch_solve(local: PointCloud | np.ndarray, world: PointCloud | np.ndarray) -> Pose:
    """Least-squares rigid transform mapping local points onto world points.

    SVD solve with reflection correction. Raises DegenerateSampleError for
    fewer than 3 points or a collinear arrangement."""
    lp = local.points if isinstance(local, PointCloud) else np.asarray(local, dtype=float)
    wp = world.points if isinstance(world, PointCloud) else np.asarray(world, dtype=float)
    if lp.shape != wp.shape:
        raise ValueError("local and world point sets must have equal shapes")
    return Pose(*_kabsch_arrays(lp, wp))


def _residuals(local_t: np.ndarray, world_t: np.ndarray, rots: np.ndarray, transs: np.ndarray) -> np.ndarray:
    """(b, n) array whose row k is bitwise
    norm(local @ rots[k].T + transs[k] - world, axis=1), from the contiguous
    (3, n) transposes local_t and world_t: one (3b, 3) @ (3, n) product,
    then the same elementwise steps, in place on one (3, b, n) buffer that is
    freed on return. Laid out coordinate-major, every step runs along
    contiguous rows of n points rather than broadcasting over an inner axis
    of 3. Two plane adds sum (x + y) + z, the order of numpy's much slower
    add.reduce over a length-3 axis."""
    b = rots.shape[0]
    diff = (rots.transpose(1, 0, 2).reshape(3 * b, 3) @ local_t).reshape(3, b, -1)
    diff += transs.T[:, :, None]
    diff -= world_t[:, None, :]
    sq = np.square(diff, out=diff)
    resid = sq[0] + sq[1]
    resid += sq[2]
    return np.sqrt(resid, out=resid)


def ransac_pose(pred: SceneCoordPrediction, cfg: RansacConfig, seed: int = 0) -> PoseEstimate | None:
    """RANSAC rigid solve over predicted correspondences.

    Each iteration draws its minimal sample from an iteration-indexed
    substream of seed, so results are bitwise reproducible and independent
    of evaluation order. The best hypothesis is the one with the most inliers,
    ties broken by lower mean inlier residual, then earlier iteration. Stops
    early once the standard (1 - (1 - w^s)^k) bound reaches confidence_stop;
    an iteration whose sample is degenerate is skipped before that check.
    Returns None when the best consensus set is smaller than min_inliers.

    Hypotheses are drawn, solved and scored in blocks: one stacked Kabsch
    solve and one (3b, 3) @ (3, n) residual product per block, each bitwise
    the per-hypothesis computation, with one row of residuals per hypothesis.
    The rule above is then replayed over those rows in iteration order, so
    the chosen hypothesis and the stopping iteration are those of a
    one-at-a-time loop; only hypotheses past the stop are computed in vain:
    a block runs to the current stopping bound and holds at most _BLOCK_CAP
    hypotheses."""
    local = pred.local_points.points
    world = pred.predicted_world.points
    n = local.shape[0]
    if n < cfg.sample_size:
        raise ValueError("fewer points than sample_size")
    local_t = np.ascontiguousarray(local.T)
    world_t = np.ascontiguousarray(world.T)

    best_count = -1
    best_mean = math.inf
    best_mask: np.ndarray | None = None
    best_rt: tuple[np.ndarray, np.ndarray] | None = None
    needed = float(cfg.max_iterations)

    start = 0
    done = False
    while not done and start < cfg.max_iterations:
        # no block runs past the current stopping bound
        end = min(cfg.max_iterations, start + _BLOCK_CAP, max(start + 1, math.ceil(needed)))
        its = range(start, end)
        idx = np.stack([
            np.random.default_rng((seed, it)).choice(n, size=cfg.sample_size, replace=False)
            for it in its
        ])
        rots, transs, ok = _kabsch_stack(local[idx], world[idx])
        resid = _residuals(local_t, world_t, rots, transs)
        masks = resid < cfg.inlier_threshold
        counts = np.count_nonzero(masks, axis=1).tolist()
        for k, (it, solved, count) in enumerate(zip(its, ok.tolist(), counts)):
            if not solved:
                continue
            if count >= best_count:
                mean_resid = float(resid[k][masks[k]].mean()) if count else math.inf
                if count > best_count or mean_resid < best_mean:
                    best_count = count
                    best_mean = mean_resid
                    best_mask = masks[k]
                    best_rt = (rots[k], transs[k])
                    w = best_count / n
                    if w >= 1.0:
                        needed = 0.0
                    else:
                        # a hit probability of 2**-54 or less rounds 1.0 - hit
                        # to 1.0, whose log is 0.0: the bound stays as it is
                        miss_log = math.log(1.0 - w ** cfg.sample_size)
                        if miss_log < 0.0 and cfg.confidence_stop < 1.0:
                            needed = math.log(1.0 - cfg.confidence_stop) / miss_log
            if it + 1 >= needed:
                done = True
                break
        start = end

    if best_rt is None or best_mask is None or best_count < cfg.min_inliers:
        return None

    inlier_idx = np.flatnonzero(best_mask)
    try:
        refit = _kabsch_arrays(local[inlier_idx], world[inlier_idx])
    except DegenerateSampleError:
        refit = best_rt
    agg = float(pred.predicted_error[inlier_idx].mean())
    return PoseEstimate(
        pose=Pose(*refit),
        confidence=confidence_from_error(agg),
        aggregated_error=agg,
        inlier_indices=inlier_idx,
        inlier_ratio=best_count / n,
    )
