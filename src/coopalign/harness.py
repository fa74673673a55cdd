"""Experiment harness: synthetic scenario generation, the end-to-end fusion
pipeline, the alignment benchmark, the pose-noise sweep, and report emission.

All randomness flows through numpy Generators seeded with integer tuples, so
every artifact except the timing sidecar is reproducible byte for byte.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import BoxObservation, GraphMatchConfig, graph_match_align, icp_align
from .config import ConfigError, ExperimentConfig, SWEEP_METHODS, level_key, threshold_key
from .detection import (
    Detection,
    EvalConfig,
    RotatedBox3D,
    ScoredSet,
    decode_head,
    pooled_ap_per_threshold,
    score_detection_set,
)

# The sweep scores through score_detection_set and pooled_ap_per_threshold.
# These two stay bound here because the benchmark's tracer (bench/tracer.py)
# looks them up in this module by name.
from .detection import average_precision, pooled_average_precision  # noqa: F401
from .fusion import (
    BEV_CHANNELS,
    MAX_HEIGHT_CHANNEL,
    BevGrid,
    GridSpec,
    NoSignalError,
    OffsetSearch,
    OffsetTemplate,
    apply_offset,
    box_sum_3x3,
    coarse_align,
    confidence_embed,
    estimate_offset,
    offset_template,
    rasterize_bev,
    serialized_grid_bytes,
    warp_grid,
)
from .geometry import (
    PointCloud,
    Pose,
    Pose2D,
    compose,
    inverse,
    normalize_angle,
    perturb_pose,
    pose_error,
    relative,
    save_points_binary,
)
from .localization import (
    PoseEstimate,
    confidence_from_error,
    oracle_predict,
    ransac_pose,
    voxel_downsample,
)
from .temporal import EncoderParams, encode, temporal_encoding

logger = logging.getLogger("coopalign.harness")

_MAX_TRIES = 400
_MIN_OBJECT_SEPARATION = 6.0
_VIS_INNER_MARGIN = 5.0
_VIS_OUTER_MARGIN = 2.0
_SHARED_LINE_CLEARANCE = 1.5
_SUCCESS_TRANSLATION_M = 3.0

# integer tags mixed into rng seed tuples; one stream per purpose. The pose
# step takes (oracle, ransac, gnss) tags: the pipeline's or the benchmark's.
_PIPELINE_POSE_TAGS = (11, 13, 12)
_BENCH_POSE_TAGS = (21, 23, 22)
_TAG_ENCODER = 31

_ZERO_OFFSET = Pose2D(0.0, 0.0, 0.0)

# the pose each agent sends in a pipeline run; see run_pipeline
POSE_SOURCES = ("pgc", "gt-noise", "gt", "none")


class ScenarioGenerationError(ConfigError):
    """Placement constraints could not be satisfied after bounded retries:
    the scenario parameters ask for a scene too crowded to draw."""


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True, eq=False)
class AgentObservation:
    agent_id: int
    gt_pose: Pose
    cloud: PointCloud
    visible: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Scenario:
    seed: int
    agents: tuple[AgentObservation, ...]
    world_objects: tuple[RotatedBox3D, ...]


def _sample_box_surface(box: RotatedBox3D, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples on five faces of the box (underside excluded)."""
    areas = np.array(
        [
            box.w * box.h,
            box.w * box.h,
            box.l * box.h,
            box.l * box.h,
            box.l * box.w,
        ]
    )
    faces = rng.choice(5, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    # faces 0-1 at x = +-l/2, 2-3 at y = +-w/2, 4 the top at z = h/2
    x = np.where(faces == 0, box.l / 2, np.where(faces == 1, -box.l / 2, u * box.l))
    y = np.where(faces < 2, u * box.w, np.where(faces == 2, box.w / 2, np.where(faces == 3, -box.w / 2, v * box.w)))
    z = np.where(faces == 4, box.h / 2, v * box.h)
    c, s = math.cos(box.theta), math.sin(box.theta)
    return np.column_stack([c * x - s * y + box.x, s * x + c * y + box.y, z + box.z])


def _place(rng: np.random.Generator, half: float, accept) -> np.ndarray:
    for _ in range(_MAX_TRIES):
        xy = rng.uniform(-half, half, size=2)
        if accept(xy):
            return xy
    raise ScenarioGenerationError("object placement failed after retries")


def _occluded(apos: np.ndarray, target: np.ndarray, others: list[np.ndarray], radius: float) -> bool:
    """True when another object center blocks the 2D sight line within
    radius. Only blockers strictly between agent and target count, so others
    may hold the target itself: its t along the sight line is exactly 1."""
    d = target - apos
    seg_sq = float(d @ d)
    if seg_sq == 0.0 or radius <= 0.0:
        return False
    for q in others:
        t = float((q - apos) @ d) / seg_sq
        if not 0.0 < t < 1.0:
            continue
        closest = apos + t * d
        if float(np.linalg.norm(q - closest)) < radius:
            return True
    return False


def generate_scenario(params, seed: int) -> Scenario:
    """Build one synthetic scene: planar agent poses, box objects, and a
    point cloud per agent expressed in that agent's frame.

    Visibility requires the object center within sensing_range and, when
    occluder_radius is positive, an unblocked 2D sight line past the other
    object centers. When params.co_visible is set the first co_visible
    objects are placed well inside the range of both of the first two agents
    and the remainder strictly outside the other agent's range, which pins
    the number of objects the pair observes in common; occlusion is skipped
    in that mode so the constructed counts hold exactly.
    """
    rng = np.random.default_rng(seed)
    half = params.world_size / 2.0

    ego_xy = rng.uniform(-half / 3.0, half / 3.0, size=2)
    poses = [Pose.from_planar(float(ego_xy[0]), float(ego_xy[1]), float(rng.uniform(-math.pi, math.pi)))]
    for _ in range(1, params.num_agents):
        placed = None
        for _ in range(_MAX_TRIES):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(params.min_agent_distance, params.max_agent_distance)
            xy = ego_xy + dist * np.array([math.cos(ang), math.sin(ang)])
            if np.abs(xy).max() <= half:
                placed = xy
                break
        if placed is None:
            raise ScenarioGenerationError("agent placement failed after retries")
        poses.append(Pose.from_planar(float(placed[0]), float(placed[1]), float(rng.uniform(-math.pi, math.pi))))

    centers: list[np.ndarray] = []

    def separated(xy: np.ndarray) -> bool:
        return all(np.linalg.norm(xy - c) >= _MIN_OBJECT_SEPARATION for c in centers)

    if params.co_visible is None:
        for _ in range(params.num_objects):
            centers.append(_place(rng, half, separated))
    else:
        a = poses[0].translation[:2]
        b = poses[1].translation[:2]
        r_in = params.sensing_range - _VIS_INNER_MARGIN
        r_out = params.sensing_range + _VIS_OUTER_MARGIN
        if r_in <= 0.0:
            raise ScenarioGenerationError("sensing_range too small for co-visible placement")

        for j in range(params.co_visible):

            def accept_shared(xy: np.ndarray, j=j) -> bool:
                if np.linalg.norm(xy - a) > r_in or np.linalg.norm(xy - b) > r_in:
                    return False
                if not separated(xy):
                    return False
                if j >= 2:
                    # keep the shared set non-collinear so a 3-point rigid
                    # solve on it stays well conditioned
                    p0, p1 = centers[0], centers[1]
                    d = p1 - p0
                    n = np.linalg.norm(d)
                    if n > 1e-9:
                        perp = abs(d[0] * (xy[1] - p0[1]) - d[1] * (xy[0] - p0[0])) / n
                        if perp < _SHARED_LINE_CLEARANCE:
                            return False
                return True

            centers.append(_place(rng, half, accept_shared))

        for j in range(params.num_objects - params.co_visible):
            own, other = (a, b) if j % 2 == 0 else (b, a)

            def accept_exclusive(xy: np.ndarray, own=own, other=other) -> bool:
                return (
                    np.linalg.norm(xy - own) <= r_in
                    and np.linalg.norm(xy - other) >= r_out
                    and separated(xy)
                )

            centers.append(_place(rng, half, accept_exclusive))

    boxes = []
    for xy in centers:
        length = float(rng.uniform(3.8, 5.0))
        width = float(rng.uniform(1.7, 2.1))
        height = float(rng.uniform(1.4, 1.8))
        yaw = float(rng.uniform(-math.pi, math.pi))
        boxes.append(RotatedBox3D(float(xy[0]), float(xy[1]), height / 2.0, height, width, length, yaw))

    agents = []
    for k, pose in enumerate(poses):
        axy = pose.translation[:2]
        vis: list[int] = []
        for i, box in enumerate(boxes):
            if math.hypot(box.x - axy[0], box.y - axy[1]) > params.sensing_range:
                continue
            if params.co_visible is None and _occluded(axy, centers[i], centers, params.occluder_radius):
                continue
            vis.append(i)
        visible = tuple(vis)
        chunks = [_sample_box_surface(boxes[i], params.points_per_box, rng) for i in visible]
        if params.ground_points > 0:
            radii = params.sensing_range * np.sqrt(rng.uniform(0.0, 1.0, size=params.ground_points))
            angles = rng.uniform(0.0, 2.0 * math.pi, size=params.ground_points)
            ground = np.column_stack(
                [axy[0] + radii * np.cos(angles), axy[1] + radii * np.sin(angles), np.zeros(params.ground_points)]
            )
            chunks.append(ground)
        world_pts = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 3))
        if len(world_pts):
            apos = pose.translation
            keep = np.linalg.norm(world_pts - apos[None, :], axis=1) <= params.sensing_range
            world_pts = world_pts[keep]
        inv = inverse(pose)
        local = world_pts @ inv.rotation.T + inv.translation
        agents.append(AgentObservation(agent_id=k, gt_pose=pose, cloud=PointCloud(local), visible=visible))

    return Scenario(seed=seed, agents=tuple(agents), world_objects=tuple(boxes))


def _boxes_in_frame(boxes, pose: Pose) -> list[RotatedBox3D]:
    """Express world-frame boxes in the local frame of a planar pose; the
    pose is inverted once for all of them."""
    inv = inverse(pose)
    yaw = pose.yaw
    out = []
    for box in boxes:
        center = inv.rotation @ np.array([box.x, box.y, box.z]) + inv.translation
        theta = normalize_angle(box.theta - yaw)
        out.append(RotatedBox3D(float(center[0]), float(center[1]), float(center[2]), box.h, box.w, box.l, theta))
    return out


def box_in_frame(box: RotatedBox3D, pose: Pose) -> RotatedBox3D:
    """Express a world-frame box in the local frame of a planar pose."""
    return _boxes_in_frame((box,), pose)[0]


def agent_box_observation(scenario: Scenario, agent_idx: int) -> BoxObservation:
    agent = scenario.agents[agent_idx]
    return BoxObservation(tuple(_boxes_in_frame([scenario.world_objects[i] for i in agent.visible], agent.gt_pose)))


_ROI_MARGIN_CELLS = 2.0


def _roi_bounds(spec: GridSpec) -> tuple[float, float, float, float]:
    m = _ROI_MARGIN_CELLS * spec.resolution
    x_lo = spec.origin[0] - spec.resolution / 2.0 + m
    x_hi = spec.origin[0] + (spec.width - 0.5) * spec.resolution - m
    y_lo = spec.origin[1] - spec.resolution / 2.0 + m
    y_hi = spec.origin[1] + (spec.height - 0.5) * spec.resolution - m
    return x_lo, x_hi, y_lo, y_hi


def _in_roi(x: float, y: float, spec: GridSpec) -> bool:
    x_lo, x_hi, y_lo, y_hi = _roi_bounds(spec)
    return x_lo <= x <= x_hi and y_lo <= y <= y_hi


def ego_frame_targets(scenario: Scenario, spec: GridSpec) -> list[RotatedBox3D]:
    """World objects whose centers fall inside the evaluation region of the
    ego grid (the grid minus a small border margin), in ego frame. Objects
    straddling the border shed points into edge cells without being fairly
    detectable, so both targets and detections are cropped to the same
    region."""
    local = _boxes_in_frame(scenario.world_objects, scenario.agents[0].gt_pose)
    return [box for box in local if _in_roi(box.x, box.y, spec)]


# ---------------------------------------------------------------------------
# shared estimation helpers


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def scenario_at(cfg: ExperimentConfig, index: int) -> Scenario:
    """Scenario number index of the run that cfg describes."""
    return generate_scenario(cfg.scenario, _derived_seed(cfg.seed, 1, index))


def _agent_estimate(
    scenario: Scenario, k: int, sampled: PointCloud | None, cfg: ExperimentConfig, source: str,
    noise: tuple[float, float], tags: tuple[int, int, int], frame: int = 0,
) -> PoseEstimate | None:
    """The pose record agent k sends at frame. "pgc" runs the oracle and
    RANSAC on sampled, the agent's cloud voxel-downsampled by the caller, and
    is None when the solve fails or sampled holds fewer points than one
    RANSAC sample; "gt-noise" perturbs the true pose by noise (sigma_t,
    sigma_r) and rates it by its translation error; "gt" and "none" send the
    true pose at confidence 1. Only "pgc" reads sampled."""
    agent = scenario.agents[k]
    tag_oracle, tag_ransac, tag_gnss = tags
    if source == "pgc":
        if len(sampled) < cfg.ransac.sample_size:
            return None
        rng = np.random.default_rng((scenario.seed, tag_oracle, frame, k))
        pred = oracle_predict(sampled, agent.gt_pose, cfg.oracle, rng)
        return ransac_pose(pred, cfg.ransac, _derived_seed(scenario.seed, tag_ransac, frame, k))
    if source == "gt-noise":
        rng = np.random.default_rng((scenario.seed, tag_gnss, frame, k))
        noisy = perturb_pose(agent.gt_pose, *noise, rng)
        t_err, _ = pose_error(noisy, agent.gt_pose)
        return PoseEstimate(noisy, confidence_from_error(t_err), 0.0, (), 1.0)
    return PoseEstimate(agent.gt_pose, 1.0, 0.0, (), 1.0)


def _build_encoder(cfg: ExperimentConfig) -> EncoderParams:
    if cfg.encoder.mode == "random":
        rng = np.random.default_rng((cfg.seed, _TAG_ENCODER))
        return EncoderParams.seeded(
            in_channels=BEV_CHANNELS, dim=cfg.encoder.dim, heads=cfg.encoder.heads,
            num_layers=cfg.encoder.layers, hidden=cfg.encoder.hidden, rng=rng,
        )
    return EncoderParams.passthrough(in_channels=BEV_CHANNELS, dim=cfg.encoder.dim, heads=cfg.encoder.heads)


def _search_grid(grid: BevGrid, channel: int) -> BevGrid:
    """Single-channel blurred copy used for residual offset search. Both
    sides get the same blur, so the crisp local raster and the already
    interpolation-smoothed warped neighbor present matched sharpness to the
    correlator. The blur is the 3x3 box mean with zero padding."""
    return BevGrid(grid.spec, (box_sum_3x3(grid.data[channel]) / 9.0)[None, :, :])


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True, eq=False)
class ScenarioSetup:
    """What every pipeline run on one scenario shares: one raster per agent,
    indexed by agent id, the offset search the ego's template is built for,
    the ego-frame targets the runs are scored against, and two things built
    on first use: the template and, for the "pgc" pose source, each agent's
    downsampled cloud."""

    scenario: Scenario
    rasters: tuple[BevGrid, ...]
    search: OffsetSearch
    targets: tuple[RotatedBox3D, ...]
    voxel: float

    @functools.cached_property
    def sampled(self) -> tuple[PointCloud, ...]:
        """Each agent's voxel-downsampled cloud, indexed by agent id."""
        return tuple(voxel_downsample(agent.cloud, self.voxel) for agent in self.scenario.agents)

    @functools.cached_property
    def template(self) -> OffsetTemplate | None:
        """The ego's residual offset search template, or None for a lone
        agent, which has no neighbor to search against. It correlates
        blurred max height: ground sits at z = 0 in that channel, so the
        disk-shaped sensing footprints cannot dominate. A setup that only
        runs the single-agent "none" source never builds it."""
        if len(self.rasters) < 2:
            return None
        return offset_template(_search_grid(self.rasters[0], MAX_HEIGHT_CHANNEL), self.search)


def setup_scenario(scenario: Scenario, cfg: ExperimentConfig) -> ScenarioSetup:
    """Rasterize every agent's cloud once and find the ego-frame targets.
    The clouds are static and no pose source, noise level or frame changes
    them, so these serve every run_pipeline call on the scenario."""
    spec = cfg.grid_spec()
    rasters = tuple(rasterize_bev(agent.cloud, spec) for agent in scenario.agents)
    return ScenarioSetup(scenario, rasters, cfg.search, tuple(ego_frame_targets(scenario, spec)), cfg.downsample_voxel)


@dataclass(frozen=True)
class CommRecord:
    sender: int
    receiver: int
    kind: str
    size_bytes: int


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """messages lists every "pose" and "features" transmission to the ego, in
    send order. pose_estimates maps each (frame, agent) pair to the PoseEstimate the
    agent sent, or None when its "pgc" estimate failed; such an agent is left
    out of that frame. no_signal lists the pairs whose residual offset search
    found no signal and kept the coarse alignment."""

    detections: tuple[Detection, ...]
    fused: BevGrid
    messages: tuple[CommRecord, ...]
    pose_estimates: dict[tuple[int, int], PoseEstimate | None]
    no_signal: tuple[tuple[int, int], ...]

    @property
    def dropped(self) -> tuple[tuple[int, int], ...]:
        """The (frame, agent) pairs whose estimate failed, in run order."""
        return tuple(key for key, est in self.pose_estimates.items() if est is None)


def log_pipeline_fallbacks(scenario_id: int, dropped, no_signal) -> None:
    """Log the (frame, agent) fallbacks of pipeline runs on scenario number
    scenario_id, the index the result files use: one warning per dropped
    agent, however many runs dropped it, and one info line, with its run
    count, per agent whose residual search found no signal."""
    for frame, k in sorted(set(dropped)):
        logger.warning("scenario %d frame %d agent %d: pose estimation failed, agent dropped", scenario_id, frame, k)
    for (frame, k), runs in sorted(Counter(no_signal).items()):
        logger.info(
            "scenario %d frame %d agent %d: no correlation signal in %d run(s), residual offset left at zero",
            scenario_id, frame, k, runs,
        )


def run_pipeline(
    setup: ScenarioSetup,
    cfg: ExperimentConfig,
    pose_source: str = "pgc",
    noise: tuple[float, float] = (0.0, 0.0),
) -> PipelineResult:
    """Run localization, alignment, fusion, encoding and decoding for the
    scenario of setup, from the perspective of agent 0.

    pose_source selects the PoseEstimate each agent sends: "pgc" runs the
    scene-coordinate oracle plus the robust solver, "gt-noise" perturbs the
    true poses by the given noise level, "gt" uses exact poses, and "none"
    disables fusion entirely (single-agent baseline). The "pgc", "gt" and
    "none" paths never consume the noise argument, so their outputs are
    unchanged across noise levels by construction. Ground truth is not an
    input: evaluation scores the detections against setup.targets. Dropped
    agents and searches without signal are recorded in the result, not
    logged: log_pipeline_fallbacks names them by scenario index.

    Every frame fuses the setup's rasters. Without an ego pose the ego raster
    is fused alone at weight 1. Otherwise each neighbor with a pose, in agent
    order, sends its messages, is warped by its sent pose, searched against
    the setup's one template and corrected by a nonzero offset, and is fused
    at its confidence.
    """
    if pose_source not in POSE_SOURCES:
        raise ValueError(f"unknown pose_source {pose_source!r}")
    spec = cfg.grid_spec()
    scenario = setup.scenario
    grids = setup.rasters
    ego = scenario.agents[0]
    messages: list[CommRecord] = []
    pose_estimates: dict[tuple[int, int], PoseEstimate | None] = {}
    no_signal: list[tuple[int, int]] = []
    agent_ids = [ego.agent_id] if pose_source == "none" else [a.agent_id for a in scenario.agents]

    frames = []
    for frame in range(cfg.frames):
        estimates: dict[int, PoseEstimate] = {}
        for k in agent_ids:
            sampled = setup.sampled[k] if pose_source == "pgc" else None
            est = _agent_estimate(scenario, k, sampled, cfg, pose_source, noise, _PIPELINE_POSE_TAGS, frame)
            pose_estimates[(frame, k)] = est
            if est is not None:
                estimates[k] = est

        fused_inputs = [grids[ego.agent_id]]
        ego_est = estimates.pop(ego.agent_id, None)
        if ego_est is None:
            # no usable ego pose: fall back to the raw single-agent view
            weights = [1.0]
        else:
            weights = [ego_est.confidence]
            for k, est in estimates.items():
                messages.append(CommRecord(k, ego.agent_id, "pose", est.message_bytes()))
                messages.append(CommRecord(k, ego.agent_id, "features", serialized_grid_bytes(grids[k])))
                grid = coarse_align(ego_est.pose, grids[k], est.pose)
                try:
                    offset = estimate_offset(setup.template, _search_grid(grid, MAX_HEIGHT_CHANNEL), cfg.search)
                except NoSignalError:
                    no_signal.append((frame, k))
                else:
                    # a zero offset keeps the coarse grid: coarse_align output holds
                    # no -0.0, so the identity warp would reproduce it bitwise
                    if offset != _ZERO_OFFSET:
                        grid = apply_offset(grid, offset)
                fused_inputs.append(grid)
                weights.append(est.confidence)

        embedded = confidence_embed(fused_inputs, weights)
        total = sum(weights)
        stack = np.zeros_like(embedded[0].data)
        for w, grid in zip(weights, embedded):
            stack = stack + (w / total) * grid.data
        frames.append(BevGrid(spec, stack))

    params = _build_encoder(cfg)
    fused = encode(params, frames)
    # the temporal encoding adds a constant to every channel at the readout
    # frame, so the head's floor is raised by the one the max-height channel sees
    e_t = float(temporal_encoding(float(cfg.frames), cfg.encoder.dim)[MAX_HEIGHT_CHANNEL])
    dets = decode_head(fused, cfg.head, cfg.eval, e_t)
    dets = [d for d in dets if _in_roi(d.box.x, d.box.y, spec)]
    return PipelineResult(
        detections=tuple(dets), fused=fused, messages=tuple(messages), pose_estimates=pose_estimates,
        no_signal=tuple(no_signal),
    )


# ---------------------------------------------------------------------------
# alignment benchmark


@dataclass(frozen=True)
class AlignmentRow:
    scenario_id: int
    method: str
    ego_id: int
    neighbor_id: int
    translation_error: float
    rotation_error: float
    success: bool
    message_bytes: int
    time_s: float


@dataclass
class AlignmentReport:
    rows: list[AlignmentRow]

    def aggregates(self) -> dict:
        """Deterministic per-method summary. Wall time is deliberately
        absent; it lives in the timings sidecar only."""
        out: dict = {}
        for method in sorted({r.method for r in self.rows}):
            rows = [r for r in self.rows if r.method == method]
            n = len(rows)
            succ = sum(1 for r in rows if r.success)
            mean_bytes = sum(r.message_bytes for r in rows) / n
            finite = [r.translation_error for r in rows if math.isfinite(r.translation_error)]
            out[method] = {
                "rows": n,
                "delta_s_percent": 100.0 * succ / n,
                "log2_mean_bytes": math.log2(mean_bytes) if mean_bytes > 0 else 0.0,
                "median_translation_error": float(np.median(finite)) if finite else float("inf"),
            }
        return out

    def mean_time_s(self, method: str) -> float:
        rows = [r for r in self.rows if r.method == method]
        return sum(r.time_s for r in rows) / len(rows) if rows else 0.0


def _timed(fn):
    """fn's result and the wall time of that one call."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _benchmark_scenario(cfg: ExperimentConfig, scenario_id: int) -> list[AlignmentRow]:
    scenario = scenario_at(cfg, scenario_id)
    ego = scenario.agents[0]
    rows: list[AlignmentRow] = []
    obs_cache = {a.agent_id: agent_box_observation(scenario, a.agent_id) for a in scenario.agents}

    for nbr in scenario.agents[1:]:
        gt_rel = relative(ego.gt_pose, nbr.gt_pose)
        for method in cfg.methods:
            if method in ("pgc", "gt-noise"):
                # both agents send a pose record (the neighbor's is the message); "pgc" times the downsample too
                def estimate(a):
                    sampled = voxel_downsample(a.cloud, cfg.downsample_voxel) if method == "pgc" else None
                    return _agent_estimate(
                        scenario, a.agent_id, sampled, cfg, method, cfg.alignment_noise, _BENCH_POSE_TAGS)
                (est_e, est_n), t = _timed(lambda: (estimate(ego), estimate(nbr)))
                failed = est_e is None or est_n is None
                est_rel = None if failed else relative(est_e.pose, est_n.pose)
                nbytes = 0 if failed else est_n.message_bytes()
            else:
                # box baselines: the neighbor sends its boxes
                obs_e, obs_n = obs_cache[ego.agent_id], obs_cache[nbr.agent_id]
                if method == "icp":
                    src_pts, dst_pts = obs_n.centers(), obs_e.centers()

                    def run():
                        if len(src_pts) == 0 or len(dst_pts) == 0:
                            return None
                        return icp_align(PointCloud(src_pts), PointCloud(dst_pts), cfg.icp)
                else:
                    def run():
                        return graph_match_align(obs_e, obs_n, cfg.graph)

                result, t = _timed(run)
                est_rel = None if result is None else result.pose
                nbytes = obs_n.message_bytes()
            t_err, r_err = (math.inf, math.inf) if est_rel is None else pose_error(est_rel, gt_rel)
            rows.append(AlignmentRow(scenario_id, method, ego.agent_id, nbr.agent_id,
                                     t_err, r_err, t_err < _SUCCESS_TRANSLATION_M, nbytes, t))
    return rows


def _map_scenarios(worker, cfg: ExperimentConfig, parallel: int) -> list:
    """[worker(cfg, i) for each scenario index i], in index order, computed
    by up to parallel worker processes, never more than there are scenarios:
    a forking pool starts all of its workers at the first submit."""
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    workers = min(parallel, cfg.num_scenarios)
    logger.info("%d worker(s)", workers)
    if workers == 1:
        return [worker(cfg, i) for i in range(cfg.num_scenarios)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(functools.partial(worker, cfg), range(cfg.num_scenarios)))


def run_alignment_benchmark(cfg: ExperimentConfig, parallel: int = 1) -> AlignmentReport:
    """Relative pose estimation across methods over generated scenarios."""
    logger.info("alignment benchmark: %d scenarios", cfg.num_scenarios)
    per_scenario = _map_scenarios(_benchmark_scenario, cfg, parallel)
    return AlignmentReport(rows=[row for rows in per_scenario for row in rows])


# ---------------------------------------------------------------------------
# pose-noise sweep


@dataclass(frozen=True)
class SweepRow:
    scenario_id: int
    method: str
    sigma_t: float
    sigma_r: float
    iou_threshold: float
    ap: float


@dataclass
class SweepReport:
    rows: list[SweepRow]
    pooled: dict  # method -> "st/sr" -> "thr" -> ap

    def pooled_ap(self, method: str, level: tuple[float, float], threshold: float) -> float:
        return self.pooled[method][level_key(level)][threshold_key(threshold)]


def _sweep_scenario(cfg: ExperimentConfig, scenario_id: int) -> dict[tuple[str, int], ScoredSet]:
    """Each (method, level index) pipeline run on the scenario, scored
    against the scenario's ego-frame targets at every IoU threshold.

    One setup_scenario serves every method, level, frame and neighbor. Each
    run still does its own pose solve, warps, neighbor scoring, encoding and
    decoding."""
    setup = setup_scenario(scenario_at(cfg, scenario_id), cfg)
    scored = {}
    dropped: list[tuple[int, int]] = []
    no_signal: list[tuple[int, int]] = []
    for level_idx, level in enumerate(cfg.noise_levels):
        for method in SWEEP_METHODS:
            result = run_pipeline(setup, cfg, pose_source=method, noise=level)
            scored[(method, level_idx)] = score_detection_set(result.detections, setup.targets, cfg.eval.iou_thresholds)
            dropped += result.dropped
            no_signal += result.no_signal
            del result  # free this run's grids before the next run allocates its own
    log_pipeline_fallbacks(scenario_id, dropped, no_signal)
    return scored


def run_noise_sweep(cfg: ExperimentConfig, parallel: int = 1) -> SweepReport:
    """Detection quality as a function of injected pose noise.

    The noisy-pose pipeline is rerun per level; the robust-localization and
    no-fusion pipelines are also rerun per level even though their outputs
    cannot depend on the level, which makes their flatness an observed
    property of the run rather than an assumption baked into the report.

    Each scenario worker matches every detection set once, from one pass of
    detection x target IoUs, at all thresholds (score_detection_set), and
    returns only the ranked scores and true-positive flags. The per-scenario
    rows and the pooled AP are both built here from those flags, one ranking
    per scored set list for all thresholds (pooled_ap_per_threshold), so they
    equal average_precision and pooled_average_precision of the detections.
    """
    logger.info("noise sweep: %d scenarios x %d levels", cfg.num_scenarios, len(cfg.noise_levels))
    scored = _map_scenarios(_sweep_scenario, cfg, parallel)
    thresholds = cfg.eval.iou_thresholds

    rows: list[SweepRow] = []
    pooled: dict = {}
    for method in SWEEP_METHODS:
        pooled[method] = {}
        for level_idx, (st, sr) in enumerate(cfg.noise_levels):
            sets = [by_run[(method, level_idx)] for by_run in scored]
            for i, one in enumerate(sets):
                for thr, ap in zip(thresholds, pooled_ap_per_threshold([one], len(thresholds))):
                    rows.append(SweepRow(i, method, st, sr, thr, ap))
            aps = pooled_ap_per_threshold(sets, len(thresholds))
            pooled[method][level_key((st, sr))] = {threshold_key(thr): ap for thr, ap in zip(thresholds, aps)}
    return SweepReport(rows=rows, pooled=pooled)


# ---------------------------------------------------------------------------
# report emission

_FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_alignment_report(report: AlignmentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write alignment_results.csv, alignment_summary.json and the timing
    sidecar. Wall times live only in alignment_timings.csv; the other two
    files are byte-identical across reruns with the same config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = out / "alignment_results.csv"
    _write_csv(
        results,
        ["scenario_id", "method", "ego_id", "neighbor_id", "translation_error_m",
         "rotation_error_deg", "success", "message_bytes"],
        [[r.scenario_id, r.method, r.ego_id, r.neighbor_id, r.translation_error,
          r.rotation_error, r.success, r.message_bytes] for r in report.rows],
    )
    timings = out / "alignment_timings.csv"
    _write_csv(
        timings,
        ["scenario_id", "method", "ego_id", "neighbor_id", "time_s"],
        [[r.scenario_id, r.method, r.ego_id, r.neighbor_id, r.time_s] for r in report.rows],
    )
    summary = out / "alignment_summary.json"
    summary.write_text(json.dumps({"methods": report.aggregates()}, indent=2, sort_keys=True) + "\n")
    return {"results": results, "summary": summary, "timings": timings}


def emit_sweep_report(report: SweepReport, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = out / "sweep_results.csv"
    _write_csv(
        results,
        ["scenario_id", "method", "sigma_t", "sigma_r", "iou_threshold", "ap"],
        [[r.scenario_id, r.method, r.sigma_t, r.sigma_r, r.iou_threshold, r.ap] for r in report.rows],
    )
    summary = out / "sweep_summary.json"
    summary.write_text(json.dumps({"pooled": report.pooled}, indent=2, sort_keys=True) + "\n")
    return {"results": results, "summary": summary}


def emit_scenario(scenario: Scenario, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "seed": scenario.seed,
        "world_objects": [b.as_list() for b in scenario.world_objects],
        "agents": [],
    }
    for agent in scenario.agents:
        fname = f"agent_{agent.agent_id:02d}.pcb"
        save_points_binary(agent.cloud, out / fname)
        manifest["agents"].append(
            {
                "id": agent.agent_id,
                "pose_rt": [float(v) for v in agent.gt_pose.flat_rt()],
                "visible": list(agent.visible),
                "cloud_file": fname,
            }
        )
    path = out / "scenario.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def generate_and_emit(cfg: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    return [emit_scenario(scenario_at(cfg, i), out / f"scenario_{i:03d}") for i in range(cfg.num_scenarios)]


# ---------------------------------------------------------------------------
# selftest


def selftest() -> list[tuple[str, bool]]:
    """Fast invariant checks over the core primitives. Returns (name, ok)
    pairs; the CLI treats any failure as a runtime error."""
    from . import detection as det
    from .fusion import GridSpec as GS
    from .localization import kabsch_solve
    from . import temporal
    from .temporal import EncoderParams as EP, LayerParams, encode as enc

    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(12345)

    # the geodesic angle behaves like sqrt of the trace rounding error near
    # zero, so rotation tolerances sit well above 1e-9
    ok = True
    for _ in range(25):
        a = Pose.from_planar(*rng.uniform(-5, 5, size=2), rng.uniform(-3, 3))
        b = Pose.from_planar(*rng.uniform(-5, 5, size=2), rng.uniform(-3, 3))
        rel = relative(a, b)
        back = compose(a, rel)
        t_err, r_err = pose_error(back, b)
        ok = ok and t_err < 1e-9 and r_err < 1e-5
        ident = compose(a, inverse(a))
        t_err, r_err = pose_error(ident, Pose.identity())
        ok = ok and t_err < 1e-9 and r_err < 1e-5
    checks.append(("pose_group_laws", ok))

    errs = np.array([0.0, 0.5, 1.0, 2.0])
    conf = np.array([confidence_from_error(e) for e in errs])
    ok = bool(np.all(np.diff(conf) < 0)) and abs(conf[0] - 1.0) < 1e-15 and abs(conf[2] - 0.5) < 1e-15
    checks.append(("confidence_mapping", ok))

    enc0 = temporal_encoding(0.0, 8)
    ok = bool(np.allclose(enc0[0::2], 0.0) and np.allclose(enc0[1::2], 1.0))
    checks.append(("temporal_encoding_t0", ok))

    spec = GS.centered(8, 8, 1.0)
    grid = rasterize_bev(PointCloud(rng.uniform(-3, 3, size=(60, 3))), spec)
    # a full layer whose output branches are zero leaves the tokens as they are
    params = EP.passthrough(dim=6, in_channels=grid.data.shape[0] + 1, heads=2)
    layer = LayerParams.seeded(6, 8, np.random.default_rng(1))
    layer.wo[:] = 0.0
    layer.mlp_w2[:] = 0.0
    params.layers.append(layer)
    embedded = confidence_embed([grid], [2.5])[0]
    out = enc(params, [embedded])
    e_t = temporal_encoding(1.0, 6)
    recon = out.data[: embedded.data.shape[0]] - e_t[: embedded.data.shape[0], None, None]
    ok = bool(np.allclose(recon, embedded.data, atol=1e-12))
    checks.append(("residual_identity", ok))

    # at dim 8 / 2 heads (sqrt(dh) = 2) the layer folds the 1/2 into its
    # queries; it must equal the layer that divides the scores, bit for bit
    layer_rng = np.random.default_rng(2)
    layer = LayerParams.seeded(8, 16, layer_rng)
    x = layer_rng.standard_normal((24, 8))
    u = temporal._layer_norm_forward(x)
    qh, kh, vh = (temporal._split_heads(u @ w.T, 2) for w in (layer.wq, layer.wk, layer.wv))
    attn = temporal.softmax(qh @ kh.transpose(0, 2, 1) / 2.0)
    z1 = (attn @ vh).transpose(1, 0, 2).reshape(24, 8) @ layer.wo.T + x
    want = np.tanh(temporal._layer_norm_forward(z1) @ layer.mlp_w1.T) @ layer.mlp_w2.T + z1
    got = temporal._layer(layer, x, 2, np.empty((24, 24)), 24)
    checks.append(("folded_attention_scale", got.tobytes() == want.tobytes()))

    grids = [grid, rasterize_bev(PointCloud(rng.uniform(-3, 3, size=(40, 3))), spec)]
    planes = confidence_embed(grids, [0.3, 0.9])
    total = planes[0].data[-1] + planes[1].data[-1]
    ok = bool(np.allclose(total, 1.0, atol=1e-12))
    checks.append(("confidence_weights", ok))

    warped = warp_grid(grid, Pose2D(0.0, 0.0, 0.0))
    ok = bool(np.array_equal(warped.data, grid.data))
    checks.append(("warp_identity", ok))

    b1 = RotatedBox3D(0, 0, 1, 2, 2, 2, 0.0)
    b2 = RotatedBox3D(1, 0, 1, 2, 2, 2, 0.0)
    b3 = RotatedBox3D(10, 0, 1, 2, 2, 2, 0.0)
    b4 = RotatedBox3D(2.5, 0, 1, 2, 2, 2, 0.0)  # disjoint, yet near enough to clip
    ok = (
        abs(det.rotated_iou_bev(b1, b1) - 1.0) < 1e-12
        and det.rotated_iou_bev(b1, b3) == 0.0
        and det.rotated_iou_bev(b1, b4) == 0.0
        and abs(det.rotated_iou_bev(b1, b2) - 1.0 / 3.0) < 1e-12
    )
    checks.append(("rotated_iou_cases", ok))

    pts = rng.uniform(-4, 4, size=(30, 3))
    true_pose = Pose.from_planar(1.5, -2.0, 0.7)
    world = pts @ true_pose.rotation.T + true_pose.translation
    solved = kabsch_solve(pts, world)
    t_err, r_err = pose_error(solved, true_pose)
    checks.append(("rigid_solve_recovery", t_err < 1e-9 and r_err < 1e-5))

    ok = abs(normalize_angle(math.pi) - math.pi) < 1e-15 and abs(normalize_angle(-math.pi) - math.pi) < 1e-15
    ok = ok and abs(normalize_angle(3 * math.pi) - math.pi) < 1e-12
    checks.append(("angle_normalization", ok))

    gt = [RotatedBox3D(0, 0, 1, 2, 2, 4, 0.0)]
    dets = [det.Detection(gt[0], 0.9)]
    ok = abs(det.average_precision(dets, gt, 0.5) - 1.0) < 1e-12
    ok = ok and det.average_precision([], gt, 0.5) == 0.0
    ok = ok and det.average_precision(dets, [], 0.5) == 0.0
    checks.append(("average_precision_edges", ok))

    return checks
