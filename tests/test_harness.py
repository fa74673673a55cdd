import dataclasses
import json
import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopalign import detection, fusion, harness
from coopalign.config import SWEEP_METHODS, EncoderConfig, ExperimentConfig, GridParams, ScenarioParams, level_key
from coopalign.detection import RotatedBox3D
from coopalign.fusion import NoSignalError, OffsetSearch, serialize_grid, rasterize_bev
from coopalign.geometry import PointCloud, Pose, Pose2D, load_point_cloud
from coopalign.harness import (
    AlignmentReport,
    AlignmentRow,
    _occluded,
    _sample_box_surface,
    agent_box_observation,
    box_in_frame,
    ego_frame_targets,
    emit_alignment_report,
    emit_scenario,
    emit_sweep_report,
    generate_and_emit,
    generate_scenario,
    log_pipeline_fallbacks,
    run_alignment_benchmark,
    run_noise_sweep,
    run_pipeline,
    selftest,
    setup_scenario,
)
from coopalign.localization import PoseEstimate
from coopalign.temporal import temporal_encoding


def _small_params(**kw):
    base = dict(num_agents=2, num_objects=6, points_per_box=60, ground_points=150)
    base.update(kw)
    return ScenarioParams(**base)


def _small_cfg(**kw):
    base = dict(seed=3, num_scenarios=2, scenario=_small_params())
    base.update(kw)
    return ExperimentConfig(**base)


def test_generate_scenario_is_deterministic():
    params = _small_params()
    a = generate_scenario(params, 42)
    b = generate_scenario(params, 42)
    c = generate_scenario(params, 43)
    for ag_a, ag_b in zip(a.agents, b.agents):
        np.testing.assert_array_equal(ag_a.cloud.points, ag_b.cloud.points)
        assert ag_a.visible == ag_b.visible
        np.testing.assert_array_equal(ag_a.gt_pose.translation, ag_b.gt_pose.translation)
    assert not np.array_equal(a.agents[0].cloud.points, c.agents[0].cloud.points)


def test_scenario_points_stay_within_sensing_range():
    params = _small_params()
    scenario = generate_scenario(params, 7)
    for agent in scenario.agents:
        if len(agent.cloud.points) == 0:
            continue
        dist = np.linalg.norm(agent.cloud.points, axis=1)
        assert dist.max() <= params.sensing_range + 1e-9


def test_visibility_respects_range_exactly_without_occlusion():
    params = _small_params(occluder_radius=0.0)
    scenario = generate_scenario(params, 11)
    for agent in scenario.agents:
        axy = agent.gt_pose.translation[:2]
        in_range = {
            i
            for i, b in enumerate(scenario.world_objects)
            if math.hypot(b.x - axy[0], b.y - axy[1]) <= params.sensing_range
        }
        assert set(agent.visible) == in_range


def test_occlusion_only_removes_objects():
    params_occ = _small_params(occluder_radius=1.2)
    params_open = _small_params(occluder_radius=0.0)
    occ = generate_scenario(params_occ, 13)
    open_ = generate_scenario(params_open, 13)
    # same placement stream, so the worlds agree and occlusion can only shrink
    assert [b.as_list() for b in occ.world_objects] == [b.as_list() for b in open_.world_objects]
    for a_occ, a_open in zip(occ.agents, open_.agents):
        assert set(a_occ.visible) <= set(a_open.visible)


def test_occluded_sight_line_cases():
    apos = np.array([0.0, 0.0])
    target = np.array([10.0, 0.0])
    assert _occluded(apos, target, [np.array([5.0, 0.0])], 1.2)
    assert not _occluded(apos, target, [np.array([5.0, 5.0])], 1.2)
    # an object beyond the target does not block it
    assert not _occluded(apos, target, [np.array([15.0, 0.0])], 1.2)
    assert not _occluded(apos, target, [np.array([5.0, 0.0])], 0.0)


_coord = st.floats(-50.0, 50.0, allow_nan=False)
_point = st.tuples(_coord, _coord).map(np.array)


@given(
    apos=_point, target=_point, others=st.lists(_point, max_size=6),
    radius=st.floats(0.0, 20.0), where=st.integers(0, 6),
)
def test_occluded_ignores_the_target_among_the_others(apos, target, others, radius, where):
    # generate_scenario passes every object center, the target's own
    # included: the target sits at exactly t = 1 on its sight line
    with_target = others[:where] + [target] + others[where:]
    assert _occluded(apos, target, with_target, radius) == _occluded(apos, target, others, radius)


def _loop_box_surface(box, count, rng):
    """_sample_box_surface with a branch per face filling that face's rows."""
    areas = np.array([box.w * box.h, box.w * box.h, box.l * box.h, box.l * box.h, box.l * box.w])
    faces = rng.choice(5, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    local = np.empty((count, 3))
    for fid in range(5):
        m = faces == fid
        if not np.any(m):
            continue
        if fid == 0:
            local[m] = np.column_stack([np.full(m.sum(), box.l / 2), u[m] * box.w, v[m] * box.h])
        elif fid == 1:
            local[m] = np.column_stack([np.full(m.sum(), -box.l / 2), u[m] * box.w, v[m] * box.h])
        elif fid == 2:
            local[m] = np.column_stack([u[m] * box.l, np.full(m.sum(), box.w / 2), v[m] * box.h])
        elif fid == 3:
            local[m] = np.column_stack([u[m] * box.l, np.full(m.sum(), -box.w / 2), v[m] * box.h])
        else:
            local[m] = np.column_stack([u[m] * box.l, v[m] * box.w, np.full(m.sum(), box.h / 2)])
    c, s = math.cos(box.theta), math.sin(box.theta)
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1] + box.x
    world[:, 1] = s * local[:, 0] + c * local[:, 1] + box.y
    world[:, 2] = local[:, 2] + box.z
    return world


def _select_box_surface(box, count, rng):
    """_sample_box_surface with np.select, not nested np.where, picking each
    face's coordinates."""
    areas = np.array([box.w * box.h, box.w * box.h, box.l * box.h, box.l * box.h, box.l * box.w])
    faces = rng.choice(5, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    x = np.select([faces == 0, faces == 1], [box.l / 2, -box.l / 2], u * box.l)
    y = np.select([faces < 2, faces == 2, faces == 3], [u * box.w, box.w / 2, -box.w / 2], v * box.w)
    z = np.where(faces == 4, box.h / 2, v * box.h)
    c, s = math.cos(box.theta), math.sin(box.theta)
    return np.column_stack([c * x - s * y + box.x, s * x + c * y + box.y, z + box.z])


_extents = st.floats(min_value=0.1, max_value=6.0)


@settings(max_examples=300, deadline=None)
@given(
    center=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.0, 2.0)),
    extents=st.tuples(_extents, _extents, _extents),
    theta=st.floats(-math.pi, math.pi),
    count=st.integers(1, 4) | st.integers(5, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_surface_matches_the_per_face_loop(center, extents, theta, count, seed):
    # counts of 1 to 4 leave some faces without a point
    box = RotatedBox3D(*center, *extents, theta)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    select_rng = np.random.default_rng(seed)
    got = _sample_box_surface(box, count, got_rng)
    want = _loop_box_surface(box, count, want_rng)
    assert got.shape == (count, 3) and got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert _select_box_surface(box, count, select_rng).tobytes() == got.tobytes()


def test_co_visible_counts_are_exact():
    for k in (0, 2, 5):
        params = _small_params(num_objects=8, co_visible=k)
        scenario = generate_scenario(params, 17 + k)
        vis0 = set(scenario.agents[0].visible)
        vis1 = set(scenario.agents[1].visible)
        assert len(vis0 & vis1) == k
        assert len(scenario.world_objects) == 8


def test_box_extent_ranges():
    scenario = generate_scenario(_small_params(), 19)
    for b in scenario.world_objects:
        assert 3.8 <= b.l <= 5.0
        assert 1.7 <= b.w <= 2.1
        assert 1.4 <= b.h <= 1.8
        assert abs(b.z - b.h / 2.0) < 1e-12


def test_box_in_frame_against_manual_transform():
    scenario = generate_scenario(_small_params(), 23)
    pose = scenario.agents[1].gt_pose
    box = scenario.world_objects[0]
    local = box_in_frame(box, pose)
    yaw = pose.yaw
    dx = box.x - pose.translation[0]
    dy = box.y - pose.translation[1]
    want_x = math.cos(yaw) * dx + math.sin(yaw) * dy
    want_y = -math.sin(yaw) * dx + math.cos(yaw) * dy
    assert abs(local.x - want_x) < 1e-9
    assert abs(local.y - want_y) < 1e-9
    assert abs(local.z - box.z) < 1e-9
    ident = box_in_frame(box, Pose.identity())
    assert ident.as_list() == box.as_list()


def test_agent_box_observation_matches_visible():
    scenario = generate_scenario(_small_params(), 29)
    for idx, agent in enumerate(scenario.agents):
        obs = agent_box_observation(scenario, idx)
        assert len(obs.boxes) == len(agent.visible)
        for box in obs.boxes:
            assert math.hypot(box.x, box.y) <= _small_params().sensing_range + 1e-9


def test_ego_frame_targets_lie_inside_roi():
    cfg = _small_cfg()
    spec = cfg.grid_spec()
    scenario = generate_scenario(cfg.scenario, 31)
    targets = ego_frame_targets(scenario, spec)
    margin = 2.0 * spec.resolution
    half_w = spec.width * spec.resolution / 2.0
    for t in targets:
        assert abs(t.x) <= half_w - margin + spec.resolution
        assert abs(t.y) <= half_w - margin + spec.resolution


def test_message_size_ordering():
    cfg = _small_cfg(scenario=_small_params(num_objects=8, co_visible=6))
    scenario = generate_scenario(cfg.scenario, 37)
    spec = cfg.grid_spec()
    for idx, agent in enumerate(scenario.agents):
        pose_bytes = PoseEstimate(agent.gt_pose, 1.0, 0.0, (), 1.0).message_bytes()
        obs = agent_box_observation(scenario, idx)
        assert len(obs.boxes) >= 5
        box_bytes = obs.message_bytes()
        feat_bytes = len(serialize_grid(rasterize_bev(agent.cloud, spec)))
        assert pose_bytes < box_bytes < feat_bytes


def test_pipeline_decodes_above_the_readout_frame_offset(monkeypatch):
    # the temporal encoding adds a constant to the max-height channel at the
    # readout frame; the head's floor must be raised by exactly that constant
    cfg = _small_cfg(frames=2)
    calls = []

    def recording_decode(fused, head, eval_cfg, height_offset):
        calls.append((head, eval_cfg, height_offset))
        return detection.decode_head(fused, head, eval_cfg, height_offset)

    monkeypatch.setattr(harness, "decode_head", recording_decode)
    run_pipeline(setup_scenario(generate_scenario(cfg.scenario, 41), cfg), cfg, pose_source="gt")
    e_t = temporal_encoding(2.0, cfg.encoder.dim)[fusion.MAX_HEIGHT_CHANNEL]
    assert e_t != 0.0
    assert calls == [(cfg.head, cfg.eval, float(e_t))]


def test_run_pipeline_gt_poses_detects_in_roi():
    cfg = _small_cfg()
    scenario = generate_scenario(cfg.scenario, 41)
    result = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source="gt")
    assert len(ego_frame_targets(scenario, cfg.grid_spec())) > 0
    assert len(result.detections) > 0
    spec = cfg.grid_spec()
    half_w = spec.width * spec.resolution / 2.0
    for det in result.detections:
        assert abs(det.box.x) <= half_w
        assert abs(det.box.y) <= half_w
    # one pose and one feature payload per neighbor per frame
    neighbors = cfg.scenario.num_agents - 1
    assert Counter(r.kind for r in result.messages) == {"pose": neighbors, "features": neighbors}
    assert all(r.receiver == 0 and r.sender > 0 and r.size_bytes > 0 for r in result.messages)


def test_run_pipeline_none_is_single_agent():
    cfg = _small_cfg()
    scenario = generate_scenario(cfg.scenario, 41)
    result = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source="none")
    assert result.messages == ()
    # only the ego's own pose enters the record
    assert set(result.pose_estimates) == {(0, 0)}


@pytest.mark.parametrize("source", ["pgc", "gt-noise", "gt", "none"])
@pytest.mark.parametrize(
    "params",
    # at most two points per cloud in the sparse scene: every pgc estimate fails
    [_small_params(num_agents=3), _small_params(ground_points=1, points_per_box=1, num_objects=1)],
    ids=["three-agent", "sparse"],
)
def test_every_pose_source_records_pose_estimates(source, params):
    cfg = _small_cfg(frames=2, scenario=params)
    scenario = generate_scenario(params, 41)
    result = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source=source, noise=(1.0, 1.0))
    agents = [0] if source == "none" else list(range(params.num_agents))
    assert set(result.pose_estimates) == {(frame, k) for frame in range(cfg.frames) for k in agents}
    assert result.dropped == tuple(key for key, est in result.pose_estimates.items() if est is None)
    if source == "pgc" and params.points_per_box == 1:
        assert set(result.pose_estimates.values()) == {None}
    for (frame, k), est in result.pose_estimates.items():
        assert isinstance(est, PoseEstimate) or (est is None and source == "pgc")
        if source in ("gt", "none"):
            assert est.confidence == 1.0
            assert est.pose is scenario.agents[k].gt_pose
    # each neighbor's record is sent, in frames whose ego has a pose
    sent = [
        result.pose_estimates[(frame, k)].message_bytes()
        for frame in range(cfg.frames)
        for k in agents[1:]
        if result.pose_estimates[(frame, 0)] is not None and result.pose_estimates[(frame, k)] is not None
    ]
    assert [r.size_bytes for r in result.messages if r.kind == "pose"] == sent


def test_run_pipeline_logs_no_signal_fallback(caplog, monkeypatch):
    cfg = _small_cfg()
    scenario = generate_scenario(cfg.scenario, 41)
    ego, nbr = scenario.agents
    # a neighbor whose points all sit at height 0 has a constant max-height
    # channel, so the residual search finds no signal
    points = nbr.cloud.points.copy()
    points[:, 2] = 0.0
    flat = dataclasses.replace(scenario, agents=(ego, dataclasses.replace(nbr, cloud=PointCloud(points))))
    setup = setup_scenario(flat, cfg)
    with caplog.at_level(logging.INFO, logger="coopalign.harness"):
        result = run_pipeline(setup, cfg, pose_source="gt")
        again = run_pipeline(setup, cfg, pose_source="gt-noise")
        # the pipeline records the fallback; its caller logs it by row
        # index, once per (frame, agent) with the number of runs
        assert caplog.records == []
        log_pipeline_fallbacks(7, result.dropped, result.no_signal + again.no_signal)
    assert result.dropped == ()
    assert result.no_signal == again.no_signal == tuple((frame, 1) for frame in range(cfg.frames))
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, f"scenario 7 frame {frame} agent 1: no correlation signal in 2 run(s), residual offset left at zero")
        for frame in range(cfg.frames)
    ]
    # the neighbor is still fused, with a zero residual offset
    assert [r.kind for r in result.messages].count("features") == cfg.frames
    monkeypatch.setattr(harness, "estimate_offset", lambda ego, nbr, search: Pose2D(0.0, 0.0, 0.0))
    zero = run_pipeline(setup, cfg, pose_source="gt")
    np.testing.assert_array_equal(result.fused.data, zero.fused.data)
    assert result.detections == zero.detections


def _scripted_search(replies):
    """An estimate_offset that returns, or raises, the next reply."""
    replies = iter(replies)

    def estimate_offset(template, nbr, search):
        reply = next(replies)
        if isinstance(reply, Exception):
            raise reply
        return reply
    return estimate_offset


def test_zero_residual_offset_skips_an_identity_warp_bitwise(monkeypatch):
    cfg = _small_cfg(frames=2, scenario=_small_params(num_agents=3))
    scenario = generate_scenario(cfg.scenario, 44)
    neighbors = cfg.frames * (cfg.scenario.num_agents - 1)
    coarse = []
    original_align = harness.coarse_align

    def recording_align(*args):
        grid = original_align(*args)
        coarse.append(grid)
        return grid

    monkeypatch.setattr(harness, "coarse_align", recording_align)
    warps = _count_calls(monkeypatch, fusion, "warp_grid")
    # per frame, the first neighbor finds no signal and the second keeps the
    # zero offset: neither takes a second warp
    monkeypatch.setattr(harness, "estimate_offset", _scripted_search([NoSignalError("flat"), Pose2D(0.0, -0.0, 0.0)] * cfg.frames))
    skipped = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source="gt-noise", noise=(0.5, 1.0))
    assert len(warps) == len(coarse) == neighbors
    # coarse grids hold no -0.0, so the identity warp reproduces them bitwise
    for grid in coarse:
        assert not (np.signbit(grid.data) & (grid.data == 0.0)).any()
        assert fusion.warp_grid(grid, Pose2D(0.0, 0.0, 0.0)).data.tobytes() == grid.data.tobytes()
    # with no offset equal to the skip sentinel, every neighbor takes the
    # identity warp, as a NoSignalError fallback or a zero offset once did
    monkeypatch.setattr(harness, "_ZERO_OFFSET", None)
    monkeypatch.setattr(harness, "estimate_offset", _scripted_search([Pose2D(0.0, 0.0, 0.0)] * neighbors))
    del warps[:]
    warped = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source="gt-noise", noise=(0.5, 1.0))
    assert len(warps) == 2 * neighbors
    assert warped.fused.data.tobytes() == skipped.fused.data.tobytes()
    assert warped.detections == skipped.detections


def test_each_neighbor_is_fused_in_agent_order_with_its_own_fallback(monkeypatch):
    cfg = _small_cfg(scenario=_small_params(num_agents=3))
    setup = setup_scenario(generate_scenario(cfg.scenario, 44), cfg)
    offset = Pose2D(0.5, -0.5, 0.0)
    coarse, embedded = [], []
    original_align = harness.coarse_align
    original_embed = harness.confidence_embed

    def recording_align(*args):
        coarse.append(original_align(*args))
        return coarse[-1]

    def recording_embed(grids, sigmas):
        embedded.append((list(grids), list(sigmas)))
        return original_embed(grids, sigmas)

    monkeypatch.setattr(harness, "coarse_align", recording_align)
    monkeypatch.setattr(harness, "confidence_embed", recording_embed)
    monkeypatch.setattr(harness, "estimate_offset", _scripted_search([NoSignalError("flat"), offset]))
    result = run_pipeline(setup, cfg, pose_source="gt-noise", noise=(0.5, 1.0))
    # agent 1 keeps its coarse grid, agent 2 is corrected by the inverse offset
    assert result.no_signal == ((0, 1),)
    [(grids, weights)] = embedded
    assert len(coarse) == 2
    assert grids[0] is setup.rasters[0]
    assert grids[1] is coarse[0]
    assert grids[2].data.tobytes() == fusion.warp_grid(coarse[1], offset.inverse()).data.tobytes()
    assert weights == [result.pose_estimates[(0, k)].confidence for k in range(3)]
    assert [(r.sender, r.kind) for r in result.messages] == [
        (1, "pose"), (1, "features"), (2, "pose"), (2, "features"),
    ]


def test_run_pipeline_rejects_unknown_source():
    cfg = _small_cfg()
    scenario = generate_scenario(cfg.scenario, 41)
    with pytest.raises(ValueError):
        run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source="gps")


def test_pipeline_noise_blind_sources_are_bitwise_stable():
    cfg = _small_cfg()
    scenario = generate_scenario(cfg.scenario, 43)
    for source in ("pgc", "gt", "none"):
        lo = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source=source, noise=(0.0, 0.0))
        hi = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source=source, noise=(4.0, 4.0))
        assert lo.detections == hi.detections
        np.testing.assert_array_equal(lo.fused.data, hi.fused.data)


def test_pipeline_gt_noise_source_responds_to_noise():
    cfg = _small_cfg()
    scenario = generate_scenario(cfg.scenario, 43)
    lo = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source="gt-noise", noise=(0.0, 0.0))
    hi = run_pipeline(setup_scenario(scenario, cfg), cfg, pose_source="gt-noise", noise=(4.0, 4.0))
    assert not np.array_equal(lo.fused.data, hi.fused.data)


def test_alignment_benchmark_rows_and_determinism():
    cfg = _small_cfg()
    report = run_alignment_benchmark(cfg)
    # 2 scenarios x 1 neighbor x 4 methods
    assert len(report.rows) == 8
    again = run_alignment_benchmark(cfg)
    for a, b in zip(report.rows, again.rows):
        assert dataclasses.replace(a, time_s=0.0) == dataclasses.replace(b, time_s=0.0)
    agg = report.aggregates()
    assert set(agg) == set(cfg.methods)
    for stats in agg.values():
        assert stats["rows"] == 2
        assert 0.0 <= stats["delta_s_percent"] <= 100.0
        assert "time" not in " ".join(stats)
    assert report.mean_time_s("pgc") > 0.0


def test_alignment_benchmark_parallel_matches_serial():
    cfg = _small_cfg()
    serial = run_alignment_benchmark(cfg, parallel=1)
    par = run_alignment_benchmark(cfg, parallel=2)
    assert len(serial.rows) == len(par.rows)
    for a, b in zip(serial.rows, par.rows):
        assert dataclasses.replace(a, time_s=0.0) == dataclasses.replace(b, time_s=0.0)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_offset_template_built_once_per_setup(monkeypatch):
    cfg = _small_cfg(frames=2, scenario=_small_params(num_agents=3))
    scenario = generate_scenario(cfg.scenario, 44)
    templates = _count_calls(monkeypatch, harness, "offset_template")
    searches = _count_calls(monkeypatch, harness, "estimate_offset")
    setup = setup_scenario(scenario, cfg)
    assert (len(templates), len(searches)) == (0, 0)
    run_pipeline(setup, cfg, pose_source="gt")
    # the first run with neighbors builds the template; two neighbors in each
    # of two frames score against it
    assert (len(templates), len(searches)) == (1, 4)
    run_pipeline(setup, cfg, pose_source="gt")
    assert (len(templates), len(searches)) == (1, 8)
    # the single-agent source searches nothing, so its setup builds no template
    alone = setup_scenario(scenario, cfg)
    run_pipeline(alone, cfg, pose_source="none")
    assert (len(templates), len(searches)) == (1, 8)
    # a lone agent has no neighbor to search against, and gets no template
    lone = _small_params(num_agents=1)
    assert setup_scenario(generate_scenario(lone, 44), _small_cfg(scenario=lone)).template is None
    assert len(templates) == 1


@pytest.mark.parametrize(
    "cfg",
    [ExperimentConfig(num_scenarios=1), *(_small_cfg(frames=2, scenario=_small_params(num_agents=n)) for n in (1, 3))],
    ids=["defaults", "one-agent", "three-agent"],
)
def test_sweep_scenario_rasterizes_each_cloud_once(monkeypatch, cfg):
    # every method, level and frame fuses the setup's rasters: 2 calls for a
    # default scenario, which once rasterized its clouds in every run
    rasters = _count_calls(monkeypatch, harness, "rasterize_bev")
    harness._sweep_scenario(cfg, 0)
    assert len(rasters) == cfg.scenario.num_agents


def test_sweep_scenario_builds_one_offset_template(monkeypatch):
    # every method, level, frame and neighbor of a sweep scenario shares it
    cfg = _small_cfg(frames=2, scenario=_small_params(num_agents=3))
    templates = _count_calls(monkeypatch, harness, "offset_template")
    searches = _count_calls(monkeypatch, harness, "estimate_offset")
    scored = harness._sweep_scenario(cfg, 0)
    assert len(scored) == len(harness.SWEEP_METHODS) * len(cfg.noise_levels)
    assert len(templates) == 1
    # pgc and gt-noise, 5 levels, 2 frames, 2 neighbors
    assert len(searches) == 2 * len(cfg.noise_levels) * 2 * 2


def test_alignment_methods_run_once_per_pair(monkeypatch):
    cfg = _small_cfg(scenario=_small_params(co_visible=4))  # no empty ICP cloud
    ransac = _count_calls(monkeypatch, harness, "ransac_pose")
    icp = _count_calls(monkeypatch, harness, "icp_align")
    graph = _count_calls(monkeypatch, harness, "graph_match_align")
    report = run_alignment_benchmark(cfg)
    pairs = cfg.num_scenarios * (cfg.scenario.num_agents - 1)
    assert len(ransac) == 2 * pairs  # pgc estimates the ego and the neighbor pose
    assert len(icp) == pairs
    assert len(graph) == pairs
    assert all(r.time_s > 0.0 for r in report.rows)


def test_single_timing_keeps_rows(monkeypatch):
    cfg = _small_cfg()
    once = run_alignment_benchmark(cfg)
    timed_once = harness._timed

    def timed_thrice(fn):  # the earlier median-of-3 timing
        results = [timed_once(fn) for _ in range(3)]
        return results[-1][0], sorted(t for _, t in results)[1]

    monkeypatch.setattr(harness, "_timed", timed_thrice)
    thrice = run_alignment_benchmark(cfg)
    assert [dataclasses.replace(r, time_s=0.0) for r in once.rows] == [
        dataclasses.replace(r, time_s=0.0) for r in thrice.rows
    ]


def test_sweep_builds_targets_once_per_scenario(monkeypatch):
    cfg = ExperimentConfig(num_scenarios=2)
    calls = _count_calls(monkeypatch, harness, "ego_frame_targets")
    run_noise_sweep(cfg)
    assert len(calls) == cfg.num_scenarios


def test_sweep_ranks_each_scored_set_list_once(monkeypatch):
    # one ranking per (scenario, method, level) set for the rows and one per
    # (method, level) over all scenarios for the pooled table, each serving
    # every threshold; ranking once per threshold took three times as many
    cfg = ExperimentConfig(num_scenarios=2)
    calls = []
    original = harness.pooled_ap_per_threshold

    def recording(sets, num_thresholds):
        calls.append((len(sets), num_thresholds))
        return original(sets, num_thresholds)

    monkeypatch.setattr(harness, "pooled_ap_per_threshold", recording)
    report = run_noise_sweep(cfg)
    runs = len(SWEEP_METHODS) * len(cfg.noise_levels)
    count = len(cfg.eval.iou_thresholds)
    assert Counter(calls) == {(1, count): cfg.num_scenarios * runs, (cfg.num_scenarios, count): runs}
    assert len(report.rows) == cfg.num_scenarios * runs * count


def test_sweep_builds_each_box_footprint_once(monkeypatch):
    # the targets of a scenario are shared by all of its runs and each is
    # clipped against every detection near it; the corners are kept per box
    builds = Counter()
    boxes = {}  # keeps every counted box alive, so no id is reused
    original = RotatedBox3D.corners_bev

    def counted(self):
        builds[id(self)] += 1
        boxes[id(self)] = self
        return original(self)

    monkeypatch.setattr(RotatedBox3D, "corners_bev", counted)
    run_noise_sweep(ExperimentConfig(num_scenarios=2))
    assert builds and max(builds.values()) == 1


def test_sweep_downsamples_each_cloud_once_per_scenario(monkeypatch):
    # 5 levels x 3 methods: the pgc runs at every level share each agent's
    # downsampled cloud, where each run once made its own
    cfg = ExperimentConfig(num_scenarios=1)
    calls = _count_calls(monkeypatch, harness, "voxel_downsample")
    run_noise_sweep(cfg)
    assert len(calls) == cfg.scenario.num_agents == 2


@pytest.mark.parametrize("source", ["gt-noise", "gt", "none"])
def test_pipeline_without_pgc_never_downsamples(monkeypatch, source):
    cfg = _small_cfg(frames=2)
    calls = _count_calls(monkeypatch, harness, "voxel_downsample")
    run_pipeline(setup_scenario(generate_scenario(cfg.scenario, 45), cfg), cfg, pose_source=source, noise=(1.0, 1.0))
    assert calls == []


def test_pgc_setup_downsamples_once_for_every_run_and_frame(monkeypatch):
    cfg = _small_cfg(frames=2, scenario=_small_params(num_agents=3))
    setup = setup_scenario(generate_scenario(cfg.scenario, 46), cfg)
    calls = _count_calls(monkeypatch, harness, "voxel_downsample")
    first = run_pipeline(setup, cfg, pose_source="pgc")
    second = run_pipeline(setup, cfg, pose_source="pgc")
    assert len(calls) == 3
    assert first.fused.data.tobytes() == second.fused.data.tobytes()
    fresh = run_pipeline(setup_scenario(setup.scenario, cfg), cfg, pose_source="pgc")
    assert fresh.fused.data.tobytes() == first.fused.data.tobytes()


def test_alignment_downsamples_each_agent_per_pgc_row(monkeypatch):
    cfg = _small_cfg(num_scenarios=2, scenario=_small_params(num_agents=3))
    calls = _count_calls(monkeypatch, harness, "voxel_downsample")
    report = run_alignment_benchmark(cfg)
    pgc_rows = [r for r in report.rows if r.method == "pgc"]
    # the ego and the neighbor of each row, inside the row's timed call
    assert len(pgc_rows) == cfg.num_scenarios * 2
    assert len(calls) == 2 * len(pgc_rows)


def test_sweep_warns_once_per_dropped_agent_by_row_index(caplog):
    # at most two points per cloud: every pgc estimate fails, at every level
    sparse = _small_params(ground_points=1, points_per_box=1, num_objects=1)
    cfg = _small_cfg(num_scenarios=2, frames=2, scenario=sparse, noise_levels=((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
    with caplog.at_level(logging.WARNING, logger="coopalign.harness"):
        run_noise_sweep(cfg)
    assert [r.getMessage() for r in caplog.records] == [
        f"scenario {i} frame {frame} agent {k}: pose estimation failed, agent dropped"
        for i in range(cfg.num_scenarios)
        for frame in range(cfg.frames)
        for k in range(sparse.num_agents)
    ]


def test_sweep_scores_each_set_from_one_iou_pass(monkeypatch):
    cfg = _small_cfg(num_scenarios=2, noise_levels=((0.0, 0.0), (2.0, 2.0)))
    iou_calls = _count_calls(monkeypatch, detection, "rotated_iou_bev")
    original = harness.score_detection_set
    scored = []

    def recording(dets, gts, thresholds):
        before = len(iou_calls)
        result = original(dets, gts, thresholds)
        scored.append((list(dets), list(gts), len(iou_calls) - before))
        return result

    monkeypatch.setattr(harness, "score_detection_set", recording)
    report = run_noise_sweep(cfg)
    runs = [(i, method, level_idx) for i in range(cfg.num_scenarios)
            for level_idx in range(len(cfg.noise_levels)) for method in harness.SWEEP_METHODS]
    assert len(scored) == len(runs)
    # one IoU per detection x target pair; matching each threshold and the
    # pooled table on its own once took up to 6 times that
    assert all(calls <= len(dets) * len(gts) for dets, gts, calls in scored)
    assert any(calls > 0 for _, _, calls in scored)
    # the rows and the pooled AP built from the shipped flags are the AP of
    # the detections themselves
    frames = dict(zip(runs, ((dets, gts) for dets, gts, _ in scored)))
    expected_rows = []
    for method in harness.SWEEP_METHODS:
        for level_idx, (st_, sr) in enumerate(cfg.noise_levels):
            pooled_frames = [frames[(i, method, level_idx)] for i in range(cfg.num_scenarios)]
            for i, (dets, gts) in enumerate(pooled_frames):
                for thr in cfg.eval.iou_thresholds:
                    expected_rows.append(
                        harness.SweepRow(i, method, st_, sr, thr, detection.average_precision(dets, gts, thr))
                    )
            for thr in cfg.eval.iou_thresholds:
                assert report.pooled_ap(method, (st_, sr), thr) == detection.pooled_average_precision(
                    pooled_frames, thr
                )
    assert report.rows == expected_rows


@pytest.mark.parametrize("parallel", [0, -3])
def test_parallel_below_one_is_refused(parallel):
    cfg = _small_cfg(num_scenarios=1)
    with pytest.raises(ValueError, match="parallel must be at least 1"):
        run_alignment_benchmark(cfg, parallel=parallel)
    with pytest.raises(ValueError, match="parallel must be at least 1"):
        run_noise_sweep(cfg, parallel=parallel)


@pytest.mark.parametrize(("parallel", "scenarios", "pool_sizes"), [(64, 3, [3]), (2, 3, [2]), (64, 1, [])])
def test_worker_processes_never_outnumber_the_scenarios(monkeypatch, parallel, scenarios, pool_sizes):
    # a forking pool starts every worker at its first submit, so the pool
    # size is what forks; this stand-in records it and starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    cfg = _small_cfg(num_scenarios=scenarios)
    assert harness._map_scenarios(lambda c, i: (c, i), cfg, parallel) == [(cfg, i) for i in range(scenarios)]
    assert sizes == pool_sizes


def test_aggregates_by_hand():
    rows = [
        AlignmentRow(0, "m", 0, 1, 0.5, 1.0, True, 100, 0.01),
        AlignmentRow(1, "m", 0, 1, float("inf"), float("inf"), False, 300, 0.02),
        AlignmentRow(2, "m", 0, 1, 1.5, 2.0, True, 200, 0.03),
    ]
    agg = AlignmentReport(rows).aggregates()["m"]
    assert agg["rows"] == 3
    assert abs(agg["delta_s_percent"] - 200.0 / 3.0) < 1e-12
    assert abs(agg["log2_mean_bytes"] - math.log2(200.0)) < 1e-12
    assert agg["median_translation_error"] == 1.0


def test_emit_alignment_report_float_format(tmp_path):
    rows = [AlignmentRow(0, "m", 0, 1, 1.0 / 3.0, 2.0, True, 128, 0.5)]
    paths = emit_alignment_report(AlignmentReport(rows), tmp_path)
    text = paths["results"].read_text()
    assert "0.33333333333333331" in text
    assert "true" in text and "True" not in text
    assert "time_s" in paths["timings"].read_text()
    assert "delta_s_percent" in paths["summary"].read_text()
    # identical rows re-emit byte-identically
    again = emit_alignment_report(AlignmentReport(rows), tmp_path / "again")
    assert again["results"].read_bytes() == paths["results"].read_bytes()
    assert again["summary"].read_bytes() == paths["summary"].read_bytes()


def test_noise_sweep_pgc_flat_and_persistence(tmp_path):
    cfg = _small_cfg(num_scenarios=2, noise_levels=((0.0, 0.0), (3.0, 3.0)))
    report = run_noise_sweep(cfg)
    # every (scenario, method, level, threshold) combination is present
    assert len(report.rows) == 2 * 3 * 2 * 3
    for method in ("pgc", "none"):
        for thr in cfg.eval.iou_thresholds:
            lo = report.pooled_ap(method, (0.0, 0.0), thr)
            hi = report.pooled_ap(method, (3.0, 3.0), thr)
            assert lo == hi
    paths = emit_sweep_report(report, tmp_path)
    again = emit_sweep_report(run_noise_sweep(cfg), tmp_path / "b")
    assert paths["results"].read_bytes() == again["results"].read_bytes()
    assert paths["summary"].read_bytes() == again["summary"].read_bytes()


def test_noise_sweep_parallel_matches_serial():
    cfg = _small_cfg(num_scenarios=2, noise_levels=((0.0, 0.0), (2.0, 2.0)))
    serial = run_noise_sweep(cfg, parallel=1)
    par = run_noise_sweep(cfg, parallel=2)
    assert serial.rows == par.rows
    assert serial.pooled == par.pooled


def test_noise_sweep_parallel_matches_serial_with_theta_search():
    # radians(degrees(x)) != x at 1.5 and 3 degrees; workers must search the serial angles
    search = dataclasses.replace(ExperimentConfig().search, max_theta_deg=3.0, step_theta_deg=1.5)
    cfg = _small_cfg(num_scenarios=2, noise_levels=((0.0, 0.0), (2.0, 2.0)), search=search)
    serial = run_noise_sweep(cfg, parallel=1)
    par = run_noise_sweep(cfg, parallel=2)
    assert serial.rows == par.rows
    assert serial.pooled == par.pooled


_quarter_steps = st.integers(min_value=1, max_value=4).map(lambda k: k * 0.625)
_half_degrees = st.integers(min_value=1, max_value=6).map(lambda k: k / 2)


@st.composite
def _small_sweep_configs(draw) -> ExperimentConfig:
    side = draw(st.integers(min_value=8, max_value=16))
    sigmas = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
    return ExperimentConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        num_scenarios=1,
        frames=draw(st.integers(min_value=1, max_value=2)),
        noise_levels=tuple(draw(st.lists(st.tuples(sigmas, sigmas), min_size=1, max_size=2, unique_by=level_key))),
        grid=GridParams(side, side, draw(st.sampled_from([1.25, 2.0]))),
        scenario=_small_params(),
        search=OffsetSearch(
            max_xy=draw(st.sampled_from([0.0, 0.625, 1.25])),
            step_xy=draw(_quarter_steps),
            max_theta_deg=draw(_half_degrees),
            step_theta_deg=draw(_half_degrees),
            min_gain=draw(st.sampled_from([0.0, 0.02])),
        ),
        encoder=EncoderConfig(
            layers=draw(st.integers(min_value=0, max_value=2)),
            mode=draw(st.sampled_from(["passthrough", "random"])),
        ),
    )


@settings(max_examples=10, deadline=None)
@given(_small_sweep_configs())
def test_noise_sweep_parallel_matches_serial_for_drawn_configs(cfg):
    serial = run_noise_sweep(cfg, parallel=1)
    par = run_noise_sweep(cfg, parallel=2)
    assert serial.rows == par.rows
    assert serial.pooled == par.pooled


def test_scenario_emit_format(tmp_path):
    scenario = generate_scenario(_small_params(), 47)
    path = emit_scenario(scenario, tmp_path)
    assert path == tmp_path / "scenario.json"
    manifest = json.loads(path.read_text())
    assert manifest["seed"] == scenario.seed
    assert manifest["world_objects"] == [b.as_list() for b in scenario.world_objects]
    assert len(manifest["agents"]) == len(scenario.agents)
    for entry, src in zip(manifest["agents"], scenario.agents):
        assert entry["id"] == src.agent_id
        assert tuple(entry["visible"]) == src.visible
        np.testing.assert_allclose(
            Pose.from_flat_rt(entry["pose_rt"]).matrix(), src.gt_pose.matrix(), atol=1e-15
        )
        np.testing.assert_array_equal(
            load_point_cloud(tmp_path / entry["cloud_file"]).points,
            src.cloud.points.astype("<f4").astype(float),
        )


def test_generate_and_emit_layout(tmp_path):
    cfg = _small_cfg(num_scenarios=3)
    paths = generate_and_emit(cfg, tmp_path)
    assert len(paths) == 3
    for i, p in enumerate(paths):
        assert p.name == "scenario.json"
        assert p.parent.name == f"scenario_{i:03d}"
        manifest = json.loads(p.read_text())
        assert len(manifest["agents"]) == cfg.scenario.num_agents


def test_selftest_all_green():
    results = selftest()
    assert len(results) >= 8
    failures = [name for name, ok in results if not ok]
    assert failures == []
