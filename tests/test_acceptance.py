"""End-to-end acceptance checks. Each test covers one numbered criterion and
prints a single pass/fail line (visible with pytest -s or -rA)."""

import dataclasses
import json
import math

import numpy as np
import pytest

from coopalign.cli import main as cli_main
from coopalign.config import ExperimentConfig, ScenarioParams
from coopalign.detection import Detection, RotatedBox3D, average_precision, rotated_iou_bev
from coopalign.fusion import (
    BevGrid,
    GridSpec,
    OffsetSearch,
    confidence_embed,
    estimate_offset,
    offset_template,
    rasterize_bev,
    warp_grid,
)
from coopalign.geometry import PointCloud, Pose, Pose2D, pose_error
from coopalign.harness import (
    generate_scenario,
    run_alignment_benchmark,
    run_noise_sweep,
    agent_box_observation,
)
from coopalign.localization import (
    OracleErrorModel,
    PoseEstimate,
    RansacConfig,
    confidence_from_error,
    oracle_predict,
    ransac_pose,
)
from coopalign.fusion import serialize_grid
from coopalign.temporal import (
    EncoderParams,
    LayerParams,
    temporal_encoding,
    vit_forward,
)
from conftest import record_attention_blocks


class _report:
    """Prints `criterion NN PASS|FAIL: text` when the block exits."""

    def __init__(self, num: int, text: str):
        self.num = num
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} {status}: {self.text}")
        return False


def test_c01_confidence_formula():
    with _report(1, "confidence matches 1/(1+err^2) and decreases"):
        for eps in (0.0, 0.5, 1.0, 2.0, 10.0):
            assert abs(confidence_from_error(eps) - 1.0 / (1.0 + eps * eps)) < 1e-12
        grid = np.linspace(0.0, 20.0, 201)
        vals = [confidence_from_error(e) for e in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_c02_temporal_encoding_closed_form():
    with _report(2, "frame encoding matches the closed form to 1e-12"):
        for dim in (4, 8, 16):
            for t in range(0, 65):
                enc = temporal_encoding(t, dim)
                for k in range(dim // 2):
                    s = math.sin(t / 10000.0 ** (2.0 * k / dim))
                    c = math.cos(t / 10000.0 ** ((2.0 * k + 1.0) / dim))
                    assert abs(enc[2 * k] - s) < 1e-12
                    assert abs(enc[2 * k + 1] - c) < 1e-12
        zero = temporal_encoding(0, 16)
        assert np.array_equal(zero[0::2], np.zeros(8))
        assert np.array_equal(zero[1::2], np.ones(8))


def test_c03_ransac_recovery_rate():
    with _report(3, "robust pose solve: >= 99/100 trials within 0.1 m / 0.5 deg"):
        model = OracleErrorModel(
            inlier_sigma=0.02, outlier_fraction=0.3, outlier_scale=5.0, bias_correlation_length=0.0, error_fidelity=1.0
        )
        ok = 0
        for trial in range(100):
            rng = np.random.default_rng((900, trial))
            cloud = PointCloud(rng.uniform(-10.0, 10.0, size=(1024, 3)))
            gt = Pose.from_planar(*rng.uniform(-5.0, 5.0, size=2), rng.uniform(-3.0, 3.0))
            pred = oracle_predict(cloud, gt, model, rng)
            est = ransac_pose(pred, RansacConfig(), seed=trial)
            assert est is not None
            t_err, r_err = pose_error(est.pose, gt)
            if t_err < 0.1 and r_err < 0.5:
                ok += 1
        assert ok >= 99


def test_c04_covisibility_success_profile():
    with _report(4, "graph matching needs shared objects; robust localization does not"):
        graph_rates = []
        pgc_rates = []
        for count in (0, 1, 2, 3, 5, 10):
            cfg = ExperimentConfig(
                seed=0,
                num_scenarios=50,
                methods=("pgc", "graph"),
                scenario=ScenarioParams(num_objects=count + 2, co_visible=count, sensing_range=32.0),
            )
            agg = run_alignment_benchmark(cfg).aggregates()
            graph_rates.append(agg["graph"]["delta_s_percent"])
            pgc_rates.append(agg["pgc"]["delta_s_percent"])
        assert graph_rates[0] == 0.0
        assert all(a <= b + 1e-12 for a, b in zip(graph_rates, graph_rates[1:]))
        assert max(pgc_rates) - min(pgc_rates) < 2.0
        assert min(pgc_rates) > 95.0


def test_c05_message_size_ordering():
    with _report(5, "pose message < box list (>=5 boxes) < feature blob, every scenario"):
        params = ScenarioParams(num_objects=8, co_visible=6)
        cfg = ExperimentConfig(scenario=params)
        spec = cfg.grid_spec()
        for seed in range(20):
            scenario = generate_scenario(params, 500 + seed)
            for idx, agent in enumerate(scenario.agents):
                pose_bytes = PoseEstimate(agent.gt_pose, 1.0, 0.0, (), 1.0).message_bytes()
                obs = agent_box_observation(scenario, idx)
                assert len(obs.boxes) >= 5
                feat_bytes = len(serialize_grid(rasterize_bev(agent.cloud, spec)))
                assert pose_bytes < obs.message_bytes() < feat_bytes


def test_c07_residual_identity_and_attention_rows(monkeypatch):
    with _report(7, "zero branches give the exact identity; attention rows sum to 1"):
        rng = np.random.default_rng(65)
        tokens = rng.standard_normal((8, 6))
        layer = LayerParams.seeded(6, 10, rng)
        layer.wo[:] = 0.0
        layer.mlp_w2[:] = 0.0
        for depth in (1, 4):
            stack = EncoderParams(np.eye(6), [layer] * depth, heads=3)
            assert np.array_equal(vit_forward(stack, tokens), tokens)
            assert np.array_equal(vit_forward(stack, tokens, 4), tokens[4:])

        live = EncoderParams(np.eye(6), [LayerParams.seeded(6, 10, rng)], heads=3)
        blocks = record_attention_blocks(monkeypatch)
        vit_forward(live, tokens, 4)
        assert [b.shape for b in blocks] == [(4, 8)] * 3  # the 4 read-out rows, per head
        np.testing.assert_allclose(np.concatenate(blocks).sum(axis=-1), 1.0, atol=1e-12)


def test_c08_confidence_channel_normalization():
    with _report(8, "confidence channels sum to 1 and ignore common sigma scale"):
        rng = np.random.default_rng(38)
        spec = GridSpec.centered(6, 6, 1.0)
        grids = [BevGrid(spec, rng.standard_normal((2, 6, 6))) for _ in range(4)]
        sigmas = [0.31, 0.77, 0.12, 1.9]
        base = confidence_embed(grids, sigmas)
        total = sum(g.data[-1] for g in base)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        # powers of two scale both numerator and denominator exactly
        for factor in (2.0, 0.5, 1024.0, 2.0 ** -7):
            scaled = confidence_embed(grids, [s * factor for s in sigmas])
            for a, b in zip(base, scaled):
                assert np.array_equal(a.data[-1], b.data[-1])
        # arbitrary factors agree to rounding error
        scaled = confidence_embed(grids, [s * 3.7 for s in sigmas])
        for a, b in zip(base, scaled):
            np.testing.assert_allclose(b.data[-1], a.data[-1], rtol=1e-14)


def _box_scene_grid(rng, spec):
    pts = []
    for _ in range(6):
        cx, cy = rng.uniform(-8.0, 8.0, size=2)
        l, w = rng.uniform(2.5, 5.0), rng.uniform(1.5, 2.2)
        yaw = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.0, 1.0, size=(80, 2))
        edge = rng.integers(0, 4, size=80)
        x = np.where(edge < 2, (t[:, 0] - 0.5) * l, np.where(edge == 2, -l / 2.0, l / 2.0))
        y = np.where(edge < 2, np.where(edge == 0, -w / 2.0, w / 2.0), (t[:, 1] - 0.5) * w)
        c, s = math.cos(yaw), math.sin(yaw)
        pts.append(
            np.column_stack(
                [cx + c * x - s * y, cy + s * x + c * y, rng.uniform(0.2, 1.6, size=80)]
            )
        )
    full = rasterize_bev(PointCloud(np.concatenate(pts)), spec)
    return BevGrid(spec, full.data[1:2])


def test_c09_offset_search_recovery():
    with _report(9, "residual offset search lands within one step on 100 pairs"):
        spec = GridSpec.centered(40, 40, 0.5)
        search = OffsetSearch(
            max_xy=2.0, step_xy=0.5,
            max_theta_deg=10.0, step_theta_deg=2.5,
            min_gain=0.0,
        )
        rng = np.random.default_rng(901)
        for _ in range(100):
            ego = _box_scene_grid(rng, spec)
            true = Pose2D(
                float(rng.uniform(-2.0, 2.0)),
                float(rng.uniform(-2.0, 2.0)),
                float(rng.uniform(-math.radians(10.0), math.radians(10.0))),
            )
            nbr = warp_grid(ego, true)
            est = estimate_offset(offset_template(ego, search), nbr, search)
            assert abs(est.x - true.x) <= 0.5 + 1e-9
            assert abs(est.y - true.y) <= 0.5 + 1e-9
            assert abs(est.theta - true.theta) <= math.radians(2.5) + 1e-9


def test_c10_metric_oracles():
    with _report(10, "IoU and AP match hand-computed oracles"):
        unit = RotatedBox3D(0, 0, 0, 1, 1, 1, 0.0)
        assert abs(rotated_iou_bev(unit, unit) - 1.0) < 1e-9
        far = RotatedBox3D(50, 0, 0, 1, 1, 1, 0.0)
        assert abs(rotated_iou_bev(unit, far) - 0.0) < 1e-9
        shifted = RotatedBox3D(0.5, 0, 0, 1, 1, 1, 0.0)
        assert abs(rotated_iou_bev(unit, shifted) - 1.0 / 3.0) < 1e-9

        gts = [RotatedBox3D(10.0 * j, 0, 0, 1, 1, 1, 0.0) for j in range(3)]
        dets = [
            Detection(RotatedBox3D(0.0, 0, 0, 1, 1, 1, 0.0), 0.9),
            Detection(RotatedBox3D(100.0, 0, 0, 1, 1, 1, 0.0), 0.8),
            Detection(RotatedBox3D(10.0, 0, 0, 1, 1, 1, 0.0), 0.7),
            Detection(RotatedBox3D(20.0, 0, 0, 1, 1, 1, 0.0), 0.6),
        ]
        # brute force on tp=[1,0,1,1]: area under the precision envelope
        assert abs(average_precision(dets, gts, 0.5) - 5.0 / 6.0) < 1e-12


def test_c11_noise_sweep_directionality():
    with _report(11, "noisy-pose AP degrades with noise; robust pipeline is level-blind"):
        cfg = ExperimentConfig(seed=0, num_scenarios=100)
        report = run_noise_sweep(cfg)
        aps = [report.pooled_ap("gt-noise", lv, 0.3) for lv in cfg.noise_levels]
        assert all(a >= b for a, b in zip(aps, aps[1:]))
        assert aps[0] > aps[-1]
        for thr in cfg.eval.iou_thresholds:
            pooled = {report.pooled_ap("pgc", lv, thr) for lv in cfg.noise_levels}
            assert len(pooled) == 1
        by_key = {}
        for row in report.rows:
            if row.method == "pgc":
                by_key.setdefault((row.scenario_id, row.iou_threshold), set()).add(row.ap)
        assert by_key and all(len(v) == 1 for v in by_key.values())


def test_c12_sequential_rerun_byte_identity(tmp_path):
    with _report(12, "selftest, align and sweep artifacts rerun byte-identical"):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 5,
            "num_scenarios": 3,
            "scenario": {"num_objects": 6, "points_per_box": 60, "ground_points": 150},
            "noise_levels": [[0.0, 0.0], [2.0, 2.0]],
        }))
        runs = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            assert cli_main(["selftest", "--out", str(base / "self")]) == 0
            assert cli_main(["align", "--config", str(cfg_path), "--out", str(base / "align")]) == 0
            assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(base / "sweep")]) == 0
            runs[tag] = base
        a, b = runs["a"], runs["b"]
        pairs = [
            ("self/selftest_report.json", True),
            ("align/alignment_results.csv", True),
            ("align/alignment_summary.json", True),
            # wall-clock sidecar: present, deliberately not reproducible
            ("align/alignment_timings.csv", False),
            ("sweep/sweep_results.csv", True),
            ("sweep/sweep_summary.json", True),
        ]
        for rel, must_match in pairs:
            pa = (a / rel).read_bytes()
            pb = (b / rel).read_bytes()
            if must_match:
                assert pa == pb, f"{rel} differs between identical runs"
