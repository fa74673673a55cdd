import dataclasses
import json
import math
import typing

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopalign.config import (
    ARRAY_BUDGET_BYTES,
    BENCHMARK_METHODS,
    ConfigError,
    EncoderConfig,
    ExperimentConfig,
    GridParams,
    MAX_SIGMA_T,
    MIN_CELL,
    ScenarioParams,
    SWEEP_METHODS,
    config_from_dict,
    level_key,
    load_config,
    threshold_key,
)
from coopalign.detection import EvalConfig
from coopalign.fusion import OffsetSearch


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    spec = cfg.grid_spec()
    assert spec.width == 32 and spec.height == 32
    assert abs(spec.resolution - 1.25) < 1e-12
    assert set(cfg.methods) <= set(BENCHMARK_METHODS)
    assert SWEEP_METHODS == ("gt-noise", "pgc", "none")


def test_round_trip_through_dict():
    cfg = ExperimentConfig(seed=7, num_scenarios=3, frames=2)
    back = config_from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    assert back.seed == 7 and back.num_scenarios == 3 and back.frames == 2


def test_unknown_keys_rejected():
    raw = ExperimentConfig().to_dict()
    raw["bogus"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(raw)
    raw = ExperimentConfig().to_dict()
    raw["scenario"]["bogus"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(num_scenarios=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("teleport",))
    with pytest.raises(ConfigError):
        ExperimentConfig(noise_levels=((1.0, -1.0),))
    with pytest.raises(ConfigError):
        ScenarioParams(num_agents=0)
    with pytest.raises(ConfigError):
        ScenarioParams(co_visible=9, num_objects=8)
    with pytest.raises(ConfigError):
        EncoderConfig(dim=7)
    with pytest.raises(ConfigError):
        EncoderConfig(mode="magic")
    raw = ExperimentConfig().to_dict()
    raw["seed"] = "zero"
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_oracle_range_error_names_the_json_key():
    with pytest.raises(ConfigError, match="error_fidelity") as info:
        config_from_dict({"oracle": {"error_fidelity": 2}})
    assert "error_prediction_fidelity" not in str(info.value)
    assert str(info.value).startswith("oracle: error_fidelity")


def test_array_budget_counts_layer_weights_only_when_layers_run():
    # a 2**27-wide hidden layer is 8 GiB of float64 weights; the passthrough
    # encoder builds no layer, so only a random encoder with layers is refused
    wide = {"hidden": 134217728}
    assert config_from_dict({"encoder": wide}).encoder.hidden == 134217728
    assert config_from_dict({"encoder": {**wide, "mode": "random", "layers": 0}}).encoder.layers == 0
    with pytest.raises(ConfigError, match="budget"):
        config_from_dict({"encoder": {**wide, "mode": "random"}})


def test_array_budget_counts_the_offset_template_only_with_neighbors():
    # 401 x 401 candidates of 1024 cells is a 1.3 GB ego template; a lone
    # agent has no neighbor to search against and builds none
    fine = {"max_xy": 2.0, "step_xy": 0.01, "max_theta_deg": 0.0}
    assert config_from_dict({"search": fine, "scenario": {"num_agents": 1}}).search.step_xy == 0.01
    with pytest.raises(ConfigError, match="1317281792 bytes"):
        config_from_dict({"search": fine})


def test_array_budget_counts_one_head_of_attention():
    # the encoder holds one attention score buffer whatever the head count.
    # A one-layer stack's only layer attends from the last frame's cells, so
    # the buffer is (cells, tokens): 3072 x 12288 is 302 MB, and 8193 x 16386
    # is just over 1 GiB. With more layers it is (tokens, tokens): 12288
    # tokens is 1.2 GB.
    large = {"frames": 4, "grid": {"width": 64, "height": 48}}
    at_budget = {"frames": 2, "grid": {"width": 8192, "height": 1}}
    over_budget = {"frames": 2, "grid": {"width": 8193, "height": 1}}
    for heads in (1, 4):
        encoder = {"mode": "random", "heads": heads, "layers": 1}
        assert config_from_dict({**large, "encoder": encoder}).encoder.heads == heads
        assert config_from_dict({**at_budget, "encoder": encoder}).grid.width == 8192
        with pytest.raises(ConfigError, match="1074003984 bytes"):
            config_from_dict({**over_budget, "encoder": encoder})
        with pytest.raises(ConfigError, match="1207959552 bytes"):
            config_from_dict({**large, "encoder": {**encoder, "layers": 2}})


def test_translation_sigma_is_bounded():
    assert config_from_dict({"noise_levels": [[MAX_SIGMA_T, 0.0]]}).noise_levels == ((MAX_SIGMA_T, 0.0),)
    assert config_from_dict({"alignment_noise": [MAX_SIGMA_T, 1e9]}).alignment_noise == (MAX_SIGMA_T, 1e9)
    for raw in ({"noise_levels": [[0.0, 0.0], [2 * MAX_SIGMA_T, 0.0]]}, {"alignment_noise": [2 * MAX_SIGMA_T, 0.0]}):
        with pytest.raises(ConfigError, match="translation sigma"):
            config_from_dict(raw)
    for key in ("inlier_sigma", "outlier_scale"):
        assert getattr(config_from_dict({"oracle": {key: MAX_SIGMA_T}}).oracle, key) == MAX_SIGMA_T
        with pytest.raises(ConfigError, match=f"^oracle: {key} must lie in"):
            config_from_dict({"oracle": {key: 2 * MAX_SIGMA_T}})


def test_cell_and_voxel_sizes_are_bounded_below():
    assert config_from_dict({"grid": {"resolution": MIN_CELL}}).grid.resolution == MIN_CELL
    assert config_from_dict({"downsample_voxel": MIN_CELL}).downsample_voxel == MIN_CELL
    with pytest.raises(ConfigError, match="^grid: resolution must be at least"):
        config_from_dict({"grid": {"resolution": MIN_CELL / 2}})
    with pytest.raises(ConfigError, match="^downsample_voxel must be at least"):
        config_from_dict({"downsample_voxel": MIN_CELL / 2})


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    raw = ExperimentConfig(seed=11).to_dict()
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.seed == 11
    assert load_config(None).seed == 0
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_partial_override_dict():
    cfg = config_from_dict({"seed": 5, "scenario": {"num_objects": 4}})
    assert cfg.seed == 5
    assert cfg.scenario.num_objects == 4
    # untouched groups keep their defaults
    assert cfg.scenario.sensing_range == 25.0
    assert cfg.encoder.mode == "passthrough"


# ExperimentConfig().to_dict() as JSON; the schema and every default are pinned
_DEFAULT_JSON = {
    "seed": 0,
    "num_scenarios": 100,
    "frames": 1,
    "methods": ["pgc", "icp", "graph", "gt-noise"],
    "noise_levels": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
    "alignment_noise": [1.0, 1.0],
    "downsample_voxel": 0.3,
    "grid": {"width": 32, "height": 32, "resolution": 1.25},
    "scenario": {
        "num_agents": 2, "num_objects": 8, "world_size": 80.0, "sensing_range": 25.0,
        "co_visible": None, "points_per_box": 120, "ground_points": 400,
        "min_agent_distance": 12.0, "max_agent_distance": 20.0, "occluder_radius": 1.2,
    },
    "oracle": {
        "inlier_sigma": 0.02, "outlier_fraction": 0.3, "outlier_scale": 5.0,
        "bias_correlation_length": 20.0, "error_fidelity": 0.9,
    },
    "ransac": {
        "max_iterations": 256, "inlier_threshold": 0.5, "sample_size": 3,
        "min_inliers": 10, "confidence_stop": 0.999,
    },
    "icp": {"max_iterations": 30, "convergence_eps": 0.0001, "max_correspondence_dist": 5.0},
    "graph": {"edge_consistency_eps": 0.3, "min_consensus": 3},
    "search": {"max_xy": 1.25, "step_xy": 0.625, "max_theta_deg": 0.0, "step_theta_deg": 2.0, "min_gain": 0.02},
    "encoder": {"dim": 8, "heads": 2, "layers": 1, "hidden": 16, "mode": "passthrough"},
    "head": {
        "height_gain": 2.0, "height_floor": 0.4, "nominal_z": 0.8, "nominal_h": 1.6,
        "nominal_w": 2.2, "nominal_l": 3.6, "nms_iou": 0.5,
    },
    "eval": {"iou_thresholds": [0.3, 0.5, 0.7], "score_threshold": 0.25},
}


def _key_paths(d: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in d.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths.extend(_key_paths(value, prefix + key + "."))
    return paths


def test_default_json_is_pinned():
    as_json = json.loads(json.dumps(ExperimentConfig().to_dict()))
    assert as_json == _DEFAULT_JSON
    assert _key_paths(as_json) == _key_paths(_DEFAULT_JSON)
    assert len(_key_paths(as_json)) == 64
    assert config_from_dict(_DEFAULT_JSON) == ExperimentConfig()


def _json_round_trip(cfg: ExperimentConfig) -> ExperimentConfig:
    return config_from_dict(json.loads(json.dumps(cfg.to_dict())))


def test_round_trip_exact_for_every_half_degree_angle():
    # radians(degrees(x)) != x for some of these (1.5, 3, 6, 12 degrees, ...)
    base = ExperimentConfig()
    for k in range(1, 200):
        search = dataclasses.replace(base.search, max_theta_deg=k / 2, step_theta_deg=k / 2)
        cfg = dataclasses.replace(base, search=search)
        back = _json_round_trip(cfg)
        assert back == cfg
        assert back.search.theta_values().tobytes() == cfg.search.theta_values().tobytes()


_nonneg = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)
_half_degrees = st.integers(min_value=1, max_value=199).map(lambda k: k / 2)


@st.composite
def _valid_configs(draw) -> ExperimentConfig:
    methods = draw(st.permutations(BENCHMARK_METHODS))[: draw(st.integers(min_value=1, max_value=4))]
    num_objects = draw(st.integers(min_value=0, max_value=12))
    grid = GridParams(draw(st.integers(1, 64)), draw(st.integers(1, 64)), draw(_positive))
    search = OffsetSearch(
        max_xy=draw(_nonneg),
        step_xy=draw(_positive),
        max_theta_deg=draw(st.just(0.0) | _half_degrees),
        step_theta_deg=draw(_half_degrees),
        min_gain=draw(_nonneg),
    )
    # a valid config's ego offset template fits the array budget
    assume(8 * search.candidate_count() * grid.width * grid.height <= ARRAY_BUDGET_BYTES)
    return ExperimentConfig(
        seed=draw(st.integers(min_value=0, max_value=2**64)),
        num_scenarios=draw(st.integers(min_value=1, max_value=500)),
        frames=draw(st.integers(min_value=1, max_value=4)),
        methods=tuple(methods),
        noise_levels=tuple(draw(st.lists(st.tuples(_nonneg, _nonneg), min_size=1, max_size=4, unique_by=level_key))),
        alignment_noise=draw(st.tuples(_nonneg, _nonneg)),
        downsample_voxel=draw(_positive),
        grid=grid,
        scenario=ScenarioParams(
            num_objects=num_objects,
            co_visible=draw(st.none() | st.integers(min_value=0, max_value=num_objects)),
            world_size=draw(_positive),
            occluder_radius=draw(_nonneg),
        ),
        search=search,
        eval=EvalConfig(
            iou_thresholds=tuple(draw(st.lists(
                st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=3, unique_by=threshold_key
            ))),
            score_threshold=draw(st.floats(min_value=0.0, max_value=1.0)),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(_valid_configs())
def test_round_trip_exact_for_drawn_configs(cfg):
    assert _json_round_trip(cfg) == cfg


# HeadConfig fields with no lower bound; every other number rejects negatives
_UNBOUNDED_BELOW = {"height_floor", "nominal_z"}

_known_names = {"passthrough", "random", *BENCHMARK_METHODS}
_junk = {
    "bool": st.booleans(),
    "string": st.text(max_size=4).filter(lambda s: s not in _known_names),
    "null": st.none(),
    "list": st.lists(st.integers(0, 9), max_size=2),
    "object": st.dictionaries(st.text(max_size=4), st.integers(0, 9), max_size=2),
    "number": st.integers(-9, 9) | st.floats(allow_nan=False, allow_infinity=False),
}
_non_finite_or_huge = st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -10**400])


def _wrong(*kinds: str):
    return st.one_of(*(_junk[k] for k in kinds))


def _invalid_value(tp, default, name: str):
    """A strategy of JSON values the decoder must reject in place of
    ``default``, the value of a field named ``name`` with annotation ``tp``."""
    if dataclasses.is_dataclass(tp):
        unknown_key = st.text(max_size=8).filter(lambda k: k not in default).map(lambda k: {**default, k: 0})
        return _wrong("bool", "string", "null", "list", "number") | unknown_key
    optional = type(None) in typing.get_args(tp)
    if optional:
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    null = () if optional else ("null",)
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        items = args[:1] * len(default) if args[-1] is Ellipsis else args
        one_entry = st.integers(0, len(default) - 1).flatmap(
            lambda i: _invalid_value(items[i], default[i], name).map(
                lambda v: default[:i] + [v] + default[i + 1:]
            )
        )
        return _wrong("bool", "string", "object", "number", *null) | st.just([]) | one_entry
    if tp is str:
        return _wrong("bool", "string", "null", "list", "object", "number")
    wrong_type = _wrong("bool", "string", "list", "object", *null)
    if tp is int:
        fractional = st.floats().filter(lambda x: not x.is_integer())
        negative = st.integers(max_value=-1) | st.just(-10**400)
        return wrong_type | fractional | negative
    assert tp is float
    out = wrong_type | _non_finite_or_huge
    if name not in _UNBOUNDED_BELOW:
        out |= st.floats(max_value=-1e-300, allow_infinity=False)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_default_json_broken_at_any_key_raises_config_error(data):
    # every key path of the default JSON, and the root itself ("")
    for path in ["", *_key_paths(_DEFAULT_JSON)]:
        raw = json.loads(json.dumps(_DEFAULT_JSON))
        if path:
            *parents, name = path.split(".")
            owner, cls = raw, ExperimentConfig
            for p in parents:
                owner, cls = owner[p], typing.get_type_hints(cls)[p]
            tp = typing.get_type_hints(cls)[name]
            owner[name] = data.draw(_invalid_value(tp, owner[name], name), label=path)
        else:
            raw = data.draw(_invalid_value(ExperimentConfig, raw, ""), label="config root")
        with pytest.raises(ConfigError):
            config_from_dict(raw)
