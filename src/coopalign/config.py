"""Experiment configuration: typed parameter groups and JSON loading with
strict validation.

The JSON form mirrors the dataclass tree: keys are field names and one
decoder walks the field annotations. Each dataclass's ``__post_init__`` is
the only place that checks ranges."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import GraphMatchConfig, IcpConfig
from .detection import EvalConfig, HeadConfig
from .fusion import BEV_CHANNELS, GridSpec, OffsetSearch
from .localization import _BLOCK_CAP, MAX_SIGMA_R, MAX_SIGMA_T, OracleErrorModel, RansacConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; the CLI maps this to exit code 1."""


@dataclass(frozen=True)
class ScenarioParams:
    num_agents: int = 2
    num_objects: int = 8
    world_size: float = 80.0
    sensing_range: float = 25.0
    co_visible: int | None = None
    points_per_box: int = 120
    ground_points: int = 400
    min_agent_distance: float = 12.0
    max_agent_distance: float = 20.0
    occluder_radius: float = 1.2

    def __post_init__(self) -> None:
        if self.num_agents < 1:
            raise ConfigError("num_agents must be at least 1")
        if self.num_objects < 0 or self.points_per_box < 1 or self.ground_points < 0:
            raise ConfigError("object and point counts must be non-negative")
        if self.world_size <= 0.0 or self.sensing_range <= 0.0:
            raise ConfigError("world_size and sensing_range must be positive")
        if max(self.world_size, self.sensing_range, self.max_agent_distance) > MAX_SIGMA_T:
            raise ConfigError(f"world_size, sensing_range and max_agent_distance must not exceed {MAX_SIGMA_T:g} m")
        if self.co_visible is not None:
            if self.num_agents < 2:
                raise ConfigError("co_visible control needs at least 2 agents")
            if not 0 <= self.co_visible <= self.num_objects:
                raise ConfigError("co_visible must lie in [0, num_objects]")
        if not 0.0 < self.min_agent_distance <= self.max_agent_distance:
            raise ConfigError("agent distance bounds must satisfy 0 < min <= max")
        if self.occluder_radius < 0.0:
            raise ConfigError("occluder_radius must be non-negative")



@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 8
    heads: int = 2
    layers: int = 1
    hidden: int = 16
    mode: str = "passthrough"

    def __post_init__(self) -> None:
        if self.dim < BEV_CHANNELS or self.dim % 2 != 0:
            raise ConfigError(f"encoder dim must be even and at least {BEV_CHANNELS}, the input channel count")
        if self.heads < 1 or self.dim % self.heads != 0:
            raise ConfigError("encoder heads must divide dim")
        if self.layers < 0 or self.hidden < 1:
            raise ConfigError("encoder layers/hidden must be non-negative/positive")
        if self.mode not in ("passthrough", "random"):
            raise ConfigError("encoder mode must be 'passthrough' or 'random'")


BENCHMARK_METHODS = ("pgc", "icp", "graph", "gt-noise")
SWEEP_METHODS = ("gt-noise", "pgc", "none")

# A config whose largest float64 array would exceed this many bytes is
# refused before any work starts.
ARRAY_BUDGET_BYTES = 1 << 30

# Smallest grid cell, downsampling voxel edge and nonzero oracle bias
# correlation length (meters) a config may ask for. Far below it, world
# coordinates divided by the cell size no longer fit the int64 cell and voxel
# keys, and the bias field's frequencies overflow to inf.
MIN_CELL = 1e-6


def level_key(level: tuple[float, float]) -> str:
    """The sweep summary's key for a noise level (sigma_t, sigma_r)."""
    return f"{level[0]:g}/{level[1]:g}"


def threshold_key(threshold: float) -> str:
    """The sweep summary's key for an IoU threshold."""
    return f"{threshold:g}"


@dataclass(frozen=True)
class GridParams:
    width: int = 32
    height: int = 32
    resolution: float = 1.25

    def __post_init__(self) -> None:
        if self.resolution < MIN_CELL:
            raise ConfigError(f"resolution must be at least {MIN_CELL:g} m")
        self.spec()  # GridSpec checks the other ranges

    def spec(self) -> GridSpec:
        return GridSpec.centered(self.width, self.height, self.resolution)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    num_scenarios: int = 100
    frames: int = 1
    methods: tuple[str, ...] = BENCHMARK_METHODS
    noise_levels: tuple[tuple[float, float], ...] = (
        (0.0, 0.0),
        (1.0, 1.0),
        (2.0, 2.0),
        (3.0, 3.0),
        (4.0, 4.0),
    )
    alignment_noise: tuple[float, float] = (1.0, 1.0)
    downsample_voxel: float = 0.3
    grid: GridParams = field(default_factory=GridParams)
    scenario: ScenarioParams = field(default_factory=ScenarioParams)
    oracle: OracleErrorModel = field(default_factory=OracleErrorModel)
    ransac: RansacConfig = field(default_factory=RansacConfig)
    icp: IcpConfig = field(default_factory=IcpConfig)
    graph: GraphMatchConfig = field(default_factory=GraphMatchConfig)
    search: OffsetSearch = field(
        default_factory=lambda: OffsetSearch(
            max_xy=1.25, step_xy=0.625, max_theta_deg=0.0, step_theta_deg=2.0, min_gain=0.02
        )
    )
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.num_scenarios < 1 or self.frames < 1:
            raise ConfigError("num_scenarios and frames must be positive")
        if self.downsample_voxel < MIN_CELL:
            raise ConfigError(f"downsample_voxel must be at least {MIN_CELL:g} m")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in BENCHMARK_METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {sorted(BENCHMARK_METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods must not repeat")
        if not self.noise_levels:
            raise ConfigError("at least one noise level is required")
        for level in self.noise_levels:
            if len(level) != 2 or level[0] < 0.0 or level[1] < 0.0:
                raise ConfigError("noise_levels entries must be [sigma_t, sigma_r] >= 0")
        if len(self.alignment_noise) != 2 or min(self.alignment_noise) < 0.0:
            raise ConfigError("alignment_noise must be [sigma_t, sigma_r] >= 0")
        if max(level[0] for level in (*self.noise_levels, self.alignment_noise)) > MAX_SIGMA_T:
            raise ConfigError(f"a translation sigma must not exceed {MAX_SIGMA_T:g} m")
        if max(level[1] for level in (*self.noise_levels, self.alignment_noise)) > MAX_SIGMA_R:
            raise ConfigError(f"a rotation sigma must not exceed {MAX_SIGMA_R:g} deg")
        if 0.0 < self.oracle.bias_correlation_length < MIN_CELL:
            raise ConfigError(f"oracle: bias_correlation_length must be 0 or at least {MIN_CELL:g} m")
        # the sweep summary is keyed by these strings; a collision would pool two levels
        if len({level_key(lv) for lv in self.noise_levels}) != len(self.noise_levels):
            raise ConfigError("noise_levels must differ when printed with :g (the summary keys)")
        thresholds = self.eval.iou_thresholds
        if len({threshold_key(t) for t in thresholds}) != len(thresholds):
            raise ConfigError("iou_thresholds must differ when printed with :g (the summary keys)")
        # the largest float64 array the sizes imply: the token features of
        # all frames, RANSAC's (3, _BLOCK_CAP, points) residuals, graph
        # matching's (pairs, pairs) terms over num_objects**2 box pairs, the
        # offset search's ego template (one warped grid per candidate, built
        # only when there are neighbors), or a layer's weight matrix or the
        # one score buffer all heads share: (cells, tokens) for a lone layer,
        # whose queries are the last frame's cells, else (tokens, tokens).
        # Passthrough builds no layer.
        enc = self.encoder
        sc = self.scenario
        cells = self.grid.width * self.grid.height
        tokens = self.frames * cells
        entries = [tokens * enc.dim, (sc.num_objects * sc.points_per_box + sc.ground_points) * _BLOCK_CAP * 3]
        if "graph" in self.methods:
            entries.append(sc.num_objects**4)
        if sc.num_agents > 1:
            entries.append(self.search.candidate_count() * cells)
        if enc.mode == "random" and enc.layers > 0:
            score_rows = cells if enc.layers == 1 else tokens
            entries += [enc.dim * enc.dim, enc.dim * enc.hidden, score_rows * tokens]
        if 8 * max(entries) > ARRAY_BUDGET_BYTES:
            raise ConfigError(
                f"these sizes imply an array of {8 * max(entries)} bytes, "
                f"over the {ARRAY_BUDGET_BYTES}-byte budget"
            )

    def grid_spec(self) -> GridSpec:
        return self.grid.spec()

    def to_dict(self) -> dict:
        """The JSON form: field names as keys, tuples as lists once dumped."""
        return dataclasses.asdict(self)


@functools.cache
def _field_types(cls: type) -> dict:
    """Resolved annotation of each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _merge(base, raw, path: str):
    """``base`` with the fields named in the JSON object ``raw`` decoded and
    replaced; every other field keeps the value ``base`` has."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    types_ = _field_types(type(base))
    unknown = sorted(set(raw) - set(types_))
    if unknown:
        raise ConfigError(f"unknown keys in {path or 'config root'}: {unknown}")
    changes = {
        name: _decode(types_[name], getattr(base, name), value, f"{path}.{name}" if path else name)
        for name, value in raw.items()
    }
    try:
        return dataclasses.replace(base, **changes)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _decode(tp, default, value, path: str):
    """The JSON value ``value`` as an instance of annotation ``tp``."""
    if dataclasses.is_dataclass(tp):
        return _merge(default, value, path)
    if type(None) in typing.get_args(tp):  # X | None
        if value is None:
            return None
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(f"{path} must have {len(items)} entries")
        return tuple(_decode(t, None, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    if tp is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{path} must be an integer")
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite")
    return number


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from parsed JSON. Keys are the
    dataclass field names; an omitted key keeps its default, and unknown keys
    are rejected so typos fail loudly."""
    return _merge(ExperimentConfig(), raw, "")


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load a JSON config file, or the defaults when path is None."""
    if path is None:
        return ExperimentConfig()
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return config_from_dict(raw)
