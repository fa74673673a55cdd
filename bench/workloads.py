"""The benchmark's workloads: which CLI command runs, on which generated
config, and why the workload exists.

Each run of a workload is a closed loop with one client: one serial CLI
command (``--parallel 1``) at a time, the next starting only when the
previous one has returned. A run cycles through ``inputs`` generated configs;
config ``index`` of run seed ``seed`` gets the config seed
``seed * inputs + index``, so every (seed, index) pair draws its own
scenarios and the same seed always yields the same configs.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    command: str  # "sweep" or "align"
    scenarios: int  # num_scenarios of every command
    inputs: int  # distinct configs a run cycles through
    why: str
    overrides: dict = field(default_factory=dict)


# The criterion-9 search range: 9 x 9 x 9 = 729 candidates per call.
_WIDE_SEARCH = {"max_xy": 2.0, "step_xy": 0.5, "max_theta_deg": 10.0, "step_theta_deg": 2.5}

WORKLOADS: dict[str, Workload] = {
    # The README's sweep table: 3 methods x 5 noise levels, passthrough
    # encoder, 5 x 5 candidate search. temporal.encode dominates (attention
    # computed and then discarded), so the encoder skip shows here.
    "sweep-default": Workload(
        command="sweep",
        scenarios=2,
        inputs=16,
        why="default sweep (3 methods x 5 noise levels); the passthrough encoder dominates",
    ),
    # The README's alignment table. RANSAC, the oracle and voxel downsampling
    # dominate; fusion, temporal and detection never run, so every encoder,
    # NCC and AP change is predicted to leave it unchanged.
    "align-default": Workload(
        command="align",
        scenarios=25,
        inputs=16,
        why="default alignment benchmark (pgc, icp, graph, gt-noise); RANSAC-bound, bypasses fusion and encoder",
    ),
    # Attention really runs (random encoder, 2 frames = 2048 tokens), the
    # NCC search is wide and the random head emits hundreds of boxes for NMS
    # and AP matching; AP is near 0 by construction, so correctness rests on
    # the row checks. Two settings keep every scenario on all three heavy
    # paths; without them the cost of a scenario varies fivefold with its
    # content and no run of under a minute averages that out. A negative
    # objectness floor makes the random head emit boxes whatever encoder
    # weights the seed draws. A 48 m world (default 80 m) puts objects inside
    # the ego grid of almost every scenario, so the search is rarely skipped
    # on NoSignalError.
    "sweep-stress": Workload(
        command="sweep",
        scenarios=1,
        inputs=8,
        why="random encoder, 2 frames, 729-candidate NCC search, hundreds of boxes; attention, warp_grid and rotated IoU dominate",
        overrides={
            "frames": 2,
            "encoder": {"mode": "random"},
            "noise_levels": [[0.0, 0.0], [2.0, 2.0]],
            "search": _WIDE_SEARCH,
            "head": {"height_floor": -5.0},
            "scenario": {"world_size": 48.0},
        },
    ),
}


def config_seed(workload: str, seed: int, index: int) -> int:
    return seed * WORKLOADS[workload].inputs + index


def config_dict(workload: str, seed: int, index: int, scenarios: int | None = None) -> dict:
    """The JSON config of input ``index`` of a run with this seed."""
    w = WORKLOADS[workload]
    raw = copy.deepcopy(w.overrides)
    raw["seed"] = config_seed(workload, seed, index)
    raw["num_scenarios"] = w.scenarios if scenarios is None else scenarios
    return raw


def config_text(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
