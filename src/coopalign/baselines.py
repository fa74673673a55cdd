"""Classical alignment baselines: point-to-point ICP and greedy
distance-consistent matching of shared box observations.

Both estimate the rigid transform carrying a neighbor's frame into the ego
frame. ICP pairs each point with its nearest neighbor by a brute-force scan;
the graph matcher needs only box centers exchanged between agents and fails
outright when too few objects are co-visible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import RotatedBox3D
from .geometry import Pose, PointCloud
from .localization import DegenerateSampleError, _kabsch_arrays


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 30
    convergence_eps: float = 1e-4
    max_correspondence_dist: float = 5.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.convergence_eps <= 0.0:
            raise ValueError("convergence_eps must be positive")
        if self.max_correspondence_dist <= 0.0:
            raise ValueError("max_correspondence_dist must be positive")


@dataclass(frozen=True, eq=False)
class IcpResult:
    pose: Pose
    rmse: float
    iterations: int
    rmse_history: tuple[float, ...]


def _nearest_within(query: np.ndarray, targets: np.ndarray, max_dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of matched (query, target) pairs: each query's nearest target,
    kept when within max_dist. A brute-force scan, as the clouds ICP aligns
    here are a handful of box centers. Distance ties resolve to the lowest
    target index."""
    src_idx: list[int] = []
    dst_idx: list[int] = []
    for qi in range(query.shape[0]):
        diffs = targets - query[qi]
        dists = np.einsum("ij,ij->i", diffs, diffs)
        best = int(np.argmin(dists))
        if dists[best] <= max_dist * max_dist:
            src_idx.append(qi)
            dst_idx.append(best)
    return np.array(src_idx, dtype=int), np.array(dst_idx, dtype=int)


def icp_align(src: PointCloud, dst: PointCloud, cfg: IcpConfig) -> IcpResult | None:
    """Point-to-point ICP returning the transform mapping src into dst's
    frame, or None when no correspondences exist within range.

    Convergence is declared when the mean point displacement of an update
    step falls below convergence_eps. Identical clouds converge to the
    identity in one iteration."""
    if len(src) == 0 or len(dst) == 0:
        raise ValueError("ICP needs non-empty clouds")
    current = src.points.copy()
    rot_total = np.eye(3)
    trans_total = np.zeros(3)
    history: list[float] = []
    iterations = 0
    for _ in range(cfg.max_iterations):
        si, di = _nearest_within(current, dst.points, cfg.max_correspondence_dist)
        if si.shape[0] < 3:
            return None
        try:
            rot, trans = _kabsch_arrays(current[si], dst.points[di])
        except DegenerateSampleError:
            return None
        moved = current @ rot.T + trans
        delta = float(np.linalg.norm(moved - current, axis=1).mean())
        current = moved
        # compose(step, total) on arrays
        rot_total, trans_total = rot @ rot_total, rot @ trans_total + trans
        resid = current[si] - dst.points[di]
        history.append(float(np.sqrt(np.einsum("ij,ij->i", resid, resid).mean())))
        iterations += 1
        if delta < cfg.convergence_eps:
            break
    return IcpResult(Pose(rot_total, trans_total), history[-1], iterations, tuple(history))


@dataclass(frozen=True, eq=False)
class BoxObservation:
    """An agent's detected boxes in its own frame."""

    boxes: tuple[RotatedBox3D, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))

    def centers(self) -> np.ndarray:
        if not self.boxes:
            return np.zeros((0, 3))
        return np.array([[b.x, b.y, b.z] for b in self.boxes])

    def to_message_json(self) -> str:
        return json.dumps([b.as_list() for b in self.boxes], separators=(",", ":"))

    def message_bytes(self) -> int:
        return len(self.to_message_json().encode("utf-8"))


@dataclass(frozen=True)
class GraphMatchConfig:
    edge_consistency_eps: float = 0.3
    min_consensus: int = 3

    def __post_init__(self) -> None:
        if self.edge_consistency_eps <= 0.0:
            raise ValueError("edge_consistency_eps must be positive")
        if self.min_consensus < 3:
            raise ValueError("min_consensus must be at least 3")


@dataclass(frozen=True, eq=False)
class GraphMatchResult:
    pose: Pose
    matched_pairs: tuple[tuple[int, int], ...]


_MAX_SEEDS = 50


def graph_match_align(
    ego: BoxObservation, nbr: BoxObservation, cfg: GraphMatchConfig
) -> GraphMatchResult | None:
    """Estimate the neighbor-to-ego transform by matching box constellations.

    Candidate pairs (ego box, neighbor box) are scored by how many other pairs
    keep pairwise center distances consistent within edge_consistency_eps.
    Starting from each of the highest-degree seeds, a one-to-one set is grown
    greedily in degree order (ties by lexicographic index); the largest set
    wins. Returns None when no consistent set reaches min_consensus, the
    designed failure mode when agents share too few objects."""
    ec = ego.centers()
    nc = nbr.centers()
    n_e = ec.shape[0]
    n_n = nc.shape[0]
    if n_e == 0 or n_n == 0:
        return None
    de = np.linalg.norm(ec[:, None, :] - ec[None, :, :], axis=2)
    dn = np.linalg.norm(nc[:, None, :] - nc[None, :, :], axis=2)
    pairs = [(i, a) for i in range(n_e) for a in range(n_n)]
    p = len(pairs)
    ei = np.array([q[0] for q in pairs])
    na = np.array([q[1] for q in pairs])
    consistent = (
        (ei[:, None] != ei[None, :])
        & (na[:, None] != na[None, :])
        & (np.abs(de[ei[:, None], ei[None, :]] - dn[na[:, None], na[None, :]]) <= cfg.edge_consistency_eps)
    )
    degree = consistent.sum(axis=1)
    order = sorted(range(p), key=lambda q: (-int(degree[q]), pairs[q][0], pairs[q][1]))

    best: list[int] = []
    for seed in order[:_MAX_SEEDS]:
        chosen = [seed]
        used_e = {pairs[seed][0]}
        used_n = {pairs[seed][1]}
        for q in order:
            i, a = pairs[q]
            if i in used_e or a in used_n:
                continue
            if all(consistent[q, c] for c in chosen):
                chosen.append(q)
                used_e.add(i)
                used_n.add(a)
        if len(chosen) > len(best):
            best = chosen
    if len(best) < cfg.min_consensus:
        return None
    matched = tuple((pairs[q][0], pairs[q][1]) for q in best)
    local = nc[[a for _, a in matched]]
    world = ec[[i for i, _ in matched]]
    try:
        rot, trans = _kabsch_arrays(local, world)
    except DegenerateSampleError:
        return None
    return GraphMatchResult(pose=Pose(rot, trans), matched_pairs=matched)
