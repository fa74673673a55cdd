"""Shared test helpers: small random geometry factories, grid builders, a
construction counter and an attention recorder."""

import math
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from coopalign import temporal
from coopalign.fusion import BevGrid, GridSpec, rasterize_bev
from coopalign.geometry import PointCloud, Pose


def random_planar_pose(rng, span=10.0):
    x, y = rng.uniform(-span, span, size=2)
    return Pose.from_planar(float(x), float(y), float(rng.uniform(-math.pi, math.pi)))


def random_full_pose(rng, span=10.0):
    """Random SE(3) pose via QR orthonormalization (det forced to +1)."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Pose(q, rng.uniform(-span, span, size=3))


def blob_grid(rng, spec=None, blobs=6):
    """A BEV grid with a handful of Gaussian bumps; structured enough for
    correlation to have a clear peak, zero near the border."""
    if spec is None:
        spec = GridSpec.centered(32, 32, 0.5)
    xs, ys = spec.cell_centers()
    px, py = np.meshgrid(xs, ys)
    field = np.zeros((spec.height, spec.width))
    extent = 0.5 * spec.resolution * min(spec.width, spec.height)
    for _ in range(blobs):
        cx, cy = rng.uniform(-0.4 * extent, 0.4 * extent, size=2)
        amp = rng.uniform(0.5, 2.0)
        sig = rng.uniform(0.8, 1.6)
        field += amp * np.exp(-((px - cx) ** 2 + (py - cy) ** 2) / (2 * sig**2))
    return BevGrid(spec, field[None, :, :])


def cluster_cloud(rng, n=300, span=8.0):
    return PointCloud(rng.uniform(-span, span, size=(n, 3)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_raster(rng, spec=None, n=80):
    if spec is None:
        spec = GridSpec.centered(16, 16, 1.0)
    pts = rng.uniform(-6, 6, size=(n, 3))
    return rasterize_bev(PointCloud(pts), spec)


@contextmanager
def counting_constructions(*classes):
    """Count, per class name, the instances of each class built inside the
    block (each construction runs the class's __post_init__ once)."""
    counts: Counter = Counter()
    saved = [(cls, cls.__dict__["__post_init__"]) for cls in classes]

    def counted(name, original):
        def post_init(self):
            counts[name] += 1
            original(self)
        return post_init

    for cls, original in saved:
        cls.__post_init__ = counted(cls.__name__, original)
    try:
        yield counts
    finally:
        for cls, original in saved:
            cls.__post_init__ = original


def record_attention_blocks(monkeypatch):
    """Record a copy of every attention block the layer kernel softmaxes, in
    order (each head's row blocks in turn); the kernel reuses one score
    buffer across heads, so this is where every head's attention is seen."""
    blocks = []
    kernel = temporal._softmax_in_place

    def recorded(x, axis=-1):
        out = kernel(x, axis)
        blocks.append(out.copy())
        return out

    monkeypatch.setattr(temporal, "_softmax_in_place", recorded)
    return blocks
