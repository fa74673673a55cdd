"""SE(3)/SE(2) pose algebra, point-cloud containers, and GNSS pose noise.

Conventions: rotation matrices are 3x3 and act on column vectors, translations
are meters, angles are radians unless the name says degrees. A pose maps local
coordinates into its parent frame: parent = R @ local + t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POINT_CLOUD_MAGIC = b"CPALPC01"

_TAU = 2.0 * math.pi
_ORTHONORMAL_TOL = 1e-8
_EYE3 = np.eye(3)


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]; exactly -pi maps to +pi."""
    wrapped = math.remainder(float(theta), _TAU)
    if wrapped <= -math.pi:
        wrapped += _TAU
    return wrapped


def rotation_z(angle: float) -> np.ndarray:
    """Rotation matrix about +z."""
    c = math.cos(angle)
    s = math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform with an orthonormal rotation (det +1) and a translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=float).reshape(3, 3)
        trans = np.array(self.translation, dtype=float).reshape(3)
        if not (np.isfinite(rot).all() and np.isfinite(trans).all()):
            raise ValueError("pose entries must be finite")
        if np.abs(rot @ rot.T - _EYE3).max() > _ORTHONORMAL_TOL:
            raise ValueError("rotation must be orthonormal")
        # |det| is within ~5e-8 of 1 here, so the rows' triple product has det's sign
        (a, b, c), (d, e, f), (g, h, i) = rot.tolist()
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) <= 0.0:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", _freeze(rot))
        object.__setattr__(self, "translation", _freeze(trans))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_planar(x: float, y: float, yaw: float) -> "Pose":
        return Pose(rotation_z(yaw), np.array([float(x), float(y), 0.0]))

    @property
    def yaw(self) -> float:
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])

    def planar(self) -> "Pose2D":
        """Project onto SE(2): keep x, y and heading, drop z, roll, pitch."""
        return Pose2D(float(self.translation[0]), float(self.translation[1]), self.yaw)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def flat_rt(self) -> list[float]:
        """Row-major [R | t] as 12 floats, the wire layout for pose messages."""
        return [float(v) for v in np.hstack([self.rotation, self.translation[:, None]]).ravel()]

    @staticmethod
    def from_flat_rt(values) -> "Pose":
        arr = np.asarray(values, dtype=float).reshape(3, 4)
        return Pose(arr[:, :3], arr[:, 3])


@dataclass(frozen=True)
class Pose2D:
    """Planar rigid transform: translation (x, y) plus heading theta in (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "theta"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, val)
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def apply(self, xy: np.ndarray) -> np.ndarray:
        """Transform an (N, 2) array of planar points."""
        pts = np.asarray(xy, dtype=float)
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        rot = np.array([[c, -s], [s, c]])
        return pts @ rot.T + np.array([self.x, self.y])

    def inverse(self) -> "Pose2D":
        c = math.cos(self.theta)
        s = math.sin(self.theta)
        return Pose2D(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.theta)

    def norm(self) -> float:
        """Euclidean norm of (x, y, theta), mixing meters and radians."""
        return math.sqrt(self.x**2 + self.y**2 + self.theta**2)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An (N, 3) float64 array of points in meters."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (N, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return int(self.points.shape[0])


def compose(a: Pose, b: Pose) -> Pose:
    """Composition a . b: the result applies b first, then a."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(p: Pose) -> Pose:
    return Pose(p.rotation.T, -(p.rotation.T @ p.translation))


def relative(pose_i: Pose, pose_j: Pose) -> Pose:
    """Transform taking frame-j coordinates into frame i, given both poses in
    a shared parent frame."""
    return compose(inverse(pose_i), pose_j)


def transform_points(p: Pose, cloud: PointCloud) -> PointCloud:
    pts = cloud.points @ p.rotation.T + p.translation
    return PointCloud(pts)


def perturb_pose(p: Pose, sigma_t: float, sigma_r: float, rng: np.random.Generator) -> Pose:
    """Apply world-frame GNSS noise: N(0, sigma_t^2) on x and y, and a heading
    error of N(0, sigma_r^2) degrees about the world z axis. Draw order is
    fixed (dx, dy, dyaw) so results are reproducible for a given generator
    state; a negative sigma raises ValueError."""
    dx = rng.normal(0.0, sigma_t)
    dy = rng.normal(0.0, sigma_t)
    dyaw = math.radians(rng.normal(0.0, sigma_r))
    rot = rotation_z(dyaw) @ p.rotation
    trans = p.translation + np.array([dx, dy, 0.0])
    return Pose(rot, trans)


def pose_error(estimate: Pose, truth: Pose) -> tuple[float, float]:
    """Translation error in meters and geodesic rotation error in degrees."""
    t_err = float(np.linalg.norm(estimate.translation - truth.translation))
    cos_ang = (np.trace(truth.rotation.T @ estimate.rotation) - 1.0) / 2.0
    r_err = math.degrees(math.acos(min(1.0, max(-1.0, float(cos_ang)))))
    return t_err, r_err


def save_points_binary(cloud: PointCloud, path: str | Path) -> None:
    """Magic header followed by little-endian float32 xyz triples."""
    payload = POINT_CLOUD_MAGIC + cloud.points.astype("<f4").tobytes()
    Path(path).write_bytes(payload)


def load_point_cloud(path: str | Path) -> PointCloud:
    """Load a point cloud written by ``save_points_binary``."""
    raw = Path(path).read_bytes()
    if raw[: len(POINT_CLOUD_MAGIC)] != POINT_CLOUD_MAGIC:
        raise ValueError("bad point cloud magic")
    body = raw[len(POINT_CLOUD_MAGIC):]
    if len(body) % 12 != 0:
        raise ValueError("truncated binary point cloud")
    pts = np.frombuffer(body, dtype="<f4").astype(float).reshape(-1, 3)
    return PointCloud(pts)
