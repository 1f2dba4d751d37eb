"""Rotation and rigid-transform algebra.

Rotations are stored as orthonormal 3x3 matrices, rigid transforms as a
(rotation, translation) pair, and unit quaternions (wxyz, w >= 0) are the
file interchange format. All values are immutable after construction and
every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "Rot3",
    "Pose",
    "UnitQuat",
    "compose",
    "inverse",
    "rotation_angle",
    "rot_frobenius_loss",
    "quat_to_rot",
    "rot_to_quat",
    "rot_x",
    "rot_z",
    "axis_angle_to_matrix",
    "matrix_to_rotvec",
    "pose_to_dict",
    "pose_from_dict",
]

_VALID_TOL = 1e-6
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


class GeometryError(ValueError):
    """Raised when a rotation, quaternion, or pose fails validation."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Rot3:
    """Orthonormal rotation matrix, validated at construction (tol 1e-6)."""

    m: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.m, dtype=float)
        if a.shape != (3, 3):
            raise GeometryError(f"expected a 3x3 matrix, got shape {a.shape}")
        err = np.abs(a.T @ a - np.eye(3)).max()
        if err > _VALID_TOL:
            raise GeometryError(f"matrix is not orthonormal, |R^T R - I|_max = {err:.3e}")
        if abs(np.linalg.det(a) - 1.0) > _VALID_TOL:
            raise GeometryError("matrix determinant is not +1 (reflection or scaling)")
        object.__setattr__(self, "m", _freeze(a))

    @staticmethod
    def identity() -> "Rot3":
        return Rot3(np.eye(3))

    def __matmul__(self, other: "Rot3") -> "Rot3":
        return Rot3(self.m @ other.m)

    def transpose(self) -> "Rot3":
        return Rot3(self.m.T)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation followed by translation (meters)."""

    rot: Rot3
    pos: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pos, dtype=float).reshape(3)
        object.__setattr__(self, "pos", _freeze(p))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rot3.identity(), np.zeros(3))

    @staticmethod
    def from_translation(x: float, y: float, z: float) -> "Pose":
        return Pose(Rot3.identity(), np.array([x, y, z]))

    def as_matrix(self) -> np.ndarray:
        """Homogeneous 4x4 embedding of the transform."""
        t = np.eye(4)
        t[:3, :3] = self.rot.m
        t[:3, 3] = self.pos
        return t


def compose(a: Pose, b: Pose) -> Pose:
    """Apply ``a`` then ``b`` in standard homogeneous-matrix order (a @ b)."""
    return Pose(a.rot @ b.rot, a.rot.m @ b.pos + a.pos)


def inverse(p: Pose) -> Pose:
    rt = p.rot.m.T
    return Pose(Rot3(rt), -(rt @ p.pos))


def rotation_angle(a: Rot3, b: Rot3) -> float:
    """Geodesic angle between two rotations, in [0, pi]."""
    c = 0.5 * (np.trace(a.m.T @ b.m) - 1.0)
    return math.acos(min(1.0, max(-1.0, c)))


def rot_frobenius_loss(a: Rot3, b: Rot3) -> float:
    """arcsin(|a - b|_F / (2 sqrt 2)); equals rotation_angle(a, b) / 2.

    The argument is clamped to [0, 1] so antipodal rotations cannot raise a
    domain error from floating-point noise.
    """
    fro = np.linalg.norm(a.m - b.m)
    return math.asin(min(1.0, fro / _TWO_SQRT2))


@dataclass(frozen=True)
class UnitQuat:
    """Unit quaternion (w, x, y, z), canonicalized to w >= 0."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if abs(n - 1.0) > _VALID_TOL:
            raise GeometryError(f"quaternion norm {n:.9f} deviates from 1 beyond 1e-6")
        sign = -1.0 if self.w < 0.0 else 1.0
        scale = sign / n
        for name, v in (("w", self.w), ("x", self.x), ("y", self.y), ("z", self.z)):
            object.__setattr__(self, name, v * scale)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


def quat_to_rot(q: UnitQuat) -> Rot3:
    w, x, y, z = q.w, q.x, q.y, q.z
    return Rot3(
        np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
    )


def rot_to_quat(r: Rot3) -> UnitQuat:
    """Convert a rotation matrix to a unit quaternion (Shepperd's method)."""
    m = r.m
    tr = np.trace(m)
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return UnitQuat(w, x, y, z)


def axis_angle_to_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (normalized) axis."""
    a = np.asarray(axis, dtype=float).reshape(3)
    n = np.linalg.norm(a)
    if n < 1e-12:
        raise GeometryError("rotation axis has zero norm")
    a = a / n
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def matrix_to_rotvec(m) -> np.ndarray:
    """Rotation vector (axis * angle) of a rotation matrix, or of each matrix of a stack.

    Python floats: for a few matrices they cost less than numpy calls, and
    math.acos is libm's, which numpy's vectorised arccos can miss by a bit.
    """
    m = np.asarray(m, dtype=float)
    out = []
    for i, (m00, m01, m02, m10, m11, m12, m20, m21, m22) in enumerate(m.reshape(-1, 9).tolist()):
        angle = math.acos(min(1.0, max(-1.0, 0.5 * (m00 + m11 + m22 - 1.0))))
        if angle > math.pi - 1e-6:
            # near pi the skew part vanishes; R + I ~ 2 a a^T, so the dominant
            # column of R + I is parallel to the axis
            s = m.reshape(-1, 3, 3)[i] + np.eye(3)
            col = s[:, int(np.argmax(np.diagonal(s)))]
            out.append(col / np.linalg.norm(col) * angle)
        else:
            # below 1e-9 the skew part / 2 is exact to O(angle^3)
            scale = 0.5 if angle < 1e-9 else angle / (2.0 * math.sin(angle))
            out.append([(m21 - m12) * scale, (m02 - m20) * scale, (m10 - m01) * scale])
    return np.array(out).reshape(m.shape[:-1])


def rot_x(angle: float) -> Rot3:
    return Rot3(axis_angle_to_matrix([1.0, 0.0, 0.0], angle))


def rot_z(angle: float) -> Rot3:
    return Rot3(axis_angle_to_matrix([0.0, 0.0, 1.0], angle))


def pose_to_dict(p: Pose) -> dict:
    q = rot_to_quat(p.rot)
    return {"xyz": [float(v) for v in p.pos], "quat_wxyz": [q.w, q.x, q.y, q.z]}


def pose_from_dict(d: dict) -> Pose:
    try:
        xyz = d["xyz"]
        quat = d["quat_wxyz"]
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"pose object needs 'xyz' and 'quat_wxyz' fields: {d!r}") from exc
    if len(xyz) != 3 or len(quat) != 4:
        raise GeometryError("pose 'xyz' must have 3 entries and 'quat_wxyz' 4")
    return Pose(quat_to_rot(UnitQuat(*[float(v) for v in quat])), np.asarray(xyz, dtype=float))
