"""Rotation and rigid-transform helpers on plain arrays.

Rotations are orthonormal 3x3 arrays and rigid transforms 4x4 homogeneous
arrays; unit quaternions (w, x, y, z with w >= 0) are the file interchange
format. ``_transform`` validates a transform where a caller hands one in,
and every other function is pure.
"""

from __future__ import annotations

import math

import numpy as np

from . import json_vector

__all__ = [
    "GeometryError",
    "rotation_angle",
    "rot_frobenius_loss",
    "quat_to_rot",
    "rot_to_quat",
    "axis_angle_to_matrix",
    "matrix_to_rotvec",
    "pose_to_dict",
    "pose_from_dict",
]

_VALID_TOL = 1e-6


class GeometryError(ValueError):
    """Raised when a rotation, quaternion, or pose fails validation."""


def _freeze(a) -> np.ndarray:
    """A read-only C-ordered float copy of ``a``; ``a`` stays writable."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _transform(t, what: str) -> np.ndarray:
    """``t`` as a frozen 4x4 rigid transform. Raises GeometryError naming ``what`` unless its rotation block
    is orthonormal with determinant +1 (tol 1e-6), its translation finite and its last row (0, 0, 0, 1)."""
    a = _freeze(t)
    if a.shape != (4, 4):
        raise GeometryError(f"{what}: expected a 4x4 transform, got shape {a.shape}")
    r = a[:3, :3]
    err = np.abs(r.T @ r - np.eye(3)).max()
    if not err <= _VALID_TOL:  # also a NaN
        raise GeometryError(f"{what}: rotation is not orthonormal, |R^T R - I|_max = {err:.3e}")
    if not abs(np.linalg.det(r) - 1.0) <= _VALID_TOL:
        raise GeometryError(f"{what}: rotation determinant is not +1 (reflection or scaling)")
    if not np.isfinite(a[:3, 3]).all() or not np.array_equal(a[3], [0.0, 0.0, 0.0, 1.0]):
        raise GeometryError(f"{what}: translation must be finite and the last row (0, 0, 0, 1)")
    return a


def rotation_angle(a, b) -> float:
    """Geodesic angle between two 3x3 rotations, in [0, pi]."""
    c = 0.5 * (np.trace(np.transpose(a) @ b) - 1.0)
    return math.acos(min(1.0, max(-1.0, c)))


def rot_frobenius_loss(a, b) -> np.ndarray:
    """arcsin(|a - b|_F / (2 sqrt 2)) of each pair of (..., 3, 3) rotations; equals rotation_angle(a, b) / 2.

    The argument is clamped to [0, 1] so antipodal rotations cannot raise a
    domain error from floating-point noise. Each norm is a 1-D dot and each arcsin libm's.
    """
    d = np.subtract(a, b)
    fro = np.sqrt(d.reshape(-1, 1, 9) @ d.reshape(-1, 9, 1)).ravel() / (2.0 * math.sqrt(2.0))
    return np.array([math.asin(min(1.0, x)) for x in fro.tolist()]).reshape(d.shape[:-2])


def quat_to_rot(wxyz) -> np.ndarray:
    """The 3x3 rotation of a quaternion (w, x, y, z), normalized; its norm must be 1 within 1e-6."""
    w, x, y, z = wxyz
    try:
        n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    except OverflowError:  # a float's ** raises past the float range; the norm is refused below
        n = math.inf
    if not abs(n - 1.0) <= _VALID_TOL:  # also a NaN norm
        raise GeometryError(f"quaternion norm {n:.9f} deviates from 1 beyond 1e-6")
    scale = (-1.0 if w < 0.0 else 1.0) / n
    w, x, y, z = w * scale, x * scale, y * scale, z * scale
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rot_to_quat(m) -> list[float]:
    """The unit quaternion (w, x, y, z), w >= 0, of a 3x3 rotation (Shepperd's method)."""
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
    scale = (-1.0 if w < 0.0 else 1.0) / math.sqrt(w**2 + x**2 + y**2 + z**2)
    return [float(w * scale), float(x * scale), float(y * scale), float(z * scale)]


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


def pose_to_dict(t) -> dict:
    """The pose object of a 4x4 homogeneous transform."""
    t = _transform(t, "pose")
    return {"xyz": [float(v) for v in t[:3, 3]], "quat_wxyz": rot_to_quat(t[:3, :3])}


def pose_from_dict(d: dict, where: str = "pose") -> np.ndarray:
    """Parse a pose object into a frozen 4x4 transform; an error names the offending field under ``where``."""
    if not isinstance(d, dict) or "xyz" not in d or "quat_wxyz" not in d:
        raise GeometryError(f"{where}: needs 'xyz' and 'quat_wxyz' fields")
    xyz = json_vector(d["xyz"], 3, GeometryError(f"{where}.xyz: expected 3 numbers"))
    quat = json_vector(d["quat_wxyz"], 4, GeometryError(f"{where}.quat_wxyz: expected 4 numbers"))
    if not all(map(math.isfinite, xyz)):
        raise GeometryError(f"{where}.xyz: values must be finite")
    t = np.eye(4)
    try:
        t[:3, :3] = quat_to_rot(quat)
    except GeometryError as exc:
        raise GeometryError(f"{where}.quat_wxyz: {exc}") from exc
    t[:3, 3] = xyz
    return _freeze(t)
