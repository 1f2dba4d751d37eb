"""Rigid-body kinematics written apart from ``real2sim``.

The benchmark makes its inputs and checks the program's outputs with these
functions, so a change to the program's kinematics cannot change the data it
is measured on or the reference its outputs are compared against. Chains are
the plain dicts of the program's chain JSON format.
"""

from __future__ import annotations

import math

import numpy as np


def axis_rotation(axis, angle: float) -> np.ndarray:
    """Rotation matrix about a unit ``axis`` by ``angle`` (Rodrigues)."""
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [c + x * x * t, x * y * t - z * s, x * z * t + y * s],
            [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
            [z * x * t - y * s, z * y * t + x * s, c + z * z * t],
        ]
    )


def rpy_rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """URDF fixed-axis roll-pitch-yaw: Rz(yaw) Ry(pitch) Rx(roll)."""
    return (
        axis_rotation((0.0, 0.0, 1.0), yaw)
        @ axis_rotation((0.0, 1.0, 0.0), pitch)
        @ axis_rotation((1.0, 0.0, 0.0), roll)
    )


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0, from the largest of the
    four squared components."""
    sq = np.array(
        [
            1.0 + m[0, 0] + m[1, 1] + m[2, 2],
            1.0 + m[0, 0] - m[1, 1] - m[2, 2],
            1.0 - m[0, 0] + m[1, 1] - m[2, 2],
            1.0 - m[0, 0] - m[1, 1] + m[2, 2],
        ]
    )
    k = int(np.argmax(sq))
    r = 0.5 * math.sqrt(sq[k])
    f = 0.25 / r
    if k == 0:
        q = [r, (m[2, 1] - m[1, 2]) * f, (m[0, 2] - m[2, 0]) * f, (m[1, 0] - m[0, 1]) * f]
    elif k == 1:
        q = [(m[2, 1] - m[1, 2]) * f, r, (m[0, 1] + m[1, 0]) * f, (m[0, 2] + m[2, 0]) * f]
    elif k == 2:
        q = [(m[0, 2] - m[2, 0]) * f, (m[0, 1] + m[1, 0]) * f, r, (m[1, 2] + m[2, 1]) * f]
    else:
        q = [(m[1, 0] - m[0, 1]) * f, (m[0, 2] + m[2, 0]) * f, (m[1, 2] + m[2, 1]) * f, r]
    q = np.array(q)
    q /= np.linalg.norm(q)
    return -q if q[0] < 0.0 else q


def matrix_from_quat(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def transform(rot: np.ndarray, pos) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = pos
    return t


def pose_dict(t: np.ndarray) -> dict:
    """A 4x4 transform in the program's pose format."""
    return {"xyz": [float(v) for v in t[:3, 3]], "quat_wxyz": [float(v) for v in quat_from_matrix(t[:3, :3])]}


def pose_transform(d: dict) -> np.ndarray:
    return transform(matrix_from_quat(d["quat_wxyz"]), d["xyz"])


def chain_fk(chain: dict, q) -> np.ndarray:
    """Tool transform of a chain dict at joint values ``q``, as a 4x4 matrix."""
    t = np.eye(4)
    for joint, qi in zip(chain["joints"], q):
        t = t @ pose_transform(joint["origin"])
        if joint["kind"] == "revolute":
            t = t @ transform(axis_rotation(joint["axis"], qi), np.zeros(3))
        else:
            t = t @ transform(np.eye(3), np.asarray(joint["axis"], dtype=float) * qi)
    return t @ pose_transform(chain["ee_offset"])


def rotation_half_angle(qa, qb) -> float:
    """Half the geodesic angle between two rotations, acos|qa . qb|."""
    c = abs(float(np.dot(qa, qb))) / (np.linalg.norm(qa) * np.linalg.norm(qb))
    return math.acos(min(1.0, c))


def tracking_loss(ref: list[dict], sim: list[dict]) -> float:
    """Mean translation error plus mean half rotation angle over paired poses."""
    n = min(len(ref), len(sim))
    lt = sum(float(np.linalg.norm(np.subtract(a["xyz"], b["xyz"]))) for a, b in zip(ref[:n], sim[:n]))
    lr = sum(rotation_half_angle(a["quat_wxyz"], b["quat_wxyz"]) for a, b in zip(ref[:n], sim[:n]))
    return (lt + lr) / n
