"""Synthetic benchmark fixtures: a 6-DOF arm and demonstration-like actions.

Used by the identification experiments and the test suite to build
deterministic, reachable-by-construction action sequences and the synthetic
gain-recovery problem.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chain import ChainSpec, JointSpec, fk
from .geometry import axis_angle_to_matrix
from .jointsim import TrajectoryRecord, synthesize_record

__all__ = ["arm_6dof", "fk_path_actions", "RecoverySetup", "recovery_setup"]


def arm_6dof(seed: int = 3) -> ChainSpec:
    """Anthropomorphic-ish 6R arm with slightly perturbed link frames."""
    rng = np.random.default_rng(seed)
    axes = [
        np.array([0.0, 0.0, 1.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
    ]
    joints = []
    for i, ax in enumerate(axes):
        origin = np.eye(4)
        origin[:3, :3] = axis_angle_to_matrix([1.0, 0.0, 0.0], rng.uniform(-0.1, 0.1))
        origin[:3, 3] = [0.25, 0.0, 0.1] if i else 0.0
        joints.append(JointSpec(f"j{i}", "revolute", origin, ax, -2.9, 2.9))
    tool = np.eye(4)
    tool[0, 3] = 0.1
    return ChainSpec(tuple(joints), ee_offset=tool)


def fk_path_actions(
    chain: ChainSpec,
    q0: np.ndarray,
    n_actions: int,
    rng: np.random.Generator,
    amp: float = 0.35,
    dphase: float = 0.5,
    gripper: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pose-delta actions along a smooth joint-space sweep, as (n_actions, 3) delta positions,
    (n_actions, 3, 3) delta rotations and (n_actions,) gripper commands.

    A controller replaying these actions chains its commanded goals along
    the swept fk path, so every IK target is reachable by construction,
    like actions recorded from a demonstrator.
    """
    amps = rng.uniform(0.3, 1.0, chain.n) * amp
    freqs = rng.uniform(0.4, 2.0, chain.n)
    phases = rng.uniform(0, 2 * np.pi, chain.n)
    qs = [q0 + amps * (np.sin(freqs * k * dphase + phases) - np.sin(phases)) for k in range(n_actions + 1)]
    poses = [fk(chain, q) for q in qs]
    steps = list(zip(poses[:-1], poses[1:]))
    return (np.array([b[:3, 3] - a[:3, 3] for a, b in steps]), np.array([b[:3, :3] @ a[:3, :3].T for a, b in steps]),
            np.full(n_actions, gripper))


class RecoverySetup(NamedTuple):
    """A gain-recovery problem: ``p_range`` and ``d_range`` are (2, n) search ranges, lower bounds in row 0."""

    chain: ChainSpec
    inertia: np.ndarray
    damping: np.ndarray
    p_true: np.ndarray
    d_true: np.ndarray
    ik_iters: int
    records: list[TrajectoryRecord]
    init_p: np.ndarray
    init_d: np.ndarray
    p_range: np.ndarray
    d_range: np.ndarray


def recovery_setup(n_records: int = 5, n_actions: int = 30, p_true: float = 80.0, d_true: float = 3.0,
                   controller_kind: str = "widowx") -> RecoverySetup:
    """Synthetic gain-recovery problem on ``arm_6dof`` under the WidowX (default) or Google controller.

    Records are replays under the true gains (rng seed 11). The initial
    guess is 2.5x the true stiffness and 0.6x the true damping, inside the
    (2, n) ranges ``p_range`` and ``d_range`` that span a factor of 10 around
    the truth, [x / sqrt(10), x sqrt(10)].
    """
    chain = arm_6dof()
    q0 = np.array([0.3, -0.5, 0.4, 0.1, 0.5, -0.2])
    inertia, damping, p, d = (np.full(chain.n, x) for x in (1.0, 0.3, p_true, d_true))
    ik_iters = 60
    rng = np.random.default_rng(11)
    actions = [fk_path_actions(chain, q0, n_actions, rng) for _ in range(n_records)]
    records = [synthesize_record(chain, inertia, damping, p, d, controller_kind, a, q0, ik_iters=ik_iters)
               for a in actions]
    s = np.sqrt(10.0)
    return RecoverySetup(chain, inertia, damping, p, d, ik_iters, records, p * 2.5, d * 0.6,
                         *(np.stack([x / s, x * s]) for x in (p, d)))
