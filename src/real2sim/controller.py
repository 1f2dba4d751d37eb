"""Deterministic per-tick controllers for the two simulated robot stacks.

Each control tick is a function of (B, ...) arrays: it steps B records in
lockstep, one action row each (a (B, 3) end-effector delta position and a
(B, 3, 3) delta rotation for the arm, a (B,) command for the gripper),
covers the floor(H_sim / H_ctrl) simulation steps of the control interval,
and takes and returns whatever state the caller threads to the next tick.
The Google Robot controller plans jerk-limited arm trajectories and samples
them at every simulation step; its gripper, which never feeds back into the
arm, is a separate tick on (B,) gripper states. The WidowX controller holds
a single joint-position target for the whole interval, chaining pose goals
off the previously commanded goal, and seeding their IK there, rather than
the sensed state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, fk, ik
from .profile import LimitSet, synchronize

__all__ = [
    "ControllerError",
    "CtrlConfig",
    "MAX_TICKS_PER_STEP",
    "GOOGLE_ARM_LIMITS",
    "GOOGLE_GRIP_LIMITS",
    "GOOGLE_GRIP_FILTER",
    "google_step",
    "google_grip_step",
    "widowx_step",
    "widowx_goal_pose",
]

logger = logging.getLogger(__name__)

GOOGLE_ARM_LIMITS = LimitSet(v_max=1.5, a_max=2.0, j_max=50.0)
GOOGLE_GRIP_LIMITS = LimitSet(v_max=1.0, a_max=7.0, j_max=50.0)
GOOGLE_GRIP_FILTER = 0.01  # gripper actions below this magnitude leave the goal unchanged
MAX_TICKS_PER_STEP = 10_000  # 60x the Google default of 167


class ControllerError(ValueError):
    """Raised for malformed controller inputs."""


@dataclass(frozen=True)
class CtrlConfig:
    """Simulation and control frequencies.

    ``ticks_per_step`` is floor(h_sim / h_ctrl), at most ``MAX_TICKS_PER_STEP``;
    the frequencies need not divide evenly.
    """

    h_sim: float = 501.0
    h_ctrl: float = 3.0

    def __post_init__(self):
        for name in ("h_sim", "h_ctrl"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ControllerError(f"{name} must be a positive finite frequency, got {value}")
        if self.h_sim < self.h_ctrl:
            raise ControllerError("h_sim must be at least h_ctrl")
        if self.h_sim / self.h_ctrl > MAX_TICKS_PER_STEP:  # per-step arrays grow with ticks x rows
            raise ControllerError(f"h_sim {self.h_sim} Hz over h_ctrl {self.h_ctrl} Hz is more than "
                                  f"{MAX_TICKS_PER_STEP} simulation steps per control step")

    @property
    def ticks_per_step(self) -> int:
        return int(self.h_sim // self.h_ctrl)


def _rows(x, chain: ChainSpec, count: int, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (count, chain.n):
        raise ControllerError(f"{what} must be ({count}, {chain.n}) arrays, one row per action")
    return a


def _ik_goals(tag: str, t: int, chain: ChainSpec, delta_pos: np.ndarray, delta_rot: np.ndarray, base: np.ndarray,
              ik_iters: int, fallback: str):
    """IK solutions of every row's goal, seeded at ``base``: the row's delta pose
    applied to the tool pose at ``base`` (the delta rotation about the tool origin)."""
    tool = fk(chain, base)
    goal_rot, goal_pos = widowx_goal_pose(tool[:, :3, 3], tool[:, :3, :3], delta_pos, delta_rot)
    q, res_pos, res_rot, ok, _ = ik(chain, goal_rot, goal_pos, base, ik_iters)
    for i in np.flatnonzero(~ok):
        logger.warning(
            "%s t=%d: IK did not converge (pos %.2e m, rot %.2e rad); %s", tag, t, res_pos[i], res_rot[i], fallback
        )
    return q


def google_step(
    t: int,
    delta_pos: np.ndarray,
    delta_rot: np.ndarray,
    q_arm: np.ndarray,
    v_arm: np.ndarray,
    chain: ChainSpec,
    cfg: CtrlConfig = CtrlConfig(),
    ik_iters: int = 200,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Control tick ``t`` of the Google Robot arm for B records in lockstep.

    With one (B, 3) ``delta_pos`` and (B, 3, 3) ``delta_rot`` action row and
    sensed (B, n) ``q_arm``/``v_arm`` rows per record, each arm is planned
    toward the IK solution of its delta-pose goal; returns the plans'
    position, velocity and acceleration at every simulation step of the
    control interval as (ticks, B, n) arrays.
    """
    q_arm = _rows(q_arm, chain, len(delta_pos), "sensed arm positions")
    v_arm = _rows(v_arm, chain, len(delta_pos), "sensed arm velocities")
    q_goal = _ik_goals("google_step", t, chain, delta_pos, delta_rot, q_arm, ik_iters, "planning toward best effort")
    # the plant can transiently exceed the planner's velocity bound, which the
    # planner rejects as a seed: clip like a deployed stack would
    v_max = GOOGLE_ARM_LIMITS.v_max
    plan = synchronize(q_arm, np.clip(v_arm, -v_max, v_max), q_goal, np.zeros_like(q_arm), GOOGLE_ARM_LIMITS)
    return plan.sample(np.arange(1, cfg.ticks_per_step + 1) / cfg.h_sim)


def google_grip_step(
    gripper: np.ndarray, goal: np.ndarray, q: np.ndarray, v: np.ndarray, cfg: CtrlConfig = CtrlConfig()
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One control tick of the Google Robot grippers of B records in lockstep.

    Each gripper is planned from its last planned (B,) position ``q`` and
    velocity ``v`` toward an accumulated position ``goal``: a (B,) ``gripper``
    command below GOOGLE_GRIP_FILTER in magnitude keeps the goal, any other
    sets it to the planned position plus the command. Returns the (ticks, B)
    position, velocity and acceleration at every simulation step, and the
    next (goal, q, v).
    """
    goal = np.where(np.abs(gripper) < GOOGLE_GRIP_FILTER, goal, q + gripper)
    v_max = GOOGLE_GRIP_LIMITS.v_max
    plan = synchronize(q[:, None], np.clip(v, -v_max, v_max)[:, None], goal[:, None], np.zeros((len(gripper), 1)),
                       GOOGLE_GRIP_LIMITS)
    q, v, a = (x[..., 0] for x in plan.sample(np.arange(1, cfg.ticks_per_step + 1) / cfg.h_sim))
    return (q, v, a), (goal, q[-1], v[-1])


def widowx_goal_pose(x: np.ndarray, r: np.ndarray, x_a: np.ndarray, r_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Goal rotations and positions of the delta poses (``x_a``, ``r_a``) applied
    about the current end-effector origins: (..., 3) positions, (..., 3, 3) rotations.

    The homogeneous product T(x, I) * T(x_a, R_a) * T(-x, I) * T(x, R)
    reduces to (R_a R, x + x_a), the goal of both controllers.
    """
    return r_a @ r, x + x_a


def widowx_step(
    t: int,
    delta_pos: np.ndarray,
    delta_rot: np.ndarray,
    q_lastgoal: np.ndarray,
    chain: ChainSpec,
    ik_iters: int = 200,
) -> np.ndarray:
    """Control tick ``t`` of the WidowX stack for B records in lockstep.

    Each record's pose goal, its (B, 3) ``delta_pos`` and (B, 3, 3)
    ``delta_rot`` row applied, chains off its previously commanded (B, n) joint
    goal ``q_lastgoal`` (the initial configuration at t = 0), which also seeds
    the IK: the goals never read the sensed state. Returns the (B, n) joint
    goals, held for the whole control interval.
    """
    base = _rows(q_lastgoal, chain, len(delta_pos), "previous joint goals")
    return _ik_goals("widowx_step", t, chain, delta_pos, delta_rot, base, ik_iters, "commanding best effort")
