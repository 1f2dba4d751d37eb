"""Deterministic per-tick controllers for the two simulated robot stacks.

Each control tick steps B records in lockstep and covers the
floor(H_sim / H_ctrl) simulation steps of the control interval. The Google
Robot controller plans jerk-limited arm trajectories and samples them at
every simulation step; its gripper, which never feeds back into the arm, is a
separate one-record controller. The WidowX controller holds a single
joint-position target for the whole interval, chaining pose goals off the
previously commanded goal rather than the sensed state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import json_number, json_vector
from .chain import ChainSpec, IkSettings, _ik_rows, _tools
from .geometry import GeometryError, Pose, Rot3, UnitQuat, _freeze, axis_angle_to_matrix, matrix_to_rotvec, quat_to_rot
from .profile import LimitSet, plan_scurve_1d, synchronize

__all__ = [
    "ControllerError",
    "Action",
    "CtrlConfig",
    "GoogleCtrlState",
    "WidowXCtrlState",
    "SimStepTargets",
    "GOOGLE_ARM_LIMITS",
    "GOOGLE_GRIP_LIMITS",
    "GOOGLE_GRIP_FILTER",
    "google_config",
    "widowx_config",
    "google_step",
    "google_grip_step",
    "widowx_step",
    "widowx_goal_pose",
]

logger = logging.getLogger(__name__)

GOOGLE_ARM_LIMITS = LimitSet(v_max=1.5, a_max=2.0, j_max=50.0)
GOOGLE_GRIP_LIMITS = LimitSet(v_max=1.0, a_max=7.0, j_max=50.0)
GOOGLE_GRIP_FILTER = 0.01  # gripper actions below this magnitude leave the goal unchanged


class ControllerError(ValueError):
    """Raised for malformed controller inputs."""


@dataclass(frozen=True, eq=False)
class Action:
    """One policy action: end-effector delta pose plus a gripper command."""

    delta_pos: np.ndarray
    delta_rot: Rot3
    gripper: float

    def __post_init__(self):
        object.__setattr__(self, "delta_pos", _freeze(self.delta_pos, 3))

    @staticmethod
    def from_dict(d: dict, where: str = "action") -> "Action":
        """Parse an action object; an error names the offending field under ``where``."""
        if not isinstance(d, dict) or "xyz" not in d or "gripper" not in d or d.keys().isdisjoint(
                ("quat_wxyz", "rot_axis_angle")):
            raise ControllerError(f"{where}: needs 'xyz', 'gripper' and 'rot_axis_angle' or 'quat_wxyz'")
        xyz = json_vector(d["xyz"], 3, ControllerError(f"{where}.xyz: expected 3 numbers"))
        g = json_number(d["gripper"], ControllerError(f"{where}.gripper: expected a number"))
        rot_key, n = ("quat_wxyz", 4) if "quat_wxyz" in d else ("rot_axis_angle", 3)
        rot_values = json_vector(d[rot_key], n, ControllerError(f"{where}.{rot_key}: expected {n} numbers"))
        if not all(map(math.isfinite, [*xyz, g, *rot_values])):
            raise ControllerError(f"{where}: action values must be finite")
        if n == 4:
            try:
                rot = quat_to_rot(UnitQuat(*rot_values))
            except GeometryError as exc:
                raise ControllerError(f"{where}.quat_wxyz: {exc}") from exc
        else:
            angle = float(np.linalg.norm(rot_values))
            rot = Rot3(np.eye(3)) if angle < 1e-12 else Rot3(axis_angle_to_matrix(rot_values, angle))
        return Action(xyz, rot, g)

    def to_dict(self) -> dict:
        rv = matrix_to_rotvec(self.delta_rot.m)
        return {
            "xyz": [float(v) for v in self.delta_pos],
            "rot_axis_angle": [float(v) for v in rv],
            "gripper": self.gripper,
        }


@dataclass(frozen=True)
class CtrlConfig:
    """Simulation and control frequencies.

    ``ticks_per_step`` is floor(h_sim / h_ctrl); the frequencies need not
    divide evenly.
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

    @property
    def ticks_per_step(self) -> int:
        return int(self.h_sim // self.h_ctrl)


def google_config() -> CtrlConfig:
    return CtrlConfig(h_sim=501.0, h_ctrl=3.0)


def widowx_config() -> CtrlConfig:
    return CtrlConfig(h_sim=500.0, h_ctrl=5.0)


@dataclass(frozen=True)
class GoogleCtrlState:
    """Gripper state of one record threaded through google_grip_step calls."""

    t: int = 0
    q_lastgoal_grip: float = 0.0
    q_lastplan_grip: float = 0.0
    v_lastplan_grip: float = 0.0


@dataclass(frozen=True, eq=False)
class WidowXCtrlState:
    """Episode state of B records threaded through widowx_step calls; ``q_lastgoal`` is (B, n)."""

    t: int = 0
    q_lastgoal: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SimStepTargets:
    """Targets of one record for every simulation step of one control interval.

    Row k holds the targets applied at simulation step k + 1 of the
    interval: the arm fields are (ticks, n) arrays, the gripper fields
    (ticks,) arrays. The plant tracks ``arm_q`` only.
    """

    arm_q: np.ndarray
    arm_v: np.ndarray
    arm_a: np.ndarray
    grip_q: np.ndarray
    grip_v: np.ndarray
    grip_a: np.ndarray


def _rows(x, chain: ChainSpec, count: int, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != (count, chain.n):
        raise ControllerError(f"{what} must be ({count}, {chain.n}) arrays, one row per action")
    return a


def _ik_goals(tag: str, t: int, chain: ChainSpec, actions, base: np.ndarray, q_seed, ik_settings, fallback: str):
    """IK solutions of every row's goal: the action's delta pose applied to the
    tool pose at ``base`` (the delta rotation about the tool origin)."""
    tool = _tools(chain, base)
    goal_rot = np.array([a.delta_rot.m for a in actions]) @ tool[:, :3, :3]
    goal_pos = tool[:, :3, 3] + np.array([a.delta_pos for a in actions])
    q, res_pos, res_rot, ok, _ = _ik_rows(chain, goal_rot, goal_pos, q_seed, ik_settings or IkSettings())
    for i in np.flatnonzero(~ok):
        logger.warning(
            "%s t=%d: IK did not converge (pos %.2e m, rot %.2e rad); %s", tag, t, res_pos[i], res_rot[i], fallback
        )
    return q


def google_step(
    t: int,
    actions,
    q_arm: np.ndarray,
    v_arm: np.ndarray,
    chain: ChainSpec,
    cfg: CtrlConfig | None = None,
    ik_settings: IkSettings | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Control tick ``t`` of the Google Robot arm for B records in lockstep.

    With one action and sensed (B, n) ``q_arm``/``v_arm`` rows per record,
    each arm is planned toward the IK solution of its delta-pose goal; returns
    the plans' position, velocity and acceleration at every simulation step of
    the control interval as (ticks, B, n) arrays.
    """
    cfg = cfg or google_config()
    q_arm = _rows(q_arm, chain, len(actions), "sensed arm positions")
    v_arm = _rows(v_arm, chain, len(actions), "sensed arm velocities")
    q_goal = _ik_goals("google_step", t, chain, actions, q_arm, q_arm, ik_settings, "planning toward best effort")
    # the plant can transiently exceed the planner's velocity bound, which the
    # planner rejects as a seed: clip like a deployed stack would
    v_max = GOOGLE_ARM_LIMITS.v_max
    plan = synchronize(q_arm, np.clip(v_arm, -v_max, v_max), q_goal, np.zeros_like(q_arm), GOOGLE_ARM_LIMITS)
    return plan.sample(np.arange(1, cfg.ticks_per_step + 1) / cfg.h_sim)


def google_grip_step(
    state: GoogleCtrlState, action: Action, q_grip: float, cfg: CtrlConfig | None = None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], GoogleCtrlState]:
    """One control tick of the Google Robot gripper of one record.

    Plans toward an accumulated position goal (small gripper actions are
    filtered); returns the (ticks,) position, velocity and acceleration at
    every simulation step, and the next state. ``q_grip`` is read at t = 0 only.
    """
    cfg = cfg or google_config()
    if state.t == 0:
        state = GoogleCtrlState(t=0, q_lastgoal_grip=float(q_grip), q_lastplan_grip=float(q_grip))
    # accumulate on the planned state, filtering small actions
    if abs(action.gripper) < GOOGLE_GRIP_FILTER:
        grip_goal = state.q_lastgoal_grip
    else:
        grip_goal = state.q_lastplan_grip + action.gripper
    grip_plan = plan_scurve_1d(
        state.q_lastplan_grip,
        min(max(state.v_lastplan_grip, -GOOGLE_GRIP_LIMITS.v_max), GOOGLE_GRIP_LIMITS.v_max),
        grip_goal,
        0.0,
        GOOGLE_GRIP_LIMITS,
    )
    q, v, a = grip_plan.sample(np.arange(1, cfg.ticks_per_step + 1) / cfg.h_sim)
    new_state = GoogleCtrlState(
        t=state.t + 1, q_lastgoal_grip=float(grip_goal), q_lastplan_grip=float(q[-1]), v_lastplan_grip=float(v[-1])
    )
    return (q, v, a), new_state


def widowx_goal_pose(x: np.ndarray, r: Rot3, x_a: np.ndarray, r_a: Rot3) -> Pose:
    """Delta rotation applied about the current end-effector origin.

    The homogeneous product T(x, I) * T(x_a, R_a) * T(-x, I) * T(x, R)
    reduces to (x + x_a, R_a R), which ``widowx_step`` applies to every row.
    """
    return Pose(r_a @ r, x + x_a)


def widowx_step(
    state: WidowXCtrlState,
    actions,
    q_arm: np.ndarray,
    chain: ChainSpec,
    ik_settings: IkSettings | None = None,
) -> tuple[np.ndarray, WidowXCtrlState]:
    """One control tick of the WidowX stack for B records in lockstep.

    Each record's pose goal chains off its previously commanded joint goal
    (the sensed (B, n) ``q_arm`` only seeds the IK). Returns the (B, n) joint
    goals, held for the whole control interval, and the next state.
    """
    q_arm = _rows(q_arm, chain, len(actions), "sensed arm positions")
    q_lastgoal = q_arm if state.t == 0 else state.q_lastgoal
    q_goal = _ik_goals("widowx_step", state.t, chain, actions, q_lastgoal, q_arm, ik_settings, "commanding best effort")
    return q_goal, WidowXCtrlState(t=state.t + 1, q_lastgoal=q_goal)
