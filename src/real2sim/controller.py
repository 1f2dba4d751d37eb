"""Deterministic per-tick controllers for the two simulated robot stacks.

Each control tick returns one SimStepTargets record that covers the
floor(H_sim / H_ctrl) simulation steps of the control interval. The Google
Robot controller plans jerk-limited arm and gripper trajectories and samples
them at every simulation step. The WidowX controller holds a single
joint-position target for the whole interval, chaining pose goals off the
previously commanded goal rather than the sensed state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, IkSettings, ik_dls, fk
from .geometry import Pose, Rot3, UnitQuat, axis_angle_to_matrix, quat_to_rot
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
        p = np.asarray(self.delta_pos, dtype=float).reshape(3).copy()
        p.setflags(write=False)
        object.__setattr__(self, "delta_pos", p)

    @staticmethod
    def from_dict(d: dict) -> "Action":
        try:
            xyz = np.asarray(d["xyz"], dtype=float).reshape(3)
            g = float(d["gripper"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ControllerError(f"action needs 'xyz' and 'gripper': {d!r}") from exc
        if "quat_wxyz" in d:
            rot_values = [float(v) for v in d["quat_wxyz"]]
        elif "rot_axis_angle" in d:
            rot_values = np.asarray(d["rot_axis_angle"], dtype=float).reshape(3)
        else:
            raise ControllerError("action needs 'rot_axis_angle' or 'quat_wxyz'")
        if not np.all(np.isfinite(np.concatenate([xyz, [g], rot_values]))):
            raise ControllerError(f"action values must be finite: {d!r}")
        if "quat_wxyz" in d:
            rot = quat_to_rot(UnitQuat(*rot_values))
        else:
            angle = float(np.linalg.norm(rot_values))
            rot = Rot3(np.eye(3)) if angle < 1e-12 else Rot3(axis_angle_to_matrix(rot_values, angle))
        return Action(xyz, rot, g)

    def to_dict(self) -> dict:
        from .geometry import matrix_to_rotvec

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
        if self.h_sim <= 0 or self.h_ctrl <= 0:
            raise ControllerError("frequencies must be positive")
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
    """Episode state threaded through google_step calls."""

    t: int = 0
    q_lastgoal_grip: float = 0.0
    q_lastplan_grip: float = 0.0
    v_lastplan_grip: float = 0.0


@dataclass(frozen=True, eq=False)
class WidowXCtrlState:
    """Episode state threaded through widowx_step calls."""

    t: int = 0
    q_lastgoal: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SimStepTargets:
    """Targets for every simulation step of one control interval.

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


def _sanitize_velocity(v: np.ndarray, vmax: float) -> np.ndarray:
    # the plant can transiently exceed the planner's velocity bound; the
    # planner rejects such seeds, so clip like a deployed stack would
    out = np.clip(v, -vmax, vmax)
    if np.any(out != v):
        logger.debug("sensed velocity clipped to planner bound %.3f", vmax)
    return out


def google_step(
    state: GoogleCtrlState,
    action: Action,
    q_arm: np.ndarray,
    v_arm: np.ndarray,
    q_grip: float,
    v_grip: float,
    chain: ChainSpec,
    cfg: CtrlConfig | None = None,
    ik_settings: IkSettings | None = None,
) -> tuple[SimStepTargets, GoogleCtrlState]:
    """One control tick of the Google Robot stack.

    Plans the arm toward the IK solution of the delta-pose goal and the
    gripper toward an accumulated position goal (small gripper actions are
    filtered), then samples both plans at every simulation step of the
    control interval.
    """
    cfg = cfg or google_config()
    q_arm = np.asarray(q_arm, dtype=float).reshape(-1)
    v_arm = np.asarray(v_arm, dtype=float).reshape(-1)
    if q_arm.shape[0] != chain.n or v_arm.shape[0] != chain.n:
        raise ControllerError(f"sensed arm vectors must have {chain.n} entries")

    if state.t == 0:
        state = GoogleCtrlState(
            t=0,
            q_lastgoal_grip=float(q_grip),
            q_lastplan_grip=float(q_grip),
            v_lastplan_grip=0.0,
        )

    # arm: goal pose from the sensed configuration, IK seeded there
    ee = fk(chain, q_arm)
    goal = Pose(action.delta_rot @ ee.rot, ee.pos + action.delta_pos)
    ik = ik_dls(chain, goal, q_arm, ik_settings)
    if not ik.converged:
        logger.warning(
            "google_step t=%d: IK did not converge (pos %.2e m, rot %.2e rad); planning toward best effort",
            state.t, ik.residual_pos, ik.residual_rot,
        )
    arm_plan = synchronize(
        q_arm, _sanitize_velocity(v_arm, GOOGLE_ARM_LIMITS.v_max), ik.q, np.zeros(chain.n), GOOGLE_ARM_LIMITS
    )

    # gripper: accumulate on the planned state, filtering small actions
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

    ts = np.arange(1, cfg.ticks_per_step + 1) / cfg.h_sim
    targets = SimStepTargets(*arm_plan.sample(ts), *grip_plan.sample(ts))
    new_state = GoogleCtrlState(
        t=state.t + 1,
        q_lastgoal_grip=float(grip_goal),
        q_lastplan_grip=float(targets.grip_q[-1]),
        v_lastplan_grip=float(targets.grip_v[-1]),
    )
    return targets, new_state


def widowx_goal_pose(x: np.ndarray, r: Rot3, x_a: np.ndarray, r_a: Rot3) -> Pose:
    """Delta rotation applied about the current end-effector origin.

    The homogeneous product T(x, I) * T(x_a, R_a) * T(-x, I) * T(x, R)
    reduces to (x + x_a, R_a R).
    """
    return Pose(r_a @ r, x + x_a)


def widowx_step(
    state: WidowXCtrlState,
    action: Action,
    q_arm: np.ndarray,
    chain: ChainSpec,
    cfg: CtrlConfig | None = None,
    ik_settings: IkSettings | None = None,
) -> tuple[SimStepTargets, WidowXCtrlState]:
    """One control tick of the WidowX stack.

    The pose goal chains off the previously commanded joint goal (sensed
    positions only seed the IK); the gripper target is the raw action value.
    Both targets hold for the whole control interval, with zero velocity
    and acceleration.
    """
    cfg = cfg or widowx_config()
    q_arm = np.asarray(q_arm, dtype=float).reshape(-1)
    if q_arm.shape[0] != chain.n:
        raise ControllerError(f"sensed arm vector must have {chain.n} entries")

    q_lastgoal = q_arm if state.t == 0 else state.q_lastgoal
    ee = fk(chain, q_lastgoal)
    goal = widowx_goal_pose(ee.pos, ee.rot, action.delta_pos, action.delta_rot)
    ik = ik_dls(chain, goal, q_arm, ik_settings)
    if not ik.converged:
        logger.warning(
            "widowx_step t=%d: IK did not converge (pos %.2e m, rot %.2e rad); commanding best effort",
            state.t, ik.residual_pos, ik.residual_rot,
        )
    ticks = cfg.ticks_per_step
    zero_arm = np.zeros((ticks, chain.n))
    zero_grip = np.zeros(ticks)
    targets = SimStepTargets(
        np.broadcast_to(ik.q, (ticks, chain.n)), zero_arm, zero_arm,
        np.full(ticks, action.gripper), zero_grip, zero_grip,
    )
    return targets, WidowXCtrlState(t=state.t + 1, q_lastgoal=ik.q)
