"""Decoupled per-joint PD plant and the open-loop action-replay engine.

The plant replaces a full physics engine with independent second-order
joints: accel = (p (q_t - q) + d (v_t - v) - b v) / m, integrated by
semi-implicit Euler at the simulation frequency. Gravity and coupling are
absorbed into the identified effective parameters. The replay engine drives
a controller with recorded action sequences, all records in lockstep, and
logs the end-effector pose at every control tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import json_number, json_vector
from .chain import ChainSpec, IkSettings, _tools, ik_dls
from .controller import (
    Action,
    CtrlConfig,
    SimStepTargets,
    google_config,
    google_grip_step,
    google_step,
    widowx_config,
    widowx_step,
)
from .geometry import Pose, Rot3, _freeze, pose_from_dict, pose_to_dict

__all__ = [
    "JointSimError",
    "PDParams",
    "JointDynamics",
    "TrajectoryRecord",
    "replay_open_loop",
    "synthesize_record",
    "initial_joint_positions",
    "default_config",
]

GOOGLE = "google"
WIDOWX = "widowx"


class JointSimError(ValueError):
    """Raised for malformed plant or trajectory inputs."""


def _vec(x, n: int, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = np.full(n, float(a))
    if a.shape != (n,):
        raise JointSimError(f"{name} must be a scalar or length-{n} vector")
    return a


@dataclass(frozen=True, eq=False)
class PDParams:
    """Per-joint stiffness and damping gains."""

    p: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _freeze(self.p, -1))
        object.__setattr__(self, "d", _freeze(self.d, -1))
        if self.p.shape != self.d.shape:
            raise JointSimError("p and d must have equal length")
        if np.any(self.p < 0.0) or np.any(self.d < 0.0):
            raise JointSimError("PD gains must be non-negative")

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True, eq=False)
class JointDynamics:
    """Per-joint inertia and passive damping, plus position limits."""

    inertia: np.ndarray
    damping: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("inertia", "damping", "lower", "upper"):
            object.__setattr__(self, name, _freeze(getattr(self, name), -1))
        if not (self.inertia.shape == self.damping.shape == self.lower.shape == self.upper.shape):
            raise JointSimError("dynamics vectors must have equal length")
        if np.any(self.inertia <= 0.0):
            raise JointSimError("joint inertia must be strictly positive")
        if np.any(self.damping < 0.0):
            raise JointSimError("passive damping must be non-negative")

    @staticmethod
    def from_chain(chain: ChainSpec, inertia=1.0, damping=0.0) -> "JointDynamics":
        n = chain.n
        return JointDynamics(_vec(inertia, n, "inertia"), _vec(damping, n, "damping"), chain.lower, chain.upper)

    @property
    def n(self) -> int:
        return self.inertia.shape[0]


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Recorded action sequence plus the reference end-effector poses.

    ``ee_poses[i]`` is the pose before action ``i``; the list may carry one
    trailing pose (after the last action). ``joint_positions``, when present,
    holds the arm configuration at the same instants.
    """

    actions: tuple[Action, ...]
    ee_poses: tuple[Pose, ...]
    ctrl_frequency: float
    joint_positions: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "ee_poses", tuple(self.ee_poses))
        na, np_ = len(self.actions), len(self.ee_poses)
        if np_ not in (na, na + 1) or na == 0:
            raise JointSimError(f"{np_} poses do not align with {na} actions (want T or T+1)")
        if not 0.0 < self.ctrl_frequency < math.inf:
            raise JointSimError("ctrl_frequency must be positive and finite")
        if self.joint_positions is not None:
            jp = _freeze(self.joint_positions)
            if jp.ndim != 2 or jp.shape[0] != np_:
                raise JointSimError("joint_positions must align with ee_poses")
            if not np.isfinite(jp).all():
                raise JointSimError("joint_positions must be finite")
            object.__setattr__(self, "joint_positions", jp)

    def to_dict(self) -> dict:
        out = {
            "ctrl_frequency": self.ctrl_frequency,
            "actions": [a.to_dict() for a in self.actions],
            "ee_poses": [pose_to_dict(p) for p in self.ee_poses],
        }
        if self.joint_positions is not None:
            out["joint_positions"] = [[float(v) for v in row] for row in self.joint_positions]
        return out

    @staticmethod
    def from_dict(d: dict, source: str = "record") -> "TrajectoryRecord":
        """Parse a record object; an error names the offending field under ``source``."""
        if not isinstance(d, dict) or "ctrl_frequency" not in d or not all(
                isinstance(d.get(k), list) for k in ("actions", "ee_poses")):
            raise JointSimError(f"{source}: needs 'actions' and 'ee_poses' lists and 'ctrl_frequency'")
        actions = [Action.from_dict(a, f"{source}.actions[{i}]") for i, a in enumerate(d["actions"])]
        poses = [pose_from_dict(p, f"{source}.ee_poses[{i}]") for i, p in enumerate(d["ee_poses"])]
        freq = json_number(d["ctrl_frequency"], JointSimError(f"{source}.ctrl_frequency: expected a number"))
        jp = d.get("joint_positions")
        if jp is not None:
            error = JointSimError(f"{source}.joint_positions: expected equal-length lists of numbers")
            if not isinstance(jp, list):
                raise error
            width = len(jp[0]) if jp and isinstance(jp[0], list) else None
            jp = [json_vector(row, width, error) for row in jp]
        try:
            return TrajectoryRecord(actions, poses, freq, jp)
        except JointSimError as exc:
            raise JointSimError(f"{source}: {exc}") from exc


def _check_stable(pd: PDParams, dyn: JointDynamics, dt: float, error: type[ValueError] = JointSimError) -> None:
    """Semi-implicit Euler is stable only for p dt^2/m < 4 - 2 (d + b) dt/m on every joint."""
    lhs, rhs = pd.p * dt * dt / dyn.inertia, 4.0 - 2.0 * (pd.d + dyn.damping) * dt / dyn.inertia
    for i in np.flatnonzero(~(lhs < rhs))[:1]:
        raise error(f"PD gains are unstable at {1.0 / dt:g} Hz on joint {i}: "
                    f"p dt^2/m = {lhs[i]:.3g} must stay below 4 - 2 (d + b) dt/m = {rhs[i]:.3g}")


def _integrate_targets(q, v, targets: np.ndarray, pd: PDParams, dyn: JointDynamics, dt: float):
    """Step the (B, n) plant states through (k, B, n) position targets, one
    semi-implicit Euler step (target velocity 0) per tick. Positions are
    clamped to the joint limits with velocity zeroed, as at a mechanical stop.

    The stops are found in one comparison pass over the whole interval; only
    an interval that reaches one is stepped again with a clamp every tick.
    """
    keep = 1.0 - (pd.d + dyn.damping) / dyn.inertia * dt
    gain = pd.p / dyn.inertia * dt
    lo = dyn.lower
    hi = dyn.upper
    qs = np.empty(targets.shape)
    for clamp in (False, True):
        q_t, v_t, tmp = q, v.copy(), np.empty_like(v)
        for target, q_next in zip(targets, qs):
            np.subtract(target, q_t, out=tmp)
            tmp *= gain
            v_t *= keep
            v_t += tmp
            np.multiply(v_t, dt, out=tmp)
            q_t = np.add(q_t, tmp, out=q_next)
            if clamp:
                stop = (q_t < lo) | (q_t > hi)
                v_t[stop] = 0.0
                np.minimum(np.maximum(q_t, lo, out=q_t), hi, out=q_t)
        if clamp or not ((qs < lo).any() or (qs > hi).any()):
            return q_t.copy(), v_t


# longest run of ticks one table of matrix powers covers
_MAX_RUN = 256


def _plant_powers(pd: PDParams, dyn: JointDynamics, dt: float, ticks: int) -> np.ndarray:
    """Per-joint M^0 .. M^k, k = min(ticks, _MAX_RUN), as a (k + 1, n, 2, 2) array.

    One plant step with target velocity 0 maps the offset e = (q - target, v)
    of a joint from its resting point (target, 0) to M e, with
    M = [[1 - dt g, dt c], [-g, c]], g = p dt / m and c = 1 - (d + b) dt / m.
    """
    keep = 1.0 - (pd.d + dyn.damping) / dyn.inertia * dt
    gain = pd.p / dyn.inertia * dt
    ticks = min(ticks, _MAX_RUN)
    powers = np.empty((ticks + 1, gain.shape[0], 2, 2))
    powers[0] = np.eye(2)
    powers[1:2, :, 0, 0] = 1.0 - dt * gain
    powers[1:2, :, 0, 1] = dt * keep
    powers[1:2, :, 1, 0] = -gain
    powers[1:2, :, 1, 1] = keep
    k = 1
    while k < ticks:  # M^(k+1 .. k+j) from M^k and M^(1 .. j)
        j = min(k, ticks - k)
        powers[k + 1 : k + j + 1] = powers[k] @ powers[1 : j + 1]
        k += j
    return powers


def _hold_target(q, v, target: np.ndarray, ticks: int, powers: np.ndarray, dyn: JointDynamics):
    """Advance the (B, n) plant states ``ticks`` steps toward held (B, n) targets.

    Equivalent to ``ticks`` plant steps: a row's offset from (target, 0)
    evolves as M^k e until one of its joints leaves its limits; that step is
    clamped and the row's closed form restarts from the clamped state.
    """
    rows, left = np.arange(q.shape[0]), np.full(q.shape[0], ticks)
    q, v = q.copy(), v.copy()
    while rows.size:
        k = min(int(left[rows].max()), powers.shape[0] - 1)
        tq, vr, e_q = target[rows], v[rows], q[rows] - target[rows]
        qs = tq + powers[1 : k + 1, None, :, 0, 0] * e_q + powers[1 : k + 1, None, :, 0, 1] * vr
        out = (qs < dyn.lower) | (qs > dyn.upper)
        hit = out.any(axis=2)
        # each row runs to its first end-stop tick, or to its last tick of this pass
        r = np.minimum(np.where(hit.any(axis=0), hit.argmax(axis=0), k), np.minimum(left[rows], k) - 1)
        cols = np.arange(rows.size)
        v[rows] = powers[r + 1, :, 1, 0] * e_q + powers[r + 1, :, 1, 1] * vr
        q[rows] = qs[r, cols]
        stopped = rows[hit[r, cols]]
        q[stopped] = np.minimum(np.maximum(q[stopped], dyn.lower), dyn.upper)
        v[stopped] = np.where(out[r, cols][hit[r, cols]], 0.0, v[stopped])
        left[rows] -= r + 1
        rows = rows[left[rows] > 0]
    return q, v


def default_config(controller_kind: str) -> CtrlConfig:
    if controller_kind == GOOGLE:
        return google_config()
    if controller_kind == WIDOWX:
        return widowx_config()
    raise JointSimError(f"unknown controller kind {controller_kind!r} (want 'google' or 'widowx')")


def _simulate(
    chain: ChainSpec,
    dyn: JointDynamics,
    pd: PDParams,
    controller_kind: str,
    action_lists,
    q_inits,
    cfg: CtrlConfig | None,
    ik_settings: IkSettings | None,
    plan_sink: Callable[[int, SimStepTargets], None] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Replay B action sequences in lockstep from the (B, n) ``q_inits``.

    Each control step is one batched controller tick and plant update of the
    records still running (a shorter record is frozen after its last action).
    The controller state lives here as arrays with one row per record: the
    WidowX goals, and the Google gripper goals and planned states, which
    never feed back into the arm and are planned only for ``plan_sink``.
    Returns each record's tool poses (T+1, 4, 4) and joint positions (T+1, n),
    initial and after every action; ``plan_sink(step, targets)`` gets every step's targets.
    """
    if dyn.n != chain.n or pd.n != chain.n:
        raise JointSimError("dynamics/PD vectors must match the chain joint count")
    default = default_config(controller_kind)  # rejects an unknown kind
    cfg = cfg or default
    q = np.array(q_inits, dtype=float, ndmin=2)
    if q.shape != (len(action_lists), chain.n):
        raise JointSimError(f"q_init must have {chain.n} entries per record")
    dt, ticks = 1.0 / cfg.h_sim, cfg.ticks_per_step
    _check_stable(pd, dyn, dt)
    lengths = [len(actions) for actions in action_lists]
    # longest record first, so the records still running are always a prefix
    order = sorted(range(len(lengths)), key=lambda b: -lengths[b])
    q, v = q[order], np.zeros_like(q)
    powers = _plant_powers(pd, dyn, dt, ticks) if controller_kind == WIDOWX else None
    goal = None
    grip = np.zeros((3, len(order)))  # gripper goal, position and velocity: a resting gripper at 0
    shape = (max(lengths) + 1, len(order))  # step-major: initial state, then one row per step
    tools, joints = np.empty((*shape, 4, 4)), np.empty((*shape, chain.n))
    for step in range(-1, max(lengths)):  # step -1 only logs the initial state
        m = sum(n > step for n in lengths)  # the records still running: columns :m
        actions = [action_lists[b][step] for b in order[:m]] if step >= 0 else ()
        if actions and controller_kind == GOOGLE:
            arm = google_step(step, actions, q[:m], v[:m], chain, cfg, ik_settings)
            q[:m], v[:m] = _integrate_targets(q[:m], v[:m], arm[0], pd, dyn, dt)
        elif actions:
            goal = widowx_step(step, actions, q[:m], goal[:m] if step else None, chain, ik_settings)
            q[:m], v[:m] = _hold_target(q[:m], v[:m], goal, ticks, powers, dyn)
        if actions and plan_sink is not None:
            if controller_kind == GOOGLE:
                grip_plan, grip[:, :m] = google_grip_step(actions, *grip[:, :m], cfg)
            else:  # the goal held for the whole interval, and the raw gripper command
                arm = (np.broadcast_to(goal, (ticks, m, chain.n)), *np.zeros((2, ticks, m, chain.n)))
                grip_plan = (np.broadcast_to([a.gripper for a in actions], (ticks, m)), *np.zeros((2, ticks, m)))
            for j in range(m):
                plan_sink(step, SimStepTargets(*(x[:, j] for x in (*arm, *grip_plan))))
        tools[step + 1, :m], joints[step + 1, :m] = _tools(chain, q[:m]), q[:m]
    slots = np.argsort(order)  # record b is column slots[b]
    return tuple([a[: n + 1, i] for n, i in zip(lengths, slots)] for a in (tools, joints))


def replay_open_loop(
    chain: ChainSpec,
    dyn: JointDynamics,
    pd: PDParams,
    controller_kind: str,
    rec: TrajectoryRecord,
    q_init=None,
    cfg: CtrlConfig | None = None,
    ik_settings: IkSettings | None = None,
    plan_sink=None,
) -> list[Pose]:
    """Execute one recorded action sequence open loop; return simulated poses.

    This is the one-record case of the lockstep replay, which holds the
    controller state from tick to tick. The returned sequence starts at the
    initial pose and appends the pose after every action (length T+1);
    compare element-wise against ``rec.ee_poses`` truncated to the shorter of
    the two. ``plan_sink``, if given, is called as
    ``plan_sink(step_index, targets)`` with the SimStepTargets of every
    control step.
    """
    if q_init is None:
        q_init = _record_q_init(chain, rec)
    (tools,), _ = _simulate(chain, dyn, pd, controller_kind, [rec.actions], [q_init], cfg, ik_settings, plan_sink)
    return [Pose(Rot3(t[:3, :3]), t[:3, 3]) for t in tools]


def synthesize_record(
    chain: ChainSpec,
    dyn: JointDynamics,
    pd: PDParams,
    controller_kind: str,
    actions,
    q_init,
    cfg: CtrlConfig | None = None,
    ik_settings: IkSettings | None = None,
) -> TrajectoryRecord:
    """Run the simulator and package its own output as a reference record."""
    cfg = cfg or default_config(controller_kind)
    (tools,), (joints,) = _simulate(chain, dyn, pd, controller_kind, [actions], [q_init], cfg, ik_settings)
    return TrajectoryRecord(tuple(actions), tuple(Pose(Rot3(t[:3, :3]), t[:3, 3]) for t in tools), cfg.h_ctrl, joints)


def _record_q_init(chain: ChainSpec, rec: TrajectoryRecord, where: str = "joint_positions") -> np.ndarray:
    """A record's initial arm configuration: its first joint positions if it has them, else IK on its first pose.
    Joint positions need one value per chain joint in each row; an error names them as ``where``."""
    jp = rec.joint_positions
    if jp is not None and jp.shape[1] != chain.n:
        raise JointSimError(f"{where}: rows of {jp.shape[1]} values for a {chain.n}-joint chain")
    return initial_joint_positions(chain, rec.ee_poses[0]) if jp is None else jp[0]


def initial_joint_positions(
    chain: ChainSpec, pose: Pose, q_seed=None, settings: IkSettings | None = None
) -> np.ndarray:
    """Joint configuration matching a reference pose, found by IK."""
    seed = np.zeros(chain.n) if q_seed is None else np.asarray(q_seed, dtype=float)
    result = ik_dls(chain, pose, seed, settings or IkSettings(max_iters=500))
    if not result.converged:
        raise JointSimError(
            f"could not match the initial pose by IK "
            f"(pos residual {result.residual_pos:.2e} m, rot residual {result.residual_rot:.2e} rad)"
        )
    return result.q
