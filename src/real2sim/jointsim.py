"""Decoupled per-joint PD plant and the open-loop action-replay engine.

The plant replaces a full physics engine with independent second-order
joints: accel = (p (q_t - q) + d (v_t - v) - b v) / m, integrated by
semi-implicit Euler at the simulation frequency. Gravity and coupling are
absorbed into the identified effective parameters. The replay engine drives
a controller with a recorded action sequence and logs the end-effector pose
at every control tick.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainSpec, IkSettings, ik_dls, fk
from .controller import (
    Action,
    CtrlConfig,
    GoogleCtrlState,
    SimStepTargets,
    WidowXCtrlState,
    google_config,
    google_step,
    widowx_config,
    widowx_step,
)
from .geometry import Pose, pose_from_dict, pose_to_dict

__all__ = [
    "JointSimError",
    "PDParams",
    "JointDynamics",
    "TrajectoryRecord",
    "dyn_step",
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
        p = np.asarray(self.p, dtype=float).reshape(-1).copy()
        d = np.asarray(self.d, dtype=float).reshape(-1).copy()
        if p.shape != d.shape:
            raise JointSimError("p and d must have equal length")
        if np.any(p < 0.0) or np.any(d < 0.0):
            raise JointSimError("PD gains must be non-negative")
        p.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)

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
        m = np.asarray(self.inertia, dtype=float).reshape(-1).copy()
        b = np.asarray(self.damping, dtype=float).reshape(-1).copy()
        lo = np.asarray(self.lower, dtype=float).reshape(-1).copy()
        hi = np.asarray(self.upper, dtype=float).reshape(-1).copy()
        if not (m.shape == b.shape == lo.shape == hi.shape):
            raise JointSimError("dynamics vectors must have equal length")
        if np.any(m <= 0.0):
            raise JointSimError("joint inertia must be strictly positive")
        if np.any(b < 0.0):
            raise JointSimError("passive damping must be non-negative")
        for a in (m, b, lo, hi):
            a.setflags(write=False)
        object.__setattr__(self, "inertia", m)
        object.__setattr__(self, "damping", b)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

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
        if self.ctrl_frequency <= 0:
            raise JointSimError("ctrl_frequency must be positive")
        if self.joint_positions is not None:
            jp = np.asarray(self.joint_positions, dtype=float)
            if jp.ndim != 2 or jp.shape[0] != np_:
                raise JointSimError("joint_positions must align with ee_poses")
            jp = jp.copy()
            jp.setflags(write=False)
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
    def from_dict(d: dict) -> "TrajectoryRecord":
        try:
            actions = tuple(Action.from_dict(a) for a in d["actions"])
            poses = tuple(pose_from_dict(p) for p in d["ee_poses"])
            freq = float(d["ctrl_frequency"])
        except (KeyError, TypeError) as exc:
            raise JointSimError(f"trajectory record is missing a field: {exc}") from exc
        jp = d.get("joint_positions")
        return TrajectoryRecord(actions, poses, freq, None if jp is None else np.asarray(jp, dtype=float))

    @staticmethod
    def from_json(text: str) -> "TrajectoryRecord":
        return TrajectoryRecord.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def dyn_step(q, v, target_q, target_v, pd: PDParams, dyn: JointDynamics, dt: float):
    """Advance the decoupled PD plant one step of semi-implicit Euler.

    Positions are clamped to the joint limits with velocity zeroed at the
    stop, mirroring a hard mechanical end stop.
    """
    if dt <= 0.0:
        raise JointSimError("dt must be positive")
    accel = (pd.p * (target_q - q) + pd.d * (target_v - v) - dyn.damping * v) / dyn.inertia
    v_new = v + accel * dt
    q_new = q + v_new * dt
    clamped = np.clip(q_new, dyn.lower, dyn.upper)
    v_new = np.where(clamped != q_new, 0.0, v_new)
    return clamped, v_new


def _integrate_targets(q, v, targets: np.ndarray, pd: PDParams, dyn: JointDynamics, dt: float):
    """Run dyn_step semantics over a (k, n) array of position targets.

    Equivalent to k dyn_step calls with target_v = 0, reorganized for the
    replay hot loop (coefficients hoisted, in-place updates).
    """
    keep = 1.0 - (pd.d + dyn.damping) / dyn.inertia * dt
    gain = pd.p / dyn.inertia * dt
    lo = dyn.lower
    hi = dyn.upper
    limited = bool(np.any(np.isfinite(lo)) or np.any(np.isfinite(hi)))
    q = q.copy()
    v = v.copy()
    tmp = np.empty_like(q)
    qc = np.empty_like(q)
    for i in range(targets.shape[0]):
        np.subtract(targets[i], q, out=tmp)
        tmp *= gain
        v *= keep
        v += tmp
        np.multiply(v, dt, out=tmp)
        q += tmp
        if limited:
            np.maximum(q, lo, out=qc)
            np.minimum(qc, hi, out=qc)
            if not np.array_equal(qc, q):
                v[qc != q] = 0.0
                q[:] = qc
    return q, v


# longest run of ticks one table of matrix powers covers
_MAX_RUN = 256


def _plant_powers(pd: PDParams, dyn: JointDynamics, dt: float, ticks: int) -> np.ndarray:
    """Per-joint M^0 .. M^k, k = min(ticks, _MAX_RUN), as a (k + 1, n, 2, 2) array.

    One dyn_step with target_v = 0 maps the offset e = (q - target, v) of a
    joint from its resting point (target, 0) to M e, with
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
    """Run dyn_step semantics for ``ticks`` steps toward one held target.

    Equivalent to ``ticks`` dyn_step calls with target_v = 0: the offset
    from (target, 0) evolves as M^k e until a joint leaves its limits; that
    step is clamped and the closed form restarts from the clamped state.
    """
    while ticks:
        k = min(ticks, powers.shape[0] - 1)
        e_q = q - target
        qs = target + powers[1 : k + 1, :, 0, 0] * e_q + powers[1 : k + 1, :, 0, 1] * v
        out = (qs < dyn.lower) | (qs > dyn.upper)
        hit = out.any(axis=1)
        r = int(np.argmax(hit)) if hit.any() else k - 1
        v = powers[r + 1, :, 1, 0] * e_q + powers[r + 1, :, 1, 1] * v
        q = qs[r]
        if hit[r]:
            q = np.clip(q, dyn.lower, dyn.upper)
            v = np.where(out[r], 0.0, v)
        ticks -= r + 1
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
    actions,
    q_init,
    cfg: CtrlConfig | None,
    ik_settings: IkSettings | None,
    plan_sink: Callable[[int, SimStepTargets], None] | None = None,
    joint_log: list | None = None,
) -> list[Pose]:
    if dyn.n != chain.n or pd.n != chain.n:
        raise JointSimError("dynamics/PD vectors must match the chain joint count")
    cfg = cfg or default_config(controller_kind)
    if controller_kind not in (GOOGLE, WIDOWX):
        raise JointSimError(f"unknown controller kind {controller_kind!r}")
    q = np.asarray(q_init, dtype=float).reshape(-1).copy()
    if q.shape[0] != chain.n:
        raise JointSimError(f"q_init must have {chain.n} entries")
    v = np.zeros(chain.n)
    dt = 1.0 / cfg.h_sim
    if controller_kind == WIDOWX:
        powers = _plant_powers(pd, dyn, dt, cfg.ticks_per_step)
    poses = [fk(chain, q)]
    if joint_log is not None:
        joint_log.append(q.copy())
    g_state = GoogleCtrlState()
    w_state = WidowXCtrlState()
    for step_idx, action in enumerate(actions):
        if controller_kind == GOOGLE:
            # the gripper never feeds back into the arm: sensed gripper
            # state matters only at t=0, so a resting gripper is assumed
            targets, g_state = google_step(g_state, action, q, v, 0.0, 0.0, chain, cfg, ik_settings)
        else:
            targets, w_state = widowx_step(w_state, action, q, chain, cfg, ik_settings)
        if plan_sink is not None:
            plan_sink(step_idx, targets)
        if controller_kind == GOOGLE:
            q, v = _integrate_targets(q, v, targets.arm_q, pd, dyn, dt)
        else:
            q, v = _hold_target(q, v, targets.arm_q[0], targets.arm_q.shape[0], powers, dyn)
        poses.append(fk(chain, q))
        if joint_log is not None:
            joint_log.append(q.copy())
    return poses


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
    """Execute a recorded action sequence open loop; return simulated poses.

    The returned sequence starts at the initial pose and appends the pose
    after every action (length T+1); compare element-wise against
    ``rec.ee_poses`` truncated to the shorter of the two. ``plan_sink``, if
    given, is called as ``plan_sink(step_index, targets)`` with the
    SimStepTargets of every control step.
    """
    if q_init is None:
        if rec.joint_positions is not None:
            q_init = rec.joint_positions[0]
        else:
            q_init = initial_joint_positions(chain, rec.ee_poses[0])
    return _simulate(chain, dyn, pd, controller_kind, rec.actions, q_init, cfg, ik_settings, plan_sink)


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
    joint_log: list = []
    poses = _simulate(chain, dyn, pd, controller_kind, actions, q_init, cfg, ik_settings, joint_log=joint_log)
    return TrajectoryRecord(tuple(actions), tuple(poses), cfg.h_ctrl, np.stack(joint_log))


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
