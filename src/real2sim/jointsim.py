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
from .chain import ChainError, ChainSpec, fk, ik
from .controller import ControllerError, CtrlConfig, google_grip_step, google_step, widowx_step
from .geometry import (GeometryError, _freeze, _transform, axis_angle_to_matrix, matrix_to_rotvec, pose_from_dict,
                       pose_to_dict, quat_to_rot)
from .profile import PlanningError

__all__ = [
    "JointSimError",
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


def _action_row(d, where: str) -> list[float]:
    """An action object as one row: delta position (3), delta rotation matrix (9, row-major) and gripper
    command; an error names the offending field under ``where``."""
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
            return [*xyz, *quat_to_rot(rot_values).flat, g]
        except GeometryError as exc:
            raise ControllerError(f"{where}.quat_wxyz: {exc}") from exc
    with np.errstate(over="ignore"):  # a norm past the float range is refused below
        angle = float(np.linalg.norm(rot_values))
    if angle == math.inf:
        raise ControllerError(f"{where}.rot_axis_angle: the rotation angle overflows a float")
    return [*xyz, *(np.eye(3) if angle < 1e-12 else axis_angle_to_matrix(rot_values, angle)).flat, g]


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Recorded actions, as (T, 3) ``delta_pos``, (T, 3, 3) ``delta_rot`` and (T,) ``gripper`` arrays,
    plus the reference end-effector poses as 4x4 homogeneous matrices.

    ``ee_poses[i]`` is the pose before action ``i``; the stack may carry one
    trailing pose (after the last action). ``joint_positions``, when present,
    holds the arm configuration at the same instants.
    """

    delta_pos: np.ndarray
    delta_rot: np.ndarray
    gripper: np.ndarray
    ee_poses: np.ndarray
    ctrl_frequency: float
    joint_positions: np.ndarray | None = None

    def __post_init__(self):
        for name in ("delta_pos", "delta_rot", "gripper", "ee_poses"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        na = len(self.gripper) if self.gripper.ndim == 1 else -1
        if self.delta_pos.shape != (na, 3) or self.delta_rot.shape != (na, 3, 3) or self.ee_poses.shape[1:] != (4, 4):
            raise JointSimError(f"delta_pos, delta_rot, gripper and ee_poses of shapes {self.delta_pos.shape}, "
                                f"{self.delta_rot.shape}, {self.gripper.shape} and {self.ee_poses.shape} are not "
                                f"(T, 3), (T, 3, 3), (T,) and (T or T+1, 4, 4)")
        np_ = len(self.ee_poses)
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
            "actions": [{"xyz": [float(v) for v in xyz], "rot_axis_angle": [float(v) for v in rv], "gripper": g}
                        for xyz, rv, g in zip(self.delta_pos, matrix_to_rotvec(self.delta_rot), self.gripper.tolist())],
            "ee_poses": [pose_to_dict(t) for t in self.ee_poses],
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
        rows = np.reshape([_action_row(a, f"{source}.actions[{i}]") for i, a in enumerate(d["actions"])], (-1, 13))
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
            return TrajectoryRecord(rows[:, :3], rows[:, 3:12].reshape(-1, 3, 3), rows[:, 12],
                                    np.reshape(poses, (-1, 4, 4)), freq, jp)
        except JointSimError as exc:
            raise JointSimError(f"{source}: {exc}") from exc


def _plant_input(x, name: str, where: str = "") -> np.ndarray:
    """``x`` as a float array of the plant input ``name``: the gains ``p`` and ``d`` and the passive ``damping``
    must be finite and non-negative, the ``inertia`` finite and positive. An error names ``where + name``."""
    a, gains = np.asarray(x, dtype=float), name in ("p", "d")
    if not np.isfinite(a).all():
        raise JointSimError(f"{where}{name}: {'PD gain' if gains else 'joint'} {name} must be finite")
    if name == "inertia" and not (a > 0.0).all():
        raise JointSimError(f"{where}{name}: joint inertia must be strictly positive")
    if not (a >= 0.0).all():
        raise JointSimError(f"{where}{name}: {'PD gains' if gains else 'passive damping'} must be non-negative")
    return a


def _check_plant(n: int, inertia, damping, p, d, dt: float, where: str = ""):
    """Each gain set's plant coefficients gain = p dt / m and keep = 1 - (d + b) dt / m as (K, n) arrays, from
    (n,) ``inertia`` and ``damping`` and (n,) or (K, n) gains ``p`` and ``d``, each checked by ``_plant_input``.
    Raises JointSimError unless the plant is also stable at the step ``dt``, naming the unstable gains by ``where``:
    semi-implicit Euler is stable only for p dt^2/m < 4 - 2 (d + b) dt/m on every joint of every gain set."""
    inertia, damping, p, d = (_plant_input(x, name) for x, name in
                              zip((inertia, damping, p, d), ("inertia", "damping", "p", "d")))
    if not (inertia.shape == damping.shape == (n,) and p.shape == d.shape and p.shape[-1:] == (n,) and p.ndim <= 2):
        raise JointSimError(f"inertia and damping must be ({n},) arrays and p and d ({n},) or (K, {n}) arrays of one "
                            f"shape, not {inertia.shape}, {damping.shape}, {p.shape} and {d.shape}")
    lhs, rhs = p * dt * dt / inertia, 4.0 - 2.0 * (d + damping) * dt / inertia
    for i in np.flatnonzero(~(lhs < rhs))[:1]:
        raise JointSimError(f"{where}PD gains are unstable at {1.0 / dt:g} Hz on joint {i % n}: "
                            f"p dt^2/m = {lhs.flat[i]:.3g} must stay below 4 - 2 (d + b) dt/m = {rhs.flat[i]:.3g}")
    return np.atleast_2d(p / inertia * dt), np.atleast_2d(1.0 - (d + damping) / inertia * dt)


def _integrate_targets(q, v, targets: np.ndarray, gain, keep, lower, upper, dt: float):
    """Step the (B, n) plant states, each row with its own coefficients (``_check_plant``) in the (B, n) ``gain`` and
    ``keep``, through (k, B, n) position targets, one semi-implicit Euler step (target velocity 0) per tick. Positions
    are clamped to ``lower`` and ``upper`` with velocity zeroed, as at a mechanical stop.

    The stops are found in one comparison pass over the whole interval; only
    an interval that reaches one is stepped again with a clamp every tick.
    """
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
                stop = (q_t < lower) | (q_t > upper)
                v_t[stop] = 0.0
                np.minimum(np.maximum(q_t, lower, out=q_t), upper, out=q_t)
        if clamp or not ((qs < lower).any() or (qs > upper).any()):
            return q_t.copy(), v_t


# longest run of ticks one table of matrix powers covers
_MAX_RUN = 256


def _plant_powers(gain: np.ndarray, keep: np.ndarray, dt: float, ticks: int) -> np.ndarray:
    """Per-joint M^0 .. M^k, k = min(ticks, _MAX_RUN), of K gain sets as a (k + 1, K, n, 2, 2) array.

    One plant step with target velocity 0 maps the offset e = (q - target, v)
    of a joint from its resting point (target, 0) to M e, with
    M = [[1 - dt g, dt c], [-g, c]], with g and c the (K, n) ``gain`` and ``keep`` of ``_check_plant``.
    """
    ticks = min(ticks, _MAX_RUN)
    powers = np.empty((ticks + 1, *gain.shape, 2, 2))
    powers[0] = np.eye(2)
    powers[1, ..., 0, 0] = 1.0 - dt * gain
    powers[1, ..., 0, 1] = dt * keep
    powers[1, ..., 1, 0] = -gain
    powers[1, ..., 1, 1] = keep
    k = 1
    while k < ticks:  # M^(k+1 .. k+j) from M^k and M^(1 .. j)
        j = min(k, ticks - k)
        powers[k + 1 : k + j + 1] = powers[k] @ powers[1 : j + 1]
        k += j
    return powers


def _hold_target(q, v, target: np.ndarray, ticks: int, powers: np.ndarray, sets: np.ndarray, lower, upper):
    """Advance the (B, n) plant states ``ticks`` steps toward held (B, n) targets, row b under gain set ``sets[b]``.

    Equivalent to ``ticks`` plant steps: a row's offset from (target, 0)
    evolves as M^k e until one of its joints leaves ``lower`` and ``upper``; that
    step is clamped and the row's closed form restarts from the clamped state.
    """
    rows, left = np.arange(q.shape[0]), np.full(q.shape[0], ticks)
    q, v = q.copy(), v.copy()
    while rows.size:
        k = min(int(left[rows].max()), powers.shape[0] - 1)
        tq, vr, e_q = target[rows], v[rows], q[rows] - target[rows]
        m_q = powers[1 : k + 1, :, :, 0]  # the q row of each M^j, taken per row below
        qs = tq + m_q[..., 0].take(sets[rows], axis=1) * e_q + m_q[..., 1].take(sets[rows], axis=1) * vr
        out = (qs < lower) | (qs > upper)
        hit = out.any(axis=2)
        # each row runs to its first end-stop tick, or to its last tick of this pass
        r = np.minimum(np.where(hit.any(axis=0), hit.argmax(axis=0), k), np.minimum(left[rows], k) - 1)
        cols = np.arange(rows.size)
        v[rows] = powers[r + 1, sets[rows], :, 1, 0] * e_q + powers[r + 1, sets[rows], :, 1, 1] * vr
        q[rows] = qs[r, cols]
        stopped = rows[hit[r, cols]]
        q[stopped] = np.minimum(np.maximum(q[stopped], lower), upper)
        v[stopped] = np.where(out[r, cols][hit[r, cols]], 0.0, v[stopped])
        left[rows] -= r + 1
        rows = rows[left[rows] > 0]
    return q, v


def default_config(controller_kind: str) -> CtrlConfig:
    if controller_kind == GOOGLE:
        return CtrlConfig()
    if controller_kind == WIDOWX:
        return CtrlConfig(500.0, 5.0)
    raise JointSimError(f"unknown controller kind {controller_kind!r} (want 'google' or 'widowx')")


def _step_major(actions) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The records' lengths, and their (delta_pos, delta_rot, gripper) actions as step-major (T, B, ...)
    arrays in record order (a finished record's slots are never read)."""
    lengths = np.array([len(g) for *_, g in actions])
    arrays = tuple(np.zeros((max(lengths), len(lengths), *shape)) for shape in ((3,), (3, 3), ()))
    for b, (n, action) in enumerate(zip(lengths, actions)):
        for array, x in zip(arrays, action):
            array[:n, b] = x
    return lengths, arrays


def _widowx_goals(chain: ChainSpec, actions, q_inits, ik_iters: int = 200) -> np.ndarray:
    """The WidowX joint goals of R records as a (T, R, n) table: row t holds the goals commanded at step t
    (a finished record's rows are never read). Each step is one widowx_step of the records still running.
    The goals chain off the (R, n) ``q_inits`` and never read the plant, so one table serves every gain set."""
    lengths, (delta_pos, delta_rot, _) = _step_major(actions)
    goals = np.zeros((max(lengths), len(lengths), chain.n))
    goal = np.array(q_inits, dtype=float)
    for step, row in enumerate(goals):
        run = np.flatnonzero(lengths > step)
        goal[run] = row[run] = widowx_step(step, delta_pos[step, run], delta_rot[step, run], goal[run], chain, ik_iters)
    return goals


def _tick(tick: Callable, step: int, run: np.ndarray, n_records: int):
    """``tick(run)`` on the running rows ``run``. A PlanningError is re-raised naming the step, as
    ``actions[<step>]: ...``, with the record (row % ``n_records``) of the first row whose tick alone
    fails as its ``record``."""
    try:
        return tick(run)
    except PlanningError as exc:
        for row in run.reshape(-1, 1):  # one-element index arrays
            try:
                tick(row)
            except PlanningError:
                break
        error = PlanningError(f"actions[{step}]: {exc}")
        error.record = int(row[0]) % n_records
        raise error from exc


def _simulate(
    chain: ChainSpec,
    inertia,
    damping,
    p,
    d,
    controller_kind: str,
    actions,
    q_inits,
    cfg: CtrlConfig | None,
    ik_iters: int = 200,
    plan_sink: Callable[[int, np.ndarray], None] | None = None,
    goals: np.ndarray | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Replay R action sequences from the (R, n) ``q_inits`` under each of the K gain sets of the (n,) or (K, n)
    gains ``p`` and ``d``, all K R rows in lockstep: row s R + r is record r under gain set s. The plant of joint j
    has the inertia ``inertia[j]`` and passive damping ``damping[j]``, and stops at the chain's limits.
    ``actions`` holds one (delta_pos, delta_rot, gripper) triple of (T, 3), (T, 3, 3) and (T,) arrays per record.

    Each control step is one batched controller tick and plant update of the rows still running (a
    shorter record is frozen after its last action). Row s R + r reads record r, at row % R, in the
    step-major actions and in the WidowX goals, the (T, R, n) table of ``_widowx_goals``, solved here
    unless ``goals`` holds it. The Google controller state lives here as arrays with one entry per row:
    the gripper goals and planned states, which never feed back into the arm and are planned only for
    ``plan_sink``. Returns each row's tool poses (T+1, 4, 4) and joint positions (T+1, n), initial and
    after every action, and raises ChainError if a tool pose is not finite. ``plan_sink(step, targets)`` gets
    every step's (ticks, m, 3n + 3) targets of the m rows still running, in row order: arm q, v and a, then
    gripper q, v and a. A tick's PlanningError is re-raised by ``_tick``, naming the step and the record.
    """
    default = default_config(controller_kind)  # rejects an unknown kind
    cfg = cfg or default
    q = np.array(q_inits, dtype=float, ndmin=2)
    if q.shape != (len(actions), chain.n):
        raise JointSimError(f"q_init must have {chain.n} entries per record")
    dt, ticks = 1.0 / cfg.h_sim, cfg.ticks_per_step
    gain, keep = _check_plant(chain.n, inertia, damping, p, d, dt)  # one row per gain set
    if controller_kind == WIDOWX and goals is None:
        goals = _widowx_goals(chain, actions, q, ik_iters)
    n_records, n_sets = len(q), len(gain)
    lengths, (delta_pos, delta_rot, gripper) = _step_major(actions)
    # the rows' lengths and initial states, and the gain set of each row
    lengths, q, sets = np.tile(lengths, n_sets), np.tile(q, (n_sets, 1)), np.repeat(np.arange(n_sets), n_records)
    v = np.zeros_like(q)
    powers = _plant_powers(gain, keep, dt, ticks) if controller_kind == WIDOWX else None
    grip = np.zeros((3, len(q)))  # gripper goal, position and velocity: a resting gripper at 0
    shape = (max(lengths) + 1, len(q))  # step-major: initial state, then one row per step
    tools, joints = np.zeros((*shape, 4, 4)), np.empty((*shape, chain.n))  # a finished row's poses stay finite
    tools[0], joints[0] = fk(chain, q), q
    for step in range(max(lengths)):
        run = np.flatnonzero(lengths > step)  # the rows still running
        if controller_kind == GOOGLE:
            arm = _tick(lambda s: google_step(step, delta_pos[step, s % n_records], delta_rot[step, s % n_records],
                                              q[s], v[s], chain, cfg, ik_iters), step, run, n_records)
            q[run], v[run] = _integrate_targets(q[run], v[run], arm[0], gain[sets[run]], keep[sets[run]], chain.lower,
                                                chain.upper, dt)
        else:
            q[run], v[run] = _hold_target(q[run], v[run], goals[step, run % n_records], ticks, powers, sets[run],
                                          chain.lower, chain.upper)
        if plan_sink is not None:
            m = len(run)
            if controller_kind == GOOGLE:
                grip_plan, grip[:, run] = _tick(lambda s: google_grip_step(gripper[step, s % n_records], *grip[:, s],
                                                                           cfg), step, run, n_records)
            else:  # the goal held for the whole interval, and the raw gripper command
                arm = (np.broadcast_to(goals[step, run % n_records], (ticks, m, chain.n)),
                       *np.zeros((2, ticks, m, chain.n)))
                grip_plan = (np.broadcast_to(gripper[step, run % n_records], (ticks, m)), *np.zeros((2, ticks, m)))
            plan_sink(step, np.concatenate([*arm, *(x[..., None] for x in grip_plan)], axis=2))
        tools[step + 1, run], joints[step + 1, run] = fk(chain, q[run]), q[run]
    if not np.isfinite(tools).all():  # finite joint values: the chain's FK overflowed
        raise ChainError("the replayed tool poses are not finite (its FK overflows a float)")
    return tuple([a[: n + 1, b] for b, n in enumerate(lengths)] for a in (tools, joints))


def replay_open_loop(
    chain: ChainSpec,
    inertia,
    damping,
    p,
    d,
    controller_kind: str,
    rec: TrajectoryRecord,
    cfg: CtrlConfig | None = None,
    ik_iters: int = 200,
    plan_sink=None,
) -> np.ndarray:
    """Execute one recorded action sequence open loop under the (n,) gains ``p`` and ``d`` on joints of (n,)
    ``inertia`` and passive ``damping``; return the simulated tool poses.

    This is the one-record case of the lockstep replay, which holds the
    controller state from tick to tick. It starts at ``initial_joint_positions`` of the record, and a fault of
    the record is raised with ``record`` 0. The returned (T+1, 4, 4) stack starts
    at the initial pose and appends the pose after every action; compare it
    against ``rec.ee_poses`` truncated to the shorter of the two. ``plan_sink``, if given, is called as
    ``plan_sink(step_index, targets)`` at every control step. ``targets`` is a
    (ticks, 1, 3n + 3) array: row k holds the targets applied at simulation
    step k + 1 of the interval, in the columns arm q, v and a (n each), then
    gripper q, v and a. The plant tracks the arm q only.
    """
    actions = [(rec.delta_pos, rec.delta_rot, rec.gripper)]
    return _simulate(chain, inertia, damping, p, d, controller_kind, actions, initial_joint_positions(chain, [rec]),
                     cfg, ik_iters, plan_sink)[0][0]


def synthesize_record(
    chain: ChainSpec,
    inertia,
    damping,
    p,
    d,
    controller_kind: str,
    actions,
    q_init,
    cfg: CtrlConfig | None = None,
    ik_iters: int = 200,
) -> TrajectoryRecord:
    """Run the simulator on a (delta_pos, delta_rot, gripper) action triple and package its output as a record."""
    cfg = cfg or default_config(controller_kind)
    (tools,), (joints,) = _simulate(chain, inertia, damping, p, d, controller_kind, [actions], [q_init], cfg, ik_iters)
    return TrajectoryRecord(*actions, tools, cfg.h_ctrl, joints)


def initial_joint_positions(chain: ChainSpec, records) -> np.ndarray:
    """The records' initial arm configurations as an (R, n) array: a record's first joint positions if it has
    them, which need one value per chain joint in each row, else the IK of its first pose, which must be a rigid
    transform. One ``ik`` call, from zeros and capped at 500 iterations, solves every such pose. An error names
    the field in the record, and its ``record`` is the record's index."""
    q, poses = np.zeros((len(records), chain.n)), {}
    for r, rec in enumerate(records):
        jp = rec.joint_positions
        try:
            if jp is None:
                poses[r] = _transform(rec.ee_poses[0], "ee_poses[0]")
            elif jp.shape[1] != chain.n:
                raise JointSimError(f"joint_positions: rows of {jp.shape[1]} values for a {chain.n}-joint chain")
            else:
                q[r] = jp[0]
        except (GeometryError, JointSimError) as exc:
            exc.record = r
            raise
    if poses:
        rows, t = list(poses), np.array(list(poses.values()))
        q[rows], res_pos, res_rot, ok, _ = ik(chain, t[:, :3, :3], t[:, :3, 3], np.zeros((len(t), chain.n)), 500)
        for i in np.flatnonzero(~ok)[:1]:
            error = JointSimError(f"ee_poses[0]: could not match the initial pose by IK "
                                  f"(pos residual {res_pos[i]:.2e} m, rot residual {res_rot[i]:.2e} rad)")
            error.record = rows[i]
            raise error
    return q
