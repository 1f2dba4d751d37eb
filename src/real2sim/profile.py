"""Time-optimal jerk-limited (seven-segment S-curve) trajectory generation.

Each 1-DOF profile moves from (q0, v0) to (q_goal, v_goal) with zero initial
and final acceleration under velocity/acceleration/jerk bounds. The profile
is accelerate / cruise / decelerate, where each velocity-change phase is a
jerk-limited bang-bang in acceleration (trapezoidal or triangular). The
cruise-less peak velocity is found in closed form where possible and by
bisection otherwise. Multi-DOF plans are synchronized by per-DOF linear time
scaling, which only slows motion and therefore preserves all limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlanningError",
    "LimitSet",
    "SegmentProfile",
    "MotionPlan",
    "plan_scurve_1d",
    "synchronize",
]

_BISECT_MAX_ITERS = 200
_TINY_TIME = 1e-15


class PlanningError(ValueError):
    """Raised for infeasible planning inputs (limit violations, bad bounds)."""


@dataclass(frozen=True)
class LimitSet:
    """Velocity, acceleration, and jerk bounds (units/s, /s^2, /s^3)."""

    v_max: float
    a_max: float
    j_max: float

    def __post_init__(self):
        for name in ("v_max", "a_max", "j_max"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise PlanningError(f"LimitSet.{name} must be strictly positive, got {v}")


@dataclass(frozen=True, eq=False)
class SegmentProfile:
    """Piecewise-constant-jerk profile; sampleable at any t >= 0.

    Sampling past the duration holds the terminal state (q_goal, v_goal, 0).
    """

    q0: float
    v0: float
    q_goal: float
    v_goal: float
    durations: np.ndarray
    jerks: np.ndarray

    def __post_init__(self):
        dur = np.array(self.durations, dtype=float).reshape(-1)
        jrk = np.array(self.jerks, dtype=float).reshape(-1)
        if dur.shape != jrk.shape:
            raise PlanningError("durations and jerks must have equal length")
        if np.any(dur < 0.0):
            raise PlanningError("segment durations must be non-negative")
        k = dur.shape[0]
        knots = np.concatenate([[0.0], np.cumsum(dur)])
        qk = np.empty(k + 1)
        vk = np.empty(k + 1)
        ak = np.empty(k + 1)
        qk[0], vk[0], ak[0] = self.q0, self.v0, 0.0
        for i in range(k):
            t = dur[i]
            j = jrk[i]
            qk[i + 1] = qk[i] + vk[i] * t + 0.5 * ak[i] * t * t + j * t**3 / 6.0
            vk[i + 1] = vk[i] + ak[i] * t + 0.5 * j * t * t
            ak[i + 1] = ak[i] + j * t
        if abs(qk[-1] - self.q_goal) > 1e-6 or abs(vk[-1] - self.v_goal) > 1e-6:
            raise PlanningError(
                f"segments do not reproduce the goal state "
                f"(dq={qk[-1] - self.q_goal:.3e}, dv={vk[-1] - self.v_goal:.3e})"
            )
        for name, arr in (("durations", dur), ("jerks", jrk), ("_knots", knots),
                          ("_qk", qk), ("_vk", vk), ("_ak", ak)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def duration(self) -> float:
        return float(self._knots[-1])

    def sample(self, t):
        """State (q, v, a) at time(s) ``t``; scalar in, scalar out."""
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        tt = np.clip(tt, 0.0, None)
        if self.durations.shape[0] == 0:
            q = np.full_like(tt, self.q_goal)
            v = np.full_like(tt, self.v_goal)
            a = np.zeros_like(tt)
        else:
            idx = np.clip(np.searchsorted(self._knots, tt, side="right") - 1, 0, self.durations.shape[0] - 1)
            tau = tt - self._knots[idx]
            j = self.jerks[idx]
            a0 = self._ak[idx]
            v0 = self._vk[idx]
            q0 = self._qk[idx]
            a = a0 + j * tau
            v = v0 + a0 * tau + 0.5 * j * tau * tau
            q = q0 + v0 * tau + 0.5 * a0 * tau * tau + j * tau**3 / 6.0
            done = tt >= self.duration
            q[done] = self.q_goal
            v[done] = self.v_goal
            a[done] = 0.0
        if np.ndim(t) == 0:
            return float(q[0]), float(v[0]), float(a[0])
        return q, v, a


def _phase_time_vec(dv: np.ndarray, am: float, jm: float) -> np.ndarray:
    tri = 2.0 * np.sqrt(dv / jm)
    trap = dv / am + am / jm
    return np.where(dv <= am * am / jm, tri, trap)


def _phase_segments(va: float, vb: float, am: float, jm: float) -> list[tuple[float, float]]:
    dv = vb - va
    adv = abs(dv)
    if adv < 1e-15:
        return []
    s = 1.0 if dv > 0.0 else -1.0
    if adv <= am * am / jm:
        tj = math.sqrt(adv / jm)
        return [(tj, s * jm), (tj, -s * jm)]
    tj = am / jm
    ta = adv / am - am / jm
    return [(tj, s * jm), (ta, 0.0), (tj, -s * jm)]


def _cruiseless_distance(vp, v0: float, vg: float, am: float, jm: float):
    """Displacement of the cruise-less profile with peak velocity vp.

    Each phase covers mean-velocity * phase-time because the velocity curve
    is point-symmetric about the phase midpoint.
    """
    vp = np.asarray(vp, dtype=float)
    t1 = _phase_time_vec(np.abs(vp - v0), am, jm)
    t2 = _phase_time_vec(np.abs(vg - vp), am, jm)
    return 0.5 * (v0 + vp) * t1 + 0.5 * (vp + vg) * t2


def _build(q0, v0, q_goal, vg, vp, am, jm) -> SegmentProfile | None:
    segs1 = _phase_segments(v0, vp, am, jm)
    segs2 = _phase_segments(vp, vg, am, jm)
    d1 = 0.5 * (v0 + vp) * sum(t for t, _ in segs1)
    d2 = 0.5 * (vp + vg) * sum(t for t, _ in segs2)
    rem = (q_goal - q0) - d1 - d2
    if abs(vp) > 1e-9:
        t_c = rem / vp
        if t_c < -1e-6:
            return None
        t_c = max(t_c, 0.0)
    else:
        if abs(rem) > 1e-6:
            return None
        t_c = 0.0
    segs = list(segs1)
    if t_c > _TINY_TIME:
        segs.append((t_c, 0.0))
    segs += segs2
    durations = np.array([t for t, _ in segs]) if segs else np.empty(0)
    jerks = np.array([j for _, j in segs]) if segs else np.empty(0)
    return SegmentProfile(q0, v0, q_goal, vg, durations, jerks)


def _rest_to_rest_peak(dist: float, am: float, jm: float) -> float:
    """Closed-form cruise-less peak velocity for a rest-to-rest move."""
    c = am * am / jm
    vp_trap = 0.5 * (-c + math.sqrt(c * c + 4.0 * dist * am))
    if vp_trap >= c:
        return vp_trap
    return (dist * dist * jm / 4.0) ** (1.0 / 3.0)


def _scan_roots(dq: float, v0: float, vg: float, vm: float, am: float, jm: float) -> list[float]:
    """Peak velocities with cruise-less displacement equal to dq.

    The displacement is piecewise smooth with sqrt-shaped humps near v0 and
    vg, so sign changes are located on a dense grid (plus the regime
    breakpoints) and refined by bisection.
    """
    c = am * am / jm
    breakpoints = [v0, vg, v0 - c, v0 + c, vg - c, vg + c]
    grid = np.concatenate([np.linspace(-vm, vm, 513), np.clip(breakpoints, -vm, vm)])
    grid = np.unique(grid)
    g = _cruiseless_distance(grid, v0, vg, am, jm) - dq
    tol = 1e-12 * max(1.0, vm)
    roots = []
    near_zero = np.abs(g) <= 1e-15 * max(1.0, vm, abs(dq))
    for x in grid[near_zero]:
        roots.append(float(x))
    sign_change = np.where(g[:-1] * g[1:] < 0.0)[0]
    for i in sign_change:
        lo, hi = float(grid[i]), float(grid[i + 1])
        glo = float(g[i])
        for _ in range(_BISECT_MAX_ITERS):
            mid = 0.5 * (lo + hi)
            gm = float(_cruiseless_distance(mid, v0, vg, am, jm)) - dq
            if glo * gm <= 0.0:
                hi = mid
            else:
                lo = mid
                glo = gm
            if hi - lo <= tol:
                break
        # keep the end whose residual can be absorbed by a non-negative cruise
        mid = 0.5 * (lo + hi)
        if mid > 0.0:
            root = lo if float(_cruiseless_distance(lo, v0, vg, am, jm)) - dq <= 0.0 else hi
        else:
            root = hi if float(_cruiseless_distance(hi, v0, vg, am, jm)) - dq >= 0.0 else lo
        roots.append(float(root))
    return roots


def plan_scurve_1d(q0: float, v0: float, q_goal: float, v_goal: float, lim: LimitSet) -> SegmentProfile:
    """Time-optimal seven-segment profile from (q0, v0) to (q_goal, v_goal).

    Initial acceleration is assumed zero. Boundary velocities must respect
    the velocity bound. The returned profile is the fastest member of the
    accelerate/cruise/decelerate family.
    """
    vm, am, jm = lim.v_max, lim.a_max, lim.j_max
    for name, v in (("q0", q0), ("v0", v0), ("q_goal", q_goal), ("v_goal", v_goal)):
        if not math.isfinite(v):
            raise PlanningError(f"{name} is not finite")
    if abs(v0) > vm * (1.0 + 1e-9):
        raise PlanningError(f"initial velocity {v0} exceeds v_max {vm}")
    if abs(v_goal) > vm * (1.0 + 1e-9):
        raise PlanningError(f"goal velocity {v_goal} exceeds v_max {vm}")
    v0 = min(max(v0, -vm), vm)
    vg = min(max(v_goal, -vm), vm)
    dq = q_goal - q0

    if dq == 0.0 and v0 == 0.0 and vg == 0.0:
        return SegmentProfile(q0, v0, q_goal, v_goal, np.empty(0), np.empty(0))

    candidates: list[SegmentProfile] = []

    def add(vp: float):
        prof = _build(q0, v0, q_goal, vg, vp, am, jm)
        if prof is not None:
            candidates.append(prof)

    d_hi = float(_cruiseless_distance(vm, v0, vg, am, jm))
    d_lo = float(_cruiseless_distance(-vm, v0, vg, am, jm))
    if dq >= d_hi:
        add(vm)
    if dq <= d_lo:
        add(-vm)
    if v0 == 0.0 and vg == 0.0:
        vp = _rest_to_rest_peak(abs(dq), am, jm)
        add(math.copysign(min(vp, vm), dq))
    else:
        for root in _scan_roots(dq, v0, vg, vm, am, jm):
            add(root)
    if not candidates:
        raise PlanningError("no feasible profile found (internal planner error)")
    return min(candidates, key=lambda p: p.duration)


@dataclass(frozen=True, eq=False)
class MotionPlan:
    """Per-DOF profiles stretched to finish together at ``duration``."""

    profiles: tuple[SegmentProfile, ...]
    duration: float
    scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))
        s = np.array(self.scales, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "scales", s)

    @property
    def n(self) -> int:
        return len(self.profiles)

    def sample(self, t):
        """Per-DOF (q, v, a) arrays of shape ``t.shape + (n,)`` at time(s) t.

        Times at or past the duration give the exact goals.
        """
        t = np.asarray(t, dtype=float)
        done = t >= self.duration
        q, v, a = [], [], []
        for prof, s in zip(self.profiles, self.scales):
            qi, vi, ai = prof.sample(t / s)
            q.append(np.where(done, prof.q_goal, qi))
            v.append(np.where(done, prof.v_goal / s, vi / s))
            a.append(np.where(done, 0.0, ai / (s * s)))
        return np.stack(q, axis=-1), np.stack(v, axis=-1), np.stack(a, axis=-1)


def synchronize(q0, v0, q_goal, v_goal, lim: LimitSet) -> MotionPlan:
    """Plan every DOF time-optimally under ``lim``, then slow each by T_max / T_dof.

    Positions are sampled as q(t / scale), so scaling never tightens any
    limit and all DOFs reach their goals exactly at the common duration.
    """
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    qg = np.asarray(q_goal, dtype=float)
    vg = np.asarray(v_goal, dtype=float)
    if not (q0.shape == v0.shape == qg.shape == vg.shape) or q0.ndim != 1:
        raise PlanningError("synchronize needs joint vectors of one shape")
    if q0.shape[0] == 0:
        raise PlanningError("synchronize needs at least one DOF")
    profiles = [plan_scurve_1d(q0[i], v0[i], qg[i], vg[i], lim) for i in range(q0.shape[0])]
    duration = max(p.duration for p in profiles)
    scales = np.array([duration / p.duration if p.duration > 0.0 else 1.0 for p in profiles])
    return MotionPlan(tuple(profiles), duration, scales)
