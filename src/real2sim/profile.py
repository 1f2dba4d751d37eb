"""Time-optimal jerk-limited (seven-segment S-curve) trajectory generation.

Each 1-DOF profile moves from (q0, v0) to (q_goal, v_goal) with zero initial
and final acceleration under velocity/acceleration/jerk bounds. The profile
is accelerate / cruise / decelerate, where each velocity-change phase is a
jerk-limited bang-bang in acceleration (trapezoidal or triangular). The
cruise-less peak velocity is found in closed form for rest-to-rest moves and
by bisection otherwise.

All DOFs, of one record or of B records, are planned in one vectorised
pass (one bisection for every bracket of every row), stored as padded
(..., n, segment) arrays and sampled without a per-DOF loop.
``synchronize`` is the one entry point (a single DOF is its n = 1 case) and
``MotionPlan.sample`` the one sampling path. The DOFs of a record are
synchronized by per-DOF linear time scaling, which only slows motion and
therefore preserves all limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlanningError",
    "LimitSet",
    "MotionPlan",
    "synchronize",
]

_BISECT_MAX_ITERS = 200
_TINY_TIME = 1e-15
_GRID_POINTS = 513


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


def _accumulate(start: np.ndarray, *terms: np.ndarray) -> np.ndarray:
    """Per-row running sums that add terms[0][:, i], terms[1][:, i], ... one at a
    time, segment after segment, as a loop would; (n, k + 1) values at the knots."""
    steps = np.array(terms).transpose(1, 2, 0).reshape(start.shape[0], -1)
    return np.cumsum(np.concatenate([start[:, None], steps], axis=1), axis=1)[:, :: len(terms)]


@dataclass(frozen=True, eq=False)
class MotionPlan:
    """Per-DOF piecewise-constant-jerk profiles stretched to finish together.

    The boundary arrays are (n,) for one record or (B, n) for B records;
    ``durations``/``jerks`` add a segment axis, each row padded after its last
    segment with zero-length, zero-jerk segments. A DOF is sampled at
    t / ``scales``, so it reaches its goal at its record's ``duration`` (a
    float, or (B,)); sampling past it holds (q_goal, v_goal / scale, 0).
    """

    q0: np.ndarray
    v0: np.ndarray
    q_goal: np.ndarray
    v_goal: np.ndarray
    durations: np.ndarray
    jerks: np.ndarray
    duration: float | np.ndarray = field(init=False)
    scales: np.ndarray = field(init=False)

    def __post_init__(self):
        q0, v0, qg, vg = np.array([self.q0, self.v0, self.q_goal, self.v_goal], dtype=float)
        dur = np.array(self.durations, dtype=float)
        jrk = np.array(self.jerks, dtype=float)
        if dur.shape != jrk.shape or dur.shape[:-1] != q0.shape:
            raise PlanningError("durations and jerks must have equal length")
        if np.any(dur < 0.0):
            raise PlanningError("segment durations must be non-negative")
        d, j = dur.reshape(q0.size, -1), jrk.reshape(q0.size, -1)  # a row per DOF of every record
        zero = np.zeros(q0.size)
        # scalar pow: numpy's vectorised pow can differ from libm's in the last bit
        try:
            cubes = np.array([[t**3 for t in row] for row in d.tolist()]).reshape(d.shape)
        except OverflowError:  # if any cube overflows, the longest segment's does: name its DOF
            row, seg = np.unravel_index(np.argmax(d), d.shape)
            raise PlanningError(f"DOF {row % q0.shape[-1]}: a segment of {d[row, seg]:.3g} s overflows the "
                                f"float range of t**3") from None
        knots = _accumulate(zero, d)
        ak = _accumulate(zero, j * d)
        vk = _accumulate(v0.ravel(), ak[:, :-1] * d, 0.5 * j * d * d)
        qk = _accumulate(q0.ravel(), vk[:, :-1] * d, 0.5 * ak[:, :-1] * d * d, j * cubes / 6.0)
        # time, q, v, a and jerk at each knot; the last knot's jerk is 0
        table = np.array([knots, qk, vk, ak, np.concatenate([j, zero[:, None]], axis=1)])
        dq, dv = qk[:, -1] - qg.ravel(), vk[:, -1] - vg.ravel()
        for i in np.flatnonzero((np.abs(dq) > 1e-6) | (np.abs(dv) > 1e-6))[:1]:
            raise PlanningError(f"segments do not reproduce the goal state (dq={dq[i]:.3e}, dv={dv[i]:.3e})")
        ends = knots[:, -1].reshape(q0.shape)
        duration = ends.max(axis=-1)
        scales = np.divide(duration[..., None], ends, out=np.ones(q0.shape), where=ends > 0.0)
        for name, arr in (("q0", q0), ("v0", v0), ("q_goal", qg), ("v_goal", vg), ("durations", dur),
                          ("jerks", jrk), ("scales", scales), ("_ends", ends), ("_table", table)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "duration", duration)

    @property
    def n(self) -> int:
        return self.q0.shape[-1]

    def sample(self, t):
        """Per-DOF (q, v, a) arrays of shape ``t.shape + q0.shape`` at time(s) t.

        Times at or past a record's duration give its exact goals.
        """
        t = np.asarray(t, dtype=float)
        t = t.reshape(t.shape + (1,) * self.q0.ndim)
        s = self.scales
        tt = np.clip(t / s, 0.0, None)
        rows = tt.reshape(t.shape[: t.ndim - self.q0.ndim] + (-1,))
        knots = self._table[0]
        # the segment holding tt: padding knots equal the row's end, past every tt it serves
        idx = (knots[:, 1:] <= rows[..., None]).sum(axis=-1)
        k0, q0, v0, a0, j = self._table[:, np.arange(knots.shape[0]), idx].reshape((5,) + tt.shape)
        tau = tt - k0
        a = a0 + j * tau
        v = v0 + a0 * tau + 0.5 * j * tau * tau
        q = q0 + v0 * tau + 0.5 * a0 * tau * tau + j * tau**3 / 6.0
        done = (tt >= self._ends) | (t >= np.asarray(self.duration)[..., None])
        return (np.where(done, self.q_goal, q), np.where(done, self.v_goal, v) / s,
                np.where(done, 0.0, a) / (s * s))


def _cruiseless_distance(vp, ends, am: float, jm: float):
    """Displacement of the cruise-less profile with peak velocity vp (elementwise).

    ``ends`` holds v0 and v_goal on its first axis. Each phase covers
    mean-velocity * phase-time because the velocity curve is point-symmetric
    about the phase midpoint.
    """
    dv = np.abs(vp - ends)
    t = np.where(dv <= am * am / jm, 2.0 * np.sqrt(dv / jm), dv / am + am / jm)
    d = 0.5 * (ends + vp) * t
    return d[0] + d[1]


def _scan_roots(dq: np.ndarray, ends: np.ndarray, vm: float, am: float, jm: float) -> tuple[np.ndarray, np.ndarray]:
    """Peak velocities with cruise-less displacement equal to dq, per row.

    The displacement is piecewise smooth with sqrt-shaped humps near v0 and
    vg, so sign changes are located on a dense grid (plus the regime
    breakpoints) and refined by bisection. Returns row indices and roots.
    """
    c = am * am / jm
    v0, vg = ends
    grid = np.empty((dq.shape[0], _GRID_POINTS + 6))
    grid[:, :_GRID_POINTS] = np.linspace(-vm, vm, _GRID_POINTS)
    grid[:, _GRID_POINTS:] = np.clip(np.array([v0, vg, v0 - c, v0 + c, vg - c, vg + c]).T, -vm, vm)
    grid.sort(axis=1)
    g = _cruiseless_distance(grid, ends[..., None], am, jm) - dq[:, None]
    # np.unique would keep the first copy of a repeated value (its bits: -0.0
    # vs 0.0); later copies are no hits, and a bracket starts at the first copy
    fresh = np.ones(grid.shape, dtype=bool)
    fresh[:, 1:] = grid[:, 1:] != grid[:, :-1]
    first = np.maximum.accumulate(np.where(fresh, np.arange(grid.shape[1]), 0), axis=1)
    hit_rows, hit_cols = np.nonzero(fresh & (np.abs(g) <= 1e-15 * np.maximum(max(1.0, vm), np.abs(dq))[:, None]))
    rows, cols = np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)
    hits = grid[hit_rows, hit_cols]
    if not rows.size:
        return hit_rows, hits
    lo, hi, glo = grid[rows, first[rows, cols]], grid[rows, cols + 1], g[rows, cols]
    ends, dq = ends[:, rows], dq[rows]
    tol = 1e-12 * max(1.0, vm)
    active = np.ones(rows.shape, dtype=bool)
    for _ in range(_BISECT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        gm = _cruiseless_distance(mid, ends, am, jm) - dq
        left = glo * gm <= 0.0
        np.copyto(hi, mid, where=active & left)
        right = active & ~left
        np.copyto(lo, mid, where=right)
        np.copyto(glo, gm, where=right)
        active &= hi - lo > tol
        if not active.any():
            break
    # keep the end whose residual can be absorbed by a non-negative cruise
    g_lo, g_hi = _cruiseless_distance(np.array([lo, hi]), ends[:, None], am, jm) - dq
    roots = np.where(0.5 * (lo + hi) > 0.0, np.where(g_lo <= 0.0, lo, hi), np.where(g_hi >= 0.0, hi, lo))
    # within a row: grid hits, then bracket roots, each in grid order
    return np.concatenate([hit_rows, rows]), np.concatenate([hits, roots])


def _plan_rows(q0, v0, q_goal, v_goal, lim: LimitSet):
    """Fastest accelerate/cruise/decelerate profile of every row: the clipped
    boundary velocities and the (n, k) durations and jerks, padded to the
    longest row's segment count."""
    vm, am, jm = lim.v_max, lim.a_max, lim.j_max
    vals = np.array([q0, v0, q_goal, v_goal])
    bad = np.concatenate([~np.isfinite(vals), np.abs(vals[1::2]) > vm * (1.0 + 1e-9)])
    if bad.any():  # the first failing row's first failing check
        i, k = np.argwhere(bad.T)[0]
        raise PlanningError(("q0 is not finite", "v0 is not finite", "q_goal is not finite", "v_goal is not finite",
                             f"initial velocity {v0[i]} exceeds v_max {vm}",
                             f"goal velocity {v_goal[i]} exceeds v_max {vm}")[k])
    n = q0.shape[0]
    ends = np.clip(vals[1::2], -vm, vm)
    v0, vg = ends
    dq = q_goal - q0

    # candidate peak velocities, per row in tie-break order: +v_max, -v_max, then
    # the rest-to-rest closed form (a zero move gives the empty profile) or the roots
    c = am * am / jm
    rest = (v0 == 0.0) & (vg == 0.0)
    dist = np.abs(dq[rest])
    peak = 0.5 * (-c + np.sqrt(c * c + 4.0 * dist * am))
    tri = peak < c  # triangular phases: a cube root, in scalar pow as in MotionPlan
    peak[tri] = [x ** (1.0 / 3.0) for x in (dist[tri] * dist[tri] * jm / 4.0).tolist()]
    peak = np.copysign(np.minimum(peak, vm), dq[rest])
    moving = np.flatnonzero(~rest)
    root_rows, roots = _scan_roots(dq[moving], ends[:, moving], vm, am, jm) if moving.size else ([], [])
    d_hi, d_lo = _cruiseless_distance(np.array([[vm], [-vm]]), ends[:, None], am, jm)
    row = np.concatenate([np.arange(n), np.arange(n), np.flatnonzero(rest), moving[root_rows]])
    vp = np.concatenate([np.full(n, vm), np.full(n, -vm), peak, roots])
    ok = np.concatenate([dq >= d_hi, dq <= d_lo, np.ones(vp.shape[0] - 2 * n, dtype=bool)])

    # each velocity change (v0 to vp, vp to v_goal) is segments (tj, ta, tj),
    # ta = 0 when triangular; absent segments take zero time
    ends, dq = ends[:, row], dq[row]
    dv = np.array([vp - ends[0], ends[1] - vp])
    adv = np.abs(dv)
    on = adv >= 1e-15
    trap = on & (adv > c)
    tj = np.where(on, np.where(trap, am / jm, np.sqrt(adv / jm)), 0.0)
    ta = np.where(trap, adv / am - am / jm, 0.0)
    jerk = np.where(dv > 0.0, jm, -jm)
    d = 0.5 * (ends + vp) * ((tj + ta) + tj)
    rem = dq - d[0] - d[1]
    big = np.abs(vp) > 1e-9
    tc = np.divide(rem, vp, out=np.zeros_like(rem), where=big)
    ok &= np.where(big, tc >= -1e-6, np.abs(rem) <= 1e-6)
    cruise = big & (tc > _TINY_TIME)
    tc = np.where(cruise, tc, 0.0)
    zero = np.zeros_like(tc)
    seg_t = np.array([tj[0], ta[0], tj[0], tc, tj[1], ta[1], tj[1]])
    seg_j = np.array([jerk[0], zero, -jerk[0], zero, jerk[1], zero, -jerk[1]])
    seg_on = np.array([on[0], trap[0], on[0], cruise, on[1], trap[1], on[1]])
    # cumsum adds in segment order, as the knots do; absent segments add 0
    total = np.where(ok, np.cumsum(seg_t, axis=0)[-1], np.inf)
    # each row's first fastest candidate (lexsort is stable)
    order = np.lexsort((total, row))
    best = order[np.searchsorted(row[order], np.arange(n))]
    if np.isinf(total[best]).any():
        raise PlanningError("no feasible profile found (internal planner error)")

    seg_t, seg_j, seg_on = seg_t[:, best].T, seg_j[:, best].T, seg_on[:, best].T
    # present segments first, in order; the padding after them has zero time and jerk
    pick = (np.arange(n)[:, None], np.argsort(~seg_on, axis=1, kind="stable")[:, : seg_on.sum(axis=1).max()])
    return v0, vg, seg_t[pick], np.where(seg_on, seg_j, 0.0)[pick]


def synchronize(q0, v0, q_goal, v_goal, lim: LimitSet) -> MotionPlan:
    """Plan every DOF time-optimally under ``lim``, then slow each by T_max / T_dof.

    The boundary arrays are (n,) joint vectors, or (B, n) for B records that
    each get their own duration. Positions are sampled as q(t / scale), so
    scaling never tightens any limit and all DOFs of a record reach their
    goals exactly at its duration.
    """
    q0, v0, qg, vg = (np.asarray(x, dtype=float) for x in (q0, v0, q_goal, v_goal))
    if not (q0.shape == v0.shape == qg.shape == vg.shape) or q0.ndim not in (1, 2):
        raise PlanningError("synchronize needs joint vectors of one shape")
    if q0.shape[-1] == 0:
        raise PlanningError("synchronize needs at least one DOF")
    v0c, vgc, dur, jrk = _plan_rows(q0.ravel(), v0.ravel(), qg.ravel(), vg.ravel(), lim)
    lead = q0.shape + (-1,)
    return MotionPlan(q0, v0c.reshape(q0.shape), qg, vgc.reshape(q0.shape), dur.reshape(lead), jrk.reshape(lead))
