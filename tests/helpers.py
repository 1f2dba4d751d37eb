"""Shared builders for test chains, rotations, and test-side oracles,
including the slow one-at-a-time references of the batched planner, gripper
tick, replay, replay loss and annealer, and the numpy references of the
plain-float statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from real2sim.bench import arm_6dof, fk_path_actions  # noqa: F401  (re-export)
from real2sim.chain import (IK_DAMPING, IK_MAX_STEP, IK_STALL_ITERS, IK_TOL_POS, IK_TOL_ROT, ChainSpec, IkResult,
                            JointSpec)
from real2sim.geometry import axis_angle_to_matrix, matrix_to_rotvec, quat_to_rot
from real2sim.metrics import DeltaSuccess, KruskalResult, MetricsError, ShiftEval, UndefinedStatisticError
from real2sim.profile import LimitSet, PlanningError
from real2sim.sysid import SysIdError, TrajectoryLosses


def transform(pos=(0.0, 0.0, 0.0), rot=np.eye(3)) -> np.ndarray:
    """The 4x4 homogeneous transform of a translation and a 3x3 rotation (default: none)."""
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = pos
    return t


def rot_z(angle: float) -> np.ndarray:
    return axis_angle_to_matrix([0.0, 0.0, 1.0], angle)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return quat_to_rot(v)


def half_turn(rng: np.random.Generator, r: np.ndarray) -> np.ndarray:
    """``r`` followed by half a turn about a random axis: the antipode of ``r`` in the rotation loss."""
    return r @ axis_angle_to_matrix(rng.normal(size=3), math.pi)


def planar_2link(l1: float = 1.0, l2: float = 1.0) -> ChainSpec:
    z = np.array([0.0, 0.0, 1.0])
    return ChainSpec(
        (
            JointSpec("j1", "revolute", np.eye(4), z, -2 * np.pi, 2 * np.pi),
            JointSpec("j2", "revolute", transform((l1, 0, 0)), z, -2 * np.pi, 2 * np.pi),
        ),
        ee_offset=transform((l2, 0, 0)),
    )


def planar_3link() -> ChainSpec:
    z = np.array([0.0, 0.0, 1.0])
    joints = [JointSpec("j1", "revolute", np.eye(4), z, -np.pi, np.pi)]
    for i in (2, 3):
        joints.append(JointSpec(f"j{i}", "revolute", transform((0.5, 0, 0)), z, -np.pi, np.pi))
    return ChainSpec(tuple(joints), ee_offset=transform((0.4, 0, 0)))


def random_serial_chain(rng: np.random.Generator, n: int) -> ChainSpec:
    """Random revolute chain with unit-ish links and non-degenerate axes."""
    joints = []
    for i in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rot = random_rotation(rng) if i else np.eye(3)
        origin = transform([rng.uniform(0.2, 0.5), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)], rot)
        joints.append(JointSpec(f"j{i}", "revolute", origin, axis, -np.pi, np.pi))
    return ChainSpec(tuple(joints), ee_offset=transform((0.1, 0, 0)))


def integrate_profile(plan, dt=1e-4):
    """Independent check of a one-DOF plan: trapezoid cumulative
    integration of its jerk segments on a dense grid."""
    q, v, a = plan.q0[0], plan.v0[0], 0.0
    for seg_t, seg_j in zip(plan.durations[0], plan.jerks[0]):
        m = max(2, int(np.ceil(seg_t / dt)) + 1)
        ts = np.linspace(0.0, seg_t, m)
        aa = a + seg_j * ts
        vv = v + np.concatenate([[0], np.cumsum(0.5 * (aa[1:] + aa[:-1]) * np.diff(ts))])
        qq = q + np.concatenate([[0], np.cumsum(0.5 * (vv[1:] + vv[:-1]) * np.diff(ts))])
        q, v, a = qq[-1], vv[-1], aa[-1]
    return q, v, a


def reference_ranks(values):
    """Average-fractional ranks by explicit grouping (test-side oracle)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def reference_kruskal_h(a, b):
    """Textbook tie-corrected two-group H, written independently."""
    pooled = list(a) + list(b)
    ranks = reference_ranks(pooled)
    n = len(pooled)
    na, nb = len(a), len(b)
    ra = sum(ranks[:na]) / na
    rb = sum(ranks[na:]) / nb
    grand = (n + 1) / 2
    h = 12.0 / (n * (n + 1)) * (na * (ra - grand) ** 2 + nb * (rb - grand) ** 2)
    ties: dict = {}
    for v in pooled:
        ties[v] = ties.get(v, 0) + 1
    corr = 1.0 - sum(t**3 - t for t in ties.values()) / (n**3 - n)
    if corr <= 0:
        return 0.0
    return h / corr


def permutation_midp(a, b, h_obs, n_resamples=100_000, seed=7):
    """Label-permutation p for the two-group H, mid-p tie convention.

    Shuffling binary labels only changes the ones-count in group a, so that
    count is sampled directly (hypergeometric). Ties at the observed
    statistic get half weight, which is the smoothed lattice tail the
    chi-square value approximates.
    """
    rng = np.random.default_rng(seed)
    ones = int(np.sum(a) + np.sum(b))
    zeros = len(a) + len(b) - ones
    if ones == 0 or zeros == 0:
        return 1.0
    ks = rng.hypergeometric(ones, zeros, len(a), size=n_resamples)
    uniq, counts = np.unique(ks, return_counts=True)
    above = equal = 0
    for k, c in zip(uniq, counts):
        aa = [1] * int(k) + [0] * (len(a) - int(k))
        bb = [1] * (ones - int(k)) + [0] * (zeros - (len(a) - int(k)))
        hv = reference_kruskal_h(aa, bb)
        if hv > h_obs + 1e-12:
            above += int(c)
        elif hv >= h_obs - 1e-12:
            equal += int(c)
    return (above + 0.5 * equal) / n_resamples


# ---------------------------------------------------------------------------
# numpy references of the statistics in real2sim.metrics, which computes them
# with plain floats. Both take every sum with math.fsum, exactly rounded, so
# each statistic must match its reference bit for bit.
# ---------------------------------------------------------------------------


def _ref_mean(a: np.ndarray) -> float:
    return math.fsum(a) / a.shape[0]


def _ref_paired(x, y):
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    if xa.shape != ya.shape:
        raise MetricsError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise MetricsError("need at least two observations")
    return xa, ya


def ref_pearson(x, y) -> float:
    xa, ya = _ref_paired(x, y)
    dx = xa - _ref_mean(xa)
    dy = ya - _ref_mean(ya)
    sx = math.sqrt(math.fsum(dx * dx))
    sy = math.sqrt(math.fsum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedStatisticError("correlation undefined: an input has zero variance")
    return math.fsum(dx * dy) / (sx * sy)


def ref_fractional_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.shape[0])
    i = 0
    while i < x.shape[0]:
        j = i
        while j + 1 < x.shape[0] and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def ref_spearman(x, y) -> float:
    xa, ya = _ref_paired(x, y)
    return ref_pearson(ref_fractional_ranks(xa), ref_fractional_ranks(ya))


def ref_delta_success(s: ShiftEval) -> DeltaSuccess:
    diffs = np.array(s.variant_rates) - s.base_rate
    return DeltaSuccess(_ref_mean(diffs), _ref_mean(np.abs(diffs)))


def ref_kruskal_wallis(a, b) -> KruskalResult:
    aa = np.asarray(a, dtype=float).reshape(-1)
    bb = np.asarray(b, dtype=float).reshape(-1)
    if aa.shape[0] == 0 or bb.shape[0] == 0:
        raise MetricsError("both groups must be non-empty")
    pooled = np.concatenate([aa, bb])
    n = pooled.shape[0]
    ranks = ref_fractional_ranks(pooled)
    r_a = ranks[: aa.shape[0]]
    r_b = ranks[aa.shape[0] :]
    grand = 0.5 * (n + 1)
    h_unc = (12.0 / (n * (n + 1))) * (
        aa.shape[0] * (_ref_mean(r_a) - grand) ** 2 + bb.shape[0] * (_ref_mean(r_b) - grand) ** 2
    )
    _, counts = np.unique(pooled, return_counts=True)
    correction = 1.0 - float(np.sum(counts.astype(float) ** 3 - counts)) / (n**3 - n)
    if correction <= 0.0:
        return KruskalResult(0.0, 1.0)
    h = h_unc / correction
    return KruskalResult(float(h), math.erfc(math.sqrt(float(h) / 2.0)))  # the chi-square (1 dof) tail


def ref_aggregate_grouped(rates) -> list[float]:
    if len(rates) == 0:
        raise MetricsError("no groups to aggregate")
    out = []
    for i, group in enumerate(rates):
        g = np.asarray(group, dtype=float).reshape(-1)
        if g.shape[0] == 0:
            raise MetricsError(f"group {i} is empty")
        out.append(_ref_mean(g))
    return out


def ref_action_mse(pred, gt) -> float:
    pa = np.asarray(pred, dtype=float)
    ga = np.asarray(gt, dtype=float)
    if pa.shape != ga.shape:
        raise MetricsError(f"shape mismatch: {pa.shape} vs {ga.shape}")
    if pa.size == 0:
        raise MetricsError("empty action arrays")
    return _ref_mean(((pa - ga) ** 2).reshape(-1))


def ref_mmrv(real, sim) -> float:
    """Mean of each policy's worst violation, from a masked matrix of real-rate gaps."""
    real = np.asarray(real, dtype=float)
    sim = np.asarray(sim, dtype=float)
    flipped = (sim[:, None] < sim[None, :]) != (real[:, None] < real[None, :])
    worst = np.where(flipped, np.abs(real[:, None] - real[None, :]), 0.0).max(axis=1)
    return _ref_mean(worst)


# ---------------------------------------------------------------------------
# Slow reference planner: the scalar, one-DOF-at-a-time S-curve planner that
# the batched real2sim.profile replaces. The batched planner must reproduce
# its roots, segments and durations bit for bit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RefProfile:
    """Piecewise-constant-jerk profile with a per-segment knot loop."""

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


def _ref_phase_time(dv, am, jm):
    tri = 2.0 * np.sqrt(dv / jm)
    trap = dv / am + am / jm
    return np.where(dv <= am * am / jm, tri, trap)


def _ref_phase_segments(va, vb, am, jm):
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


def ref_cruiseless_distance(vp, v0, vg, am, jm):
    vp = np.asarray(vp, dtype=float)
    t1 = _ref_phase_time(np.abs(vp - v0), am, jm)
    t2 = _ref_phase_time(np.abs(vg - vp), am, jm)
    return 0.5 * (v0 + vp) * t1 + 0.5 * (vp + vg) * t2


def _ref_build(q0, v0, q_goal, vg, vp, am, jm):
    segs1 = _ref_phase_segments(v0, vp, am, jm)
    segs2 = _ref_phase_segments(vp, vg, am, jm)
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
    if t_c > 1e-15:
        segs.append((t_c, 0.0))
    segs += segs2
    durations = np.array([t for t, _ in segs]) if segs else np.empty(0)
    jerks = np.array([j for _, j in segs]) if segs else np.empty(0)
    return RefProfile(q0, v0, q_goal, vg, durations, jerks)


def _ref_rest_to_rest_peak(dist, am, jm):
    c = am * am / jm
    vp_trap = 0.5 * (-c + math.sqrt(c * c + 4.0 * dist * am))
    if vp_trap >= c:
        return vp_trap
    return (dist * dist * jm / 4.0) ** (1.0 / 3.0)


def ref_scan_roots(dq, v0, vg, vm, am, jm):
    """Scalar root scan: a unique 519-point grid, then one bisection per bracket."""
    c = am * am / jm
    breakpoints = [v0, vg, v0 - c, v0 + c, vg - c, vg + c]
    grid = np.concatenate([np.linspace(-vm, vm, 513), np.clip(breakpoints, -vm, vm)])
    grid = np.unique(grid)
    g = ref_cruiseless_distance(grid, v0, vg, am, jm) - dq
    tol = 1e-12 * max(1.0, vm)
    roots = []
    near_zero = np.abs(g) <= 1e-15 * max(1.0, vm, abs(dq))
    for x in grid[near_zero]:
        roots.append(float(x))
    sign_change = np.where(g[:-1] * g[1:] < 0.0)[0]
    for i in sign_change:
        lo, hi = float(grid[i]), float(grid[i + 1])
        glo = float(g[i])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = float(ref_cruiseless_distance(mid, v0, vg, am, jm)) - dq
            if glo * gm <= 0.0:
                hi = mid
            else:
                lo = mid
                glo = gm
            if hi - lo <= tol:
                break
        mid = 0.5 * (lo + hi)
        if mid > 0.0:
            root = lo if float(ref_cruiseless_distance(lo, v0, vg, am, jm)) - dq <= 0.0 else hi
        else:
            root = hi if float(ref_cruiseless_distance(hi, v0, vg, am, jm)) - dq >= 0.0 else lo
        roots.append(float(root))
    return roots


def ref_plan_scurve_1d(q0, v0, q_goal, v_goal, lim: LimitSet) -> RefProfile:
    """Scalar planner: every candidate built as a profile, the fastest kept."""
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
        return RefProfile(q0, v0, q_goal, v_goal, np.empty(0), np.empty(0))
    candidates = []

    def add(vp):
        prof = _ref_build(q0, v0, q_goal, vg, vp, am, jm)
        if prof is not None:
            candidates.append(prof)

    d_hi = float(ref_cruiseless_distance(vm, v0, vg, am, jm))
    d_lo = float(ref_cruiseless_distance(-vm, v0, vg, am, jm))
    if dq >= d_hi:
        add(vm)
    if dq <= d_lo:
        add(-vm)
    if v0 == 0.0 and vg == 0.0:
        vp = _ref_rest_to_rest_peak(abs(dq), am, jm)
        add(math.copysign(min(vp, vm), dq))
    else:
        for root in ref_scan_roots(dq, v0, vg, vm, am, jm):
            add(root)
    if not candidates:
        raise PlanningError("no feasible profile found (internal planner error)")
    return min(candidates, key=lambda p: p.duration)


# ---------------------------------------------------------------------------
# Slow reference replay: one record at a time, the scalar kinematics and DLS
# IK loop, the per-tick plant step and the per-row held-target closed form
# that the lockstep real2sim.jointsim replay replaces.
# ---------------------------------------------------------------------------


def dyn_step(q, v, target_q, target_v, pd, dyn, dt: float):
    """Advance the decoupled PD plant one step of semi-implicit Euler.

    Positions are clamped to the joint limits with velocity zeroed at the
    stop, mirroring a hard mechanical end stop.
    """
    accel = (pd.p * (target_q - q) + pd.d * (target_v - v) - dyn.damping * v) / dyn.inertia
    v_new = v + accel * dt
    q_new = q + v_new * dt
    clamped = np.clip(q_new, dyn.lower, dyn.upper)
    v_new = np.where(clamped != q_new, 0.0, v_new)
    return clamped, v_new


def ref_frames(chain: ChainSpec, q: np.ndarray) -> np.ndarray:
    """World transform (n, 4, 4) of every joint frame of one configuration."""
    coef = np.array([np.ones(chain.n), np.sin(q), 1.0 - np.cos(q), q])
    local = np.einsum("kn,knij->nij", coef, chain._basis)
    for i in range(1, chain.n):
        np.matmul(local[i - 1], local[i], out=local[i])
    return local


def ref_fk(chain: ChainSpec, q) -> np.ndarray:
    return ref_frames(chain, np.clip(q, chain.lower, chain.upper))[-1] @ chain.ee_offset


def ref_rot_frobenius_loss(a: np.ndarray, b: np.ndarray) -> float:
    """One pair at a time: arcsin(|a - b|_F / (2 sqrt 2)), the argument clamped to [0, 1]."""
    fro = np.linalg.norm(a - b)
    return math.asin(min(1.0, fro / (2.0 * math.sqrt(2.0))))


def ref_trajectory_losses(ref, sim) -> TrajectoryLosses:
    """Pose by pose: mean translation and rotation losses between two sequences of 4x4 transforms."""
    if len(ref) == 0:
        raise SysIdError("empty pose sequences")
    if len(ref) != len(sim):
        raise SysIdError(f"length mismatch: {len(ref)} reference vs {len(sim)} simulated poses")
    l_t = 0.0
    l_r = 0.0
    for a, b in zip(ref, sim):
        l_t += float(np.linalg.norm(a[:3, 3] - b[:3, 3]))
        l_r += ref_rot_frobenius_loss(a[:3, :3], b[:3, :3])
    l_t /= len(ref)
    l_r /= len(ref)
    return TrajectoryLosses(l_t, l_r, l_t + l_r)


_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_i, _j, _k] = 1.0
    _LEVI[_i, _k, _j] = -1.0


def ref_jacobian_from_frames(chain: ChainSpec, frames: np.ndarray, p_tool) -> np.ndarray:
    revolute = np.array([j.kind == "revolute" for j in chain.joints])
    axes_w = np.einsum("nij,nj->in", frames[:, :3, :3], chain._axes)
    lin = np.einsum("ijk,jn,kn->in", _LEVI, axes_w, p_tool[:, None] - frames[:, :3, 3].T)
    return np.concatenate([np.where(revolute, lin, axes_w), np.where(revolute, axes_w, 0.0)])


def ref_ik_dls(chain: ChainSpec, target: np.ndarray, q_seed, max_iters: int = 200) -> IkResult:
    """The scalar DLS loop: one configuration, Python-float bookkeeping, and
    the same stop once the best residual has not improved for IK_STALL_ITERS."""
    q = np.clip(np.asarray(q_seed, dtype=float), chain.lower, chain.upper)
    damp = (IK_DAMPING**2) * np.eye(6)
    best_q, best_pos, best_rot, best_it = q.copy(), math.inf, math.inf, 0
    converged = False
    iterations = 0
    for it in range(max_iters + 1):
        frames = ref_frames(chain, q)
        tool = frames[-1] @ chain.ee_offset
        p = tool[:3, 3]
        e_pos = target[:3, 3] - p
        e_rot = matrix_to_rotvec(target[:3, :3] @ tool[:3, :3].T)
        res_pos = math.sqrt(e_pos @ e_pos)
        res_rot = math.sqrt(e_rot @ e_rot)
        if res_pos + res_rot < best_pos + best_rot:
            best_q, best_pos, best_rot, best_it = q.copy(), res_pos, res_rot, it
        iterations = it
        if res_pos <= IK_TOL_POS and res_rot <= IK_TOL_ROT:
            converged = True
            break
        if it == max_iters or it - best_it == IK_STALL_ITERS:
            break
        jac = ref_jacobian_from_frames(chain, frames, p)
        dq = jac.T @ np.linalg.solve(jac @ jac.T + damp, np.concatenate([e_pos, e_rot]))
        biggest = np.abs(dq).max()
        if biggest > IK_MAX_STEP:
            dq *= IK_MAX_STEP / biggest
        q = np.minimum(np.maximum(q + dq, chain.lower), chain.upper)
    return IkResult(best_q, best_pos, best_rot, converged, iterations)


def ref_integrate_targets(q, v, targets, pd, dyn, dt: float):
    """Step one (n,) plant state through (k, n) targets, one tick at a time,
    with the end stop found by a clamp and an array comparison."""
    keep = 1.0 - (pd.d + dyn.damping) / dyn.inertia * dt
    gain = pd.p / dyn.inertia * dt
    q = q.copy()
    v = v.copy()
    for target in targets:
        v = v * keep + (target - q) * gain
        q = q + v * dt
        qc = np.clip(q, dyn.lower, dyn.upper)
        if not np.array_equal(qc, q):
            v[qc != q] = 0.0
            q = qc
    return q, v


def ref_hold_target(q, v, target, ticks: int, powers: np.ndarray, dyn):
    """The one-row held-target closed form: restart at each end-stop tick."""
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


def ref_simulate(chain, dyn, pd, kind: str, actions, q_init, cfg, ik_iters=200):
    """Replay one record's (delta_pos, delta_rot, gripper) actions tick by tick; returns its
    poses and the (iterations, converged) of every control step's IK."""
    from real2sim.controller import GOOGLE_ARM_LIMITS
    from real2sim.jointsim import _plant_powers
    from real2sim.profile import synchronize

    q = np.asarray(q_init, dtype=float).copy()
    v = np.zeros_like(q)
    dt = 1.0 / cfg.h_sim
    ticks = cfg.ticks_per_step
    powers = _plant_powers(pd, dyn, dt, ticks)[:, 0]  # the one gain set's table
    poses, stats = [ref_fk(chain, q)], []
    last_goal = q
    for delta_pos, delta_rot in zip(*actions[:2]):
        seed = q if kind == "google" else last_goal  # the WidowX goals never read the sensed state
        base = ref_fk(chain, seed)
        goal = transform(base[:3, 3] + delta_pos, delta_rot @ base[:3, :3])
        ik = ref_ik_dls(chain, goal, seed, ik_iters)
        stats.append((ik.iterations, ik.converged))
        if kind == "google":
            vmax = GOOGLE_ARM_LIMITS.v_max
            plan = synchronize(q, np.clip(v, -vmax, vmax), ik.q, np.zeros_like(q), GOOGLE_ARM_LIMITS)
            arm_q = plan.sample(np.arange(1, ticks + 1) / cfg.h_sim)[0]
            q, v = ref_integrate_targets(q, v, arm_q, pd, dyn, dt)
        else:
            last_goal = ik.q
            q, v = ref_hold_target(q, v, ik.q, ticks, powers, dyn)
        poses.append(ref_fk(chain, q))
    return poses, stats


def ref_anneal_fit(dataset, chain, dyn, kind: str, init, range0, cfg, ctrl_cfg=None, ik_iters: int = 200,
                   proposals: int = 1):
    """The annealer without a shared goal table: every step draws k = min(proposals, evaluations left in the
    round) proposals and replays them in one call that solves its own WidowX goals, then runs the Metropolis
    test on the first lowest and cools by cooling**k. At one proposal, every step replays one proposal on
    its own. Valid inputs only."""
    from real2sim.jointsim import PDParams, _record_q_init, _simulate
    from real2sim.sysid import AnnealResult, RoundStats, trajectory_losses

    q_inits = [_record_q_init(chain, rec) for rec in dataset]
    refs = [rec.ee_poses for rec in dataset]
    actions = [(rec.delta_pos, rec.delta_rot, rec.gripper) for rec in dataset]

    def objective(pd):  # one loss per gain set of pd
        tools, _ = _simulate(chain, dyn, pd, kind, actions, q_inits, ctrl_cfg, ik_iters)
        losses = [trajectory_losses(ref, tool[: len(ref)]) for ref, tool in zip(refs * len(tools), tools)]
        return [TrajectoryLosses(*(float(s) / len(dataset) for s in np.cumsum(losses[i : i + len(refs)], axis=0)[-1]))
                for i in range(0, len(losses), len(refs))]

    n = chain.n
    dim = 2 if cfg.tie_joints else 2 * n
    k = 2 * n // dim

    def to_pd(u, lows, highs):
        theta = lows + np.repeat(u, k, axis=-1) * (highs - lows)
        return PDParams(theta[..., :n], theta[..., n:])

    def to_u(theta, lows, highs):
        return np.clip(((theta - lows) / (highs - lows)).reshape(dim, k).mean(axis=1), 0.0, 1.0)

    rng = np.random.default_rng(cfg.rng_seed)
    lows0, highs0 = range0.lows(), range0.highs()
    lows, highs = lows0, highs0
    best_u = to_u(np.concatenate([init.p, init.d]), lows, highs)
    best_pd = to_pd(best_u, lows, highs)
    (best,) = objective(best_pd)
    initial_loss = best.total
    history = []
    for round_index in range(cfg.rounds):
        temp = cfg.t0 if cfg.t0 is not None else max(0.1 * best.total, 1e-12)
        u = best_u
        current_loss = best.total
        for done in range(0, cfg.iters_per_round, proposals):
            step = min(proposals, cfg.iters_per_round - done)
            draws = np.clip(u + rng.normal(0.0, cfg.sigma, size=(step, dim)), 0.0, 1.0)
            losses = objective(to_pd(draws, lows, highs))
            first = min(range(step), key=lambda i: losses[i].total)
            cand, proposal = losses[first], draws[first]
            cand_pd = to_pd(proposal, lows, highs)
            delta = cand.total - current_loss
            if delta <= 0.0 or rng.random() < (math.exp(-delta / temp) if temp > 0.0 else 0.0):
                u = proposal
                current_loss = cand.total
            if cand.total < best.total:
                best, best_pd, best_u = cand, cand_pd, proposal
            temp *= cfg.cooling**step
        history.append(
            RoundStats(round_index, best.total, best_pd.p, best_pd.d, cfg.iters_per_round, lows, highs)
        )
        if round_index + 1 < cfg.rounds:
            center = np.concatenate([best_pd.p, best_pd.d])
            half_width = 0.5 * cfg.shrink * (highs - lows)
            lows = np.clip(center - half_width, lows0, highs0)
            highs = np.clip(center + half_width, lows0, highs0)
            too_narrow = highs - lows < 1e-12
            highs = np.where(too_narrow, np.minimum(lows + 1e-12, highs0), highs)
            lows = np.where(highs - lows < 1e-12, highs - 1e-12, lows)
            best_u = to_u(center, lows, highs)
    evaluations = 1 + cfg.rounds * cfg.iters_per_round
    return AnnealResult(best_pd, best.total, initial_loss, best, tuple(history), evaluations)


@dataclass(frozen=True)
class RefGripState:
    """Gripper state of one record threaded through ref_google_grip_step calls."""

    t: int = 0
    q_lastgoal_grip: float = 0.0
    q_lastplan_grip: float = 0.0
    v_lastplan_grip: float = 0.0


def ref_google_grip_step(state: RefGripState, gripper: float, q_grip: float, cfg):
    """One Google Robot gripper tick of one record in Python floats: returns
    the (ticks,) position, velocity and acceleration, and the next state.
    ``q_grip`` is the sensed gripper, read at t = 0 only."""
    from real2sim.controller import GOOGLE_GRIP_FILTER, GOOGLE_GRIP_LIMITS

    if state.t == 0:
        state = RefGripState(t=0, q_lastgoal_grip=float(q_grip), q_lastplan_grip=float(q_grip))
    # accumulate on the planned state, filtering small actions
    if abs(gripper) < GOOGLE_GRIP_FILTER:
        grip_goal = state.q_lastgoal_grip
    else:
        grip_goal = state.q_lastplan_grip + gripper
    grip_plan = ref_plan_scurve_1d(
        state.q_lastplan_grip,
        min(max(state.v_lastplan_grip, -GOOGLE_GRIP_LIMITS.v_max), GOOGLE_GRIP_LIMITS.v_max),
        grip_goal,
        0.0,
        GOOGLE_GRIP_LIMITS,
    )
    q, v, a = grip_plan.sample(np.arange(1, cfg.ticks_per_step + 1) / cfg.h_sim)
    new_state = RefGripState(
        t=state.t + 1, q_lastgoal_grip=float(grip_goal), q_lastplan_grip=float(q[-1]), v_lastplan_grip=float(v[-1])
    )
    return (q, v, a), new_state
