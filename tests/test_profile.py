import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import integrate_profile, ref_cruiseless_distance, ref_plan_scurve_1d, ref_scan_roots
from real2sim.profile import (
    LimitSet,
    PlanningError,
    _plan_rows,
    _scan_roots,
    synchronize,
)

ARM = LimitSet(1.5, 2.0, 50.0)
GRIP = LimitSet(1.0, 7.0, 50.0)


def plan_1d(q0, v0, q_goal, v_goal, lim):
    """A one-DOF plan: ``synchronize`` on length-1 joint vectors."""
    return synchronize([q0], [v0], [q_goal], [v_goal], lim)


def sample_1d(plan, t):
    """The one DOF's (q, v, a) at time(s) t: floats for a scalar t, else (len(t),) arrays."""
    return tuple(x[..., 0] if np.ndim(t) else float(x[0]) for x in plan.sample(t))


def test_zero_move_zero_duration():
    prof = plan_1d(2.0, 0.0, 2.0, 0.0, ARM)
    assert prof.duration == 0.0
    assert sample_1d(prof, 0.0) == (2.0, 0.0, 0.0)
    assert sample_1d(prof, 1.0) == (2.0, 0.0, 0.0)


def test_long_move_cruises_at_vmax():
    prof = plan_1d(0.0, 0.0, 10.0, 0.0, ARM)
    # phase time 1.5/2 + 2/50, cruise covers the rest at 1.5
    assert prof.duration == pytest.approx(7.4566666666667, abs=1e-9)
    ts = np.linspace(0, prof.duration, 5001)
    q, v, a = sample_1d(prof, ts)
    assert v.max() == pytest.approx(1.5, abs=1e-9)
    qe, ve, _ = integrate_profile(prof)
    assert qe == pytest.approx(10.0, abs=1e-4)
    assert ve == pytest.approx(0.0, abs=1e-4)


def test_tiny_move_never_reaches_limits():
    prof = plan_1d(0.0, 0.0, 0.001, 0.0, ARM)
    ts = np.linspace(0, prof.duration, 2001)
    q, v, a = sample_1d(prof, ts)
    assert v.max() < 1.5
    assert np.abs(a).max() < 2.0
    final_q, final_v, _ = sample_1d(prof, prof.duration)
    assert final_q == pytest.approx(0.001, abs=1e-6)
    assert final_v == pytest.approx(0.0, abs=1e-6)
    qe, _, _ = integrate_profile(prof)
    assert qe == pytest.approx(0.001, abs=1e-6)


def test_sample_terminal_contract():
    prof = plan_1d(0.0, 0.2, 3.0, -0.1, ARM)
    assert sample_1d(prof, prof.duration) == (3.0, -0.1, 0.0)
    assert sample_1d(prof, prof.duration + 5.0) == (3.0, -0.1, 0.0)
    q0, v0, a0 = sample_1d(prof, 0.0)
    assert (q0, v0, a0) == (0.0, 0.2, 0.0)


def test_monotone_position_for_one_directional_move():
    prof = plan_1d(0.0, 0.0, 4.0, 0.0, ARM)
    ts = np.arange(0.0, prof.duration + 1e-3, 1e-3)
    q, _, _ = sample_1d(prof, ts)
    assert np.all(np.diff(q) >= -1e-12)


def test_velocity_matches_position_derivative():
    prof = plan_1d(0.0, 0.5, -2.0, 0.3, ARM)
    ts = np.arange(0.0, prof.duration, 1e-3)
    q, v, _ = sample_1d(prof, ts)
    dq = np.gradient(q, ts)
    assert np.abs(dq[2:-2] - v[2:-2]).max() < 1e-4


def test_rejects_velocity_over_limit():
    with pytest.raises(PlanningError, match="v_max"):
        plan_1d(0.0, 2.0, 1.0, 0.0, ARM)
    with pytest.raises(PlanningError, match="v_max"):
        plan_1d(0.0, 0.0, 1.0, -2.0, ARM)


def test_limitset_validation():
    with pytest.raises(PlanningError, match="a_max"):
        LimitSet(1.0, 0.0, 10.0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_random_profiles_respect_limits_and_goals(seed):
    rng = np.random.default_rng(seed)
    q0, qg = rng.uniform(-5, 5, 2)
    if rng.random() < 0.4:
        v0 = vg = 0.0
    else:
        v0, vg = rng.uniform(-1.5, 1.5, 2)
    prof = plan_1d(q0, v0, qg, vg, ARM)
    ts = np.arange(0.0, prof.duration + 1e-3, 1e-3)
    q, v, a = sample_1d(prof, ts)
    assert np.abs(v).max() <= 1.5 * (1 + 1e-6)
    assert np.abs(a).max() <= 2.0 * (1 + 1e-6)
    # lower bounds on the optimal duration
    assert prof.duration >= abs(qg - q0) / 1.5 - 1e-9
    if v0 == 0.0 and vg == 0.0:
        assert prof.duration >= 2 * math.sqrt(abs(qg - q0) / 2.0) - 1e-9
    qe, ve, _ = integrate_profile(prof, dt=2e-4)
    assert abs(qe - qg) < 1e-4
    assert abs(ve - vg) < 1e-4


def test_determinism_bit_identical():
    a = plan_1d(0.1, -0.3, 2.7, 0.2, ARM)
    b = plan_1d(0.1, -0.3, 2.7, 0.2, ARM)
    assert np.array_equal(a.durations, b.durations)
    assert np.array_equal(a.jerks, b.jerks)


def test_synchronize_single_dof_matches_1d():
    prof = ref_plan_scurve_1d(0.0, 0.0, 1.2, 0.0, GRIP)
    plan = synchronize([0.0], [0.0], [1.2], [0.0], GRIP)
    assert plan.duration == prof.duration
    q, v, a = plan.sample(0.3 * plan.duration)
    q1, v1, a1 = prof.sample(0.3 * plan.duration)
    assert q[0] == pytest.approx(q1, abs=1e-12)
    assert v[0] == pytest.approx(v1, abs=1e-12)


def test_synchronize_scales_fast_dof():
    plan = synchronize([0.0, 0.0], [0.0, 0.0], [10.0, 1.0], [0.0, 0.0], ARM)
    solo_fast = plan_1d(0.0, 0.0, 1.0, 0.0, ARM)
    solo_slow = plan_1d(0.0, 0.0, 10.0, 0.0, ARM)
    assert plan.duration == solo_slow.duration
    assert plan.scales[1] == pytest.approx(plan.duration / solo_fast.duration)
    ts = np.linspace(0, plan.duration, 3000)
    peak = max(plan.sample(t)[1][1] for t in ts)
    solo_peak = max(sample_1d(solo_fast, np.linspace(0, solo_fast.duration, 3000))[1])
    assert peak == pytest.approx(solo_peak * solo_fast.duration / plan.duration, rel=1e-2)


def test_synchronize_terminal_exact():
    plan = synchronize(
        np.array([0.0, 1.0, -2.0]),
        np.zeros(3),
        np.array([0.5, -1.0, -2.0]),
        np.zeros(3),
        ARM,
    )
    q, v, a = plan.sample(plan.duration)
    np.testing.assert_array_equal(q, [0.5, -1.0, -2.0])
    np.testing.assert_array_equal(v, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(a, [0.0, 0.0, 0.0])
    q2, _, _ = plan.sample(plan.duration * 2 + 1.0)
    np.testing.assert_array_equal(q2, [0.5, -1.0, -2.0])


def test_synchronize_empty_rejected():
    with pytest.raises(PlanningError):
        synchronize([], [], [], [], ARM)


def test_synchronize_rejects_mismatched_vectors():
    with pytest.raises(PlanningError):
        synchronize([0.0, 1.0], [0.0], [1.0, 2.0], [0.0, 0.0], ARM)


def test_plan_sample_array_matches_scalar_profiles():
    q0, v0, qg, vg = [0.0, 1.0, -2.0, 0.5], [0.4, 0.0, -0.3, 0.0], [2.0, -1.0, -2.5, 0.5], [0.2, 0.0, 0.1, 0.0]
    plan = synchronize(q0, v0, qg, vg, ARM)
    refs = [ref_plan_scurve_1d(*row, ARM) for row in zip(q0, v0, qg, vg)]
    duration = max(p.duration for p in refs)
    assert plan.duration == duration
    inside = np.linspace(0.0, plan.duration, 300, endpoint=False)
    past = plan.duration * np.array([1.0 + 1e-9, 1.5, 3.0])
    ts = np.concatenate([inside, past])
    q, v, a = plan.sample(ts)
    assert q.shape == v.shape == a.shape == (ts.shape[0], plan.n)
    for i, prof in enumerate(refs):
        s = duration / prof.duration if prof.duration > 0.0 else 1.0
        assert plan.scales[i] == s
        want = np.array([prof.sample(t / s) for t in ts])
        assert np.array_equal(q[:, i], want[:, 0])
        assert np.array_equal(v[:, i], want[:, 1] / s)
        assert np.array_equal(a[:, i], want[:, 2] / (s * s))
        one = plan_1d(q0[i], v0[i], qg[i], vg[i], ARM)
        for got, exp in zip(sample_1d(one, ts), prof.sample(ts)):
            assert np.array_equal(got, exp)
        assert sample_1d(one, ts[7]) == prof.sample(ts[7])
    np.testing.assert_array_equal(q[-3:], np.broadcast_to([2.0, -1.0, -2.5, 0.5], (3, 4)))


def _hexes(values):
    return [float(x).hex() for x in values]


def _assert_matches_reference(q0, v0, qg, vg, lim=ARM):
    """The batched planner reproduces the scalar reference bit for bit."""
    q0, v0, qg, vg = (np.asarray(x, dtype=float) for x in (q0, v0, qg, vg))
    refs = [ref_plan_scurve_1d(*row, lim) for row in zip(q0, v0, qg, vg)]
    v0c, vgc, dur, jrk = _plan_rows(q0, v0, qg, vg, lim)
    moving = np.flatnonzero((v0c != 0.0) | (vgc != 0.0))
    ends = np.array([v0c[moving], vgc[moving]])
    rows, roots = _scan_roots(qg[moving] - q0[moving], ends, lim.v_max, lim.a_max, lim.j_max)
    for r, i in enumerate(moving):
        want = ref_scan_roots(qg[i] - q0[i], v0c[i], vgc[i], lim.v_max, lim.a_max, lim.j_max)
        assert _hexes(roots[rows == r]) == _hexes(want)
    plan = synchronize(q0, v0, qg, vg, lim)
    for i, ref in enumerate(refs):
        one = plan_1d(q0[i], v0[i], qg[i], vg[i], lim)
        k = ref.durations.shape[0]  # a one-DOF plan pads to its own segment count
        assert one.durations.shape == one.jerks.shape == (1, k)
        for got in (one.durations[0], dur[i, :k], plan.durations[i, :k]):
            assert _hexes(got) == _hexes(ref.durations)
        for got in (one.jerks[0], jrk[i, :k], plan.jerks[i, :k]):
            assert _hexes(got) == _hexes(ref.jerks)
        assert not plan.durations[i, k:].any() and not plan.jerks[i, k:].any()
        assert one.duration.hex() == ref.duration.hex()
    duration = max(p.duration for p in refs)
    scales = [duration / p.duration if p.duration > 0.0 else 1.0 for p in refs]
    assert plan.duration.hex() == duration.hex()
    assert _hexes(plan.scales) == _hexes(scales)
    # sampled states, as the per-DOF loop sampled them
    ts = np.linspace(0.0, 1.1 * duration, 61)
    done = ts >= duration
    got = plan.sample(ts)
    for i, (ref, s) in enumerate(zip(refs, scales)):
        q, v, a = ref.sample(ts / s)
        want = (np.where(done, ref.q_goal, q), np.where(done, ref.v_goal / s, v / s),
                np.where(done, 0.0, a / (s * s)))
        for g, w in zip(got, want):
            assert np.array_equal(g[:, i], w)


@pytest.mark.parametrize("n", [1, 6, 40])
def test_batched_planner_matches_reference_on_random_rows(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(4):
        q0, qg = rng.uniform(-5.0, 5.0, (2, n))
        v0, vg = rng.uniform(-1.5, 1.5, (2, n))
        rest = rng.random(n) < 0.3
        v0[rest] = vg[rest] = 0.0
        _assert_matches_reference(q0, v0, qg, vg)


def test_batched_planner_matches_reference_on_short_rest_moves():
    # rest-to-rest moves too short to reach a_max: the cube-root closed form
    dq = np.random.default_rng(7).uniform(-0.006, 0.006, 200)
    _assert_matches_reference(np.zeros(200), np.zeros(200), dq, np.zeros(200))


C = ARM.a_max**2 / ARM.j_max  # velocity change where a phase turns trapezoidal


@pytest.mark.parametrize(
    "q0,v0,qg,vg",
    [
        # v0 = +-v_max, towards and away from the goal, short and long moves
        ([0.0, 0.0, 1.0, -1.0, 0.0], [1.5, -1.5, 1.5, -1.5, 1.5],
         [3.0, -3.0, -2.0, 2.0, 0.01], [0.0, 0.5, 0.0, -1.5, 1.5]),
        # v0 or v_goal on the +-a^2/j breakpoints, and one pair exactly a^2/j apart
        ([0.0, 0.0, 0.5, -0.5, 0.0, 0.2], [C, -C, 0.0, 0.3, 0.4 + C, -C],
         [1.0, -0.2, 0.1, -1.0, 2.0, 0.0], [0.0, C, -C, -C, 0.4, C]),
        # dq = 0 while moving
        ([1.0, -0.5, 0.0, 2.0], [0.3, -1.2, 1.5, 0.001], [1.0, -0.5, 0.0, 2.0], [0.0, 0.4, -1.5, 0.0]),
        # rest-to-rest rows (tiny, short, medium, cruising, zero) mixed with moving rows
        ([0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.7, 0.0],
         [1e-6, 0.01, -0.5, 10.0, 3.0, -0.4, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.1, -0.2]),
        # signed zeros: v_goal = -0.0 while moving, v0 = -0.0, a -0.0 goal at rest
        ([0.0, 0.0, 0.0, 0.5], [0.8, -0.0, -0.0, -0.3], [0.3, 0.4, -0.0, 0.5], [-0.0, -0.6, 0.0, -0.0]),
    ],
    ids=["v_max", "breakpoints", "zero_move", "rest_mixed", "signed_zeros"],
)
def test_batched_planner_matches_reference_on_edge_rows(q0, v0, qg, vg):
    _assert_matches_reference(q0, v0, qg, vg)


def test_batched_planner_matches_reference_on_roots_at_signed_zero():
    # roots within the bisection tolerance of a -0.0/0.0 grid pair come out as the pair's kept copy
    rows = [(0.8, -0.0, 1e-13), (0.8, -0.0, -1e-13), (-0.0, 0.7, 1e-13), (-0.0, 0.7, -1e-13)]
    dq = [float(ref_cruiseless_distance(vp, v0, vg, ARM.a_max, ARM.j_max)) for v0, vg, vp in rows]
    _assert_matches_reference(np.zeros(4), [r[0] for r in rows], dq, [r[1] for r in rows])


def test_synchronize_records_finish_independently():
    # (B, n) boundaries plan B records in one pass; each record keeps its own
    # duration and scales, bit for bit those of planning it alone
    rng = np.random.default_rng(31)
    q0, qg = rng.uniform(-2.0, 2.0, (2, 4, 3))
    v0 = rng.uniform(-1.0, 1.0, (4, 3))
    plan = synchronize(q0, v0, qg, np.zeros((4, 3)), ARM)
    assert plan.duration.shape == (4,) and len(set(plan.duration.tolist())) == 4
    ts = np.linspace(0.0, 1.1 * plan.duration.max(), 97)
    batched = plan.sample(ts)
    for b in range(4):
        solo = synchronize(q0[b], v0[b], qg[b], np.zeros(3), ARM)
        assert solo.duration == plan.duration[b]
        assert np.array_equal(solo.scales, plan.scales[b])
        for got, want in zip(batched, solo.sample(ts)):
            assert np.array_equal(got[:, b], want)


def test_synchronize_reports_first_bad_row():
    with pytest.raises(PlanningError, match=r"^initial velocity 2.0 exceeds v_max 1.5$"):
        synchronize([0.0, 0.0, 0.0], [0.1, 2.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, -2.0], ARM)
    with pytest.raises(PlanningError, match=r"^q_goal is not finite$"):
        synchronize([0.0, 0.0], [0.1, 2.0], [1.0, np.nan], [0.0, 0.0], ARM)
