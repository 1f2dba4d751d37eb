import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import integrate_profile
from real2sim.profile import (
    LimitSet,
    PlanningError,
    plan_scurve_1d,
    synchronize,
)

ARM = LimitSet(1.5, 2.0, 50.0)
GRIP = LimitSet(1.0, 7.0, 50.0)


def test_zero_move_zero_duration():
    prof = plan_scurve_1d(2.0, 0.0, 2.0, 0.0, ARM)
    assert prof.duration == 0.0
    assert prof.sample(0.0) == (2.0, 0.0, 0.0)
    assert prof.sample(1.0) == (2.0, 0.0, 0.0)


def test_long_move_cruises_at_vmax():
    prof = plan_scurve_1d(0.0, 0.0, 10.0, 0.0, ARM)
    # phase time 1.5/2 + 2/50, cruise covers the rest at 1.5
    assert prof.duration == pytest.approx(7.4566666666667, abs=1e-9)
    ts = np.linspace(0, prof.duration, 5001)
    q, v, a = prof.sample(ts)
    assert v.max() == pytest.approx(1.5, abs=1e-9)
    qe, ve, _ = integrate_profile(prof)
    assert qe == pytest.approx(10.0, abs=1e-4)
    assert ve == pytest.approx(0.0, abs=1e-4)


def test_tiny_move_never_reaches_limits():
    prof = plan_scurve_1d(0.0, 0.0, 0.001, 0.0, ARM)
    ts = np.linspace(0, prof.duration, 2001)
    q, v, a = prof.sample(ts)
    assert v.max() < 1.5
    assert np.abs(a).max() < 2.0
    final_q, final_v, _ = prof.sample(prof.duration)
    assert final_q == pytest.approx(0.001, abs=1e-6)
    assert final_v == pytest.approx(0.0, abs=1e-6)
    qe, _, _ = integrate_profile(prof)
    assert qe == pytest.approx(0.001, abs=1e-6)


def test_sample_terminal_contract():
    prof = plan_scurve_1d(0.0, 0.2, 3.0, -0.1, ARM)
    assert prof.sample(prof.duration) == (3.0, -0.1, 0.0)
    assert prof.sample(prof.duration + 5.0) == (3.0, -0.1, 0.0)
    q0, v0, a0 = prof.sample(0.0)
    assert (q0, v0, a0) == (0.0, 0.2, 0.0)


def test_monotone_position_for_one_directional_move():
    prof = plan_scurve_1d(0.0, 0.0, 4.0, 0.0, ARM)
    ts = np.arange(0.0, prof.duration + 1e-3, 1e-3)
    q, _, _ = prof.sample(ts)
    assert np.all(np.diff(q) >= -1e-12)


def test_velocity_matches_position_derivative():
    prof = plan_scurve_1d(0.0, 0.5, -2.0, 0.3, ARM)
    ts = np.arange(0.0, prof.duration, 1e-3)
    q, v, _ = prof.sample(ts)
    dq = np.gradient(q, ts)
    assert np.abs(dq[2:-2] - v[2:-2]).max() < 1e-4


def test_rejects_velocity_over_limit():
    with pytest.raises(PlanningError, match="v_max"):
        plan_scurve_1d(0.0, 2.0, 1.0, 0.0, ARM)
    with pytest.raises(PlanningError, match="v_max"):
        plan_scurve_1d(0.0, 0.0, 1.0, -2.0, ARM)


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
    prof = plan_scurve_1d(q0, v0, qg, vg, ARM)
    ts = np.arange(0.0, prof.duration + 1e-3, 1e-3)
    q, v, a = prof.sample(ts)
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
    a = plan_scurve_1d(0.1, -0.3, 2.7, 0.2, ARM)
    b = plan_scurve_1d(0.1, -0.3, 2.7, 0.2, ARM)
    assert np.array_equal(a.durations, b.durations)
    assert np.array_equal(a.jerks, b.jerks)


def test_synchronize_single_dof_matches_1d():
    prof = plan_scurve_1d(0.0, 0.0, 1.2, 0.0, GRIP)
    plan = synchronize([0.0], [0.0], [1.2], [0.0], GRIP)
    assert plan.duration == prof.duration
    q, v, a = plan.sample(0.3 * plan.duration)
    q1, v1, a1 = prof.sample(0.3 * plan.duration)
    assert q[0] == pytest.approx(q1, abs=1e-12)
    assert v[0] == pytest.approx(v1, abs=1e-12)


def test_synchronize_scales_fast_dof():
    plan = synchronize([0.0, 0.0], [0.0, 0.0], [10.0, 1.0], [0.0, 0.0], ARM)
    solo_fast = plan_scurve_1d(0.0, 0.0, 1.0, 0.0, ARM)
    solo_slow = plan_scurve_1d(0.0, 0.0, 10.0, 0.0, ARM)
    assert plan.duration == solo_slow.duration
    assert plan.scales[1] == pytest.approx(plan.duration / solo_fast.duration)
    ts = np.linspace(0, plan.duration, 3000)
    peak = max(plan.sample(t)[1][1] for t in ts)
    solo_peak = max(solo_fast.sample(np.linspace(0, solo_fast.duration, 3000))[1])
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
    plan = synchronize([0.0, 1.0, -2.0, 0.5], [0.4, 0.0, -0.3, 0.0], [2.0, -1.0, -2.5, 0.5], [0.2, 0.0, 0.1, 0.0], ARM)
    inside = np.linspace(0.0, plan.duration, 300, endpoint=False)
    past = plan.duration * np.array([1.0 + 1e-9, 1.5, 3.0])
    ts = np.concatenate([inside, past])
    q, v, a = plan.sample(ts)
    assert q.shape == v.shape == a.shape == (ts.shape[0], plan.n)
    for i, (prof, s) in enumerate(zip(plan.profiles, plan.scales)):
        want = np.array([prof.sample(t / s) for t in ts])
        assert np.array_equal(q[:, i], want[:, 0])
        assert np.array_equal(v[:, i], want[:, 1] / s)
        assert np.array_equal(a[:, i], want[:, 2] / (s * s))
    np.testing.assert_array_equal(q[-3:], np.broadcast_to([2.0, -1.0, -2.5, 0.5], (3, 4)))
