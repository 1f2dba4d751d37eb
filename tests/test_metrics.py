import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from real2sim.metrics import (
    DeltaSuccess,
    MetricsError,
    PairedEvalTable,
    PolicyEval,
    ShiftEval,
    UndefinedStatisticError,
    _fractional_ranks,
    _gammainc_upper,
    action_mse,
    aggregate_grouped,
    delta_success,
    kruskal_wallis,
    max_rank_violation,
    mmrv,
    pearson,
    rank_violation,
    spearman,
)


def table(real, sim, task="t"):
    return PairedEvalTable(
        task, tuple(PolicyEval(f"p{i}", r, s) for i, (r, s) in enumerate(zip(real, sim)))
    )


# Visual-matching success rates of the six public Google Robot checkpoints
PICK_REAL = [0.853, 0.920, 0.760, 0.907, 0.293, 0.133]
PICK_SIM = [0.857, 0.710, 0.567, 0.787, 0.170, 0.027]
MOVE_REAL = [0.633, 0.583, 0.450, 0.733, 0.350, 0.017]
MOVE_SIM = [0.442, 0.354, 0.317, 0.779, 0.042, 0.050]


def test_rank_violation_order_preserved():
    a = PolicyEval("a", 0.9, 0.8)
    b = PolicyEval("b", 0.5, 0.4)
    assert rank_violation(a, b) == 0.0


def test_rank_violation_flipped_order():
    a = PolicyEval("a", 0.9, 0.4)
    b = PolicyEval("b", 0.5, 0.8)
    assert rank_violation(a, b) == pytest.approx(0.4)


def test_rank_violation_published_pair():
    octo = PolicyEval("octo-base", 0.350, 0.042)
    rt1_begin = PolicyEval("rt-1-begin", 0.017, 0.050)
    assert rank_violation(octo, rt1_begin) == pytest.approx(0.333)


def test_rank_violation_tie_semantics():
    # equal real rates never violate
    assert rank_violation(PolicyEval("a", 0.5, 0.9), PolicyEval("b", 0.5, 0.1)) == 0.0
    # equal sim rates with unequal real violate in exactly one direction
    hi = PolicyEval("a", 0.8, 0.5)
    lo = PolicyEval("b", 0.2, 0.5)
    assert rank_violation(hi, lo) + rank_violation(lo, hi) == pytest.approx(0.6)
    assert rank_violation(hi, lo) == 0.0 or rank_violation(lo, hi) == 0.0


def test_mmrv_pick_coke_can():
    assert mmrv(table(PICK_REAL, PICK_SIM)) == pytest.approx(0.031, abs=1e-3)


def test_mmrv_move_near():
    assert mmrv(table(MOVE_REAL, MOVE_SIM)) == pytest.approx(0.111, abs=1e-3)


def test_mmrv_order_preserving_is_zero():
    assert mmrv(table([0.9, 0.5, 0.1], [0.8, 0.6, 0.2])) == 0.0


def test_mmrv_needs_two_policies():
    with pytest.raises(MetricsError):
        mmrv(table([0.5], [0.5]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_mmrv_bounded_by_largest_real_gap(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    real = rng.random(n)
    sim = rng.random(n)
    value = mmrv(table(real, sim))
    assert 0.0 <= value <= np.ptp(real) + 1e-12
    assert value <= 1.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_mmrv_invariant_under_monotone_sim_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    real = rng.random(n)
    sim = rng.random(n)
    base = mmrv(table(real, sim))
    warped = 1.0 / (1.0 + np.exp(-3.0 * sim))  # strictly increasing into (0, 1)
    assert mmrv(table(real, warped)) == pytest.approx(base, abs=1e-12)


def test_max_rank_violation_per_policy():
    t = table([0.9, 0.5], [0.4, 0.8])
    assert max_rank_violation(t, 0) == pytest.approx(0.4)
    assert max_rank_violation(t, 1) == pytest.approx(0.4)


def test_pearson_affine():
    x = np.array([0.1, 0.4, 0.3, 0.9])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)


def test_pearson_published_values():
    assert pearson(PICK_REAL, PICK_SIM) == pytest.approx(0.976, abs=0.005)
    assert pearson([0.0, 0.0, 0.125], [0.0, 0.0, 0.042]) == pytest.approx(1.0, abs=1e-9)


def test_pearson_zero_variance_flagged():
    with pytest.raises(UndefinedStatisticError):
        pearson([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])


def test_pearson_length_mismatch():
    with pytest.raises(MetricsError):
        pearson([1.0, 2.0], [1.0])


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pearson_bounded_and_affine_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return
    r = pearson(x, y)
    assert abs(r) <= 1 + 1e-12
    assert pearson(2.5 * x + 3, y) == pytest.approx(r, abs=1e-9)


def test_spearman_monotone():
    assert spearman([1.0, 2.0, 5.0], [10.0, 40.0, 41.0]) == pytest.approx(1.0)
    assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


def test_spearman_with_ties_matches_rank_oracle():
    x = [1.0, 2.0, 2.0, 3.0]
    y = [1.0, 2.0, 3.0, 4.0]
    # brute-force fractional ranks: x -> (1, 2.5, 2.5, 4), y -> (1, 2, 3, 4)
    rx = np.array([1.0, 2.5, 2.5, 4.0])
    ry = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(x, y) == pytest.approx(pearson(rx, ry), abs=1e-12)


from helpers import (
    permutation_midp,
    ref_action_mse,
    ref_aggregate_grouped,
    ref_delta_success,
    ref_fractional_ranks,
    ref_kruskal_wallis,
    ref_mmrv,
    ref_pearson,
    ref_spearman,
    reference_kruskal_h,
    reference_ranks,
)

_ranks_reference = reference_ranks


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_spearman_equals_pearson_on_reference_ranks(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    x = rng.integers(0, 5, n).astype(float)
    y = rng.normal(size=n)
    if np.ptp(x) == 0:
        return
    expected = pearson(_ranks_reference(list(x)), _ranks_reference(list(y)))
    assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_delta_success_published_rows():
    # RT-1 trained without augmentation, tabletop pick task
    assert delta_success(ShiftEval(0.920, (0.960, 0.960))).absolute == pytest.approx(0.040, abs=1e-9)
    assert delta_success(ShiftEval(0.920, (0.867, 0.747))).absolute == pytest.approx(0.113, abs=1e-9)
    assert delta_success(ShiftEval(0.920, (0.053, 0.280))).absolute == pytest.approx(0.753, abs=1e-3)
    bg = delta_success(ShiftEval(0.920, (0.933, 0.907)))
    assert bg.signed == pytest.approx(0.000, abs=1e-12)
    assert bg.absolute == pytest.approx(0.013, abs=1e-9)


def test_delta_success_all_equal():
    assert delta_success(ShiftEval(0.4, (0.4, 0.4))) == DeltaSuccess(0.0, 0.0)


def test_delta_success_single_variant():
    d = delta_success(ShiftEval(0.5, (0.3,)))
    assert d.signed == pytest.approx(-0.2)
    assert d.absolute == pytest.approx(0.2)


def test_delta_success_empty_variants_rejected():
    with pytest.raises(MetricsError):
        ShiftEval(0.5, ())


def test_delta_success_translation_equivariance():
    base = delta_success(ShiftEval(0.4, (0.5, 0.2)))
    shifted = delta_success(ShiftEval(0.5, (0.6, 0.3)))
    assert shifted.signed == pytest.approx(base.signed, abs=1e-12)


_kw_reference = reference_kruskal_h


def test_kruskal_identical_groups():
    a = [1, 1, 0, 0, 1]
    assert kruskal_wallis(a, list(a)) == (0.0, 1.0)


def test_kruskal_all_same_value():
    assert kruskal_wallis([1, 1, 1], [1, 1]) == (0.0, 1.0)


def test_kruskal_maximal_separation():
    h, p = kruskal_wallis([1] * 20, [0] * 20)
    assert p < 1e-6


def test_kruskal_h_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 2, int(rng.integers(2, 20)))
        b = rng.integers(0, 2, int(rng.integers(2, 20)))
        h, _ = kruskal_wallis(a, b)
        assert h == pytest.approx(_kw_reference(list(a), list(b)), abs=1e-9)


def test_kruskal_symmetry_and_relabeling():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, 15)
    b = rng.integers(0, 2, 12)
    h1, p1 = kruskal_wallis(a, b)
    h2, p2 = kruskal_wallis(b, a)
    assert h1 == pytest.approx(h2, abs=1e-12)
    assert p1 == pytest.approx(p2, abs=1e-12)
    h3, p3 = kruskal_wallis(1 - a, 1 - b)
    assert h3 == pytest.approx(h1, abs=1e-9)
    assert p3 == pytest.approx(p1, abs=1e-9)


def test_kruskal_p_against_permutation_oracle():
    a = [1] * 12 + [0] * 8
    b = [1] * 5 + [0] * 15
    h_obs, p_chi = kruskal_wallis(a, b)
    p_perm = permutation_midp(a, b, h_obs)
    assert abs(p_chi - p_perm) < 0.02


def test_kruskal_empty_group_rejected():
    with pytest.raises(MetricsError):
        kruskal_wallis([], [1, 0])


def test_gammainc_upper_against_erfc():
    # chi-square sf with 1 dof equals erfc(sqrt(x / 2))
    for h in (0.01, 0.5, 1.0, 3.84, 6.63, 15.0, 40.0):
        assert _gammainc_upper(0.5, h / 2) == pytest.approx(math.erfc(math.sqrt(h / 2)), rel=1e-9)


def test_aggregate_grouped():
    assert aggregate_grouped([[0.4, 0.6]]) == [0.5]
    assert aggregate_grouped([[0.3, 0.3, 0.3]]) == [pytest.approx(0.3)]
    out = aggregate_grouped([[0.1, 0.2, 0.3, 0.4], [1.0]])
    assert out[0] == pytest.approx(0.25, abs=1e-12)
    assert out[1] == 1.0
    with pytest.raises(MetricsError):
        aggregate_grouped([[0.5], []])
    with pytest.raises(MetricsError):
        aggregate_grouped([])


def test_action_mse_basic():
    assert action_mse([[0.0], [0.0]], [[0.0], [0.0]]) == 0.0
    assert action_mse([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(MetricsError):
        action_mse([[0.0]], [[0.0, 1.0]])


def test_action_mse_matches_naive_loops():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(7, 4))
    gt = rng.normal(size=(7, 4))
    acc = 0.0
    for t in range(7):
        for k in range(4):
            acc += (pred[t, k] - gt[t, k]) ** 2
    assert action_mse(pred, gt) == pytest.approx(acc / 28, rel=1e-12)


def test_policy_eval_validation():
    with pytest.raises(MetricsError):
        PolicyEval("p", 1.2, 0.5)
    with pytest.raises(MetricsError):
        PolicyEval("p", 0.5, 0.5, real_trials=(1, 0, 2))
    with pytest.raises(MetricsError):
        PolicyEval("p", 0.5, 0.5, real_trials=(1, 1))  # mean 1.0 != 0.5
    ok = PolicyEval("p", 0.5, 0.25, real_trials=(1, 0), sim_trials=(1, 0, 0, 0))
    assert ok.real_trials == (1, 0)


def test_table_rejects_duplicate_ids():
    with pytest.raises(MetricsError):
        PairedEvalTable("t", (PolicyEval("a", 0.1, 0.1), PolicyEval("a", 0.2, 0.2)))


# numpy references (tests/helpers.py) of the plain-float statistics, on inputs with ties, zero variance and
# identical pooled observations, below 8 values (a plain sum), up to 128 (8 running sums) and above (halving)
SIZES = {"n<8": (2, 8), "8<=n<=128": (8, 129), "n>128": (129, 400)}
TRIALS = {"n<8": 40, "8<=n<=128": 20, "n>128": 4}  # mmrv is quadratic in pure Python


def _outcome(stat, *args):
    try:
        return stat(*args)
    except UndefinedStatisticError:
        return "undefined"


@pytest.mark.parametrize("size", SIZES)
def test_statistics_match_numpy_reference_bit_for_bit(size):
    rng = np.random.default_rng(list(SIZES).index(size))
    for _ in range(TRIALS[size]):
        n = int(rng.integers(*SIZES[size]))
        samples = {
            "ties": (rng.integers(0, 25, n) / 24, rng.integers(0, 25, n) / 24),
            "continuous": (rng.random(n), rng.random(n)),
            "zero variance": (np.full(n, 0.375), rng.random(n)),
        }
        for x, y in samples.values():
            assert _fractional_ranks(x.tolist()) == ref_fractional_ranks(x).tolist()
            assert _outcome(pearson, x, y) == _outcome(ref_pearson, x, y)
            assert _outcome(spearman, x, y) == _outcome(ref_spearman, x, y)
            assert mmrv(table(x, y)) == ref_mmrv(x, y)
            assert kruskal_wallis(x, y) == ref_kruskal_wallis(x, y)
            shift = ShiftEval(float(y[0]), tuple(x))
            assert delta_success(shift) == ref_delta_success(shift)
            assert aggregate_grouped([x, y[: n // 2 + 1]]) == ref_aggregate_grouped([x, y[: n // 2 + 1]])
        a = rng.integers(0, 2, n)
        b = rng.integers(0, 2, int(rng.integers(1, 2 * n)))
        assert kruskal_wallis(a, b) == ref_kruskal_wallis(a, b)
        assert kruskal_wallis(np.ones(n), np.ones(3)) == ref_kruskal_wallis(np.ones(n), np.ones(3)) == (0.0, 1.0)
        pred = rng.normal(size=(n, int(rng.integers(1, 8))))
        gt = rng.normal(size=pred.shape)
        assert action_mse(pred, gt) == ref_action_mse(pred, gt)
        assert action_mse(pred.tolist(), gt.tolist()) == ref_action_mse(pred, gt)


def test_statistics_take_lists_and_arrays_alike():
    real, sim = PICK_REAL, PICK_SIM
    assert table(real, sim).real == real and table(real, sim).sim == sim
    assert pearson(np.array(real), np.array(sim)) == pearson(real, sim)
    assert kruskal_wallis(np.array([1, 0, 1]), (0, 0, 1)) == kruskal_wallis([1.0, 0.0, 1.0], [0, 0, 1])


def test_statistics_reject_non_finite_and_ragged_inputs():
    with pytest.raises(MetricsError, match="non-finite"):
        pearson([0.1, float("nan"), 0.3], [0.1, 0.2, 0.3])
    with pytest.raises(MetricsError, match="non-finite"):
        kruskal_wallis([1, 0], [float("inf")])
    with pytest.raises(MetricsError, match="unequal length"):
        action_mse([[0.0, 1.0], [0.0]], [[0.0, 1.0], [0.0]])
    with pytest.raises(MetricsError, match="shape mismatch"):
        action_mse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_policy_trials_must_equal_0_or_1():
    # int() would truncate these to (0, 0), which matches a rate of 0
    with pytest.raises(MetricsError, match="must be binary"):
        PolicyEval("a", 0.0, 0.0, real_trials=(0.6, 0.9))
    assert PolicyEval("a", 0.5, 0.0, real_trials=(1.0, 0.0)).real_trials == (1, 0)
