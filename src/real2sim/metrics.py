"""Evaluation-correlation statistics for paired real/simulated success data.

The central metric is the mean maximum rank violation: for every ordered
policy pair whose real and simulated orderings disagree, the violation is
weighted by the real success-rate gap, and the per-policy worst case is
averaged. Pearson/Spearman correlations, success-rate deltas under
distribution shifts, a two-group Kruskal-Wallis test, grouped averaging,
and a validation action-MSE baseline round out the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MetricsError",
    "UndefinedStatisticError",
    "PolicyEval",
    "PairedEvalTable",
    "ShiftEval",
    "DeltaSuccess",
    "KruskalResult",
    "rank_violation",
    "max_rank_violation",
    "mmrv",
    "pearson",
    "spearman",
    "delta_success",
    "kruskal_wallis",
    "aggregate_grouped",
    "action_mse",
]


class MetricsError(ValueError):
    """Raised for malformed statistic inputs."""


class UndefinedStatisticError(MetricsError):
    """Raised when a statistic is undefined (e.g. zero variance), so the
    caller can surface an explicit n/a instead of a silent number."""


@dataclass(frozen=True)
class PolicyEval:
    """One policy's paired real/simulated success rates, with optional
    per-trial binary outcomes."""

    policy_id: str
    real_rate: float
    sim_rate: float
    real_trials: tuple[int, ...] | None = None
    sim_trials: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("real_rate", "sim_rate"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise MetricsError(f"{self.policy_id}: {name} {r} outside [0, 1]")
        for name in ("real_trials", "sim_trials"):
            trials = getattr(self, name)
            if trials is None:
                continue
            trials = tuple(int(t) for t in trials)
            if any(t not in (0, 1) for t in trials):
                raise MetricsError(f"{self.policy_id}: {name} must be binary")
            rate = getattr(self, name.replace("_trials", "_rate"))
            if len(trials) == 0:
                raise MetricsError(f"{self.policy_id}: {name} is empty")
            if abs(sum(trials) / len(trials) - rate) > 1e-9:
                raise MetricsError(f"{self.policy_id}: {name} mean does not equal the stated rate")
            object.__setattr__(self, name, trials)


@dataclass(frozen=True)
class PairedEvalTable:
    """All policies evaluated on one task."""

    task: str
    evals: tuple[PolicyEval, ...]

    def __post_init__(self):
        object.__setattr__(self, "evals", tuple(self.evals))
        ids = [e.policy_id for e in self.evals]
        if len(set(ids)) != len(ids):
            raise MetricsError(f"task {self.task!r}: duplicate policy ids")

    @property
    def real(self) -> np.ndarray:
        return np.array([e.real_rate for e in self.evals])

    @property
    def sim(self) -> np.ndarray:
        return np.array([e.sim_rate for e in self.evals])


@dataclass(frozen=True)
class ShiftEval:
    """Success under a base condition and under variants of one shift axis."""

    base_rate: float
    variant_rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "variant_rates", tuple(float(v) for v in self.variant_rates))
        if len(self.variant_rates) == 0:
            raise MetricsError("at least one variant rate is required")
        for r in (self.base_rate, *self.variant_rates):
            if not 0.0 <= r <= 1.0:
                raise MetricsError(f"rate {r} outside [0, 1]")


def rank_violation(i: PolicyEval, j: PolicyEval) -> float:
    """Real-rate gap if the simulated ordering of the pair disagrees.

    Strict comparisons, taken literally: equal real rates always yield 0;
    equal sim rates with unequal real rates violate in exactly one ordered
    direction.
    """
    if (i.sim_rate < j.sim_rate) != (i.real_rate < j.real_rate):
        return abs(i.real_rate - j.real_rate)
    return 0.0


def max_rank_violation(table: PairedEvalTable, i: int) -> float:
    """Worst violation committed against policy ``i`` across the table."""
    e = table.evals[i]
    return max(rank_violation(e, other) for other in table.evals)


def mmrv(table: PairedEvalTable) -> float:
    """Mean over policies of the worst real-weighted rank violation."""
    if len(table.evals) < 2:
        raise MetricsError("need at least two policies")
    return sum(max_rank_violation(table, i) for i in range(len(table.evals))) / len(table.evals)


def _check_paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    if xa.shape != ya.shape:
        raise MetricsError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise MetricsError("need at least two observations")
    return xa, ya


def pearson(x, y) -> float:
    """Sample Pearson correlation; raises UndefinedStatisticError on zero variance."""
    xa, ya = _check_paired(x, y)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedStatisticError("correlation undefined: an input has zero variance")
    return float(np.sum(dx * dy) / (sx * sy))


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Average-fractional ranks in [1, n]; ties share the mean rank."""
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


def spearman(x, y) -> float:
    """Rank correlation: Pearson over average-fractional ranks."""
    xa, ya = _check_paired(x, y)
    return pearson(_fractional_ranks(xa), _fractional_ranks(ya))


class DeltaSuccess(NamedTuple):
    signed: float
    absolute: float


def delta_success(s: ShiftEval) -> DeltaSuccess:
    """Mean signed and mean absolute success change across shift variants."""
    diffs = np.array(s.variant_rates) - s.base_rate
    return DeltaSuccess(float(diffs.mean()), float(np.abs(diffs).mean()))


class KruskalResult(NamedTuple):
    h: float
    p: float


def _gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) via series / continued fraction."""
    if a <= 0.0 or x < 0.0:
        raise MetricsError("invalid incomplete-gamma arguments")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        # lower series, then complement
        ap = a
        summ = 1.0 / a
        term = summ
        for _ in range(1000):
            ap += 1.0
            term *= x / ap
            summ += term
            if abs(term) < abs(summ) * 1e-16:
                break
        p = summ * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return max(0.0, min(1.0, 1.0 - p))
    # modified Lentz continued fraction for the upper tail
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    return max(0.0, min(1.0, q))


def _chi2_sf_1df(h: float) -> float:
    return _gammainc_upper(0.5, 0.5 * h)


def kruskal_wallis(a, b) -> KruskalResult:
    """Two-group Kruskal-Wallis H with tie correction; chi-square p (1 dof).

    Identical pooled observations return (0, 1) rather than dividing by a
    zero tie-correction factor.
    """
    aa = np.asarray(a, dtype=float).reshape(-1)
    bb = np.asarray(b, dtype=float).reshape(-1)
    if aa.shape[0] == 0 or bb.shape[0] == 0:
        raise MetricsError("both groups must be non-empty")
    pooled = np.concatenate([aa, bb])
    n = pooled.shape[0]
    ranks = _fractional_ranks(pooled)
    r_a = ranks[: aa.shape[0]]
    r_b = ranks[aa.shape[0] :]
    grand = 0.5 * (n + 1)
    h_unc = (12.0 / (n * (n + 1))) * (
        aa.shape[0] * (r_a.mean() - grand) ** 2 + bb.shape[0] * (r_b.mean() - grand) ** 2
    )
    _, counts = np.unique(pooled, return_counts=True)
    correction = 1.0 - float(np.sum(counts.astype(float) ** 3 - counts)) / (n**3 - n)
    if correction <= 0.0:
        return KruskalResult(0.0, 1.0)
    h = h_unc / correction
    return KruskalResult(float(h), _chi2_sf_1df(float(h)))


def aggregate_grouped(rates: Sequence[Sequence[float]]) -> list[float]:
    """Unweighted arithmetic mean of each group of rates."""
    if len(rates) == 0:
        raise MetricsError("no groups to aggregate")
    out = []
    for i, group in enumerate(rates):
        g = np.asarray(group, dtype=float).reshape(-1)
        if g.shape[0] == 0:
            raise MetricsError(f"group {i} is empty")
        out.append(float(g.mean()))
    return out


def action_mse(pred, gt) -> float:
    """Mean squared error over all timesteps and action dimensions."""
    pa = np.asarray(pred, dtype=float)
    ga = np.asarray(gt, dtype=float)
    if pa.shape != ga.shape:
        raise MetricsError(f"shape mismatch: {pa.shape} vs {ga.shape}")
    if pa.size == 0:
        raise MetricsError("empty action arrays")
    return float(np.mean((pa - ga) ** 2))
