"""Evaluation-correlation statistics for paired real/simulated success data.

The central metric is the mean maximum rank violation: for every ordered
policy pair whose real and simulated orderings disagree, the violation is
weighted by the real success-rate gap, and the per-policy worst case is
averaged. Pearson/Spearman correlations, success-rate deltas under
distribution shifts, a two-group Kruskal-Wallis test, grouped averaging,
and a validation action-MSE baseline round out the set.

Every sum is ``math.fsum``, exactly rounded, so no statistic depends on the
order in which its inputs (a table's policies, say) are listed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

__all__ = [
    "MetricsError",
    "UndefinedStatisticError",
    "PolicyEval",
    "PairedEvalTable",
    "ShiftEval",
    "DeltaSuccess",
    "KruskalResult",
    "rank_violation",
    "max_rank_violations",
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
            if any(t not in (0, 1) for t in trials):
                raise MetricsError(f"{self.policy_id}: {name} must be binary")
            trials = tuple(int(t) for t in trials)
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
    def real(self) -> list[float]:
        return [e.real_rate for e in self.evals]

    @property
    def sim(self) -> list[float]:
        return [e.sim_rate for e in self.evals]


@dataclass(frozen=True)
class ShiftEval:
    """Success under a base condition and under variants of one shift axis."""

    base_rate: float
    variant_rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "variant_rates", tuple(float(v) for v in self.variant_rates))
        for r in (self.base_rate, *self.variant_rates):
            if not 0.0 <= r <= 1.0:
                raise MetricsError(f"rate {r} outside [0, 1]")
        if len(self.variant_rates) == 0:
            raise MetricsError("at least one variant rate is required")


def rank_violation(i: PolicyEval, j: PolicyEval) -> float:
    """Real-rate gap if the simulated ordering of the pair disagrees.

    Strict comparisons, taken literally: equal real rates always yield 0;
    equal sim rates with unequal real rates violate in exactly one ordered
    direction.
    """
    if (i.sim_rate < j.sim_rate) != (i.real_rate < j.real_rate):
        return abs(i.real_rate - j.real_rate)
    return 0.0


def max_rank_violations(table: PairedEvalTable) -> list[float]:
    """Worst violation committed against each policy across the table; MMRV is their mean."""
    if len(table.evals) < 2:
        raise MetricsError("need at least two policies")
    return [max(rank_violation(e, other) for other in table.evals) for e in table.evals]


def mmrv(table: PairedEvalTable) -> float:
    """Mean over policies of the worst real-weighted rank violation."""
    return _mean(max_rank_violations(table))


def _flatten(a) -> tuple[tuple[int, ...], list[float]]:
    """Shape and row-major finite values of a nested sequence, or of anything with ``tolist`` (an ndarray)."""
    a = a.tolist() if hasattr(a, "tolist") else a
    if not isinstance(a, (list, tuple)):
        shape, values = (), [float(a)]
    elif all(isinstance(v, (int, float)) for v in a):
        shape, values = (len(a),), [float(v) for v in a]
    else:
        parts = [_flatten(v) for v in a]
        shapes = {shape for shape, _ in parts}
        if len(shapes) > 1:
            raise MetricsError("nested sequences of unequal length")
        shape, values = (len(a), *shapes.pop()), [x for _, part in parts for x in part]
    if not all(map(math.isfinite, values)):
        raise MetricsError("non-finite value")
    return shape, values


def _mean(xs: list[float]) -> float:
    """Exactly rounded mean: ``math.fsum`` rounds the sum once, so it does not depend on the order of ``xs``."""
    return math.fsum(xs) / len(xs)


def pearson(x, y) -> float:
    """Sample Pearson correlation; raises UndefinedStatisticError on zero variance."""
    xs, ys = _flatten(x)[1], _flatten(y)[1]
    if len(xs) != len(ys):
        raise MetricsError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise MetricsError("need at least two observations")
    mx, my = _mean(xs), _mean(ys)
    dx = [v - mx for v in xs]
    dy = [v - my for v in ys]
    scale = math.sqrt(math.fsum(v * v for v in dx)) * math.sqrt(math.fsum(v * v for v in dy))
    if scale == 0.0:
        raise UndefinedStatisticError("correlation undefined: an input has zero variance")
    return math.fsum(a * b for a, b in zip(dx, dy)) / scale


def _fractional_ranks(x: list[float]) -> list[float]:
    """Average-fractional ranks in [1, n]; ties share the mean rank."""
    order = sorted(range(len(x)), key=x.__getitem__)
    ranks = [0.0] * len(x)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Rank correlation: Pearson over average-fractional ranks."""
    return pearson(_fractional_ranks(_flatten(x)[1]), _fractional_ranks(_flatten(y)[1]))


class DeltaSuccess(NamedTuple):
    signed: float
    absolute: float


def delta_success(s: ShiftEval) -> DeltaSuccess:
    """Mean signed and mean absolute success change across shift variants."""
    diffs = [v - s.base_rate for v in s.variant_rates]
    return DeltaSuccess(_mean(diffs), _mean([abs(d) for d in diffs]))


class KruskalResult(NamedTuple):
    h: float
    p: float


def kruskal_wallis(a, b) -> KruskalResult:
    """Two-group Kruskal-Wallis H with tie correction; p is the chi-square (1 dof) tail ``erfc(sqrt(h/2))``.

    Identical pooled observations return (0, 1) rather than dividing by a
    zero tie-correction factor.
    """
    aa = _flatten(a)[1]
    bb = _flatten(b)[1]
    if not aa or not bb:
        raise MetricsError("both groups must be non-empty")
    n = len(aa) + len(bb)
    ranks = _fractional_ranks(aa + bb)
    grand = 0.5 * (n + 1)
    h_unc = (12.0 / (n * (n + 1))) * (
        len(aa) * (_mean(ranks[: len(aa)]) - grand) ** 2 + len(bb) * (_mean(ranks[len(aa) :]) - grand) ** 2
    )
    correction = 1.0 - sum(c**3 - c for c in Counter(aa + bb).values()) / (n**3 - n)
    if correction <= 0.0:
        return KruskalResult(0.0, 1.0)
    h = h_unc / correction
    return KruskalResult(h, math.erfc(math.sqrt(0.5 * h)))


def aggregate_grouped(rates: Sequence[Sequence[float]]) -> list[float]:
    """Unweighted arithmetic mean of each group of rates."""
    if len(rates) == 0:
        raise MetricsError("no groups to aggregate")
    out = []
    for i, group in enumerate(rates):
        g = _flatten(group)[1]
        if not g:
            raise MetricsError(f"group {i} is empty")
        out.append(_mean(g))
    return out


def action_mse(pred, gt) -> float:
    """Mean squared error over all timesteps and action dimensions."""
    pa_shape, pa = _flatten(pred)
    ga_shape, ga = _flatten(gt)
    if pa_shape != ga_shape:
        raise MetricsError(f"shape mismatch: {pa_shape} vs {ga_shape}")
    if not pa:
        raise MetricsError("empty action arrays")
    return _mean([(p - g) * (p - g) for p, g in zip(pa, ga)])
