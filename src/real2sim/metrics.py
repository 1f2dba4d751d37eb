"""Evaluation-correlation statistics for paired real/simulated success data.

The central metric is the mean maximum rank violation: for every ordered
policy pair whose real and simulated orderings disagree, the violation is
weighted by the real success-rate gap, and the per-policy worst case is
averaged. Pearson/Spearman correlations, success-rate deltas under
distribution shifts, a two-group Kruskal-Wallis test and a validation
action-MSE baseline round out the set.

The statistics take plain sequences (lists, tuples or arrays) of any finite
numbers. That a success rate lies in [0, 1], that a trial is 0 or 1 and that
a table lists each policy once are rules of the input files, checked where
``report`` parses them.

Every sum is ``math.fsum``, exactly rounded, so no statistic depends on the
order in which its inputs (a table's policies, say) are listed.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

__all__ = [
    "MetricsError",
    "UndefinedStatisticError",
    "DeltaSuccess",
    "KruskalResult",
    "rank_violation",
    "max_rank_violations",
    "mmrv",
    "pearson",
    "spearman",
    "delta_success",
    "kruskal_wallis",
    "action_mse",
]


class MetricsError(ValueError):
    """Raised for malformed statistic inputs."""


class UndefinedStatisticError(MetricsError):
    """Raised when a statistic is undefined (e.g. zero variance), so the
    caller can surface an explicit n/a instead of a silent number."""


def rank_violation(real_i: float, sim_i: float, real_j: float, sim_j: float) -> float:
    """Real-rate gap of policies i and j if their simulated ordering disagrees with the real one.

    Strict comparisons, taken literally: equal real rates always yield 0;
    equal sim rates with unequal real rates violate in exactly one ordered
    direction.
    """
    if (sim_i < sim_j) != (real_i < real_j):
        return abs(real_i - real_j)
    return 0.0


def max_rank_violations(real, sim) -> list[float]:
    """Worst violation committed against each policy, in input order; MMRV is their mean."""
    pairs = list(zip(*_paired(real, sim)))
    return [max(rank_violation(ri, si, rj, sj) for rj, sj in pairs) for ri, si in pairs]


def mmrv(real, sim) -> float:
    """Mean over policies of the worst real-weighted rank violation."""
    return _mean(max_rank_violations(real, sim))


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


def _paired(x, y) -> tuple[list[float], list[float]]:
    """The finite values of ``x`` and ``y``, which must be paired: equal in number, and at least two."""
    xs, ys = _flatten(x)[1], _flatten(y)[1]
    if len(xs) != len(ys):
        raise MetricsError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise MetricsError("need at least two observations")
    return xs, ys


def pearson(x, y) -> float:
    """Sample Pearson correlation; raises UndefinedStatisticError on zero variance."""
    xs, ys = _paired(x, y)
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
    xs, ys = _paired(x, y)
    return pearson(_fractional_ranks(xs), _fractional_ranks(ys))


class DeltaSuccess(NamedTuple):
    signed: float
    absolute: float


def delta_success(base: float, variants) -> DeltaSuccess:
    """Mean signed and mean absolute change from the base success rate across the variant rates."""
    if not math.isfinite(base):
        raise MetricsError("non-finite value")
    diffs = [v - base for v in _flatten(variants)[1]]
    if not diffs:
        raise MetricsError("at least one variant rate is required")
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


def action_mse(pred, gt) -> float:
    """Mean squared error over all timesteps and action dimensions."""
    pa_shape, pa = _flatten(pred)
    ga_shape, ga = _flatten(gt)
    if pa_shape != ga_shape:
        raise MetricsError(f"shape mismatch: {pa_shape} vs {ga_shape}")
    if not pa:
        raise MetricsError("empty action arrays")
    return _mean([(p - g) * (p - g) for p, g in zip(pa, ga)])
