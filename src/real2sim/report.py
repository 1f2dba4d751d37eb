"""Parsing of evaluation-table/shift JSON files and CSV report assembly.

The parser is the one place that checks what these files must hold. A
missing value, one not of its JSON type or an empty shift list raises
``InputFormatError`` (exit 2). A rate outside [0, 1], a trial list that does
not match its rate, a repeated policy id or a table of fewer than two
policies raises ``MetricsError`` (exit 3). Each names the file and the field.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from . import json_name, json_number
from .metrics import (
    MetricsError,
    UndefinedStatisticError,
    _mean,
    delta_success,
    kruskal_wallis,
    max_rank_violations,
    pearson,
    spearman,
)

__all__ = [
    "InputFormatError",
    "Table",
    "tables_from_obj",
    "shifts_from_obj",
    "TableStats",
    "compute_table_stats",
    "metrics_csv",
    "shift_csv",
    "aggregate_dict",
]


class InputFormatError(ValueError):
    """Structural problem in an input file; carries the offending field path."""


def _need(obj: dict, key: str, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise InputFormatError(f"{path}.{key}: missing field")
    return obj[key]


def _name(obj: dict, key: str, path: str) -> str:
    return json_name(_need(obj, key, path), InputFormatError(f"{path}.{key}: expected a string"))


def _number(v, path: str) -> float:
    """``v`` as a float if it is a finite JSON number."""
    error = InputFormatError(f"{path}: not a finite number")
    x = json_number(v, error)
    if not math.isfinite(x):
        raise error
    return x


def _rate(v, path: str) -> float:
    """``v`` as a float if it is a success rate: not a finite JSON number exits 2, one outside [0, 1] exits 3."""
    r = _number(v, path)
    if not 0.0 <= r <= 1.0:
        raise MetricsError(f"{path}: rate {r} outside [0, 1]")
    return r


def _trials(obj: dict, name: str, rate: float, path: str) -> tuple[int, ...] | None:
    """The 0/1 outcomes under ``obj[name]`` (None if absent or null), whose mean must be ``rate``."""
    if obj.get(name) is None:
        return None
    where = f"{path}.{name}"
    if not isinstance(obj[name], list):
        raise InputFormatError(f"{where}: expected a list of 0/1 outcomes")
    outcomes = [_number(v, where) for v in obj[name]]
    if not outcomes:
        raise MetricsError(f"{where}: no outcomes")
    for t in outcomes:
        if t not in (0.0, 1.0):  # int() would truncate 0.6 to 0
            raise MetricsError(f"{where}: outcome {t} is not 0 or 1")
    mean = math.fsum(outcomes) / len(outcomes)
    if abs(mean - rate) > 1e-9:
        raise MetricsError(f"{where}: mean {mean} does not equal the rate {rate}")
    return tuple(int(t) for t in outcomes)


@dataclass(frozen=True)
class Table:
    """One task's policies, in file order, with their real and simulated success rates; ``trials`` maps
    each policy that lists both outcome lists to its (real, sim) trials."""

    task: str
    policy_ids: tuple[str, ...]
    real: tuple[float, ...]
    sim: tuple[float, ...]
    trials: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]


def _parse_table(obj, path: str) -> Table:
    task = _name(obj, "task", path)
    evals = _need(obj, "evals", path)
    if not isinstance(evals, list):
        raise InputFormatError(f"{path}.evals: expected a list")
    index_of: dict[str, int] = {}
    real, sim, trials = [], [], {}
    for i, e in enumerate(evals):
        where = f"{path}.evals[{i}]"
        pid = _name(e, "policy_id", where)
        if pid in index_of:
            raise MetricsError(f"{where}.policy_id: {pid!r} repeats evals[{index_of[pid]}]")
        index_of[pid] = i
        real.append(_rate(_need(e, "real_rate", where), f"{where}.real_rate"))
        sim.append(_rate(_need(e, "sim_rate", where), f"{where}.sim_rate"))
        outcomes = (_trials(e, "real_trials", real[-1], where), _trials(e, "sim_trials", sim[-1], where))
        if None not in outcomes:
            trials[pid] = outcomes
    if len(index_of) < 2:
        raise MetricsError(f"{path}.evals: need at least two policies")
    return Table(task, tuple(index_of), tuple(real), tuple(sim), trials)


def tables_from_obj(obj, source: str = "<input>") -> list[Table]:
    """Accepts one table object, a list of tables, or {"tables": [...]}."""
    if isinstance(obj, dict) and "tables" in obj:
        obj = obj["tables"]
    if isinstance(obj, dict):
        return [_parse_table(obj, source)]
    if isinstance(obj, list):
        return [_parse_table(t, f"{source}.tables[{i}]") for i, t in enumerate(obj)]
    raise InputFormatError(f"{source}: expected a table object or list of tables")


@dataclass(frozen=True)
class ShiftRow:
    policy: str
    task: str
    factor: str
    base: float
    variants: tuple[float, ...]


def shifts_from_obj(obj, source: str = "<input>") -> list[ShiftRow]:
    """Accepts one shift object, or a non-empty list of them, bare or under {"shifts": [...]}.

    Shift object: {"policy", "task", "base", "factors": {name: [rates...]}}.
    """
    if isinstance(obj, dict) and "shifts" in obj:
        obj = obj["shifts"]
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise InputFormatError(f"{source}: expected a shift object or list")
    if not obj:
        raise InputFormatError(f"{source}: no shifts found")
    rows: list[ShiftRow] = []
    for i, entry in enumerate(obj):
        path = f"{source}.shifts[{i}]"
        policy = _name(entry, "policy", path)
        task = _name(entry, "task", path)
        base = _rate(_need(entry, "base", path), f"{path}.base")
        factors = _need(entry, "factors", path)
        if not isinstance(factors, dict) or not factors:
            raise InputFormatError(f"{path}.factors: expected a non-empty object")
        for name, rates in factors.items():
            where = f"{path}.factors.{name}"
            if not isinstance(rates, list):
                raise InputFormatError(f"{where}: not a rate list")
            if not rates:
                raise MetricsError(f"{where}: at least one variant rate is required")
            rows.append(ShiftRow(policy, task, name, base, tuple(_rate(r, where) for r in rates)))
    return rows


@dataclass(frozen=True)
class TableStats:
    task: str
    n_policies: int
    mmrv: float
    pearson: float | None
    spearman: float | None
    kruskal_p: dict[str, float]
    max_violations: tuple[float, ...]  # per policy, in table order


def _unless_undefined(stat, x, y) -> float | None:
    try:
        return stat(x, y)
    except UndefinedStatisticError:
        return None


def compute_table_stats(table: Table) -> TableStats:
    r = _unless_undefined(pearson, table.real, table.sim)
    rho = _unless_undefined(spearman, table.real, table.sim)
    kp = {pid: kruskal_wallis(real, sim).p for pid, (real, sim) in table.trials.items()}
    worst = max_rank_violations(table.real, table.sim)
    return TableStats(table.task, len(table.policy_ids), _mean(worst), r, rho, kp, tuple(worst))


def _fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6f}"


def metrics_csv(table: Table, stats: TableStats) -> str:
    """Per-policy rows, then footer rows for the table-level statistics."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["task", "policy", "real", "sim", "max_rank_violation"])
    for pid, real, sim, worst in zip(table.policy_ids, table.real, table.sim, stats.max_violations):
        w.writerow([table.task, pid, f"{real:.6f}", f"{sim:.6f}", f"{worst:.6f}"])
    w.writerow([table.task, "MMRV", "", "", _fmt(stats.mmrv)])
    w.writerow([table.task, "pearson", "", "", _fmt(stats.pearson)])
    w.writerow([table.task, "spearman", "", "", _fmt(stats.spearman)])
    for policy, p in stats.kruskal_p.items():
        w.writerow([table.task, f"kruskal_p:{policy}", "", "", _fmt(p)])
    return buf.getvalue()


def shift_csv(rows: list[ShiftRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["policy", "task", "factor", "base", "n_variants", "delta_signed", "delta_abs"])
    for row in rows:
        d = delta_success(row.base, row.variants)
        w.writerow([row.policy, row.task, row.factor, f"{row.base:.6f}", len(row.variants), f"{d.signed:.6f}",
                    f"{d.absolute:.6f}"])
    return buf.getvalue()


def aggregate_dict(stats: list[TableStats]) -> dict:
    return {
        "tables": [
            {
                "task": s.task,
                "n_policies": s.n_policies,
                "mmrv": s.mmrv,
                "pearson": s.pearson,
                "spearman": s.spearman,
                "kruskal_p": s.kruskal_p,
            }
            for s in stats
        ]
    }
