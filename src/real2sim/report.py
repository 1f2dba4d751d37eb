"""Parsing of evaluation-table/shift JSON files and CSV report assembly."""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from . import json_name, json_number
from .metrics import (
    MetricsError,
    PairedEvalTable,
    PolicyEval,
    ShiftEval,
    UndefinedStatisticError,
    delta_success,
    kruskal_wallis,
    max_rank_violations,
    pearson,
    spearman,
)

__all__ = [
    "InputFormatError",
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


def _parse_policy(obj, path: str) -> PolicyEval:
    pid = _name(obj, "policy_id", path)
    real = _number(_need(obj, "real_rate", path), f"{path}.real_rate")
    sim = _number(_need(obj, "sim_rate", path), f"{path}.sim_rate")
    kwargs = {}
    for name in ("real_trials", "sim_trials"):
        if obj.get(name) is not None:
            if not isinstance(obj[name], list):
                raise InputFormatError(f"{path}.{name}: expected a list of 0/1 outcomes")
            kwargs[name] = tuple(_number(v, f"{path}.{name}") for v in obj[name])  # PolicyEval checks 0/1
    try:
        return PolicyEval(pid, real, sim, **kwargs)
    except MetricsError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _parse_table(obj, path: str) -> PairedEvalTable:
    task = _name(obj, "task", path)
    evals = _need(obj, "evals", path)
    if not isinstance(evals, list):
        raise InputFormatError(f"{path}.evals: expected a list")
    parsed = [_parse_policy(e, f"{path}.evals[{i}]") for i, e in enumerate(evals)]
    try:
        return PairedEvalTable(task, tuple(parsed))
    except MetricsError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def tables_from_obj(obj, source: str = "<input>") -> list[PairedEvalTable]:
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
    shift: ShiftEval


def shifts_from_obj(obj, source: str = "<input>") -> list[ShiftRow]:
    """Accepts one shift object, a list, or {"shifts": [...]}.

    Shift object: {"policy", "task", "base", "factors": {name: [rates...]}}.
    """
    if isinstance(obj, dict) and "shifts" in obj:
        obj = obj["shifts"]
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise InputFormatError(f"{source}: expected a shift object or list")
    rows: list[ShiftRow] = []
    for i, entry in enumerate(obj):
        path = f"{source}.shifts[{i}]"
        policy = _name(entry, "policy", path)
        task = _name(entry, "task", path)
        base = _number(_need(entry, "base", path), f"{path}.base")
        factors = _need(entry, "factors", path)
        if not isinstance(factors, dict) or not factors:
            raise InputFormatError(f"{path}.factors: expected a non-empty object")
        for name, rates in factors.items():
            if not isinstance(rates, list):
                raise InputFormatError(f"{path}.factors.{name}: not a rate list")
            # an empty list or a rate outside [0, 1] is a semantic MetricsError
            shift = ShiftEval(base, tuple(_number(r, f"{path}.factors.{name}") for r in rates))
            rows.append(ShiftRow(policy, task, name, shift))
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


def compute_table_stats(table: PairedEvalTable) -> TableStats:
    r = _unless_undefined(pearson, table.real, table.sim)
    rho = _unless_undefined(spearman, table.real, table.sim)
    kp = {e.policy_id: kruskal_wallis(e.real_trials, e.sim_trials).p
          for e in table.evals if e.real_trials is not None and e.sim_trials is not None}
    worst = max_rank_violations(table)
    return TableStats(table.task, len(table.evals), sum(worst) / len(worst), r, rho, kp, tuple(worst))


def _fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6f}"


def metrics_csv(table: PairedEvalTable, stats: TableStats) -> str:
    """Per-policy rows, then footer rows for the table-level statistics."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["task", "policy", "real", "sim", "max_rank_violation"])
    for e, worst in zip(table.evals, stats.max_violations):
        w.writerow([table.task, e.policy_id, f"{e.real_rate:.6f}", f"{e.sim_rate:.6f}", f"{worst:.6f}"])
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
        d = delta_success(row.shift)
        w.writerow(
            [row.policy, row.task, row.factor, f"{row.shift.base_rate:.6f}", len(row.shift.variant_rates),
             f"{d.signed:.6f}", f"{d.absolute:.6f}"]
        )
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
