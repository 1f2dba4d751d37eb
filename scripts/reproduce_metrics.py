#!/usr/bin/env python3
"""Recompute the evaluation-correlation metrics from the bundled fixtures.

Prints MMRV / Pearson / Spearman per task for the paired Google Robot and
WidowX Bridge tables, then the per-factor distribution-shift deltas.
"""

import json

from real2sim import report as rep
from real2sim.data import load_fixture
from real2sim.metrics import delta_success


def main() -> None:
    print(f"{'task':28s} {'n':>2s} {'MMRV':>7s} {'pearson':>8s} {'spearman':>9s}")
    for name in ("google_robot_vismatch.json", "bridge_stack.json"):
        for table in rep.tables_from_obj(json.loads(load_fixture(name)), name):
            s = rep.compute_table_stats(table)
            pearson = "n/a" if s.pearson is None else f"{s.pearson:8.3f}"
            spearman = "n/a" if s.spearman is None else f"{s.spearman:9.3f}"
            print(f"{s.task:28s} {s.n_policies:2d} {s.mmrv:7.3f} {pearson} {spearman}")

    print()
    print(f"{'policy':14s} {'factor':15s} {'base':>6s} {'signed':>8s} {'abs':>7s}")
    for row in rep.shifts_from_obj(json.loads(load_fixture("rt1_pick_coke_shift.json"))):
        d = delta_success(row.shift)
        print(f"{row.policy:14s} {row.factor:15s} {row.shift.base_rate:6.3f} {d.signed:+8.3f} {d.absolute:7.3f}")


if __name__ == "__main__":
    main()
