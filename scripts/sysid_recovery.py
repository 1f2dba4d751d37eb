#!/usr/bin/env python3
"""Synthetic PD-identification experiment, end to end.

Generates open-loop trajectories from a 6-DOF bench arm under known gains,
then runs the 3-round annealing fit from a deliberately wrong initial guess
inside a 10x-wide search range and reports how well the gains are
recovered. Deterministic for a fixed --seed.
"""

import argparse
import logging
import time

from real2sim.bench import recovery_setup
from real2sim.sysid import AnnealConfig, anneal_fit


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--records", type=int, default=5)
    parser.add_argument("--actions", type=int, default=30)
    parser.add_argument("--iters", type=int, default=90, help="annealing iterations per round")
    parser.add_argument("--p-true", type=float, default=80.0)
    parser.add_argument("--d-true", type=float, default=3.0)
    args = parser.parse_args()

    logging.getLogger("real2sim").setLevel(logging.ERROR)
    print(f"generating {args.records} trajectories of {args.actions} actions each ...")
    setup = recovery_setup(args.records, args.actions, args.p_true, args.d_true)
    truth = setup.truth
    cfg = AnnealConfig(rounds=3, iters_per_round=args.iters, sigma=0.12, shrink=0.28,
                       rng_seed=args.seed, tie_joints=True)

    t0 = time.monotonic()
    result = anneal_fit(setup.records, setup.chain, setup.dyn, "widowx", setup.init, setup.bounds, cfg,
                        ik_iters=setup.ik_iters)
    elapsed = time.monotonic() - t0

    print(f"done in {elapsed:.1f} s, {result.evaluations} objective evaluations")
    print(f"initial loss : {result.initial_loss:.6f}")
    print(f"final loss   : {result.best_loss:.6f} ({result.best_loss / result.initial_loss:.2%} of initial)")
    print(f"  translation {result.losses.translation:.6f}  rotation {result.losses.rotation:.6f}")
    print(f"true gains     p = {truth.p[0]:.1f}  d = {truth.d[0]:.2f}")
    print(f"recovered      p = {result.best.p[0]:.1f}  d = {result.best.d[0]:.2f}")
    for h in result.history:
        print(f"  round {h.round_index}: best loss {h.best_loss:.6f} after {h.evaluations} evaluations")


if __name__ == "__main__":
    main()
