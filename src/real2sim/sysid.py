"""Trajectory-tracking losses and the shrinking-range annealing PD fit.

The loss compares a reference end-effector trajectory against an open-loop
replay: mean translation error norm plus mean arcsin(|dR|_F / (2 sqrt 2)).
PD gains are optimized by simulated annealing in range-normalized [0, 1]
coordinates; after each round the search range is recentered on the
incumbent best and contracted, clipped to the original bounds. Each step replays
k = min(ANNEAL_PROPOSALS, evaluations left in the round) proposals in one lockstep
call, runs the Metropolis test on the first lowest and cools by cooling**k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import json_number
from .chain import ChainSpec
from .controller import CtrlConfig
from .geometry import rot_frobenius_loss
from .jointsim import (
    WIDOWX,
    TrajectoryRecord,
    _check_plant,
    _simulate,
    _widowx_goals,
    default_config,
    initial_joint_positions,
)

__all__ = [
    "SysIdError",
    "AnnealConfig",
    "TrajectoryLosses",
    "RoundStats",
    "AnnealResult",
    "trajectory_losses",
    "anneal_fit",
]

ANNEAL_PROPOSALS = 4  # proposals per annealing step, replayed in one lockstep call


class SysIdError(ValueError):
    """Raised for malformed identification inputs."""


class TrajectoryLosses(NamedTuple):
    translation: float
    rotation: float
    total: float


def trajectory_losses(ref: np.ndarray, sim: np.ndarray) -> TrajectoryLosses:
    """Per-step mean translation and rotation losses between two (T, 4, 4) tool-pose paths."""
    if len(ref) == 0:
        raise SysIdError("empty pose sequences")
    if len(ref) != len(sim):
        raise SysIdError(f"length mismatch: {len(ref)} reference vs {len(sim)} simulated poses")
    d = np.subtract(ref[:, None, :3, 3], sim[:, None, :3, 3])
    # cumsum adds in step order, as a loop from 0 does; each norm is a 1-D dot
    l_t = float(np.cumsum(np.sqrt(d @ d.transpose(0, 2, 1)))[-1]) / len(ref)
    l_r = float(np.cumsum(rot_frobenius_loss(ref[:, :3, :3], sim[:, :3, :3]))[-1]) / len(ref)
    return TrajectoryLosses(l_t, l_r, l_t + l_r)


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule; ``t0=None`` arms each round at 0.1x its start loss."""

    rounds: int = 3
    iters_per_round: int = 300
    t0: float | None = None
    cooling: float = 0.985
    sigma: float = 0.1
    shrink: float = 0.5
    rng_seed: int = 0
    tie_joints: bool = False

    def __post_init__(self):
        for name in ("rounds", "iters_per_round", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SysIdError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.tie_joints, bool):
            raise SysIdError(f"tie_joints must be true or false, got {self.tie_joints!r}")
        for name in ("t0", "cooling", "sigma", "shrink"):
            value = getattr(self, name)
            if value is None and name == "t0":
                continue
            error = SysIdError(f"{name} must be a finite number, got {value!r}")
            if not math.isfinite(json_number(value, error)):
                raise error
        if self.rounds < 1 or self.iters_per_round < 1:
            raise SysIdError("rounds and iters_per_round must be at least 1")
        if not 0.0 < self.cooling < 1.0:
            raise SysIdError("cooling must lie in (0, 1)")
        if not 0.0 < self.shrink < 1.0:
            raise SysIdError("shrink must lie in (0, 1)")
        if self.sigma <= 0.0 or (self.t0 is not None and self.t0 <= 0.0):
            raise SysIdError("sigma and t0 must be positive")


@dataclass(frozen=True)
class RoundStats:
    round_index: int
    best_loss: float
    best_p: np.ndarray
    best_d: np.ndarray
    evaluations: int
    lows: np.ndarray  # search bounds the round ran with (p then d)
    highs: np.ndarray


@dataclass(frozen=True)
class AnnealResult:
    best_p: np.ndarray
    best_d: np.ndarray
    best_loss: float
    initial_loss: float
    losses: TrajectoryLosses
    history: tuple[RoundStats, ...]
    evaluations: int


def anneal_fit(
    dataset: Sequence[TrajectoryRecord],
    chain: ChainSpec,
    inertia,
    damping,
    controller_kind: str,
    init_p,
    init_d,
    p_range,
    d_range,
    cfg: AnnealConfig | None = None,
    ctrl_cfg: CtrlConfig | None = None,
    ik_iters: int = 200,
) -> AnnealResult:
    """Fit PD gains by multi-round simulated annealing of the replay loss, from the (n,) gains ``init_p`` and
    ``init_d``, on joints of (n,) ``inertia`` and passive ``damping``, inside the (2, n) ranges ``p_range`` and
    ``d_range`` (row 0 the lower bounds, row 1 the upper), which the fit copies.

    The objective is the unweighted mean of the trajectory losses over the
    dataset. With ``tie_joints`` the search runs over two shared scalars
    mapped to each joint's bounds; otherwise every joint's gains are free.
    The search space is checked once, here: a fault names its field
    (``range.p_low`` .. ``range.d_high``, ``init.p``, ``init.d``) and joint;
    an unstable top corner of the range is a JointSimError. The replays then
    start at ``initial_joint_positions`` of the dataset, solved once; a fault
    of record i is raised with ``record`` i. The WidowX goals are solved once.
    """
    cfg = cfg or AnnealConfig()
    if len(dataset) == 0:
        raise SysIdError("dataset must contain at least one trajectory record")
    n = chain.n
    p_range, d_range = np.asarray(p_range, dtype=float), np.asarray(d_range, dtype=float)
    if p_range.shape != (2, n) or d_range.shape != (2, n) or np.shape(init_p) != (n,) or np.shape(init_d) != (n,):
        raise SysIdError(f"p_range and d_range must be (2, {n}) arrays and init_p and init_d ({n},) arrays, not "
                         f"{p_range.shape}, {d_range.shape}, {np.shape(init_p)} and {np.shape(init_d)}")
    space = np.concatenate([p_range, d_range], axis=1)  # a new (2, 2n) array: lower and upper bounds of theta = (p, d)
    lows0, highs0 = space
    theta_init = np.concatenate([init_p, init_d])

    def field(row: int, col: int) -> str:
        return f"range.{'pd'[col // n]}_{('low', 'high')[row]}"

    for rule, bad in (("finite", ~np.isfinite(space)), ("non-negative", space < 0.0)):
        for row, col in np.argwhere(bad)[:1]:
            raise SysIdError(f"{field(row, col)}: the bound on joint {col % n} must be {rule}, "
                             f"got {float(space[row, col])!r}")
    for col in np.flatnonzero(~(lows0 < highs0))[:1]:
        raise SysIdError(f"{field(0, col)}, {field(1, col)}: on joint {col % n} the lower bound {float(lows0[col])!r} "
                         f"must lie strictly below the upper bound {float(highs0[col])!r}")
    for col in np.flatnonzero(~((theta_init >= lows0 - 1e-12) & (theta_init <= highs0 + 1e-12)))[:1]:  # also a NaN
        raise SysIdError(f"init.{'pd'[col // n]}: the gain on joint {col % n} is {float(theta_init[col])!r}, outside "
                         f"the range [{float(lows0[col])!r}, {float(highs0[col])!r}]")
    # the stability bound tightens as p and d grow: check the range's top corner
    dt = 1.0 / (ctrl_cfg or default_config(controller_kind)).h_sim
    _check_plant(n, inertia, damping, highs0[:n], highs0[n:], dt, where="range.p_high, range.d_high: ")
    q_inits = initial_joint_positions(chain, dataset)

    actions = [(rec.delta_pos, rec.delta_rot, rec.gripper) for rec in dataset]
    refs = [rec.ee_poses for rec in dataset]
    goals = _widowx_goals(chain, actions, q_inits, ik_iters) if controller_kind == WIDOWX else None

    def objective(theta: np.ndarray) -> list[TrajectoryLosses]:  # theta = (p, d), one row per gain set
        tools, _ = _simulate(chain, inertia, damping, theta[..., :n], theta[..., n:], controller_kind, actions, q_inits,
                             ctrl_cfg, ik_iters, goals=goals)
        losses = [trajectory_losses(ref, tool[: len(ref)]) for ref, tool in zip(refs * len(tools), tools)]
        sums = np.cumsum(np.reshape(losses, (-1, len(refs), 3)), axis=1)[:, -1]  # one row per gain set
        return [TrajectoryLosses(*(float(s) / len(dataset) for s in row)) for row in sums]

    # u in [0, 1]^dim; each coordinate sets `width` consecutive entries of theta = (p, d)
    dim = 2 if cfg.tie_joints else 2 * n
    width = 2 * n // dim

    def to_theta(u: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return lows + np.repeat(u, width, axis=-1) * (highs - lows)

    def to_u(theta: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return np.clip(((theta - lows) / (highs - lows)).reshape(dim, width).mean(axis=1), 0.0, 1.0)

    rng = np.random.default_rng(cfg.rng_seed)
    lows, highs = lows0, highs0
    best_u = to_u(theta_init, lows, highs)
    best_theta = to_theta(best_u, lows, highs)
    (best,) = objective(best_theta)
    initial_loss = best.total
    if not math.isfinite(initial_loss):  # no proposal could ever beat it
        raise SysIdError(f"the loss at the initial gains is {initial_loss}, not a finite number")

    history: list[RoundStats] = []
    for round_index in range(cfg.rounds):
        temp = cfg.t0 if cfg.t0 is not None else max(0.1 * best.total, 1e-12)
        u = best_u
        current_loss = best.total
        for done in range(0, cfg.iters_per_round, ANNEAL_PROPOSALS):
            k = min(ANNEAL_PROPOSALS, cfg.iters_per_round - done)
            proposals = np.clip(u + rng.normal(0.0, cfg.sigma, size=(k, dim)), 0.0, 1.0)
            cands = objective(to_theta(proposals, lows, highs))
            cand, proposal = min(zip(cands, proposals), key=lambda c: c[0].total)  # the first lowest
            delta = cand.total - current_loss
            if delta <= 0.0 or rng.random() < (math.exp(-delta / temp) if temp > 0.0 else 0.0):
                u = proposal
                current_loss = cand.total
            if cand.total < best.total:
                best, best_theta, best_u = cand, to_theta(proposal, lows, highs), proposal
            temp *= cfg.cooling**k
        history.append(RoundStats(round_index, best.total, *np.split(best_theta.copy(), 2), cfg.iters_per_round, lows,
                                  highs))
        if round_index + 1 < cfg.rounds:
            # recenter on the incumbent, contract, clip to the original range
            half_width = 0.5 * cfg.shrink * (highs - lows)
            lows = np.clip(best_theta - half_width, lows0, highs0)
            highs = np.clip(best_theta + half_width, lows0, highs0)
            too_narrow = highs - lows < 1e-12
            highs = np.where(too_narrow, np.minimum(lows + 1e-12, highs0), highs)
            lows = np.where(highs - lows < 1e-12, highs - 1e-12, lows)
            best_u = to_u(best_theta, lows, highs)

    evaluations = 1 + cfg.rounds * cfg.iters_per_round
    return AnnealResult(*np.split(best_theta.copy(), 2), best.total, initial_loss, best, tuple(history), evaluations)
