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
from .geometry import _freeze, rot_frobenius_loss
from .jointsim import (
    WIDOWX,
    JointDynamics,
    JointSimError,
    PDParams,
    TrajectoryRecord,
    _check_stable,
    _record_q_init,
    _simulate,
    _widowx_goals,
    default_config,
)

__all__ = [
    "SysIdError",
    "SysIdRange",
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


@dataclass(frozen=True, eq=False)
class SysIdRange:
    """Per-joint search bounds for stiffness and damping."""

    p_low: np.ndarray
    p_high: np.ndarray
    d_low: np.ndarray
    d_high: np.ndarray

    def __post_init__(self):
        for name in ("p_low", "p_high", "d_low", "d_high"):
            object.__setattr__(self, name, _freeze(getattr(self, name), -1))
        if not (self.p_low.shape == self.p_high.shape == self.d_low.shape == self.d_high.shape):
            raise SysIdError("range vectors must have equal length")
        if not all(np.all(np.isfinite(a)) for a in (self.p_low, self.p_high, self.d_low, self.d_high)):
            raise SysIdError("range bounds must be finite")
        if np.any(self.p_low < 0.0) or np.any(self.d_low < 0.0):
            raise SysIdError("range bounds must be non-negative")
        if np.any(self.p_low >= self.p_high) or np.any(self.d_low >= self.d_high):
            raise SysIdError("lower bounds must be strictly below upper bounds")

    @property
    def n(self) -> int:
        return self.p_low.shape[0]

    def lows(self) -> np.ndarray:
        return np.concatenate([self.p_low, self.d_low])

    def highs(self) -> np.ndarray:
        return np.concatenate([self.p_high, self.d_high])

    @staticmethod
    def around(pd: PDParams, factor: float) -> "SysIdRange":
        """Multiplicative bracket [x / sqrt(factor), x * sqrt(factor)]."""
        if factor <= 1.0:
            raise SysIdError("factor must exceed 1")
        s = math.sqrt(factor)
        return SysIdRange(pd.p / s, pd.p * s, pd.d / s, pd.d * s)


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
    best: PDParams
    best_loss: float
    initial_loss: float
    losses: TrajectoryLosses
    history: tuple[RoundStats, ...]
    evaluations: int


def anneal_fit(
    dataset: Sequence[TrajectoryRecord],
    chain: ChainSpec,
    dyn: JointDynamics,
    controller_kind: str,
    init: PDParams,
    range0: SysIdRange,
    cfg: AnnealConfig | None = None,
    ctrl_cfg: CtrlConfig | None = None,
    ik_iters: int = 200,
    q_inits=None,
) -> AnnealResult:
    """Fit PD gains by multi-round simulated annealing of the replay loss.

    The objective is the unweighted mean of the trajectory losses over the
    dataset. With ``tie_joints`` the search runs over two shared scalars
    mapped to each joint's bounds; otherwise every joint's gains are free.
    ``q_inits`` holds the records' initial configurations when the caller
    has them; the WidowX goals are solved once, for every evaluation.
    """
    cfg = cfg or AnnealConfig()
    if len(dataset) == 0:
        raise SysIdError("dataset must contain at least one trajectory record")
    if range0.n != chain.n or init.n != chain.n:
        raise SysIdError("init/range joint counts must match the chain")

    lows0 = range0.lows()
    highs0 = range0.highs()
    theta_init = np.concatenate([init.p, init.d])
    if np.any(theta_init < lows0 - 1e-12) or np.any(theta_init > highs0 + 1e-12):
        raise SysIdError("initial parameters fall outside the search range")
    # the stability bound tightens as p and d grow: check the range's top corner
    dt = 1.0 / (ctrl_cfg or default_config(controller_kind)).h_sim
    _check_stable(PDParams(range0.p_high, range0.d_high), dyn, dt, SysIdError)

    # fix per-record initial configurations once; replay failures abort here
    if q_inits is None:
        q_inits = []
        for i, rec in enumerate(dataset):
            try:
                q_inits.append(_record_q_init(chain, rec))
            except JointSimError as exc:
                raise SysIdError(f"record {i}: {exc}") from exc

    actions = [(rec.delta_pos, rec.delta_rot, rec.gripper) for rec in dataset]
    refs = [rec.ee_poses for rec in dataset]
    goals = _widowx_goals(chain, actions, q_inits, ik_iters) if controller_kind == WIDOWX else None

    def objective(pd: PDParams) -> list[TrajectoryLosses]:
        tools, _ = _simulate(chain, dyn, pd, controller_kind, actions, q_inits, ctrl_cfg, ik_iters, goals=goals)
        losses = [trajectory_losses(ref, tool[: len(ref)]) for ref, tool in zip(refs * len(tools), tools)]
        sums = np.cumsum(np.reshape(losses, (-1, len(refs), 3)), axis=1)[:, -1]  # one row per gain set
        return [TrajectoryLosses(*(float(s) / len(dataset) for s in row)) for row in sums]

    # u in [0, 1]^dim; each coordinate sets `width` consecutive entries of theta = (p, d)
    n = chain.n
    dim = 2 if cfg.tie_joints else 2 * n
    width = 2 * n // dim

    def to_pd(u: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> PDParams:
        theta = lows + np.repeat(u, width, axis=-1) * (highs - lows)
        return PDParams(theta[..., :n], theta[..., n:])

    def to_u(theta: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return np.clip(((theta - lows) / (highs - lows)).reshape(dim, width).mean(axis=1), 0.0, 1.0)

    rng = np.random.default_rng(cfg.rng_seed)
    lows, highs = lows0, highs0
    best_u = to_u(theta_init, lows, highs)
    best_pd = to_pd(best_u, lows, highs)
    (best,) = objective(best_pd)
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
            cands = objective(to_pd(proposals, lows, highs))
            cand, proposal = min(zip(cands, proposals), key=lambda c: c[0].total)  # the first lowest
            delta = cand.total - current_loss
            if delta <= 0.0 or rng.random() < (math.exp(-delta / temp) if temp > 0.0 else 0.0):
                u = proposal
                current_loss = cand.total
            if cand.total < best.total:
                best, best_pd, best_u = cand, to_pd(proposal, lows, highs), proposal
            temp *= cfg.cooling**k
        history.append(
            RoundStats(round_index, best.total, best_pd.p, best_pd.d, cfg.iters_per_round, lows, highs)
        )
        if round_index + 1 < cfg.rounds:
            # recenter on the incumbent, contract, clip to the original range
            center = np.concatenate([best_pd.p, best_pd.d])
            half_width = 0.5 * cfg.shrink * (highs - lows)
            lows = np.clip(center - half_width, lows0, highs0)
            highs = np.clip(center + half_width, lows0, highs0)
            too_narrow = highs - lows < 1e-12
            highs = np.where(too_narrow, np.minimum(lows + 1e-12, highs0), highs)
            lows = np.where(highs - lows < 1e-12, highs - 1e-12, lows)
            best_u = to_u(center, lows, highs)

    evaluations = 1 + cfg.rounds * cfg.iters_per_round
    return AnnealResult(best_pd, best.total, initial_loss, best, tuple(history), evaluations)
