import math

import numpy as np
import pytest

from helpers import (fk_path_actions, half_turn, planar_3link, random_rotation, ref_anneal_fit, ref_trajectory_losses,
                     rot_z, transform)
from real2sim import jointsim, sysid
from real2sim.bench import recovery_setup
from real2sim.chain import fk
from real2sim.controller import CtrlConfig
from real2sim.jointsim import JointDynamics, PDParams, TrajectoryRecord, replay_open_loop, synthesize_record
from real2sim.sysid import (
    AnnealConfig,
    SysIdError,
    SysIdRange,
    anneal_fit,
    trajectory_losses,
)

FAST_CFG = CtrlConfig(h_sim=200.0, h_ctrl=5.0)


def pose(x=0.0, y=0.0, z=0.0, yaw=0.0):
    return transform((x, y, z), rot_z(yaw))


def test_losses_identical_sequences_zero():
    seq = [pose(0.1), pose(0.2), pose(0.3)]
    out = trajectory_losses(np.stack(seq), np.stack(seq))
    assert out == (0.0, 0.0, 0.0)


def test_losses_translation_only():
    out = trajectory_losses(np.stack([pose(0.0)]), np.stack([pose(0.3)]))
    assert out.translation == pytest.approx(0.3, abs=1e-12)
    assert out.rotation == 0.0
    assert out.total == pytest.approx(0.3, abs=1e-12)


def test_losses_rotation_only():
    out = trajectory_losses(np.stack([pose()]), np.stack([pose(yaw=math.pi / 2)]))
    assert out.translation == 0.0
    assert out.rotation == pytest.approx(math.pi / 4, abs=1e-9)
    assert out.total == pytest.approx(math.pi / 4, abs=1e-9)


def test_losses_mean_over_steps():
    ref = [pose(0.0), pose(0.0)]
    sim = [pose(0.4), pose(0.0)]
    assert trajectory_losses(np.stack(ref), np.stack(sim)).translation == pytest.approx(0.2, abs=1e-12)


def test_losses_validation():
    with pytest.raises(SysIdError, match="mismatch"):
        trajectory_losses(np.stack([pose()]), np.stack([pose(), pose()]))
    with pytest.raises(SysIdError, match="empty"):
        trajectory_losses(np.empty((0, 4, 4)), np.empty((0, 4, 4)))


def random_path(rng, n):
    return [transform(rot=random_rotation(rng), pos=rng.normal(scale=0.5, size=3)) for _ in range(n)]


@pytest.mark.parametrize("kind, steps", [("random", 1), ("random", 2), ("random", 37), ("identical", 9),
                                         ("antipodal", 1), ("antipodal", 23)])
def test_losses_match_the_per_pose_reference(kind, steps):
    rng = np.random.default_rng(steps)
    ref = random_path(rng, steps)
    if kind == "random":
        sim = random_path(rng, steps)
    elif kind == "identical":
        sim = list(ref)
    else:  # half a turn away, where the rotation term's clamp must hold
        sim = [transform(p[:3, 3], half_turn(rng, p[:3, :3])) for p in ref]
    got = trajectory_losses(np.stack(ref), np.stack(sim))
    assert [x.hex() for x in got] == [x.hex() for x in ref_trajectory_losses(ref, sim)]
    if kind == "identical":
        assert got == (0.0, 0.0, 0.0)


def test_range_validation():
    with pytest.raises(SysIdError):
        SysIdRange([1.0], [0.5], [0.1], [1.0])
    with pytest.raises(SysIdError):
        SysIdRange([-1.0], [0.5], [0.1], [1.0])


def test_range_around_factor():
    r = SysIdRange.around(PDParams([100.0], [10.0]), 10.0)
    assert r.p_high[0] / r.p_low[0] == pytest.approx(10.0)
    assert r.d_high[0] / r.d_low[0] == pytest.approx(10.0)
    assert r.p_low[0] * r.p_high[0] == pytest.approx(100.0**2)


def test_anneal_config_validation():
    with pytest.raises(SysIdError):
        AnnealConfig(cooling=1.5)
    with pytest.raises(SysIdError):
        AnnealConfig(shrink=0.0)
    with pytest.raises(SysIdError):
        AnnealConfig(rounds=0)


@pytest.fixture(scope="module")
def small_problem():
    chain = planar_3link()
    q0 = np.array([0.4, 0.9, -0.7])
    dyn = JointDynamics.from_chain(chain, inertia=1.0, damping=0.3)
    truth = PDParams(np.full(3, 60.0), np.full(3, 3.0))
    rng = np.random.default_rng(8)
    iks = 60
    records = [
        synthesize_record(chain, dyn, truth, "widowx", fk_path_actions(chain, q0, 10, rng, amp=0.25), q0, FAST_CFG, iks)
        for _ in range(2)
    ]
    return chain, dyn, truth, records, iks


def run_anneal(small_problem, seed=1, iters=40, tie=True):
    chain, dyn, truth, records, iks = small_problem
    init = PDParams(truth.p * 2.0, truth.d * 0.5)
    rng0 = SysIdRange.around(truth, 10.0)
    cfg = AnnealConfig(rounds=3, iters_per_round=iters, sigma=0.12, shrink=0.3, rng_seed=seed, tie_joints=tie)
    return anneal_fit(records, chain, dyn, "widowx", init, rng0, cfg, FAST_CFG, iks)


def test_anneal_improves_substantially(small_problem):
    # the full-strength recovery experiment (loss < 1e-3, < 5% of the
    # initial guess) runs in the acceptance suite; this smaller instance
    # checks the optimizer makes clear progress
    result = run_anneal(small_problem)
    assert result.best_loss < 0.25 * result.initial_loss
    assert result.best_loss < 0.02


def test_anneal_history_monotone(small_problem):
    result = run_anneal(small_problem)
    best = [r.best_loss for r in result.history]
    assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
    assert result.best_loss <= result.initial_loss


def test_anneal_best_within_original_range(small_problem):
    chain, dyn, truth, records, iks = small_problem
    result = run_anneal(small_problem)
    rng0 = SysIdRange.around(truth, 10.0)
    assert np.all(result.best.p >= rng0.p_low - 1e-9)
    assert np.all(result.best.p <= rng0.p_high + 1e-9)
    assert np.all(result.best.d >= rng0.d_low - 1e-9)
    assert np.all(result.best.d <= rng0.d_high + 1e-9)


def test_anneal_later_rounds_are_subranges(small_problem):
    chain, dyn, truth, records, iks = small_problem
    result = run_anneal(small_problem, iters=8)
    first = result.history[0]
    np.testing.assert_allclose(first.lows, SysIdRange.around(truth, 10.0).lows())
    for later in result.history[1:]:
        assert np.all(later.lows >= first.lows - 1e-12)
        assert np.all(later.highs <= first.highs + 1e-12)
        assert np.all(later.highs - later.lows < first.highs - first.lows)


def test_anneal_deterministic(small_problem):
    a = run_anneal(small_problem, seed=11, iters=8)
    b = run_anneal(small_problem, seed=11, iters=8)
    assert a.best_loss == b.best_loss
    assert np.array_equal(a.best.p, b.best.p)
    assert np.array_equal(a.best.d, b.best.d)
    for ra, rb in zip(a.history, b.history):
        assert ra.best_loss == rb.best_loss
        assert np.array_equal(ra.best_p, rb.best_p)


def test_anneal_seed_changes_path(small_problem):
    a = run_anneal(small_problem, seed=1, iters=8)
    b = run_anneal(small_problem, seed=2, iters=8)
    assert a.best_loss != b.best_loss or not np.array_equal(a.best.p, b.best.p)


@pytest.mark.parametrize("tie", [True, False])
def test_anneal_losses_are_the_incumbents_replay(small_problem, tie):
    chain, dyn, truth, records, iks = small_problem
    result = run_anneal(small_problem, iters=6, tie=tie)
    fresh = []
    for rec in records:
        sim = replay_open_loop(chain, dyn, result.best, "widowx", rec, None, FAST_CFG, iks)
        fresh.append(trajectory_losses(rec.ee_poses, sim[: len(rec.ee_poses)]))
    assert result.losses == tuple(sum(col) / len(records) for col in zip(*fresh))
    assert result.best_loss == result.losses.total


@pytest.mark.parametrize("tie", [True, False])
def test_anneal_one_proposal_matches_the_sequential_reference(small_problem, tie, monkeypatch):
    # at one proposal per step the batched annealer draws, replays and cools as the one-at-a-time loop
    chain, dyn, truth, records, iks = small_problem
    monkeypatch.setattr(sysid, "ANNEAL_PROPOSALS", 1)
    init = PDParams(truth.p * 2.0, truth.d * 0.5)
    rng0 = SysIdRange.around(truth, 10.0)
    cfg = AnnealConfig(rounds=3, iters_per_round=6, sigma=0.12, shrink=0.3, rng_seed=1, tie_joints=tie)
    got = anneal_fit(records, chain, dyn, "widowx", init, rng0, cfg, FAST_CFG, iks)
    want = ref_anneal_fit(records, chain, dyn, "widowx", init, rng0, cfg, FAST_CFG, iks)
    assert np.array_equal(got.best.p, want.best.p) and np.array_equal(got.best.d, want.best.d)
    assert (got.best_loss, got.initial_loss, got.losses, got.evaluations) == (
        want.best_loss, want.initial_loss, want.losses, want.evaluations)
    assert len(got.history) == len(want.history) == 3
    for a, b in zip(got.history, want.history):
        assert (a.round_index, a.best_loss, a.evaluations) == (b.round_index, b.best_loss, b.evaluations)
        for field in ("best_p", "best_d", "lows", "highs"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_anneal_temperature_cooled_to_zero_takes_the_zero_limit(small_problem, monkeypatch):
    # two steps at cooling 1e-200 take the temperature below the smallest float; the Metropolis test then
    # takes its T -> 0 limit, acceptance 0, where exp(-delta / T) would divide by zero
    chain, dyn, truth, records, iks = small_problem
    monkeypatch.setattr(sysid, "ANNEAL_PROPOSALS", 1)
    init = PDParams(truth.p * 2.0, truth.d * 0.5)
    rng0 = SysIdRange.around(truth, 10.0)
    cfg = AnnealConfig(rounds=2, iters_per_round=6, cooling=1e-200, sigma=0.12, shrink=0.3, rng_seed=1)
    got = anneal_fit(records, chain, dyn, "widowx", init, rng0, cfg, FAST_CFG, iks)
    want = ref_anneal_fit(records, chain, dyn, "widowx", init, rng0, cfg, FAST_CFG, iks)
    assert np.array_equal(got.best.p, want.best.p) and np.array_equal(got.best.d, want.best.d)
    assert (got.best_loss, got.losses) == (want.best_loss, want.losses)
    assert got.best_loss <= got.initial_loss


def test_anneal_last_step_of_a_round_draws_the_remainder(small_problem, monkeypatch):
    chain, dyn, truth, records, iks = small_problem
    monkeypatch.setattr(sysid, "ANNEAL_PROPOSALS", 4)
    batched = sysid._simulate
    sets = []

    def counting_simulate(chain, dyn, pd, *args, **kwargs):
        sets.append(1 if pd.p.ndim == 1 else pd.p.shape[0])
        return batched(chain, dyn, pd, *args, **kwargs)

    monkeypatch.setattr(sysid, "_simulate", counting_simulate)
    init = PDParams(truth.p * 2.0, truth.d * 0.5)
    cfg = AnnealConfig(rounds=3, iters_per_round=5, sigma=0.12, shrink=0.3, rng_seed=1, tie_joints=True)
    result = anneal_fit(records, chain, dyn, "widowx", init, SysIdRange.around(truth, 10.0), cfg, FAST_CFG, iks)
    assert sets == [1, 4, 1, 4, 1, 4, 1]  # the initial point, then steps of 4 + 1 in each round
    assert result.evaluations == sum(sets) == 16
    assert [r.evaluations for r in result.history] == [5, 5, 5]


def test_a_fit_solves_the_widowx_goals_once(small_problem, monkeypatch):
    # 25 evaluations in 7 replays, and one goal tick per step of the longest record
    chain, dyn, truth, records, iks = small_problem
    ticks = []
    tick = jointsim.widowx_step

    def counting_tick(t, *args):
        ticks.append(t)
        return tick(t, *args)

    monkeypatch.setattr(jointsim, "widowx_step", counting_tick)
    result = run_anneal(small_problem, iters=8)
    assert result.evaluations == 25
    assert ticks == list(range(max(len(rec.gripper) for rec in records)))


@pytest.mark.parametrize("records, actions, iters", [(5, 30, 90), (6, 16, 4)], ids=["criterion-7", "widowx-fit-size"])
def test_anneal_fit_matches_a_goal_pass_per_replay(records, actions, iters):
    # the goal table solved once per fit gives the bits of a reference that solves the goals in every replay
    chain, dyn, _, iks, recs, init, bounds = recovery_setup(records, actions)
    cfg = AnnealConfig(rounds=3, iters_per_round=iters, sigma=0.12, shrink=0.28, rng_seed=123, tie_joints=True)
    got = anneal_fit(recs, chain, dyn, "widowx", init, bounds, cfg, ik_iters=iks)
    want = ref_anneal_fit(recs, chain, dyn, "widowx", init, bounds, cfg, ik_iters=iks,
                          proposals=sysid.ANNEAL_PROPOSALS)

    def hexes(r):
        values = [r.best_loss, r.initial_loss, *r.losses, *r.best.p, *r.best.d, *(h.best_loss for h in r.history)]
        return [float(x).hex() for x in values]

    assert hexes(got) == hexes(want)
    assert got.evaluations == want.evaluations == 1 + 3 * iters


def test_anneal_per_joint_mode_runs(small_problem):
    result = run_anneal(small_problem, iters=12, tie=False)
    assert result.best_loss <= result.initial_loss
    assert result.best.p.shape == (3,)


def test_anneal_init_at_truth_stays_optimal(small_problem):
    chain, dyn, truth, records, iks = small_problem
    rng0 = SysIdRange.around(truth, 4.0)
    cfg = AnnealConfig(rounds=3, iters_per_round=8, rng_seed=0, tie_joints=True)
    result = anneal_fit(records, chain, dyn, "widowx", truth, rng0, cfg, FAST_CFG, iks)
    assert result.initial_loss == pytest.approx(0.0, abs=1e-12)
    assert result.best_loss <= result.initial_loss + 1e-15


def test_anneal_rejects_init_outside_range(small_problem):
    chain, dyn, truth, records, iks = small_problem
    rng0 = SysIdRange.around(truth, 2.0)
    bad_init = PDParams(truth.p * 10.0, truth.d)
    with pytest.raises(SysIdError, match="outside"):
        anneal_fit(records, chain, dyn, "widowx", bad_init, rng0, AnnealConfig(), FAST_CFG)


def test_anneal_rejects_empty_dataset(small_problem):
    chain, dyn, truth, _, _ = small_problem
    with pytest.raises(SysIdError, match="dataset"):
        anneal_fit([], chain, dyn, "widowx", truth, SysIdRange.around(truth, 2.0), AnnealConfig())


def test_anneal_rejects_joint_positions_narrower_than_the_chain(small_problem):
    chain, dyn, truth, records, iks = small_problem
    rec = records[1]
    narrow = TrajectoryRecord(rec.delta_pos, rec.delta_rot, rec.gripper, rec.ee_poses, rec.ctrl_frequency,
                              rec.joint_positions[:, :2])
    with pytest.raises(SysIdError, match=r"^record 1: joint_positions: rows of 2 values for a 3-joint chain$"):
        anneal_fit([records[0], narrow], chain, dyn, "widowx", truth, SysIdRange.around(truth, 2.0), AnnealConfig())
