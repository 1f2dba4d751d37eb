import math
import re

import numpy as np
import pytest

from helpers import (around, fk_path_actions, half_turn, planar_3link, random_rotation, ref_anneal_fit,
                     ref_trajectory_losses, rot_z, transform)
from real2sim import jointsim, sysid
from real2sim.bench import recovery_setup
from real2sim.chain import fk
from real2sim.controller import CtrlConfig
from real2sim.jointsim import JointSimError, TrajectoryRecord, replay_open_loop, synthesize_record
from real2sim.sysid import (
    AnnealConfig,
    SysIdError,
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
    dyn = (np.ones(3), np.full(3, 0.3))  # inertia and passive damping
    truth = (np.full(3, 60.0), np.full(3, 3.0))
    rng = np.random.default_rng(8)
    iks = 60
    records = [
        synthesize_record(chain, *dyn, *truth, "widowx", fk_path_actions(chain, q0, 10, rng, amp=0.25), q0, FAST_CFG,
                          iks)
        for _ in range(2)
    ]
    return chain, dyn, truth, records, iks


def run_anneal(small_problem, seed=1, iters=40, tie=True):
    chain, dyn, truth, records, iks = small_problem
    init = (truth[0] * 2.0, truth[1] * 0.5)
    ranges = around(*truth, 10.0)
    cfg = AnnealConfig(rounds=3, iters_per_round=iters, sigma=0.12, shrink=0.3, rng_seed=seed, tie_joints=tie)
    return anneal_fit(records, chain, *dyn, "widowx", *init, *ranges, cfg, FAST_CFG, iks)


RANGE_FAULTS = [  # the input, the entry set, its value and the fault's message
    ("p_range", (1, 1), np.nan, "range.p_high: the bound on joint 1 must be finite, got nan"),
    ("p_range", (1, 1), np.inf, "range.p_high: the bound on joint 1 must be finite, got inf"),
    ("d_range", (0, 2), -1.0, "range.d_low: the bound on joint 2 must be non-negative, got -1.0"),
    ("p_range", (0, 0), 300.0,
     "range.p_low, range.p_high: on joint 0 the lower bound 300.0 must lie strictly below the upper bound 200.0"),
    ("d_range", (1, 1), 1.0,
     "range.d_low, range.d_high: on joint 1 the lower bound 1.0 must lie strictly below the upper bound 1.0"),
    ("init_p", 1, 500.0, "init.p: the gain on joint 1 is 500.0, outside the range [20.0, 200.0]"),
    ("init_d", 2, np.nan, "init.d: the gain on joint 2 is nan, outside the range [1.0, 10.0]"),
    ("p_range", (slice(None), 0), np.nan, "range.p_low: the bound on joint 0 must be finite, got nan"),
]


def test_range_validation(small_problem):
    # the fit checks its search space once, before any replay, and names the field and the joint of the first fault
    chain, dyn, truth, records, iks = small_problem
    for name, index, value, message in RANGE_FAULTS:
        args = dict(init_p=truth[0].copy(), init_d=truth[1].copy(), p_range=np.array([[20.0] * 3, [200.0] * 3]),
                    d_range=np.array([[1.0] * 3, [10.0] * 3]))
        args[name][index] = value
        with pytest.raises(SysIdError, match=f"^{re.escape(message)}$"):
            anneal_fit(records, chain, *dyn, "widowx", **args, cfg=AnnealConfig(), ctrl_cfg=FAST_CFG)
    with pytest.raises(SysIdError, match=r"^p_range and d_range must be \(2, 3\) arrays and init_p and init_d \(3,\) "
                                         r"arrays, not \(3,\), \(2, 3\), \(3,\) and \(3,\)$"):
        anneal_fit(records, chain, *dyn, "widowx", *truth, np.full(3, 20.0), around(*truth, 2.0)[1])
    # the stability bound tightens as p and d grow: the range's top corner is the one to check
    unstable = r"^range\.p_high, range\.d_high: PD gains are unstable at 200 Hz on joint 0: "
    with pytest.raises(JointSimError, match=unstable):
        anneal_fit(records, chain, *dyn, "widowx", *truth, np.array([[20.0] * 3, [1e9] * 3]), around(*truth, 2.0)[1],
                   ctrl_cfg=FAST_CFG)


def test_range_around_factor():
    # recovery_setup's ranges span a factor of 10 around the truth, as the test suite's bracket does, bit for bit
    s = recovery_setup(1, 1)
    for x, got, want in zip((s.p_true, s.d_true), (s.p_range, s.d_range), around(s.p_true, s.d_true, 10.0)):
        assert got.shape == (2, 6) and np.array_equal(got, want)
        np.testing.assert_allclose(got[1] / got[0], 10.0)
        np.testing.assert_allclose(got[0] * got[1], x * x)


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
    p_range, d_range = around(*truth, 10.0)
    assert np.all(result.best_p >= p_range[0] - 1e-9)
    assert np.all(result.best_p <= p_range[1] + 1e-9)
    assert np.all(result.best_d >= d_range[0] - 1e-9)
    assert np.all(result.best_d <= d_range[1] + 1e-9)


def test_anneal_later_rounds_are_subranges(small_problem):
    chain, dyn, truth, records, iks = small_problem
    result = run_anneal(small_problem, iters=8)
    first = result.history[0]
    np.testing.assert_allclose(first.lows, np.concatenate(around(*truth, 10.0), axis=1)[0])
    for later in result.history[1:]:
        assert np.all(later.lows >= first.lows - 1e-12)
        assert np.all(later.highs <= first.highs + 1e-12)
        assert np.all(later.highs - later.lows < first.highs - first.lows)


def test_anneal_deterministic(small_problem):
    a = run_anneal(small_problem, seed=11, iters=8)
    b = run_anneal(small_problem, seed=11, iters=8)
    assert a.best_loss == b.best_loss
    assert np.array_equal(a.best_p, b.best_p)
    assert np.array_equal(a.best_d, b.best_d)
    for ra, rb in zip(a.history, b.history):
        assert ra.best_loss == rb.best_loss
        assert np.array_equal(ra.best_p, rb.best_p)


def test_anneal_seed_changes_path(small_problem):
    a = run_anneal(small_problem, seed=1, iters=8)
    b = run_anneal(small_problem, seed=2, iters=8)
    assert a.best_loss != b.best_loss or not np.array_equal(a.best_p, b.best_p)


@pytest.mark.parametrize("tie", [True, False])
def test_anneal_losses_are_the_incumbents_replay(small_problem, tie):
    chain, dyn, truth, records, iks = small_problem
    result = run_anneal(small_problem, iters=6, tie=tie)
    fresh = []
    for rec in records:
        sim = replay_open_loop(chain, *dyn, result.best_p, result.best_d, "widowx", rec, FAST_CFG, iks)
        fresh.append(trajectory_losses(rec.ee_poses, sim[: len(rec.ee_poses)]))
    assert result.losses == tuple(sum(col) / len(records) for col in zip(*fresh))
    assert result.best_loss == result.losses.total


@pytest.mark.parametrize("tie", [True, False])
def test_anneal_one_proposal_matches_the_sequential_reference(small_problem, tie, monkeypatch):
    # at one proposal per step the batched annealer draws, replays and cools as the one-at-a-time loop
    chain, dyn, truth, records, iks = small_problem
    monkeypatch.setattr(sysid, "ANNEAL_PROPOSALS", 1)
    init = (truth[0] * 2.0, truth[1] * 0.5)
    ranges = around(*truth, 10.0)
    cfg = AnnealConfig(rounds=3, iters_per_round=6, sigma=0.12, shrink=0.3, rng_seed=1, tie_joints=tie)
    got = anneal_fit(records, chain, *dyn, "widowx", *init, *ranges, cfg, FAST_CFG, iks)
    want = ref_anneal_fit(records, chain, *dyn, "widowx", *init, *ranges, cfg, FAST_CFG, iks)
    assert np.array_equal(got.best_p, want.best_p) and np.array_equal(got.best_d, want.best_d)
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
    init = (truth[0] * 2.0, truth[1] * 0.5)
    ranges = around(*truth, 10.0)
    cfg = AnnealConfig(rounds=2, iters_per_round=6, cooling=1e-200, sigma=0.12, shrink=0.3, rng_seed=1)
    got = anneal_fit(records, chain, *dyn, "widowx", *init, *ranges, cfg, FAST_CFG, iks)
    want = ref_anneal_fit(records, chain, *dyn, "widowx", *init, *ranges, cfg, FAST_CFG, iks)
    assert np.array_equal(got.best_p, want.best_p) and np.array_equal(got.best_d, want.best_d)
    assert (got.best_loss, got.losses) == (want.best_loss, want.losses)
    assert got.best_loss <= got.initial_loss


def test_anneal_last_step_of_a_round_draws_the_remainder(small_problem, monkeypatch):
    chain, dyn, truth, records, iks = small_problem
    monkeypatch.setattr(sysid, "ANNEAL_PROPOSALS", 4)
    batched = sysid._simulate
    sets = []

    def counting_simulate(chain, inertia, damping, p, d, *args, **kwargs):
        sets.append(1 if p.ndim == 1 else p.shape[0])
        return batched(chain, inertia, damping, p, d, *args, **kwargs)

    monkeypatch.setattr(sysid, "_simulate", counting_simulate)
    init = (truth[0] * 2.0, truth[1] * 0.5)
    cfg = AnnealConfig(rounds=3, iters_per_round=5, sigma=0.12, shrink=0.3, rng_seed=1, tie_joints=True)
    result = anneal_fit(records, chain, *dyn, "widowx", *init, *around(*truth, 10.0), cfg, FAST_CFG, iks)
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
    s = recovery_setup(records, actions)
    cfg = AnnealConfig(rounds=3, iters_per_round=iters, sigma=0.12, shrink=0.28, rng_seed=123, tie_joints=True)
    args = (s.records, s.chain, s.inertia, s.damping, "widowx", s.init_p, s.init_d, s.p_range, s.d_range, cfg)
    got = anneal_fit(*args, ik_iters=s.ik_iters)
    want = ref_anneal_fit(*args, ik_iters=s.ik_iters, proposals=sysid.ANNEAL_PROPOSALS)

    def hexes(r):
        values = [r.best_loss, r.initial_loss, *r.losses, *r.best_p, *r.best_d, *(h.best_loss for h in r.history)]
        return [float(x).hex() for x in values]

    assert hexes(got) == hexes(want)
    assert got.evaluations == want.evaluations == 1 + 3 * iters


def test_anneal_per_joint_mode_runs(small_problem):
    result = run_anneal(small_problem, iters=12, tie=False)
    assert result.best_loss <= result.initial_loss
    assert result.best_p.shape == (3,)


def test_anneal_init_at_truth_stays_optimal(small_problem):
    chain, dyn, truth, records, iks = small_problem
    ranges = around(*truth, 4.0)
    cfg = AnnealConfig(rounds=3, iters_per_round=8, rng_seed=0, tie_joints=True)
    result = anneal_fit(records, chain, *dyn, "widowx", *truth, *ranges, cfg, FAST_CFG, iks)
    assert result.initial_loss == pytest.approx(0.0, abs=1e-12)
    assert result.best_loss <= result.initial_loss + 1e-15


def test_anneal_rejects_init_outside_range(small_problem):
    chain, dyn, truth, records, iks = small_problem
    ranges = around(*truth, 2.0)
    for bad_init in ((truth[0] * 10.0, truth[1]), (truth[0], np.full(3, np.nan))):
        with pytest.raises(SysIdError, match="outside"):
            anneal_fit(records, chain, *dyn, "widowx", *bad_init, *ranges, AnnealConfig(), FAST_CFG)


def test_anneal_rejects_empty_dataset(small_problem):
    chain, dyn, truth, _, _ = small_problem
    with pytest.raises(SysIdError, match="dataset"):
        anneal_fit([], chain, *dyn, "widowx", *truth, *around(*truth, 2.0), AnnealConfig())


def test_anneal_rejects_joint_positions_narrower_than_the_chain(small_problem):
    chain, dyn, truth, records, iks = small_problem
    rec = records[1]
    narrow = TrajectoryRecord(rec.delta_pos, rec.delta_rot, rec.gripper, rec.ee_poses, rec.ctrl_frequency,
                              rec.joint_positions[:, :2])
    with pytest.raises(JointSimError, match=r"^joint_positions: rows of 2 values for a 3-joint chain$") as info:
        anneal_fit([records[0], narrow], chain, *dyn, "widowx", *truth, *around(*truth, 2.0),
                   AnnealConfig())
    assert info.value.record == 1
