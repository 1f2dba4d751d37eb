import dataclasses
import json
import math
import re

import numpy as np
import pytest

from helpers import (around, dyn_step, fk_path_actions, planar_3link, ref_fk, ref_hold_target, ref_integrate_targets,
                     ref_simulate, transform)
from real2sim import controller, jointsim
from real2sim.chain import ChainSpec, JointSpec, fk
from real2sim.controller import CtrlConfig
from real2sim.jointsim import (
    JointSimError,
    TrajectoryRecord,
    _MAX_RUN,
    _check_plant,
    _hold_target,
    _integrate_targets,
    _plant_powers,
    _simulate,
    _widowx_goals,
    initial_joint_positions,
    replay_open_loop,
    synthesize_record,
)
from real2sim.profile import PlanningError
from real2sim.sysid import AnnealConfig, anneal_fit, trajectory_losses

# light controller frequencies keep unit tests quick; the production-rate
# constants are exercised in the acceptance suite
FAST_CFG = CtrlConfig(h_sim=200.0, h_ctrl=5.0)


def step(q, v, target, p, d, dt, lower=-np.inf, upper=np.inf):
    """One plant step of one row, of unit inertia and no passive damping, through the batched integrator."""
    gain, keep = _check_plant(len(p), np.ones(len(p)), np.zeros(len(p)), p, d, dt)
    qs, vs = _integrate_targets(q[None], v[None], target[None, None], gain, keep, lower, upper, dt)
    return qs[0], vs[0]


def test_equilibrium_is_fixed_point():
    q, v = step(np.array([0.7]), np.array([0.0]), np.array([0.7]), [100.0], [20.0], 0.002)
    assert q[0] == 0.7
    assert v[0] == 0.0


def test_critically_damped_step_matches_closed_form():
    # p=100, d=20, m=1: double pole at omega=10; q(t) = 1 - (1 + 10 t) e^(-10 t)
    dt = 0.002
    q = np.array([0.0])
    v = np.array([0.0])
    target = np.array([1.0])
    qs = [0.0]
    for _ in range(500):
        q, v = step(q, v, target, [100.0], [20.0], dt)
        qs.append(float(q[0]))
    ts = np.arange(501) * dt
    ref = 1.0 - (1.0 + 10.0 * ts) * np.exp(-10.0 * ts)
    assert abs(qs[-1] - 1.0) < 1e-3
    # first-order integrator: transient error O(omega dt) ~ 1e-2
    assert np.abs(np.array(qs) - ref).max() < 1e-2
    assert np.all(np.diff(qs) >= -1e-12)


def test_undamped_energy_stays_bounded():
    # symplectic Euler does not decrease the energy monotonically; it
    # oscillates within an O(omega dt) band around the initial value
    dt = 0.1 * 2.0 * math.sqrt(1.0 / 100.0)  # omega dt = 0.2
    q = np.array([0.0])
    v = np.array([0.0])
    target = np.array([1.0])
    e0 = 0.5 * 100.0 * 1.0**2
    energies = []
    for _ in range(5000):
        q, v = step(q, v, target, [100.0], [0.0], dt)
        energies.append(0.5 * v[0] ** 2 + 0.5 * 100.0 * (q[0] - 1.0) ** 2)
    assert max(energies) <= e0 * (1.0 + 0.25)
    assert min(energies) >= 0.0


def test_limits_clamp_and_zero_velocity():
    q, v = step(np.array([0.49]), np.array([5.0]), np.array([2.0]), [1000.0], [0.0], 0.01, -0.5, 0.5)
    assert q[0] == 0.5
    assert v[0] == 0.0


def test_integrate_targets_matches_dyn_step_sequence():
    # targets beyond the +-0.4 limits: rows 0 and 1 never reach a stop, row 2
    # does on 19 ticks; a lone row 0 skips the clamped pass entirely
    rng = np.random.default_rng(5)
    p, d = rng.uniform(50, 300, 4), rng.uniform(2, 30, 4)
    plant = (rng.uniform(0.5, 2, 4), rng.uniform(0, 1, 4), np.full(4, -0.4), np.full(4, 0.4))  # m, b, limits
    gain, keep = _check_plant(4, *plant[:2], p, d, 1 / 500)
    q = rng.normal(size=(3, 4)) * 0.1
    v = rng.normal(size=(3, 4)) * 2.0
    targets = rng.normal(size=(300, 3, 4)) * np.array([0.1, 0.6, 3.0])[:, None]
    qf, vf = _integrate_targets(q, v, targets, gain[[0, 0, 0]], keep[[0, 0, 0]], *plant[2:], 1 / 500)
    stops = []
    for b in range(3):
        qs, vs = q[b].copy(), v[b].copy()
        stops.append(0)
        for i in range(300):
            qs, vs = dyn_step(qs, vs, targets[i, b], np.zeros(4), p, d, *plant, 1 / 500)
            stops[b] += bool(np.any(np.abs(qs) == 0.4))
        np.testing.assert_allclose(qf[b], qs, atol=1e-12)
        np.testing.assert_allclose(vf[b], vs, atol=1e-12)
        # the one-row loop it replaces gives the same bits
        qr, vr = ref_integrate_targets(q[b], v[b], targets[:, b], p, d, *plant, 1 / 500)
        assert np.array_equal(qf[b], qr) and np.array_equal(vf[b], vr)
        qb, vb = _integrate_targets(q[b : b + 1], v[b : b + 1], targets[:, b : b + 1], gain, keep, *plant[2:], 1 / 500)
        assert np.array_equal(qb[0], qr) and np.array_equal(vb[0], vr)
    assert stops == [0, 0, 19]


@pytest.mark.parametrize("ticks", [1, 100, _MAX_RUN + 45])
def test_hold_target_matches_dyn_step_sequence(ticks):
    # a held target outside the +-0.4 limits drives some joints into the stop,
    # each row at its own tick; all rows advance in one call
    rng = np.random.default_rng(8)
    p, d = rng.uniform(50, 300, 4), rng.uniform(2, 30, 4)
    plant = (rng.uniform(0.5, 2, 4), rng.uniform(0, 1, 4), np.full(4, -0.4), np.full(4, 0.4))  # m, b, limits
    powers = _plant_powers(*_check_plant(4, *plant[:2], p, d, 1 / 500), 1 / 500, ticks)
    q = rng.uniform(-0.4, 0.4, (20, 4))
    v = rng.normal(size=(20, 4)) * 2.0
    target = rng.normal(size=(20, 4)) * 0.6
    qf, vf = _hold_target(q, v, target, ticks, powers, np.zeros(20, dtype=int), *plant[2:])
    for b in range(20):
        qs, vs = q[b].copy(), v[b].copy()
        for _ in range(ticks):
            qs, vs = dyn_step(qs, vs, target[b], np.zeros(4), p, d, *plant, 1 / 500)
        np.testing.assert_allclose(qf[b], qs, atol=1e-12)
        np.testing.assert_allclose(vf[b], vs, atol=1e-12)
        # the one-row closed form it replaces gives the same bits
        qr, vr = ref_hold_target(q[b], v[b], target[b], ticks, powers[:, 0], *plant[2:])
        assert np.array_equal(qf[b], qr) and np.array_equal(vf[b], vr)


def test_stability_guard_overdamped():
    # d >= 2 sqrt(p m) keeps every joint bounded over 1e4 steps
    n = 3
    p = np.array([50.0, 200.0, 500.0])
    d = 2.0 * np.sqrt(p) + 1.0
    rng = np.random.default_rng(0)
    q = rng.uniform(-1, 1, n)
    target = rng.uniform(-1, 1, n)
    q, v = _integrate_targets(q[None], np.zeros((1, n)), np.broadcast_to(target, (10_000, 1, n)),
                              *_check_plant(n, np.ones(n), np.zeros(n), p, d, 1 / 500), np.full(n, -3.0),
                              np.full(n, 3.0), 1 / 500)
    assert np.all(np.abs(q) <= 3.0)
    assert np.all(np.isfinite(v))


@pytest.fixture
def replay_setup(three_link):
    q0 = np.array([0.4, 0.9, -0.7])
    dyn = (np.ones(3), np.full(3, 0.3))  # inertia and passive damping
    pd = (np.full(3, 80.0), np.full(3, 6.0))
    return three_link, q0, dyn, pd


def zero_actions(t: int):
    """The (delta_pos, delta_rot, gripper) arrays of ``t`` actions that move nothing."""
    return np.zeros((t, 3)), np.tile(np.eye(3), (t, 1, 1)), np.zeros(t)


def test_zero_action_replay_holds_pose(replay_setup):
    chain, q0, dyn, pd = replay_setup
    actions = zero_actions(5)
    rec = synthesize_record(chain, *dyn, *pd, "widowx", actions, q0, FAST_CFG)
    start = rec.ee_poses[0]
    for pose in rec.ee_poses:
        assert np.abs(pose[:3, 3] - start[:3, 3]).max() < 1e-6
        assert np.abs(pose[:3, :3] - start[:3, :3]).max() < 1e-6


@pytest.mark.parametrize("kind", ["widowx", "google"])
def test_a_replay_from_beyond_a_limit_logs_the_pose_of_its_first_joint_positions(replay_setup, kind):
    # pose 0 is the geometry of the recorded q0; the plant's end stop clamps q at the first tick
    chain, _, dyn, pd = replay_setup
    q0 = np.array([3.5, 0.9, -0.7])  # joint 0 past its upper limit, pi
    rec = TrajectoryRecord(*zero_actions(2), [fk(chain, q0)] * 3, 5.0, [q0] * 3)
    poses = replay_open_loop(chain, *dyn, *pd, kind, rec, cfg=FAST_CFG)
    np.testing.assert_allclose(poses[0], ref_fk(chain, q0), rtol=0, atol=1e-12)
    assert np.array_equal(poses[0], fk(chain, q0))


def test_replay_self_consistency(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rng = np.random.default_rng(2)
    actions = fk_path_actions(chain, q0, 12, rng, amp=0.2)
    rec = synthesize_record(chain, *dyn, *pd, "widowx", actions, q0, FAST_CFG)
    sim = replay_open_loop(chain, *dyn, *pd, "widowx", rec, cfg=FAST_CFG)
    losses = trajectory_losses(rec.ee_poses, sim[: len(rec.ee_poses)])
    assert losses.total < 1e-9


def test_replay_deterministic(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rng = np.random.default_rng(3)
    actions = fk_path_actions(chain, q0, 8, rng, amp=0.2)
    rec = synthesize_record(chain, *dyn, *pd, "google", actions, q0, FAST_CFG)
    a = replay_open_loop(chain, *dyn, *pd, "google", rec, cfg=FAST_CFG)
    b = replay_open_loop(chain, *dyn, *pd, "google", rec, cfg=FAST_CFG)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa[:3, 3], pb[:3, 3])
        assert np.array_equal(pa[:3, :3], pb[:3, :3])


def test_stiff_params_track_slow_actions(replay_setup):
    chain, q0, dyn, _ = replay_setup
    # stiff and still stable at 200 Hz: p dt^2 = 2.5 < 4 - 2 (d + b) dt = 2.68
    # (d = 2 sqrt(p) would break that bound; test_unstable_gains_rejected)
    stiff = (np.full(3, 1e5), np.full(3, 132.0))
    rng = np.random.default_rng(4)
    actions = fk_path_actions(chain, q0, 10, rng, amp=0.1, dphase=0.2)
    rec = synthesize_record(chain, *dyn, *stiff, "widowx", actions, q0, FAST_CFG)
    # commanded goals live on the fk sweep; stiff tracking stays within a mm
    sim = replay_open_loop(chain, *dyn, *stiff, "widowx", rec, cfg=FAST_CFG)
    losses = trajectory_losses(rec.ee_poses, sim[: len(rec.ee_poses)])
    assert losses.translation < 1e-3


def test_record_alignment_validation():
    pose = fk(planar_3link(), [0.1, 0.2, 0.3])
    delta_pos, delta_rot, gripper = zero_actions(2)
    with pytest.raises(JointSimError):
        TrajectoryRecord(*zero_actions(2), [pose], 5.0)
    with pytest.raises(JointSimError):
        TrajectoryRecord(*zero_actions(0), [pose], 5.0)
    with pytest.raises(JointSimError, match="are not"):  # a rotation stack of the wrong length
        TrajectoryRecord(delta_pos, delta_rot[:1], gripper, [pose] * 2, 5.0)
    with pytest.raises(JointSimError, match="are not"):  # a gripper of the wrong length
        TrajectoryRecord(delta_pos, delta_rot, gripper[:1], [pose] * 2, 5.0)
    for poses in (pose, [pose[:3]] * 2, [pose[:, :3]] * 2):  # pose stacks that are not (., 4, 4)
        with pytest.raises(JointSimError, match="are not"):
            TrajectoryRecord(*zero_actions(1), poses, 5.0)
    TrajectoryRecord(*zero_actions(1), [pose, pose], 5.0)
    TrajectoryRecord(*zero_actions(1), [pose], 5.0)


RECORD = dict(zip(("delta_pos", "delta_rot", "gripper"), zero_actions(1)), ee_poses=np.tile(np.eye(4), (2, 1, 1)),
              ctrl_frequency=5.0, joint_positions=np.zeros((2, 3)))  # a one-action record's fields


def record_with(field: str):
    """A builder of the one-action record that takes ``field`` from its argument."""
    return lambda a: TrajectoryRecord(**{**RECORD, field: a})


FROZEN = {  # a type, the caller's array it is built from, and the field that keeps a frozen copy of it
    "JointSpec.origin": (transform((0.5, 0, 0)), lambda a: JointSpec("j", "revolute", a, [0, 0, 1]), "origin"),
    "ChainSpec.ee_offset": (transform((0.5, 0, 0)), lambda a: ChainSpec(planar_3link().joints, a), "ee_offset"),
    "TrajectoryRecord": (np.ones((2, 3)), record_with("joint_positions"), "joint_positions"),
    "TrajectoryRecord.delta_pos": (np.ones((1, 3)), record_with("delta_pos"), "delta_pos"),
    "TrajectoryRecord.delta_rot": (np.eye(3)[None], record_with("delta_rot"), "delta_rot"),
    "TrajectoryRecord.gripper": (np.ones(1), record_with("gripper"), "gripper"),
    "TrajectoryRecord.ee_poses": (np.tile(np.eye(4), (2, 1, 1)), record_with("ee_poses"), "ee_poses"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_field_is_a_copy_of_the_callers_array(name):
    array, build, field = FROZEN[name]
    array = array.copy()
    obj = build(array)
    kept = getattr(obj, field).copy()
    assert array.flags.writeable and not getattr(obj, field).flags.writeable
    array *= 0.5
    np.testing.assert_array_equal(getattr(obj, field), kept)


def test_callers_plant_arrays_are_never_written(replay_setup):
    # the replay, the record synthesis and the fit only read the caller's gains, dynamics and search ranges, and a
    # fit's result shares no array with its inputs or with another fit
    chain, q0, dyn, pd = replay_setup
    arrays = [a.copy() for a in (*dyn, *pd, *around(*pd, 2.0))]  # inertia, damping, p, d, p_range and d_range
    rec = synthesize_record(chain, *arrays[:4], "widowx", zero_actions(2), q0, FAST_CFG)
    replay_open_loop(chain, *arrays[:4], "google", rec, FAST_CFG)
    cfg = AnnealConfig(rounds=1, iters_per_round=2)

    def fit():
        return anneal_fit([rec], chain, *arrays[:2], "widowx", *arrays[2:], cfg, FAST_CFG)

    first = fit()
    kept = first.best_p.copy(), first.best_d.copy()
    first.best_p[:] = first.best_d[:] = first.history[0].lows[:] = 0.0
    second = fit()
    assert np.array_equal(second.best_p, kept[0]) and np.array_equal(second.best_d, kept[1])
    for array, want in zip(arrays, (*dyn, *pd, *around(*pd, 2.0))):
        assert array.flags.writeable and np.array_equal(array, want)


def test_record_json_roundtrip(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rng = np.random.default_rng(6)
    actions = fk_path_actions(chain, q0, 4, rng, amp=0.15, gripper=0.3)
    rec = synthesize_record(chain, *dyn, *pd, "widowx", actions, q0, FAST_CFG)
    back = TrajectoryRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back.ctrl_frequency == rec.ctrl_frequency
    assert len(back.gripper) == len(rec.gripper)
    np.testing.assert_allclose(back.joint_positions, rec.joint_positions, atol=1e-12)
    for a, b in zip(back.ee_poses, rec.ee_poses):
        np.testing.assert_allclose(a[:3, 3], b[:3, 3], atol=1e-12)
        np.testing.assert_allclose(a[:3, :3], b[:3, :3], atol=1e-9)
    np.testing.assert_allclose(back.gripper, rec.gripper, atol=1e-12)


def test_initial_joint_positions_by_ik(replay_setup):
    # a record without joint positions starts at the IK solution of its first pose, solved from zeros
    chain, q0, dyn, pd = replay_setup
    pose = fk(chain, q0)
    rec = TrajectoryRecord(*zero_actions(1), [pose], 5.0)
    (q,) = initial_joint_positions(chain, [rec])
    np.testing.assert_allclose(fk(chain, q)[:3, 3], pose[:3, 3], atol=1e-4)


def test_an_unreachable_first_pose_names_its_record(replay_setup):
    # the replay and the fit raise the fault once, naming the field in the record and the record by its index
    chain, q0, dyn, pd = replay_setup
    reachable = synthesize_record(chain, *dyn, *pd, "widowx", zero_actions(2), q0, FAST_CFG)
    far = TrajectoryRecord(*zero_actions(2), [transform((10.0, 0.0, 0.0))] * 3, 5.0)
    message = r"^ee_poses\[0\]: could not match the initial pose by IK \(pos residual"
    with pytest.raises(JointSimError, match=message) as info:
        replay_open_loop(chain, *dyn, *pd, "widowx", far, FAST_CFG)
    assert info.value.record == 0
    with pytest.raises(JointSimError, match=message) as info:
        anneal_fit([reachable, far], chain, *dyn, "widowx", *pd, *around(*pd, 2.0), AnnealConfig(), FAST_CFG)
    assert info.value.record == 1


def test_unknown_controller_kind_rejected(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rec = synthesize_record(chain, *dyn, *pd, "widowx", zero_actions(1), q0, FAST_CFG)
    with pytest.raises(JointSimError, match="controller kind"):
        replay_open_loop(chain, *dyn, *pd, "servo", rec, FAST_CFG)


def test_unstable_gains_rejected(replay_setup):
    # semi-implicit Euler needs p dt^2/m < 4 - 2 (d + b) dt/m on every joint:
    # too stiff, or damped too hard for the step
    chain, q0, dyn, _ = replay_setup
    cfg = CtrlConfig(h_sim=500.0, h_ctrl=5.0)
    too_stiff = (np.full(3, 1e9), np.full(3, 6.0))
    too_damped = (np.full(3, 1e5), np.full(3, 632.0))
    for pd, at in ((too_stiff, cfg), (too_damped, FAST_CFG)):
        with pytest.raises(JointSimError, match="unstable"):
            synthesize_record(chain, *dyn, *pd, "widowx", zero_actions(1), q0, at)


@pytest.mark.parametrize("field, value, message", [
    ("inertia", [1.0, 0.0, 1.0], "inertia: joint inertia must be strictly positive"),
    ("damping", [-0.3] * 3, "damping: passive damping must be non-negative"),
    ("p", [80.0, math.nan, 80.0], "p: PD gain p must be finite"),
    ("d", np.full((2, 3), 6.0), "inertia and damping must be (3,) arrays and p and d (3,) or (K, 3) arrays of one "
                                "shape, not (3,), (3,), (3,) and (2, 3)"),
])
def test_replay_checks_each_plant_input(replay_setup, field, value, message):
    chain, q0, dyn, pd = replay_setup
    plant = dict(zip(("inertia", "damping", "p", "d"), (*dyn, *pd)), **{field: value})
    with pytest.raises(JointSimError, match=f"^{re.escape(message)}$"):
        synthesize_record(chain, *plant.values(), "widowx", zero_actions(1), q0, FAST_CFG)


def lockstep_case():
    """Three records of unequal length on the 6-DOF arm: record 0 ends with an action out of reach, and
    record 1's actions, made on the arm's own limits, turn joint 0 by 0.03 a step toward the upper limit of
    the returned chain, 0.02 above record 1's start."""
    from helpers import arm_6dof

    arm = arm_6dof()
    base = np.array([0.3, -0.5, 0.4, 0.1, 0.5, -0.2])
    q_inits = np.array([base, base + 0.05, base - 0.05])
    q_inits[[0, 2], 0] -= 0.6
    dyn = (np.ones(6), np.full(6, 0.3))  # inertia and passive damping
    pd = (np.full(6, 80.0), np.full(6, 3.0))
    rng = np.random.default_rng(21)
    action_lists = [fk_path_actions(arm, q, t, rng, amp=0.3) for q, t in zip(q_inits[[0, 2]], (5, 4))]
    # joint 0 leads record 1's sweep, so the Google planner moves it fast enough to overshoot the stop too
    poses = [fk(arm, q) for q in q_inits[1] + np.outer(np.arange(4), [0.03, 0.01, -0.01, 0.01, 0.0, 0.0])]
    action_lists.insert(1, (np.array([b[:3, 3] - a[:3, 3] for a, b in zip(poses, poses[1:])]),
                            np.array([b[:3, :3] @ a[:3, :3].T for a, b in zip(poses, poses[1:])]), np.zeros(3)))
    chain = ChainSpec((dataclasses.replace(arm.joints[0], upper=q_inits[1, 0] + 0.02), *arm.joints[1:]),
                      arm.ee_offset)
    delta_pos, delta_rot, gripper = action_lists[0]
    action_lists[0] = (np.append(delta_pos, [[3.0, 3.0, 3.0]], axis=0), np.append(delta_rot, [np.eye(3)], axis=0),
                       np.append(gripper, 0.0))
    return chain, dyn, pd, action_lists, q_inits


@pytest.mark.parametrize("kind", ["widowx", "google"])
def test_lockstep_replay_matches_per_record_reference(kind, monkeypatch):
    chain, dyn, pd, action_lists, q_inits = lockstep_case()
    ik_calls = []
    batched_ik = controller.ik

    def counting_ik(*args):
        out = batched_ik(*args)
        ik_calls.append(list(zip(out[4].tolist(), out[3].tolist())))
        return out

    monkeypatch.setattr(controller, "ik", counting_ik)
    sims, logs = _simulate(chain, *dyn, *pd, kind, action_lists, q_inits, FAST_CFG)
    # a step's IK call lists the records still running, in record order
    lengths = np.array([len(gripper) for *_, gripper in action_lists])
    for b, actions in enumerate(action_lists):
        ref_poses, ref_stats = ref_simulate(chain, *dyn, *pd, kind, actions, q_inits[b], FAST_CFG)
        assert len(sims[b]) == len(ref_poses) == len(actions[2]) + 1
        np.testing.assert_allclose(sims[b], np.stack(ref_poses), rtol=0, atol=1e-12)
        assert [ik_calls[t][np.sum(lengths[:b] > t)] for t in range(len(actions[2]))] == ref_stats
    # the case covers what it claims: one unconverged IK, and an end stop in record 1 only. The IK keeps
    # every goal inside the limits, so only the plant's overshoot reaches the stop.
    assert [ok for _, ok in ik_calls[-1]] == [False]
    hits = [np.any(log[:, 0] == chain.upper[0]) for log in logs]
    assert hits == [False, True, False]


@pytest.mark.parametrize("kind", ["widowx", "google"])
def test_gain_sets_replay_as_separate_calls(kind):
    # K gain sets in one lockstep call give, row for row, the bits of K one-set calls
    chain, dyn, pd, action_lists, q_inits = lockstep_case()
    stack = (pd[0] * np.array([[1.0], [0.6], [1.7]]), pd[1] * np.array([[1.0], [1.4], [0.5]]))
    tools, joints = _simulate(chain, *dyn, *stack, kind, action_lists, q_inits, FAST_CFG)
    assert len(tools) == len(joints) == 3 * len(action_lists)
    for s in range(3):
        solo_tools, solo_joints = _simulate(chain, *dyn, stack[0][s], stack[1][s], kind, action_lists, q_inits,
                                            FAST_CFG)
        for r in range(len(action_lists)):
            assert np.array_equal(tools[s * len(action_lists) + r], solo_tools[r])
            assert np.array_equal(joints[s * len(action_lists) + r], solo_joints[r])


def test_widowx_goals_do_not_depend_on_the_gains():
    # the goals chain off the commanded goals and seed their IK there, never at the
    # sensed state: two gain sets that track differently command the same bits
    chain, dyn, pd, action_lists, q_inits = lockstep_case()

    def commanded(gains):
        seen = []
        tools, _ = _simulate(chain, *dyn, *gains, "widowx", action_lists, q_inits, FAST_CFG,
                             plan_sink=lambda step, targets: seen.append(targets[0, :, : chain.n]))
        return tools, seen

    (stiff_tools, stiff), (soft_tools, soft) = commanded(pd), commanded((pd[0] * 0.3, pd[1] * 2.0))
    assert not np.array_equal(stiff_tools[1][1:], soft_tools[1][1:])
    assert len(stiff) == len(soft) == 6
    for a, b in zip(stiff, soft):
        assert np.abs(a - b).max() == 0.0
    # and they are the goal table's rows of the records still running, in record order
    goals = _widowx_goals(chain, action_lists, q_inits)
    lengths = np.array([len(gripper) for *_, gripper in action_lists])
    for t, targets in enumerate(stiff):
        assert np.array_equal(targets, goals[t, lengths > t])


def test_a_tick_planning_failure_names_the_step_and_the_record(monkeypatch):
    # two gain sets tile the records; the step-2 tick of record 2 fails, and only that row's tick alone
    chain, dyn, pd, action_lists, q_inits = lockstep_case()
    tick = jointsim.google_step
    bad_row = action_lists[2][0][2]

    def failing(t, delta_pos, *args):
        if t == 2 and (delta_pos == bad_row).all(axis=1).any():
            raise PlanningError("no profile")
        return tick(t, delta_pos, *args)

    monkeypatch.setattr(jointsim, "google_step", failing)
    stack = (pd[0] * np.array([[1.0], [0.6]]), pd[1] * np.array([[1.0], [1.4]]))
    with pytest.raises(PlanningError, match=r"^actions\[2\]: no profile$") as info:
        _simulate(chain, *dyn, *stack, "google", action_lists, q_inits, FAST_CFG)
    assert info.value.record == 2
