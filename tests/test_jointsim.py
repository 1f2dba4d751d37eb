import json
import math

import numpy as np
import pytest

from helpers import (dyn_step, fk_path_actions, planar_3link, ref_hold_target, ref_integrate_targets, ref_simulate,
                     transform)
from real2sim import controller, jointsim
from real2sim.chain import ChainSpec, JointSpec, fk
from real2sim.controller import CtrlConfig
from real2sim.jointsim import (
    JointDynamics,
    JointSimError,
    PDParams,
    TrajectoryRecord,
    _MAX_RUN,
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
from real2sim.sysid import SysIdRange, trajectory_losses

# light controller frequencies keep unit tests quick; the production-rate
# constants are exercised in the acceptance suite
FAST_CFG = CtrlConfig(h_sim=200.0, h_ctrl=5.0)


def free_dynamics(n, inertia=1.0, damping=0.0):
    return JointDynamics(np.full(n, inertia), np.full(n, damping), np.full(n, -np.inf), np.full(n, np.inf))


def step(q, v, target, pd, dyn, dt):
    """One plant step of one row through the batched integrator."""
    qs, vs = _integrate_targets(q[None], v[None], target[None, None], pd, np.zeros(1, int), dyn, dt)
    return qs[0], vs[0]


def test_equilibrium_is_fixed_point():
    pd = PDParams([100.0], [20.0])
    dyn = free_dynamics(1)
    q, v = step(np.array([0.7]), np.array([0.0]), np.array([0.7]), pd, dyn, 0.002)
    assert q[0] == 0.7
    assert v[0] == 0.0


def test_critically_damped_step_matches_closed_form():
    # p=100, d=20, m=1: double pole at omega=10; q(t) = 1 - (1 + 10 t) e^(-10 t)
    pd = PDParams([100.0], [20.0])
    dyn = free_dynamics(1)
    dt = 0.002
    q = np.array([0.0])
    v = np.array([0.0])
    target = np.array([1.0])
    qs = [0.0]
    for _ in range(500):
        q, v = step(q, v, target, pd, dyn, dt)
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
    pd = PDParams([100.0], [0.0])
    dyn = free_dynamics(1)
    dt = 0.1 * 2.0 * math.sqrt(1.0 / 100.0)  # omega dt = 0.2
    q = np.array([0.0])
    v = np.array([0.0])
    target = np.array([1.0])
    e0 = 0.5 * 100.0 * 1.0**2
    energies = []
    for _ in range(5000):
        q, v = step(q, v, target, pd, dyn, dt)
        energies.append(0.5 * v[0] ** 2 + 0.5 * 100.0 * (q[0] - 1.0) ** 2)
    assert max(energies) <= e0 * (1.0 + 0.25)
    assert min(energies) >= 0.0


def test_limits_clamp_and_zero_velocity():
    pd = PDParams([1000.0], [0.0])
    dyn = JointDynamics([1.0], [0.0], [-0.5], [0.5])
    q, v = step(np.array([0.49]), np.array([5.0]), np.array([2.0]), pd, dyn, 0.01)
    assert q[0] == 0.5
    assert v[0] == 0.0


def test_integrate_targets_matches_dyn_step_sequence():
    # targets beyond the +-0.4 limits: rows 0 and 1 never reach a stop, row 2
    # does on 19 ticks; a lone row 0 skips the clamped pass entirely
    rng = np.random.default_rng(5)
    pd = PDParams(rng.uniform(50, 300, 4), rng.uniform(2, 30, 4))
    dyn = JointDynamics(rng.uniform(0.5, 2, 4), rng.uniform(0, 1, 4), np.full(4, -0.4), np.full(4, 0.4))
    q = rng.normal(size=(3, 4)) * 0.1
    v = rng.normal(size=(3, 4)) * 2.0
    targets = rng.normal(size=(300, 3, 4)) * np.array([0.1, 0.6, 3.0])[:, None]
    qf, vf = _integrate_targets(q, v, targets, pd, np.zeros(3, int), dyn, 1 / 500)
    stops = []
    for b in range(3):
        qs, vs = q[b].copy(), v[b].copy()
        stops.append(0)
        for i in range(300):
            qs, vs = dyn_step(qs, vs, targets[i, b], np.zeros(4), pd, dyn, 1 / 500)
            stops[b] += bool(np.any(np.abs(qs) == 0.4))
        np.testing.assert_allclose(qf[b], qs, atol=1e-12)
        np.testing.assert_allclose(vf[b], vs, atol=1e-12)
        # the one-row loop it replaces gives the same bits
        qr, vr = ref_integrate_targets(q[b], v[b], targets[:, b], pd, dyn, 1 / 500)
        assert np.array_equal(qf[b], qr) and np.array_equal(vf[b], vr)
        qb, vb = _integrate_targets(q[b : b + 1], v[b : b + 1], targets[:, b : b + 1], pd, np.zeros(1, int), dyn,
                                    1 / 500)
        assert np.array_equal(qb[0], qr) and np.array_equal(vb[0], vr)
    assert stops == [0, 0, 19]


@pytest.mark.parametrize("ticks", [1, 100, _MAX_RUN + 45])
def test_hold_target_matches_dyn_step_sequence(ticks):
    # a held target outside the +-0.4 limits drives some joints into the stop,
    # each row at its own tick; all rows advance in one call
    rng = np.random.default_rng(8)
    pd = PDParams(rng.uniform(50, 300, 4), rng.uniform(2, 30, 4))
    dyn = JointDynamics(rng.uniform(0.5, 2, 4), rng.uniform(0, 1, 4), np.full(4, -0.4), np.full(4, 0.4))
    powers = _plant_powers(pd, dyn, 1 / 500, ticks)
    q = rng.uniform(-0.4, 0.4, (20, 4))
    v = rng.normal(size=(20, 4)) * 2.0
    target = rng.normal(size=(20, 4)) * 0.6
    qf, vf = _hold_target(q, v, target, ticks, powers, np.zeros(20, dtype=int), dyn)
    for b in range(20):
        qs, vs = q[b].copy(), v[b].copy()
        for _ in range(ticks):
            qs, vs = dyn_step(qs, vs, target[b], np.zeros(4), pd, dyn, 1 / 500)
        np.testing.assert_allclose(qf[b], qs, atol=1e-12)
        np.testing.assert_allclose(vf[b], vs, atol=1e-12)
        # the one-row closed form it replaces gives the same bits
        qr, vr = ref_hold_target(q[b], v[b], target[b], ticks, powers[:, 0], dyn)
        assert np.array_equal(qf[b], qr) and np.array_equal(vf[b], vr)


def test_stability_guard_overdamped():
    # d >= 2 sqrt(p m) keeps every joint bounded over 1e4 steps
    n = 3
    p = np.array([50.0, 200.0, 500.0])
    d = 2.0 * np.sqrt(p) + 1.0
    pd = PDParams(p, d)
    dyn = JointDynamics(np.ones(n), np.zeros(n), np.full(n, -3.0), np.full(n, 3.0))
    rng = np.random.default_rng(0)
    q = rng.uniform(-1, 1, n)
    target = rng.uniform(-1, 1, n)
    q, v = _integrate_targets(q[None], np.zeros((1, n)), np.broadcast_to(target, (10_000, 1, n)), pd, np.zeros(1, int),
                              dyn, 1 / 500)
    assert np.all(np.abs(q) <= 3.0)
    assert np.all(np.isfinite(v))


@pytest.fixture
def replay_setup(three_link):
    q0 = np.array([0.4, 0.9, -0.7])
    dyn = JointDynamics.from_chain(three_link, inertia=1.0, damping=0.3)
    pd = PDParams(np.full(3, 80.0), np.full(3, 6.0))
    return three_link, q0, dyn, pd


def zero_actions(t: int):
    """The (delta_pos, delta_rot, gripper) arrays of ``t`` actions that move nothing."""
    return np.zeros((t, 3)), np.tile(np.eye(3), (t, 1, 1)), np.zeros(t)


def test_zero_action_replay_holds_pose(replay_setup):
    chain, q0, dyn, pd = replay_setup
    actions = zero_actions(5)
    rec = synthesize_record(chain, dyn, pd, "widowx", actions, q0, FAST_CFG)
    start = rec.ee_poses[0]
    for pose in rec.ee_poses:
        assert np.abs(pose[:3, 3] - start[:3, 3]).max() < 1e-6
        assert np.abs(pose[:3, :3] - start[:3, :3]).max() < 1e-6


def test_replay_self_consistency(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rng = np.random.default_rng(2)
    actions = fk_path_actions(chain, q0, 12, rng, amp=0.2)
    rec = synthesize_record(chain, dyn, pd, "widowx", actions, q0, FAST_CFG)
    sim = replay_open_loop(chain, dyn, pd, "widowx", rec, cfg=FAST_CFG)
    losses = trajectory_losses(rec.ee_poses, sim[: len(rec.ee_poses)])
    assert losses.total < 1e-9


def test_replay_deterministic(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rng = np.random.default_rng(3)
    actions = fk_path_actions(chain, q0, 8, rng, amp=0.2)
    rec = synthesize_record(chain, dyn, pd, "google", actions, q0, FAST_CFG)
    a = replay_open_loop(chain, dyn, pd, "google", rec, cfg=FAST_CFG)
    b = replay_open_loop(chain, dyn, pd, "google", rec, cfg=FAST_CFG)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa[:3, 3], pb[:3, 3])
        assert np.array_equal(pa[:3, :3], pb[:3, :3])


def test_stiff_params_track_slow_actions(replay_setup):
    chain, q0, dyn, _ = replay_setup
    # stiff and still stable at 200 Hz: p dt^2 = 2.5 < 4 - 2 (d + b) dt = 2.68
    # (d = 2 sqrt(p) would break that bound; test_unstable_gains_rejected)
    stiff = PDParams(np.full(3, 1e5), np.full(3, 132.0))
    rng = np.random.default_rng(4)
    actions = fk_path_actions(chain, q0, 10, rng, amp=0.1, dphase=0.2)
    rec = synthesize_record(chain, dyn, stiff, "widowx", actions, q0, FAST_CFG)
    # commanded goals live on the fk sweep; stiff tracking stays within a mm
    sim = replay_open_loop(chain, dyn, stiff, "widowx", rec, cfg=FAST_CFG)
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
    "PDParams": (np.ones(3), lambda a: PDParams(a, np.ones(3)), "p"),
    "JointDynamics": (np.ones(3), lambda a: JointDynamics(a, np.zeros(3), -np.ones(3), np.ones(3)), "inertia"),
    "SysIdRange": (np.ones(3), lambda a: SysIdRange(a, np.full(3, 2.0), np.zeros(3), np.ones(3)), "p_low"),
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


def test_record_json_roundtrip(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rng = np.random.default_rng(6)
    actions = fk_path_actions(chain, q0, 4, rng, amp=0.15, gripper=0.3)
    rec = synthesize_record(chain, dyn, pd, "widowx", actions, q0, FAST_CFG)
    back = TrajectoryRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back.ctrl_frequency == rec.ctrl_frequency
    assert len(back.gripper) == len(rec.gripper)
    np.testing.assert_allclose(back.joint_positions, rec.joint_positions, atol=1e-12)
    for a, b in zip(back.ee_poses, rec.ee_poses):
        np.testing.assert_allclose(a[:3, 3], b[:3, 3], atol=1e-12)
        np.testing.assert_allclose(a[:3, :3], b[:3, :3], atol=1e-9)
    np.testing.assert_allclose(back.gripper, rec.gripper, atol=1e-12)


def test_initial_joint_positions_by_ik(replay_setup):
    chain, q0, dyn, pd = replay_setup
    pose = fk(chain, q0)
    q = initial_joint_positions(chain, pose, q_seed=q0 + 0.05)
    np.testing.assert_allclose(fk(chain, q)[:3, 3], pose[:3, 3], atol=2e-4)


def test_unknown_controller_kind_rejected(replay_setup):
    chain, q0, dyn, pd = replay_setup
    rec = synthesize_record(chain, dyn, pd, "widowx", zero_actions(1), q0, FAST_CFG)
    with pytest.raises(JointSimError, match="controller kind"):
        replay_open_loop(chain, dyn, pd, "servo", rec, q0, FAST_CFG)


def test_unstable_gains_rejected(replay_setup):
    # semi-implicit Euler needs p dt^2/m < 4 - 2 (d + b) dt/m on every joint:
    # too stiff, or damped too hard for the step
    chain, q0, dyn, _ = replay_setup
    cfg = CtrlConfig(h_sim=500.0, h_ctrl=5.0)
    too_stiff = PDParams(np.full(3, 1e9), np.full(3, 6.0))
    too_damped = PDParams(np.full(3, 1e5), np.full(3, 632.0))
    for pd, at in ((too_stiff, cfg), (too_damped, FAST_CFG)):
        with pytest.raises(JointSimError, match="unstable"):
            synthesize_record(chain, dyn, pd, "widowx", zero_actions(1), q0, at)


def lockstep_case():
    """Three records of unequal length on the 6-DOF arm: record 0 ends with an
    action out of reach, and only record 1 drives joint 0 into an end stop."""
    from helpers import arm_6dof

    chain = arm_6dof()
    base = np.array([0.3, -0.5, 0.4, 0.1, 0.5, -0.2])
    q_inits = np.array([base, base + 0.05, base - 0.05])
    q_inits[[0, 2], 0] -= 0.6
    upper = chain.upper.copy()
    upper[0] = q_inits[1, 0] + 0.02
    dyn = JointDynamics(np.ones(6), np.full(6, 0.3), chain.lower, upper)
    pd = PDParams(np.full(6, 80.0), np.full(6, 3.0))
    rng = np.random.default_rng(21)
    action_lists = [fk_path_actions(chain, q, t, rng, amp=0.3) for q, t in zip(q_inits, (5, 3, 4))]
    delta_pos, delta_rot, gripper = action_lists[0]
    action_lists[0] = (np.append(delta_pos, [[3.0, 3.0, 3.0]], axis=0), np.append(delta_rot, [np.eye(3)], axis=0),
                       np.append(gripper, 0.0))
    return chain, dyn, pd, action_lists, q_inits


@pytest.mark.parametrize("kind", ["widowx", "google"])
def test_lockstep_replay_matches_per_record_reference(kind, monkeypatch):
    chain, dyn, pd, action_lists, q_inits = lockstep_case()
    ik_calls = []
    batched_ik = controller._ik_rows

    def counting_ik(*args):
        out = batched_ik(*args)
        ik_calls.append(list(zip(out[4].tolist(), out[3].tolist())))
        return out

    monkeypatch.setattr(controller, "_ik_rows", counting_ik)
    sims, logs = _simulate(chain, dyn, pd, kind, action_lists, q_inits, FAST_CFG)
    # a step's IK call lists the records still running, in record order
    lengths = np.array([len(gripper) for *_, gripper in action_lists])
    for b, actions in enumerate(action_lists):
        ref_poses, ref_stats = ref_simulate(chain, dyn, pd, kind, actions, q_inits[b], FAST_CFG)
        assert len(sims[b]) == len(ref_poses) == len(actions[2]) + 1
        np.testing.assert_allclose(sims[b], np.stack(ref_poses), rtol=0, atol=1e-12)
        assert [ik_calls[t][np.sum(lengths[:b] > t)] for t in range(len(actions[2]))] == ref_stats
    # the case covers what it claims: one unconverged IK, and an end stop in record 1 only
    assert [ok for _, ok in ik_calls[-1]] == [False]
    hits = [np.any(log[:, 0] == dyn.upper[0]) for log in logs]
    assert hits == [False, True, False]


@pytest.mark.parametrize("kind", ["widowx", "google"])
def test_gain_sets_replay_as_separate_calls(kind):
    # K gain sets in one lockstep call give, row for row, the bits of K one-set calls
    chain, dyn, pd, action_lists, q_inits = lockstep_case()
    stack = PDParams(pd.p * np.array([[1.0], [0.6], [1.7]]), pd.d * np.array([[1.0], [1.4], [0.5]]))
    tools, joints = _simulate(chain, dyn, stack, kind, action_lists, q_inits, FAST_CFG)
    assert len(tools) == len(joints) == 3 * len(action_lists)
    for s in range(3):
        one = PDParams(stack.p[s], stack.d[s])
        solo_tools, solo_joints = _simulate(chain, dyn, one, kind, action_lists, q_inits, FAST_CFG)
        for r in range(len(action_lists)):
            assert np.array_equal(tools[s * len(action_lists) + r], solo_tools[r])
            assert np.array_equal(joints[s * len(action_lists) + r], solo_joints[r])


def test_widowx_goals_do_not_depend_on_the_gains():
    # the goals chain off the commanded goals and seed their IK there, never at the
    # sensed state: two gain sets that track differently command the same bits
    chain, dyn, pd, action_lists, q_inits = lockstep_case()

    def commanded(gains):
        seen = []
        tools, _ = _simulate(chain, dyn, gains, "widowx", action_lists, q_inits, FAST_CFG,
                             plan_sink=lambda step, targets: seen.append(targets[0, :, : chain.n]))
        return tools, seen

    (stiff_tools, stiff), (soft_tools, soft) = commanded(pd), commanded(PDParams(pd.p * 0.3, pd.d * 2.0))
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
    stack = PDParams(pd.p * np.array([[1.0], [0.6]]), pd.d * np.array([[1.0], [1.4]]))
    with pytest.raises(PlanningError, match=r"^actions\[2\]: no profile$") as info:
        _simulate(chain, dyn, stack, "google", action_lists, q_inits, FAST_CFG)
    assert info.value.record == 2
