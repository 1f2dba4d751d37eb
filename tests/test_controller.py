import math

import numpy as np
import pytest

from helpers import RefGripState, random_rotation, ref_google_grip_step, rot_z, transform
from real2sim.controller import (
    GOOGLE_GRIP_FILTER,
    GOOGLE_GRIP_LIMITS,
    MAX_TICKS_PER_STEP,
    ControllerError,
    CtrlConfig,
    google_grip_step,
    google_step,
    widowx_goal_pose,
    widowx_step,
)
from real2sim.chain import fk
from real2sim.jointsim import TrajectoryRecord, default_config, replay_open_loop


IDENTITY_ARM = (np.zeros((1, 3)), np.eye(3)[None])  # one record's delta_pos and delta_rot rows of a zero move


def grip_state(goal, q, v):
    """(goal, q, v) of one record as the (1,) arrays google_grip_step takes."""
    return np.array([goal]), np.array([q]), np.array([v])


def test_ctrl_config_rejects_non_positive_and_non_finite_frequencies():
    for field in ("h_sim", "h_ctrl"):
        for bad in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(ControllerError, match=f"^{field} must be a positive finite frequency"):
                CtrlConfig(**{field: bad})


def test_ctrl_config_rejects_more_than_max_ticks_per_step():
    assert CtrlConfig(h_sim=3.0 * MAX_TICKS_PER_STEP, h_ctrl=3.0).ticks_per_step == MAX_TICKS_PER_STEP
    with pytest.raises(ControllerError, match=r"^h_sim 30003.0 Hz over h_ctrl 3.0 Hz is more than 10000 "):
        CtrlConfig(h_sim=3.0 * MAX_TICKS_PER_STEP + 3.0, h_ctrl=3.0)
    with pytest.raises(ControllerError, match="is more than 10000"):
        CtrlConfig(h_sim=1e300, h_ctrl=1e-300)


def test_ticks_per_step_floor():
    assert default_config("google").ticks_per_step == 167
    assert default_config("widowx").ticks_per_step == 100
    assert CtrlConfig(h_sim=100.0, h_ctrl=3.0).ticks_per_step == 33


def test_google_emits_167_targets(three_link):
    q = np.array([0.2, -0.3, 0.4])
    arm_q, _, _ = google_step(0, *IDENTITY_ARM, q[None], np.zeros((1, 3)), three_link)
    (grip_q, _, _), _ = google_grip_step(np.zeros(1), *grip_state(0.1, 0.1, 0.0))
    assert arm_q[:, 0].shape == (167, 3)
    assert grip_q[:, 0].shape == (167,)


def test_google_identity_action_holds_position(three_link):
    q = np.array([0.2, -0.3, 0.4])
    arm_q, _, _ = google_step(0, *IDENTITY_ARM, q[None], np.zeros((1, 3)), three_link)
    worst = np.abs(arm_q[:, 0] - q).max()
    assert worst < 1e-6


def test_google_small_gripper_action_filtered():
    _, (goal, _, _) = google_grip_step(np.array([0.005]), *grip_state(0.9, 0.4, 0.0))
    assert goal[0] == 0.9


def test_google_gripper_accumulates_on_planned_state():
    (grip_q, _, _), (goal, _, _) = google_grip_step(np.array([0.5]), *grip_state(0.1, 0.2, 0.0))
    assert goal[0] == pytest.approx(0.7)
    # the plan is seeded at the last planned state, not the sensed gripper
    assert grip_q[0, 0] == pytest.approx(0.2, abs=1e-3)


def test_google_gripper_goal_reaches_sum_when_plans_complete():
    # 1 Hz control interval lets every 0.1 move finish, so five actions
    # accumulate to exactly 0.5: no sensed gripper value enters the tick
    cfg = CtrlConfig(h_sim=501.0, h_ctrl=1.0)
    state = grip_state(0.0, 0.0, 0.0)
    for _ in range(5):
        _, state = google_grip_step(np.array([0.1]), *state, cfg)
    assert state[0][0] == pytest.approx(0.5, abs=1e-9)
    assert state[1][0] == pytest.approx(0.5, abs=1e-6)


def test_google_initializes_gripper_state_from_sensed():
    # the replay starts a gripper at rest, with its goal at its sensed position
    (grip_q, _, _), (goal, _, _) = google_grip_step(np.zeros(1), *grip_state(0.33, 0.33, 0.0))
    assert goal[0] == pytest.approx(0.33)
    assert grip_q[0, 0] == pytest.approx(0.33, abs=1e-6)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_google_grip_step_matches_the_one_record_reference(rows):
    # a lockstep gripper tick equals the one-record float tick, bit for bit, over consecutive
    # ticks; half the actions fall below the filter, and the seed velocities pass v_max
    rng = np.random.default_rng(rows)
    cfg = CtrlConfig()
    goal, q = rng.uniform(-1, 1, size=(2, rows))
    v = rng.choice([-1.0, 1.0], size=rows) * rng.uniform(1.1, 2.0, size=rows) * GOOGLE_GRIP_LIMITS.v_max
    refs = [RefGripState(1, *state) for state in zip(goal, q, v)]
    state = (goal, q, v)
    for tick in range(6):
        small = (np.arange(rows) + tick) % 2 == 0
        grips = np.where(small, rng.uniform(-0.99, 0.99, rows) * GOOGLE_GRIP_FILTER, rng.uniform(-0.5, 0.5, rows))
        plan, state = google_grip_step(grips, *state, cfg)
        for b, g in enumerate(grips.tolist()):
            want, refs[b] = ref_google_grip_step(refs[b], g, 0.0, cfg)
            for got, ref in zip(plan, want):
                assert got.shape == (167, rows) and np.array_equal(got[:, b], ref)
            ref_state = (refs[b].q_lastgoal_grip, refs[b].q_lastplan_grip, refs[b].v_lastplan_grip)
            assert np.array_equal([x[b] for x in state], ref_state)


def test_google_rejects_missized_sensed(three_link):
    with pytest.raises(ControllerError):
        google_step(0, *IDENTITY_ARM, np.zeros((1, 2)), np.zeros((1, 2)), three_link)


def test_google_deterministic(three_link):
    q = np.array([0.2, -0.3, 0.4])
    arm = (np.array([[0.01, 0.0, 0.0]]), rot_z(0.02)[None])
    arm1 = google_step(0, *arm, q[None], np.zeros((1, 3)), three_link)
    arm2 = google_step(0, *arm, q[None], np.zeros((1, 3)), three_link)
    grip1, s1 = google_grip_step(np.array([0.2]), *grip_state(0.0, 0.0, 0.0))
    grip2, s2 = google_grip_step(np.array([0.2]), *grip_state(0.0, 0.0, 0.0))
    assert all(map(np.array_equal, s1, s2))
    assert np.array_equal(arm1[0], arm2[0])
    assert np.array_equal(grip1[0], grip2[0]) and np.array_equal(grip1[1], grip2[1])


def test_google_rows_step_independently(three_link):
    # a lockstep tick of three records equals three one-record ticks, bit for bit
    rng = np.random.default_rng(9)
    q = np.array([0.2, -0.3, 0.4]) + rng.normal(scale=0.1, size=(3, 3))
    v = rng.normal(scale=0.3, size=(3, 3))
    moves = [(rng.normal(scale=0.01, size=3), rot_z(rng.normal(scale=0.05))) for _ in range(3)]
    delta_pos, delta_rot = (np.array(x) for x in zip(*moves))
    batched = google_step(4, delta_pos, delta_rot, q, v, three_link)
    for b in range(3):
        solo = google_step(4, delta_pos[b : b + 1], delta_rot[b : b + 1], q[b : b + 1], v[b : b + 1], three_link)
        for got, want in zip(batched, solo):
            assert np.array_equal(got[:, b], want[:, 0])


def test_widowx_goal_pose_example():
    rot, pos = widowx_goal_pose(np.array([1.0, 0, 0]), np.eye(3), np.array([0.1, 0, 0]), rot_z(math.pi / 2))
    np.testing.assert_allclose(pos, [1.1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(rot, rot_z(math.pi / 2), atol=1e-12)


def test_widowx_shortcut_equals_explicit_product():
    # the delta rotation acts about the end-effector origin:
    # T(x, I) * T(x_a, R_a) * T(-x, I) * T(x, R)
    rng = np.random.default_rng(5)
    eye = np.eye(3)
    for _ in range(200):
        x = rng.normal(size=3)
        xa = rng.normal(size=3) * 0.1
        r = random_rotation(rng)
        ra = random_rotation(rng)
        rot, pos = widowx_goal_pose(x, r, xa, ra)
        explicit = transform(x, eye) @ transform(xa, ra) @ transform(-x, eye) @ transform(x, r)
        assert np.abs(pos - explicit[:3, 3]).max() < 1e-12
        assert np.abs(rot - explicit[:3, :3]).max() < 1e-12


def test_widowx_initializes_lastgoal_from_sensed(three_link):
    # at t = 0 the caller hands in the sensed initial configuration as the last goal
    q = np.array([0.2, -0.3, 0.4])
    goal = widowx_step(0, *IDENTITY_ARM, q[None], three_link)
    assert goal.shape == (1, 3)
    np.testing.assert_allclose(goal[0], q, atol=1e-5)


def test_widowx_identity_action_keeps_goal(three_link):
    q = np.array([0.2, -0.3, 0.4])
    first = widowx_step(0, *IDENTITY_ARM, q[None], three_link)
    goal = widowx_step(1, *IDENTITY_ARM, first, three_link)
    np.testing.assert_allclose(goal, first, atol=1e-5)


def test_widowx_gripper_passthrough(three_link):
    # the per-tick targets a plan sink sees: the goal held for 100 ticks, the raw gripper value
    q = np.array([0.2, -0.3, 0.4])
    rec = TrajectoryRecord(*IDENTITY_ARM, [0.73], fk(three_link, q)[None], 5.0, np.array([q]))
    seen = []
    replay_open_loop(three_link, np.ones(3), np.zeros(3), np.full(3, 80.0), np.full(3, 6.0), "widowx", rec,
                     plan_sink=lambda step, targets: seen.append(targets))
    (targets,) = seen
    assert targets.shape == (100, 1, 12)
    np.testing.assert_allclose(targets[0, 0, :3], q, atol=1e-5)
    assert np.all(targets[:, 0, 9] == 0.73)


def test_widowx_chains_goals_not_sensed(three_link):
    # command a move; the tick takes no sensed state, so the next goal chains
    # from the previously commanded goal however the plant tracked it; the
    # elbow-bent start keeps both chained targets inside the dexterous workspace
    q = np.array([0.4, 0.9, -0.7])
    arm = (np.array([[0.02, 0.0, 0.0]]), np.eye(3)[None])
    t1 = widowx_step(0, *arm, q[None], three_link)
    t2 = widowx_step(1, *arm, t1, three_link)
    ee2 = fk(three_link, t2[0])
    ee0 = fk(three_link, q)
    # two chained IK solves, each within the 1e-4 position tolerance
    assert ee2[0, 3] == pytest.approx(ee0[0, 3] + 0.04, abs=5e-4)


@pytest.mark.parametrize(
    "action",
    [
        {"xyz": [0.0, float("nan"), 0.0], "rot_axis_angle": [0.0, 0.0, 0.1], "gripper": 0.0},
        {"xyz": [0.0, 0.0, 0.0], "rot_axis_angle": [0.0, float("inf"), 0.1], "gripper": 0.0},
        {"xyz": [0.0, 0.0, 0.0], "quat_wxyz": [float("nan"), 0.0, 0.0, 0.0], "gripper": 0.0},
        {"xyz": [0.0, 0.0, 0.0], "quat_wxyz": [1.0, 0.0, 0.0, 0.0], "gripper": float("nan")},
    ],
)
def test_action_rejects_non_finite_values(action):
    with pytest.raises(ControllerError, match="action values must be finite"):
        TrajectoryRecord.from_dict({"ctrl_frequency": 5.0, "actions": [action], "ee_poses": []})
