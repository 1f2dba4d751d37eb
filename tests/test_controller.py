import math

import numpy as np
import pytest

from helpers import random_rotation
from real2sim.controller import (
    Action,
    ControllerError,
    CtrlConfig,
    GoogleCtrlState,
    WidowXCtrlState,
    google_config,
    google_step,
    widowx_config,
    widowx_goal_pose,
    widowx_step,
)
from real2sim.chain import fk
from real2sim.geometry import Rot3, rot_z


IDENTITY_ACTION = Action(np.zeros(3), Rot3(np.eye(3)), 0.0)


def test_ticks_per_step_floor():
    assert google_config().ticks_per_step == 167
    assert widowx_config().ticks_per_step == 100
    assert CtrlConfig(h_sim=100.0, h_ctrl=3.0).ticks_per_step == 33


def test_google_emits_167_targets(three_link):
    q = np.array([0.2, -0.3, 0.4])
    targets, state = google_step(GoogleCtrlState(), IDENTITY_ACTION, q, np.zeros(3), 0.1, 0.0, three_link)
    assert targets.arm_q.shape == (167, 3)
    assert state.t == 1


def test_google_identity_action_holds_position(three_link):
    q = np.array([0.2, -0.3, 0.4])
    targets, _ = google_step(GoogleCtrlState(), IDENTITY_ACTION, q, np.zeros(3), 0.0, 0.0, three_link)
    worst = np.abs(targets.arm_q - q).max()
    assert worst < 1e-6


def test_google_small_gripper_action_filtered(three_link):
    q = np.array([0.2, -0.3, 0.4])
    state = GoogleCtrlState(t=3, q_lastgoal_grip=0.9, q_lastplan_grip=0.4, v_lastplan_grip=0.0)
    action = Action(np.zeros(3), Rot3(np.eye(3)), 0.005)
    _, new_state = google_step(state, action, q, np.zeros(3), 0.0, 0.0, three_link)
    assert new_state.q_lastgoal_grip == 0.9


def test_google_gripper_accumulates_on_planned_state(three_link):
    q = np.array([0.2, -0.3, 0.4])
    state = GoogleCtrlState(t=2, q_lastgoal_grip=0.1, q_lastplan_grip=0.2, v_lastplan_grip=0.0)
    action = Action(np.zeros(3), Rot3(np.eye(3)), 0.5)
    targets, new_state = google_step(state, action, q, np.zeros(3), 0.0, 0.0, three_link)
    assert new_state.q_lastgoal_grip == pytest.approx(0.7)
    # the plan is seeded at the last planned state, not the sensed gripper
    assert targets.grip_q[0] == pytest.approx(0.2, abs=1e-3)


def test_google_gripper_goal_reaches_sum_when_plans_complete(three_link):
    # 1 Hz control interval lets every 0.1 move finish, so five actions
    # accumulate to exactly 0.5 no matter what the sensed gripper does
    cfg = CtrlConfig(h_sim=501.0, h_ctrl=1.0)
    q = np.array([0.2, -0.3, 0.4])
    state = GoogleCtrlState()
    rng = np.random.default_rng(0)
    for k in range(5):
        action = Action(np.zeros(3), Rot3(np.eye(3)), 0.1)
        sensed_grip = rng.uniform(-1, 1)  # garbage: only the t=0 value is read
        _, state = google_step(state, action, q, np.zeros(3), 0.0 if k == 0 else sensed_grip, 0.0, three_link, cfg)
    assert state.q_lastgoal_grip == pytest.approx(0.5, abs=1e-9)
    assert state.q_lastplan_grip == pytest.approx(0.5, abs=1e-6)


def test_google_initializes_gripper_state_from_sensed(three_link):
    q = np.array([0.2, -0.3, 0.4])
    targets, state = google_step(GoogleCtrlState(), IDENTITY_ACTION, q, np.zeros(3), 0.33, 0.0, three_link)
    assert state.q_lastgoal_grip == pytest.approx(0.33)
    assert targets.grip_q[0] == pytest.approx(0.33, abs=1e-6)


def test_google_rejects_missized_sensed(three_link):
    with pytest.raises(ControllerError):
        google_step(GoogleCtrlState(), IDENTITY_ACTION, np.zeros(2), np.zeros(2), 0.0, 0.0, three_link)


def test_google_deterministic(three_link):
    q = np.array([0.2, -0.3, 0.4])
    action = Action(np.array([0.01, 0.0, 0.0]), rot_z(0.02), 0.2)
    out1, s1 = google_step(GoogleCtrlState(), action, q, np.zeros(3), 0.0, 0.0, three_link)
    out2, s2 = google_step(GoogleCtrlState(), action, q, np.zeros(3), 0.0, 0.0, three_link)
    assert s1 == s2
    assert np.array_equal(out1.arm_q, out2.arm_q)
    assert np.array_equal(out1.grip_q, out2.grip_q) and np.array_equal(out1.grip_v, out2.grip_v)


def test_widowx_goal_pose_example():
    goal = widowx_goal_pose(np.array([1.0, 0, 0]), Rot3(np.eye(3)), np.array([0.1, 0, 0]), rot_z(math.pi / 2))
    np.testing.assert_allclose(goal.pos, [1.1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(goal.rot.m, rot_z(math.pi / 2).m, atol=1e-12)


def _hom(pos, rot):
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = pos
    return t


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
        goal = widowx_goal_pose(x, r, xa, ra)
        explicit = _hom(x, eye) @ _hom(xa, ra.m) @ _hom(-x, eye) @ _hom(x, r.m)
        assert np.abs(goal.pos - explicit[:3, 3]).max() < 1e-12
        assert np.abs(goal.rot.m - explicit[:3, :3]).max() < 1e-12


def test_widowx_initializes_lastgoal_from_sensed(three_link):
    q = np.array([0.2, -0.3, 0.4])
    targets, state = widowx_step(WidowXCtrlState(), IDENTITY_ACTION, q, three_link)
    assert state.t == 1
    assert targets.arm_q.shape == (100, 3)
    np.testing.assert_allclose(targets.arm_q[0], q, atol=1e-5)


def test_widowx_identity_action_keeps_goal(three_link):
    q = np.array([0.2, -0.3, 0.4])
    _, state = widowx_step(WidowXCtrlState(), IDENTITY_ACTION, q, three_link)
    targets, state2 = widowx_step(state, IDENTITY_ACTION, q, three_link)
    np.testing.assert_allclose(targets.arm_q[0], state.q_lastgoal, atol=1e-5)


def test_widowx_gripper_passthrough(three_link):
    action = Action(np.zeros(3), Rot3(np.eye(3)), 0.73)
    targets, _ = widowx_step(WidowXCtrlState(), action, np.array([0.2, -0.3, 0.4]), three_link)
    assert np.all(targets.grip_q == 0.73)


def test_widowx_chains_goals_not_sensed(three_link):
    # command a move, pretend the plant did not track it at all: the next
    # goal still chains from the previously commanded goal; the elbow-bent
    # start keeps both chained targets inside the dexterous workspace
    q = np.array([0.4, 0.9, -0.7])
    act = Action(np.array([0.02, 0.0, 0.0]), Rot3(np.eye(3)), 0.0)
    t1, state = widowx_step(WidowXCtrlState(), act, q, three_link)
    t2, state2 = widowx_step(state, act, q, three_link)
    ee2 = fk(three_link, state2.q_lastgoal)
    ee0 = fk(three_link, q)
    # two chained IK solves, each within the 1e-4 position tolerance
    assert ee2.pos[0] == pytest.approx(ee0.pos[0] + 0.04, abs=5e-4)


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
        Action.from_dict(action)
