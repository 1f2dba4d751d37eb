"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    integrate_profile,
    permutation_midp,
    random_rotation,
    random_serial_chain,
)
from real2sim.chain import fk, ik_dls, jacobian
from real2sim.controller import (
    google_grip_step,
    google_step,
    widowx_goal_pose,
)
from real2sim.geometry import rot_frobenius_loss, rotation_angle
from real2sim.jointsim import default_config
from real2sim.imaging import ImageRGB8, MaskGray8, composite, read_pgm, read_ppm, write_pgm, write_ppm
from real2sim.metrics import delta_success, kruskal_wallis, mmrv, pearson
from real2sim.sysid import AnnealConfig, anneal_fit
from real2sim import report as rep
from real2sim.bench import recovery_setup
from real2sim.data import load_fixture


def check_runtime(t0: float, limit: float, label: str) -> float:
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f} s, limit {limit} s"
    return elapsed


def announce(num: int, label: str, elapsed: float):
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f} s): {label}")


def load_tables(name: str):
    return {t.task: t for t in rep.tables_from_obj(json.loads(load_fixture(name)), name)}


def test_criterion_01_mmrv_reproduction():
    t0 = time.monotonic()
    tables = load_tables("google_robot_vismatch.json")
    expected = {
        "pick-coke-can-avg": 0.031,
        "move-near": 0.111,
        "open-drawer": 0.000,
        "close-drawer": 0.123,
        "open-close-drawer-avg": 0.055,
    }
    for task, want in expected.items():
        got = mmrv(tables[task])
        assert got == pytest.approx(want, abs=0.0015), f"{task}: {got:.4f} vs {want:.3f}"
    elapsed = check_runtime(t0, 1.0, "criterion 1")
    announce(1, "MMRV reproduction (0.031 / 0.111 / 0.000 / 0.123 / 0.055)", elapsed)


def test_criterion_02_pearson_reproduction():
    t0 = time.monotonic()
    tables = load_tables("google_robot_vismatch.json")
    r_pick = pearson(tables["pick-coke-can-avg"].real, tables["pick-coke-can-avg"].sim)
    assert r_pick == pytest.approx(0.976, abs=0.005)
    stack = load_tables("bridge_stack.json")["stack-green-block"]
    r_stack = pearson(stack.real, stack.sim)
    assert abs(r_stack - 1.0) < 1e-12
    elapsed = check_runtime(t0, 1.0, "criterion 2")
    announce(2, f"Pearson reproduction (pick {r_pick:.3f}, stack {r_stack:.3f})", elapsed)


def test_criterion_03_delta_success_reproduction():
    t0 = time.monotonic()
    rows = {
        (r.policy, r.factor): r.shift
        for r in rep.shifts_from_obj(json.loads(load_fixture("rt1_pick_coke_shift.json")))
    }
    no_aug = lambda factor: rows[("rt-1-no-aug", factor)]
    assert delta_success(no_aug("lighting")).absolute == pytest.approx(0.040, abs=0.001)
    assert delta_success(no_aug("table-texture")).absolute == pytest.approx(0.113, abs=0.001)
    assert delta_success(no_aug("camera-pose")).absolute == pytest.approx(0.753, abs=0.001)
    bg = delta_success(no_aug("background"))
    assert bg.signed == pytest.approx(0.000, abs=0.001)
    assert bg.absolute == pytest.approx(0.013, abs=0.001)
    elapsed = check_runtime(t0, 1.0, "criterion 3")
    announce(3, "distribution-shift deltas (0.040 / 0.113 / 0.753; background 0.000 signed, 0.013 abs)", elapsed)


def test_criterion_04_rotation_loss_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    pairs = [(random_rotation(rng), random_rotation(rng)) for _ in range(10_000)]
    losses = rot_frobenius_loss(np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]))
    worst = max(abs(loss - rotation_angle(a, b) / 2.0) for loss, (a, b) in zip(losses.tolist(), pairs))
    assert worst <= 1e-9
    elapsed = check_runtime(t0, 5.0, "criterion 4")
    announce(4, f"rotation-loss identity on 1e4 pairs (worst dev {worst:.2e})", elapsed)


def test_criterion_05_trajectory_planner_properties():
    from real2sim.profile import LimitSet, synchronize

    t0 = time.monotonic()
    lim = LimitSet(1.5, 2.0, 50.0)
    rng = np.random.default_rng(5150)
    for k in range(1000):
        q0, qg = rng.uniform(-6, 6, 2)
        if k % 2 == 0:
            v0 = vg = 0.0
        else:
            v0, vg = rng.uniform(-1.5, 1.5, 2)
        prof = synchronize([q0], [v0], [qg], [vg], lim)
        ts = np.arange(0.0, prof.duration + 1e-3, 1e-3)
        q, v, a = (x[:, 0] for x in prof.sample(ts))
        assert np.abs(v).max() <= 1.5 * (1 + 1e-6)
        assert np.abs(a).max() <= 2.0 * (1 + 1e-6)
        if len(ts) > 2:
            fd_jerk = np.abs(np.diff(a) / np.diff(ts)).max()
            assert fd_jerk <= 50.0 * 1.01
        # exact piecewise integration of the stored segments
        qe, ve, ae = q0, v0, 0.0
        for seg_t, seg_j in zip(prof.durations[0], prof.jerks[0]):
            qe += ve * seg_t + 0.5 * ae * seg_t**2 + seg_j * seg_t**3 / 6.0
            ve += ae * seg_t + 0.5 * seg_j * seg_t**2
            ae += seg_j * seg_t
        assert abs(qe - qg) <= 1e-6 and abs(ve - vg) <= 1e-6
        assert prof.duration >= abs(qg - q0) / 1.5 - 1e-9
        if v0 == 0.0 and vg == 0.0:
            assert prof.duration >= 2.0 * math.sqrt(abs(qg - q0) / 2.0) - 1e-9
        qn, vn, _ = integrate_profile(prof, dt=2e-4)
        assert abs(qn - qg) < 1e-4 and abs(vn - vg) < 1e-4
    elapsed = check_runtime(t0, 30.0, "criterion 5")
    announce(5, "planner limits/endpoint/duration/oracle over 1e3 random problems", elapsed)


def test_criterion_06_controller_fidelity(six_dof):
    t0 = time.monotonic()
    cfg = default_config("google")
    assert cfg.h_sim == 501.0 and cfg.h_ctrl == 3.0
    q = np.array([0.3, -0.5, 0.4, 0.1, 0.5, -0.2])
    arm_q, _, _ = google_step(0, np.zeros((1, 3)), np.eye(3)[None], q[None], np.zeros((1, 6)), six_dof, cfg)
    assert arm_q[:, 0].shape == (167, 6)

    # sub-threshold gripper actions never move the goal, from any state
    rng = np.random.default_rng(66)
    state = (np.array([0.4]), np.array([0.1]), np.array([0.05]))  # goal, planned q and v
    for _ in range(20):
        g = rng.uniform(-0.0099, 0.0099)
        rng.uniform(-1, 1)  # unused draw, kept so that the composition samples below stay the same
        _, state = google_grip_step(np.array([g]), *state, cfg)
        assert state[0][0] == 0.4

    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=3)
        xa = rng.normal(size=3) * 0.1
        r = random_rotation(rng)
        ra = random_rotation(rng)
        goal_rot, goal_pos = widowx_goal_pose(x, r, xa, ra)
        worst = max(worst, np.abs(goal_pos - (x + xa)).max(), np.abs(goal_rot - ra @ r).max())
    assert worst < 1e-12
    elapsed = check_runtime(t0, 5.0, "criterion 6")
    announce(6, f"controller fidelity (167 targets, gripper filter, composition dev {worst:.1e})", elapsed)


def test_criterion_07_sysid_synthetic_recovery():
    t0 = time.monotonic()
    chain, dyn, truth, iks, records, init, bounds = recovery_setup(n_records=5, n_actions=30)
    cfg = AnnealConfig(rounds=3, iters_per_round=90, sigma=0.12, shrink=0.28, rng_seed=123, tie_joints=True)
    result = anneal_fit(records, chain, dyn, "widowx", init, bounds, cfg, ik_iters=iks)
    assert result.best_loss < 1e-3
    assert result.best_loss < 0.05 * result.initial_loss

    # determinism on a reduced schedule of the identical pipeline
    small = AnnealConfig(rounds=3, iters_per_round=5, sigma=0.12, shrink=0.28, rng_seed=123, tie_joints=True)
    def fit_bytes():
        r = anneal_fit(records[:2], chain, dyn, "widowx", init, bounds, small, ik_iters=iks)
        payload = {
            "p": list(map(float, r.best.p)),
            "d": list(map(float, r.best.d)),
            "loss": r.best_loss,
            "rounds": [(h.round_index, h.best_loss) for h in r.history],
        }
        return json.dumps(payload, sort_keys=True).encode()

    assert fit_bytes() == fit_bytes()
    elapsed = check_runtime(t0, 120.0, "criterion 7")
    announce(
        7,
        f"sysid recovery (loss {result.best_loss:.2e}, {result.best_loss / result.initial_loss:.1%} of init, "
        f"p {result.best.p[0]:.1f}/{truth.p[0]:.0f}, d {result.best.d[0]:.2f}/{truth.d[0]:.0f})",
        elapsed,
    )


def test_criterion_07_google_sysid_recovery():
    # criterion 7's schedule and thresholds on records replayed through the Google controller's planner
    t0 = time.monotonic()
    chain, dyn, truth, iks, records, init, bounds = recovery_setup(n_records=3, n_actions=10, controller_kind="google")
    cfg = AnnealConfig(rounds=3, iters_per_round=90, sigma=0.12, shrink=0.28, rng_seed=123, tie_joints=True)
    result = anneal_fit(records, chain, dyn, "google", init, bounds, cfg, ik_iters=iks)
    assert result.evaluations == 271
    assert result.best_loss < 1e-3
    assert result.best_loss < 0.05 * result.initial_loss
    elapsed = check_runtime(t0, 30.0, "criterion 7 (Google)")
    announce(
        7,
        f"Google sysid recovery (loss {result.best_loss:.2e}, {result.best_loss / result.initial_loss:.1%} of init, "
        f"p {result.best.p[0]:.1f}/{truth.p[0]:.0f}, d {result.best.d[0]:.2f}/{truth.d[0]:.0f})",
        elapsed,
    )


def test_criterion_08_kruskal_wallis_oracle():
    t0 = time.monotonic()
    h0, p0 = kruskal_wallis([1, 1, 0, 0, 1], [1, 1, 0, 0, 1])
    assert (h0, p0) == (0.0, 1.0)

    # 25 trials per group with both outcome classes populated: the lattice
    # is fine enough there for the chi-square tail to track the exact
    # permutation distribution (mid-p tie convention)
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(50):
        ka = int(rng.integers(5, 12))
        kb = int(rng.integers(14, 21))
        if rng.random() < 0.5:
            ka, kb = kb, ka
        a = [1] * ka + [0] * (25 - ka)
        b = [1] * kb + [0] * (25 - kb)
        h_obs, p_chi = kruskal_wallis(a, b)
        p_perm = permutation_midp(a, b, h_obs, seed=int(rng.integers(1e9)))
        worst = max(worst, abs(p_chi - p_perm))
        assert abs(p_chi - p_perm) < 0.02
    elapsed = check_runtime(t0, 60.0, "criterion 8")
    announce(8, f"Kruskal-Wallis p vs permutation oracle (worst gap {worst:.4f})", elapsed)


def test_criterion_09_compositor_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    sim = ImageRGB8.from_array(rng.integers(0, 256, (12, 9, 3), dtype=np.uint8))
    real = ImageRGB8.from_array(rng.integers(0, 256, (12, 9, 3), dtype=np.uint8))
    full = MaskGray8.from_array(np.full((12, 9), 255, dtype=np.uint8))
    empty = MaskGray8.from_array(np.zeros((12, 9), dtype=np.uint8))
    assert composite(sim, full, real).pixels == sim.pixels
    assert composite(sim, empty, real).pixels == real.pixels
    for img in (sim, real):
        data = write_ppm(img)
        assert write_ppm(read_ppm(data)) == data
    mdata = write_pgm(full)
    assert write_pgm(read_pgm(mdata)) == mdata
    elapsed = check_runtime(t0, 1.0, "criterion 9")
    announce(9, "compositor byte-exactness and PPM/PGM round-trips", elapsed)


def test_criterion_10_kinematics_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(100):
        chain = random_serial_chain(rng, int(rng.integers(2, 7)))
        q = rng.uniform(-2.5, 2.5, chain.n)
        jac = jacobian(chain, q)
        eps = 1e-6
        for i in range(chain.n):
            qp, qm = q.copy(), q.copy()
            qp[i] += eps
            qm[i] -= eps
            lin = (fk(chain, qp)[:3, 3] - fk(chain, qm)[:3, 3]) / (2 * eps)
            assert np.abs(jac[:3, i] - lin).max() < 1e-5

    rng = np.random.default_rng(77)
    ok = 0
    for _ in range(50):
        chain = random_serial_chain(rng, 6)
        for _ in range(10):
            q_true = rng.uniform(-2.0, 2.0, 6)
            target = fk(chain, q_true)
            seed = q_true + rng.normal(scale=0.1, size=6)
            res = ik_dls(chain, target, seed, max_iters=400)
            ok += res.residual_pos <= 1e-4
    assert ok >= 495, f"IK reached 1e-4 position residual on only {ok}/500 targets"
    elapsed = check_runtime(t0, 30.0, "criterion 10")
    announce(10, f"Jacobian FD agreement and IK convergence ({ok}/500)", elapsed)
