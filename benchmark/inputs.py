"""Seeded inputs for the benchmark workloads, made without ``real2sim``.

Every file a workload feeds the program is written here from the run's
``--seed``: the chain JSON, trajectory records, sysid configurations,
evaluation tables, shift files, PPM/PGM images and a URDF. Only numpy and
``kin`` are used, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import kin

# Joint axes of the generated 6-DOF arm (z, y, y, x, y, x: a wrist-partitioned arm).
ARM_AXES = ((0, 0, 1), (0, 1, 0), (0, 1, 0), (1, 0, 0), (0, 1, 0), (1, 0, 0))
ARM_LIMIT = 2.9
SWEEP_AMPLITUDE = 0.25
SWEEP_FREQUENCIES = np.array([0.5, 0.7, 0.9, 1.1, 1.3, 1.5])
ARM_Q0 = np.array([0.3, -0.5, 1.0, 0.1, 1.0, -0.2])
DYNAMICS = {"inertia": 1.0, "damping": 0.3}
# sysid search range: the criterion-7 bracket, sqrt(10) either side of p = 80 and d = 3
P_RANGE = (80.0 / math.sqrt(10.0), 80.0 * math.sqrt(10.0))
D_RANGE = (3.0 / math.sqrt(10.0), 3.0 * math.sqrt(10.0))

IMAGE_W, IMAGE_H = 640, 480


def seeded_rng(seed: int, tag: str) -> np.random.Generator:
    """An independent stream for each input of a run, fixed by the seed and a tag."""
    return np.random.default_rng([seed, int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")])


def make_chain(rng: np.random.Generator) -> dict:
    """6R arm with 0.25 m links, each link frame tilted a little about x."""
    joints = []
    for i, axis in enumerate(ARM_AXES):
        tilt = kin.axis_rotation((1.0, 0.0, 0.0), rng.uniform(-0.1, 0.1))
        offset = (0.25, 0.0, 0.1) if i else (0.0, 0.0, 0.0)
        joints.append(
            {
                "name": f"j{i}",
                "kind": "revolute",
                "origin": kin.pose_dict(kin.transform(tilt, offset)),
                "axis": [float(v) for v in axis],
                "limits": [-ARM_LIMIT, ARM_LIMIT],
            }
        )
    return {"joints": joints, "ee_offset": kin.pose_dict(kin.transform(np.eye(3), (0.1, 0.0, 0.0)))}


def make_record(
    chain: dict, rng: np.random.Generator, n_actions: int, ctrl_hz: float, gripper: bool, reach_out: bool = False
) -> dict:
    """Delta-pose actions along a smooth joint-space sweep.

    The reference poses are the sweep's own FK poses, so every goal is
    reachable and the replay's loss measures how the plant lags. The sweep
    keeps the elbow and wrist pitch (joints 2 and 4) away from zero, where
    the arm is singular, so IK work per tick varies little between seeds.
    ``reach_out`` appends one action that moves the goal a metre outward,
    beyond the arm's 1.45 m reach: its IK never converges, whatever the
    gains, and it is the last action, so no later goal chains off it.
    """
    n = len(chain["joints"])
    q0 = ARM_Q0 + rng.uniform(-0.1, 0.1, n)
    amps = np.full(n, SWEEP_AMPLITUDE)
    freqs = rng.permutation(SWEEP_FREQUENCIES)
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    qs = [q0 + amps * (np.sin(freqs * k * 0.5 + phases) - np.sin(phases)) for k in range(n_actions + 1)]
    poses = [kin.chain_fk(chain, q) for q in qs]
    actions = []
    for a, b in zip(poses[:-1], poses[1:]):
        delta = b[:3, :3] @ a[:3, :3].T
        grip = float(rng.choice([0.0, 0.005, 0.2, -0.2])) if gripper else 0.0
        actions.append(
            {
                "xyz": [float(v) for v in b[:3, 3] - a[:3, 3]],
                "quat_wxyz": [float(v) for v in kin.quat_from_matrix(delta)],
                "gripper": grip,
            }
        )
    if reach_out:
        outward = poses[-1][:3, 3] / np.linalg.norm(poses[-1][:3, 3])
        actions.append({"xyz": [float(v) for v in outward], "quat_wxyz": [1.0, 0.0, 0.0, 0.0], "gripper": 0.0})
    return {
        "ctrl_frequency": ctrl_hz,
        "actions": actions,
        "ee_poses": [kin.pose_dict(t) for t in poses],
        "joint_positions": [[float(v) for v in q] for q in qs],
    }


def make_sysid_config(kind: str, rng: np.random.Generator, rounds: int, iters: int) -> dict:
    """Tied-gain annealing from a seeded start inside the fixed search range."""
    return {
        "controller": kind,
        "dynamics": DYNAMICS,
        "init": {"p": float(rng.uniform(*P_RANGE)), "d": float(rng.uniform(*D_RANGE))},
        "range": {"p_low": P_RANGE[0], "p_high": P_RANGE[1], "d_low": D_RANGE[0], "d_high": D_RANGE[1]},
        "anneal": {"rounds": rounds, "iters_per_round": iters, "sigma": 0.12, "shrink": 0.28, "tie_joints": True},
    }


def make_tables(rng: np.random.Generator, n_tasks: int, n_policies: int, n_trials: int) -> dict:
    """Paired success tables whose rates are k / n_trials of the listed trials."""
    tables = []
    for t in range(n_tasks):
        evals = []
        for p in range(n_policies):
            real_k = int(rng.integers(0, n_trials + 1))
            sim_k = int(np.clip(real_k + rng.integers(-6, 7), 0, n_trials))
            real = np.zeros(n_trials, dtype=int)
            sim = np.zeros(n_trials, dtype=int)
            real[rng.choice(n_trials, real_k, replace=False)] = 1
            sim[rng.choice(n_trials, sim_k, replace=False)] = 1
            evals.append(
                {
                    "policy_id": f"policy-{p:02d}",
                    "real_rate": real_k / n_trials,
                    "sim_rate": sim_k / n_trials,
                    "real_trials": real.tolist(),
                    "sim_trials": sim.tolist(),
                }
            )
        tables.append({"task": f"task-{t:02d}", "evals": evals})
    return {"tables": tables}


def make_shifts(rng: np.random.Generator, n_policies: int) -> dict:
    factors = ("background", "lighting", "distractors", "table-texture", "camera-pose")
    shifts = []
    for p in range(n_policies):
        shifts.append(
            {
                "policy": f"policy-{p:02d}",
                "task": "pick-object",
                "base": round(float(rng.uniform(0.2, 0.95)), 3),
                "factors": {f: [round(float(v), 3) for v in rng.uniform(0.0, 1.0, 2)] for f in factors},
            }
        )
    return {"shifts": shifts}


def make_images(rng: np.random.Generator) -> tuple[bytes, bytes, bytes]:
    """Sim and real PPMs and a mask PGM: a soft-edged disc plus random speckle,
    so the hard and soft rules both see every mask value."""
    h, w = IMAGE_H, IMAGE_W
    sim = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    real = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    cy, cx = rng.uniform(0.3, 0.7) * h, rng.uniform(0.3, 0.7) * w
    yy, xx = np.mgrid[0:h, 0:w]
    r = np.hypot(yy - cy, xx - cx)
    mask = np.clip(255.0 * (1.0 - (r - 120.0) / 60.0), 0.0, 255.0)
    speckle = rng.random((h, w)) < 0.05
    mask[speckle] = rng.integers(0, 256, int(speckle.sum()))
    mask = mask.astype(np.uint8)
    header = b"P6\n%d %d\n255\n" % (w, h)
    return header + sim.tobytes(), header + real.tobytes(), b"P5\n%d %d\n255\n" % (w, h) + mask.tobytes()


def make_urdf(rng: np.random.Generator, n_joints: int = 6) -> str:
    """Serial URDF: a fixed mount, revolute joints with finite limits, a
    fixed tool joint. No continuous joints and no unlimited joints."""
    links = ["base"] + [f"link{i}" for i in range(n_joints + 1)] + ["tool"]
    lines = ['<?xml version="1.0"?>', '<robot name="bench_arm">']
    lines += [f'  <link name="{name}"/>' for name in links]

    def joint(name, kind, parent, child, xyz, rpy, axis=None, limit=None):
        out = [f'  <joint name="{name}" type="{kind}">', f'    <parent link="{parent}"/>', f'    <child link="{child}"/>']
        out.append('    <origin xyz="%.9f %.9f %.9f" rpy="%.9f %.9f %.9f"/>' % (*xyz, *rpy))
        if axis is not None:
            out.append('    <axis xyz="%.9f %.9f %.9f"/>' % tuple(axis))
        if limit is not None:
            out.append('    <limit lower="%.6f" upper="%.6f" effort="10" velocity="2"/>' % limit)
        out.append("  </joint>")
        return out

    lines += joint("mount", "fixed", "base", "link0", rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.3, 0.3, 3))
    for i in range(n_joints):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xyz = (rng.uniform(0.1, 0.3), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 0.1))
        lim = float(rng.uniform(1.0, 3.0))
        lines += joint(f"joint{i}", "revolute", f"link{i}", f"link{i + 1}", xyz, rng.uniform(-0.5, 0.5, 3), axis, (-lim, lim))
    lines += joint("tool_mount", "fixed", f"link{n_joints}", "tool", (0.08, 0.0, 0.0), (0.0, 0.0, 0.0))
    lines.append("</robot>")
    return "\n".join(lines) + "\n"
