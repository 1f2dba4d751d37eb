import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import half_turn, planar_2link, random_rotation, ref_rot_frobenius_loss, rot_z, transform
from real2sim.chain import ChainSpec, JointSpec, _fold
from real2sim.geometry import (
    GeometryError,
    axis_angle_to_matrix,
    pose_from_dict,
    pose_to_dict,
    quat_to_rot,
    rot_frobenius_loss,
    rot_to_quat,
    rotation_angle,
)
from real2sim.jointsim import initial_joint_positions

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# the URDF parser's fixed-joint fold is the one composition of two transforms left in the package
def test_compose_identity():
    p = transform((1.0, -2.0, 0.5), rot_z(0.7))
    np.testing.assert_allclose(_fold(p, np.eye(4)), p, atol=1e-12)
    assert np.array_equal(_fold(np.eye(4), p), p)  # each run of fixed joints starts from the identity


def test_compose_translations_add():
    out = _fold(transform((1, 0, 0)), transform((0, 2, 0)))
    np.testing.assert_allclose(out, transform((1, 2, 0)), atol=1e-12)


def test_compose_rotation_then_translation():
    # 4x4 multiply by hand: RotZ(90deg) at origin, then translate along new x
    out = _fold(transform(rot=rot_z(math.pi / 2)), transform((1, 0, 0)))
    np.testing.assert_allclose(out, transform((0, 1, 0), rot_z(math.pi / 2)), atol=1e-12)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_compose_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = [transform(rot=random_rotation(rng), pos=rng.normal(size=3)) for _ in range(3)]
    np.testing.assert_allclose(_fold(_fold(a, b), c), _fold(a, _fold(b, c)), atol=1e-9)


def test_rotation_angle_cases():
    eye = np.eye(3)
    x = [1.0, 0.0, 0.0]
    assert rotation_angle(eye, eye) == pytest.approx(0.0, abs=1e-12)
    assert rotation_angle(eye, rot_z(math.pi)) == pytest.approx(math.pi, abs=1e-9)
    assert rotation_angle(axis_angle_to_matrix(x, 0.3), axis_angle_to_matrix(x, 0.7)) == pytest.approx(0.4, abs=1e-12)


def test_rot_frobenius_loss_cases():
    eye = np.eye(3)
    assert rot_frobenius_loss(eye, eye) == pytest.approx(0.0, abs=1e-12)
    # half turn: |R - I|_F = 2 sqrt 2, so arcsin(1)
    assert rot_frobenius_loss(eye, rot_z(math.pi)) == pytest.approx(math.pi / 2, abs=1e-9)
    assert rot_frobenius_loss(eye, rot_z(math.pi / 2)) == pytest.approx(math.pi / 4, abs=1e-9)


@pytest.mark.parametrize("kind", ["random", "identical", "antipodal"])
def test_stacked_rot_frobenius_loss_matches_the_per_pair_reference(kind):
    rng = np.random.default_rng(12)
    firsts = [random_rotation(rng) for _ in range(64)]
    if kind == "random":
        seconds = [random_rotation(rng) for _ in firsts]
    else:
        seconds = firsts if kind == "identical" else [half_turn(rng, r) for r in firsts]
    a, b = np.stack(firsts), np.stack(seconds)
    want = [ref_rot_frobenius_loss(x, y).hex() for x, y in zip(firsts, seconds)]
    assert [x.hex() for x in rot_frobenius_loss(a, b).tolist()] == want
    # any leading shape: (8, 8, 3, 3) pairs give (8, 8) losses in the same order
    assert [x.hex() for x in rot_frobenius_loss(a.reshape(8, 8, 3, 3), b.reshape(8, 8, 3, 3)).ravel().tolist()] == want


def test_rot_frobenius_loss_clamps_antipodal_pairs():
    # about half of these pairs round |a - b|_F / (2 sqrt 2) above 1; the clamp reads them as arcsin(1)
    rng = np.random.default_rng(0)
    firsts = [random_rotation(rng) for _ in range(32)]
    seconds = [half_turn(rng, r) for r in firsts]
    over = [np.linalg.norm(a - b) / (2.0 * math.sqrt(2.0)) > 1.0 for a, b in zip(firsts, seconds)]
    assert 0 < sum(over) < len(over)
    losses = rot_frobenius_loss(np.stack(firsts), np.stack(seconds))
    assert all(loss == math.pi / 2 for loss, o in zip(losses.tolist(), over) if o)
    assert np.all(np.abs(losses - math.pi / 2) <= 1e-7)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_loss_equals_half_angle(seed):
    rng = np.random.default_rng(seed)
    a = random_rotation(rng)
    b = random_rotation(rng)
    assert rot_frobenius_loss(a, b) == pytest.approx(rotation_angle(a, b) / 2, abs=1e-9)


def test_quat_axis_cases():
    np.testing.assert_allclose(quat_to_rot([1, 0, 0, 0]), np.eye(3), atol=1e-12)
    s = math.sqrt(0.5)
    np.testing.assert_allclose(quat_to_rot([s, 0, 0, s]), rot_z(math.pi / 2), atol=1e-12)
    np.testing.assert_allclose(quat_to_rot([-s, 0, 0, -s]), rot_z(math.pi / 2), atol=1e-12)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_quat_roundtrip(seed):
    rng = np.random.default_rng(seed)
    r = random_rotation(rng)
    q = rot_to_quat(r)
    assert q[0] >= 0.0 and math.sqrt(sum(v * v for v in q)) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(quat_to_rot(q), r, atol=1e-9)


def test_quat_rejects_non_unit():
    with pytest.raises(GeometryError, match="quaternion norm"):
        quat_to_rot([1.0, 0.5, 0.0, 0.0])


TRANSFORM_INPUTS = {  # every place a caller hands in a transform
    "JointSpec": lambda t: JointSpec("j", "revolute", t, [0.0, 0.0, 1.0]),
    "ChainSpec.ee_offset": lambda t: ChainSpec(planar_2link().joints, ee_offset=t),
    # a stand-in record: a TrajectoryRecord refuses a pose stack that is not (., 4, 4) before this check
    "initial_joint_positions": lambda t: initial_joint_positions(planar_2link(),
                                                                 [SimpleNamespace(joint_positions=None, ee_poses=[t])]),
    "pose_to_dict": pose_to_dict,
}
NON_RIGID = {  # a defect and the error it gives
    "scaled": (transform(rot=np.eye(3) * 1.01), "not orthonormal"),
    "reflection": (transform(rot=np.diag([1.0, 1.0, -1.0])), r"determinant is not \+1"),
    "3x3": (np.eye(3), r"expected a 4x4 transform, got shape \(3, 3\)"),
    "nan": (transform(rot=np.full((3, 3), np.nan)), "not orthonormal"),
    "last-row": (np.diag([1.0, 1.0, 1.0, 2.0]), "last row"),
}


@pytest.mark.parametrize("defect", NON_RIGID)
@pytest.mark.parametrize("boundary", TRANSFORM_INPUTS)
def test_transform_inputs_reject_non_rigid_matrices(boundary, defect):
    t, message = NON_RIGID[defect]
    with pytest.raises(GeometryError, match=message):
        TRANSFORM_INPUTS[boundary](t)


def orthonormalized(m) -> np.ndarray:
    """Project an approximate rotation matrix onto the nearest rotation."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def test_orthonormalized_projects():
    rng = np.random.default_rng(0)
    r = random_rotation(rng) + rng.normal(scale=1e-4, size=(3, 3))
    fixed = orthonormalized(r)
    np.testing.assert_allclose(fixed.T @ fixed, np.eye(3), atol=1e-12)
    assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)
    pose_to_dict(transform(rot=fixed))


def test_pose_json_roundtrip():
    rng = np.random.default_rng(7)
    p = transform(rot=random_rotation(rng), pos=rng.normal(size=3))
    d = pose_to_dict(p)
    assert set(d) == {"xyz", "quat_wxyz"}
    back = pose_from_dict(d)
    assert back.shape == (4, 4) and not back.flags.writeable
    np.testing.assert_allclose(back[:3, 3], p[:3, 3], atol=1e-12)
    np.testing.assert_allclose(back[:3, :3], p[:3, :3], atol=1e-9)
    np.testing.assert_array_equal(back[3], [0, 0, 0, 1])


def test_pose_from_dict_rejects_malformed():
    with pytest.raises(GeometryError):
        pose_from_dict({"xyz": [0, 0, 0]})
    with pytest.raises(GeometryError):
        pose_from_dict({"xyz": [0, 0], "quat_wxyz": [1, 0, 0, 0]})
