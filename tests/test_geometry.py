import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from helpers import half_turn, random_rotation, ref_rot_frobenius_loss
from real2sim.geometry import (
    GeometryError,
    Pose,
    Rot3,
    UnitQuat,
    compose,
    inverse,
    pose_from_dict,
    pose_to_dict,
    quat_to_rot,
    rot_frobenius_loss,
    rot_to_quat,
    rot_x,
    rot_z,
    rotation_angle,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_compose_identity():
    p = Pose(rot_z(0.7), np.array([1.0, -2.0, 0.5]))
    out = compose(p, Pose.identity())
    np.testing.assert_allclose(out.pos, p.pos, atol=1e-12)
    np.testing.assert_allclose(out.rot.m, p.rot.m, atol=1e-12)


def test_compose_translations_add():
    out = compose(Pose.from_translation(1, 0, 0), Pose.from_translation(0, 2, 0))
    np.testing.assert_allclose(out.pos, [1, 2, 0], atol=1e-12)


def test_compose_rotation_then_translation():
    # 4x4 multiply by hand: RotZ(90deg) at origin, then translate along new x
    out = compose(Pose(rot_z(math.pi / 2), np.zeros(3)), Pose.from_translation(1, 0, 0))
    np.testing.assert_allclose(out.pos, [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(out.rot.m, rot_z(math.pi / 2).m, atol=1e-12)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_compose_associative(seed):
    rng = np.random.default_rng(seed)
    poses = [Pose(random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
    a, b, c = poses
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    np.testing.assert_allclose(left.pos, right.pos, atol=1e-9)
    np.testing.assert_allclose(left.rot.m, right.rot.m, atol=1e-9)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_inverse_of_compose(seed):
    rng = np.random.default_rng(seed)
    a = Pose(random_rotation(rng), rng.normal(size=3))
    b = Pose(random_rotation(rng), rng.normal(size=3))
    left = inverse(compose(a, b))
    right = compose(inverse(b), inverse(a))
    np.testing.assert_allclose(left.pos, right.pos, atol=1e-9)
    np.testing.assert_allclose(left.rot.m, right.rot.m, atol=1e-9)


def test_pose_inverse_roundtrip():
    p = Pose(rot_x(0.4), np.array([0.1, 2.0, -1.0]))
    out = compose(p, inverse(p))
    np.testing.assert_allclose(out.pos, np.zeros(3), atol=1e-9)
    np.testing.assert_allclose(out.rot.m, np.eye(3), atol=1e-9)


def test_rotation_angle_cases():
    eye = Rot3(np.eye(3))
    assert rotation_angle(eye, eye) == pytest.approx(0.0, abs=1e-12)
    assert rotation_angle(eye, rot_z(math.pi)) == pytest.approx(math.pi, abs=1e-9)
    assert rotation_angle(rot_x(0.3), rot_x(0.7)) == pytest.approx(0.4, abs=1e-12)


def test_rot_frobenius_loss_cases():
    eye = Rot3(np.eye(3))
    assert rot_frobenius_loss(eye.m, eye.m) == pytest.approx(0.0, abs=1e-12)
    # half turn: |R - I|_F = 2 sqrt 2, so arcsin(1)
    assert rot_frobenius_loss(eye.m, rot_z(math.pi).m) == pytest.approx(math.pi / 2, abs=1e-9)
    assert rot_frobenius_loss(eye.m, rot_z(math.pi / 2).m) == pytest.approx(math.pi / 4, abs=1e-9)


@pytest.mark.parametrize("kind", ["random", "identical", "antipodal"])
def test_stacked_rot_frobenius_loss_matches_the_per_pair_reference(kind):
    rng = np.random.default_rng(12)
    firsts = [random_rotation(rng) for _ in range(64)]
    if kind == "random":
        seconds = [random_rotation(rng) for _ in firsts]
    else:
        seconds = firsts if kind == "identical" else [half_turn(rng, r) for r in firsts]
    a, b = np.stack([r.m for r in firsts]), np.stack([r.m for r in seconds])
    want = [ref_rot_frobenius_loss(x, y).hex() for x, y in zip(firsts, seconds)]
    assert [x.hex() for x in rot_frobenius_loss(a, b).tolist()] == want
    # any leading shape: (8, 8, 3, 3) pairs give (8, 8) losses in the same order
    assert [x.hex() for x in rot_frobenius_loss(a.reshape(8, 8, 3, 3), b.reshape(8, 8, 3, 3)).ravel().tolist()] == want


def test_rot_frobenius_loss_clamps_antipodal_pairs():
    # about half of these pairs round |a - b|_F / (2 sqrt 2) above 1; the clamp reads them as arcsin(1)
    rng = np.random.default_rng(0)
    firsts = [random_rotation(rng) for _ in range(32)]
    seconds = [half_turn(rng, r) for r in firsts]
    over = [np.linalg.norm(a.m - b.m) / (2.0 * math.sqrt(2.0)) > 1.0 for a, b in zip(firsts, seconds)]
    assert 0 < sum(over) < len(over)
    losses = rot_frobenius_loss(np.stack([r.m for r in firsts]), np.stack([r.m for r in seconds]))
    assert all(loss == math.pi / 2 for loss, o in zip(losses.tolist(), over) if o)
    assert np.all(np.abs(losses - math.pi / 2) <= 1e-7)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_loss_equals_half_angle(seed):
    rng = np.random.default_rng(seed)
    a = random_rotation(rng)
    b = random_rotation(rng)
    assert rot_frobenius_loss(a.m, b.m) == pytest.approx(rotation_angle(a, b) / 2, abs=1e-9)


def test_quat_axis_cases():
    np.testing.assert_allclose(quat_to_rot(UnitQuat(1, 0, 0, 0)).m, np.eye(3), atol=1e-12)
    s = math.sqrt(0.5)
    np.testing.assert_allclose(quat_to_rot(UnitQuat(s, 0, 0, s)).m, rot_z(math.pi / 2).m, atol=1e-12)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_quat_roundtrip(seed):
    rng = np.random.default_rng(seed)
    r = random_rotation(rng)
    q = rot_to_quat(r)
    assert q.w >= 0.0
    np.testing.assert_allclose(quat_to_rot(q).m, r.m, atol=1e-9)


def test_quat_rejects_non_unit():
    with pytest.raises(GeometryError):
        UnitQuat(1.0, 0.5, 0.0, 0.0)


def test_rot3_rejects_non_orthonormal():
    with pytest.raises(GeometryError):
        Rot3(np.eye(3) * 1.01)
    with pytest.raises(GeometryError):
        Rot3(np.diag([1.0, 1.0, -1.0]))  # reflection


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
    r = random_rotation(rng).m + rng.normal(scale=1e-4, size=(3, 3))
    fixed = orthonormalized(r)
    np.testing.assert_allclose(fixed.T @ fixed, np.eye(3), atol=1e-12)
    assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)
    Rot3(fixed)


def test_pose_json_roundtrip():
    rng = np.random.default_rng(7)
    p = Pose(random_rotation(rng), rng.normal(size=3))
    d = pose_to_dict(p.as_matrix())
    assert set(d) == {"xyz", "quat_wxyz"}
    back = pose_from_dict(d)
    np.testing.assert_allclose(back.pos, p.pos, atol=1e-12)
    np.testing.assert_allclose(back.rot.m, p.rot.m, atol=1e-9)


def test_pose_from_dict_rejects_malformed():
    with pytest.raises(GeometryError):
        pose_from_dict({"xyz": [0, 0, 0]})
    with pytest.raises(GeometryError):
        pose_from_dict({"xyz": [0, 0], "quat_wxyz": [1, 0, 0, 0]})
