import json
import math
import re

import numpy as np
import pytest

import real2sim.chain as chain_module
from helpers import (ik_row, random_serial_chain, ref_fk, ref_frames, ref_ik_dls, ref_jacobian_from_frames, rot_z,
                     transform)
from real2sim import controller
from real2sim.bench import recovery_setup
from real2sim.chain import (
    IK_STALL_ITERS,
    ChainError,
    ChainSpec,
    JointSpec,
    UrdfParseError,
    chain_from_dict,
    chain_to_dict,
    fk,
    ik,
    jacobian,
    parse_urdf_subset,
)
from real2sim.jointsim import _simulate, initial_joint_positions

PLANAR_URDF = """<robot name="planar">
  <link name="base"/>
  <link name="l1"/>
  <link name="l2"/>
  <link name="tool"/>
  <joint name="j1" type="revolute">
    <parent link="base"/><child link="l1"/>
    <axis xyz="0 0 1"/>
    <limit lower="-3.14" upper="3.14"/>
  </joint>
  <joint name="j2" type="revolute">
    <origin xyz="1 0 0"/>
    <parent link="l1"/><child link="l2"/>
    <axis xyz="0 0 1"/>
    <limit lower="-3.14" upper="3.14"/>
  </joint>
  <joint name="jt" type="fixed">
    <origin xyz="1 0 0"/>
    <parent link="l2"/><child link="tool"/>
  </joint>
</robot>"""


def test_fk_straight(two_link):
    np.testing.assert_allclose(fk(two_link, [0.0, 0.0])[:3, 3], [2, 0, 0], atol=1e-12)


def test_fk_rigid_rotation(two_link):
    np.testing.assert_allclose(fk(two_link, [math.pi / 2, 0.0])[:3, 3], [0, 2, 0], atol=1e-12)


def test_fk_elbow(two_link):
    np.testing.assert_allclose(fk(two_link, [math.pi / 2, -math.pi / 2])[:3, 3], [1, 1, 0], atol=1e-12)


def test_fk_dimension_mismatch(two_link):
    for shape in [(3,), (4, 1), (2, 3, 3), ()]:
        message = re.escape(f"expected joint values of shape (..., 2), got shape {shape}")
        for f in (fk, jacobian):
            with pytest.raises(ChainError, match=message):
                f(two_link, np.zeros(shape))


def slider_arm() -> ChainSpec:
    """A revolute joint, then a prismatic one along the rotated x axis, limited to [-0.5, 0.5]."""
    z = np.array([0.0, 0.0, 1.0])
    return ChainSpec((JointSpec("r", "revolute", np.eye(4), z, -1.0, 1.0),
                      JointSpec("s", "prismatic", transform((0.3, 0, 0), rot_z(0.4)), [1.0, 0.0, 0.0], -0.5, 0.5)),
                     ee_offset=transform((0.1, 0.0, 0.0)))


def test_fk_and_jacobian_of_a_stack_are_the_calls_of_its_rows():
    rng = np.random.default_rng(8)
    for chain in (random_serial_chain(rng, 5), slider_arm()):
        q = rng.uniform(-1.0, 1.0, (4, 3, chain.n))
        poses, jacs = fk(chain, q), jacobian(chain, q)
        assert poses.shape == (4, 3, 4, 4) and jacs.shape == (4, 3, 6, chain.n)
        assert np.array_equal(fk(chain, q[1]), poses[1]) and np.array_equal(jacobian(chain, q[1]), jacs[1])
        for row in np.ndindex(4, 3):
            assert np.array_equal(fk(chain, q[row]), poses[row])
            assert np.array_equal(jacobian(chain, q[row]), jacs[row])
            want = ref_fk(chain, q[row])
            np.testing.assert_allclose(poses[row], want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(jacs[row], ref_jacobian_from_frames(chain, ref_frames(chain, q[row]),
                                                                           want[:3, 3]), rtol=0, atol=1e-12)
        assert poses.flags.writeable and fk(chain, q[0, 0]).flags.writeable


def test_fk_beyond_a_limit_is_the_pose_of_the_values_given(three_link):
    # the limits bound ik's iterates and the plant's end stops, not the geometry
    for chain, q in ((three_link, [[4.0, -3.5, 0.2], [0.1, 0.2, 5.0]]), (slider_arm(), [[1.5, 0.2], [0.3, -0.9]])):
        for row in np.array(q):
            clamped = np.clip(row, chain.lower, chain.upper)
            np.testing.assert_allclose(fk(chain, row), ref_fk(chain, row), rtol=0, atol=1e-12)
            assert not np.allclose(fk(chain, row), ref_fk(chain, clamped))


def test_parse_planar_urdf():
    chain = parse_urdf_subset(PLANAR_URDF)
    assert chain.n == 2
    assert all(j.kind == "revolute" for j in chain.joints)
    np.testing.assert_allclose(np.stack([j.axis for j in chain.joints]), [[0, 0, 1], [0, 0, 1]])
    np.testing.assert_allclose(chain.ee_offset[:3, 3], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(fk(chain, [0, 0])[:3, 3], [2, 0, 0], atol=1e-12)


def test_parse_folds_mid_chain_fixed_joint():
    urdf = """<robot name="folded">
      <link name="base"/><link name="a"/><link name="b"/><link name="c"/>
      <joint name="j1" type="revolute">
        <parent link="base"/><child link="a"/>
        <axis xyz="0 0 1"/><limit lower="-3" upper="3"/>
      </joint>
      <joint name="jf" type="fixed">
        <origin xyz="0.5 0 0" rpy="0 0 1.0"/>
        <parent link="a"/><child link="b"/>
      </joint>
      <joint name="j2" type="prismatic">
        <origin xyz="0.25 0 0"/>
        <parent link="b"/><child link="c"/>
        <axis xyz="1 0 0"/><limit lower="0" upper="1"/>
      </joint>
    </robot>"""
    chain = parse_urdf_subset(urdf)
    assert chain.n == 2
    assert [j.kind for j in chain.joints] == ["revolute", "prismatic"]
    # the fixed origin composes into j2's origin
    expected = transform((0.5, 0, 0), rot_z(1.0)) @ transform((0.25, 0, 0))
    np.testing.assert_allclose(chain.joints[1].origin, expected, atol=1e-12)


def test_parse_folds_a_fixed_mount_bit_for_bit():
    # the fold is (R_m R_1, R_m p_1 + p_m); for these values a 4x4 product rounds the translation differently
    mount, first = ((0.71, -0.93, 0.46), (-0.65, 0.73, 0.08)), ((-0.4, -0.15, -0.94), (-0.75, 0.34, 0.29))
    urdf = """<robot name="mounted">
      <link name="world"/><link name="base"/><link name="l1"/>
      <joint name="mount" type="fixed">
        <origin rpy="0.71 -0.93 0.46" xyz="-0.65 0.73 0.08"/>
        <parent link="world"/><child link="base"/>
      </joint>
      <joint name="j1" type="revolute">
        <origin rpy="-0.4 -0.15 -0.94" xyz="-0.75 0.34 0.29"/>
        <parent link="base"/><child link="l1"/>
        <axis xyz="0 0 1"/>
      </joint>
    </robot>"""
    (r_m, p_m), (r_1, p_1) = [(chain_module._rpy_matrix(*rpy), np.array(xyz)) for rpy, xyz in (mount, first)]
    want = transform(r_m @ p_1 + p_m, r_m @ r_1)
    assert not np.array_equal((transform(p_m, r_m) @ transform(p_1, r_1))[:3, 3], want[:3, 3])
    assert np.array_equal(parse_urdf_subset(urdf).joints[0].origin, want)


def test_parse_rejects_branching():
    bad = PLANAR_URDF.replace(
        "</robot>",
        """<link name="extra"/>
        <joint name="jb" type="revolute">
          <parent link="l1"/><child link="extra"/>
          <axis xyz="0 0 1"/><limit lower="-1" upper="1"/>
        </joint></robot>""",
    )
    with pytest.raises(UrdfParseError, match="non-serial chain"):
        parse_urdf_subset(bad)


def test_parse_rejects_a_link_with_two_parents():
    # j3 closes the cycle b -> c -> b, which the walk from the root would follow forever
    cyclic = """<robot name="cyclic">
      <link name="a"/><link name="b"/><link name="c"/>
      <joint name="j1" type="revolute">
        <parent link="a"/><child link="b"/><axis xyz="0 0 1"/>
      </joint>
      <joint name="j2" type="revolute">
        <parent link="b"/><child link="c"/><axis xyz="0 0 1"/>
      </joint>
      <joint name="j3" type="fixed"><parent link="c"/><child link="b"/></joint>
    </robot>"""
    with pytest.raises(UrdfParseError, match="^link 'b' is the child of joints 'j1' and 'j3'$"):
        parse_urdf_subset(cyclic)


def test_parse_rejects_a_cycle_the_root_cannot_reach():
    # every link of the cycle c -> d -> c has one parent, so a is the one root; the walk never sees c or d
    detached = """<robot name="detached">
      <link name="a"/><link name="b"/><link name="c"/><link name="d"/>
      <joint name="j1" type="revolute">
        <parent link="a"/><child link="b"/><axis xyz="0 0 1"/>
      </joint>
      <joint name="j2" type="revolute">
        <parent link="c"/><child link="d"/><axis xyz="0 0 1"/>
      </joint>
      <joint name="j3" type="fixed"><parent link="d"/><child link="c"/></joint>
    </robot>"""
    with pytest.raises(UrdfParseError, match=r"^links \['c', 'd'\] are not reachable from root 'a'$"):
        parse_urdf_subset(detached)


def test_parse_rejects_unknown_joint_type():
    with pytest.raises(UrdfParseError, match="floating"):
        parse_urdf_subset(PLANAR_URDF.replace('type="revolute"', 'type="floating"', 1))


def test_continuous_joint_is_an_unlimited_revolute_joint():
    j1_limit = '<limit lower="-3.14" upper="3.14"/>'
    continuous = parse_urdf_subset(PLANAR_URDF.replace('type="revolute"', 'type="continuous"', 1))
    unlimited = parse_urdf_subset(PLANAR_URDF.replace(j1_limit, "", 1))
    assert continuous.joints[0].kind == "revolute"
    assert (continuous.joints[0].lower, continuous.joints[0].upper) == (-math.inf, math.inf)
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = [rng.uniform(-8.0, 8.0), rng.uniform(-3.0, 3.0)]
        a, b = fk(continuous, q), fk(unlimited, q)
        assert np.array_equal(a, b)


def test_parse_rejects_missing_axis():
    with pytest.raises(UrdfParseError, match="j1.*axis|axis.*j1"):
        parse_urdf_subset(PLANAR_URDF.replace('<axis xyz="0 0 1"/>', "", 1))


def test_parse_names_a_bad_joint_once():
    with pytest.raises(UrdfParseError, match="^joint 'j1': axis has zero norm$"):
        parse_urdf_subset(PLANAR_URDF.replace('<axis xyz="0 0 1"/>', '<axis xyz="0 0 0"/>', 1))


@pytest.mark.parametrize("origin", ['xyz="nan 0 0"', 'xyz="1e400 0 0"', 'rpy="0 inf 0"'])
def test_parse_rejects_non_finite_origin(origin):
    # float() reads these attribute texts, but a chain holding them would be written as NaN/Infinity
    with pytest.raises(UrdfParseError, match="j2.*finite numbers"):
        parse_urdf_subset(PLANAR_URDF.replace('<origin xyz="1 0 0"/>', f"<origin {origin}/>", 1))


def test_parse_rejects_a_fold_past_the_float_range():
    # two finite fixed offsets whose sum overflows: the tool offset would be written as Infinity
    tail = """<link name="tip"/><joint name="jt2" type="fixed">
      <origin xyz="1e308 0 0"/><parent link="tool"/><child link="tip"/></joint></robot>"""
    jt = '<origin xyz="1 0 0"/>\n    <parent link="l2"/>'
    urdf = PLANAR_URDF.replace(jt, jt.replace("1 0 0", "1e308 0 0"))
    with np.errstate(over="ignore"), pytest.raises(UrdfParseError, match="^ee_offset: translation must be finite"):
        parse_urdf_subset(urdf.replace("</robot>", tail))


def test_parse_rejects_malformed_xml():
    with pytest.raises(UrdfParseError, match="XML"):
        parse_urdf_subset("<robot><link")


def test_parse_with_tip_stops_early():
    chain = parse_urdf_subset(PLANAR_URDF, tip="l2")
    assert chain.n == 2
    np.testing.assert_allclose(chain.ee_offset[:3, 3], [0, 0, 0], atol=1e-12)


def test_parse_serialize_parse_identity():
    chain = parse_urdf_subset(PLANAR_URDF)
    text = json.dumps(chain_to_dict(chain))
    again = json.dumps(chain_to_dict(chain_from_dict(json.loads(text))))
    assert text == again


def test_jacobian_single_revolute():
    z = np.array([0.0, 0.0, 1.0])
    chain = ChainSpec(
        (JointSpec("j", "revolute", np.eye(4), z, -3.0, 3.0),),
        ee_offset=transform((1, 0, 0)),
    )
    jac = jacobian(chain, [0.0])
    np.testing.assert_allclose(jac[:, 0], [0, 1, 0, 0, 0, 1], atol=1e-12)


def test_jacobian_prismatic():
    z = np.array([0.0, 0.0, 1.0])
    chain = ChainSpec((JointSpec("j", "prismatic", np.eye(4), z, -1.0, 1.0),))
    jac = jacobian(chain, [0.3])
    np.testing.assert_allclose(jac[:, 0], [0, 0, 1, 0, 0, 0], atol=1e-12)


def test_jacobian_matches_finite_differences():
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
            pp, pm = fk(chain, qp), fk(chain, qm)
            lin = (pp[:3, 3] - pm[:3, 3]) / (2 * eps)
            np.testing.assert_allclose(jac[:3, i], lin, atol=1e-5)
            dr = pp[:3, :3] @ pm[:3, :3].T
            ang = np.array([dr[2, 1] - dr[1, 2], dr[0, 2] - dr[2, 0], dr[1, 0] - dr[0, 1]]) / (4 * eps)
            np.testing.assert_allclose(jac[3:, i], ang, atol=1e-5)


def test_ik_fixed_point(two_link):
    q = np.array([0.3, 0.2])
    q_ik, res_pos, _, ok, its = ik_row(two_link, fk(two_link, q), q)
    assert ok
    assert its == 0
    assert res_pos == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(q_ik, q)


def test_ik_two_link_position(two_link):
    target = fk(two_link, [0.9, -1.1])
    q, res_pos, _, ok, _ = ik_row(two_link, target, np.array([0.1, 0.1]))
    assert ok
    assert res_pos < 1e-4
    np.testing.assert_allclose(fk(two_link, q)[:3, 3], target[:3, 3], atol=2e-4)


def test_ik_unreachable_reports_best_effort(two_link):
    q, res_pos, _, ok, _ = ik_row(two_link, transform((10, 0, 0)), np.array([0.1, 0.1]))
    assert not ok
    assert res_pos > 1.0
    assert np.all(np.isfinite(q))


def test_ik_respects_joint_limits():
    z = np.array([0.0, 0.0, 1.0])
    chain = ChainSpec(
        (
            JointSpec("j1", "revolute", np.eye(4), z, -0.5, 0.5),
            JointSpec("j2", "revolute", transform((1, 0, 0)), z, -0.5, 0.5),
        ),
        ee_offset=transform((1, 0, 0)),
    )
    q = ik_row(chain, transform((-2, 0, 0)), np.zeros(2))[0]
    assert np.all(q >= chain.lower - 1e-12)
    assert np.all(q <= chain.upper + 1e-12)


def test_ik_roundtrip_random_chains():
    rng = np.random.default_rng(3)
    ok = 0
    total = 50
    for _ in range(total):
        chain = random_serial_chain(rng, 6)
        q_true = rng.uniform(-2.0, 2.0, 6)
        target = fk(chain, q_true)
        seed = q_true + rng.normal(scale=0.1, size=6)
        _, res_pos, _, converged, _ = ik_row(chain, target, seed)
        if converged and res_pos <= 1e-4:
            ok += 1
    assert ok >= int(0.98 * total)


def test_ik_lockstep_rows_match_solo_reference():
    # six rows solved in lockstep: rows converge after different numbers of
    # iterations and the last is out of reach; each row's iterate, residuals,
    # flag and count equal the scalar reference loop's and a one-row ik's, bit for bit
    rng = np.random.default_rng(12)
    chain = random_serial_chain(rng, 6)
    q_true = rng.uniform(-2.0, 2.0, (6, 6))
    seeds = q_true + rng.normal(size=(6, 6)) * np.array([0.0, 0.02, 0.05, 0.1, 0.3, 0.1])[:, None]
    targets = [fk(chain, q) for q in q_true]
    targets[5] = transform(targets[5][:3, 3] * 10.0, targets[5][:3, :3])
    stack = np.array(targets)
    q, res_pos, res_rot, ok, its = ik(chain, stack[:, :3, :3], stack[:, :3, 3], seeds, 200)
    for b, target in enumerate(targets):
        for ref in (ref_ik_dls(chain, target, seeds[b]), ik_row(chain, target, seeds[b])):
            assert np.array_equal(q[b], ref[0])
            assert (res_pos[b], res_rot[b], ok[b], its[b]) == ref[1:]
    assert len(set(its[:5].tolist())) >= 3 and ok[:5].all()
    assert not ok[5] and its[5] < 200


def test_ik_stops_a_row_once_it_stalls():
    # out of reach: the best residual stops improving after a few iterations,
    # and the row stops IK_STALL_ITERS later instead of running to max_iters
    rng = np.random.default_rng(12)
    chain = random_serial_chain(rng, 6)
    seed = rng.uniform(-2.0, 2.0, 6)
    near = fk(chain, seed)
    target = transform(near[:3, 3] * 10.0, near[:3, :3])
    _, res_pos, _, ok, its = ik_row(chain, target, seed, max_iters=200)
    assert not ok
    # the best iterate is first returned when max_iters reaches the iteration that found it
    best_it = next(m for m in range(1, its + 1) if ik_row(chain, target, seed, max_iters=m)[1] == res_pos)
    assert its == best_it + IK_STALL_ITERS < 200


def test_ik_keeps_a_row_that_still_improves(monkeypatch):
    # a short max_step makes a reachable target take many small improving steps
    rng = np.random.default_rng(4)
    chain = random_serial_chain(rng, 6)
    q_true = rng.uniform(-1.5, 1.5, 6)
    monkeypatch.setattr(chain_module, "IK_MAX_STEP", 0.02)
    q, _, _, ok, its = ik_row(chain, fk(chain, q_true), q_true + 0.5)
    assert ok and its > 3 * IK_STALL_ITERS
    monkeypatch.setattr(chain_module, "IK_STALL_ITERS", 200 + 1)
    q_unstopped, _, _, _, its_unstopped = ik_row(chain, fk(chain, q_true), q_true + 0.5)
    assert np.array_equal(q, q_unstopped) and its == its_unstopped


def test_ik_stall_stop_leaves_the_recovery_rows_alone(monkeypatch):
    # the criterion 7 problem's goal pass (the same at every gain set): 150 IK rows, whose
    # slow tail still improves at max_iters = 60; every count and flag is the one without the stop
    s = recovery_setup(n_records=5, n_actions=30)
    chain, iks, records = s.chain, s.ik_iters, s.records
    q_inits = initial_joint_positions(chain, records)
    batched_ik = controller.ik

    def rows_of_one_replay():
        rows = []

        def recording_ik(*args):
            out = batched_ik(*args)
            rows.extend(zip(out[4].tolist(), out[3].tolist()))
            return out

        monkeypatch.setattr(controller, "ik", recording_ik)
        actions = [(rec.delta_pos, rec.delta_rot, rec.gripper) for rec in records]
        _simulate(chain, s.inertia, s.damping, s.init_p, s.init_d, "widowx", actions, q_inits, None, iks)
        return rows

    rows = rows_of_one_replay()
    monkeypatch.setattr(chain_module, "IK_STALL_ITERS", iks + 1)
    assert rows == rows_of_one_replay()
    its = [it for it, _ in rows]
    assert len(rows) == 150 and sum(its) == 1515 and max(its) == 60  # mean 10.1
    assert sum(not ok for _, ok in rows) == 1


def test_ik_needs_at_least_one_iteration(two_link):
    with pytest.raises(ChainError, match="max_iters must be at least 1"):
        ik_row(two_link, fk(two_link, np.zeros(2)), np.zeros(2), max_iters=0)


@pytest.mark.parametrize("seed_shape", [(2, 2), (1, 3), (2,)])
def test_ik_refuses_a_seed_that_does_not_match_the_targets(two_link, seed_shape):
    # one target, and a seed of two rows, of three joints or of no row axis
    target = fk(two_link, np.zeros(2))
    message = f"targets of shapes (1, 3, 3) and (1, 3) and a seed of shape {seed_shape} are not (B, 3, 3), (B, 3)"
    with pytest.raises(ChainError, match=f"^{re.escape(message)} and \\(B, 2\\) with B >= 1$"):
        ik(two_link, target[None, :3, :3], target[None, :3, 3], np.zeros(seed_shape))


def test_chainspec_needs_unique_names(two_link):
    with pytest.raises(ChainError, match="unique"):
        ChainSpec((two_link.joints[0], two_link.joints[0]))
