"""Serial-chain robot model: URDF-subset parsing, FK, Jacobian, and DLS IK.

The chain is a strictly serial sequence of revolute/prismatic joints. Joint
origins and the tool offset are 4x4 homogeneous arrays. ``fk`` and
``jacobian`` take joint values of any shape (..., n) and return (..., 4, 4)
tool poses and (..., 6, n) Jacobians; ``ik`` takes its B targets as
(B, 3, 3) rotations and (B, 3) positions. Joint limits bound ``ik``'s
iterates only: forward kinematics is plain geometry of the joint values.
Fixed joints found while parsing are folded into the next joint's origin
(trailing fixed joints fold into the tool offset). Inertial, visual, and
collision elements are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import json_name, json_number, json_vector
from .geometry import GeometryError, _transform, matrix_to_rotvec, pose_from_dict, pose_to_dict

__all__ = [
    "ChainError",
    "UrdfParseError",
    "JointSpec",
    "ChainSpec",
    "parse_urdf_subset",
    "fk",
    "jacobian",
    "ik",
    "chain_to_dict",
    "chain_from_dict",
]

REVOLUTE = "revolute"
PRISMATIC = "prismatic"
# damped least squares: the damping, the tolerances a row converges at and the largest step of one joint
IK_DAMPING = 0.05
IK_TOL_POS = 1e-4
IK_TOL_ROT = 1e-3
IK_MAX_STEP = 0.2
# an IK row stops, unconverged, after this many iterations without a better residual
IK_STALL_ITERS = 20


class ChainError(ValueError):
    """Raised for invalid chain definitions or mis-sized joint vectors."""


class UrdfParseError(ChainError):
    """Raised when a URDF document falls outside the supported subset."""


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One revolute or prismatic joint: 4x4 transform from the parent joint
    frame, motion axis in the local frame, and position limits."""

    name: str
    kind: str
    origin: np.ndarray
    axis: np.ndarray
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if self.kind not in (REVOLUTE, PRISMATIC):
            raise ChainError(f"joint {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "origin", _transform(self.origin, f"joint {self.name!r}: origin"))
        a = np.asarray(self.axis, dtype=float).reshape(3)
        if not np.isfinite(a).all():
            raise ChainError(f"joint {self.name!r}: axis values must be finite")
        with np.errstate(over="ignore"):  # a norm past the float range is refused below
            n = np.linalg.norm(a)
        if n == math.inf:
            raise ChainError(f"joint {self.name!r}: the axis norm overflows a float")
        if n < 1e-9:
            raise ChainError(f"joint {self.name!r}: axis has zero norm")
        a = a / n
        a.setflags(write=False)
        object.__setattr__(self, "axis", a)
        if not self.lower <= self.upper:
            raise ChainError(f"joint {self.name!r}: lower limit exceeds upper limit")
        if self.lower == math.inf or self.upper == -math.inf:
            raise ChainError(f"joint {self.name!r}: a lower limit of +inf or an upper limit of -inf pins the joint")


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Ordered serial chain plus a 4x4 flange-to-tool offset."""

    joints: tuple[JointSpec, ...]
    ee_offset: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "ee_offset", _transform(self.ee_offset, "ee_offset"))
        if len(self.joints) < 1:
            raise ChainError("a chain needs at least one joint")
        names = [j.name for j in self.joints]
        if len(set(names)) != len(names):
            raise ChainError("joint names must be unique")
        # cached arrays for the hot kinematics path: a joint's local
        # transform is basis[0] + sin(q) basis[1] + (1 - cos(q)) basis[2]
        # + q basis[3] (Rodrigues terms for revolute joints, a slide along
        # the axis for prismatic ones)
        revolute = np.array([j.kind == REVOLUTE for j in self.joints])
        basis = np.zeros((4, self.n, 4, 4))
        for i, j in enumerate(self.joints):
            r_org = j.origin[:3, :3]
            basis[0, i] = j.origin
            if revolute[i]:
                ax, ay, az = j.axis
                skew = np.array([[0.0, -az, ay], [az, 0.0, -ax], [-ay, ax, 0.0]])
                basis[1, i, :3, :3] = r_org @ skew
                basis[2, i, :3, :3] = r_org @ skew @ skew
            else:
                basis[3, i, :3, 3] = r_org @ j.axis
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_axes", np.stack([j.axis for j in self.joints]))
        object.__setattr__(self, "_prismatic", np.flatnonzero(~revolute))
        object.__setattr__(self, "lower", np.array([j.lower for j in self.joints]))
        object.__setattr__(self, "upper", np.array([j.upper for j in self.joints]))

    @property
    def n(self) -> int:
        return len(self.joints)


def _frames(chain: ChainSpec, q) -> np.ndarray:
    """World transforms (n, ..., 4, 4) of every joint frame after its own motion, for joint values ``q`` (..., n).

    A joint's motion keeps its origin (revolute) or its orientation
    (prismatic), and a revolute joint's rotation keeps its axis, so these
    frames also give each joint's world axis and, for revolute joints, its
    world origin. The last one is the flange.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (chain.n,):
        raise ChainError(f"expected joint values of shape (..., {chain.n}), got shape {q.shape}")
    rows = q.reshape(-1, chain.n)
    coef = np.empty((4,) + rows.shape)
    coef[0] = 1.0
    np.sin(rows, out=coef[1])
    np.subtract(1.0, np.cos(rows), out=coef[2])
    coef[3] = rows
    frames = [*np.einsum("kbn,knij->nbij", coef, chain._basis)]
    for i in range(1, chain.n):
        frames[i] = frames[i - 1] @ frames[i]
    return np.array(frames).reshape(chain.n, *q.shape[:-1], 4, 4)


def fk(chain: ChainSpec, q) -> np.ndarray:
    """Tool poses (..., 4, 4), a new array, of joint values ``q`` (..., n)."""
    return _frames(chain, q)[-1] @ chain.ee_offset


_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k] = 1.0
    _LEVI_CIVITA[_i, _k, _j] = -1.0


def _jacobian_from_frames(chain: ChainSpec, frames: np.ndarray, p_tool: np.ndarray) -> np.ndarray:
    """Geometric Jacobians (B, 6, n) from the frames and tool positions (B, 3) of B rows."""
    axes_w = np.einsum("nbij,nj->bin", frames[:, :, :3, :3], chain._axes)
    lever = p_tool[:, :, None] - frames[:, :, :3, 3].transpose(1, 2, 0)
    jac = np.concatenate([np.einsum("ijk,bjn,bkn->bin", _LEVI_CIVITA, axes_w, lever), axes_w], axis=1)
    if chain._prismatic.size:  # a slide moves the tool along its axis and turns nothing
        jac[:, :3, chain._prismatic] = axes_w[:, :, chain._prismatic]
        jac[:, 3:, chain._prismatic] = 0.0
    return jac


def jacobian(chain: ChainSpec, q) -> np.ndarray:
    """Geometric Jacobians (..., 6, n) in the base frame of joint values ``q`` (..., n): rows 0..2 linear (m),
    3..5 angular (rad)."""
    frames = _frames(chain, q)
    batch = frames.shape[1:-2]
    rows = frames.reshape(chain.n, math.prod(batch), 4, 4)
    return _jacobian_from_frames(chain, rows, (rows[-1] @ chain.ee_offset)[:, :3, 3]).reshape(*batch, 6, chain.n)


def ik(chain: ChainSpec, target_rot, target_pos, q_seed, max_iters: int = 200):
    """Damped-least-squares IK of B rows in lockstep, each toward its own target.

    ``target_rot`` is (B, 3, 3), ``target_pos`` (B, 3) and ``q_seed`` (B, n). Each row iterates
    dq = J^T (J J^T + IK_DAMPING^2 I)^-1 e with the step clamped to ``IK_MAX_STEP`` per joint and iterates
    clamped to joint limits. A row finishes on convergence, at ``max_iters`` or after ``IK_STALL_ITERS``
    iterations without a better residual, and leaves the active set, so every row runs the iterates of a
    solo run. Never raises on non-convergence: returns each row's best iterate (B, n), its position and
    rotation residuals (B,), its converged flag (B,) and its iteration count (B,).
    """
    target_rot, target_pos, q_seed = (np.asarray(a, dtype=float) for a in (target_rot, target_pos, q_seed))
    b = len(target_pos) if target_pos.ndim else 0
    if not b or target_rot.shape != (b, 3, 3) or target_pos.shape != (b, 3) or q_seed.shape != (b, chain.n):
        raise ChainError(f"targets of shapes {target_rot.shape} and {target_pos.shape} and a seed of shape "
                         f"{q_seed.shape} are not (B, 3, 3), (B, 3) and (B, {chain.n}) with B >= 1")
    if max_iters < 1:
        raise ChainError(f"max_iters must be at least 1, got {max_iters}")
    lo, hi = chain.lower, chain.upper
    q = np.minimum(np.maximum(q_seed, lo), hi)
    damp = (IK_DAMPING**2) * np.eye(6)
    rows = list(range(q.shape[0]))  # the original index of each active row
    best = [(row, math.inf, math.inf, 0) for row in q]  # each active row's best iterate, residuals and iteration
    out = [None] * q.shape[0]
    for it in range(max_iters + 1):
        frames = _frames(chain, q)
        tool = frames[-1] @ chain.ee_offset
        e_rot = matrix_to_rotvec(target_rot @ tool[:, :3, :3].transpose(0, 2, 1))
        err = np.concatenate([target_pos - tool[:, :3, 3], e_rot], axis=1)
        # position and rotation residuals, each summed as a 1-D e @ e would be
        res = np.sqrt(err.reshape(-1, 2, 1, 3) @ err.reshape(-1, 2, 3, 1)).reshape(-1, 2)
        keep = []  # the bookkeeping of a few rows costs less in Python floats
        for j, (res_pos, res_rot) in enumerate(res.tolist()):
            if res_pos + res_rot < best[j][1] + best[j][2]:
                best[j] = (q[j], res_pos, res_rot, it)
            converged = res_pos <= IK_TOL_POS and res_rot <= IK_TOL_ROT
            if converged or it == max_iters or it - best[j][3] == IK_STALL_ITERS:
                out[rows[j]] = (*best[j][:3], converged, it)
            else:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(rows):
            rows, best, frames = [rows[j] for j in keep], [best[j] for j in keep], frames[:, keep]
            q, tool, err, target_rot, target_pos = (a[keep] for a in (q, tool, err, target_rot, target_pos))
        jac = _jacobian_from_frames(chain, frames, tool[:, :3, 3])
        jac_t = jac.transpose(0, 2, 1)
        dq = (jac_t @ np.linalg.solve(jac @ jac_t + damp, err[:, :, None]))[:, :, 0]
        dq *= IK_MAX_STEP / np.maximum(np.abs(dq).max(axis=1, keepdims=True), IK_MAX_STEP)  # x 1.0 if within
        q = np.minimum(np.maximum(q + dq, lo), hi)
    q_best, res_pos, res_rot, converged, iterations = zip(*out)
    return np.array(q_best), np.array(res_pos), np.array(res_rot), np.array(converged), np.array(iterations)


# ---------------------------------------------------------------------------
# URDF subset
# ---------------------------------------------------------------------------

_SUPPORTED_JOINT_TYPES = (REVOLUTE, PRISMATIC, "continuous", "fixed")


def _rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def _parse_origin(elem, where: str) -> np.ndarray:
    t = np.eye(4)
    if elem is None:
        return t
    try:
        xyz = [float(v) for v in elem.get("xyz", "0 0 0").split()]
        rpy = [float(v) for v in elem.get("rpy", "0 0 0").split()]
    except ValueError as exc:
        raise UrdfParseError(f"{where}: malformed origin attributes") from exc
    if len(xyz) != 3 or len(rpy) != 3 or not all(map(math.isfinite, xyz + rpy)):
        raise UrdfParseError(f"{where}: origin xyz/rpy need exactly 3 finite numbers")
    t[:3, :3] = _rpy_matrix(*rpy)
    t[:3, 3] = xyz
    return t


def _fold(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` then ``b`` as (R_a R_b, R_a p_b + p_a): a 4x4 product would round the translation differently."""
    t = np.eye(4)
    t[:3, :3] = a[:3, :3] @ b[:3, :3]
    t[:3, 3] = a[:3, :3] @ b[:3, 3] + a[:3, 3]
    return t


def parse_urdf_subset(text: str, tip: str | None = None) -> ChainSpec:
    """Parse the unique serial chain of a URDF document.

    Supported elements: <robot>, <link> (names only), and <joint> with
    type/origin/axis/limit/parent/child. A continuous joint is read as a
    revolute joint without limits. Fixed joints are folded into the next
    moving joint's origin; a trailing run of fixed joints becomes the
    tool offset. ``tip`` stops the walk at the named link (default: the
    chain's leaf).
    """
    import xml.etree.ElementTree as ET  # only here: no other command loads the XML parser
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise UrdfParseError(f"not well-formed XML: {exc}") from exc
    if root.tag != "robot":
        raise UrdfParseError(f"root element is <{root.tag}>, expected <robot>")

    link_names = set()
    for link in root.findall("link"):
        name = link.get("name")
        if name is None:
            raise UrdfParseError("<link> without a name")
        link_names.add(name)

    children: dict[str, list[tuple[ET.Element, str, str, str]]] = {}  # joint, name, type, child link
    parent_joint = {}  # the joint that names each link as its child
    for joint in root.findall("joint"):
        jname = joint.get("name") or "<unnamed>"
        jtype = joint.get("type")
        if jtype not in _SUPPORTED_JOINT_TYPES:
            raise UrdfParseError(f"joint {jname!r}: unknown joint type {jtype!r}")
        parent = joint.find("parent")
        child = joint.find("child")
        if parent is None or child is None:
            raise UrdfParseError(f"joint {jname!r}: missing <parent> or <child>")
        plink = parent.get("link")
        clink = child.get("link")
        if plink not in link_names or clink not in link_names:
            raise UrdfParseError(f"joint {jname!r}: parent/child link not declared")
        if clink in parent_joint:  # a second parent: also every cycle the walk could enter has one
            raise UrdfParseError(f"link {clink!r} is the child of joints {parent_joint[clink]!r} and {jname!r}")
        children.setdefault(plink, []).append((joint, jname, jtype, clink))
        parent_joint[clink] = jname

    roots = sorted(link_names - parent_joint.keys())
    if len(roots) != 1:
        raise UrdfParseError(f"expected exactly one root link, found {roots}")
    reached, stack = set(roots), list(roots)
    while stack:  # ends: the two-parent check rejects every cycle the root can reach
        for *_, clink in children.get(stack.pop(), []):
            reached.add(clink)
            stack.append(clink)
    if reached != link_names:  # a cycle away from the root: every link in it has a parent
        raise UrdfParseError(f"links {sorted(link_names - reached)} are not reachable from root {roots[0]!r}")
    if tip is not None and tip not in link_names:
        raise UrdfParseError(f"tip link {tip!r} not declared")

    joints: list[JointSpec] = []
    pending = np.eye(4)  # accumulated fixed-joint transform
    current = roots[0]
    while current != tip:
        outgoing = children.get(current, [])
        if not outgoing:  # a leaf: a declared tip off this path would have met a branch on the way
            break
        if len(outgoing) > 1:
            raise UrdfParseError(f"unsupported: non-serial chain (link {current!r} has {len(outgoing)} child joints)")
        joint, jname, jtype, child = outgoing[0]
        origin = _fold(pending, _parse_origin(joint.find("origin"), f"joint {jname!r}"))
        if jtype == "fixed":
            pending = origin
        else:
            axis_elem = joint.find("axis")
            if axis_elem is None:
                raise UrdfParseError(f"joint {jname!r}: missing <axis> on {jtype} joint")
            try:
                axis = [float(v) for v in axis_elem.get("xyz", "").split()]
            except ValueError as exc:
                raise UrdfParseError(f"joint {jname!r}: malformed axis xyz") from exc
            if len(axis) != 3:
                raise UrdfParseError(f"joint {jname!r}: axis xyz needs exactly 3 numbers")
            # a continuous joint is a revolute joint without position limits
            limit = None if jtype == "continuous" else joint.find("limit")
            bounds = {} if limit is None else limit.attrib
            try:
                lower = float(bounds.get("lower", "-inf"))
                upper = float(bounds.get("upper", "inf"))
            except ValueError as exc:
                raise UrdfParseError(f"joint {jname!r}: malformed limit bounds") from exc
            try:
                kind = REVOLUTE if jtype == "continuous" else jtype
                joints.append(JointSpec(jname, kind, origin, np.array(axis), lower, upper))
            except (ChainError, GeometryError) as exc:  # each names the joint
                raise UrdfParseError(str(exc)) from exc
            pending = np.eye(4)
        current = child

    if not joints:
        raise UrdfParseError("no revolute or prismatic joint on the root-to-tip path")
    try:
        return ChainSpec(tuple(joints), ee_offset=pending)
    except GeometryError as exc:
        raise UrdfParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Native JSON format
# ---------------------------------------------------------------------------


def chain_to_dict(chain: ChainSpec) -> dict:
    """Plain-JSON form; an infinite limit is written as null."""
    return {
        "joints": [
            {
                "name": j.name,
                "kind": j.kind,
                "origin": pose_to_dict(j.origin),
                "axis": [float(v) for v in j.axis],
                "limits": [v if math.isfinite(v) else None for v in (j.lower, j.upper)],
            }
            for j in chain.joints
        ],
        "ee_offset": pose_to_dict(chain.ee_offset),
    }


def chain_from_dict(d: dict, source: str = "chain") -> ChainSpec:
    """Parse a chain object; an error names the offending field under ``source``."""
    if not isinstance(d, dict) or not isinstance(d.get("joints"), list):
        raise ChainError(f"{source}: needs a 'joints' list")
    joints = []
    for i, j in enumerate(d["joints"]):
        where = f"{source}.joints[{i}]"
        if not isinstance(j, dict) or any(k not in j for k in ("name", "kind", "origin", "axis", "limits")):
            raise ChainError(f"{where}: needs 'name', 'kind', 'origin', 'axis' and 'limits'")
        limits = j["limits"]
        error = ChainError(f"{where}.limits: expected two numbers or nulls")
        if not isinstance(limits, list) or len(limits) != 2:
            raise error
        lower = -math.inf if limits[0] is None else json_number(limits[0], error)
        upper = math.inf if limits[1] is None else json_number(limits[1], error)
        axis = json_vector(j["axis"], 3, ChainError(f"{where}.axis: expected 3 numbers"))
        origin = pose_from_dict(j["origin"], f"{where}.origin")
        name = json_name(j["name"], ChainError(f"{where}.name: expected a string"))
        if j["kind"] not in (REVOLUTE, PRISMATIC):  # also every value that is not a string
            raise ChainError(f"{where}.kind: expected {REVOLUTE!r} or {PRISMATIC!r}")
        joints.append(JointSpec(name, j["kind"], origin, np.array(axis), lower, upper))
    ee = pose_from_dict(d["ee_offset"], f"{source}.ee_offset") if "ee_offset" in d else np.eye(4)
    return ChainSpec(tuple(joints), ee_offset=ee)
