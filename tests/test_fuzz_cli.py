"""Mutation fuzzing of the command-line boundary.

Every example runs one command in-process on small valid inputs with one
JSON leaf or container, one flag value, or one image header token, replaced
by a value from a fixed set. Whatever the replacement, the command must end
with a documented exit code, raise nothing, write nothing but its own
outputs, and write only standard JSON.
"""

import copy
import functools
import json
import operator
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fk_path_actions, planar_2link
from real2sim.chain import chain_to_dict
from real2sim.cli import main
from real2sim.controller import CtrlConfig
from real2sim.imaging import write_pgm, write_ppm
from real2sim.jointsim import synthesize_record

HUGE = str(10**400)  # a valid JSON integer, but past the float range
LONG = "1" + "0" * 5000  # past Python's 4300-digit limit for integer literals
# the replacements, as JSON text: NaN and Infinity are the non-standard tokens Python's json module reads
JSON_VALUES = ['"1"', "true", "null", "[]", "{}", "NaN", "Infinity", HUGE, LONG]
FLAG_VALUES = ["1", "true", "null", "[]", "{}", "NaN", "Infinity", HUGE, LONG]
# A huge valid count is a long run, not a malformed input: the count fields get no huge integer.
COUNT_FIELDS = {("anneal", "rounds"), ("anneal", "iters_per_round")}
SENTINEL = "<replaced>"
# the replacements of a PPM/PGM header token: netpbm tokens are ASCII decimal digits, and maxval must be 255
HEADER_VALUES = ["1_0", "+2", "0", "-1", "65535", "9" * 400, "#", ""]

URDF = """<robot name="mini">
  <link name="base"/><link name="a"/><link name="tool"/>
  <joint name="j1" type="revolute">
    <parent link="base"/><child link="a"/>
    <axis xyz="0 0 1"/><limit lower="-1" upper="1"/>
  </joint>
  <joint name="jt" type="fixed">
    <origin xyz="0.2 0 0"/>
    <parent link="a"/><child link="tool"/>
  </joint>
</robot>"""


def _record() -> dict:
    chain = planar_2link()
    cfg = CtrlConfig(h_sim=100.0, h_ctrl=5.0)
    q0 = np.array([0.4, 0.9])
    actions = fk_path_actions(chain, q0, 1, np.random.default_rng(3), amp=0.2, gripper=0.5)
    rec = synthesize_record(chain, np.ones(2), np.full(2, 0.3), np.full(2, 40.0), np.full(2, 2.0), "widowx", actions,
                            q0, cfg, 60)
    return rec.to_dict()


JSON_INPUTS = {
    "table.json": {"task": "t", "evals": [
        {"policy_id": "a", "real_rate": 0.5, "sim_rate": 0.5, "real_trials": [1, 0], "sim_trials": [0, 1]},
        {"policy_id": "b", "real_rate": 1.0, "sim_rate": 0.0, "real_trials": [1, 1], "sim_trials": [0, 0]},
    ]},
    "shifts.json": {"policy": "p", "task": "t", "base": 0.5, "factors": {"lighting": [0.4, 0.75]}},
    "chain.json": chain_to_dict(planar_2link()),
    "traj/record.json": _record(),
    "params.json": {"p": 40.0, "d": 2.0},
    "dynamics.json": {"inertia": 1.0, "damping": 0.3},
    "sysid.json": {
        "controller": "widowx",
        "dynamics": {"inertia": 1.0, "damping": 0.3},
        "init": {"p": 40.0, "d": 2.0},
        "range": {"p_low": 20.0, "p_high": 60.0, "d_low": 1.0, "d_high": 4.0},
        "anneal": {"rounds": 1, "iters_per_round": 1, "t0": 0.1, "cooling": 0.9, "sigma": 0.1, "shrink": 0.5,
                   "rng_seed": 0, "tie_joints": True},
        "ctrl": {"h_sim": 100.0, "h_ctrl": 5.0},
    },
}
OTHER_INPUTS = {
    "sim.ppm": write_ppm(np.zeros((2, 3, 3), np.uint8)),
    "real.ppm": write_ppm(np.full((2, 3, 3), 9, np.uint8)),
    "mask.pgm": write_pgm(np.full((2, 3), 200, np.uint8)),
    "robot.urdf": URDF.encode(),
}

# each command: its argument vector ({name} is an input file, {out} the output directory), the JSON
# inputs it reads, and the flags whose values are replaced
COMMANDS = {
    "metrics report": (["metrics", "report", "--table", "{table.json}", "--out", "{out}/report"], ["table.json"], []),
    "metrics shift": (["metrics", "shift", "--shifts", "{shifts.json}", "--out", "{out}/shift.csv"],
                      ["shifts.json"], []),
    "sysid fit": (["sysid", "fit", "--trajectories", "{traj}", "--chain", "{chain.json}", "--config", "{sysid.json}",
                   "--out", "{out}/fit.json", "--seed", "3"], ["chain.json", "traj/record.json", "sysid.json"],
                  ["--seed"]),
    "replay": (["replay", "--trajectory", "{traj/record.json}", "--chain", "{chain.json}", "--params",
                "{params.json}", "--dynamics", "{dynamics.json}", "--controller", "widowx", "--sim-hz", "100",
                "--ctrl-hz", "5", "--out", "{out}/poses.json", "--dump-plan", "{out}/plan.csv"],
               ["traj/record.json", "chain.json", "params.json", "dynamics.json"],
               ["--controller", "--sim-hz", "--ctrl-hz"]),
    "composite": (["composite", "--sim", "{sim.ppm}", "--mask", "{mask.pgm}", "--real", "{real.ppm}", "--mode", "soft",
                   "--out", "{out}/out.ppm"], [], ["--mode"]),
    "urdf convert": (["urdf", "convert", "--in", "{robot.urdf}", "--tip", "tool", "--out", "{out}/chain.json"], [],
                     ["--tip"]),
}


def _paths(obj, prefix=()):
    """The path of every value in ``obj``: the root, each container and each leaf."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutations() -> list[tuple]:
    out = []
    for command, (_, files, flags) in COMMANDS.items():
        for name in files:
            for path in _paths(JSON_INPUTS[name]):
                out += [(command, name, path, v) for v in JSON_VALUES if not (v == HUGE and path in COUNT_FIELDS)]
        out += [(command, flag, None, v) for flag in flags for v in FLAG_VALUES]
    return out


MUTATIONS = _mutations()


def _replaced(obj, path, text: str) -> str:
    """JSON text of ``obj`` with the value at ``path`` replaced by the JSON text ``text``."""
    if not path:
        return text
    obj = copy.deepcopy(obj)
    functools.reduce(operator.getitem, path[:-1], obj)[path[-1]] = SENTINEL
    return json.dumps(obj).replace(json.dumps(SENTINEL), text)


def _header_replaced(data: bytes, index: int, token: str) -> bytes:
    """A canonical PPM/PGM file with its header token ``index`` (0 width, 1 height, 2 maxval) replaced."""
    head, payload = data.split(b"\n255\n", 1)
    tokens = [*head.split()[1:], b"255"]
    tokens[index] = token.encode()
    return b"%s\n%s %s\n%s\n" % (head[:2], *tokens) + payload


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(command: str, target: str, path, value: str) -> int:
    template, _, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "traj").mkdir()
        (root / "out").mkdir()
        for name, obj in JSON_INPUTS.items():
            (root / name).write_text(_replaced(obj, path, value) if name == target else json.dumps(obj))
        for name, data in OTHER_INPUTS.items():
            (root / name).write_bytes(_header_replaced(data, path, value) if name == target else data)
        inputs = {p for p in root.rglob("*") if p.is_file()}
        argv = []
        for arg in template:
            for name in ["out", "traj", *JSON_INPUTS, *OTHER_INPUTS]:
                arg = arg.replace(f"{{{name}}}", str(root / name))
            argv.append(arg)
        if target in argv:
            argv[argv.index(target) + 1] = value
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag value with exit status 2
            code = exc.code
        assert code in (0, 2, 3, 4)
        written = {p for p in root.rglob("*") if p.is_file()} - inputs
        assert all(root / "out" in p.parents for p in written)
        if code != 0:
            assert not written
        for p in written:
            if p.suffix == ".json":
                json.loads(p.read_text(), parse_constant=_reject_constant)
        return code


@settings(max_examples=700, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(MUTATIONS))
@example(("replay", "traj/record.json", ("actions", 0, "gripper"), HUGE))
def test_cli_survives_one_malformed_value(mutation):
    _run(*mutation)


@pytest.mark.parametrize("value", HEADER_VALUES)
@pytest.mark.parametrize("index", [0, 1, 2], ids=["width", "height", "maxval"])
@pytest.mark.parametrize("name", ["sim.ppm", "mask.pgm"])
def test_composite_rejects_one_malformed_header_token(name, index, value):
    assert _run("composite", name, index, value) == 2
