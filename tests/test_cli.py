import csv
import io
import json
import os
import stat
import threading

import numpy as np
import pytest

from helpers import fk_path_actions, planar_3link
from real2sim import cli, jointsim, sysid
from real2sim.chain import UrdfParseError, chain_from_dict, chain_to_dict
from real2sim.cli import ConfigError, main
from real2sim.controller import CtrlConfig
from real2sim.data import fixture_path
from real2sim.imaging import ImageError, read_ppm, write_pgm, write_ppm
from real2sim.jointsim import synthesize_record
from real2sim import report as rep
from real2sim.metrics import MetricsError
from real2sim.profile import PlanningError
from real2sim.sysid import SysIdError


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def footer_value(rows, task, label):
    for row in rows:
        if row[0] == task and row[1] == label:
            return row[4]
    raise KeyError(label)


def test_metrics_report_reproduces_published_mmrv(tmp_path):
    out = tmp_path / "report"
    rc = main(["metrics", "report", "--table", str(fixture_path("google_robot_vismatch.json")), "--out", str(out)])
    assert rc == 0
    expected = {
        "pick-coke-can-avg": 0.031,
        "move-near": 0.111,
        "open-drawer": 0.000,
        "close-drawer": 0.123,
        "open-close-drawer-avg": 0.055,
    }
    agg = json.loads((out / "aggregate.json").read_text())
    by_task = {t["task"]: t for t in agg["tables"]}
    for task, want in expected.items():
        rows = read_csv(out / f"{task}.csv")
        assert float(footer_value(rows, task, "MMRV")) == pytest.approx(want, abs=1.5e-3)
        assert by_task[task]["mmrv"] == pytest.approx(want, abs=1.5e-3)
    assert by_task["pick-coke-can-avg"]["pearson"] == pytest.approx(0.976, abs=0.005)


def test_metrics_report_deterministic_bytes(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["metrics", "report", "--table", str(fixture_path("bridge_stack.json")), "--out", str(out)]) == 0
        outs.append(
            (out / "stack-green-block.csv").read_bytes() + (out / "aggregate.json").read_bytes()
        )
    assert outs[0] == outs[1]


def test_metrics_report_bridge_pearson(tmp_path):
    out = tmp_path / "bridge"
    rc = main(["metrics", "report", "--table", str(fixture_path("bridge_stack.json")), "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "stack-green-block.csv")
    assert float(footer_value(rows, "stack-green-block", "pearson")) == pytest.approx(1.0, abs=1e-6)


def test_metrics_report_stdout(capsys):
    rc = main(["metrics", "report", "--table", str(fixture_path("bridge_stack.json")), "--out", "-"])
    assert rc == 0
    stdout = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(stdout)))
    assert rows[0] == ["task", "policy", "real", "sim", "max_rank_violation"]
    assert any(r[1] == "MMRV" for r in rows)


def test_metrics_report_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["metrics", "report", "--table", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_metrics_report_field_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "t", "evals": [{"policy_id": "a", "real_rate": "x", "sim_rate": 0.1}]}))
    assert main(["metrics", "report", "--table", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "evals[0]" in err


def test_metrics_report_no_tables_exits_2(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"tables": []}))
    assert main(["metrics", "report", "--table", str(empty), "--out", "-"]) == 2


def test_metrics_report_single_policy_exits_3(tmp_path):
    bad = tmp_path / "one.json"
    bad.write_text(json.dumps({"task": "t", "evals": [{"policy_id": "a", "real_rate": 0.5, "sim_rate": 0.4}]}))
    assert main(["metrics", "report", "--table", str(bad), "--out", str(tmp_path / "o")]) == 3


def two_policy_table(task):
    return {"task": task, "evals": [
        {"policy_id": "a", "real_rate": 0.5, "sim_rate": 0.4},
        {"policy_id": "b", "real_rate": 0.7, "sim_rate": 0.6},
    ]}


def files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


# a file name of 252 bytes plus ".csv" is past the 255 bytes most file systems take
@pytest.mark.parametrize("task", ["../escaped", "", ".", "..", "a/b", "a\\b", "a\0b", "x" * 252])
def test_metrics_report_unsafe_task_name_exits_2(tmp_path, task):
    tables = tmp_path / "in" / "tables.json"
    tables.parent.mkdir()
    tables.write_text(json.dumps({"tables": [two_policy_table("ok"), two_policy_table(task)]}))
    out = tmp_path / "in" / "report"
    before = files_under(tmp_path)
    assert main(["metrics", "report", "--table", str(tables), "--out", str(out)]) == 2
    assert files_under(tmp_path) == before


def test_metrics_report_duplicate_task_exits_2(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    first.write_text(json.dumps(two_policy_table("dup")))
    second.write_text(json.dumps(two_policy_table("dup")))
    out = tmp_path / "report"
    before = files_under(tmp_path)
    assert main(["metrics", "report", "--table", str(first), "--table", str(second), "--out", str(out)]) == 2
    assert files_under(tmp_path) == before


def test_metrics_shift_reproduces_published_deltas(tmp_path):
    out = tmp_path / "shift.csv"
    rc = main(["metrics", "shift", "--shifts", str(fixture_path("rt1_pick_coke_shift.json")), "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    header = rows[0]
    idx_abs = header.index("delta_abs")
    idx_signed = header.index("delta_signed")
    vals = {(r[0], r[2]): r for r in rows[1:]}
    assert float(vals[("rt-1-no-aug", "lighting")][idx_abs]) == pytest.approx(0.040, abs=1e-3)
    assert float(vals[("rt-1-no-aug", "table-texture")][idx_abs]) == pytest.approx(0.113, abs=1e-3)
    assert float(vals[("rt-1-no-aug", "camera-pose")][idx_abs]) == pytest.approx(0.753, abs=1e-3)
    assert float(vals[("rt-1-no-aug", "background")][idx_signed]) == pytest.approx(0.000, abs=1e-9)
    assert float(vals[("rt-1-no-aug", "background")][idx_abs]) == pytest.approx(0.013, abs=1e-3)


def test_metrics_shift_empty_variants_exits_3(tmp_path, capsys):
    bad = tmp_path / "shift.json"
    bad.write_text(json.dumps({"policy": "p", "task": "t", "base": 0.5, "factors": {"lighting": []}}))
    assert main(["metrics", "shift", "--shifts", str(bad), "--out", "-"]) == 3
    assert capsys.readouterr() == ("", f"error: {bad}.shifts[0].factors.lighting: at least one variant rate is required\n")


@pytest.mark.parametrize("entries, where, rate", [
    ([{"base": 1.5}], "shifts[0].base", 1.5),
    ([{"factors": {"lighting": [0.4, 1.5]}}], "shifts[0].factors.lighting", 1.5),
    ([{"base": 1.5, "factors": {"lighting": []}}], "shifts[0].base", 1.5),  # the base is checked first
    ([{}, {"factors": {"lighting": [0.4], "camera": [-0.1]}}], "shifts[1].factors.camera", -0.1),
], ids=["base", "variant", "base-before-empty", "second-entry"])
def test_metrics_shift_rate_outside_the_unit_interval_names_its_field(tmp_path, capsys, entries, where, rate):
    shifts = [{"policy": "p", "task": "t", "base": 0.5, "factors": {"lighting": [0.4]}, **e} for e in entries]
    bad = tmp_path / "shift.json"
    bad.write_text(json.dumps({"shifts": shifts}))
    out = tmp_path / "shift.csv"
    assert main(["metrics", "shift", "--shifts", str(bad), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {bad}.{where}: rate {rate} outside [0, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "policy, message",
    [
        ({"real_rate": "0.5"}, "evals[0].real_rate: not a finite number"),
        ({"sim_rate": True}, "evals[0].sim_rate: not a finite number"),
        ({"real_rate": 10**400}, "evals[0].real_rate: not a finite number"),
        ({"sim_rate": float("nan")}, "evals[0].sim_rate: not a finite number"),
        ({"sim_trials": {"0": 1}}, "evals[0].sim_trials: expected a list of 0/1 outcomes"),
        ({"real_trials": ["1", "0"]}, "evals[0].real_trials: not a finite number"),
        ({"real_trials": "10"}, "evals[0].real_trials: expected a list of 0/1 outcomes"),
    ],
)
def test_metrics_report_non_number_exits_2(tmp_path, capsys, policy, message):
    table = two_policy_table("t")
    table["evals"][0].update(policy)
    bad = tmp_path / "table.json"
    bad.write_text(json.dumps(table))
    out = tmp_path / "report"
    assert main(["metrics", "report", "--table", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


NOT_STRINGS = [None, 0, [], {}]


@pytest.mark.parametrize("value", NOT_STRINGS, ids=["null", "number", "list", "object"])
@pytest.mark.parametrize("command, field", [
    ("report", "task"), ("report", "policy_id"), ("shift", "policy"), ("shift", "task"),
])
def test_metrics_name_not_a_string_exits_2(tmp_path, capsys, command, field, value):
    # str() would take null as the name "None" and write None.csv
    if command == "report":
        obj, flag = two_policy_table("t"), "--table"
        where = "evals[0].policy_id" if field == "policy_id" else field
        (obj["evals"][0] if field == "policy_id" else obj)[field] = value
    else:
        obj = {"policy": "p", "task": "t", "base": 0.5, "factors": {"lighting": [0.4]}}
        obj[field], flag, where = value, "--shifts", f"shifts[0].{field}"
    bad = tmp_path / "in.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["metrics", command, flag, str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}.{where}: expected a string\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag, obj", [
    ("report", "--table", two_policy_table("t")),
    ("shift", "--shifts", {"policy": "p", "task": "t", "base": 0.5, "factors": {"lighting": [0.4]}}),
], ids=["report", "shift"])
def test_metrics_integer_past_the_digit_limit_exits_2(tmp_path, capsys, command, flag, obj):
    # json.loads raises a plain ValueError for an integer literal of more than 4300 digits
    bad = tmp_path / "in.json"
    bad.write_text(json.dumps(obj).replace("0.5", "1" + "0" * 5000, 1))
    assert main(["metrics", command, flag, str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shift, message",
    [
        ({"base": "0.5"}, "shifts[0].base: not a finite number"),
        ({"base": 10**400}, "shifts[0].base: not a finite number"),
        ({"base": False}, "shifts[0].base: not a finite number"),
        ({"factors": {"lighting": [0.4, "0.5"]}}, "shifts[0].factors.lighting: not a finite number"),
        ({"factors": {"lighting": [10**400]}}, "shifts[0].factors.lighting: not a finite number"),
        ({"factors": {"lighting": [float("inf")]}}, "shifts[0].factors.lighting: not a finite number"),
        ({"factors": {"lighting": "0.4"}}, "shifts[0].factors.lighting: not a rate list"),
    ],
)
def test_metrics_shift_non_number_exits_2(tmp_path, capsys, shift, message):
    entry = {"policy": "p", "task": "t", "base": 0.5, "factors": {"lighting": [0.4, 0.6]}}
    entry.update(shift)
    bad = tmp_path / "shift.json"
    bad.write_text(json.dumps(entry))
    out = tmp_path / "shift.csv"
    assert main(["metrics", "shift", "--shifts", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_composite_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    sim = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
    real = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
    mask = np.full((4, 6), 255, dtype=np.uint8)
    (tmp_path / "sim.ppm").write_bytes(write_ppm(sim))
    (tmp_path / "real.ppm").write_bytes(write_ppm(real))
    (tmp_path / "mask.pgm").write_bytes(write_pgm(mask))
    out = tmp_path / "out.ppm"
    rc = main([
        "composite", "--sim", str(tmp_path / "sim.ppm"), "--mask", str(tmp_path / "mask.pgm"),
        "--real", str(tmp_path / "real.ppm"), "--mode", "hard", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == write_ppm(sim)


def test_composite_bad_image_exits_2(tmp_path):
    (tmp_path / "sim.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    (tmp_path / "real.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    (tmp_path / "mask.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
    rc = main([
        "composite", "--sim", str(tmp_path / "sim.ppm"), "--mask", str(tmp_path / "mask.pgm"),
        "--real", str(tmp_path / "real.ppm"), "--out", str(tmp_path / "o.ppm"),
    ])
    assert rc == 2


@pytest.mark.parametrize("header, width", [(b"P6\n1_0 1\n255\n", 10), (b"P6\n+2 1\n255\n", 2)])
def test_composite_non_decimal_header_token_exits_2(tmp_path, capsys, header, width):
    # int() alone reads 1_0 as 10 and +2 as 2, which the other inputs' width matches
    (tmp_path / "sim.ppm").write_bytes(header + bytes(3 * width))
    (tmp_path / "real.ppm").write_bytes(write_ppm(np.zeros((1, width, 3), np.uint8)))
    (tmp_path / "mask.pgm").write_bytes(write_pgm(np.zeros((1, width), np.uint8)))
    with pytest.raises(ImageError, match="malformed header token"):
        read_ppm(header + bytes(3 * width))
    out = tmp_path / "o.ppm"
    rc = main([
        "composite", "--sim", str(tmp_path / "sim.ppm"), "--mask", str(tmp_path / "mask.pgm"),
        "--real", str(tmp_path / "real.ppm"), "--out", str(out),
    ])
    assert rc == 2
    assert "malformed header token" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header", [b"P6\n" + b"7" * 10**6 + b" 1\n255\n", b"P6\n1 1\n" + b"9" * 400 + b"\n",
                                    b"P6\n" + b"x" * 10**6 + b" 1\n255\n"], ids=["width", "maxval", "non-digit"])
def test_composite_long_header_token_error_is_short(tmp_path, capsys, header):
    # the message shows the token's first 16 bytes, not the whole token
    (tmp_path / "sim.ppm").write_bytes(header + bytes(3))
    (tmp_path / "real.ppm").write_bytes(write_ppm(np.zeros((1, 1, 3), np.uint8)))
    (tmp_path / "mask.pgm").write_bytes(write_pgm(np.zeros((1, 1), np.uint8)))
    out = tmp_path / "o.ppm"
    rc = main([
        "composite", "--sim", str(tmp_path / "sim.ppm"), "--mask", str(tmp_path / "mask.pgm"),
        "--real", str(tmp_path / "real.ppm"), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err) < 100 and "..." in err
    assert not out.exists()


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


def test_urdf_convert(tmp_path):
    (tmp_path / "r.urdf").write_text(URDF)
    out = tmp_path / "chain.json"
    rc = main(["urdf", "convert", "--in", str(tmp_path / "r.urdf"), "--tip", "tool", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert len(obj["joints"]) == 1
    assert obj["joints"][0]["kind"] == "revolute"


def test_urdf_convert_continuous_joint_writes_null_limits(tmp_path):
    (tmp_path / "r.urdf").write_text(URDF.replace('type="revolute"', 'type="continuous"'))
    out = tmp_path / "chain.json"
    assert main(["urdf", "convert", "--in", str(tmp_path / "r.urdf"), "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = out.read_text()
    assert json.loads(text, parse_constant=reject)["joints"][0]["limits"] == [None, None]
    joint = chain_from_dict(json.loads(text)).joints[0]
    assert (joint.kind, joint.lower, joint.upper) == ("revolute", -np.inf, np.inf)


def test_urdf_convert_branching_exits_2(tmp_path):
    bad = URDF.replace(
        "</robot>",
        '<link name="x"/><joint name="jb" type="revolute"><parent link="a"/>'
        '<child link="x"/><axis xyz="0 0 1"/><limit lower="-1" upper="1"/></joint></robot>',
    )
    (tmp_path / "r.urdf").write_text(bad)
    assert main(["urdf", "convert", "--in", str(tmp_path / "r.urdf"), "--out", "-"]) == 2


def test_urdf_convert_cyclic_chain_exits_2(tmp_path, capsys):
    # jc closes the cycle a -> tool -> a, which the walk from the root would follow forever
    bad = URDF.replace("</robot>", '<joint name="jc" type="fixed"><parent link="tool"/><child link="a"/></joint></robot>')
    (tmp_path / "r.urdf").write_text(bad)
    out = tmp_path / "chain.json"
    assert main(["urdf", "convert", "--in", str(tmp_path / "r.urdf"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: link 'a' is the child of joints 'j1' and 'jc'\n"
    assert not out.exists()


def test_urdf_convert_detached_cycle_exits_2(tmp_path, capsys):
    # the cycle x -> y -> x hangs off no link: one root, no link with two parents
    bad = URDF.replace("</robot>", '<link name="x"/><link name="y"/>'
                       '<joint name="jx" type="fixed"><parent link="x"/><child link="y"/></joint>'
                       '<joint name="jy" type="fixed"><parent link="y"/><child link="x"/></joint></robot>')
    (tmp_path / "r.urdf").write_text(bad)
    out = tmp_path / "chain.json"
    assert main(["urdf", "convert", "--in", str(tmp_path / "r.urdf"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: links ['x', 'y'] are not reachable from root 'base'\n"
    assert not out.exists()


PINNED = "a lower limit of +inf or an upper limit of -inf pins the joint"


def test_urdf_convert_limit_pinned_at_infinity_exits_2(tmp_path, capsys):
    # lower = upper = +inf passes lower <= upper, yet no joint value reaches it; its nulls would reload unlimited
    (tmp_path / "r.urdf").write_text(URDF.replace('lower="-1" upper="1"', 'lower="inf" upper="inf"'))
    out = tmp_path / "chain.json"
    assert main(["urdf", "convert", "--in", str(tmp_path / "r.urdf"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: joint 'j1': {PINNED}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def sysid_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("sysid")
    chain = planar_3link()
    (root / "chain.json").write_text(json.dumps(chain_to_dict(chain)))
    cfg = CtrlConfig(h_sim=200.0, h_ctrl=5.0)
    dyn = (np.ones(3), np.full(3, 0.3))  # inertia and passive damping
    truth = (np.full(3, 60.0), np.full(3, 3.0))
    rng = np.random.default_rng(9)
    q0 = np.array([0.4, 0.9, -0.7])
    traj_dir = root / "trajectories"
    traj_dir.mkdir()
    for i in range(2):
        actions = fk_path_actions(chain, q0, 8, rng, amp=0.25, gripper=0.5)
        rec = synthesize_record(chain, *dyn, *truth, "widowx", actions, q0, cfg, 60)
        (traj_dir / f"rec{i}.json").write_text(json.dumps(rec.to_dict()))
    config = {
        "controller": "widowx",
        "dynamics": {"inertia": 1.0, "damping": 0.3},
        "init": {"p": 120.0, "d": 1.5},
        "range": {"p_low": 20.0, "p_high": 200.0, "d_low": 1.0, "d_high": 10.0},
        "anneal": {"rounds": 3, "iters_per_round": 10, "rng_seed": 5, "tie_joints": True},
        "ctrl": {"h_sim": 200.0, "h_ctrl": 5.0},
    }
    (root / "sysid.json").write_text(json.dumps(config))
    full = dict(config)
    full["init"] = {"p": 100.0, "d": 1.8}
    full["range"] = {"p_low": 30.0, "p_high": 120.0, "d_low": 1.5, "d_high": 6.0}
    full["anneal"] = {"rounds": 3, "iters_per_round": 80, "rng_seed": 5, "tie_joints": True}
    (root / "sysid_full.json").write_text(json.dumps(full))
    return root


@pytest.mark.parametrize("limits", ["[1e400, null]", "[null, -1e400]"])
def test_chain_limit_pinned_at_infinity_exits_3(sysid_workspace, tmp_path, capsys, limits):
    # 1e400 parses as +inf; the replay used to fail only later, on a goal that is not finite
    root = sysid_workspace
    obj = json.loads((root / "chain.json").read_text())
    obj["joints"][1]["limits"] = "LIMITS"
    (tmp_path / "chain.json").write_text(json.dumps(obj).replace('"LIMITS"', limits))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main(["replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
               "--chain", str(tmp_path / "chain.json"), "--params", str(tmp_path / "pd.json"),
               "--controller", "google", "--sim-hz", "200", "--ctrl-hz", "5", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: joint 'j2': {PINNED}\n"
    assert not out.exists()


def test_sysid_fit_cli(sysid_workspace):
    root = sysid_workspace
    out = root / "params.json"
    rc = main([
        "sysid", "fit", "--trajectories", str(root / "trajectories"),
        "--chain", str(root / "chain.json"), "--config", str(root / "sysid.json"),
        "--out", str(out),
    ])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["best_loss"] <= obj["initial_loss"]
    assert len(obj["rounds"]) == 3
    assert len(obj["best"]["p"]) == 3


def test_sysid_cli_round_trip_recovers_gains(sysid_workspace, tmp_path):
    # generate -> fit -> replay, entirely through the CLI surfaces
    root = sysid_workspace
    params = tmp_path / "params.json"
    rc = main([
        "sysid", "fit", "--trajectories", str(root / "trajectories"),
        "--chain", str(root / "chain.json"), "--config", str(root / "sysid_full.json"),
        "--out", str(params),
    ])
    assert rc == 0
    obj = json.loads(params.read_text())
    assert obj["losses"]["total"] < 1e-3
    poses = tmp_path / "poses.json"
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--dynamics", str(write_dyn(tmp_path)), "--controller", "widowx",
        "--sim-hz", "200", "--out", str(poses),
    ])
    assert rc == 0
    replay_losses = json.loads(poses.read_text())["losses"]
    assert replay_losses["total"] < 2e-3


def write_dyn(tmp_path):
    path = tmp_path / "dyn.json"
    path.write_text(json.dumps({"inertia": 1.0, "damping": 0.3}))
    return path


def test_sysid_fit_deterministic_bytes(sysid_workspace):
    root = sysid_workspace
    a = root / "a.json"
    b = root / "b.json"
    args = [
        "sysid", "fit", "--trajectories", str(root / "trajectories"),
        "--chain", str(root / "chain.json"), "--config", str(root / "sysid.json"),
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sysid_fit_unknown_key_exits_3(sysid_workspace, tmp_path):
    root = sysid_workspace
    config = json.loads((root / "sysid.json").read_text())
    config["annealing_mode"] = "fast"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    rc = main([
        "sysid", "fit", "--trajectories", str(root / "trajectories"),
        "--chain", str(root / "chain.json"), "--config", str(bad), "--out", "-",
    ])
    assert rc == 3


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("init", {"d": 1}, "init: missing keys ['p']"),
        ("range", {"p_low": 0.5}, "range: missing keys ['p_high', 'd_low', 'd_high']"),
        ("dynamics", [1, 2], "dynamics: expected an object"),
        ("init", {"p": {"x": 1}, "d": 1}, "init.p: expected numbers"),
        ("ctrl", {"h_sim": [1]}, "ctrl: h_sim and h_ctrl must be numbers"),
        ("anneal", {"rounds": "x"}, "rounds must be an integer, got 'x'"),
        ("anneal", {"rounds": 1.5}, "rounds must be an integer, got 1.5"),
        ("anneal", {"rounds": True}, "rounds must be an integer, got True"),
        ("anneal", {"iters_per_round": None}, "iters_per_round must be an integer, got None"),
        ("anneal", {"rng_seed": True}, "rng_seed must be an integer, got True"),
        ("anneal", {"tie_joints": "no"}, "tie_joints must be true or false, got 'no'"),
        ("anneal", {"sigma": float("nan")}, "sigma must be a finite number, got nan"),
        ("anneal", {"t0": float("nan")}, "t0 must be a finite number, got nan"),
        ("anneal", {"cooling": "0.9"}, "cooling must be a finite number, got '0.9'"),
        ("anneal", {"shrink": float("inf")}, "shrink must be a finite number, got inf"),
        ("ctrl", {"h_sim": float("nan")}, "h_sim must be a positive finite frequency, got nan"),
        # semi-implicit Euler at 200 Hz: too stiff at the top of p, or damped too hard at the top of d
        ("range", {"p_low": 20.0, "p_high": 1e9, "d_low": 1.0, "d_high": 10.0},
         "range.p_high, range.d_high: PD gains are unstable at 200 Hz on joint 0: p dt^2/m = 2.5e+04 must stay below "
         "4 - 2 (d + b) dt/m = 3.9"),
        ("range", {"p_low": 20.0, "p_high": 200.0, "d_low": 1.0, "d_high": 400.0},
         "range.p_high, range.d_high: PD gains are unstable at 200 Hz on joint 0: p dt^2/m = 0.005 must stay below "
         "4 - 2 (d + b) dt/m = -0.003"),
        # JSON true/false are not numbers, and the records were taken at 5 Hz
        ("ctrl", {"h_ctrl": True}, "ctrl: h_sim and h_ctrl must be numbers"),
        ("ctrl", {"h_ctrl": 3.0},
         "{traj}/rec0.json: record control frequency 5.0 Hz does not match the controller's 3.0 Hz "
         "(use ctrl.h_ctrl to override)"),
        ("dynamics", {"inertia": True}, "dynamics.inertia: expected numbers"),
        ("dynamics", {"damping": [0.3, False, 0.3]}, "dynamics.damping: expected numbers"),
        # JSON strings are not numbers, and an integer past the float range is no float
        ("init", {"p": "120", "d": 1.5}, "init.p: expected numbers"),
        ("init", {"p": 10**400, "d": 1.5}, "init.p: expected numbers"),
        ("range", {"p_low": [20.0, "20", 20.0], "p_high": 200.0, "d_low": 1.0, "d_high": 10.0},
         "range.p_low: expected numbers"),
        ("ctrl", {"h_ctrl": "5"}, "ctrl: h_sim and h_ctrl must be numbers"),
        ("ctrl", {"h_sim": 10**400}, "ctrl: h_sim and h_ctrl must be numbers"),
        ("controller", "franka", "unknown controller kind 'franka' (want 'google' or 'widowx')"),
    ],
)
def test_sysid_fit_bad_section_exits_3(sysid_workspace, tmp_path, capsys, section, value, message):
    root = sysid_workspace
    config = json.loads((root / "sysid.json").read_text())
    config[section] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    rc = main([
        "sysid", "fit", "--trajectories", str(root / "trajectories"),
        "--chain", str(root / "chain.json"), "--config", str(bad), "--out", "-",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"error: {message.format(traj=root / 'trajectories')}\n"


EXIT_CODES = [
    (rep.InputFormatError, 2),
    (UrdfParseError, 2),  # a ChainError, yet a format error
    (ImageError, 2),
    (FileNotFoundError, 2),
    (PermissionError, 2),  # any OSError of the file system
    (PlanningError, 4),
    (np.linalg.LinAlgError, 4),  # a ValueError, yet a numerical failure
    (ConfigError, 3),
    (MetricsError, 3),
    (SysIdError, 3),
]


@pytest.mark.parametrize("error, code", EXIT_CODES, ids=[error.__name__ for error, _ in EXIT_CODES])
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_urdf_convert", fail)
    assert main(["urdf", "convert", "--in", "robot.urdf", "--out", "-"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_replay_cli_self_consistency(sysid_workspace, tmp_path):
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    plan_csv = tmp_path / "plan.csv"
    dyn = tmp_path / "dyn.json"
    dyn.write_text(json.dumps({"inertia": 1.0, "damping": 0.3}))
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--dynamics", str(dyn),
        "--controller", "widowx", "--sim-hz", "200", "--out", str(out),
        "--dump-plan", str(plan_csv),
    ])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["losses"]["total"] < 1e-6
    rows = read_csv(plan_csv)
    assert rows[0][0] == "t"
    assert len(rows) > 100


def test_replay_cli_google_dump_plan(tmp_path):
    chain = planar_3link()
    (tmp_path / "chain.json").write_text(json.dumps(chain_to_dict(chain)))
    dyn = (np.ones(3), np.full(3, 0.3))  # inertia and passive damping
    truth = (np.full(3, 60.0), np.full(3, 3.0))
    q0 = np.array([0.4, 0.9, -0.7])
    actions = fk_path_actions(chain, q0, 3, np.random.default_rng(4), amp=0.25, gripper=0.5)
    rec = synthesize_record(chain, *dyn, *truth, "google", actions, q0, ik_iters=60)
    (tmp_path / "rec.json").write_text(json.dumps(rec.to_dict()))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    plan_csv = tmp_path / "plan.csv"
    rc = main([
        "replay", "--trajectory", str(tmp_path / "rec.json"),
        "--chain", str(tmp_path / "chain.json"), "--params", str(tmp_path / "pd.json"),
        "--dynamics", str(write_dyn(tmp_path)), "--controller", "google",
        "--out", str(tmp_path / "poses.json"), "--dump-plan", str(plan_csv),
    ])
    assert rc == 0
    rows = read_csv(plan_csv)
    assert len(rows) == 1 + len(actions) * 167
    head = rows[0]
    assert head == ["t", "q_d0", "q_d1", "q_d2", "v_d0", "v_d1", "v_d2", "a_d0", "a_d1", "a_d2",
                    "grip_q", "grip_v", "grip_a"]
    data = np.array(rows[1:], dtype=float).reshape(len(actions), 167, len(head))
    assert np.allclose(np.diff(data[:, :, 0], axis=1), 1.0 / 501.0, rtol=0.0, atol=2e-9)
    col = {name: data[:, :, i] for i, name in enumerate(head)}
    v = np.stack([col[f"v_d{i}"] for i in range(3)])
    a = np.stack([col[f"a_d{i}"] for i in range(3)])
    assert np.abs(v).max() <= 1.5 * (1 + 1e-6)
    assert np.abs(a).max() <= 2.0 * (1 + 1e-6)
    assert np.abs(col["grip_v"]).max() <= 1.0
    assert np.abs(col["grip_a"]).max() <= 7.0
    assert np.abs(col["grip_v"]).max() > 0.0


def test_replay_cli_ctrl_mismatch_exits_3(sysid_workspace, tmp_path, capsys):
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--controller", "widowx", "--sim-hz", "200", "--ctrl-hz", "2", "--out", "-",
    ])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: {root / 'trajectories' / 'rec0.json'}: record control")


@pytest.mark.parametrize("controller, flags", [("google", ["--sim-hz", "1e12"]),
                                              ("widowx", ["--ctrl-hz", "5", "--sim-hz", "1e12"])],
                         ids=["google", "widowx"])
def test_replay_cli_too_many_ticks_per_step_exits_3(sysid_workspace, tmp_path, capsys, controller, flags):
    # 1e12 Hz over a few Hz would plan and simulate billions of steps per action
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--controller", controller, *flags, "--out", str(out),
    ])
    err = capsys.readouterr().err
    h_ctrl = 3.0 if controller == "google" else 5.0
    assert rc == 3
    assert err.startswith(f"error: h_sim 1000000000000.0 Hz over h_ctrl {h_ctrl} Hz is more than 10000 ")
    assert not out.exists()


def test_sysid_fit_too_many_ticks_per_step_exits_3(sysid_workspace, tmp_path, capsys):
    root = sysid_workspace
    config = json.loads((root / "sysid.json").read_text())
    config["ctrl"] = {"h_sim": 50_005.0, "h_ctrl": 5.0}
    (tmp_path / "sysid.json").write_text(json.dumps(config))
    out = tmp_path / "params.json"
    rc = main([
        "sysid", "fit", "--trajectories", str(root / "trajectories"),
        "--chain", str(root / "chain.json"), "--config", str(tmp_path / "sysid.json"), "--out", str(out),
    ])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: h_sim 50005.0 Hz over h_ctrl 5.0 Hz is more than 10000 ")
    assert not out.exists()


@pytest.mark.parametrize("same", ["same name", "dot segment", "symlink"])
def test_replay_cli_out_and_dump_plan_on_one_file_exits_2(sysid_workspace, tmp_path, capsys, same):
    root = sysid_workspace
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    target = tmp_path / "both.csv"
    target.write_text("keep\n")
    plan = {"same name": target, "dot segment": tmp_path / "." / "both.csv", "symlink": tmp_path / "link.csv"}[same]
    if same == "symlink":
        plan.symlink_to(target)
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(tmp_path / "pd.json"),
        "--controller", "widowx", "--sim-hz", "200", "--out", str(target), "--dump-plan", str(plan),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {target}: the same file is given for more than one output\n"
    assert captured.out == ""
    assert target.read_text() == "keep\n"
    assert {p.name for p in tmp_path.iterdir()} - {"link.csv"} == {"both.csv", "pd.json"}  # no temporary left


def test_replay_cli_out_and_dump_plan_on_one_device(sysid_workspace, tmp_path):
    # a device is written directly, so two outputs may share it
    root = sysid_workspace
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(tmp_path / "pd.json"),
        "--controller", "widowx", "--sim-hz", "200", "--out", os.devnull, "--dump-plan", os.devnull,
    ])
    assert rc == 0


def _replay_args(root, params, *outputs):
    return ["replay", "--trajectory", str(root / "trajectories" / "rec0.json"), "--chain", str(root / "chain.json"),
            "--params", str(params), "--controller", "widowx", "--sim-hz", "200", *outputs]


def test_replay_cli_dump_plan_on_stdout_is_the_csv_alone(sysid_workspace, tmp_path, capsys):
    # the loss line would end the CSV with a foreign row
    params, plan = tmp_path / "pd.json", tmp_path / "plan.csv"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    assert main(_replay_args(sysid_workspace, params, "--out", str(tmp_path / "a.json"), "--dump-plan", "-")) == 0
    out = capsys.readouterr().out
    assert main(_replay_args(sysid_workspace, params, "--out", str(tmp_path / "b.json"), "--dump-plan", str(plan))) == 0
    assert out == plan.read_text()
    assert capsys.readouterr().out.startswith("loss_translation=")
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_replay_cli_out_and_dump_plan_both_on_stdout_exits_2(sysid_workspace, tmp_path, capsys):
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    rc = main(_replay_args(sysid_workspace, tmp_path / "pd.json", "--out", "-", "--dump-plan", "-"))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: -: standard output is given for more than one output\n"
    assert captured.out == ""


def value_error_rows(*rows):
    """Parameter rows (field, value, message), each with the id ``<field>-value<i>-<message tail>``, the
    tail being the message after its field prefix."""
    return [pytest.param(*row, id=f"{row[0]}-value{i}-{row[2].split(': ')[-1]}") for i, row in enumerate(rows)]


@pytest.mark.parametrize("field, value, message", value_error_rows(
    ("params", {"p": float("nan"), "d": 3.0}, "{file}.p: PD gain p must be finite"),
    ("params", {"p": 60.0, "d": float("inf")}, "{file}.d: PD gain d must be finite"),
    ("dynamics", {"inertia": float("inf"), "damping": 0.3}, "{file}.inertia: joint inertia must be finite"),
    ("dynamics", {"inertia": 1.0, "damping": [0.3, float("nan"), 0.3]}, "{file}.damping: joint damping must be finite"),
    ("params", {"p": -60.0, "d": 3.0}, "{file}.p: PD gains must be non-negative"),
    ("params", {"best": {"p": 60.0, "d": [3.0, -3.0, 3.0]}}, "{file}.best.d: PD gains must be non-negative"),
    ("dynamics", {"inertia": [1.0, 0.0, 1.0], "damping": 0.3},
     "{file}.inertia: joint inertia must be strictly positive"),
    ("dynamics", {"inertia": 1.0, "damping": -0.3}, "{file}.damping: passive damping must be non-negative"),
))
def test_replay_cli_non_finite_gains_or_dynamics_exit_3(sysid_workspace, tmp_path, capsys, field, value, message):
    # JSON's NaN and Infinity parse; an infinite inertia would hold the arm still and exit 0. A value error
    # names its file and field, as a shape error does
    files = {"params": {"p": 60.0, "d": 3.0}, "dynamics": {"inertia": 1.0, "damping": 0.3}, field: value}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    out = tmp_path / "poses.json"
    rc = main(_replay_args(sysid_workspace, tmp_path / "params.json", "--dynamics", str(tmp_path / "dynamics.json"),
                           "--out", str(out)))
    assert rc == 3
    assert capsys.readouterr().err == f"error: {message.format(file=tmp_path / f'{field}.json')}\n"
    assert not out.exists()


@pytest.mark.parametrize("section, value, message", value_error_rows(
    ("init", {"p": float("nan"), "d": 1.5}, "init.p: PD gain p must be finite"),
    ("dynamics", {"inertia": 1.0, "damping": float("inf")}, "dynamics.damping: joint damping must be finite"),
    ("init", {"p": 120.0, "d": -1.5}, "init.d: PD gains must be non-negative"),
    ("dynamics", {"inertia": 0.0, "damping": 0.3}, "dynamics.inertia: joint inertia must be strictly positive"),
    ("dynamics", {"inertia": 1.0, "damping": -0.3}, "dynamics.damping: passive damping must be non-negative"),
))
def test_sysid_fit_non_finite_init_or_dynamics_exit_3(sysid_workspace, tmp_path, capsys, section, value, message):
    root = sysid_workspace
    config = json.loads((root / "sysid.json").read_text())
    config[section] = value
    (tmp_path / "sysid.json").write_text(json.dumps(config))
    out = tmp_path / "params.json"
    rc = main(["sysid", "fit", "--trajectories", str(root / "trajectories"), "--chain", str(root / "chain.json"),
               "--config", str(tmp_path / "sysid.json"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sim-hz", "--ctrl-hz"])
def test_replay_cli_zero_frequency_exits_3(sysid_workspace, tmp_path, flag):
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--controller", "widowx", flag, "0", "--out", str(out),
    ])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize("flag, field", [("--sim-hz", "h_sim"), ("--ctrl-hz", "h_ctrl")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_replay_cli_non_finite_frequency_exits_3(sysid_workspace, tmp_path, capsys, flag, field, value):
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--controller", "widowx", flag, value, "--out", str(out),
    ])
    assert rc == 3
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {field} must be a positive finite frequency, got {float(value)}\n"


@pytest.mark.parametrize("p", ["60", 10**400, [60.0, "60", 60.0], [60.0, 10**400, 60.0]],
                         ids=["string", "huge int", "string in list", "huge int in list"])
def test_replay_cli_params_not_numbers_exits_3(sysid_workspace, tmp_path, capsys, p):
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": p, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--controller", "widowx", "--sim-hz", "200", "--out", str(out),
    ])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {params}.p: expected numbers\n"
    assert not out.exists()


def test_replay_cli_fit_params_name_the_best_field(sysid_workspace, tmp_path, capsys):
    # a fit.json keeps its gains under "best"
    root = sysid_workspace
    params = tmp_path / "fit.json"
    params.write_text(json.dumps({"best": {"p": 60.0, "d": [3.0, "3", 3.0]}, "best_loss": 0.0}))
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--controller", "widowx", "--sim-hz", "200", "--out", str(tmp_path / "poses.json"),
    ])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {params}.best.d: expected numbers\n"


@pytest.mark.parametrize("field, value", [("inertia", "x"), ("inertia", True), ("damping", [0.3, "x", 0.3]),
                                          ("damping", 10**400)],
                         ids=["string", "bool", "string in list", "huge int"])
def test_replay_cli_dynamics_not_numbers_exits_3(sysid_workspace, tmp_path, capsys, field, value):
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    dyn = tmp_path / "dyn.json"
    dyn.write_text(json.dumps({"inertia": 1.0, "damping": 0.3, field: value}))
    out = tmp_path / "poses.json"
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params), "--dynamics", str(dyn),
        "--controller", "widowx", "--sim-hz", "200", "--out", str(out),
    ])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {dyn}.{field}: expected numbers\n"
    assert not out.exists()


def test_replay_cli_unstable_gains_exits_3(sysid_workspace, tmp_path, capsys):
    # p = 1e9 at 500 Hz: p dt^2/m = 4000, far past the bound of 4 - 2 (d + b) dt/m
    root = sysid_workspace
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 1e9, "d": 3.0}))
    out = tmp_path / "poses.json"
    plan_csv = tmp_path / "plan.csv"
    rc = main([
        "replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
        "--chain", str(root / "chain.json"), "--params", str(params),
        "--controller", "widowx", "--sim-hz", "500", "--out", str(out), "--dump-plan", str(plan_csv),
    ])
    assert rc == 3
    assert not out.exists() and not plan_csv.exists()
    assert capsys.readouterr().err.startswith("error: PD gains are unstable at 500 Hz on joint 0")


@pytest.mark.parametrize("controller, hz", [("widowx", 5.0), ("google", 3.0)])
def test_replay_cli_nan_action_exits_3(sysid_workspace, tmp_path, capsys, controller, hz):
    root = sysid_workspace
    rec = json.loads((root / "trajectories" / "rec0.json").read_text())
    rec["ctrl_frequency"] = hz
    rec["actions"][1]["xyz"][0] = float("nan")
    (tmp_path / "rec.json").write_text(json.dumps(rec))
    params = tmp_path / "pd.json"
    params.write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main([
        "replay", "--trajectory", str(tmp_path / "rec.json"), "--chain", str(root / "chain.json"),
        "--params", str(params), "--controller", controller, "--out", str(out),
    ])
    assert rc == 3
    assert "action values must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e300, -1e300, 1e200])
def test_replay_overflowing_rotation_angle_names_its_field(sysid_workspace, tmp_path, capsys, value):
    # each entry is finite, but the squared norm overflows: refused by name, without a numpy warning
    root = sysid_workspace
    rec = json.loads((root / "trajectories" / "rec0.json").read_text())
    rec["actions"][2]["rot_axis_angle"] = [0.0, value, 0.0]
    (tmp_path / "rec.json").write_text(json.dumps(rec))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main(["replay", "--trajectory", str(tmp_path / "rec.json"), "--chain", str(root / "chain.json"),
               "--params", str(tmp_path / "pd.json"), "--controller", "widowx", "--sim-hz", "200", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: {tmp_path / 'rec.json'}.actions[2].rot_axis_angle: "
                                       "the rotation angle overflows a float\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e300, -1e300, 1e200])
@pytest.mark.parametrize("field", ["actions", "ee_poses"])
def test_replay_overflowing_quaternion_names_its_field(sysid_workspace, tmp_path, capsys, field, value):
    # each entry is finite, but a float's square overflows: refused by the norm check, naming the field
    root = sysid_workspace
    rec = json.loads((root / "trajectories" / "rec0.json").read_text())
    entry = rec[field][2]
    entry.pop("rot_axis_angle", None)
    entry["quat_wxyz"] = [value, 0.0, 0.0, 0.0]
    (tmp_path / "rec.json").write_text(json.dumps(rec))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main(["replay", "--trajectory", str(tmp_path / "rec.json"), "--chain", str(root / "chain.json"),
               "--params", str(tmp_path / "pd.json"), "--controller", "widowx", "--sim-hz", "200", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: {tmp_path / 'rec.json'}.{field}[2].quat_wxyz: "
                                       "quaternion norm inf deviates from 1 beyond 1e-6\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e300, -1e300, 1e200])
def test_chain_overflowing_axis_norm_exits_3(sysid_workspace, tmp_path, capsys, value):
    # each axis value is finite, but the norm overflows: refused as such, without a numpy warning
    root = sysid_workspace
    obj = json.loads((root / "chain.json").read_text())
    obj["joints"][0]["axis"] = [value, 0.0, 0.0]
    (tmp_path / "chain.json").write_text(json.dumps(obj))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    rc = main(["replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
               "--chain", str(tmp_path / "chain.json"), "--params", str(tmp_path / "pd.json"),
               "--controller", "widowx", "--sim-hz", "200", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == "error: joint 'j1': the axis norm overflows a float\n"
    assert not out.exists()


NUMBER_PROBES = [
    # an integer past the float range
    ("rec.json", ("actions", 0, "gripper"), str(10**400), 3, "actions[0].gripper: expected a number"),
    ("rec.json", ("actions", 0, "xyz", 0), str(10**400), 3, "actions[0].xyz: expected 3 numbers"),
    ("rec.json", ("ee_poses", 0, "quat_wxyz", 0), str(10**400), 3, "ee_poses[0].quat_wxyz: expected 4 numbers"),
    ("rec.json", ("ctrl_frequency",), str(10**400), 3, "ctrl_frequency: expected a number"),
    ("chain.json", ("joints", 0, "limits", 0), str(10**400), 3, "joints[0].limits: expected two numbers or nulls"),
    # a JSON string is no number, even when it spells one
    ("rec.json", ("actions", 0, "gripper"), '"0.5"', 3, "actions[0].gripper: expected a number"),
    ("rec.json", ("actions", 0, "xyz", 0), '"0"', 3, "actions[0].xyz: expected 3 numbers"),
    ("rec.json", ("ee_poses", 0, "xyz", 0), '"0"', 3, "ee_poses[0].xyz: expected 3 numbers"),
    ("rec.json", ("ctrl_frequency",), '"5"', 3, "ctrl_frequency: expected a number"),
    ("chain.json", ("joints", 0, "limits", 1), '"3"', 3, "joints[0].limits: expected two numbers or nulls"),
    ("chain.json", ("joints", 0, "axis", 2), '"1"', 3, "joints[0].axis: expected 3 numbers"),
    # a name is a JSON string, never a null or a list taken through str()
    ("chain.json", ("joints", 0, "name"), "null", 3, "joints[0].name: expected a string"),
    ("chain.json", ("joints", 0, "name"), "[]", 3, "joints[0].name: expected a string"),
    # a kind is one of two strings
    ("chain.json", ("joints", 0, "kind"), "null", 3, "joints[0].kind: expected 'revolute' or 'prismatic'"),
    ("chain.json", ("joints", 0, "kind"), "5", 3, "joints[0].kind: expected 'revolute' or 'prismatic'"),
    ("chain.json", ("joints", 0, "kind"), '"slider"', 3, "joints[0].kind: expected 'revolute' or 'prismatic'"),
    # past Python's 4300-digit limit the file itself does not parse
    ("rec.json", ("ctrl_frequency",), "1" + "0" * 5000, 2, "invalid JSON"),
]


def _probe_id(probe) -> str:
    text = probe[2]
    kind = "string" if text.startswith('"') else f"{len(text)} digits" if text.isdigit() else text
    return f"{probe[0]}:{'.'.join(map(str, probe[1]))}:{kind}"


@pytest.mark.parametrize("name, path, text, code, message", NUMBER_PROBES, ids=map(_probe_id, NUMBER_PROBES))
def test_replay_malformed_number_names_its_field(sysid_workspace, tmp_path, capsys, name, path, text, code, message):
    root = sysid_workspace
    objs = {"rec.json": json.loads((root / "trajectories" / "rec0.json").read_text()),
            "chain.json": json.loads((root / "chain.json").read_text())}
    obj = objs[name]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = "<probe>"
    for file, o in objs.items():
        (tmp_path / file).write_text(json.dumps(o).replace('"<probe>"', text))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out, plan_csv = tmp_path / "poses.json", tmp_path / "plan.csv"
    rc = main([
        "replay", "--trajectory", str(tmp_path / "rec.json"), "--chain", str(tmp_path / "chain.json"),
        "--params", str(tmp_path / "pd.json"), "--controller", "widowx", "--sim-hz", "200",
        "--out", str(out), "--dump-plan", str(plan_csv),
    ])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}") and message in err and "Traceback" not in err
    assert not out.exists() and not plan_csv.exists()


@pytest.mark.parametrize("command", ["report onto a file", "shift under a file", "dump-plan under a file",
                                     "out under a file"])
def test_output_path_the_file_system_refuses_exits_2(sysid_workspace, tmp_path, capsys, command):
    root = sysid_workspace
    blocker = tmp_path / "file"
    blocker.write_text("")
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    argv = {
        "report onto a file": ["metrics", "report", "--table", str(fixture_path("bridge_stack.json")),
                               "--out", str(blocker)],
        "shift under a file": ["metrics", "shift", "--shifts", str(fixture_path("rt1_pick_coke_shift.json")),
                               "--out", str(blocker / "shift.csv")],
        "dump-plan under a file": ["replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
                                   "--chain", str(root / "chain.json"), "--params", str(tmp_path / "pd.json"),
                                   "--controller", "widowx", "--sim-hz", "200", "--out", str(tmp_path / "poses.json"),
                                   "--dump-plan", str(blocker / "plan.csv")],
        # the plan CSV comes first among the outputs; the refused --out takes it back
        "out under a file": ["replay", "--trajectory", str(root / "trajectories" / "rec0.json"),
                             "--chain", str(root / "chain.json"), "--params", str(tmp_path / "pd.json"),
                             "--controller", "widowx", "--sim-hz", "200", "--out", str(blocker / "poses.json"),
                             "--dump-plan", str(tmp_path / "plan.csv")],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: [Errno") and str(blocker) in err and "Traceback" not in err
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "pd.json"]  # no other output, no temporary
    assert captured.out == ""


def test_report_with_a_csv_path_that_is_a_directory_writes_nothing(tmp_path, capsys):
    out = tmp_path / "report"
    taken = out / "open-close-drawer-avg.csv"
    taken.mkdir(parents=True)
    rc = main(["metrics", "report", "--table", str(fixture_path("google_robot_vismatch.json")), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{taken}'\n"
    assert [p.name for p in out.iterdir()] == [taken.name]


def test_outputs_replace_files_and_write_into_a_pipe(tmp_path):
    # a file already there is replaced; a pipe is written into, never renamed over
    shifts = str(fixture_path("rt1_pick_coke_shift.json"))
    old = tmp_path / "old.csv"
    old.write_text("stale\n")
    assert main(["metrics", "shift", "--shifts", shifts, "--out", str(old)]) == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["metrics", "shift", "--shifts", shifts, "--out", str(fifo)]) == 0
    reader.join(10)
    assert stat.S_ISFIFO(fifo.stat().st_mode) and got == [old.read_text()] != ["stale\n"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "pipe"]


def test_urdf_convert_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "r.urdf"
    bad.write_bytes(URDF.encode().replace(b"mini", b"m\xffni"))
    out = tmp_path / "chain.json"
    assert main(["urdf", "convert", "--in", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")
    assert not out.exists()


def test_sysid_fit_record_error_names_its_file(sysid_workspace, tmp_path, capsys):
    root = sysid_workspace
    traj = tmp_path / "trajectories"
    traj.mkdir()
    for i in range(2):
        rec = json.loads((root / "trajectories" / f"rec{i}.json").read_text())
        if i == 1:
            del rec["actions"][0]["gripper"]
        (traj / f"rec{i}.json").write_text(json.dumps(rec))
    out = tmp_path / "fit.json"
    rc = main(["sysid", "fit", "--trajectories", str(traj), "--chain", str(root / "chain.json"),
               "--config", str(root / "sysid.json"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {traj / 'rec1.json'}.actions[0]: needs 'xyz', 'gripper' and 'rot_axis_angle' or 'quat_wxyz'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["replay", "sysid fit"])
def test_joint_positions_narrower_than_the_chain_exit_3(sysid_workspace, tmp_path, capsys, command):
    # the records and chain have 3 joints; record 1 keeps only 2 values per row
    root = sysid_workspace
    traj = tmp_path / "trajectories"
    traj.mkdir()
    for i in range(2):
        rec = json.loads((root / "trajectories" / f"rec{i}.json").read_text())
        if i == 1:
            rec["joint_positions"] = [row[:2] for row in rec["joint_positions"]]
        (traj / f"rec{i}.json").write_text(json.dumps(rec))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out, plan_csv = tmp_path / "out.json", tmp_path / "plan.csv"
    args = {
        "replay": ["replay", "--trajectory", str(traj / "rec1.json"), "--params", str(tmp_path / "pd.json"),
                   "--controller", "widowx", "--sim-hz", "200", "--dump-plan", str(plan_csv)],
        "sysid fit": ["sysid", "fit", "--trajectories", str(traj), "--config", str(root / "sysid.json")],
    }[command]
    rc = main(args + ["--chain", str(root / "chain.json"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {traj / 'rec1.json'}.joint_positions: rows of 2 values for a 3-joint chain\n"
    assert not out.exists() and not plan_csv.exists()


def test_sysid_fit_reports_a_range_fault_before_a_record_fault(sysid_workspace, tmp_path, capsys):
    # record 1's joint positions are too narrow and the range is unstable at its top corner: the fit checks
    # the range before it reads the records' first configurations
    root = sysid_workspace
    traj = tmp_path / "trajectories"
    traj.mkdir()
    for i in range(2):
        rec = json.loads((root / "trajectories" / f"rec{i}.json").read_text())
        if i == 1:
            rec["joint_positions"] = [row[:2] for row in rec["joint_positions"]]
        (traj / f"rec{i}.json").write_text(json.dumps(rec))
    config = dict(json.loads((root / "sysid.json").read_text()),
                  range={"p_low": 20.0, "p_high": 1e9, "d_low": 1.0, "d_high": 10.0})
    (tmp_path / "sysid.json").write_text(json.dumps(config))
    out = tmp_path / "fit.json"
    rc = main(["sysid", "fit", "--trajectories", str(traj), "--chain", str(root / "chain.json"),
               "--config", str(tmp_path / "sysid.json"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: range.p_high, range.d_high: PD gains are unstable at 200 Hz on "
                                              "joint 0: ")
    assert not out.exists()


def test_replay_cli_gripper_overflow_exits_4(sysid_workspace, tmp_path, capsys):
    # the gripper planner's cube of a 1e150 move overflows a float: a planning error naming the file, the
    # action and the DOF, not a traceback
    root = sysid_workspace
    rec = json.loads((root / "trajectories" / "rec0.json").read_text())
    rec["actions"][0]["gripper"] = 1e150
    (tmp_path / "traj.json").write_text(json.dumps(rec))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out, plan_csv = tmp_path / "poses.json", tmp_path / "plan.csv"
    rc = main(["replay", "--trajectory", str(tmp_path / "traj.json"), "--chain", str(root / "chain.json"),
               "--params", str(tmp_path / "pd.json"), "--controller", "google", "--sim-hz", "200", "--ctrl-hz", "5",
               "--out", str(out), "--dump-plan", str(plan_csv)])
    assert rc == 4
    # the gripper is the plan's one DOF; the move's cruise segment lasts 1e150 s
    assert capsys.readouterr().err == (f"error: {tmp_path / 'traj.json'}.actions[0]: DOF 0: a segment of 1e+150 s "
                                       f"overflows the float range of t**3\n")
    assert not out.exists() and not plan_csv.exists()


def test_sysid_fit_planning_failure_names_its_file(sysid_workspace, tmp_path, capsys, monkeypatch):
    # the Google tick of action 3 of rec1.json fails to plan, in the rows of every gain set that replay it
    root = sysid_workspace
    bad_row = np.array(json.loads((root / "trajectories" / "rec1.json").read_text())["actions"][3]["xyz"])
    tick = jointsim.google_step

    def failing(t, delta_pos, *args):
        if t == 3 and (delta_pos == bad_row).all(axis=1).any():
            raise PlanningError("no profile")
        return tick(t, delta_pos, *args)

    monkeypatch.setattr(jointsim, "google_step", failing)
    config = dict(json.loads((root / "sysid.json").read_text()), controller="google")
    (tmp_path / "sysid.json").write_text(json.dumps(config))
    out = tmp_path / "fit.json"
    rc = main(["sysid", "fit", "--trajectories", str(root / "trajectories"), "--chain", str(root / "chain.json"),
               "--config", str(tmp_path / "sysid.json"), "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err == f"error: {root / 'trajectories' / 'rec1.json'}.actions[3]: no profile\n"
    assert not out.exists()


def test_sysid_fit_solves_each_first_pose_once(sysid_workspace, tmp_path, monkeypatch):
    # records without joint positions: the fit solves their first poses by IK once, together
    root = sysid_workspace
    traj = tmp_path / "trajectories"
    traj.mkdir()
    for i in range(2):
        rec = json.loads((root / "trajectories" / f"rec{i}.json").read_text())
        del rec["joint_positions"]
        (traj / f"rec{i}.json").write_text(json.dumps(rec))
    solve = sysid.initial_joint_positions
    calls = []

    def counting_solve(chain, records):
        calls.append(len(records))
        return solve(chain, records)

    monkeypatch.setattr(sysid, "initial_joint_positions", counting_solve)
    rc = main(["sysid", "fit", "--trajectories", str(traj), "--chain", str(root / "chain.json"),
               "--config", str(root / "sysid.json"), "--out", str(tmp_path / "fit.json")])
    assert rc == 0
    assert calls == [2]  # one call solves both records' first poses


@pytest.mark.parametrize("command", ["replay", "sysid fit"])
def test_unreachable_first_pose_names_its_file(sysid_workspace, tmp_path, capsys, command):
    # record 1 carries no joint positions, and its first pose lies out of the 3-link arm's reach
    root = sysid_workspace
    traj = tmp_path / "trajectories"
    traj.mkdir()
    for i in range(2):
        rec = json.loads((root / "trajectories" / f"rec{i}.json").read_text())
        if i == 1:
            del rec["joint_positions"]
            rec["ee_poses"][0]["xyz"] = [10.0, 0.0, 0.0]
        (traj / f"rec{i}.json").write_text(json.dumps(rec))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "out.json"
    args = {
        "replay": ["replay", "--trajectory", str(traj / "rec1.json"), "--params", str(tmp_path / "pd.json"),
                   "--controller", "widowx", "--sim-hz", "200"],
        "sysid fit": ["sysid", "fit", "--trajectories", str(traj), "--config", str(root / "sysid.json")],
    }[command]
    rc = main(args + ["--chain", str(root / "chain.json"), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traj / 'rec1.json'}.ee_poses[0]: could not match the initial pose by IK (pos ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["replay", "sysid fit"])
def test_one_ik_call_solves_every_first_pose(sysid_workspace, tmp_path, capsys, monkeypatch, command):
    # neither record carries joint positions, and only record 1's first pose lies out of reach: the one IK call
    # fails on record 1 and names its file, and record 0's row is its solo solve, bit for bit
    root = sysid_workspace
    traj = tmp_path / "trajectories"
    traj.mkdir()
    for i in range(2):
        rec = json.loads((root / "trajectories" / f"rec{i}.json").read_text())
        del rec["joint_positions"]
        if i == 1:
            rec["ee_poses"][0]["xyz"] = [10.0, 0.0, 0.0]
        (traj / f"rec{i}.json").write_text(json.dumps(rec))
    batched_ik, solves = jointsim.ik, []

    def recording_ik(*args):
        solves.append(batched_ik(*args))
        return solves[-1]

    monkeypatch.setattr(jointsim, "ik", recording_ik)
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "out.json"
    args = {
        "replay": ["replay", "--trajectory", str(traj / "rec1.json"), "--params", str(tmp_path / "pd.json"),
                   "--controller", "widowx", "--sim-hz", "200"],
        "sysid fit": ["sysid", "fit", "--trajectories", str(traj), "--config", str(root / "sysid.json")],
    }[command]
    rc = main(args + ["--chain", str(root / "chain.json"), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traj / 'rec1.json'}.ee_poses[0]: could not match the initial pose by IK (pos ")
    assert not out.exists()
    ((q, res_pos, res_rot, ok, its),) = solves
    assert ok.tolist() == {"replay": [False], "sysid fit": [True, False]}[command]
    if command == "sysid fit":
        robot = chain_from_dict(json.loads((root / "chain.json").read_text()))
        first = jointsim.TrajectoryRecord.from_dict(json.loads((traj / "rec0.json").read_text())).ee_poses[0]
        solo = batched_ik(robot, first[None, :3, :3], first[None, :3, 3], np.zeros((1, robot.n)), 500)
        assert np.array_equal(q[0], solo[0][0])
        assert (res_pos[0], res_rot[0], ok[0], its[0]) == tuple(x[0] for x in solo[1:])


def test_sysid_fit_nan_range_exits_3(sysid_workspace, tmp_path, capsys):
    root = sysid_workspace
    config = json.loads((root / "sysid.json").read_text())
    config["range"]["p_high"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "fit.json"
    rc = main([
        "sysid", "fit", "--trajectories", str(root / "trajectories"),
        "--chain", str(root / "chain.json"), "--config", str(bad), "--out", str(out),
    ])
    assert rc == 3
    assert capsys.readouterr().err == "error: range.p_high: the bound on joint 0 must be finite, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("section, key, joint, token, message", [
    *((("range", key, joint, token, f"range.{key}: the bound on joint {joint} must be {rule}, got {got}")
       for key, joint in (("p_low", 1), ("p_high", 1), ("d_low", 2), ("d_high", 2))
       for token, rule, got in (("NaN", "finite", "nan"), ("1e400", "finite", "inf"), ("-1", "non-negative", "-1.0")))),
    # crossed bounds: the other bound of the pair is 20, 200, 1 or 10
    *((("range", key, joint, token, f"range.{x}_low, range.{x}_high: on joint {joint} the lower bound {low} must lie "
                                    f"strictly below the upper bound {high}")
       for key, x, joint, token, low, high in (("p_low", "p", 1, "300", "300.0", "200.0"),
                                               ("p_high", "p", 1, "10", "20.0", "10.0"),
                                               ("d_low", "d", 2, "20", "20.0", "10.0"),
                                               ("d_high", "d", 2, "0.5", "1.0", "0.5")))),
    ("init", "p", None, "500", "init.p: the gain on joint 0 is 500.0, outside the range [20.0, 200.0]"),
    ("init", "p", 2, "10", "init.p: the gain on joint 2 is 10.0, outside the range [20.0, 200.0]"),
    ("init", "d", 1, "12", "init.d: the gain on joint 1 is 12.0, outside the range [1.0, 10.0]"),
])
def test_sysid_fit_range_fault_names_its_field_and_joint(sysid_workspace, tmp_path, capsys, section, key, joint, token,
                                                         message):
    # a value given for every joint (joint None) or for one joint of a list; 1e400 parses as +inf
    root = sysid_workspace
    config = json.loads((root / "sysid.json").read_text())
    value = config[section][key]
    config[section][key] = "BAD" if joint is None else [value if j != joint else "BAD" for j in range(3)]
    (tmp_path / "sysid.json").write_text(json.dumps(config).replace('"BAD"', token))
    out = tmp_path / "fit.json"
    rc = main(["sysid", "fit", "--trajectories", str(root / "trajectories"), "--chain", str(root / "chain.json"),
               "--config", str(tmp_path / "sysid.json"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sysid_fit_non_finite_initial_loss_exits_3(sysid_workspace, tmp_path, capsys):
    # each origin is finite, yet FK overflows: the replay names the chain file before a NaN initial loss
    root = sysid_workspace
    obj = json.loads((root / "chain.json").read_text())
    for joint in obj["joints"]:
        joint["origin"]["xyz"] = [1e308, 0.0, 0.0]
    (tmp_path / "chain.json").write_text(json.dumps(obj))
    out = tmp_path / "fit.json"
    with np.errstate(all="ignore"):
        rc = main(["sysid", "fit", "--trajectories", str(root / "trajectories"),
                   "--chain", str(tmp_path / "chain.json"), "--config", str(root / "sysid.json"), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: {tmp_path / 'chain.json'}: the replayed tool poses are not finite "
                                       f"(its FK overflows a float)\n")
    assert not out.exists()


def test_replay_on_a_chain_whose_fk_overflows_names_the_chain(sysid_workspace, tmp_path, capsys):
    # each origin is finite, yet FK overflows: the replay names the chain file
    root = sysid_workspace
    obj = json.loads((root / "chain.json").read_text())
    for joint in obj["joints"]:
        joint["origin"]["xyz"] = [1e308, 0.0, 0.0]
    (tmp_path / "chain.json").write_text(json.dumps(obj))
    (tmp_path / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0}))
    out = tmp_path / "poses.json"
    with np.errstate(all="ignore"):
        rc = main(["replay", "--trajectory", str(root / "trajectories" / "rec0.json"), "--chain",
                   str(tmp_path / "chain.json"), "--params", str(tmp_path / "pd.json"), "--controller", "widowx",
                   "--sim-hz", "200", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: {tmp_path / 'chain.json'}: the replayed tool poses are not finite "
                                       f"(its FK overflows a float)\n")
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_output_refuses_nan_and_infinity(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._json({"best_loss": value})


def test_report_csv_includes_kruskal_footer():
    table = rep.Table("demo", ("a", "b"), (0.5, 0.75), (0.25, 0.5),
                      {"a": ((1, 0, 1, 0), (1, 0, 0, 0)), "b": ((1, 1, 1, 0), (1, 0, 1, 0))})
    stats = rep.compute_table_stats(table)
    text = rep.metrics_csv(table, stats)
    assert "kruskal_p:a" in text
    assert "kruskal_p:b" in text
    assert set(stats.kruskal_p) == {"a", "b"}


def test_report_undefined_pearson_is_na():
    table = rep.Table("flat", ("a", "b"), (0.5, 0.5), (0.1, 0.9), {})
    stats = rep.compute_table_stats(table)
    assert stats.pearson is None
    assert ",n/a" in rep.metrics_csv(table, stats)


def _urdf_input(old, new):
    """``urdf convert`` of ``URDF`` with ``old`` replaced by ``new``."""
    def argv(root, tmp):
        (tmp / "r.urdf").write_text(URDF.replace(old, new))
        return ["urdf", "convert", "--in", str(tmp / "r.urdf")]
    return argv


def _composite_input(sim):
    """``composite`` of the bytes ``sim`` over a black 1x1 image."""
    def argv(root, tmp):
        (tmp / "sim.ppm").write_bytes(sim)
        (tmp / "real.ppm").write_bytes(write_ppm(np.zeros((1, 1, 3), np.uint8)))
        (tmp / "mask.pgm").write_bytes(write_pgm(np.zeros((1, 1), np.uint8)))
        return ["composite", "--sim", str(tmp / "sim.ppm"), "--mask", str(tmp / "mask.pgm"),
                "--real", str(tmp / "real.ppm")]
    return argv


def _replay_input(params=None, record=None, flags=("--sim-hz", "200")):
    """``replay`` of rec0 with its fields updated by ``record``, under the gains ``params``."""
    def argv(root, tmp):
        rec = json.loads((root / "trajectories" / "rec0.json").read_text())
        rec.update(record or {})
        (tmp / "rec.json").write_text(json.dumps(rec))
        (tmp / "pd.json").write_text(json.dumps({"p": 60.0, "d": 3.0} if params is None else params))
        return ["replay", "--trajectory", str(tmp / "rec.json"), "--chain", str(root / "chain.json"),
                "--params", str(tmp / "pd.json"), "--controller", "widowx", *flags]
    return argv


def _fit_input(anneal=None, trajectories=None):
    """``sysid fit`` with the annealing fields updated by ``anneal``, on the directory ``trajectories`` if given."""
    def argv(root, tmp):
        config = json.loads((root / "sysid.json").read_text())
        config["anneal"].update(anneal or {})
        (tmp / "sysid.json").write_text(json.dumps(config))
        if trajectories is not None:
            (tmp / trajectories).mkdir()
        return ["sysid", "fit", "--trajectories", str(tmp / trajectories if trajectories else root / "trajectories"),
                "--chain", str(root / "chain.json"), "--config", str(tmp / "sysid.json")]
    return argv


def _table_input(first=None, second=None, n=2):
    """``metrics report`` of a two-policy table, its entries updated by ``first`` and ``second``, cut to ``n``."""
    def argv(root, tmp):
        table = two_policy_table("t")
        for entry, update in zip(table["evals"], (first, second)):
            entry.update(update or {})
        del table["evals"][n:]
        (tmp / "t.json").write_text(json.dumps(table))
        return ["metrics", "report", "--table", str(tmp / "t.json")]
    return argv


def _shift_input(obj):
    """``metrics shift`` of the shift file ``obj``."""
    def argv(root, tmp):
        (tmp / "s.json").write_text(json.dumps(obj))
        return ["metrics", "shift", "--shifts", str(tmp / "s.json")]
    return argv


# every fault: its exit code, its error line ({tmp} the test's directory) and the command's arguments but --out
INPUT_FAULTS = {
    "urdf-origin": (2, "joint 'jt': malformed origin attributes", _urdf_input('xyz="0.2 0 0"', 'xyz="0.2 0 x"')),
    "urdf-root": (2, "root element is <model>, expected <robot>", _urdf_input("robot", "model")),
    "urdf-link-name": (2, "<link> without a name", _urdf_input('<link name="base"/>', '<link name="base"/><link/>')),
    "urdf-child": (2, "joint 'j1': missing <parent> or <child>", _urdf_input('<child link="a"/>', "")),
    "urdf-undeclared-link": (2, "joint 'j1': parent/child link not declared",
                             _urdf_input('<child link="a"/>', '<child link="z"/>')),
    "urdf-two-roots": (2, "expected exactly one root link, found ['base', 'z']",
                       _urdf_input('<link name="base"/>', '<link name="base"/><link name="z"/>')),
    "urdf-axis-text": (2, "joint 'j1': malformed axis xyz", _urdf_input('<axis xyz="0 0 1"/>', '<axis xyz="0 0 z"/>')),
    "urdf-axis-length": (2, "joint 'j1': axis xyz needs exactly 3 numbers",
                         _urdf_input('<axis xyz="0 0 1"/>', '<axis xyz="0 1"/>')),
    "urdf-limit": (2, "joint 'j1': malformed limit bounds", _urdf_input('lower="-1"', 'lower="low"')),
    "urdf-no-moving-joint": (2, "no revolute or prismatic joint on the root-to-tip path",
                             _urdf_input('type="revolute"', 'type="fixed"')),
    "ppm-too-short": (2, "file too short to hold a netpbm header", _composite_input(b"P")),
    "ppm-truncated-header": (2, "truncated header", _composite_input(b"P6\n1 1\n")),
    "ppm-no-whitespace-after-maxval": (2, "missing whitespace after maxval", _composite_input(b"P6\n1 1\n255")),
    "params-without-gains": (2, "{tmp}/pd.json: expected an object with 'p' and 'd'", _replay_input(params={})),
    "table-real-rate": (3, "{tmp}/t.json.evals[0].real_rate: rate 1.5 outside [0, 1]",
                        _table_input({"real_rate": 1.5})),
    "table-sim-rate": (3, "{tmp}/t.json.evals[1].sim_rate: rate -0.25 outside [0, 1]",
                       _table_input(second={"sim_rate": -0.25})),
    # int() would read these outcomes as [0, 0], which matches the stated rate
    "trials-not-binary": (3, "{tmp}/t.json.evals[0].real_trials: outcome 0.6 is not 0 or 1",
                          _table_input({"real_rate": 0.0, "real_trials": [0.6, 0.9]})),
    "trials-empty": (3, "{tmp}/t.json.evals[1].sim_trials: no outcomes", _table_input(second={"sim_trials": []})),
    "trials-mean": (3, "{tmp}/t.json.evals[0].real_trials: mean 1.0 does not equal the rate 0.5",
                    _table_input({"real_trials": [1, 1]})),
    "duplicate-policy-ids": (3, "{tmp}/t.json.evals[1].policy_id: 'a' repeats evals[0]",
                             _table_input(second={"policy_id": "a"})),
    "one-policy": (3, "{tmp}/t.json.evals: need at least two policies", _table_input(n=1)),
    "no-shifts": (2, "{tmp}/s.json: no shifts found", _shift_input({"shifts": []})),
    "no-shifts-bare-list": (2, "{tmp}/s.json: no shifts found", _shift_input([])),
    "ctrl-frequency-zero": (3, "{tmp}/rec.json: ctrl_frequency must be positive and finite",
                            _replay_input(record={"ctrl_frequency": 0.0})),
    "joint-positions-misaligned": (3, "{tmp}/rec.json: joint_positions must align with ee_poses",
                                   _replay_input(record={"joint_positions": [[0.4, 0.9, -0.7]]})),
    "sim-below-ctrl": (3, "h_sim must be at least h_ctrl", _replay_input(flags=("--sim-hz", "2", "--ctrl-hz", "5"))),
    "sigma-zero": (3, "sigma and t0 must be positive", _fit_input(anneal={"sigma": 0.0})),
    "no-trajectories": (3, "no trajectory files found under {tmp}/none", _fit_input(trajectories="none")),
}


@pytest.mark.parametrize("code, message, argv", INPUT_FAULTS.values(), ids=INPUT_FAULTS.keys())
def test_an_input_fault_exits_with_its_error_line(sysid_workspace, tmp_path, capsys, code, message, argv):
    args = argv(sysid_workspace, tmp_path)
    inputs = files_under(tmp_path)
    assert main([*args, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert files_under(tmp_path) == inputs
