"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from real2sim.cli import main  # noqa: E402
from real2sim.data import fixture_path  # noqa: E402


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def chain():
    return inputs.make_chain(inputs.seeded_rng(0, "chain"))


def test_fit_check_rejects_a_loss_off_by_1e_6(tmp_path, chain):
    chain_path = write_json(tmp_path / "chain.json", chain)
    traj = tmp_path / "traj"
    traj.mkdir()
    record = inputs.make_record(chain, inputs.seeded_rng(0, "record"), 4, 5.0, False)
    record_path = write_json(traj / "r.json", record)
    config = inputs.make_sysid_config("widowx", inputs.seeded_rng(0, "config"), 3, 1)
    config_path = write_json(tmp_path / "sysid.json", config)
    dyn_path = write_json(tmp_path / "dyn.json", inputs.DYNAMICS)
    out = tmp_path / "fit.json"
    argv = ["sysid", "fit", "--trajectories", str(traj), "--chain", chain_path, "--config", config_path, "--out", str(out)]
    assert main(argv) == 0
    poses = tmp_path / "poses.json"
    argv = ["replay", "--trajectory", record_path, "--chain", chain_path, "--params", str(out),
            "--dynamics", dyn_path, "--controller", "widowx", "--out", str(poses)]
    assert main(argv) == 0
    fit = json.loads(out.read_text())
    replay = json.loads(poses.read_text())
    checks.check_fit(fit, config, [record], [replay["ee_poses"]])
    checks.check_replay_losses(record, replay)

    for path, delta in ((("best_loss",), 1e-6), (("losses", "total"), -1e-6)):
        bad = copy.deepcopy(fit)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] += delta
        bad["rounds"][-1]["best_loss"] = bad["best_loss"]
        with pytest.raises(checks.CheckError):
            checks.check_fit(bad, config, [record], [replay["ee_poses"]])
    bad = copy.deepcopy(replay)
    bad["losses"]["total"] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_replay_losses(record, bad)
    bad = copy.deepcopy(fit)
    bad["evaluations"] += 1
    with pytest.raises(checks.CheckError):
        checks.check_fit(bad, config, [record], [replay["ee_poses"]])


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_composite_check_rejects_one_flipped_pixel(tmp_path, mode):
    sim, real, mask = inputs.make_images(inputs.seeded_rng(0, "images"))
    paths = {}
    for name, data in (("sim", sim), ("real", real), ("mask", mask)):
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    out = tmp_path / "out.ppm"
    argv = ["composite", "--sim", str(paths["sim"]), "--mask", str(paths["mask"]), "--real", str(paths["real"]),
            "--mode", mode, "--out", str(out)]
    assert main(argv) == 0
    good = out.read_bytes()
    checks.check_composite(sim, mask, real, mode, good)
    bad = bytearray(good)
    bad[-1000] ^= 0x01
    with pytest.raises(checks.CheckError):
        checks.check_composite(sim, mask, real, mode, bytes(bad))


def test_report_checks_reject_a_perturbed_mmrv(tmp_path):
    tables = inputs.make_tables(inputs.seeded_rng(0, "tables"), 2, 12, 10)
    out = tmp_path / "report"
    assert main(["metrics", "report", "--table", write_json(tmp_path / "t.json", tables), "--out", str(out)]) == 0
    aggregate = json.loads((out / "aggregate.json").read_text())
    csv_texts = {t["task"]: (out / f"{t['task']}.csv").read_text() for t in tables["tables"]}
    checks.check_generated_report(tables, aggregate, csv_texts)
    for key, delta in (("mmrv", 1e-6), ("pearson", 1e-6), ("spearman", -1e-6)):
        bad = copy.deepcopy(aggregate)
        bad["tables"][1][key] += delta
        with pytest.raises(checks.CheckError):
            checks.check_generated_report(tables, bad, csv_texts)
    bad = copy.deepcopy(aggregate)
    policy = next(iter(bad["tables"][0]["kruskal_p"]))
    bad["tables"][0]["kruskal_p"][policy] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_generated_report(tables, bad, csv_texts)

    bundled = tmp_path / "bundled"
    assert main(["metrics", "report", "--table", str(fixture_path("google_robot_vismatch.json")), "--out", str(bundled)]) == 0
    aggregate = json.loads((bundled / "aggregate.json").read_text())
    checks.check_bundled_report(aggregate)
    bad = copy.deepcopy(aggregate)
    next(t for t in bad["tables"] if t["task"] == "move-near")["mmrv"] += 0.002
    with pytest.raises(checks.CheckError):
        checks.check_bundled_report(bad)


def test_shift_checks_reject_a_perturbed_delta(tmp_path):
    out = tmp_path / "bundled.csv"
    assert main(["metrics", "shift", "--shifts", str(fixture_path("rt1_pick_coke_shift.json")), "--out", str(out)]) == 0
    text = out.read_text()
    checks.check_bundled_shift(text)
    with pytest.raises(checks.CheckError):
        checks.check_bundled_shift(text.replace("-0.753500,0.753500", "-0.755500,0.755500"))

    shifts = inputs.make_shifts(inputs.seeded_rng(0, "shifts"), 3)
    out = tmp_path / "generated.csv"
    assert main(["metrics", "shift", "--shifts", write_json(tmp_path / "s.json", shifts), "--out", str(out)]) == 0
    text = out.read_text()
    checks.check_generated_shift(shifts, text)
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[-1] = f"{float(cells[-1]) + 1e-5:.6f}\n"
    with pytest.raises(checks.CheckError):
        checks.check_generated_shift(shifts, "".join(lines[:1] + [",".join(cells)] + lines[2:]))


def test_plan_check_rejects_a_velocity_above_its_limit(tmp_path, chain):
    record = inputs.make_record(chain, inputs.seeded_rng(0, "record"), 1, 3.0, True)
    plan = tmp_path / "plan.csv"
    argv = ["replay", "--trajectory", write_json(tmp_path / "r.json", record), "--chain", write_json(tmp_path / "c.json", chain),
            "--params", write_json(tmp_path / "p.json", {"p": 80.0, "d": 3.0}), "--controller", "google",
            "--out", str(tmp_path / "poses.json"), "--dump-plan", str(plan)]
    assert main(argv) == 0
    text = plan.read_text()
    checks.check_plan_dump(text, 6, 167)
    rows = text.splitlines()
    head = rows[0].split(",")
    for column, value in (("v_d2", "1.600000000"), ("grip_a", "-7.100000000")):
        cells = rows[50].split(",")
        cells[head.index(column)] = value
        bad = "\n".join(rows[:50] + [",".join(cells)] + rows[51:]) + "\n"
        with pytest.raises(checks.CheckError):
            checks.check_plan_dump(bad, 6, 167)


def test_urdf_check_rejects_a_moved_joint(tmp_path):
    text = inputs.make_urdf(inputs.seeded_rng(0, "urdf"))
    out = tmp_path / "chain.json"
    (tmp_path / "a.urdf").write_text(text)
    assert main(["urdf", "convert", "--in", str(tmp_path / "a.urdf"), "--out", str(out)]) == 0
    converted = json.loads(out.read_text())
    checks.check_urdf(text, converted, np.random.default_rng(0))
    bad = copy.deepcopy(converted)
    bad["joints"][3]["origin"]["xyz"][0] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_urdf(text, bad, np.random.default_rng(0))
