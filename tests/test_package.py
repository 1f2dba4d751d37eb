"""What importing the package and launching one command loads."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import real2sim
from helpers import planar_3link
from real2sim.chain import chain_to_dict, fk
from real2sim.data import fixture_path
from real2sim.geometry import pose_to_dict
from real2sim.imaging import write_pgm, write_ppm

SRC = Path(real2sim.__file__).resolve().parents[1]
README = SRC.parent / "README.md"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# the layer modules benchmark/tracer.py reads from sys.modules after `import real2sim.cli`
LAYERS = ("geometry", "chain", "profile", "controller", "jointsim", "sysid", "metrics", "report", "imaging", "cli")

# Runs `python -m real2sim.cli ARGS` in this process, asserts that only `urdf convert` loaded the XML parser,
# then prints the modules whose bodies ran. A module the CLI registered lazily keeps its lazy type until its
# first attribute access.
LAUNCH = """
import contextlib, io, json, runpy, sys, types
sys.argv = ["real2sim", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("real2sim.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
assert sys.argv[1] == "urdf" or "xml.etree.ElementTree" not in sys.modules, "the XML parser ran"
ran = [n for n, m in sys.modules.items() if n.startswith(("numpy", "real2sim.")) and type(m) is types.ModuleType]
print(json.dumps(ran))
"""


def launch(*args: str) -> tuple[bool, set[str]]:
    """Whether numpy ran, and which real2sim layers ran, in one fresh CLI launch."""
    out = subprocess.run([sys.executable, "-c", LAUNCH, *args], env=ENV, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    ran = json.loads(out.stdout)
    return "numpy" in ran, {n.split(".")[1] for n in ran if n.startswith("real2sim.")}


def test_help_runs_neither_numpy_nor_any_layer():
    assert launch("--help") == (False, set())


def test_composite_runs_only_imaging(tmp_path):
    files = {
        "sim.ppm": write_ppm(np.zeros((4, 5, 3), np.uint8)),
        "real.ppm": write_ppm(np.full((4, 5, 3), 9, np.uint8)),
        "mask.pgm": write_pgm(np.full((4, 5), 200, np.uint8)),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    args = [f"--{name.split('.')[0]}={tmp_path / name}" for name in files]
    numpy_ran, layers = launch("composite", *args, f"--out={tmp_path / 'out.ppm'}")
    assert numpy_ran and layers == {"imaging"}
    assert (tmp_path / "out.ppm").is_file()


def test_metrics_shift_runs_no_fit_layer(tmp_path):
    out = tmp_path / "shift.csv"
    numpy_ran, layers = launch("metrics", "shift", "--shifts", str(fixture_path("rt1_pick_coke_shift.json")),
                               "--out", str(out))
    assert not numpy_ran and layers <= {"metrics", "report"}
    assert out.is_file()


def test_metrics_report_runs_no_fit_layer(tmp_path):
    out = tmp_path / "report"
    numpy_ran, layers = launch("metrics", "report", "--table", str(fixture_path("google_robot_vismatch.json")),
                               "--out", str(out))
    assert not numpy_ran and layers <= {"metrics", "report"}
    assert (out / "aggregate.json").is_file()


def test_replay_runs_no_xml_parser(tmp_path):
    # the chain comes from JSON: only `urdf convert` needs the XML parser
    chain, q0 = planar_3link(), [0.4, 0.9, -0.7]
    action = {"xyz": [0.0, 0.0, 0.0], "rot_axis_angle": [0.0, 0.0, 0.0], "gripper": 0.0}
    files = {
        "chain": chain_to_dict(chain),
        "trajectory": {"ctrl_frequency": 5.0, "actions": [action], "ee_poses": [pose_to_dict(fk(chain, q0))],
                       "joint_positions": [q0]},
        "params": {"p": 60.0, "d": 3.0},
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    args = [f"--{name}={tmp_path / name}.json" for name in files]
    numpy_ran, layers = launch("replay", *args, "--controller=widowx", f"--out={tmp_path / 'poses.json'}")
    assert numpy_ran and {"chain", "jointsim"} <= layers
    assert (tmp_path / "poses.json").is_file()


def test_import_cli_registers_every_layer():
    code = (f"import json, sys, real2sim.cli; print(json.dumps([n for n in {LAYERS!r} "
            "if getattr(real2sim, n, None) is sys.modules.get('real2sim.' + n) is not None]))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert tuple(json.loads(out.stdout)) == LAYERS


def test_every_export_resolves():
    for name in real2sim.__all__:
        value = getattr(real2sim, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    assert real2sim.__version__ == "0.1.0"
    for layer in LAYERS:
        module = importlib.import_module(f"real2sim.{layer}")
        assert hasattr(module, "__all__") or layer == "cli"  # the CLI exports nothing
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"real2sim.{layer}.__all__ lists {missing}"


def test_dir_lists_the_exports():
    assert set(real2sim.__all__) <= set(dir(real2sim))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        real2sim.no_such_name
    assert not hasattr(real2sim, "report_csv")


def test_readme_library_sketch_runs(capsys):
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(sketch, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
