"""The experiment scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import real2sim

ROOT = Path(real2sim.__file__).resolve().parents[2]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_script(*args: str) -> list[str]:
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]], env=ENV, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_scripts_run_and_print_what_they_promise():
    lines = run_script("sysid_recovery.py", "--records", "1", "--actions", "3", "--iters", "4")
    assert lines[0] == "generating 1 trajectories of 3 actions each ..."
    assert lines[1].startswith("done in ") and lines[1].endswith(" s, 13 objective evaluations")
    heads = ("initial loss : ", "final loss   : ", "  translation ", "true gains     p = 80.0")
    assert all(line.startswith(head) for line, head in zip(lines[2:6], heads))
    assert lines[6].startswith("recovered      p = ")
    assert [line.split(":")[0] for line in lines[7:]] == ["  round 0", "  round 1", "  round 2"]

    lines = run_script("reproduce_metrics.py")
    assert lines[0].split() == ["task", "n", "MMRV", "pearson", "spearman"]
    mmrv = {row.split()[0]: row.split()[2] for row in lines[1:lines.index("")]}
    assert mmrv["pick-coke-can-avg"] == "0.031" and mmrv["move-near"] == "0.111"
    assert lines[lines.index("") + 1].split() == ["policy", "factor", "base", "signed", "abs"]
    assert len(lines) > lines.index("") + 2
