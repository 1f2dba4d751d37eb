"""End-to-end and per-layer benchmark of the real2sim command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are made from the
seed by the benchmark's own code (``inputs.py``). With ``--trace 0`` the
workload's fixed batch of CLI calls runs in fresh ``python -m real2sim.cli``
processes, in rounds, until the next round would end after S seconds; fresh
``--help`` launches spread through the run time the start-up. With
``--trace 1`` the same batch runs in-process (``tracer.py``), alternately
plain and traced, for S seconds. Every run then checks the outputs
(``checks.py``) and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every child process runs with one BLAS/OpenMP thread (``THREAD_ENV``).
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import LAYERS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "real2sim" / "data"
WORK = ROOT / ".bench_work"

# Workload sizes. Each fit is one `sysid fit` with tied gains and 3 annealing
# rounds, as in acceptance criterion 7, cut down so that one fit takes a few
# seconds and a run holds several.
WIDOWX_RECORDS, WIDOWX_ACTIONS, WIDOWX_ITERS = 6, 16, 4
GOOGLE_RECORDS, GOOGLE_ACTIONS, GOOGLE_ITERS = 2, 4, 2
BATCH_REPLAYS, BATCH_REPLAY_ACTIONS = 2, 3
BATCH_TASKS, BATCH_POLICIES, BATCH_TRIALS, BATCH_SHIFT_POLICIES = 6, 40, 24, 12
GOOGLE_TICKS = 167  # floor(501 Hz / 3 Hz) simulation steps per Google control tick
SETUP_LAUNCHES_PER_ROUND = 2


class Refused(Exception):
    """The checkout cannot be benchmarked: the run prints no result."""


@dataclass
class Workload:
    calls: list[list[str]]  # one fixed batch of CLI argument vectors
    inputs: list[Path]  # the files whose bytes make the input hash
    outputs: list[Path]  # what the batch writes; every round must write the same bytes
    check: Callable[[], None]  # raises checks.CheckError on a wrong output


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


@dataclass
class Launch:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def launch(argv: list[str], log: Path) -> Launch:
    """Run one fresh interpreter to its end and take its wall time, CPU time
    and peak RSS from os.wait4."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log.read_text())


def cli(args: list[str], log: Path) -> Launch:
    return launch(["-m", "real2sim.cli", *args], log)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


def fit_workload(work: Path, seed: int, kind: str, n_records: int, n_actions: int, iters: int) -> Workload:
    chain = inputs.make_chain(inputs.seeded_rng(seed, "chain"))
    chain_path = _write_json(work / "chain.json", chain)
    traj = work / "trajectories"
    traj.mkdir()
    hz = 5.0 if kind == "widowx" else 3.0
    records = [
        inputs.make_record(chain, inputs.seeded_rng(seed, f"record{i}"), n_actions, hz, kind == "google", kind == "widowx" and i == 0)
        for i in range(n_records)
    ]
    record_paths = [_write_json(traj / f"record{i:02d}.json", r) for i, r in enumerate(records)]
    config = inputs.make_sysid_config(kind, inputs.seeded_rng(seed, "config"), 3, iters)
    config_path = _write_json(work / "sysid.json", config)
    dyn_path = _write_json(work / "dynamics.json", inputs.DYNAMICS)
    out = work / "fit.json"
    call = ["sysid", "fit", "--trajectories", rel(traj), "--chain", rel(chain_path), "--config", rel(config_path),
            "--out", rel(out), "--seed", str(seed)]

    def check():
        fit = json.loads(out.read_text())
        replays = []
        for i, path in enumerate(record_paths):
            poses = work / f"check_replay{i:02d}.json"
            args = ["replay", "--trajectory", rel(path), "--chain", rel(chain_path), "--params", rel(out),
                    "--dynamics", rel(dyn_path), "--controller", kind, "--out", rel(poses)]
            result = cli(args, work / "check.log")
            if result.code != 0:
                raise checks.CheckError(f"check replay of record {i} exited {result.code}: {result.stderr[-300:]}")
            replays.append(json.loads(poses.read_text())["ee_poses"])
        checks.check_fit(fit, config, records, replays)

    return Workload([call], [chain_path, *record_paths, config_path, dyn_path], [out], check)


def batch_workload(work: Path, seed: int) -> Workload:
    chain = inputs.make_chain(inputs.seeded_rng(seed, "chain"))
    chain_path = _write_json(work / "chain.json", chain)
    params_path = _write_json(work / "params.json", {"p": 80.0, "d": 3.0})
    dyn_path = _write_json(work / "dynamics.json", inputs.DYNAMICS)
    records = [
        inputs.make_record(chain, inputs.seeded_rng(seed, f"record{i}"), BATCH_REPLAY_ACTIONS, 3.0, True)
        for i in range(BATCH_REPLAYS)
    ]
    record_paths = [_write_json(work / f"record{i}.json", r) for i, r in enumerate(records)]
    tables = inputs.make_tables(inputs.seeded_rng(seed, "tables"), BATCH_TASKS, BATCH_POLICIES, BATCH_TRIALS)
    tables_path = _write_json(work / "tables.json", tables)
    shifts = inputs.make_shifts(inputs.seeded_rng(seed, "shifts"), BATCH_SHIFT_POLICIES)
    shifts_path = _write_json(work / "shifts.json", shifts)
    images = inputs.make_images(inputs.seeded_rng(seed, "images"))
    image_paths = [work / "sim.ppm", work / "real.ppm", work / "mask.pgm"]
    for path, data in zip(image_paths, images):
        path.write_bytes(data)
    urdf_path = work / "arm.urdf"
    urdf_path.write_text(inputs.make_urdf(inputs.seeded_rng(seed, "urdf")))
    bundled_tables = FIXTURES / "google_robot_vismatch.json"
    bundled_shifts = FIXTURES / "rt1_pick_coke_shift.json"

    calls, outputs = [], []
    for i, path in enumerate(record_paths):
        poses, plan = work / f"replay{i}.json", work / f"plan{i}.csv"
        calls.append(["replay", "--trajectory", rel(path), "--chain", rel(chain_path), "--params", rel(params_path),
                      "--dynamics", rel(dyn_path), "--controller", "google", "--out", rel(poses), "--dump-plan", rel(plan)])
        outputs += [poses, plan]
    report_bundled, report_generated = work / "report_bundled", work / "report_generated"
    calls.append(["metrics", "report", "--table", rel(bundled_tables), "--out", rel(report_bundled)])
    calls.append(["metrics", "report", "--table", rel(tables_path), "--out", rel(report_generated)])
    outputs += [report_bundled / "aggregate.json", report_generated / "aggregate.json"]
    outputs += [report_generated / f"{t['task']}.csv" for t in tables["tables"]]
    shift_bundled, shift_generated = work / "shift_bundled.csv", work / "shift_generated.csv"
    calls.append(["metrics", "shift", "--shifts", rel(bundled_shifts), "--out", rel(shift_bundled)])
    calls.append(["metrics", "shift", "--shifts", rel(shifts_path), "--out", rel(shift_generated)])
    outputs += [shift_bundled, shift_generated]
    for mode in ("hard", "soft"):
        out = work / f"composite_{mode}.ppm"
        calls.append(["composite", "--sim", rel(image_paths[0]), "--mask", rel(image_paths[2]),
                      "--real", rel(image_paths[1]), "--mode", mode, "--out", rel(out)])
        outputs.append(out)
    urdf_out = work / "urdf_chain.json"
    calls.append(["urdf", "convert", "--in", rel(urdf_path), "--out", rel(urdf_out)])
    outputs.append(urdf_out)

    def check():
        for i, record in enumerate(records):
            checks.check_replay_losses(record, json.loads((work / f"replay{i}.json").read_text()))
            n_rows = len(record["actions"]) * GOOGLE_TICKS
            checks.check_plan_dump((work / f"plan{i}.csv").read_text(), len(chain["joints"]), n_rows)
        checks.check_bundled_report(json.loads((report_bundled / "aggregate.json").read_text()))
        csv_texts = {t["task"]: (report_generated / f"{t['task']}.csv").read_text() for t in tables["tables"]}
        checks.check_generated_report(tables, json.loads((report_generated / "aggregate.json").read_text()), csv_texts)
        checks.check_bundled_shift(shift_bundled.read_text())
        checks.check_generated_shift(shifts, shift_generated.read_text())
        for mode in ("hard", "soft"):
            out = (work / f"composite_{mode}.ppm").read_bytes()
            checks.check_composite(images[0], images[2], images[1], mode, out)
        checks.check_urdf(urdf_path.read_text(), json.loads(urdf_out.read_text()), inputs.seeded_rng(seed, "urdf-check"))

    all_inputs = [chain_path, params_path, dyn_path, *record_paths, tables_path, shifts_path, *image_paths, urdf_path,
                  bundled_tables, bundled_shifts]
    return Workload(calls, all_inputs, outputs, check)


WORKLOADS = {
    "widowx-fit": lambda work, seed: fit_workload(work, seed, "widowx", WIDOWX_RECORDS, WIDOWX_ACTIONS, WIDOWX_ITERS),
    "google-fit": lambda work, seed: fit_workload(work, seed, "google", GOOGLE_RECORDS, GOOGLE_ACTIONS, GOOGLE_ITERS),
    "cli-batch": batch_workload,
}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def probe_program() -> dict:
    """Import real2sim the way the workload does; refuse any copy but this checkout's."""
    if not (SRC / "real2sim" / "cli.py").is_file():
        raise Refused(f"no real2sim sources under {SRC}")
    code = "import json, sys, numpy, real2sim; print(json.dumps([real2sim.__file__, numpy.__version__, sys.version.split()[0]]))"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True)
    if out.returncode != 0:
        raise Refused(f"real2sim does not import from {SRC}: {out.stderr.strip()[-300:]}")
    module, numpy_version, python_version = json.loads(out.stdout)
    if Path(module).resolve().parent != (SRC / "real2sim").resolve():
        raise Refused(f"real2sim imports from {module}, not from {SRC}")
    return {"python": python_version, "numpy": numpy_version, "real2sim": rel(Path(module).resolve())}


def git_revision() -> str:
    """HEAD of the checkout read from .git, without running git (which would
    look for a repository above the checkout)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def input_hash(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths, key=rel):
        h.update(rel(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def output_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_end_to_end(wl: Workload, work: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Whole rounds of the batch in fresh processes, until the next round
    would end after ``seconds``. Returns metrics, attempted, failed, problems."""
    help_log = work / "help.log"
    cli(["--help"], help_log)  # writes the bytecode caches; not measured
    problems = []
    setup_at = {0, len(wl.calls) // 2} if len(wl.calls) > 1 else {0}
    setup, walls, cpus, rss = [], [], [], []
    attempted = failed = 0
    digest = None
    start = time.perf_counter()
    while True:
        round_wall = round_cpu = 0.0
        for i, argv in enumerate(wl.calls):
            if i in setup_at:
                for _ in range(SETUP_LAUNCHES_PER_ROUND // len(setup_at)):
                    launched = cli(["--help"], help_log)
                    setup.append(launched.wall_s)
                    if launched.code != 0:
                        problems.append(f"--help exited {launched.code}")
            result = cli(argv, work / f"call{i}.log")
            attempted += 1
            if result.code != 0 or "Traceback" in result.stderr:
                failed += 1
                problems.append(f"{' '.join(argv[:2])} exited {result.code}: {result.stderr[-300:]}")
            round_wall += result.wall_s
            round_cpu += result.cpu_s
            rss.append(result.rss_mb)
        walls.append(round_wall)
        cpus.append(round_cpu)
        current = output_digest(wl.outputs)
        if digest is not None and current != digest:
            problems.append("a round wrote different outputs from the first round")
        digest = current
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    metrics = {
        "setup_s": {"value": median(setup), "unit": "s"},
        "wall_s": {"value": median(walls), "unit": "s"},
        "cpu_s": {"value": median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MiB"},
    }
    print(f"rounds={len(walls)} setup_launches={len(setup)} round_wall_s={[round(w, 4) for w in walls]}")
    return metrics, attempted, failed, problems


def run_traced(wl: Workload, work: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Alternate plain and traced in-process runs of the batch until the next
    pair would end after ``seconds``; report the traced run with the median
    traced wall time."""
    calls_path = work / "calls.json"
    calls_path.write_text(json.dumps(wl.calls))
    tracer = Path(__file__).resolve().parent / "tracer.py"
    plain, traced, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for mode, sink in (("plain", plain), ("traced", traced)):
            out = work / f"{mode}.json"
            spans = [rel(work / f"spans{len(traced)}.json")] if mode == "traced" else []
            result = launch([str(tracer), rel(calls_path), rel(out), *spans], work / f"{mode}.log")
            attempted += len(wl.calls)
            if result.code != 0:
                failed += len(wl.calls)
                problems.append(f"{mode} in-process run exited {result.code}: {result.stderr[-300:]}")
                continue
            run = json.loads(out.read_text())
            if Path(run["module"]).resolve().parent != (SRC / "real2sim").resolve():
                problems.append(f"the traced run imported {run['module']}")
            bad = sum(code != 0 for code in run["exit_codes"])
            if bad:
                failed += bad
                problems.append(f"{mode}: {bad} calls failed")
            sink.append(run)
        elapsed = time.perf_counter() - start
        pairs = max(len(traced), 1)
        if failed or elapsed + elapsed / pairs > seconds:
            break
    if not traced:
        return {}, attempted, failed, problems
    counts = [(r["calls"], r["ik_iterations"], r["ik_unconverged"], r["stderr_lines"], r["spans"]) for r in traced]
    if any(c != counts[0] for c in counts):
        problems.append("the trace counts differ between identical runs")
    order = sorted(range(len(traced)), key=lambda k: traced[k]["wall_s"])
    pick = order[(len(order) - 1) // 2]
    run = traced[pick]
    # keep the chosen run's spans as the run's span file
    os.replace(work / f"spans{pick}.json", work / "spans.json")
    for k in range(len(traced)):
        (work / f"spans{k}.json").unlink(missing_ok=True)
    total = sum(run["self_s"].values()) + run["outside_s"]
    if abs(total - run["wall_s"]) > 1e-9 * max(1.0, run["wall_s"]):
        problems.append(f"self times plus outside time {total} differ from the traced wall time {run['wall_s']}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": run["calls"][layer], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": run["self_s"][layer], "unit": "s"}
    metrics["chain.ik_iterations"] = {"value": run["ik_iterations"], "unit": "count"}
    metrics["chain.ik_unconverged"] = {"value": run["ik_unconverged"], "unit": "count"}
    metrics["cli.stderr_lines"] = {"value": run["stderr_lines"], "unit": "count"}
    metrics["trace.wall_s"] = {"value": run["wall_s"], "unit": "s"}
    metrics["trace.outside_s"] = {"value": run["outside_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": run["wall_s"] - median([r["wall_s"] for r in plain]), "unit": "s"}
    print(f"pairs={len(traced)} traced_wall_s={[round(r['wall_s'], 4) for r in traced]} "
          f"plain_wall_s={[round(r['wall_s'], 4) for r in plain]} spans={run['spans']}")
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = probe_program()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](work, args.seed)
    print(f"workload={args.workload} seed={args.seed} inputs_sha256={input_hash(wl.inputs)} "
          f"git={git_revision()} python={env['python']} numpy={env['numpy']} real2sim={env['real2sim']} "
          f"threads={','.join(f'{k}={v}' for k, v in THREAD_ENV.items())}")
    runner = run_traced if args.trace else run_end_to_end
    metrics, attempted, failed, problems = runner(wl, work, args.seconds)
    correct = not problems
    if correct:
        try:
            wl.check()
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            problems.append(f"output check failed: {exc}")
            correct = False
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
