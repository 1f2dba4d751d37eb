"""Batch command-line front end.

Subcommands: ``metrics report``, ``metrics shift``, ``sysid fit``,
``replay``, ``composite``, ``urdf convert``. Every command is deterministic
given its inputs and flags; ``--out -`` streams to standard output.

Exit codes: 0 success, 2 input-format error, 3 semantic/validation error,
4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import importlib.util
import json
import os
import sys
from pathlib import Path

from . import json_number, json_vector


def _lazy(name: str):
    """Module ``name``, in ``sys.modules`` from now on; its body runs on first attribute access."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name) or importlib.import_module(name)  # raises if it is missing
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
        package, _, child = name.rpartition(".")
        if package:
            setattr(sys.modules[package], child, sys.modules[name])
    return sys.modules[name]


np = _lazy("numpy")
geometry, chain, profile, controller, jointsim, sysid, metrics, report, imaging = (
    _lazy(f"real2sim.{m}") for m in "geometry chain profile controller jointsim sysid metrics report imaging".split())

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SEMANTIC = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Unknown or invalid key in a run-configuration file."""


def _read_json(path):
    """The one reader of input JSON files: a fault of the file itself is an InputFormatError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # also not UTF-8, or an integer past Python's 4300-digit limit
        raise report.InputFormatError(f"{path}: invalid JSON ({exc})") from exc


def _write(*outputs: tuple[str, str | bytes]) -> None:
    """The one writer: text or bytes to each path, all files or none. A regular file goes to a temporary
    sibling, and all are renamed into place once every one is written; then - (standard output) and
    any existing device or pipe are written directly. Two outputs on one file or on - are refused at the start."""
    for out in (out for out, _ in outputs if out != "-" and os.path.isdir(out)):  # refused before anything is written
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if [out for out, _ in outputs].count("-") > 1:
        raise report.InputFormatError("-: standard output is given for more than one output")
    direct = [out == "-" or os.path.exists(out) and not os.path.isfile(out) for out, _ in outputs]
    files = [(out, data, os.path.join(os.path.dirname(out), f".{os.urandom(6).hex()}.tmp"))
             for (out, data), d in zip(outputs, direct) if not d]
    reals = [os.path.realpath(out) for out, *_ in files]
    for i, (out, *_) in enumerate(files):
        if reals[i] in reals[:i]:
            raise report.InputFormatError(f"{out}: the same file is given for more than one output")
    made = [tmp for *_, tmp in files] + [out for out, *_ in files if not os.path.lexists(out)]
    try:
        for out, data, tmp in files:
            try:
                with open(tmp, "xb" if isinstance(data, bytes) else "x") as f:
                    f.write(data)
            except OSError as exc:  # name the output, not its temporary
                raise OSError(exc.errno, exc.strerror, out) from None
        for out, _, tmp in files:
            os.replace(tmp, out)
    except BaseException:
        for path in filter(os.path.lexists, made):
            os.remove(path)
        raise
    for (out, data), d in zip(outputs, direct):
        if d and out == "-":
            (sys.stdout.buffer if isinstance(data, bytes) else sys.stdout).write(data)
        elif d:
            with open(out, "wb" if isinstance(data, bytes) else "w") as f:
                f.write(data)


def _json(obj) -> str:
    """The one JSON format: ``obj`` indented, keys sorted, a final newline; a NaN or infinity is refused."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _section(obj, allowed: set[str], where: str, required: tuple[str, ...] = ()) -> dict:
    """``obj`` as a configuration object with only ``allowed`` and all ``required`` keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return obj


def _vec_field(obj, n: int, where: str) -> np.ndarray:
    error = ConfigError(f"{where}: expected numbers")
    if not isinstance(obj, list):
        return np.full(n, json_number(obj, error))
    values = json_vector(obj, None, error)
    if len(values) != n:
        raise ConfigError(f"{where}: expected a scalar or {n} values")
    return np.array(values)


# ---------------------------------------------------------------------------
# metrics report / shift
# ---------------------------------------------------------------------------


def _check_task_names(tables) -> None:
    """Each task names one CSV file inside the output directory, in at most the 255 bytes most file systems take."""
    seen = set()
    for table in tables:
        name = table.task
        if name in ("", ".", "..") or any(c in name for c in "/\\\0") or len(f"{name}.csv".encode()) > 255:
            raise report.InputFormatError(f"task name {name!r} is not a plain file name")
        if name in seen:
            raise report.InputFormatError(f"task {name!r} appears in more than one table")
        seen.add(name)


def cmd_metrics_report(args) -> int:
    tables = []
    for path in args.table:
        tables.extend(report.tables_from_obj(_read_json(path), source=path))
    if not tables:
        raise report.InputFormatError("no evaluation tables found in the inputs")
    stats = [report.compute_table_stats(t) for t in tables]
    csv_parts = [report.metrics_csv(t, s) for t, s in zip(tables, stats)]
    if args.out == "-":  # one header row, then every table's rows
        sys.stdout.write(csv_parts[0].split("\n", 1)[0] + "\n")
        sys.stdout.write("".join(part.split("\n", 1)[1] for part in csv_parts))
    else:
        _check_task_names(tables)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write(*((os.path.join(args.out, f"{t.task}.csv"), part) for t, part in zip(tables, csv_parts)),
               (os.path.join(args.out, "aggregate.json"), _json(report.aggregate_dict(stats))))
    return EXIT_OK


def cmd_metrics_shift(args) -> int:
    rows = report.shifts_from_obj(_read_json(args.shifts), source=args.shifts)
    _write((args.out, report.shift_csv(rows)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sysid fit
# ---------------------------------------------------------------------------

_SYSID_KEYS = {"controller", "dynamics", "init", "range", "anneal", "ctrl"}
_DYN_KEYS = {"inertia", "damping"}
_INIT_KEYS = {"p", "d"}
_RANGE_KEYS = {"p_low", "p_high", "d_low", "d_high"}
_ANNEAL_KEYS = {"rounds", "iters_per_round", "t0", "cooling", "sigma", "shrink", "rng_seed", "tie_joints"}
_CTRL_KEYS = {"h_sim", "h_ctrl"}


def _ctrl_config(kind: str, overrides: dict | None) -> controller.CtrlConfig:
    cfg = jointsim.default_config(kind)
    if overrides is None:
        return cfg
    _section(overrides, _CTRL_KEYS, "ctrl")
    error = ConfigError("ctrl: h_sim and h_ctrl must be numbers")
    h_sim, h_ctrl = (json_number(overrides.get(k, getattr(cfg, k)), error) for k in ("h_sim", "h_ctrl"))
    return controller.CtrlConfig(h_sim=h_sim, h_ctrl=h_ctrl)


def _dynamics(obj, robot: chain.ChainSpec, where: str) -> jointsim.JointDynamics:
    dyn_obj = _section(obj, _DYN_KEYS, where)
    return jointsim.JointDynamics.from_chain(
        robot, _vec_field(dyn_obj.get("inertia", 1.0), robot.n, f"{where}.inertia"),
        _vec_field(dyn_obj.get("damping", 0.0), robot.n, f"{where}.damping"))


def _check_records(records, paths, robot: chain.ChainSpec, cfg: controller.CtrlConfig, override: str) -> list:
    """Each record's initial arm configuration, once every control frequency matches; an error names the file."""
    for rec, path in zip(records, paths):
        if abs(cfg.h_ctrl - rec.ctrl_frequency) > 1e-9:
            raise jointsim.JointSimError(f"{path}: record control frequency {rec.ctrl_frequency} Hz does not match "
                                         f"the controller's {cfg.h_ctrl} Hz (use {override} to override)")
    return [jointsim._record_q_init(robot, rec, f"{path}.") for rec, path in zip(records, paths)]


@contextlib.contextmanager
def _record_files(paths):
    """A replay's planning failure at ``actions[<step>]`` of record i, re-raised naming the file ``paths[i]``."""
    try:
        yield
    except profile.PlanningError as exc:
        raise profile.PlanningError(f"{paths[exc.record]}.{exc}") from exc


def cmd_sysid_fit(args) -> int:
    robot = chain.chain_from_dict(_read_json(args.chain), args.chain)
    n = robot.n
    config = _section(_read_json(args.config), _SYSID_KEYS, args.config, required=("init", "range"))
    kind = config.get("controller", jointsim.WIDOWX)
    jointsim.default_config(kind)  # rejects an unknown kind

    dyn = _dynamics(config.get("dynamics", {}), robot, "dynamics")

    init_obj = _section(config["init"], _INIT_KEYS, "init", required=("p", "d"))
    init = jointsim.PDParams(_vec_field(init_obj["p"], n, "init.p"), _vec_field(init_obj["d"], n, "init.d"))

    range_obj = _section(config["range"], _RANGE_KEYS, "range", required=("p_low", "p_high", "d_low", "d_high"))
    rng = sysid.SysIdRange(
        _vec_field(range_obj["p_low"], n, "range.p_low"),
        _vec_field(range_obj["p_high"], n, "range.p_high"),
        _vec_field(range_obj["d_low"], n, "range.d_low"),
        _vec_field(range_obj["d_high"], n, "range.d_high"),
    )

    anneal_obj = dict(_section(config.get("anneal", {}), _ANNEAL_KEYS, "anneal"))
    if args.seed is not None:
        anneal_obj["rng_seed"] = args.seed
    anneal = sysid.AnnealConfig(**anneal_obj)

    ctrl_cfg = _ctrl_config(kind, config.get("ctrl"))

    traj_dir = Path(args.trajectories)
    paths = sorted(traj_dir.glob("*.json")) if traj_dir.is_dir() else [traj_dir]
    if not paths:
        raise sysid.SysIdError(f"no trajectory files found under {traj_dir}")
    records = [jointsim.TrajectoryRecord.from_dict(_read_json(p), str(p)) for p in paths]
    q_inits = _check_records(records, paths, robot, ctrl_cfg, "ctrl.h_ctrl")

    with _record_files(paths):
        result = sysid.anneal_fit(records, robot, dyn, kind, init, rng, anneal, ctrl_cfg, q_inits=q_inits)
    out = {
        "best": {"p": list(map(float, result.best.p)), "d": list(map(float, result.best.d))},
        "best_loss": result.best_loss,
        "initial_loss": result.initial_loss,
        "losses": result.losses._asdict(),
        "rounds": [{"round": r.round_index, "best_loss": r.best_loss, "p": list(map(float, r.best_p)),
                    "d": list(map(float, r.best_d)), "evaluations": r.evaluations} for r in result.history],
        "evaluations": result.evaluations,
        "controller": kind,
        "rng_seed": anneal.rng_seed,
    }
    _write((args.out, _json(out)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _load_pd(path: str, n: int) -> jointsim.PDParams:
    obj, where = _read_json(path), path
    if isinstance(obj, dict) and "best" in obj:
        obj, where = obj["best"], f"{path}.best"
    if not isinstance(obj, dict) or "p" not in obj or "d" not in obj:
        raise report.InputFormatError(f"{where}: expected an object with 'p' and 'd'")
    return jointsim.PDParams(_vec_field(obj["p"], n, f"{where}.p"), _vec_field(obj["d"], n, f"{where}.d"))


def cmd_replay(args) -> int:
    robot = chain.chain_from_dict(_read_json(args.chain), args.chain)
    rec = jointsim.TrajectoryRecord.from_dict(_read_json(args.trajectory), args.trajectory)
    pd = _load_pd(args.params, robot.n)
    dyn = _dynamics(_read_json(args.dynamics) if args.dynamics else {}, robot, args.dynamics or "dynamics")
    overrides = {k: v for k, v in (("h_sim", args.sim_hz), ("h_ctrl", args.ctrl_hz)) if v is not None}
    cfg = _ctrl_config(args.controller, overrides or None)
    (q_init,) = _check_records([rec], [args.trajectory], robot, cfg, "--ctrl-hz")

    plan_rows = []

    def dump(step, targets):
        ts = step / cfg.h_ctrl + np.arange(1, targets.shape[0] + 1) * (1.0 / cfg.h_sim)
        plan_rows.append(np.column_stack([ts, targets[:, 0]]))

    with _record_files([args.trajectory]):
        sim = jointsim.replay_open_loop(
            robot, dyn, pd, args.controller, rec, q_init, cfg, plan_sink=dump if args.dump_plan else None
        )
    losses = sysid.trajectory_losses(rec.ee_poses, sim[: len(rec.ee_poses)])
    out = {"ee_poses": [geometry.pose_to_dict(t) for t in sim], "losses": losses._asdict()}
    outputs = [(args.out, _json(out))]
    if args.dump_plan:  # first on standard output
        head = ["t"] + [f"{x}_d{i}" for x in "qva" for i in range(robot.n)] + ["grip_q", "grip_v", "grip_a"]
        lines = [",".join(head)] + [",".join(f"{v:.9f}" for v in row) for rows in plan_rows for row in rows]
        outputs.insert(0, (args.dump_plan, "\n".join(lines) + "\n"))
    _write(*outputs)
    if "-" not in (args.out, args.dump_plan):
        sys.stdout.write(f"loss_translation={losses.translation:.9f} loss_rotation={losses.rotation:.9f} "
                         f"loss_total={losses.total:.9f}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# composite / urdf convert
# ---------------------------------------------------------------------------


def cmd_composite(args) -> int:
    sim = imaging.read_ppm(Path(args.sim).read_bytes())
    real = imaging.read_ppm(Path(args.real).read_bytes())
    mask = imaging.read_pgm(Path(args.mask).read_bytes())
    out = imaging.composite(sim, mask, real, mode=args.mode)
    _write((args.out, imaging.write_ppm(out)))
    return EXIT_OK


def cmd_urdf_convert(args) -> int:
    try:
        text = Path(args.infile).read_text()
    except UnicodeDecodeError as exc:
        raise chain.UrdfParseError(f"{args.infile}: not UTF-8 text ({exc})") from exc
    robot = chain.parse_urdf_subset(text, tip=args.tip)
    _write((args.out, _json(chain.chain_to_dict(robot))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="real2sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    mcmd = sub.add_parser("metrics", help="evaluation-correlation reports")
    msub = mcmd.add_subparsers(dest="subcommand", required=True)

    mreport = msub.add_parser("report", help="per-task CSV report plus aggregate JSON")
    mreport.add_argument("--table", action="append", required=True, help="evaluation-table JSON (repeatable)")
    mreport.add_argument("--out", required=True, help="output directory, or - for stdout CSV")
    mreport.set_defaults(func=cmd_metrics_report)

    mshift = msub.add_parser("shift", help="success-rate deltas under distribution shifts")
    mshift.add_argument("--shifts", required=True, help="shift JSON file")
    mshift.add_argument("--out", required=True, help="output CSV path, or -")
    mshift.set_defaults(func=cmd_metrics_shift)

    scmd = sub.add_parser("sysid", help="PD-gain identification")
    ssub = scmd.add_subparsers(dest="subcommand", required=True)
    sfit = ssub.add_parser("fit", help="fit PD gains to recorded trajectories")
    sfit.add_argument("--trajectories", required=True, help="directory of trajectory JSON files (or one file)")
    sfit.add_argument("--chain", required=True, help="chain JSON file")
    sfit.add_argument("--config", required=True, help="sysid configuration JSON")
    sfit.add_argument("--out", required=True, help="output params JSON path, or -")
    sfit.add_argument("--seed", type=int, default=None, help="override the annealing RNG seed")
    sfit.set_defaults(func=cmd_sysid_fit)

    replay = sub.add_parser("replay", help="open-loop replay of a recorded action sequence")
    replay.add_argument("--trajectory", required=True, help="trajectory JSON file")
    replay.add_argument("--chain", required=True, help="chain JSON file")
    replay.add_argument("--params", required=True, help="PD params JSON (plain or sysid fit output)")
    replay.add_argument("--dynamics", default=None, help="joint dynamics JSON (inertia/damping)")
    replay.add_argument("--controller", choices=["google", "widowx"], required=True)  # jointsim.GOOGLE, WIDOWX
    replay.add_argument("--sim-hz", type=float, default=None, help="override simulation frequency")
    replay.add_argument("--ctrl-hz", type=float, default=None, help="override control frequency")
    replay.add_argument("--out", required=True, help="output poses JSON path, or -")
    replay.add_argument("--dump-plan", default=None, help="write planned per-step targets as CSV")
    replay.set_defaults(func=cmd_replay)

    comp = sub.add_parser("composite", help="green-screen composite of sim over real")
    comp.add_argument("--sim", required=True, help="simulated foreground PPM (P6)")
    comp.add_argument("--mask", required=True, help="foreground mask PGM (P5)")
    comp.add_argument("--real", required=True, help="real background PPM (P6)")
    comp.add_argument("--mode", choices=["hard", "soft"], default="hard")
    comp.add_argument("--out", required=True, help="output PPM path, or -")
    comp.set_defaults(func=cmd_composite)

    urdf = sub.add_parser("urdf", help="robot-description utilities")
    usub = urdf.add_subparsers(dest="subcommand", required=True)
    uconv = usub.add_parser("convert", help="convert a URDF subset to native chain JSON")
    uconv.add_argument("--in", dest="infile", required=True, help="input URDF file")
    uconv.add_argument("--tip", default=None, help="end link of the chain (default: the leaf)")
    uconv.add_argument("--out", required=True, help="output chain JSON path, or -")
    uconv.set_defaults(func=cmd_urdf_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Each handler's tuple is evaluated, loading the layers it names, only when a command fails.
    try:
        return args.func(args)
    except (report.InputFormatError, chain.UrdfParseError, imaging.ImageError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (profile.PlanningError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError and every layer's semantic error class
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
