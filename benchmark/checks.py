"""Output checks: each recomputes a result apart from ``real2sim`` or tests a
property the method must have, and raises ``CheckError`` on a mismatch."""

from __future__ import annotations

import csv
import io
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

import kin

# Losses are means of per-step terms; the rotation term is taken here as
# acos|qa.qb| and by the program as arcsin(|dR|_F / 2 sqrt 2). Both equal half
# the rotation angle; acos loses precision near angle 0 (about 1.5e-8), so
# 1e-7 still rejects a loss that is off by 1e-6.
LOSS_TOL = 1e-7
STAT_TOL = 1e-9
# The Google stack's planning limits (v_max, a_max) for the arm and the gripper.
GOOGLE_ARM_LIMITS = (1.5, 2.0)
GOOGLE_GRIP_LIMITS = (1.0, 7.0)
# The published values of the bundled fixtures (SIMPLER, Tables 1 and 5).
PUBLISHED_MMRV = {
    "pick-coke-can-avg": 0.031,
    "move-near": 0.111,
    "open-drawer": 0.000,
    "close-drawer": 0.123,
    "open-close-drawer-avg": 0.055,
}
PUBLISHED_PEARSON = {"pick-coke-can-avg": 0.976}
PUBLISHED_SHIFT_ABS = {"lighting": 0.040, "table-texture": 0.113, "camera-pose": 0.753}


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# sysid fit and replay
# ---------------------------------------------------------------------------


def check_replay_losses(record: dict, replay: dict) -> None:
    """The replay's reported total loss equals a recomputation from its poses."""
    own = kin.tracking_loss(record["ee_poses"], replay["ee_poses"])
    got = replay["losses"]["total"]
    _require(abs(own - got) <= LOSS_TOL, f"replay loss {got!r} but the poses give {own!r}")


def _inside(v: float, low: float, high: float) -> bool:
    # low + u (high - low) at u = 1 may land one rounding step past high
    return low * (1 - 1e-12) <= v <= high * (1 + 1e-12)


def check_fit(fit: dict, config: dict, records: list[dict], replays: list[list[dict]]) -> None:
    """``replays[i]`` holds the poses of record ``i`` replayed with the fit's gains."""
    anneal = config["anneal"]
    rng = config["range"]
    want_evals = 1 + anneal["rounds"] * anneal["iters_per_round"]
    _require(fit["evaluations"] == want_evals, f"{fit['evaluations']} evaluations, expected {want_evals}")
    _require(len(fit["rounds"]) == anneal["rounds"], f"{len(fit['rounds'])} rounds reported")
    _require(fit["best_loss"] <= fit["initial_loss"], "best loss exceeds the initial loss")
    p, d = fit["best"]["p"], fit["best"]["d"]
    _require(all(_inside(v, rng["p_low"], rng["p_high"]) for v in p), f"p {p} outside the search range")
    _require(all(_inside(v, rng["d_low"], rng["d_high"]) for v in d), f"d {d} outside the search range")
    if anneal.get("tie_joints"):
        _require(len(set(p)) == 1 and len(set(d)) == 1, "tied gains differ between joints")
    round_best = [r["best_loss"] for r in fit["rounds"]]
    _require(all(b <= a for a, b in zip(round_best, round_best[1:])), "a round's best loss rose")
    _require(round_best[-1] == fit["best_loss"], "the last round's best is not the fit's best")
    _require(len(replays) == len(records), "one replay per record is needed")
    own = sum(kin.tracking_loss(r["ee_poses"], s) for r, s in zip(records, replays)) / len(records)
    _require(abs(own - fit["best_loss"]) <= LOSS_TOL, f"best_loss {fit['best_loss']!r}, replay gives {own!r}")
    _require(abs(own - fit["losses"]["total"]) <= LOSS_TOL, f"losses.total {fit['losses']['total']!r}, replay gives {own!r}")


def check_plan_dump(text: str, n_joints: int, n_rows: int) -> None:
    """Every planned row keeps |v| and |a| within the Google limit sets."""
    rows = list(csv.reader(io.StringIO(text)))
    head, body = rows[0], rows[1:]
    _require(len(body) == n_rows, f"{len(body)} plan rows, expected {n_rows}")
    cols = {name: i for i, name in enumerate(head)}
    limited = [(f"v_d{j}", GOOGLE_ARM_LIMITS[0]) for j in range(n_joints)]
    limited += [(f"a_d{j}", GOOGLE_ARM_LIMITS[1]) for j in range(n_joints)]
    limited += [("grip_v", GOOGLE_GRIP_LIMITS[0]), ("grip_a", GOOGLE_GRIP_LIMITS[1])]
    for k, row in enumerate(body):
        for name, bound in limited:
            value = float(row[cols[name]])
            _require(abs(value) <= bound * (1 + 1e-6), f"plan row {k}: {name} = {value} exceeds {bound}")


# ---------------------------------------------------------------------------
# metrics report and shift
# ---------------------------------------------------------------------------


def mmrv(real, sim) -> float:
    worst = [0.0] * len(real)
    for i in range(len(real)):
        for j in range(len(real)):
            if (sim[i] < sim[j]) != (real[i] < real[j]):
                worst[i] = max(worst[i], abs(real[i] - real[j]))
    return sum(worst) / len(worst)


def pearson(x, y) -> float | None:
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def average_ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        for k in range(start, stop + 1):
            ranks[order[k]] = (start + stop) / 2 + 1
        start = stop + 1
    return ranks


def kruskal_p(a, b) -> float:
    """Two-group Kruskal-Wallis p with tie correction; chi-square(1) tail erfc(sqrt(h/2))."""
    pooled = list(a) + list(b)
    n = len(pooled)
    ranks = average_ranks(pooled)
    grand = (n + 1) / 2
    ra = sum(ranks[: len(a)]) / len(a)
    rb = sum(ranks[len(a):]) / len(b)
    h = 12.0 / (n * (n + 1)) * (len(a) * (ra - grand) ** 2 + len(b) * (rb - grand) ** 2)
    ties = {v: pooled.count(v) for v in set(pooled)}
    correction = 1.0 - sum(t**3 - t for t in ties.values()) / (n**3 - n)
    if correction <= 0.0:
        return 1.0
    return math.erfc(math.sqrt(h / correction / 2.0))


def _close(got, want, tol: float) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= tol


def check_bundled_report(aggregate: dict) -> None:
    """The bundled Google Robot tables give the paper's MMRV and Pearson."""
    by_task = {t["task"]: t for t in aggregate["tables"]}
    for task, want in PUBLISHED_MMRV.items():
        got = by_task[task]["mmrv"]
        _require(abs(got - want) <= 0.0015, f"{task}: MMRV {got:.4f}, published {want:.3f}")
    for task, want in PUBLISHED_PEARSON.items():
        got = by_task[task]["pearson"]
        _require(got is not None and abs(got - want) <= 0.005, f"{task}: Pearson {got}, published {want}")


def check_generated_report(tables: dict, aggregate: dict, csv_texts: dict[str, str]) -> None:
    """Every table statistic matches the benchmark's own recomputation."""
    by_task = {t["task"]: t for t in aggregate["tables"]}
    _require(set(by_task) == {t["task"] for t in tables["tables"]}, "report tasks differ from the inputs")
    for table in tables["tables"]:
        task = table["task"]
        got = by_task[task]
        real = [e["real_rate"] for e in table["evals"]]
        sim = [e["sim_rate"] for e in table["evals"]]
        own_mmrv = mmrv(real, sim)
        _require(abs(got["mmrv"] - own_mmrv) <= STAT_TOL, f"{task}: MMRV {got['mmrv']!r}, own {own_mmrv!r}")
        own_r = pearson(real, sim)
        _require(_close(got["pearson"], own_r, STAT_TOL), f"{task}: Pearson {got['pearson']!r}, own {own_r!r}")
        own_rho = pearson(average_ranks(real), average_ranks(sim))
        _require(_close(got["spearman"], own_rho, STAT_TOL), f"{task}: Spearman {got['spearman']!r}, own {own_rho!r}")
        _require(len(got["kruskal_p"]) == len(table["evals"]), f"{task}: Kruskal-Wallis p missing for some policies")
        for e in table["evals"]:
            own_p = kruskal_p(e["real_trials"], e["sim_trials"])
            p = got["kruskal_p"][e["policy_id"]]
            _require(abs(p - own_p) <= STAT_TOL, f"{task}/{e['policy_id']}: Kruskal-Wallis p {p!r}, own {own_p!r}")
        footer = {row[1]: row[4] for row in csv.reader(io.StringIO(csv_texts[task])) if row[0] == task}
        _require(abs(float(footer["MMRV"]) - own_mmrv) <= 5.01e-7, f"{task}.csv: MMRV row {footer['MMRV']!r}, own {own_mmrv!r}")


def _shift_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_bundled_shift(text: str) -> None:
    """The bundled RT-1 shift file gives the paper's absolute deltas."""
    rows = {(r["policy"], r["factor"]): r for r in _shift_rows(text)}
    for factor, want in PUBLISHED_SHIFT_ABS.items():
        got = float(rows[("rt-1-no-aug", factor)]["delta_abs"])
        _require(abs(got - want) <= 0.001, f"rt-1-no-aug/{factor}: delta {got}, published {want}")


def check_generated_shift(shifts: dict, text: str) -> None:
    rows = {(r["policy"], r["factor"]): r for r in _shift_rows(text)}
    want = [(s["policy"], factor, rates, s["base"]) for s in shifts["shifts"] for factor, rates in s["factors"].items()]
    _require(len(rows) == len(want), f"{len(rows)} shift rows, expected {len(want)}")
    for policy, factor, rates, base in want:
        row = rows.get((policy, factor))
        _require(row is not None, f"no shift row for {policy}/{factor}")
        diffs = [r - base for r in rates]
        signed = math.fsum(diffs) / len(diffs)
        absolute = math.fsum(abs(x) for x in diffs) / len(diffs)
        for name, own in (("delta_signed", signed), ("delta_abs", absolute)):
            got = float(row[name])
            _require(abs(got - own) <= 1.5e-6, f"{policy}/{factor}: {name} {got}, own {own:.9f}")


# ---------------------------------------------------------------------------
# composite and urdf convert
# ---------------------------------------------------------------------------


_NETPBM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s")


def read_netpbm(data: bytes) -> np.ndarray:
    """Pixels of a binary P6/P5 file with maxval 255 as an array. Exactly one
    whitespace byte follows the maxval; the payload may begin with more."""
    header = _NETPBM_HEADER.match(data)
    _require(header is not None, "not a binary P6/P5 file with maxval 255")
    w, h = int(header[2]), int(header[3])
    channels = 3 if header[1] == b"P6" else 1
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h * channels, offset=header.end())
    return pixels.reshape(h, w, channels)


def composite(sim: bytes, mask: bytes, real: bytes, mode: str) -> bytes:
    """Hard: sim where mask >= 128. Soft: (m s + (255 - m) r) / 255 rounded half up."""
    s = read_netpbm(sim).astype(np.int64)
    r = read_netpbm(real).astype(np.int64)
    m = read_netpbm(mask).astype(np.int64)
    if mode == "hard":
        out = np.where(m >= 128, s, r)
    else:
        out = (2 * (m * s + (255 - m) * r) + 255) // 510
    h, w = out.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + out.astype(np.uint8).tobytes()


def check_composite(sim: bytes, mask: bytes, real: bytes, mode: str, out: bytes) -> None:
    want = composite(sim, mask, real, mode)
    if out != want:
        diff = len(out) != len(want) or int(np.count_nonzero(np.frombuffer(out, np.uint8) != np.frombuffer(want, np.uint8)))
        raise CheckError(f"{mode} composite differs from the recomputation ({diff} bytes)")


def urdf_fk(text: str, q) -> np.ndarray:
    """Tool transform of a serial URDF at joint values ``q`` (moving joints in order)."""
    root = ET.fromstring(text)
    by_parent = {j.find("parent").get("link"): j for j in root.findall("joint")}
    children = {j.find("child").get("link") for j in root.findall("joint")}
    link = next(lk.get("name") for lk in root.findall("link") if lk.get("name") not in children)
    t = np.eye(4)
    values = iter(q)
    while link in by_parent:
        joint = by_parent[link]
        origin = joint.find("origin")
        xyz = [float(v) for v in origin.get("xyz").split()]
        rpy = [float(v) for v in origin.get("rpy").split()]
        t = t @ kin.transform(kin.rpy_rotation(*rpy), xyz)
        if joint.get("type") == "revolute":
            axis = [float(v) for v in joint.find("axis").get("xyz").split()]
            t = t @ kin.transform(kin.axis_rotation(axis, next(values)), np.zeros(3))
        link = joint.find("child").get("link")
    return t


def check_urdf(text: str, chain: dict, rng: np.random.Generator) -> None:
    """Joint names and limits carry over, and FK agrees at random configurations."""
    moving = [j for j in ET.fromstring(text).findall("joint") if j.get("type") != "fixed"]
    _require([j["name"] for j in chain["joints"]] == [j.get("name") for j in moving], "joint names differ")
    for spec, joint in zip(chain["joints"], moving):
        lim = joint.find("limit")
        _require(
            spec["limits"] == [float(lim.get("lower")), float(lim.get("upper"))],
            f"{spec['name']}: limits {spec['limits']} differ from the URDF",
        )
    for _ in range(8):
        q = [rng.uniform(lo, hi) for lo, hi in (j["limits"] for j in chain["joints"])]
        gap = np.abs(kin.chain_fk(chain, q) - urdf_fk(text, q)).max()
        _require(gap <= 1e-9, f"converted chain FK differs from the URDF by {gap:.2e}")
