"""Seeded operation streams for the four benchmark workloads, and their checks.

An operation ("op") is one ``cli.main`` invocation that produces one table.
Each workload is an endless stream of cycles; cycle k is drawn from its own
generator seeded by (seed, k), so two runs with one seed see identical ops
and no two cycles of a run repeat the same inputs (a process-wide cache in
the program cannot turn repeats into free work).

Every op carries a check. A check returns (None, ok rows) when the output
is right, or (``Failure``, 0) naming what was wrong. Failures that match one of the defects
documented at the commit that introduced this benchmark carry that defect's
name in ``known``; they still count as failed ops, but they do not make the
run's ``correct`` flag false. Any other failure does.
"""

import csv
import io
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from sweepdefense import circular_pincer, same_direction, spiral_pincer
from sweepdefense.cli import load_config_file
from sweepdefense.scenario import ProtocolKind, ScenarioParams

WORKLOADS = ("sim-expansion", "sim-defense", "analytic-grid", "shipped-tables")

ROW_STATUSES = ("ok", "SubcriticalSpeed", "NoExpansion", "SpeedTooLow")

PROTOCOLS = tuple(k.value for k in ProtocolKind)
PINCERS = (ProtocolKind.CIRCULAR_PINCER.value, ProtocolKind.SPIRAL_PINCER.value)

CRITICAL = {
    ProtocolKind.CIRCULAR_PINCER.value: circular_pincer.critical_speed,
    ProtocolKind.SPIRAL_PINCER.value: spiral_pincer.critical_speed,
    ProtocolKind.CIRCULAR_SAME_DIRECTION.value: same_direction.circular_same_critical_speed,
    ProtocolKind.SPIRAL_SAME_DIRECTION.value: same_direction.spiral_same_critical_speed,
}

# the analytic shipped configs and the subcommand each one feeds
SHIPPED = {
    "defense-speeds": "critical-speeds",
    "reach-circular": "max-radius",
    "reach-comparison": "max-radius",
    "sweeps-circular": "sweep-count",
    "sweeps-spiral": "sweep-count",
    "schedule-circular": "schedule",
    "schedule-spiral": "schedule",
    "expansion-times": "totals",
    "baseline-comparison": "totals",
}

# Known defects, named in Failure.known.
PINCER_MEETING_BINS = "pincer-meeting-bins"
SPIRAL_BRACKET_COLLAPSE = "spiral-bracket-collapse"
CIRCULAR_SAME_NO_BREACH = "circular-same-holds-below-critical"

# The spiral pincer critical-speed bracket fails from n*r/R0 = 62.37 on
# (RootNotFound, then a math domain error past 20*pi); a failure there is
# the documented collapse, a failure below it is something new.
COLLAPSE_ONSET = 62.0

# analytic-grid: draws per cycle and the r/R0 strata. Seven draws are
# stratified over [0.05, 0.48]; the eighth sits in [0.488, 0.5], where the
# n = 128 grid points lie past the collapse onset. Below 0.05 the sweep
# count grows like R0/r and single ops run for seconds.
DRAWS_PER_CYCLE = 8
RATIO_LO, RATIO_HI = 0.05, 0.48
EDGE_LO, EDGE_HI = 0.488, 0.5
GRID_N = "2,4,8,16,32,64,128"
SCHEDULE_N = "2,4,8,16"
CRITICAL_N = "2:128:2"

# sim-defense: one speed below and one above each protocol's critical speed
DEFENSE = dict(R0=400.0, r=10.0, VT=1.0, eps=0.1)
DEFENSE_N = (2, 32, 128)
DEFENSE_CYCLES = 3
BELOW = (0.6, 0.9)   # Vs = VT + f*(Vc - VT)
ABOVE = (0.02, 0.3)  # Vs = Vc*(1 + g)

# sim-expansion: the shipped simulate configs plus one 36000-bin probe per
# pincer protocol, capped at one sweep, at a seeded surplus like theirs
PROBE = dict(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1)
PROBE_BINS = 36000
PROBE_SURPLUS = (0.3, 0.7)


@dataclass(frozen=True)
class Failure:
    reason: str
    known: Optional[str] = None


@dataclass
class Result:
    """What one op produced: exit code (None when cli.main raised)."""

    rc: Optional[int]
    stdout: str
    stderr: str
    error: Optional[BaseException] = None


Verdict = Tuple[Optional[Failure], int]


@dataclass
class Op:
    label: str
    argv: List[str]
    check: Callable[[Result], Verdict] = field(repr=False)


def _rng(seed: int, workload: str, cycle: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


def _fmt(x: float) -> str:
    return repr(float(x))


def parse_csv(text: str) -> Iterator[Dict[str, str]]:
    return csv.DictReader(io.StringIO(text))


def _count_ok(text: str) -> int:
    return sum(1 for row in parse_csv(text) if row["status"] == "ok")


def _close(a: float, b: float, rel: float = 2e-8) -> bool:
    # tables carry 9 significant digits
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _finite(row: Dict[str, str], keys: Sequence[str]) -> bool:
    for k in keys:
        try:
            if not math.isfinite(float(row[k])):
                return False
        except ValueError:
            return False
    return True


def _exit_failure(result: Result) -> Optional[Failure]:
    if result.error is not None:
        return Failure(f"raised {type(result.error).__name__}: {result.error}")
    if result.rc != 0:
        return Failure(f"exit {result.rc}: {result.stderr.strip()[:200]}")
    return None


# ---------------------------------------------------------------- analytic


def _collapse(result: Result) -> bool:
    """The op died in the spiral pincer critical-speed search."""
    if result.error is not None:
        frames = traceback.extract_tb(result.error.__traceback__)
        return any(
            Path(f.filename).name == "spiral_pincer.py"
            and f.name in ("_contraction", "_balance")
            for f in frames
        )
    return result.rc == 2 and "spiral critical speed search failed" in result.stderr


def _analytic_check(cmd: str, R0: float, r: float, VT: float, n_max: int, points: int):
    def check(result: Result) -> Verdict:
        failure = _exit_failure(result)
        if failure is not None:
            if n_max * r / R0 >= COLLAPSE_ONSET and _collapse(result):
                failure = Failure(failure.reason, SPIRAL_BRACKET_COLLAPSE)
            return failure, 0
        ok = rows = runs = 0
        prev_R = None
        for i, row in enumerate(parse_csv(result.stdout)):
            rows += 1
            bad = _analytic_row(cmd, row, VT)
            if bad:
                return Failure(f"row {i}: {bad}"), 0
            if row["status"] != "ok":
                runs += 1
                prev_R = None
                continue
            ok += 1
            if cmd == "schedule":
                # one run of rows per grid point, counting up from index 0
                if row["index"] == "0":
                    runs += 1
                elif prev_R is None or not float(row["R_i"]) > prev_R:
                    return Failure(f"row {i}: R_i does not grow along its schedule"), 0
                prev_R = float(row["R_i"])
        if cmd != "schedule":
            runs = rows
        if runs != points:
            return Failure(f"{runs} grid points in the table, the grid has {points}"), 0
        return None, ok

    return check


def _analytic_row(cmd: str, row: Dict[str, str], VT: float) -> Optional[str]:
    status = row["status"]
    if status not in ROW_STATUSES:
        return f"undocumented status {status!r}"
    if status != "ok":
        return None
    if cmd == "critical-speeds":
        keys = ["V_LB", "Vc_circ_pincer", "Vc_spiral_pincer", "Vc_circ_same", "Vc_spiral_same"]
        if not _finite(row, keys):
            return "non-finite value"
        vlb, vcp, vsp, vcs = (float(row[k]) for k in keys[:4])
        tol = 2e-8 * vcs
        if not vlb <= vsp + tol:
            return "Vc_spiral_pincer < V_LB"
        # A spiral sweep needs Vs > VT by construction, so once 2 V_LB nears
        # VT the circular pincer is the faster one; the ordering is a claim
        # about the regime V_LB >= VT only.
        if vlb >= VT and not vsp <= vcp + tol:
            return "Vc_spiral_pincer > Vc_circ_pincer with V_LB >= VT"
        if not _close(vcp, 2.0 * vlb):
            return "Vc_circ_pincer != 2 V_LB"
        if not (vcp < vcs and abs(vcs - (vcp + VT)) <= tol):
            return "Vc_circ_same != Vc_circ_pincer + VT"
    elif cmd == "max-radius":
        if not _finite(row, ["eps", "Vs", "R_asym", "R_max"]):
            return "non-finite value"
        R_asym, R_max, eps = float(row["R_asym"]), float(row["R_max"]), float(row["eps"])
        if abs(R_max - (R_asym - eps)) > 2e-8 * R_asym:
            return "R_max != R_asym - eps"
    elif cmd == "sweep-count":
        if not (row["N_n"].isdigit() and int(row["N_n"]) >= 1):
            return f"N_n={row['N_n']!r} is not a positive integer"
    elif cmd == "totals":
        keys = ["R_last", "R_max", "R_asym", "T_sweep_total", "T_out_total", "T_out_last", "T_total"]
        if not _finite(row, keys) or not row["N_n"].isdigit():
            return "non-finite value"
        total, sweep, out = (float(row[k]) for k in ("T_total", "T_sweep_total", "T_out_total"))
        if abs(total - (sweep + out)) > 2e-8 * max(abs(total), abs(sweep) + abs(out)):
            return "T_total != T_sweep_total + T_out_total"
        if not _close(float(row["R_max"]), float(row["R_asym"]) - float(row["eps"]), 1e-7):
            return "R_max != R_asym - eps"
    elif cmd == "schedule":
        if not _finite(row, ["R_i", "delta_i", "delta_eff_i", "T_sweep_i", "T_out_i"]):
            return "non-finite value"
    return None


def analytic_cycle(seed: int, cycle: int) -> List[Op]:
    rng = _rng(seed, "analytic-grid", cycle)
    D = DRAWS_PER_CYCLE
    width = (RATIO_HI - RATIO_LO) / (D - 1)
    ratios = [RATIO_LO + (k + rng.random()) * width for k in range(D - 1)]
    ratios.append(rng.uniform(EDGE_LO, EDGE_HI))
    # Latin-hypercube speed surpluses, in multiples of VT
    lo_perm, hi_perm = list(range(D)), list(range(D))
    rng.shuffle(lo_perm)
    rng.shuffle(hi_perm)
    ops: List[Op] = []
    for k, ratio in enumerate(ratios):
        R0 = 50.0 * 10.0 ** rng.random()
        r = R0 * ratio
        VT = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.005, 0.02)
        eps = (r * c, r * c / 5.0)
        d_lo = 0.5 + 2.5 * (lo_perm[k] + rng.random()) / D
        d_hi = 3.0 + 17.0 * (hi_perm[k] + rng.random()) / D
        base = ["--R0", _fmt(R0), "--r", _fmt(r), "--VT", _fmt(VT)]
        grid = base + [
            "--eps", ",".join(_fmt(e) for e in eps),
            "--protocol", ",".join(PROTOCOLS),
            "--speed-mode", "delta-own",
            "--dV", ",".join(_fmt(VT * d) for d in (d_lo, d_hi)),
        ]
        per_n = len(PROTOCOLS) * 2 * 2
        specs = [
            ("critical-speeds", base + ["--n", CRITICAL_N], 128, 64),
            ("max-radius", grid + ["--n", GRID_N], 128, 7 * per_n),
            ("sweep-count", grid + ["--n", GRID_N], 128, 7 * per_n),
            ("totals", grid + ["--n", GRID_N], 128, 7 * per_n),
            ("schedule", grid + ["--n", SCHEDULE_N], 16, 4 * per_n),
        ]
        for cmd, args, n_max, points in specs:
            ops.append(
                Op(
                    label=f"{cmd} r/R0={ratio:.3f}",
                    argv=[cmd] + args,
                    check=_analytic_check(cmd, R0, r, VT, n_max, points),
                )
            )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- simulator


def _params(values: Dict[str, float], n: int) -> ScenarioParams:
    return ScenarioParams(R0=values["R0"], r=values["r"], VT=values["VT"], n=n, eps=values["eps"])


def _expansion_check(params: ScenarioParams, protocol: str, Vs: float, max_sweeps: Optional[int]):
    """Sweep-end radii track the analytic schedule within 2x grid_tolerance."""

    def check(result: Result) -> Verdict:
        failure = _exit_failure(result)
        if failure is not None:
            return failure, 0
        rows = list(parse_csv(result.stdout))
        if protocol == ProtocolKind.CIRCULAR_PINCER.value:
            steps = circular_pincer.expansion_schedule(params, Vs)
        else:
            steps = spiral_pincer.expansion_schedule(params, Vs)
        if max_sweeps is not None:
            steps = steps[:max_sweeps]
        if len(rows) != len(steps):
            return Failure(f"{len(rows)} sweep rows, schedule has {len(steps)}"), 0
        for row, step in zip(rows, steps):
            if row["status"] != "ok" or row["mode"] != "expansion":
                return Failure(f"sweep {row['index']}: mode {row['mode']}, status {row['status']}"), 0
            if row["breaches"] != "0":
                return Failure(f"{row['breaches']} breaches in an expansion"), 0
            tol = 2.0 * float(row["grid_tolerance"])
            if protocol == ProtocolKind.CIRCULAR_PINCER.value:
                lo = step.R_i + params.r + step.delta_i
                hi = step.R_i + 2.0 * params.r
            else:
                lo = hi = step.R_i + step.delta_i
            if abs(float(row["rho_min"]) - lo) > tol or abs(float(row["rho_max"]) - hi) > tol:
                return Failure(f"sweep {step.index}: radii off the schedule by more than {tol:.4g}"), 0
        return None, len(rows)

    return check


def _defense_check(protocol: str, below: bool):
    """Breaches below the critical speed, none at or above it."""

    def check(result: Result) -> Verdict:
        failure = _exit_failure(result)
        if failure is not None:
            return failure, 0
        rows = list(parse_csv(result.stdout))
        if len(rows) != DEFENSE_CYCLES or any(
            row["status"] != "ok" or row["mode"] != "defense" for row in rows
        ):
            return Failure("expected one ok defense row per cycle"), 0
        breaches = int(rows[0]["breaches"])
        if below and breaches == 0:
            known = CIRCULAR_SAME_NO_BREACH if protocol == "circular-same" else None
            return Failure("no breach below the critical speed", known), 0
        if not below and breaches > 0:
            known = PINCER_MEETING_BINS if protocol in PINCERS and breaches <= 8 else None
            return Failure(f"{breaches} breaches above the critical speed", known), 0
        return None, len(rows)

    return check


def defense_cycle(seed: int, cycle: int) -> List[Op]:
    rng = _rng(seed, "sim-defense", cycle)
    ops: List[Op] = []
    for protocol in PROTOCOLS:
        for n in DEFENSE_N:
            Vc = CRITICAL[protocol](_params(DEFENSE, n))
            VT = DEFENSE["VT"]
            speeds = (
                (True, VT + rng.uniform(*BELOW) * (Vc - VT)),
                (False, Vc * (1.0 + rng.uniform(*ABOVE))),
            )
            for below, Vs in speeds:
                argv = ["simulate", "--mode", "defense", "--cycles", str(DEFENSE_CYCLES)]
                argv += ["--R0", _fmt(DEFENSE["R0"]), "--r", _fmt(DEFENSE["r"])]
                argv += ["--VT", _fmt(VT), "--eps", _fmt(DEFENSE["eps"]), "--n", str(n)]
                argv += ["--protocol", protocol, "--Vs", _fmt(Vs)]
                side = "below" if below else "above"
                ops.append(Op(f"defense {protocol} n={n} {side}", argv, _defense_check(protocol, below)))
    rng.shuffle(ops)
    return ops


def expansion_cycle(seed: int, cycle: int, root: Path) -> List[Op]:
    rng = _rng(seed, "sim-expansion", cycle)
    ops: List[Op] = []
    for name in ("simulate-circular", "simulate-spiral"):
        path = root / "configs" / f"{name}.cfg"
        cfg = load_config_file(str(path))
        values = {k: float(cfg[k]) for k in ("R0", "r", "VT", "eps")}
        params = _params(values, int(cfg["n"]))
        check = _expansion_check(params, cfg["protocol"], float(cfg["Vs"]), None)
        ops.append(Op(name, ["simulate", "--config", str(path)], check))
    for protocol in PINCERS:
        params = _params(PROBE, PROBE["n"])
        Vs = CRITICAL[protocol](params) + rng.uniform(*PROBE_SURPLUS) * PROBE["VT"]
        argv = ["simulate", "--bins", str(PROBE_BINS), "--max-sweeps", "1"]
        argv += ["--R0", _fmt(PROBE["R0"]), "--r", _fmt(PROBE["r"]), "--VT", _fmt(PROBE["VT"])]
        argv += ["--eps", _fmt(PROBE["eps"]), "--n", str(PROBE["n"])]
        argv += ["--protocol", protocol, "--Vs", _fmt(Vs)]
        check = _expansion_check(params, protocol, Vs, 1)
        ops.append(Op(f"probe {protocol} bins={PROBE_BINS}", argv, check))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- shipped


def _golden_check(out: Path, golden: Path):
    def check(result: Result) -> Verdict:
        failure = _exit_failure(result)
        if failure is not None:
            return failure, 0
        table = out.read_bytes()
        if table != golden.read_bytes():
            return Failure(f"{out.name} differs from {golden.name}"), 0
        return None, _count_ok(table.decode("utf-8"))

    return check


def shipped_cycle(seed: int, cycle: int, root: Path, out_dir: Path) -> List[Op]:
    rng = _rng(seed, "shipped-tables", cycle)
    golden_dir = Path(__file__).resolve().parent / "expected"
    ops: List[Op] = []
    for name, cmd in SHIPPED.items():
        out = out_dir / f"{name}.csv"
        argv = [cmd, "--config", str(root / "configs" / f"{name}.cfg"), "--out", str(out)]
        ops.append(Op(name, argv, _golden_check(out, golden_dir / f"{name}.csv")))
    rng.shuffle(ops)
    return ops


def cycle_ops(workload: str, seed: int, cycle: int, root: Path, out_dir: Path) -> List[Op]:
    if workload == "sim-expansion":
        return expansion_cycle(seed, cycle, root)
    if workload == "sim-defense":
        return defense_cycle(seed, cycle)
    if workload == "analytic-grid":
        return analytic_cycle(seed, cycle)
    if workload == "shipped-tables":
        return shipped_cycle(seed, cycle, root, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
