"""Command line front end: parameter sweeps emitted as tables.

Each subcommand evaluates one library surface over a grid of scenarios
and prints (or writes) a table with one row per grid point, always ending
in a status column. Grid points that fail for a domain reason, like a
subcritical speed, become rows with that status instead of aborting the
sweep; genuine numerical failures abort with exit code 2.

Configuration is flat key=value text, overridable by flags. Speeds can be
given directly or as offsets above a critical speed, either each
protocol's own or that of a fixed reference protocol and defender count,
matching how the comparison scenarios are usually specified.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__, circular_pincer, protocols, report, same_direction, simulator, spiral_pincer
from .bounds import universal_lower_bound
from .errors import (
    ConfigError,
    InvalidParam,
    MaxIterations,
    NoExpansion,
    RootNotFound,
    SpeedTooLow,
    SubcriticalSpeed,
)
from .protocols import CRITICAL as _CRITICAL
from .report import Table
from .scenario import ProtocolKind, ScenarioParams, validate
from .simulator import SimConfig


class SpeedMode(Enum):
    ABSOLUTE = "absolute"
    DELTA_OWN = "delta-own"
    DELTA_REFERENCE = "delta-reference"


_KIND_BY_NAME = {k.value: k for k in ProtocolKind}

# domain outcomes that mark a grid point instead of aborting the sweep
_ROW_ERRORS = (SubcriticalSpeed, NoExpansion, SpeedTooLow)


@dataclass(frozen=True)
class RunConfig:
    R0: float = 100.0
    r: float = 10.0
    VT: float = 1.0
    n: Tuple[int, ...] = (2,)
    eps: Tuple[float, ...] = (0.1,)
    protocol: Tuple[ProtocolKind, ...] = (ProtocolKind.CIRCULAR_PINCER,)
    speed_mode: SpeedMode = SpeedMode.ABSOLUTE
    Vs: Tuple[float, ...] = ()
    dV: Tuple[float, ...] = ()
    ref_protocol: ProtocolKind = ProtocolKind.CIRCULAR_PINCER
    ref_n: int = 2
    target_radius: Optional[float] = None
    bins: int = 3600
    dt: Optional[float] = None
    mode: str = "auto"
    cycles: int = 3
    max_sweeps: Optional[int] = None
    out: Optional[str] = None
    format: str = "csv"

    def scenario(self, n: int, eps: float) -> ScenarioParams:
        return validate(ScenarioParams(R0=self.R0, r=self.r, VT=self.VT, n=n, eps=eps))


# Most values one list key may hold. A lo:hi:step token is counted before
# it is expanded, so a token like 2:2000000000:2 is refused at once instead
# of growing time and memory with its count.
MAX_LIST_VALUES = 1_000_000


def _check_count(key: str, token: str, have: int, count: int) -> None:
    if have + count > MAX_LIST_VALUES:
        raise ConfigError(
            f"{key}={token!r}: more than {MAX_LIST_VALUES} values in one key"
        )


def _parse_int_list(text: str, key: str) -> Tuple[int, ...]:
    out: List[int] = []
    for token in filter(None, text.split(",")):
        try:
            if ":" in token:
                lo, hi, step = (int(x) for x in token.split(":"))
                if step == 0:
                    raise ValueError("zero step")
                count = max((hi - lo) // step + 1, 0)  # inclusive of hi
                values = range(lo, lo + count * step, step)
            else:
                count, values = 1, (int(token),)
        except ValueError as exc:
            raise ConfigError(f"{key}={token!r}: expected int or lo:hi:step") from exc
        _check_count(key, token, len(out), count)
        out.extend(values)
    return tuple(out)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_float_list(text: str, key: str) -> Tuple[float, ...]:
    out: List[float] = []
    for token in filter(None, text.split(",")):
        try:
            if ":" in token:
                lo, hi, step = (_finite(x) for x in token.split(":"))
                if step <= 0.0:
                    raise ValueError("step must be positive")
                # clamped before int(): the quotient is inf when hi - lo overflows
                span = min((hi - lo) / step + 1e-9, MAX_LIST_VALUES)
                count = int(span) + 1 if span > -1.0 else 0
                values = (lo + i * step for i in range(count))
            else:
                count, values = 1, (_finite(token),)
        except ValueError as exc:
            raise ConfigError(
                f"{key}={token!r}: expected a finite float or lo:hi:step"
            ) from exc
        _check_count(key, token, len(out), count)
        out.extend(values)
    return tuple(out)


def _parse_protocols(text: str, key: str) -> Tuple[ProtocolKind, ...]:
    kinds = []
    for token in filter(None, text.split(",")):
        if token not in _KIND_BY_NAME:
            raise ConfigError(
                f"{key}={token!r}: expected one of {', '.join(sorted(_KIND_BY_NAME))}"
            )
        kinds.append(_KIND_BY_NAME[token])
    return tuple(kinds)


def load_config_file(path: str) -> Dict[str, str]:
    """Flat key=value text; # starts a comment, blank lines are skipped."""
    values: Dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# Every subcommand takes the same flags, one per config key plus --config,
# in help order: key -> help. The flag is the key with "-" for "_".
_FLAG_HELP = {
    "config": "flat key=value config file",
    "out": "write the table here instead of stdout",
    "format": "csv or json (default csv)",
    "R0": "initial protected radius",
    "r": "sensor half-length",
    "VT": "threat speed",
    "n": "defender counts, e.g. 2,4 or 2:32:2",
    "eps": "expansion stop gaps, comma list or lo:hi:step",
    "Vs": "defender speeds (speed_mode=absolute)",
    "dV": "speed offsets for the delta speed modes",
    "protocol": "comma list of protocol names",
    "speed_mode": "absolute, delta-own or delta-reference",
    "ref_protocol": "delta-reference base protocol",
    "ref_n": "delta-reference defender count",
    "target_radius": "totals: stop at this radius instead of eps short of the asymptote",
    "bins": "simulator angular bins (default 3600)",
    "dt": "simulator tick, default auto",
    "mode": "simulator mode: auto, defense or expansion",
    "cycles": "simulator defense cycles (default 3)",
    "max_sweeps": "simulator expansion cap",
}

_KEYS = tuple(key for key in _FLAG_HELP if key != "config")


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(key: str) -> Optional[str]:
        cli = getattr(args, key, None)
        if cli is not None:
            return cli
        return file_cfg.get(key)

    def number(key: str, default: float) -> float:
        raw = pick(key)
        if raw is None or raw == "":
            return default
        try:
            return _finite(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r}: expected a finite number") from exc

    def integer(key: str, default: Optional[int]) -> Optional[int]:
        raw = pick(key)
        if raw is None or raw == "":
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r}: expected an integer") from exc

    base = RunConfig()
    raw_mode = pick("speed_mode") or base.speed_mode.value
    try:
        speed_mode = SpeedMode(raw_mode)
    except ValueError as exc:
        raise ConfigError(
            f"speed_mode={raw_mode!r}: expected one of "
            f"{', '.join(m.value for m in SpeedMode)}"
        ) from exc

    raw_ref = pick("ref_protocol") or base.ref_protocol.value
    ref = _parse_protocols(raw_ref, "ref_protocol")
    if len(ref) != 1:
        raise ConfigError("ref_protocol must name exactly one protocol")

    fmt = pick("format") or base.format
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format={fmt!r}: expected csv or json")

    mode = pick("mode") or base.mode
    target = pick("target_radius")
    raw_dt = pick("dt")

    return RunConfig(
        R0=number("R0", base.R0),
        r=number("r", base.r),
        VT=number("VT", base.VT),
        n=_parse_int_list(pick("n"), "n") if pick("n") is not None else base.n,
        eps=_parse_float_list(pick("eps"), "eps") if pick("eps") is not None else base.eps,
        protocol=(
            _parse_protocols(pick("protocol"), "protocol")
            if pick("protocol") is not None
            else base.protocol
        ),
        speed_mode=speed_mode,
        Vs=_parse_float_list(pick("Vs") or "", "Vs"),
        dV=_parse_float_list(pick("dV") or "", "dV"),
        ref_protocol=ref[0],
        ref_n=integer("ref_n", base.ref_n),
        target_radius=None if target in (None, "") else number("target_radius", 0.0),
        bins=integer("bins", base.bins),
        dt=None if raw_dt in (None, "") else number("dt", 0.0),
        mode=mode,
        cycles=integer("cycles", base.cycles),
        max_sweeps=integer("max_sweeps", base.max_sweeps),
        out=pick("out") or None,
        format=fmt,
    )


def _resolved_speeds(
    cfg: RunConfig, kind: ProtocolKind, n: int, eps: float
) -> List[Tuple[Optional[float], float]]:
    """(dV, Vs) pairs for one grid point; dV is None in absolute mode."""
    if cfg.speed_mode is SpeedMode.ABSOLUTE:
        if not cfg.Vs:
            raise ConfigError("speed_mode=absolute needs a nonempty Vs list")
        return [(None, v) for v in cfg.Vs]
    if not cfg.dV:
        raise ConfigError(f"speed_mode={cfg.speed_mode.value} needs a nonempty dV list")
    if cfg.speed_mode is SpeedMode.DELTA_OWN:
        base = _CRITICAL[kind](cfg.scenario(n, eps))
    else:
        base = _CRITICAL[cfg.ref_protocol](cfg.scenario(cfg.ref_n, eps))
    return [(d, base + d) for d in cfg.dV]


def _grid(cfg: RunConfig):
    """Deterministic row order: protocol, then n, then eps, then speed."""
    for kind in cfg.protocol:
        for n in cfg.n:
            for eps in cfg.eps:
                for dV, Vs in _resolved_speeds(cfg, kind, n, eps):
                    yield kind, n, eps, dV, Vs


def cmd_critical_speeds(cfg: RunConfig) -> Table:
    table = Table(
        [
            "n",
            "V_LB",
            "Vc_circ_pincer",
            "Vc_spiral_pincer",
            "Vc_circ_same",
            "Vc_spiral_same",
            "status",
        ]
    )
    for n in cfg.n:
        params = cfg.scenario(n, cfg.eps[0] if cfg.eps else 0.1)
        table.append(
            n,
            universal_lower_bound(params),
            circular_pincer.critical_speed(params),
            spiral_pincer.critical_speed(params),
            same_direction.circular_same_critical_speed(params),
            same_direction.spiral_same_critical_speed(params),
            "ok",
        )
    return table


def cmd_max_radius(cfg: RunConfig) -> Table:
    table = Table(["protocol", "n", "eps", "Vs", "R_asym", "R_max", "status"])
    for kind, n, eps, _, Vs in _grid(cfg):
        params = cfg.scenario(n, eps)
        try:
            asym = protocols.max_radius(params, Vs, kind)
        except _ROW_ERRORS as exc:
            table.append(kind.value, n, eps, Vs, None, None, type(exc).__name__)
            continue
        table.append(kind.value, n, eps, Vs, asym, asym - eps, "ok")
    return table


def cmd_sweep_count(cfg: RunConfig) -> Table:
    table = Table(["protocol", "n", "eps", "Vs", "N_n", "status"])
    for kind, n, eps, _, Vs in _grid(cfg):
        params = cfg.scenario(n, eps)
        try:
            count = protocols.totals(params, Vs, kind).N_n
        except _ROW_ERRORS as exc:
            table.append(kind.value, n, eps, Vs, None, type(exc).__name__)
            continue
        table.append(kind.value, n, eps, Vs, count, "ok")
    return table


def cmd_schedule(cfg: RunConfig) -> Table:
    table = Table(
        [
            "protocol",
            "n",
            "eps",
            "Vs",
            "index",
            "R_i",
            "Rtilde_i",
            "delta_i",
            "delta_eff_i",
            "T_sweep_i",
            "T_out_i",
            "status",
        ]
    )
    for kind, n, eps, _, Vs in _grid(cfg):
        params = cfg.scenario(n, eps)
        try:
            steps = protocols.schedule(params, Vs, kind)
        except _ROW_ERRORS as exc:
            table.append(
                kind.value, n, eps, Vs, None, None, None, None, None, None, None,
                type(exc).__name__,
            )
            continue
        for s in steps:
            table.append(
                kind.value,
                n,
                eps,
                Vs,
                s.index,
                s.R_i,
                s.Rtilde_i,
                s.delta_i,
                s.delta_eff_i,
                s.T_sweep_i,
                s.T_out_i,
                "ok",
            )
    return table


def cmd_totals(cfg: RunConfig) -> Table:
    table = Table(
        [
            "protocol",
            "n",
            "eps",
            "Vs",
            "N_n",
            "R_last",
            "R_max",
            "R_asym",
            "T_sweep_total",
            "T_out_total",
            "T_out_last",
            "T_total",
            "status",
        ]
    )
    for kind, n, eps, _, Vs in _grid(cfg):
        params = cfg.scenario(n, eps)
        try:
            if cfg.target_radius is not None:
                # fix the finish line instead of the asymptote gap: that
                # makes totals comparable across protocols and n
                asym = protocols.max_radius(params, Vs, kind)
                eps_eff = asym - cfg.target_radius
                if eps_eff <= 0.0:
                    raise NoExpansion(
                        f"target radius {cfg.target_radius} is at or beyond "
                        f"the asymptote {asym}"
                    )
                params = replace(params, eps=eps_eff)
                eps = eps_eff
            summary = protocols.totals(params, Vs, kind)
        except _ROW_ERRORS as exc:
            table.append(
                kind.value, n, eps, Vs, None, None, None, None, None, None, None,
                None, type(exc).__name__,
            )
            continue
        table.append(
            kind.value,
            n,
            eps,
            Vs,
            summary.N_n,
            summary.R_last,
            summary.R_max,
            summary.R_asym,
            summary.T_sweep_total,
            summary.T_out_total,
            summary.T_out_last,
            summary.T_total,
            "ok",
        )
    return table


def cmd_simulate(cfg: RunConfig) -> Table:
    table = Table(
        [
            "protocol",
            "n",
            "eps",
            "Vs",
            "mode",
            "bins",
            "dt",
            "grid_tolerance",
            "index",
            "t",
            "rho_min",
            "rho_max",
            "margin",
            "min_margin",
            "breaches",
            "status",
        ]
    )
    grid = SimConfig(
        bins=cfg.bins,
        dt=cfg.dt,
        mode=cfg.mode,
        cycles=cfg.cycles,
        max_sweeps=cfg.max_sweeps,
    )
    for kind, n, eps, _, Vs in _grid(cfg):
        params = cfg.scenario(n, eps)
        try:
            rep = simulator.run(params, Vs, kind, grid)
        except _ROW_ERRORS as exc:
            table.append(
                kind.value, n, eps, Vs, None, None, None, None, None, None, None,
                None, None, None, None, type(exc).__name__,
            )
            continue
        for rec in rep.sweeps:
            table.append(
                kind.value,
                n,
                eps,
                Vs,
                rep.mode,
                rep.bins,
                rep.dt,
                rep.grid_tolerance,
                rec.index,
                rec.t,
                rec.rho_min,
                rec.rho_max,
                rec.margin,
                rep.min_margin,
                rep.breach_count,
                "ok",
            )
    return table


_COMMANDS: Dict[str, Callable[[RunConfig], Table]] = {
    "critical-speeds": cmd_critical_speeds,
    "max-radius": cmd_max_radius,
    "sweep-count": cmd_sweep_count,
    "schedule": cmd_schedule,
    "totals": cmd_totals,
    "simulate": cmd_simulate,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through ConfigError so the
    # documented exit codes hold (2 is reserved for numerical failures)
    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.

    parse_args leaves the parser as it was and returns a fresh Namespace,
    so every main() call can share one tree; callers must not modify it.
    """
    parser = _Parser(
        prog="sweepdefense",
        description="Sweep-defense protocol tables: critical speeds, "
        "expansion schedules, totals, and wavefront simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    helps = {
        "critical-speeds": "critical defender speeds and the universal lower bound per n",
        "max-radius": "asymptotic and target radii of maximal expansion",
        "sweep-count": "sweeps needed to finish a maximal expansion",
        "schedule": "per-sweep expansion schedule rows",
        "totals": "aggregate expansion times and radii",
        "simulate": "wavefront simulation trace per sweep",
    }
    # declared once and copied into each subcommand: add_argument's
    # formatter check then runs 20 times per parser build, not 120
    flags = argparse.ArgumentParser(add_help=False)
    for key, text in _FLAG_HELP.items():
        flags.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
    for name in _COMMANDS:
        sub.add_parser(name, help=helps[name], parents=[flags])
    return parser


def _meta_value(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_meta_value(v) for v in value]
    return value


def _meta(cfg: RunConfig, subcommand: str) -> dict:
    return {
        "version": __version__,
        "subcommand": subcommand,
        "config": {
            f.name: _meta_value(getattr(cfg, f.name)) for f in fields(cfg) if f.name != "out"
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        table = _COMMANDS[args.cmd](cfg)
        if cfg.out:
            report.write_table(table, cfg.out, cfg.format)
            report.write_meta(cfg.out, _meta(cfg, args.cmd))
        else:
            sys.stdout.write(report.render(table, cfg.format))
        return 0
    except (ConfigError, InvalidParam) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RootNotFound, MaxIterations) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
