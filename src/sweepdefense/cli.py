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

The fields of RunConfig are the config keys and the flags: each carries
its parser and help text. Every parser comes from one of two factories,
_list_of for comma lists and _one for single values. Every grid table is
a column list plus a function from a grid point to its rows.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from . import __version__, memo, protocols, report
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
from .scenario import ExpansionStep, ProtocolKind, ScenarioParams, validate


class SpeedMode(Enum):
    ABSOLUTE = "absolute"
    DELTA_OWN = "delta-own"
    DELTA_REFERENCE = "delta-reference"


# domain outcomes that mark a grid point instead of aborting the sweep
_ROW_ERRORS = (SubcriticalSpeed, NoExpansion, SpeedTooLow)

# Most values one list key may hold, and most points one grid may hold. A
# lo:hi:step token is counted before it is expanded, so a token like
# 2:2000000000:2 is refused at once instead of growing time and memory with
# its count; a grid is counted before any of its rows is built.
MAX_LIST_VALUES = 1_000_000


def _list_of(token_values: Callable, expected: str) -> Callable[[str, str], tuple]:
    """A parser of comma lists, empty tokens skipped. token_values(token)
    gives the token's count and its values, which are made only once the
    count fits; it raises ValueError when the token is not `expected`."""

    def parse(text: str, key: str) -> tuple:
        out: list = []
        for token in filter(None, text.split(",")):
            try:
                count, values = token_values(token)
            except ValueError as exc:
                raise ConfigError(f"{key}={token!r}: expected {expected}") from exc
            if len(out) + count > MAX_LIST_VALUES:
                raise ConfigError(f"{key}={token!r}: more than {MAX_LIST_VALUES} values in one key")
            out.extend(values)
        return tuple(out)

    return parse


def _one(convert: Callable[[str], object], expected: str) -> Callable[[str, str], object]:
    """A parser of one value: convert(text), raising ValueError or KeyError if not `expected`."""

    def parse(text: str, key: str):
        try:
            return convert(text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{key}={text!r}: expected {expected}") from exc

    return parse


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _int_token(token: str) -> Tuple[int, Iterable[int]]:
    if ":" not in token:
        return 1, (int(token),)
    lo, hi, step = (int(x) for x in token.split(":"))
    if step == 0:
        raise ValueError("zero step")
    count = max((hi - lo) // step + 1, 0)  # inclusive of hi
    return count, range(lo, lo + count * step, step)


def _float_token(token: str) -> Tuple[int, Iterable[float]]:
    if ":" not in token:
        return 1, (_finite(token),)
    lo, hi, step = (_finite(x) for x in token.split(":"))
    if step <= 0.0:
        raise ValueError("step must be positive")
    # clamped before int(): the quotient is inf when hi - lo overflows
    span = min((hi - lo) / step + 1e-9, MAX_LIST_VALUES)
    count = int(span) + 1 if span > -1.0 else 0
    return count, (lo + i * step for i in range(count))


_parse_int_list = _list_of(_int_token, "int or lo:hi:step")
_parse_float_list = _list_of(_float_token, "a finite float or lo:hi:step")
_parse_protocols = _list_of(
    lambda token: (1, (ProtocolKind(token),)),
    f"one of {', '.join(sorted(k.value for k in ProtocolKind))}",
)
_parse_number = _one(_finite, "a finite number")
_parse_int = _one(int, "an integer")
_parse_speed_mode = _one(SpeedMode, f"one of {', '.join(m.value for m in SpeedMode)}")
_parse_format = _one({"csv": "csv", "json": "json"}.__getitem__, "csv or json")


def _parse_protocol(text: str, key: str) -> ProtocolKind:
    kinds = _parse_protocols(text, key)
    if len(kinds) != 1:
        raise ConfigError(f"{key} must name exactly one protocol")
    return kinds[0]


def _parse_text(text: str, key: str) -> str:
    return text


def _key(default, parse: Callable[[str, str], object], help: str):
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """The config keys, in flag order; the flag is the key with "-" for "_"."""

    out: Optional[str] = _key(None, _parse_text, "write the table here instead of stdout")
    format: str = _key("csv", _parse_format, "csv or json (default csv)")
    R0: float = _key(100.0, _parse_number, "initial protected radius")
    r: float = _key(10.0, _parse_number, "sensor half-length")
    VT: float = _key(1.0, _parse_number, "threat speed")
    n: Tuple[int, ...] = _key((2,), _parse_int_list, "defender counts, e.g. 2,4 or 2:32:2")
    eps: Tuple[float, ...] = _key(
        (0.1,), _parse_float_list, "expansion stop gaps, comma list or lo:hi:step"
    )
    Vs: Tuple[float, ...] = _key((), _parse_float_list, "defender speeds (speed_mode=absolute)")
    dV: Tuple[float, ...] = _key((), _parse_float_list, "speed offsets for the delta speed modes")
    protocol: Tuple[ProtocolKind, ...] = _key(
        (ProtocolKind.CIRCULAR_PINCER,), _parse_protocols, "comma list of protocol names"
    )
    speed_mode: SpeedMode = _key(
        SpeedMode.ABSOLUTE, _parse_speed_mode, "absolute, delta-own or delta-reference"
    )
    ref_protocol: ProtocolKind = _key(
        ProtocolKind.CIRCULAR_PINCER, _parse_protocol, "delta-reference base protocol"
    )
    ref_n: int = _key(2, _parse_int, "delta-reference defender count")
    target_radius: Optional[float] = _key(
        None, _parse_number, "totals: stop at this radius instead of eps short of the asymptote"
    )
    bins: int = _key(3600, _parse_int, "simulator angular bins (default 3600)")
    dt: Optional[float] = _key(None, _parse_number, "simulator tick, default auto")
    mode: str = _key("auto", _parse_text, "simulator mode: auto, defense or expansion")
    cycles: int = _key(3, _parse_int, "simulator defense cycles (default 3)")
    max_sweeps: Optional[int] = _key(None, _parse_int, "simulator expansion cap")

    def scenario(self, n: int, eps: float) -> ScenarioParams:
        return validate(ScenarioParams(R0=self.R0, r=self.r, VT=self.VT, n=n, eps=eps))


_FIELDS = fields(RunConfig)
_KEYS = tuple(f.name for f in _FIELDS)


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


def build_config(args: argparse.Namespace) -> RunConfig:
    """Each key from its flag, else from the config file, else its default.

    Empty text keeps the default, except that a list key (a tuple default)
    reads it as ().
    """
    file_cfg = load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for f in _FIELDS:
        raw = getattr(args, f.name, None)
        if raw is None:
            raw = file_cfg.get(f.name)
        if raw is not None and (raw or isinstance(f.default, tuple)):
            values[f.name] = f.metadata["parse"](raw, f.name)
    return RunConfig(**values)


def _group(
    cfg: RunConfig, kind: ProtocolKind, n: int, eps: float
) -> Tuple[ScenarioParams, Sequence[float]]:
    """The scenario of one (protocol, n, eps) group, built and validated
    once, and the group's speeds: Vs, or each dV above a critical speed.

    A missing speed list is reported first, then a failure of the critical
    speed the offsets start from (and of the scenario it is solved for),
    then an invalid scenario.
    """
    if cfg.speed_mode is SpeedMode.ABSOLUTE:
        if not cfg.Vs:
            raise ConfigError("speed_mode=absolute needs a nonempty Vs list")
        return cfg.scenario(n, eps), cfg.Vs
    if not cfg.dV:
        raise ConfigError(f"speed_mode={cfg.speed_mode.value} needs a nonempty dV list")
    if cfg.speed_mode is SpeedMode.DELTA_OWN:
        params = cfg.scenario(n, eps)
        base = _CRITICAL[kind](params)
    else:
        base = _CRITICAL[cfg.ref_protocol](cfg.scenario(cfg.ref_n, eps))
        params = cfg.scenario(n, eps)
    return params, [base + d for d in cfg.dV]


def _grid(cfg: RunConfig):
    """Deterministic row order: protocol, then n, then eps, then speed;
    refused before its first point when it holds over MAX_LIST_VALUES.
    Yields each (protocol, n, eps) group as (kind, n, params, speeds)."""
    speed_key = "Vs" if cfg.speed_mode is SpeedMode.ABSOLUTE else "dV"
    size = len(cfg.protocol) * len(cfg.n) * len(cfg.eps) * len(getattr(cfg, speed_key))
    if size > MAX_LIST_VALUES:
        raise ConfigError(
            f"protocol x n x eps x {speed_key} is {size} grid points, more than {MAX_LIST_VALUES}"
        )
    for kind in cfg.protocol:
        for n in cfg.n:
            for eps in cfg.eps:
                yield (kind, n, *_group(cfg, kind, n, eps))


def _table(
    cfg: RunConfig, columns: Sequence[str], rows_for: Callable, prepare: Optional[Callable] = None
) -> Table:
    """One table over the grid: protocol, n, eps, Vs, then columns, then status.

    rows_for(cfg, kind, params, Vs) gives the cells of each row for a grid
    point, as a sequence; the point's rows become one block of the table,
    headed by its key and ended by the status "ok". prepare, if given,
    first replaces params, and the eps column shows the eps of the params
    in hand: the given one when prepare fails. A domain failure becomes
    one row of blank cells named by its class.
    """
    table = Table(["protocol", "n", "eps", "Vs", *columns, "status"])
    blanks = [None] * len(columns)
    ok = ("ok",)
    for kind, n, scene, speeds in _grid(cfg):
        for Vs in speeds:
            params = scene
            try:
                if prepare is not None:
                    params = prepare(cfg, kind, scene, Vs)
                table.extend((kind.value, n, params.eps, Vs), rows_for(cfg, kind, params, Vs), ok)
            except _ROW_ERRORS as exc:
                table.append(kind.value, n, params.eps, Vs, *blanks, type(exc).__name__)
    return table


def cmd_critical_speeds(cfg: RunConfig) -> Table:
    """critical defender speeds and the universal lower bound per n"""
    table = Table(
        ["n", "V_LB", "Vc_circ_pincer", "Vc_spiral_pincer", "Vc_circ_same", "Vc_spiral_same", "status"]
    )
    for n in cfg.n:
        params = cfg.scenario(n, cfg.eps[0] if cfg.eps else 0.1)
        table.append(
            n,
            universal_lower_bound(params),
            *(critical_speed(params) for critical_speed in _CRITICAL.values()),
            "ok",
        )
    return table


def _max_radius_rows(cfg, kind, params, Vs):
    asym = protocols.max_radius(params, Vs, kind)
    return [(asym, asym - params.eps)]


def cmd_max_radius(cfg: RunConfig) -> Table:
    """asymptotic and target radii of maximal expansion"""
    return _table(cfg, ("R_asym", "R_max"), _max_radius_rows)


def _sweep_count_rows(cfg, kind, params, Vs):
    return [(protocols.totals(params, Vs, kind).N_n,)]


def cmd_sweep_count(cfg: RunConfig) -> Table:
    """sweeps needed to finish a maximal expansion"""
    return _table(cfg, ("N_n",), _sweep_count_rows)


# a step is a NamedTuple: its cells in column order
_STEP_COLUMNS = ExpansionStep._fields


def _schedule_rows(cfg, kind, params, Vs):
    return protocols.schedule(params, Vs, kind)


def cmd_schedule(cfg: RunConfig) -> Table:
    """per-sweep expansion schedule rows"""
    return _table(cfg, _STEP_COLUMNS, _schedule_rows)


_TOTALS_COLUMNS = (
    "N_n", "R_last", "R_max", "R_asym", "T_sweep_total", "T_out_total", "T_out_last", "T_total",
)
_totals_cells = attrgetter(*_TOTALS_COLUMNS)


def _at_target_radius(cfg, kind, params, Vs):
    # fix the finish line instead of the asymptote gap: that makes totals
    # comparable across protocols and n
    if cfg.target_radius is None:
        return params
    asym = protocols.max_radius(params, Vs, kind)
    eps_eff = asym - cfg.target_radius
    if eps_eff <= 0.0:
        raise NoExpansion(
            f"target radius {cfg.target_radius} is at or beyond the asymptote {asym}"
        )
    return replace(params, eps=eps_eff)


def _totals_rows(cfg, kind, params, Vs):
    return [_totals_cells(protocols.totals(params, Vs, kind))]


def cmd_totals(cfg: RunConfig) -> Table:
    """aggregate expansion times and radii"""
    return _table(cfg, _TOTALS_COLUMNS, _totals_rows, _at_target_radius)


_SWEEP_COLUMNS = ("index", "t", "rho_min", "rho_max", "margin")
_sweep_cells = attrgetter(*_SWEEP_COLUMNS)


def _simulate_rows(cfg, kind, params, Vs):
    # imported here, not at the top: numpy is the simulator's alone, and
    # the analytic commands start several times faster without it
    try:
        from . import simulator
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ConfigError("simulate needs numpy, which this Python cannot import") from exc

    grid = simulator.SimConfig(
        bins=cfg.bins, dt=cfg.dt, mode=cfg.mode, cycles=cfg.cycles, max_sweeps=cfg.max_sweeps
    )
    rep = simulator.run(params, Vs, kind, grid)
    head = (rep.mode, rep.bins, rep.dt, rep.grid_tolerance)
    tail = (rep.min_margin, rep.breach_count)
    return [head + _sweep_cells(rec) + tail for rec in rep.sweeps]


def cmd_simulate(cfg: RunConfig) -> Table:
    """wavefront simulation trace per sweep"""
    return _table(
        cfg,
        ("mode", "bins", "dt", "grid_tolerance", *_SWEEP_COLUMNS, "min_margin", "breaches"),
        _simulate_rows,
    )


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
    # declared once and copied into each subcommand: add_argument's
    # formatter check then runs 20 times per parser build, not 120
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="flat key=value config file")
    for f in _FIELDS:
        flags.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=f.metadata["help"])
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.__doc__, parents=[flags])
    # written out, as argparse wraps the command list differently across
    # Python versions; set after add_subparsers, which builds each
    # subcommand's prog from the usage
    indent = " " * len("usage: sweepdefense ")
    parser.usage = f"%(prog)s [-h] [--version]\n{indent}{{{','.join(_COMMANDS)}}}\n{indent}..."
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
            f.name: _meta_value(getattr(cfg, f.name)) for f in _FIELDS if f.name != "out"
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        # a target radius gives every grid point its own eps, unknown here
        gaps = cfg.eps if cfg.target_radius is None else ()
        with memo.command(gaps):
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
