"""Tick-grid check of the protocols against a worst-case wavefront.

The threat is not simulated as individual invaders: since they are
assumed smart and bounded only by speed, the worst case is the whole
unswept frontier creeping inward at VT. The state is one radius per
angular bin. Each tick the frontier decays; each defender then clears the
bins its sensor line crossed, recording the clearance margin (frontier
minus sensor inner tip) and raising a breach when the frontier has
already slipped below the sensor.

The ticks are not stepped one by one. A bin changes only when a sensor
crosses it and the decay is the same everywhere, so each bin keeps its
radius as a value plus the step it was set at, and a sweep phase finds
the crossing tick of every (defender, bin) pair in the defender's sector
with one search over the phase's precomputed progress. The cost follows
the crossings, about one per bin per sweep phase, not ticks * bins.

Two drive modes share the engine. Defense runs re-anchor the sensors at
R0 every cycle and probe whether the protocol can hold the initial
radius; the clearance margin localizes the critical speed. Expansion runs
play the analytic per-sweep schedule open loop and let the wavefront
verify it: sweep-end radii must land where the schedule says.

The first sweep is a warm-up artifact of starting the frontier exactly at
R0 with the sensors still on their marks, so its margins and breaches are
excluded from reporting; steady state begins with the second sweep.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import protocols, spiral_pincer
from .errors import ConfigError, NoExpansion, SpeedTooLow
from .scenario import ProtocolKind, ScenarioParams, validate

_TWO_PI = 2.0 * math.pi

# Bin-centre distances from a sweep's start within this many radians of
# either sector edge sit on the edge: rounding in ((c - start) * dir) % 2pi
# can otherwise push a centre that lies where two pincer sectors meet just
# outside both. Far above that rounding, far below a bin width.
_EDGE_SNAP = 1e-12


class BreachKind(Enum):
    UNDER_SENSOR = "UnderSensor"
    CENTER_REACHED = "CenterReached"


@dataclass(frozen=True)
class BreachEvent:
    t: float             # simulation time of the event
    bin: int             # angular bin index
    rho_at_pass: float   # frontier radius when the sensor passed (0 for center hits)
    sensor_inner: float  # sensor inner-tip radius at that moment
    kind: BreachKind


@dataclass(frozen=True)
class DefenderPose:
    id: int
    angle: float     # polar angle of the sensor line, radians
    r_inner: float   # sensor span is [r_inner, r_outer], r_outer - r_inner = 2r
    r_outer: float
    direction: int   # +1 counter-clockwise, -1 clockwise


@dataclass(frozen=True)
class SweepRecord:
    index: int
    t: float         # time at sweep end
    rho_min: float   # frontier extremes over bins at sweep end
    rho_max: float
    margin: float    # smallest clearance margin seen during the sweep


@dataclass(frozen=True)
class SimConfig:
    bins: int = 3600
    dt: Optional[float] = None          # auto: stability-limited when None
    mode: str = "auto"                  # auto | defense | expansion
    cycles: int = 3                     # defense cycles to run
    max_sweeps: Optional[int] = None    # truncate expansion schedules
    breach_tol: Optional[float] = None  # default: the grid tolerance
    capture_profiles: bool = False      # keep a frontier copy per sweep end


# one row per breach, in tick-loop order; center hits have rho and inner 0
_BREACH_DTYPE = np.dtype(
    [
        ("t", np.float64),
        ("bin", np.int64),
        ("rho_at_pass", np.float64),
        ("sensor_inner", np.float64),
        ("center", np.bool_),
    ]
)
_KIND_OF_CENTER = (BreachKind.UNDER_SENSOR, BreachKind.CENTER_REACHED)


@dataclass(frozen=True)
class SimReport:
    kind: ProtocolKind
    mode: str
    bins: int
    dt: float
    grid_tolerance: float
    t_final: float
    sweeps: List[SweepRecord]
    min_margin: float          # over all clearing events after the warm-up sweep
    breach_log: np.ndarray = field(repr=False)  # _BREACH_DTYPE rows
    profiles: Optional[List[np.ndarray]] = None

    @property
    def breach_count(self) -> int:
        return len(self.breach_log)

    @cached_property
    def breaches(self) -> List[BreachEvent]:
        """The breach log as events, built on first access."""
        return [
            BreachEvent(t=t, bin=b, rho_at_pass=rho, sensor_inner=inner, kind=_KIND_OF_CENTER[c])
            for t, b, rho, inner, c in self.breach_log.tolist()
        ]


@dataclass(frozen=True)
class _SweepPhase:
    index: int
    duration: float
    span: float      # angular sector each defender covers this sweep
    max_rate: float  # peak angular speed, for the dt stability limit
    progress: Callable[[np.ndarray], np.ndarray]  # angular progress s(t), s(0) = 0
    inner: Callable[[np.ndarray], np.ndarray]     # sensor inner radius at phase time t
    starts: np.ndarray
    dirs: np.ndarray


@dataclass(frozen=True)
class _AdvancePhase:
    duration: float


def _sweep_starts(
    params: ScenarioParams, kind: ProtocolKind, index: int, span: float
) -> Tuple[np.ndarray, np.ndarray]:
    n = params.n
    starts = np.empty(n)
    dirs = np.empty(n, dtype=np.int64)
    if protocols.is_pincer(kind):
        outbound = index % 2 == 0  # even sweeps move apart from the pair axis
        for p in range(n // 2):
            axis = _TWO_PI * (2 * p) / n
            if outbound:
                starts[2 * p], dirs[2 * p] = axis, 1
                starts[2 * p + 1], dirs[2 * p + 1] = axis, -1
            else:
                starts[2 * p], dirs[2 * p] = axis + span, -1
                starts[2 * p + 1], dirs[2 * p + 1] = axis - span, 1
    else:
        # same direction: everyone advances one sector per sweep, the span
        # overlapping into the stretch the neighbour ahead has vacated
        for d in range(n):
            starts[d] = _TWO_PI * d / n + index * (_TWO_PI / n)
            dirs[d] = 1
    return starts, dirs


def _make_sweep(
    params: ScenarioParams,
    Vs: float,
    kind: ProtocolKind,
    index: int,
    anchor: float,
    duration: float,
    span: float,
) -> _SweepPhase:
    VT = params.VT
    if protocols.is_spiral(kind):
        lateral = math.sqrt(Vs * Vs - VT * VT)
        Rt0 = anchor + params.r

        def progress(t):
            return (lateral / VT) * np.log(Rt0 / (Rt0 - VT * t))

        inward = VT  # the spiral sensor moves in with the frontier
        max_rate = lateral / (Rt0 - VT * duration)
    else:
        omega = Vs / anchor

        def progress(t):
            return omega * t

        inward = 0.0
        max_rate = omega

    def inner(t):
        return anchor - inward * t

    starts, dirs = _sweep_starts(params, kind, index, span)
    return _SweepPhase(
        index=index,
        duration=duration,
        span=span,
        max_rate=max_rate,
        progress=progress,
        inner=inner,
        starts=starts,
        dirs=dirs,
    )


def _defense_plan(params: ScenarioParams, Vs: float, kind: ProtocolKind, cycles: int):
    """Hold-the-line phases: every cycle sweeps anchored at R0.

    Circular sensors stay put between sweeps. Spiral sensors end each
    sweep a full sensor length below the frontier and climb back during a
    gap-closing advance of 2r/(Vs+VT) before re-anchoring.
    """
    span = protocols.sweep_span(params, Vs, kind, params.R0)
    if protocols.is_spiral(kind):
        lateral = math.sqrt(Vs * Vs - params.VT * params.VT)
        lam = spiral_pincer.checked_contraction(math.exp(-span * params.VT / lateral), Vs)
        duration = (params.R0 + params.r) * (1.0 - lam) / params.VT
        advance = 2.0 * params.r / (Vs + params.VT)
    else:
        duration = span * params.R0 / Vs
        advance = 0.0
    phases: List = []
    for c in range(cycles):
        phases.append(_make_sweep(params, Vs, kind, c, params.R0, duration, span))
        if advance > 0.0:
            phases.append(_AdvancePhase(advance))
    return phases, params.R0 + 2.0 * params.r


def _expansion_plan(
    params: ScenarioParams, Vs: float, kind: ProtocolKind, max_sweeps: Optional[int]
):
    """Open-loop phases from the analytic schedule.

    Sweep i is anchored at the schedule's R_i. Spiral sensor poses jump
    outward between an advance and the next sweep: the schedule counts
    only the effective outward time delta_eff/Vs, re-anchoring the sensor
    on the frontier where the next sweep's bookkeeping starts.
    """
    steps, summary = protocols.expansion(params, Vs, kind)
    truncated = max_sweeps is not None and max_sweeps < len(steps)
    if truncated:
        steps = steps[:max_sweeps]
    phases: List = []
    for s in steps:
        span = protocols.sweep_span(params, Vs, kind, s.R_i)
        phases.append(
            _make_sweep(params, Vs, kind, s.index, s.R_i, s.T_sweep_i, span)
        )
        last = s.index == steps[-1].index
        if last and not truncated:
            phases.append(_AdvancePhase(summary.T_out_last))
        else:
            phases.append(_AdvancePhase(s.T_out_i))
    return phases, summary.R_asym


def _resolve_mode(params: ScenarioParams, Vs: float, kind: ProtocolKind, mode: str):
    if mode == "defense":
        return "defense"
    if mode == "expansion":
        return "expansion"
    if Vs <= protocols.CRITICAL[kind](params):
        return "defense"
    return "expansion"


def _check_config(grid: SimConfig) -> None:
    if grid.bins < 360:
        raise ConfigError(f"bins={grid.bins}: need at least 360 angular bins")
    if grid.mode not in ("auto", "defense", "expansion"):
        raise ConfigError(f"mode={grid.mode!r}: expected auto, defense or expansion")
    if grid.cycles < 1:
        raise ConfigError(f"cycles={grid.cycles}: need at least one defense cycle")
    if grid.max_sweeps is not None and grid.max_sweeps < 1:
        raise ConfigError(f"max_sweeps={grid.max_sweeps}: must be positive")
    if grid.dt is not None and grid.dt <= 0.0:
        raise ConfigError(f"dt={grid.dt}: must be positive")
    if grid.breach_tol is not None and grid.breach_tol < 0.0:
        raise ConfigError(f"breach_tol={grid.breach_tol}: must be nonnegative")


def _plan(params: ScenarioParams, Vs: float, kind: ProtocolKind, grid: SimConfig):
    """Resolve the drive mode and lay out its phases: (mode, phases, R_ref)."""
    mode = _resolve_mode(params, Vs, kind, grid.mode)
    if mode == "expansion":
        try:
            return (mode,) + _expansion_plan(params, Vs, kind, grid.max_sweeps)
        except NoExpansion:
            if grid.mode == "expansion":
                raise
    return ("defense",) + _defense_plan(params, Vs, kind, grid.cycles)


def _tick_lengths(duration: float, dt: Optional[float]) -> np.ndarray:
    """Steps of one phase: an advance is a single step; a sweep takes
    whole ticks of dt, then the remainder unless it is rounding noise.

    A sweep always has a tick: dt is at most one bin's crossing time, so no
    sweep is as short as the 1e-12 * dt noise floor.
    """
    if dt is None:
        return np.array([duration])
    n_full = int(duration / dt)
    remainder = duration - n_full * dt
    extra = 1 if remainder > 1e-12 * dt else 0
    h = np.full(n_full + extra, dt)
    if extra:
        h[-1] = remainder
    return h


class _Frontier:
    """Per-bin frontier radii, decayed lazily over the run's steps.

    Every tick, and every advance, is one step: all bins lose VT*h and
    clamp at 0. The decay since the phase began is a running level, so
    bin j, set to value[j] when the level stood at base[j], has radius
    max(value - (level - base), 0): a step costs nothing until a sensor
    crosses the bin. Only the current phase's steps are held; earlier
    phases are rebuilt from their duration when a bin's fall is replayed.
    """

    def __init__(self, bins: int, R0: float, VT: float):
        self.VT = VT
        self.value = np.full(bins, float(R0))
        self.base = np.zeros(bins)
        self.ref = np.zeros(bins, dtype=np.int64)  # first step after the set
        self.center_hit = np.zeros(bins, dtype=bool)
        self.firsts: List[int] = []  # first step of every phase begun
        self.phases: List[Tuple[float, Optional[float]]] = []  # (duration, dt)
        self.first, self.steps, self.t, self.level = 0, 0, 0.0, 0.0
        # column blocks (step, 0 center | 1 sensor, defender, distance, bin,
        # rho, inner, t), one per recording sweep phase
        self.blocks: List[Tuple[np.ndarray, ...]] = []
        self.hits: List[Tuple[int, int, float]] = []  # center (step, bin, t)

    def begin(self, duration: float, dt: Optional[float]) -> np.ndarray:
        """Start the next phase: a sweep ticked at dt, or an advance (dt None)."""
        h = _tick_lengths(duration, dt)
        self.first = self.steps
        self.firsts.append(self.first)
        self.phases.append((duration, dt))
        # levels restart at 0 each phase, so their rounding stays at the
        # scale of one phase; times continue the run's sum tick by tick
        self.base -= self.level
        self.drop = self.VT * h
        self.levels = np.cumsum(self.drop)
        self.times = np.cumsum(np.concatenate(([self.t], h)))[1:]
        self.steps += len(h)
        self.t, self.level = float(self.times[-1]), float(self.levels[-1])
        return h

    def radius(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Radii of bins j after ticks k of this phase."""
        return self._radius(j, self.levels[k], self.first + k)

    def settle(self) -> np.ndarray:
        """Radii of all bins after the last step so far."""
        return self._radius(np.arange(len(self.value)), self.level, self.steps - 1)

    def clear(self, j: np.ndarray, k: np.ndarray, rho: np.ndarray) -> None:
        """Set bins j to rho just after ticks k of this phase."""
        self.value[j] = rho
        self.base[j] = self.levels[k]
        self.ref[j] = self.first + k + 1

    def _radius(self, j: np.ndarray, level, step) -> np.ndarray:
        """Bins whose lazy radius is near 0 are replayed step by step from
        their value, subtracting VT*h as a tick loop does, so a center hit
        lands on the tick where the running radius first reaches 0."""
        fallen = level - self.base[j]
        lazy = self.value[j] - fallen
        near = np.flatnonzero(~self.center_hit[j] & (lazy <= 1e-9 * (self.value[j] + fallen)))
        ends = np.broadcast_to(step, j.shape)
        for b, end in zip(j[near].tolist(), ends[near].tolist()):
            self._replay(b, end)
        return np.maximum(lazy, 0.0)

    def _drops(self, q: int) -> np.ndarray:
        if q == len(self.phases) - 1:
            return self.drop
        return self.VT * _tick_lengths(*self.phases[q])

    def _replay(self, b: int, end: int) -> None:
        """Record bin b's center hit if its fall reaches 0 by step end."""
        begin = int(self.ref[b])
        path = [self.value[b : b + 1]]
        for q in range(bisect_right(self.firsts, begin) - 1, len(self.firsts)):
            first = self.firsts[q]
            if first > end:
                break
            path.append(self._drops(q)[max(begin - first, 0) : end - first + 1])
        down = np.flatnonzero(np.subtract.accumulate(np.concatenate(path))[1:] <= 0.0)
        if down.size:
            # every phase ends by settling all bins, so a fall that reached
            # 0 before this phase was recorded then: this hit lies in it
            step = begin + int(down[0])
            self.center_hit[b] = True
            self.hits.append((step, b, float(self.times[step - self.first])))

    def record(self, k, d, x, j, rho, inner) -> None:
        """Record sensor breaches at ticks k of this phase."""
        if len(k):
            sensor = np.ones(len(k), dtype=np.int64)
            self.blocks.append((self.first + k, sensor, d, x, j, rho, inner, self.times[k]))

    def breaches(self) -> np.ndarray:
        """The breach log in tick-loop order, as _BREACH_DTYPE rows.

        By step; within a step center hits first, by bin; then sensor
        breaches by defender and, for one defender, in the order its
        sensor met them.
        """
        blocks = list(self.blocks)
        if self.hits:
            step, b, t = (np.array(c) for c in zip(*self.hits))
            ints, floats = np.zeros(len(step), dtype=np.int64), np.zeros(len(step))
            blocks.append((step, ints, ints, floats, b, floats, floats, t))
        if not blocks:
            return np.empty(0, dtype=_BREACH_DTYPE)
        step, sensor, d, x, j, rho, inner, t = (np.concatenate(c) for c in zip(*blocks))
        order = np.lexsort((t, inner, rho, j, x, d, sensor, step))
        log = np.empty(len(order), dtype=_BREACH_DTYPE)
        log["t"], log["bin"] = t[order], j[order]
        log["rho_at_pass"], log["sensor_inner"] = rho[order], inner[order]
        log["center"] = sensor[order] == 0
        return log


def _crossings(phase: _SweepPhase, centers: np.ndarray, s: np.ndarray):
    """Every (defender, bin) crossing of a sweep phase, bin-major.

    A bin at distance x along a defender's path is crossed on the first
    tick whose progress reaches x, i.e. where s_prev < x <= s_now; a bin
    on the start edge (x = 0) is crossed on the first tick. Returns
    defender, bin, distance and tick arrays sorted by (bin, tick,
    defender), plus each crossing's rank among the crossings of its bin.
    Only a window of bins two wider than the sector on each side is
    measured per defender; every bin beyond it is out of reach.
    """
    M = len(centers)
    binwidth = _TWO_PI / M
    width = min(int(math.ceil(phase.span / binwidth)) + 5, M)
    low_edge = np.where(phase.dirs > 0, phase.starts, phase.starts - phase.span)
    lowest = np.floor(low_edge / binwidth - 0.5).astype(np.int64) - 2
    window = (lowest[:, None] + np.arange(width)) % M
    dist = ((centers[window] - phase.starts[:, None]) * phase.dirs[:, None]) % _TWO_PI
    dist[(dist <= _EDGE_SNAP) | (dist >= _TWO_PI - _EDGE_SNAP)] = 0.0
    dist[np.abs(dist - phase.span) <= _EDGE_SNAP] = phase.span
    d, w = np.nonzero(dist <= s[-1])
    j = window[d, w]
    x = dist[d, w]
    k = np.searchsorted(s, x, side="left")
    order = np.lexsort((d, k, j))
    d, j, x, k = d[order], j[order], x[order], k[order]
    pos = np.arange(len(j))
    new_bin = np.ones(len(j), dtype=bool)
    new_bin[1:] = j[1:] != j[:-1]
    rank = pos - np.maximum.accumulate(np.where(new_bin, pos, 0))
    return d, j, x, k, rank


def _sweep(front: _Frontier, phase: _SweepPhase, h: np.ndarray, centers, two_r):
    """Clear every crossing of the sweep phase the frontier has just begun.

    Returns defender, bin, distance, tick, the frontier radius the sensor
    met and the sensor's inner radius for each crossing.
    """
    t_local = np.cumsum(h)
    t_local[-1] = phase.duration
    s = phase.progress(t_local)
    s[-1] = phase.span
    np.maximum.accumulate(s, out=s)
    inner = phase.inner(t_local)
    d, j, x, k, rank = _crossings(phase, centers, s)
    rho = np.empty(len(j))
    # a bin met by several sensors (pincer meetings, same-direction
    # overlap) takes them in tick and then defender order, one pass each
    for r in range(int(rank.max()) + 1 if len(j) else 0):
        sel = np.flatnonzero(rank == r)
        rho[sel] = front.radius(j[sel], k[sel])
        front.clear(j[sel], k[sel], np.maximum(rho[sel], inner[k[sel]] + two_r))
    return d, j, x, k, rho, inner[k]


def run(
    params: ScenarioParams,
    Vs: float,
    kind: ProtocolKind,
    grid: SimConfig = SimConfig(),
) -> SimReport:
    """Simulate one protocol run and report margins, radii and breaches.

    Mode "auto" picks defense when Vs is at or below the protocol's
    critical speed (or when eps leaves no room to expand) and expansion
    otherwise.
    """
    params = validate(params)
    if Vs <= params.VT:
        raise SpeedTooLow(f"Vs={Vs} must exceed the threat speed VT={params.VT}")
    _check_config(grid)
    mode, phases, R_ref = _plan(params, Vs, kind, grid)

    M = grid.bins
    binwidth = _TWO_PI / M
    max_rate = max(p.max_rate for p in phases if isinstance(p, _SweepPhase))
    if grid.dt is None:
        dt = min(0.5 * binwidth / max_rate, params.r / (50.0 * Vs))
    else:
        dt = grid.dt
        if dt * max_rate >= binwidth:
            raise ConfigError(
                f"dt={dt}: a defender can cross a whole bin per tick "
                f"(max rate {max_rate:.6g}, bin width {binwidth:.6g})"
            )
    grid_tolerance = R_ref * binwidth + params.VT * dt
    breach_tol = grid_tolerance if grid.breach_tol is None else grid.breach_tol

    centers = (np.arange(M) + 0.5) * binwidth
    front = _Frontier(M, params.R0, params.VT)

    sweeps: List[SweepRecord] = []
    profiles: Optional[List[np.ndarray]] = [] if grid.capture_profiles else None
    min_margin = math.inf

    for phase in phases:
        if isinstance(phase, _AdvancePhase):
            # no detection while moving outward; one exact decay step
            front.begin(phase.duration, None)
            front.settle()
            continue

        h = front.begin(phase.duration, dt)
        d, j, x, k, rho, inner = _sweep(front, phase, h, centers, 2.0 * params.r)
        margins = rho - inner
        sweep_margin = float(margins.min()) if len(margins) else math.inf
        if phase.index >= 1:  # warm-up sweep excluded from reporting
            min_margin = min(min_margin, sweep_margin)
            bad = margins < -breach_tol
            front.record(*(a[bad] for a in (k, d, x, j, rho, inner)))

        rho_end = front.settle()
        sweeps.append(
            SweepRecord(
                index=phase.index,
                t=front.t,
                rho_min=float(rho_end.min()),
                rho_max=float(rho_end.max()),
                margin=sweep_margin,
            )
        )
        if profiles is not None:
            profiles.append(rho_end)

    return SimReport(
        kind=kind,
        mode=mode,
        bins=M,
        dt=dt,
        grid_tolerance=grid_tolerance,
        t_final=front.t,
        sweeps=sweeps,
        min_margin=min_margin,
        breach_log=front.breaches(),
        profiles=profiles,
    )


def initial_poses(
    params: ScenarioParams, Vs: float, kind: ProtocolKind
) -> List[DefenderPose]:
    """Defender poses at the start of the first sweep (anchor R0)."""
    params = validate(params)
    if Vs <= params.VT:
        raise SpeedTooLow(f"Vs={Vs} must exceed the threat speed VT={params.VT}")
    span = protocols.sweep_span(params, Vs, kind, params.R0)
    starts, dirs = _sweep_starts(params, kind, 0, span)
    return [
        DefenderPose(
            id=d,
            angle=float(starts[d] % _TWO_PI),
            r_inner=params.R0,
            r_outer=params.R0 + 2.0 * params.r,
            direction=int(dirs[d]),
        )
        for d in range(params.n)
    ]


def margin_curve(
    params: ScenarioParams,
    kind: ProtocolKind,
    speeds: Sequence[float],
    grid: SimConfig = SimConfig(),
) -> List[Tuple[float, float]]:
    """Defense-mode minimum clearance margin at each speed.

    The margin rises with speed and crosses zero at the protocol's
    critical speed, so the curve localizes criticality empirically.
    """
    speeds = list(speeds)
    if any(b <= a for a, b in zip(speeds, speeds[1:])):
        raise ConfigError("speeds must be strictly ascending")
    if speeds and speeds[0] <= params.VT:
        raise ConfigError(f"speeds must exceed the threat speed VT={params.VT}")
    defense = replace(grid, mode="defense")
    return [(Vs, run(params, Vs, kind, defense).min_margin) for Vs in speeds]
