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
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import protocols, spiral_pincer
from .errors import ConfigError, MaxIterations, NoExpansion, SpeedTooLow
from .scenario import ProtocolKind, ScenarioParams, validate

_TWO_PI = 2.0 * math.pi

# Bin-centre distances from a sweep's start within this many radians of
# either sector edge sit on the edge: rounding in ((c - start) * dir) % 2pi
# can otherwise push a centre that lies where two pincer sectors meet just
# outside both. Far above that rounding, far below a bin width.
_EDGE_SNAP = 1e-12

# Most ticks one run may step, counted from its plan and dt before any
# phase runs. Past it a run is refused (MaxIterations) instead of running
# for a time the input sets: a circular-pincer expansion of 3.4e8 ticks
# at 3600 bins took 22 s on a 2-vCPU machine.
MAX_TICKS = 10**8


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
    capture_profiles: bool = False      # keep a frontier copy per sweep end


# one row per breach, in tick-loop order
_BREACH_DTYPE = np.dtype(
    [
        ("t", np.float64),             # simulation time of the event
        ("bin", np.int64),             # angular bin index
        ("rho_at_pass", np.float64),   # frontier radius the sensor met (0 for center hits)
        ("sensor_inner", np.float64),  # sensor inner-tip radius then (0 for center hits)
        ("center", np.bool_),          # the front reached the center, not a sensor breach
    ]
)


@dataclass(frozen=True)
class SimReport:
    """One run: its grid, per-sweep records, margins and breaches, plus
    deterministic counts of the work it did (ticks stepped, crossings
    found, clearing passes, replayed bins), which repeat exactly across
    reruns and stay out of the CLI table."""

    kind: ProtocolKind
    mode: str
    bins: int
    dt: float
    grid_tolerance: float
    t_final: float
    sweeps: List[SweepRecord]
    min_margin: float          # over all clearing events after the warm-up sweep
    breach_count: int
    # unsorted breach columns, one block per recording sweep phase, and the
    # center hits (step, bin, t); see _breach_log
    breach_blocks: List[Tuple[np.ndarray, ...]] = field(repr=False)
    center_hits: List[Tuple[int, int, float]] = field(repr=False)
    profiles: Optional[List[np.ndarray]] = None
    # work done, deterministic: sweep ticks stepped, (defender, bin)
    # crossings found, clearing passes run (one per crossing rank) and bins
    # whose fall was replayed step by step near the center
    ticks: int = 0
    crossings: int = 0
    clearing_passes: int = 0
    replayed_bins: int = 0

    @cached_property
    def breaches(self) -> np.ndarray:
        """The breach log as _BREACH_DTYPE rows, sorted on first access."""
        return _breach_log(self.breach_blocks, self.center_hits)


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
    if not protocols.is_pincer(kind):
        # same direction: everyone advances one sector per sweep, the span
        # overlapping into the stretch the neighbour ahead has vacated
        return _TWO_PI * np.arange(n) / n + index * (_TWO_PI / n), np.ones(n, dtype=np.int64)
    # pair p shares the axis of sector 2p; even sweeps move apart from it
    axis = _TWO_PI * np.arange(0, n, 2) / n
    outbound = index % 2 == 0
    starts = np.empty(n)
    dirs = np.empty(n, dtype=np.int64)
    starts[0::2] = axis if outbound else axis + span
    starts[1::2] = axis if outbound else axis - span
    dirs[0::2], dirs[1::2] = (1, -1) if outbound else (-1, 1)
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


def _defense_plan(params: ScenarioParams, Vs: float, kind: ProtocolKind, grid: SimConfig):
    """Hold-the-line phases: every cycle sweeps anchored at R0.

    Circular sensors stay put between sweeps. Spiral sensors end each
    sweep a full sensor length below the frontier and climb back during a
    gap-closing advance of 2r/(Vs+VT) before re-anchoring. The cycles'
    ticks are counted against the budget before their phases are built.
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
    first = _make_sweep(params, Vs, kind, 0, params.R0, duration, span)
    _checked_dt(params, Vs, grid, "defense", [first], grid.cycles)
    phases: List = []
    for c in range(grid.cycles):
        phases.append(_make_sweep(params, Vs, kind, c, params.R0, duration, span) if c else first)
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


def _plan(params: ScenarioParams, Vs: float, kind: ProtocolKind, grid: SimConfig):
    """Resolve the drive mode and lay out its phases: (mode, phases, R_ref)."""
    mode = _resolve_mode(params, Vs, kind, grid.mode)
    if mode == "expansion":
        try:
            return (mode,) + _expansion_plan(params, Vs, kind, grid.max_sweeps)
        except NoExpansion:
            if grid.mode == "expansion":
                raise
    return ("defense",) + _defense_plan(params, Vs, kind, grid)


def _ticks(duration: float, dt: float) -> Tuple[int, float]:
    """Whole ticks of dt in a sweep, and the remainder tick's length (0.0
    when the remainder is rounding noise and no tick is added for it)."""
    n_full = int(duration / dt)
    remainder = duration - n_full * dt
    return n_full, remainder if remainder > 1e-12 * dt else 0.0


def _tick_lengths(duration: float, dt: Optional[float]) -> np.ndarray:
    """Steps of one phase: an advance is a single step; a sweep takes
    whole ticks of dt, then the remainder unless it is rounding noise.

    A sweep always has a tick: dt is at most one bin's crossing time, so no
    sweep is as short as the 1e-12 * dt noise floor.
    """
    if dt is None:
        return np.array([duration])
    n_full, remainder = _ticks(duration, dt)
    h = np.full(n_full + (remainder > 0.0), dt)
    if remainder > 0.0:
        h[-1] = remainder
    return h


def _checked_dt(
    params: ScenarioParams,
    Vs: float,
    grid: SimConfig,
    mode: str,
    sweeps: Sequence[_SweepPhase],
    repeats: int = 1,
) -> float:
    """The run's dt, once the sweeps, played `repeats` times over, are
    known to fit the tick budget.

    dt is stability-limited unless grid.dt sets it. A run is refused when
    it would step more than MAX_TICKS ticks, or when bins * n * (ticks of
    its longest sweep) reaches 2**63, where _crossings' int64 ranking key
    would overflow.
    """
    binwidth = _TWO_PI / grid.bins
    max_rate = max(p.max_rate for p in sweeps)
    if grid.dt is None:
        dt = min(0.5 * binwidth / max_rate, params.r / (50.0 * Vs))
    else:
        dt = grid.dt
        if dt * max_rate >= binwidth:
            raise ConfigError(
                f"dt={dt}: a defender can cross a whole bin per tick "
                f"(max rate {max_rate:.6g}, bin width {binwidth:.6g})"
            )
    counts = [n_full + (rest > 0.0) for n_full, rest in (_ticks(p.duration, dt) for p in sweeps)]
    ticks, longest = repeats * sum(counts), max(counts)
    if ticks > MAX_TICKS or grid.bins * params.n * longest >= 2**63:
        flag = "--cycles" if mode == "defense" else "--max-sweeps"
        raise MaxIterations(
            f"{mode} run plans {ticks} ticks at dt={dt:.6g} ({longest} in its longest sweep, "
            f"{grid.bins} bins, n={params.n}); runs are limited to {MAX_TICKS} ticks and to "
            f"bins*n*(longest sweep ticks) below 2**63: lower {flag}"
        )
    return dt


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
        self.passes = self.replays = 0  # clear and _replay calls

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

    def radius(self, j: np.ndarray, k: np.ndarray, level: np.ndarray) -> np.ndarray:
        """Radii of bins j after ticks k of this phase, at decay levels
        level = self.levels[k]."""
        return self._radius(j, level, self.first + k)

    def settle(self) -> np.ndarray:
        """Radii of all bins after the last step so far, read from the
        whole value and base arrays."""
        return self._radius(slice(None), self.level, self.steps - 1)

    def clear(self, j: np.ndarray, k: np.ndarray, level: np.ndarray, rho: np.ndarray) -> None:
        """Set bins j to rho just after ticks k of this phase, at decay
        levels level = self.levels[k]."""
        self.passes += 1
        self.value[j] = rho
        self.base[j] = level
        self.ref[j] = self.first + k + 1

    def _radius(self, j, level, step) -> np.ndarray:
        """Radii of bins j, an index array or slice(None) for every bin.

        Bins whose lazy radius is near 0 are replayed step by step from
        their value, subtracting VT*h as a tick loop does, so a center hit
        lands on the tick where the running radius first reaches 0."""
        value = self.value[j]
        fallen = level - self.base[j]
        lazy = value - fallen
        near = np.flatnonzero(lazy <= 1e-9 * (value + fallen))
        if near.size:
            bins = near if isinstance(j, slice) else j[near]
            todo = ~self.center_hit[bins]
            ends = np.broadcast_to(step, lazy.shape)[near[todo]]
            for b, end in zip(bins[todo].tolist(), ends.tolist()):
                self._replay(b, end)
        return np.maximum(lazy, 0.0)

    def _drops(self, q: int) -> np.ndarray:
        if q == len(self.phases) - 1:
            return self.drop
        return self.VT * _tick_lengths(*self.phases[q])

    def _replay(self, b: int, end: int) -> None:
        """Record bin b's center hit if its fall reaches 0 by step end."""
        self.replays += 1
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


def _breach_log(
    blocks: List[Tuple[np.ndarray, ...]], hits: List[Tuple[int, int, float]]
) -> np.ndarray:
    """The breach log in tick-loop order, as _BREACH_DTYPE rows.

    By step; within a step center hits first, by bin; then sensor
    breaches by defender and, for one defender, in the order its
    sensor met them.
    """
    blocks = list(blocks)
    if hits:
        step, b, t = (np.array(c) for c in zip(*hits))
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
    """Every (defender, bin) crossing of a sweep phase, defender-major.

    A bin at distance x along a defender's path is crossed on the first
    tick whose progress reaches x, i.e. where s_prev < x <= s_now; a bin
    on the start edge (x = 0) is crossed on the first tick. Returns
    defender, bin, distance and tick arrays, plus each crossing's rank
    among the crossings of its bin in (tick, defender) order.

    Only a window of bins two wider than the sector on each side is
    measured per defender; every bin beyond it is out of reach. Distances
    are fmod(v, 2pi) lifted by 2pi where negative, which is numpy's v % 2pi
    bit for bit except for the sign of a zero, and the edge snap maps
    either zero to 0.0. Only bins met more than once (pincer meetings,
    same-direction overlap) are ranked, by one argsort of the int64 key
    (bin * K + tick) * n + defender over K ticks, unique per crossing, so
    the order is that of a (bin, tick, defender) sort; every other
    crossing has rank 0. run keeps bins * n * K below 2**63.
    """
    M = len(centers)
    n = len(phase.starts)
    binwidth = _TWO_PI / M
    width = min(int(math.ceil(phase.span / binwidth)) + 5, M)
    low_edge = np.where(phase.dirs > 0, phase.starts, phase.starts - phase.span)
    lowest = np.floor(low_edge / binwidth - 0.5).astype(np.int64) - 2
    window = (lowest % M)[:, None] + np.arange(width)
    window[window >= M] -= M
    dist = np.fmod((centers[window] - phase.starts[:, None]) * phase.dirs[:, None], _TWO_PI)
    np.add(dist, _TWO_PI, out=dist, where=dist < 0.0)
    dist[(dist <= _EDGE_SNAP) | (dist >= _TWO_PI - _EDGE_SNAP)] = 0.0
    dist[np.abs(dist - phase.span) <= _EDGE_SNAP] = phase.span
    flat = np.flatnonzero(dist <= s[-1])
    d = flat // width
    j = window.ravel()[flat]
    x = dist.ravel()[flat]
    k = np.searchsorted(s, x, side="left")
    rank = np.zeros(len(j), dtype=np.int64)
    shared = np.flatnonzero(np.bincount(j, minlength=M)[j] > 1)
    if shared.size:
        js = j[shared]
        order = np.argsort((js * len(s) + k[shared]) * n + d[shared])
        shared, js = shared[order], js[order]
        pos = np.arange(len(js))
        new_bin = np.ones(len(js), dtype=bool)
        new_bin[1:] = js[1:] != js[:-1]
        rank[shared] = pos - np.maximum.accumulate(np.where(new_bin, pos, 0))
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
    d, j, x, k, rank = _crossings(phase, centers, s)
    inner = phase.inner(t_local[k])
    rho = np.empty(len(j))
    # a bin met by several sensors (pincer meetings, same-direction
    # overlap) takes them in tick and then defender order, one pass each
    passes = int(rank.max()) + 1 if len(j) else 0
    for r in range(passes):
        sel = np.flatnonzero(rank == r) if passes > 1 else slice(None)
        js, ks = j[sel], k[sel]
        level = front.levels[ks]
        rho[sel] = met = front.radius(js, ks, level)
        front.clear(js, ks, level, np.maximum(met, inner[sel] + two_r))
    return d, j, x, k, rho, inner


def run(
    params: ScenarioParams,
    Vs: float,
    kind: ProtocolKind,
    grid: SimConfig = SimConfig(),
) -> SimReport:
    """Simulate one protocol run and report margins, radii and breaches.

    Mode "auto" picks defense when Vs is at or below the protocol's
    critical speed (or when eps leaves no room to expand) and expansion
    otherwise. A run that would step more than MAX_TICKS ticks raises
    MaxIterations before any phase runs.
    """
    params = validate(params)
    if Vs <= params.VT:
        raise SpeedTooLow(f"Vs={Vs} must exceed the threat speed VT={params.VT}")
    _check_config(grid)
    mode, phases, R_ref = _plan(params, Vs, kind, grid)
    dt = _checked_dt(params, Vs, grid, mode, [p for p in phases if isinstance(p, _SweepPhase)])

    M = grid.bins
    binwidth = _TWO_PI / M
    grid_tolerance = R_ref * binwidth + params.VT * dt

    centers = (np.arange(M) + 0.5) * binwidth
    front = _Frontier(M, params.R0, params.VT)

    sweeps: List[SweepRecord] = []
    profiles: Optional[List[np.ndarray]] = [] if grid.capture_profiles else None
    min_margin = math.inf
    ticks = crossings = 0

    for phase in phases:
        if isinstance(phase, _AdvancePhase):
            # no detection while moving outward; one exact decay step
            front.begin(phase.duration, None)
            front.settle()
            continue

        h = front.begin(phase.duration, dt)
        d, j, x, k, rho, inner = _sweep(front, phase, h, centers, 2.0 * params.r)
        ticks += len(h)
        crossings += len(j)
        margins = rho - inner
        sweep_margin = float(margins.min()) if len(margins) else math.inf
        if phase.index >= 1:  # warm-up sweep excluded from reporting
            min_margin = min(min_margin, sweep_margin)
            bad = margins < -grid_tolerance
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
        breach_count=sum(len(b[0]) for b in front.blocks) + len(front.hits),
        breach_blocks=front.blocks,
        center_hits=front.hits,
        profiles=profiles,
        ticks=ticks,
        crossings=crossings,
        clearing_passes=front.passes,
        replayed_bins=front.replays,
    )


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
