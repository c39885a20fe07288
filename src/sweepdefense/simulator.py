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

A run searches each distinct sweep shape once. The crossings of a sweep
phase, and the tick lengths and decay levels of any phase, depend only on
its geometry, its duration and dt, so a run keeps the search results of
its two latest shapes and the tick arrays of its two latest (duration,
dt) pairs, read-only, and plays a repeated one from them: a pincer
defense's outbound and inbound sweeps, a spiral defense's sweep and
advance. A same-direction defender starts each sweep one slot further
on, and the slots are the same angles every sweep, so a same-direction
defense plays every sweep from one search, renumbering its defenders;
only where two defenders cross one bin on one tick, whose order follows
their numbers, is each turn searched apart. The two pincer shapes of one
planned sweep share its tick track. Expansion sweeps never repeat, and
two entries keep an expansion's memory from growing with its sweeps. The
work counts (crossings, clearing passes) still count every phase, and
`searches` counts the searches run.

A kept shape holds its crossings as clearing passes, one per rank of a
crossing among those of its bin, each in bin order, with what clearing
needs at hand: each crossing's decay level, sensor outer tip and tick.
A sweep over the whole ring meets every bin at rank 0, so its first pass
is bins 0..M-1 in order, laid out by one scatter and played on the
frontier's whole arrays through slice(None); pincer meetings and
same-direction overlaps keep their bin arrays, played by the same
expressions. A radius read rules out the near-centre replay with one
reduction: no stored radius exceeds top (R0 or the largest outer tip
seen), so where every lazy radius is above 4e-9 * top no bin can be
within the replay test's 1e-9 * (value + fallen) of 0. Otherwise the
exact test runs, and replays near bins in the search's order.

The first sweep is a warm-up artifact of starting the frontier exactly at
R0 with the sensors still on their marks, so its margins and breaches are
excluded from reporting; steady state begins with the second sweep.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from typing import (
    Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
    Union,
)

import numpy as np

from . import protocols
from .errors import ConfigError, MaxIterations, NoExpansion, SpeedTooLow
from .scenario import ProtocolKind, ScenarioParams, validate
from .spiral_pincer import lateral_speed

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

# Most angular bins a run may hold. A run's memory grows with its bins by
# about 120-250 bytes each: a 128-defender defense at 10**6 bins peaked at
# 247 MB on a 2-vCPU machine, and 10**8 bins would need over 10 GB.
MAX_BINS = 10**6

# the flag that shortens a run of each drive mode
_MODE_FLAG = {"defense": "--cycles", "expansion": "--max-sweeps"}

# Sweep shapes, tick tracks and tick arrays a run keeps for reuse (see the
# module docstring): two cover a pincer's outbound and inbound sweeps.
_KEEP = 2
_T = TypeVar("_T")


def _recent(store: Dict[Hashable, _T], key: Hashable, make: Callable[[], _T]) -> _T:
    """store[key], made on a miss; the store holds the _KEEP latest made."""
    value = store.get(key)
    if value is None:
        value = store[key] = make()
        if len(store) > _KEEP:
            del store[next(iter(store))]
    return value


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    deterministic counts of the work it did (ticks stepped, crossing
    searches, crossings found, clearing passes, replayed bins), which
    repeat exactly across reruns and stay out of the CLI table."""

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
    # work done, deterministic: sweep ticks stepped, crossing searches run
    # (one per distinct sweep shape), (defender, bin) crossings found,
    # clearing passes run (one per crossing rank) and bins whose fall was
    # replayed step by step near the center
    ticks: int = 0
    searches: int = 0
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
    anchor: float    # sensor inner radius at phase start
    duration: float
    span: float      # angular sector each defender covers this sweep
    starts: np.ndarray
    dirs: np.ndarray
    turn: int        # slots each defender has moved on from sweep 0's (0 for pincers)


def _sweep_starts(
    params: ScenarioParams, kind: ProtocolKind, index: int, span: float
) -> Tuple[np.ndarray, np.ndarray]:
    n = params.n
    if not protocols.is_pincer(kind):
        # same direction: everyone advances one sector per sweep, the span
        # overlapping into the stretch the neighbour ahead has vacated.
        # Built from the slot, each start repeats sweep 0's bit for bit
        return _TWO_PI * ((np.arange(n) + index) % n) / n, np.ones(n, dtype=np.int64)
    # pair p shares the axis of sector 2p; even sweeps move apart from it
    axis = _TWO_PI * np.arange(0, n, 2) / n
    outbound = index % 2 == 0
    starts = np.empty(n)
    dirs = np.empty(n, dtype=np.int64)
    starts[0::2] = axis if outbound else axis + span
    starts[1::2] = axis if outbound else axis - span
    dirs[0::2], dirs[1::2] = (1, -1) if outbound else (-1, 1)
    return starts, dirs


class _Planned(NamedTuple):
    """One sweep of a run's plan, laid out before its phase is built."""

    anchor: float             # sensor inner radius at sweep start
    duration: float
    span: float               # angular sector each defender covers
    advance: Optional[float]  # outward phase after the sweep, if there is one


def _motion(params: ScenarioParams, Vs: float, kind: ProtocolKind, sweep: _Planned):
    """A planned sweep's angular progress s(t), s(0) = 0, its sensor's
    inner radius at phase time t, and its peak angular rate. A spiral
    sensor moves in with the frontier, so it turns fastest at the end."""
    VT, anchor = params.VT, sweep.anchor
    if protocols.is_spiral(kind):
        Rt0 = anchor + params.r
        innermost = Rt0 - VT * sweep.duration
        if innermost <= 0.0:  # 1 - lam rounds to 1 once lam is below about 2**-53
            raise MaxIterations(f"at Vs={Vs} the spiral sensor reaches the centre within one "
                                f"sweep, past any run of {MAX_TICKS} ticks: raise --Vs")
        lateral = lateral_speed(Vs, VT)

        def progress(t):
            return (lateral / VT) * np.log(Rt0 / (Rt0 - VT * t))

        inward, rate = VT, lateral / innermost
    else:
        inward, rate = 0.0, Vs / anchor  # a circular sensor turns at its one rate

        def progress(t):
            return rate * t

    def inner(t):
        return anchor - inward * t

    return progress, inner, rate


def _check_config(grid: SimConfig) -> None:
    if grid.bins < 360:
        raise ConfigError(f"bins={grid.bins}: need at least 360 angular bins")
    if grid.bins > MAX_BINS:
        raise ConfigError(f"bins={grid.bins}: at most {MAX_BINS} angular bins")
    if grid.mode not in ("auto", "defense", "expansion"):
        raise ConfigError(f"mode={grid.mode!r}: expected auto, defense or expansion")
    if grid.cycles < 1:
        raise ConfigError(f"cycles={grid.cycles}: need at least one defense cycle")
    if grid.max_sweeps is not None and grid.max_sweeps < 1:
        raise ConfigError(f"max_sweeps={grid.max_sweeps}: must be positive")
    if grid.dt is not None and grid.dt <= 0.0:
        raise ConfigError(f"dt={grid.dt}: must be positive")


def _plan(params: ScenarioParams, Vs: float, kind: ProtocolKind, grid: SimConfig):
    """Resolve the drive mode and lay out its sweeps, played `repeats`
    times over: (mode, sweeps, repeats, R_ref, dt).

    Mode auto picks defense at or below the critical speed, or when eps
    leaves no room to expand. The plan is checked before it is listed:
    dt comes from the first sweep (protocols.sweep from R0), then bins *
    (sweeps played) is held to MAX_TICKS, with the sweep count of an
    expansion taken from its totals; only then are the played sweeps
    listed, each with its sector, and no step past them, and their ticks
    counted. _phases builds each phase when the run reaches it, and
    _track a planned sweep's motion when no kept track serves it.

    An expansion plays the analytic schedule once, open loop, cut to
    max_sweeps; the last advance stops at the target unless the schedule
    was cut. Spiral sensor poses jump outward between an advance and the
    next sweep: the schedule counts only the effective outward time
    delta_eff/Vs, re-anchoring the sensor on the frontier where the next
    sweep's bookkeeping starts. A defense plays the schedule's first
    sweep `cycles` times, without a list that long, and needs at least
    two: its first is the warm-up. Circular sensors stay
    put between sweeps; spiral sensors end each a full sensor length
    below the frontier and climb back during a gap-closing advance of
    2r/(Vs+VT).
    """
    mode = grid.mode
    if mode == "auto":
        mode = "defense" if Vs <= protocols.CRITICAL[kind](params) else "expansion"
    if mode == "expansion":
        try:
            summary = protocols.totals(params, Vs, kind)
        except NoExpansion:
            if grid.mode == "expansion":
                raise
            mode = "defense"
        else:
            played = min(summary.N_n, grid.max_sweeps or summary.N_n)
            repeats, R_ref = 1, summary.R_asym
    if mode == "defense":
        if grid.cycles < 2:
            # the first sweep is the warm-up, which reports nothing
            raise ConfigError(f"cycles={grid.cycles}: a defense reports from its second sweep "
                              f"on; raise --cycles to at least 2")
        played, repeats, R_ref = 1, grid.cycles, params.R0 + 2.0 * params.r
    span, duration = protocols.sweep(params, Vs, kind, params.R0)
    first = _Planned(params.R0, duration, span, None)
    dt = _checked_dt(params, Vs, kind, grid, first)
    # every sweep phase clears and settles all bins
    work = grid.bins * played * repeats
    if work > MAX_TICKS:
        raise MaxIterations(
            f"{mode} run plans {played * repeats} sweeps over {grid.bins} bins, {work} bin "
            f"updates; runs are limited to {MAX_TICKS}: lower --bins or {_MODE_FLAG[mode]}"
        )
    if mode == "expansion":
        steps = protocols.first_steps(params, Vs, kind, played)
        spans = (protocols.sweep(params, Vs, kind, s.R_i)[0] for s in steps)
        sweeps = [_Planned(s.R_i, s.T_sweep_i, span, s.T_out_i) for s, span in zip(steps, spans)]
        if played == summary.N_n:
            sweeps[-1] = sweeps[-1]._replace(advance=summary.T_out_last)
    else:
        advance = 2.0 * params.r / (Vs + params.VT) if protocols.is_spiral(kind) else None
        sweeps = [first._replace(advance=advance)]
    _check_ticks(params, grid, mode, sweeps, repeats, dt)
    return mode, sweeps, repeats, R_ref, dt


def _phases(
    params: ScenarioParams, kind: ProtocolKind, sweeps: Sequence[_Planned], repeats: int
) -> Iterator[Tuple[_SweepPhase, _Planned]]:
    """Each sweep phase of the run, built only when it is reached, with
    the planned sweep it plays."""
    # schedule steps are numbered from 0, so a sweep's index is its place
    for index, sweep in enumerate(chain.from_iterable(repeat(sweeps, repeats))):
        starts, dirs = _sweep_starts(params, kind, index, sweep.span)
        turn = 0 if protocols.is_pincer(kind) else index % params.n
        phase = _SweepPhase(index, sweep.anchor, sweep.duration, sweep.span, starts, dirs, turn)
        yield phase, sweep


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
    params: ScenarioParams, Vs: float, kind: ProtocolKind, grid: SimConfig, first: _Planned
) -> float:
    """The run's dt, limited by the first sweep's peak angular rate, or set
    by grid.dt and checked against it: no later sweep turns faster, as
    each sweep's innermost sensor radius rises with its anchor."""
    binwidth = _TWO_PI / grid.bins
    max_rate = _motion(params, Vs, kind, first)[2]
    if grid.dt is None:
        return min(0.5 * binwidth / max_rate, params.r / (50.0 * Vs))
    if grid.dt * max_rate >= binwidth:
        raise ConfigError(
            f"dt={grid.dt}: a defender can cross a whole bin per tick "
            f"(max rate {max_rate:.6g}, bin width {binwidth:.6g})"
        )
    return grid.dt


def _check_ticks(
    params: ScenarioParams, grid: SimConfig, mode: str,
    sweeps: Sequence[_Planned], repeats: int, dt: float,
) -> None:
    """Refuse a run of the sweeps, played `repeats` times over, that would
    step more than MAX_TICKS ticks, or where bins * n * (ticks of its
    longest sweep) reaches 2**63 and _crossings' int64 ranking key would
    overflow."""
    counts = [n_full + (rest > 0.0) for n_full, rest in (_ticks(p.duration, dt) for p in sweeps)]
    ticks, longest = repeats * sum(counts), max(counts)
    # past the limits in one sweep, no --cycles or --max-sweeps can help
    alone = longest > MAX_TICKS or grid.bins * params.n * longest >= 2**63
    if alone or ticks > MAX_TICKS:
        flag = "--bins or change --Vs" if alone else _MODE_FLAG[mode]
        raise MaxIterations(
            f"{mode} run plans {ticks} ticks at dt={dt:.6g} ({longest} in its longest sweep, "
            f"{grid.bins} bins, n={params.n}); runs are limited to {MAX_TICKS} ticks and to "
            f"bins*n*(longest sweep ticks) below 2**63: lower {flag}"
        )


class _Frontier:
    """Per-bin frontier radii, decayed lazily over the run's steps.

    Every tick, and every advance, is one step: all bins lose VT*h and
    clamp at 0. The decay since the phase began is a running level, so
    bin j, set to value[j] when the level stood at base[j], has radius
    max(value - (level - base), 0): a step costs nothing until a sensor
    crosses the bin. No value exceeds top. Only the current phase's steps
    are held, from the tick arrays of the two latest (duration, dt) pairs;
    earlier phases are rebuilt from their duration when a bin's fall is
    replayed.
    """

    def __init__(self, bins: int, R0: float, VT: float):
        self.VT = VT
        self.value = np.full(bins, float(R0))
        self.base = np.zeros(bins)
        self.ref = np.zeros(bins, dtype=np.int64)  # first step after the set
        self.center_hit = np.zeros(bins, dtype=bool)
        self.top = float(R0)  # at least every value stored: raised by _sweep
        self.firsts: List[int] = []  # first step of every phase begun
        self.phases: List[Tuple[float, Optional[float]]] = []  # (duration, dt)
        # (duration, dt) -> read-only step lengths h, drops VT*h and levels
        self.ticks: Dict[Hashable, tuple] = {}
        self.first, self.steps, self.t, self.level = 0, 0, 0.0, 0.0
        # column blocks (step, 0 center | 1 sensor, defender, distance, bin,
        # rho, inner, t), one per recording sweep phase
        self.blocks: List[Tuple[np.ndarray, ...]] = []
        self.hits: List[Tuple[int, int, float]] = []  # center (step, bin, t)
        self.passes = self.replays = 0  # clear and _replay calls
        self.replayed = 0  # steps replayed, summed over _replay calls

    def begin(self, duration: float, dt: Optional[float]) -> np.ndarray:
        """Start the next phase: a sweep ticked at dt, or an advance (dt None)."""
        key = (duration, dt)
        h, _, self.levels = _recent(self.ticks, key, partial(self._tick_arrays, *key))
        self.first = self.steps
        self.firsts.append(self.first)
        self.phases.append(key)
        # levels restart at 0 each phase, so their rounding stays at the
        # scale of one phase; times continue the run's sum tick by tick
        self.base -= self.level
        self.times = np.cumsum(np.concatenate(([self.t], h)))[1:]
        self.steps += len(h)
        self.t, self.level = float(self.times[-1]), float(self.levels[-1])
        return h

    def _tick_arrays(self, duration: float, dt: Optional[float]) -> Tuple[np.ndarray, ...]:
        h = _tick_lengths(duration, dt)
        drop = self.VT * h
        return _read_only(h, drop, np.cumsum(drop))

    def settle(self) -> np.ndarray:
        """Radii of all bins after the last step so far, read from the
        whole value and base arrays."""
        return self._radius(slice(None), self.level, self.steps - self.first)

    def clear(self, p: "_Pass") -> np.ndarray:
        """Play one clearing pass of this phase: read the radius each of
        its crossings meets, then set its bins to the larger of that and
        the sensor's outer tip, as of just after each crossing's tick."""
        self.passes += 1
        met = self._radius(p.bins, p.level, p.k1, p.order)
        self.value[p.bins] = np.maximum(met, p.floor)
        self.base[p.bins] = p.level
        self.ref[p.bins] = self.first + p.k1
        return met

    def _radius(self, j, level, k1, order=None) -> np.ndarray:
        """Radii of bins j, an index array or slice(None) for every bin, at
        decay levels level, as of k1 steps into this phase.

        Bins whose lazy radius is near 0 are replayed step by step from
        their value, subtracting VT*h as a tick loop does, so a center hit
        lands on the tick where the running radius first reaches 0; they
        are replayed in `order`, when given, else in bin order. One
        reduction first rules out every near bin at once: where lazy > 0,
        fallen = value - lazy <= value <= top, so the near test's bound
        1e-9 * (value + fallen) is at most 2e-9 * top, and once every lazy
        radius exceeds 4e-9 * top no bin can pass it."""
        value = self.value[j]
        fallen = level - self.base[j]
        lazy = value - fallen
        if not lazy.min() > 4e-9 * self.top:
            near = np.flatnonzero(lazy <= 1e-9 * (value + fallen))
            if near.size:
                if order is not None:
                    near = near[np.argsort(order[near])]
                bins = near if isinstance(j, slice) else j[near]
                todo = ~self.center_hit[bins]
                ends = self.first - 1 + np.broadcast_to(k1, lazy.shape)[near[todo]]
                for b, end in zip(bins[todo].tolist(), ends.tolist()):
                    self._replay(b, end)
        return np.maximum(lazy, 0.0)

    def _drops(self, q: int) -> np.ndarray:
        kept = self.ticks.get(self.phases[q])  # the current phase's always is
        return kept[1] if kept is not None else self.VT * _tick_lengths(*self.phases[q])

    def _replay(self, b: int, end: int) -> None:
        """Record bin b's center hit if its fall reaches 0 by step end.

        A replay costs its steps, and a hopeless defense replays every bin
        it reaches through every tick since: past MAX_TICKS steps in all,
        the run is refused (MaxIterations) instead of running for a time
        the input sets."""
        self.replays += 1
        begin = int(self.ref[b])
        path = [self.value[b : b + 1]]
        for q in range(bisect_right(self.firsts, begin) - 1, len(self.firsts)):
            first = self.firsts[q]
            if first > end:
                break
            path.append(self._drops(q)[max(begin - first, 0) : end - first + 1])
        self.replayed += sum(map(len, path)) - 1
        if self.replayed > MAX_TICKS:
            raise MaxIterations(f"{self.replays} bins near the centre replay more than "
                                f"{MAX_TICKS} steps of their fall: lower --bins or change --Vs")
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
    either zero to 0.0; fmod runs only where |v| >= 2pi, since it returns
    any smaller v as it is. Only bins met more than once (pincer meetings,
    same-direction overlap) are ranked, by one stable argsort of the int64
    key (bin * K + tick) * n + defender over K ticks, unique per crossing,
    so the order is that of a (bin, tick, defender) sort; the keys come
    nearly sorted, defender-major, which a stable sort takes faster. Every
    other crossing has rank 0. run keeps bins * n * K below 2**63.
    """
    M = len(centers)
    n = len(phase.starts)
    binwidth = _TWO_PI / M
    width = min(int(math.ceil(phase.span / binwidth)) + 5, M)
    low_edge = np.where(phase.dirs > 0, phase.starts, phase.starts - phase.span)
    lowest = np.floor(low_edge / binwidth - 0.5).astype(np.int64) - 2
    window = (lowest % M)[:, None] + np.arange(width)
    window[window >= M] -= M
    dist = (centers[window] - phase.starts[:, None]) * phase.dirs[:, None]
    wrap = np.abs(dist) >= _TWO_PI
    np.fmod(dist, _TWO_PI, out=dist, where=True if wrap.all() else wrap)
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
        order = np.argsort((js * len(s) + k[shared]) * n + d[shared], kind="stable")
        shared, js = shared[order], js[order]
        pos = np.arange(len(js))
        new_bin = np.ones(len(js), dtype=bool)
        new_bin[1:] = js[1:] != js[:-1]
        rank[shared] = pos - np.maximum.accumulate(np.where(new_bin, pos, 0))
    return d, j, x, k, rank


class _Track(NamedTuple):
    """A planned sweep's ticks: the angular progress at each tick's end,
    the last on the sector edge, and the sensor's inner radius then. Both
    pincer shapes of the sweep share it. Read-only."""

    s: np.ndarray
    inner: np.ndarray


def _track(
    params: ScenarioParams, Vs: float, kind: ProtocolKind, sweep: _Planned, h: np.ndarray
) -> _Track:
    """The track of a planned sweep ticked at step lengths h."""
    progress, inner, _ = _motion(params, Vs, kind, sweep)
    t_local = np.cumsum(h)
    t_local[-1] = sweep.duration
    s = progress(t_local)
    s[-1] = sweep.span
    np.maximum.accumulate(s, out=s)
    return _Track(*_read_only(s, inner(t_local)))


class _Pass(NamedTuple):
    """One clearing pass of a sweep shape, kept with the shape. Its
    crossings are a slice of the shape's pass order, in bin order. The
    frontier index of their bins is slice(None) when the pass is bins
    0..M-1, and their bin array otherwise. Per crossing it keeps the
    decay level levels[k], the sensor's outer tip inner + 2r, k + 1, and
    the crossing's place in the search's order, in which near bins are
    replayed."""

    sel: slice
    bins: Union[slice, np.ndarray]
    level: np.ndarray
    floor: np.ndarray
    k1: np.ndarray
    order: np.ndarray


@dataclass(frozen=True)
class _Shape:
    """The crossings of one sweep shape, searched once per run. Read-only.

    d, j, x and k (defender, bin, distance, tick) are in the search's
    order. The clearing passes lay the crossings out in pass order:
    grouped by pass, in bin order within each. order maps pass order to
    search order, and inner (the sensor's inner radius at each crossing)
    is in pass order, as is the radius _sweep returns. top is the largest
    sensor outer tip. Defenders are numbered as in the phase searched:
    sweep `index`, at `turn`."""

    d: np.ndarray
    j: np.ndarray
    x: np.ndarray
    k: np.ndarray
    order: np.ndarray
    inner: np.ndarray
    passes: Tuple[_Pass, ...]
    top: float
    index: int
    turn: int

    @cached_property
    def tied(self) -> bool:
        """Whether two crossings of one bin fall on one tick, found on
        first access. A bin's ranks run in tick order, so such a pair
        holds adjacent ranks."""
        tick = np.full(int(self.j.max(initial=-1)) + 1, -1, dtype=np.int64)
        for before, after in zip(self.passes, self.passes[1:]):
            tick[before.bins] = before.k1
            if (tick[after.bins] == after.k1).any():
                return True
        return False


def _shape_key(phase: _SweepPhase) -> Hashable:
    """What a phase's crossings depend on, dt, kind and Vs being fixed
    for a run. Starts and directions are taken in slot order, so every
    turn of a same-direction sweep keys as sweep 0's."""
    cut = len(phase.starts) - phase.turn  # the defender in slot 0
    starts, dirs = (a[cut:].tobytes() + a[:cut].tobytes() for a in (phase.starts, phase.dirs))
    return phase.anchor, phase.duration, phase.span, starts, dirs


def _shape(
    phase: _SweepPhase, track: _Track, centers: np.ndarray, levels: np.ndarray, two_r: float
) -> _Shape:
    """Search the crossings of a sweep phase along its track, whose ticks
    end at decay levels `levels`, and lay them out in pass order.

    A bin met by several sensors (pincer meetings, same-direction
    overlap) takes them in tick and then defender order, one pass each:
    pass r holds every crossing of rank r. The rank-0 crossings hold each
    bin met once, so where the sweep meets every bin their bin order is
    one scatter of their places; otherwise, and for the later crossings,
    it is a stable sort by (rank, bin), quick on keys that come in runs,
    defender by defender."""
    d, j, x, k, rank = _crossings(phase, centers, track.s)
    M = len(centers)
    lead, rest = np.flatnonzero(rank == 0), np.flatnonzero(rank)
    if len(lead) == M:
        order = np.empty(M, dtype=np.int64)
        order[j[lead]] = lead
    else:
        order = lead[np.argsort(j[lead], kind="stable")]
    sizes = [len(lead)]
    if rest.size:
        later = rest[np.argsort(rank[rest] * M + j[rest], kind="stable")]
        order = np.concatenate((order, later))
        sizes += np.bincount(rank[later])[1:].tolist()
    kp = k[order]
    inner = track.inner[kp]
    level, floor, k1 = levels[kp], inner + two_r, kp + 1
    _read_only(d, j, x, k, order, inner, level, floor, k1)
    passes, lo = [], 0
    for size in sizes:
        sel = slice(lo, lo + size)
        bins = slice(None) if size == M else _read_only(j[order[sel]])[0]
        passes.append(_Pass(sel, bins, level[sel], floor[sel], k1[sel], order[sel]))
        lo += size
    top = float(floor.max(initial=0.0))
    return _Shape(d, j, x, k, order, inner, tuple(passes), top, phase.index, phase.turn)


def _sweep(front: _Frontier, shape: _Shape) -> np.ndarray:
    """Clear every crossing of the sweep phase the frontier has just begun,
    pass by pass; returns the frontier radius each crossing's sensor met,
    in pass order. A pass over every bin reads and writes the frontier's
    whole arrays through slice(None); any other, through its bin array,
    by the same expressions."""
    front.top = max(front.top, shape.top)
    rho = np.empty(len(shape.j))
    for p in shape.passes:
        rho[p.sel] = front.clear(p)
    return rho


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
    MaxIterations before any phase is built. A sweep shape seen before
    in the run is played from its kept search (see _recent), at any
    turn unless the search holds a tie: ties rank by defender, so a tied
    shape serves only its own turn.
    """
    params = validate(params)
    if Vs <= params.VT:
        raise SpeedTooLow(f"Vs={Vs} must exceed the threat speed VT={params.VT}")
    _check_config(grid)
    mode, planned, repeats, R_ref, dt = _plan(params, Vs, kind, grid)

    M = grid.bins
    binwidth = _TWO_PI / M
    grid_tolerance = R_ref * binwidth + params.VT * dt

    centers = (np.arange(M) + 0.5) * binwidth
    front = _Frontier(M, params.R0, params.VT)

    sweeps: List[SweepRecord] = []
    profiles: Optional[List[np.ndarray]] = [] if grid.capture_profiles else None
    min_margin = math.inf
    ticks = searches = crossings = 0
    shapes: Dict[Hashable, _Shape] = {}
    tracks: Dict[Hashable, _Track] = {}

    for phase, sweep in _phases(params, kind, planned, repeats):
        h = front.begin(phase.duration, dt)
        make_track = partial(_track, params, Vs, kind, sweep, h)
        track = _recent(tracks, (sweep.anchor, sweep.duration), make_track)
        key = _shape_key(phase)
        search = partial(_shape, phase, track, centers, front.levels, 2.0 * params.r)
        shape = _recent(shapes, key, search)
        if shape.turn != phase.turn and shape.tied:
            # a tied pair clears in defender order: each turn its own search
            shape = _recent(shapes, (key, phase.turn), search)
        rho = _sweep(front, shape)
        ticks += len(h)
        searches += shape.index == phase.index  # searched for this phase
        crossings += len(rho)
        margins = rho - shape.inner
        sweep_margin = float(margins.min()) if len(margins) else math.inf
        if phase.index >= 1:  # warm-up sweep excluded from reporting
            min_margin = min(min_margin, sweep_margin)
            if not sweep_margin >= -grid_tolerance:  # a clean sweep records nothing
                bad = margins < -grid_tolerance
                at = shape.order[bad]  # the breaching crossings, in search order
                d = shape.d[at]
                if shape.turn != phase.turn:  # renumber to this turn's defenders
                    d = (d + (shape.turn - phase.turn)) % params.n
                front.record(shape.k[at], d, shape.x[at], shape.j[at], rho[bad], shape.inner[bad])

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
        if sweep.advance is not None:
            # no detection while moving outward; one exact decay step
            front.begin(sweep.advance, None)
            front.settle()

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
        searches=searches,
        crossings=crossings,
        clearing_passes=front.passes,
        replayed_bins=front.replays,
    )

