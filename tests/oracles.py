"""Independent reference computations used to check the library's closed forms.

Everything here iterates or sums the per-sweep difference equations
directly, in plain Python floats, with no closed-form shortcuts and no
imports from the package under test. Where the library answers with a
geometric-series formula, these oracles answer by brute force; agreement
between the two routes is the point of the comparison. The wavefront
replay at the end steps the simulator's frontier one tick at a time, the
way the library did before its crossing search replaced the tick loop,
and the crossing search itself is kept as it was when it sorted every
crossing of a sweep phase. The CSV renderer at the very end writes every
row through csv.writer, the way the report module did before it joined
plain lines itself.
"""

import csv
import io
import math
from typing import Callable, List, NamedTuple

import numpy as np


class OracleStep(NamedTuple):
    R: float        # protected radius at sweep start
    T_sweep: float  # sweep duration
    delta: float    # raw advance budget won by the sweep
    delta_eff: float
    T_out: float    # advance duration delta_eff / Vs


class OracleRun(NamedTuple):
    steps: List[OracleStep]
    R_asym: float
    R_max: float
    N: int
    R_last: float
    T_sweep_total: float
    T_out_total: float
    T_out_last: float
    T_total: float


def _finish(steps: List[OracleStep], R_asym: float, R_max: float, Vs: float) -> OracleRun:
    N = len(steps)
    R_last = steps[-1].R
    T_sweep_total = sum(s.T_sweep for s in steps)
    T_out_last = (R_max - R_last) / Vs
    T_out_total = sum(s.T_out for s in steps[:-1]) + T_out_last
    return OracleRun(
        steps, R_asym, R_max, N, R_last,
        T_sweep_total, T_out_total, T_out_last,
        T_sweep_total + T_out_total,
    )


def circular_pincer_run(R0, r, VT, n, eps, Vs) -> OracleRun:
    """Iterate the constant-radius pincer recursion until the target is met.

    Sweep i at radius R: arc 2*pi/n at speed Vs takes T = 2*pi*R/(n*Vs);
    budget delta = r - VT*T; the advance race keeps delta*Vs/(Vs+VT).
    Stops after the sweep whose successor radius reaches R_max = asymptote
    minus eps; the final advance is capped at R_max.
    """
    two_pi = 2.0 * math.pi
    R_asym = n * Vs * r / (two_pi * VT)
    R_max = R_asym - eps
    assert R_max > R0, "oracle asked for an unreachable expansion"
    steps: List[OracleStep] = []
    R = R0
    while True:
        T = two_pi * R / (n * Vs)
        delta = r - VT * T
        delta_eff = delta * Vs / (Vs + VT)
        steps.append(OracleStep(R, T, delta, delta_eff, delta_eff / Vs))
        R = R + delta_eff
        if R >= R_max:
            break
    return _finish(steps, R_asym, R_max, Vs)


def spiral_pincer_run(R0, r, VT, n, eps, Vs) -> OracleRun:
    """Iterate the spiral pincer recursion in sensor-center coordinates.

    Rt = R + r tracks the sensor center. One sweep takes T = Rt*(1-lam)/VT
    with lam = exp(-2*pi*VT/(n*sqrt(Vs^2-VT^2))); the budget is
    delta = 2r - VT*T and Rt advances by delta*Vs/(Vs+VT).
    """
    lam = math.exp(-2.0 * math.pi * VT / (n * math.sqrt(Vs * Vs - VT * VT)))
    R_asym = 2.0 * r / (1.0 - lam) - r
    R_max = R_asym - eps
    assert R_max > R0, "oracle asked for an unreachable expansion"
    steps: List[OracleStep] = []
    Rt = R0 + r
    while True:
        T = Rt * (1.0 - lam) / VT
        delta = 2.0 * r - VT * T
        delta_eff = delta * Vs / (Vs + VT)
        steps.append(OracleStep(Rt - r, T, delta, delta_eff, delta_eff / Vs))
        Rt = Rt + delta_eff
        if Rt - r >= R_max:
            break
    return _finish(steps, R_asym, R_max, Vs)


def circular_same_run(R0, r, VT, n, eps, Vs, max_steps=500000) -> OracleRun:
    """Same-direction circular baseline: each sweep covers 2*pi/n plus an
    overlap arc of one sensor half-length, so T = (2*pi*R/n + r)/Vs."""
    two_pi = 2.0 * math.pi
    R_asym = n * r * (Vs - VT) / (two_pi * VT)
    R_max = R_asym - eps
    assert R_max > R0, "oracle asked for an unreachable expansion"
    steps: List[OracleStep] = []
    R = R0
    while True:
        T = (two_pi * R / n + r) / Vs
        delta = r - VT * T
        delta_eff = delta * Vs / (Vs + VT)
        steps.append(OracleStep(R, T, delta, delta_eff, delta_eff / Vs))
        R = R + delta_eff
        if R >= R_max:
            break
        assert len(steps) < max_steps, "oracle runaway"
    return _finish(steps, R_asym, R_max, Vs)


def spiral_same_guard_angle(R, r, VT, Vs):
    """Extra angular sector a same-direction spiral defender must cover."""
    return math.asin(2.0 * r * Vs / ((Vs + VT) * (R + 2.0 * r)))


def spiral_same_lam(R, r, VT, n, Vs):
    span = 2.0 * math.pi / n + spiral_same_guard_angle(R, r, VT, Vs)
    return math.exp(-span * VT / math.sqrt(Vs * Vs - VT * VT))


def spiral_same_asymptote(R0, r, VT, n, Vs, iters=200, lo=0.0):
    """Radius where the same-direction spiral budget hits zero.

    delta(R) = 2r - (R+r)*(1-lam(R)) is decreasing in R; solve delta = 0 by
    bisection between lo and the (larger) spiral pincer asymptote, for a
    fixed number of steps.
    """
    lam_pincer = math.exp(-2.0 * math.pi * VT / (n * math.sqrt(Vs * Vs - VT * VT)))
    hi = 2.0 * r / (1.0 - lam_pincer) - r
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        delta = 2.0 * r - (mid + r) * (1.0 - spiral_same_lam(mid, r, VT, n, Vs))
        if delta > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spiral_same_run(R0, r, VT, n, eps, Vs, max_steps=500000) -> OracleRun:
    """Same-direction spiral baseline with the guard angle re-evaluated at
    each sweep-start radius."""
    R_asym = spiral_same_asymptote(R0, r, VT, n, Vs)
    R_max = R_asym - eps
    assert R_max > R0, "oracle asked for an unreachable expansion"
    steps: List[OracleStep] = []
    R = R0
    while True:
        lam = spiral_same_lam(R, r, VT, n, Vs)
        T = (R + r) * (1.0 - lam) / VT
        delta = 2.0 * r - VT * T
        delta_eff = delta * Vs / (Vs + VT)
        steps.append(OracleStep(R, T, delta, delta_eff, delta_eff / Vs))
        R = R + delta_eff
        if R >= R_max:
            break
        assert len(steps) < max_steps, "oracle runaway"
    return _finish(steps, R_asym, R_max, Vs)


def same_direction_exact(R0, r, VT, n, eps, Vs, spiral, Vc, max_steps=10_000_000):
    """The same-direction schedule as the library first computed it, float
    for float: one step function per kind evaluated per sweep, and the
    spiral asymptote bisected from R0 for the full 200 steps.

    Vc is the kind's critical speed, passed in because the spiral one is a
    root solve. Returns the name of the library's exception where it
    raises SubcriticalSpeed, NoExpansion or MaxIterations, else the run.
    """
    if Vs < Vc:
        return "SubcriticalSpeed"
    if spiral:
        R_asym = spiral_same_asymptote(R0, r, VT, n, Vs, lo=R0)
    elif Vs == Vc:
        return "NoExpansion"
    else:
        R_asym = n * r * (Vs - VT) / (2.0 * math.pi * VT)
    R_max = R_asym - eps
    if R_max <= R0:
        return "NoExpansion"
    steps: List[OracleStep] = []
    R = R0
    while True:
        if spiral:
            T = (R + r) * (1.0 - spiral_same_lam(R, r, VT, n, Vs)) / VT
            delta = 2.0 * r - VT * T
        else:
            T = (2.0 * math.pi * R / n + r) / Vs
            delta = r - VT * T
        delta_eff = delta * Vs / (Vs + VT)
        steps.append(OracleStep(R, T, delta, delta_eff, delta_eff / Vs))
        R = R + delta_eff
        if R >= R_max:
            break
        if len(steps) >= max_steps:
            return "MaxIterations"
    return _finish(steps, R_asym, R_max, Vs)


class OracleSweep(NamedTuple):
    """One sweep phase of a wavefront run, as plain inputs."""
    index: int
    duration: float
    span: float      # angular sector each defender covers
    progress: Callable[[float], float]  # angular progress s(t), s(0) = 0
    inner: Callable[[float], float]     # sensor inner radius at phase time t
    starts: List[float]  # start angle of each defender
    dirs: List[int]      # +1 counter-clockwise, -1 clockwise


class OracleAdvance(NamedTuple):
    """An outward move: no detection, one exact decay step."""
    duration: float


class OracleWavefront(NamedTuple):
    t_final: float
    sweeps: List[tuple]    # (index, t, rho_min, rho_max, margin) per sweep
    min_margin: float      # over the sweeps with index >= 1
    breaches: List[tuple]  # (t, bin, rho_at_pass, sensor_inner, kind)
    profiles: List[np.ndarray]  # frontier copy at every sweep end


def wavefront_run(phases, bins, dt, R0, r, VT, breach_tol, snap) -> OracleWavefront:
    """Tick-by-tick wavefront replay: the reference for the event-driven core.

    Every tick decays all bins by VT*h, reports bins that reach the center,
    then lets each defender in turn clear the bins its sensor line swept
    since the previous tick. A sweep lasts int(duration/dt) ticks of dt plus
    one remainder tick, and its last tick ends on the sector edge. Bin
    distances within snap of either sector edge are moved onto it, and a
    bin on the start edge is cleared on the first tick.
    """
    two_pi = 2.0 * math.pi
    binwidth = two_pi / bins
    centers = (np.arange(bins) + 0.5) * binwidth
    rho = np.full(bins, float(R0))
    center_hit = np.zeros(bins, dtype=bool)
    t = 0.0
    breaches: List[tuple] = []
    sweeps: List[tuple] = []
    profiles: List[np.ndarray] = []
    min_margin = math.inf

    def decay(h):
        nonlocal rho
        rho -= VT * h
        hit = (rho <= 0.0) & ~center_hit
        for j in np.flatnonzero(hit):
            breaches.append((t, int(j), 0.0, 0.0, "CenterReached"))
        center_hit[hit] = True
        np.maximum(rho, 0.0, out=rho)

    for phase in phases:
        if isinstance(phase, OracleAdvance):
            t += phase.duration
            decay(phase.duration)
            continue
        starts = np.asarray(phase.starts, dtype=float)
        dirs = np.asarray(phase.dirs)
        dist = ((centers[None, :] - starts[:, None]) * dirs[:, None]) % two_pi
        dist[(dist <= snap) | (dist >= two_pi - snap)] = 0.0
        dist[np.abs(dist - phase.span) <= snap] = phase.span
        order = np.argsort(dist, axis=1, kind="stable")
        sorted_dist = np.take_along_axis(dist, order, axis=1)

        counted = phase.index >= 1
        sweep_margin = math.inf
        n_full = int(phase.duration / dt)
        remainder = phase.duration - n_full * dt
        ticks = [dt] * n_full + ([remainder] if remainder > 1e-12 * dt else [])
        t_local = 0.0
        s_prev = 0.0
        for k, h in enumerate(ticks):
            last = k == len(ticks) - 1
            t_local = phase.duration if last else t_local + h
            t += h
            decay(h)
            s_now = phase.span if last else phase.progress(t_local)
            r_inner = phase.inner(t_local)
            r_outer = r_inner + 2.0 * r
            for d in range(len(starts)):
                i0 = np.searchsorted(sorted_dist[d], s_prev, side="right") if k else 0
                i1 = np.searchsorted(sorted_dist[d], s_now, side="right")
                if i1 == i0:
                    continue
                idx = order[d, i0:i1]
                margins = rho[idx] - r_inner
                sweep_margin = min(sweep_margin, float(margins.min()))
                if counted:
                    for j in idx[margins < -breach_tol]:
                        breaches.append((t, int(j), float(rho[j]), r_inner, "UnderSensor"))
                rho[idx] = np.maximum(rho[idx], r_outer)
            s_prev = s_now

        if counted:
            min_margin = min(min_margin, sweep_margin)
        sweeps.append((phase.index, t, float(rho.min()), float(rho.max()), sweep_margin))
        profiles.append(rho.copy())

    return OracleWavefront(t, sweeps, min_margin, breaches, profiles)


def sweep_starts(n, pincer, index, span):
    """Start angle and direction (+1 counter-clockwise) of each of n
    defenders in sweep `index`, one defender at a time.

    Pincer pair p shares the axis of sector 2p: even sweeps leave it back
    to back, odd sweeps return to it from span away. Same-direction
    defenders all turn counter-clockwise, one sector further each sweep:
    defender d starts sweep `index` at slot (d + index) mod n.
    """
    two_pi = 2.0 * math.pi
    starts = np.empty(n)
    dirs = np.empty(n, dtype=np.int64)
    if pincer:
        outbound = index % 2 == 0
        for p in range(n // 2):
            axis = two_pi * (2 * p) / n
            if outbound:
                starts[2 * p], dirs[2 * p] = axis, 1
                starts[2 * p + 1], dirs[2 * p + 1] = axis, -1
            else:
                starts[2 * p], dirs[2 * p] = axis + span, -1
                starts[2 * p + 1], dirs[2 * p + 1] = axis - span, 1
    else:
        for d in range(n):
            starts[d] = two_pi * ((d + index) % n) / n
            dirs[d] = 1
    return starts, dirs


def sorted_crossings(phase, centers, s, snap):
    """Every (defender, bin) crossing of a sweep phase, sorted by (bin,
    tick, defender), with each crossing's rank among those of its bin.

    The simulator's crossing search as it stood when it sorted every
    crossing; it now sorts only the bins met more than once. Returns
    defender, bin, distance, tick and rank arrays.
    """
    two_pi = 2.0 * math.pi
    M = len(centers)
    binwidth = two_pi / M
    width = min(int(math.ceil(phase.span / binwidth)) + 5, M)
    low_edge = np.where(phase.dirs > 0, phase.starts, phase.starts - phase.span)
    lowest = np.floor(low_edge / binwidth - 0.5).astype(np.int64) - 2
    window = (lowest[:, None] + np.arange(width)) % M
    dist = ((centers[window] - phase.starts[:, None]) * phase.dirs[:, None]) % two_pi
    dist[(dist <= snap) | (dist >= two_pi - snap)] = 0.0
    dist[np.abs(dist - phase.span) <= snap] = phase.span
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


def _csv_cell(value, float_format: str) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return float_format % value
    return str(value)


def csv_render(columns, rows, float_format: str = "%.9g") -> str:
    """Reference CSV text: each cell through one formatting function, each
    row through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(v, float_format) for v in row])
    return buf.getvalue()
