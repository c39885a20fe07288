"""The event-driven wavefront core against the tick-by-tick reference.

`oracles.wavefront_run` steps every tick: decay all bins, report center
hits, then let each defender clear what its sensor swept. The library
finds crossing ticks by search and decays lazily instead. Both replay the
same phases, built here with the simulator's own planner, so breaches must
agree exactly (count, kind, bin, tick time) and every radius to within
1e-9 * R0. The golden tables pin the shipped simulate configs byte for
byte.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from sweepdefense import circular_pincer, cli, protocols, same_direction, simulator, spiral_pincer
from sweepdefense.scenario import ProtocolKind, ScenarioParams
from sweepdefense.simulator import SimConfig

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CRITICAL = {
    ProtocolKind.CIRCULAR_PINCER: circular_pincer.critical_speed,
    ProtocolKind.SPIRAL_PINCER: spiral_pincer.critical_speed,
    ProtocolKind.CIRCULAR_SAME_DIRECTION: same_direction.circular_same_critical_speed,
    ProtocolKind.SPIRAL_SAME_DIRECTION: same_direction.spiral_same_critical_speed,
}
BASE = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1)


def planned_phases(params, Vs, kind, grid):
    """The run's mode and every (sweep phase, its progress s(t), its
    sensor's inner radius at t, advance or None) it steps."""
    mode, sweeps, repeats, _, _ = simulator._plan(params, Vs, kind, grid)
    phases = simulator._phases(params, kind, sweeps, repeats)
    motion = simulator._motion
    return mode, [(ph, *motion(params, Vs, kind, p)[:2], p.advance) for ph, p in phases]


def oracle_phases(phases):
    out = []
    for ph, progress, inner, advance in phases:
        out.append(
            oracles.OracleSweep(
                ph.index, ph.duration, ph.span, progress, inner,
                ph.starts.tolist(), ph.dirs.tolist(),
            )
        )
        if advance is not None:
            out.append(oracles.OracleAdvance(advance))
    return out


def assert_matches_oracle(params, Vs, kind, grid):
    rep = simulator.run(params, Vs, kind, grid)
    mode, phases = planned_phases(params, Vs, kind, grid)
    assert mode == rep.mode
    ref = oracles.wavefront_run(
        oracle_phases(phases), rep.bins, rep.dt, params.R0, params.r, params.VT,
        rep.grid_tolerance, snap=simulator._EDGE_SNAP,
    )
    log = rep.breaches.tolist()
    got = [(t, j, "CenterReached" if c else "UnderSensor") for t, j, _, _, c in log]
    want = [(t, j, kind_) for t, j, _, _, kind_ in ref.breaches]
    assert got == want
    close = 1e-9 * params.R0
    for (_, _, rho, inner, _), (_, _, rho_ref, inner_ref, _) in zip(log, ref.breaches):
        assert rho == pytest.approx(rho_ref, abs=close)
        assert inner == pytest.approx(inner_ref, abs=close)
    assert rep.t_final == ref.t_final
    assert len(rep.sweeps) == len(ref.sweeps)
    for rec, (index, t, rho_min, rho_max, margin) in zip(rep.sweeps, ref.sweeps):
        assert (rec.index, rec.t) == (index, t)
        assert rec.rho_min == pytest.approx(rho_min, abs=close)
        assert rec.rho_max == pytest.approx(rho_max, abs=close)
        assert rec.margin == pytest.approx(margin, abs=close)
    if math.isinf(ref.min_margin):
        assert rep.min_margin == ref.min_margin
    else:
        assert rep.min_margin == pytest.approx(ref.min_margin, abs=close)
    if grid.capture_profiles:
        assert len(rep.profiles) == len(ref.profiles)
        for mine, theirs in zip(rep.profiles, ref.profiles):
            assert np.abs(mine - theirs).max() <= close
    return rep


@pytest.mark.parametrize("n", [2, 32, 128])
@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("below", [True, False])
def test_defense_matches_tick_loop(n, kind, below):
    params = ScenarioParams(R0=400.0, r=10.0, VT=1.0, n=n, eps=0.1)
    Vc = CRITICAL[kind](params)
    Vs = params.VT + 0.75 * (Vc - params.VT) if below else 1.1 * Vc
    grid = SimConfig(bins=1800, mode="defense", cycles=2, capture_profiles=True)
    rep = assert_matches_oracle(params, Vs, kind, grid)
    if below and kind in (ProtocolKind.CIRCULAR_PINCER, ProtocolKind.SPIRAL_PINCER):
        assert len(rep.breaches), "the comparison should cover sensor breaches"


@pytest.mark.parametrize("n", [2, 32])
@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("below", [True, False])
def test_repeated_sweep_shapes_match_tick_loop(n, kind, below):
    # from the third sweep on, a pincer defense plays its outbound and
    # inbound sweeps from the searches of its first two
    params = ScenarioParams(R0=400.0, r=10.0, VT=1.0, n=n, eps=0.1)
    Vc = CRITICAL[kind](params)
    Vs = params.VT + 0.75 * (Vc - params.VT) if below else 1.1 * Vc
    grid = SimConfig(bins=1800, mode="defense", cycles=4, capture_profiles=True)
    rep = assert_matches_oracle(params, Vs, kind, grid)
    if below and protocols.is_pincer(kind):
        late = rep.breaches["t"] > rep.sweeps[1].t
        assert late.any(), "the comparison should cover breaches in replayed sweeps"


@pytest.mark.parametrize(
    "kind, n, tied",
    [
        (ProtocolKind.CIRCULAR_SAME_DIRECTION, 400, False),
        (ProtocolKind.CIRCULAR_SAME_DIRECTION, 1000, True),
        (ProtocolKind.SPIRAL_SAME_DIRECTION, 400, False),
        (ProtocolKind.SPIRAL_SAME_DIRECTION, 1000, False),
    ],
)
@pytest.mark.parametrize("below", [True, False])
def test_defenders_crossing_one_bin_on_one_tick_match_tick_loop(monkeypatch, kind, n, tied, below):
    # with more defenders than bins, one tick can carry two neighbouring
    # sensors over one bin, and the pair clears in defender order, so such
    # a shape is searched again at each turn. At 360 bins a tick moves a
    # sensor at most half a bin, less than the 2pi/400 between neighbours:
    # n = 400 never ties. A spiral sensor moves that far only near its
    # sweep's end, and at n = 1000 no tick there meets a tie
    params = ScenarioParams(R0=100.0, r=40.0, VT=1.0, n=n, eps=0.1)
    Vc = CRITICAL[kind](params)
    Vs = params.VT + 0.5 * (Vc - params.VT) if below else 1.2 * Vc
    grid = SimConfig(bins=360, mode="defense", cycles=3)
    rep = assert_matches_oracle(params, Vs, kind, grid)
    assert rep.searches == (len(rep.sweeps) if tied else 1)
    if below and kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
        assert len(rep.breaches), "the comparison should cover sensor breaches"
    # bit for bit what a search of every sweep gives
    monkeypatch.setattr(simulator, "_recent", lambda store, key, make: make())
    fresh = simulator.run(params, Vs, kind, grid)
    assert fresh.searches == len(fresh.sweeps)
    assert (rep.sweeps, rep.min_margin, rep.t_final) == (fresh.sweeps, fresh.min_margin, fresh.t_final)
    assert rep.breaches.tobytes() == fresh.breaches.tobytes()


def test_a_tie_keeps_its_own_turns_defender_order():
    # every bin breaches on one tick of each counted sweep here, and the
    # log lists a tick's breaches by defender; had the later turns reused
    # turn 0's order for their ties, bin 0's breach would move in the log
    params = ScenarioParams(R0=100.0, r=49.0, VT=1.0, n=2000, eps=0.1)
    kind = ProtocolKind.SPIRAL_SAME_DIRECTION
    Vs = params.VT + 0.8 * (CRITICAL[kind](params) - params.VT)
    rep = assert_matches_oracle(params, Vs, kind, SimConfig(bins=500, mode="defense", cycles=3))
    assert rep.searches == len(rep.sweeps) == 3
    assert len(rep.breaches) == 2 * 500


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_ten_sweep_expansion_matches_tick_loop(kind):
    Vs = CRITICAL[kind](BASE) + 10.0 * BASE.VT
    grid = SimConfig(bins=1800, mode="expansion", max_sweeps=10, capture_profiles=True)
    assert_matches_oracle(BASE, Vs, kind, grid)


@pytest.mark.parametrize("max_sweeps", [None, 3])
def test_full_and_truncated_schedules_match_tick_loop(max_sweeps):
    params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=2, eps=5.0)
    Vs = CRITICAL[ProtocolKind.SPIRAL_PINCER](params) + 10.0 * params.VT
    grid = SimConfig(bins=720, mode="expansion", max_sweeps=max_sweeps)
    rep = assert_matches_oracle(params, Vs, ProtocolKind.SPIRAL_PINCER, grid)
    full = spiral_pincer.sweep_count(params, Vs)
    assert len(rep.sweeps) == (full if max_sweeps is None else max_sweeps)


@pytest.mark.parametrize("kind", [ProtocolKind.CIRCULAR_PINCER, ProtocolKind.SPIRAL_PINCER])
def test_explicit_dt_with_remainder_tick_matches_tick_loop(kind):
    Vs = 0.9 * CRITICAL[kind](BASE)
    grid = SimConfig(bins=720, mode="defense", dt=0.0037, capture_profiles=True)
    _, phases = planned_phases(BASE, Vs, kind, grid)
    assert simulator._tick_lengths(phases[0][0].duration, grid.dt)[-1] < grid.dt
    rep = assert_matches_oracle(BASE, Vs, kind, grid)
    assert len(rep.breaches)


@pytest.mark.parametrize("Vs", [1.5, 1.2])
def test_center_reached_matches_tick_loop(Vs):
    # hopeless defenses: the front reaches 0 on (or within rounding of) a
    # tick boundary, so only a step-by-step fall finds the loop's tick
    params = ScenarioParams(R0=5.0, r=1.0, VT=1.0, n=2, eps=0.1)
    grid = SimConfig(bins=720, mode="defense")
    rep = assert_matches_oracle(params, Vs, ProtocolKind.CIRCULAR_PINCER, grid)
    assert set(rep.breaches["center"].tolist()) == {True, False}


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("kind", [ProtocolKind.CIRCULAR_PINCER, ProtocolKind.SPIRAL_PINCER])
def test_pincer_meeting_bins_are_cleared(n, kind):
    # at 3600 bins and n = 32 or 128 some bin centres sit exactly on a
    # sector edge, where both pincer partners meet; each must clear them
    params = ScenarioParams(R0=400.0, r=10.0, VT=1.0, n=n, eps=0.1)
    Vs = 1.1 * CRITICAL[kind](params)
    rep = simulator.run(params, Vs, kind, SimConfig(mode="defense"))
    assert len(rep.breaches) == 0
    assert rep.min_margin > 0.0


def test_integer_radius_runs_like_a_float_one():
    as_int = ScenarioParams(R0=100, r=10.0, VT=1.0, n=2, eps=0.1)
    got = simulator.run(as_int, 40.0, ProtocolKind.CIRCULAR_PINCER)
    want = simulator.run(BASE, 40.0, ProtocolKind.CIRCULAR_PINCER)
    assert got.sweeps == want.sweeps
    assert len(got.breaches) == len(want.breaches) == 0


@pytest.mark.parametrize("name", ["simulate-circular", "simulate-spiral"])
def test_simulate_tables_match_golden(tmp_path, name):
    # byte for byte: a tolerance would let a margin that is rounding noise
    # (about 7e-13 on the spiral run) drift unseen
    out = tmp_path / f"{name}.csv"
    rc = cli.main(["simulate", "--config", str(ROOT / "configs" / f"{name}.cfg"), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("n", [2, 32, 128, 130])
@pytest.mark.parametrize("mode", ["defense", "expansion"])
def test_crossing_ranks_match_a_full_sort(monkeypatch, kind, n, mode):
    # only bins met more than once are sorted to rank their crossings; the
    # (defender, bin, distance, tick, rank) set must equal the one a sort
    # of every crossing gives, on every sweep phase the run searches. A
    # same-direction defense searches once: its second sweep is its first
    # turned by one slot. At 3601 bins, or n = 130, sector edges fall
    # between bin centres.
    params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=n, eps=0.1)
    Vc = CRITICAL[kind](params)
    Vs = max(0.9 * Vc, 1.1 * params.VT) if mode == "defense" else Vc + 10.0 * params.VT
    crossings = simulator._crossings
    pairs = []

    def recorded(phase, centers, s):
        got = crossings(phase, centers, s)
        want = oracles.sorted_crossings(phase, centers, s, simulator._EDGE_SNAP)
        pairs.append((got, want))
        return got

    monkeypatch.setattr(simulator, "_crossings", recorded)
    grids = (360, 3600, 3601, 36000)
    for bins in grids:
        simulator.run(params, Vs, kind, SimConfig(bins=bins, mode=mode, cycles=2, max_sweeps=2))
    searched = 1 if mode == "defense" and not protocols.is_pincer(kind) else 2
    assert len(pairs) == len(grids) * searched
    shared = 0
    for got, want in pairs:
        assert sorted(zip(*(a.tolist() for a in got))) == sorted(zip(*(a.tolist() for a in want)))
        shared += int(want[4].max())
    # same-direction sectors overlap; pincer partners share only the bins
    # whose centres sit on a sector edge, as some do at n = 32
    if not protocols.is_pincer(kind) or n == 32:
        assert shared > 0, "the comparison should cover bins met more than once"


@pytest.mark.parametrize("kind", [ProtocolKind.CIRCULAR_PINCER, ProtocolKind.CIRCULAR_SAME_DIRECTION])
@pytest.mark.parametrize("n", [2, 4, 32, 128, 130])
def test_sweep_starts_match_a_per_defender_loop(kind, n):
    # same-direction starts come back to slot 0 from index n on
    params = ScenarioParams(R0=400.0, r=10.0, VT=1.0, n=n, eps=0.1)
    span = 2.0 * math.pi / n + 0.01
    for index in range(2 * n + 1):
        starts, dirs = simulator._sweep_starts(params, kind, index, span)
        want_starts, want_dirs = oracles.sweep_starts(n, protocols.is_pincer(kind), index, span)
        assert starts.tobytes() == want_starts.tobytes()
        assert dirs.tolist() == want_dirs.tolist()


def test_run_counts_its_work():
    # spiral-same at n = 32 shares bins, so some phases take several passes
    params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=32, eps=0.1)
    kind = ProtocolKind.SPIRAL_SAME_DIRECTION
    grid = SimConfig(bins=720, mode="defense", cycles=2)
    rep = simulator.run(params, 1.2, kind, grid)
    _, phases = planned_phases(params, 1.2, kind, grid)
    centers = (np.arange(grid.bins) + 0.5) * (2.0 * math.pi / grid.bins)
    ticks = crossings = passes = 0
    for ph, progress, _, _ in phases:
        h = simulator._tick_lengths(ph.duration, rep.dt)
        t = np.cumsum(h)
        s = np.maximum.accumulate(np.append(progress(t[:-1]), ph.span))
        _, j, _, _, rank = oracles.sorted_crossings(ph, centers, s, simulator._EDGE_SNAP)
        ticks, crossings, passes = ticks + len(h), crossings + len(j), passes + int(rank.max()) + 1
    assert passes > len(rep.sweeps)
    assert (rep.ticks, rep.crossings, rep.clearing_passes) == (ticks, crossings, passes)
    assert rep.replayed_bins == 0
    # hopeless: every center hit is found by replaying the bin's fall
    params = ScenarioParams(R0=5.0, r=1.0, VT=1.0, n=2, eps=0.1)
    rep = simulator.run(params, 1.5, ProtocolKind.CIRCULAR_PINCER, SimConfig(bins=720, mode="defense"))
    assert rep.replayed_bins >= len(rep.center_hits) > 0


@pytest.mark.parametrize(
    "params, Vs, kind",
    [
        (
            ScenarioParams(R0=400.0, r=10.0, VT=1.0, n=32, eps=0.1),
            1.2,
            ProtocolKind.SPIRAL_SAME_DIRECTION,
        ),
        # hopeless: center hits as well as sensor breaches
        (ScenarioParams(R0=5.0, r=1.0, VT=1.0, n=2, eps=0.1), 1.5, ProtocolKind.CIRCULAR_PINCER),
    ],
)
def test_breach_log_is_sorted_when_first_read(params, Vs, kind):
    grid = SimConfig(bins=720, mode="defense", cycles=2)
    rep = simulator.run(params, Vs, kind, grid)
    count = rep.breach_count
    assert "breaches" not in vars(rep)
    _, phases = planned_phases(params, Vs, kind, grid)
    ref = oracles.wavefront_run(
        oracle_phases(phases), rep.bins, rep.dt, params.R0, params.r, params.VT,
        rep.grid_tolerance, snap=simulator._EDGE_SNAP,
    )
    log = rep.breaches
    assert "breaches" in vars(rep)
    assert count == len(log) == len(ref.breaches) > 0
    got = [(t, j, bool(c)) for t, j, _, _, c in log.tolist()]
    want = [(t, j, kind_ == "CenterReached") for t, j, _, _, kind_ in ref.breaches]
    assert got == want
    close = 1e-9 * params.R0
    assert np.abs(log["rho_at_pass"] - [b[2] for b in ref.breaches]).max() <= close
    assert np.abs(log["sensor_inner"] - [b[3] for b in ref.breaches]).max() <= close


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("n", [2, 32, 128])
@pytest.mark.parametrize("bins", [3600, 3601])
def test_passes_lay_crossings_out_in_bin_order(monkeypatch, kind, n, bins):
    # a kept shape groups its crossings by rank, in bin order within each
    # rank; the first pass meets every bin once and is played through
    # slice(None), and pincer meetings and same-direction overlaps keep
    # their bin arrays. At 3601 bins the bin centre opposite 0 sits on a
    # pincer sector edge, at 3600 and n >= 32 several do
    params = ScenarioParams(R0=400.0, r=10.0, VT=1.0, n=n, eps=0.1)
    Vs = 1.1 * CRITICAL[kind](params)
    search = simulator._shape
    kept = []

    def recorded(phase, track, centers, levels, two_r):
        shape = search(phase, track, centers, levels, two_r)
        kept.append((shape, phase, track.s, levels, two_r))
        return shape

    monkeypatch.setattr(simulator, "_shape", recorded)
    simulator.run(params, Vs, kind, SimConfig(bins=bins, mode="defense"))
    centers = (np.arange(bins) + 0.5) * (2.0 * math.pi / bins)
    assert len(kept) == (2 if protocols.is_pincer(kind) else 1)
    for shape, phase, s, levels, two_r in kept:
        first, *later = shape.passes
        assert first.sel == slice(0, bins) and first.bins == slice(None)
        assert sorted(shape.order.tolist()) == list(range(len(shape.j)))
        _, j, _, k, rank = oracles.sorted_crossings(phase, centers, s, simulator._EDGE_SNAP)
        want = sorted(zip(rank.tolist(), j.tolist(), k.tolist()))
        got = []
        for r, p in enumerate(shape.passes):
            at = shape.order[p.sel]
            pj, pk = shape.j[at], shape.k[at]
            if p is not first:
                assert isinstance(p.bins, np.ndarray) and p.bins.tolist() == pj.tolist()
            assert (np.diff(pj) > 0).all()
            assert p.order.tolist() == at.tolist()
            assert p.k1.tolist() == (pk + 1).tolist()
            assert p.level.tolist() == levels[pk].tolist()
            assert p.floor.tolist() == (shape.inner[p.sel] + two_r).tolist()
            got += [(r, b, t) for b, t in zip(pj.tolist(), pk.tolist())]
        assert got == want
        assert shape.top == max(p.floor.max() for p in shape.passes)
        if not protocols.is_pincer(kind) or n > 2 or bins == 3601:
            assert later, "the comparison should cover passes after the first"


def test_some_bins_of_a_full_pass_near_the_centre_match_tick_loop():
    # hopeless: the front reaches the centre in only some bins of a pass
    # over every bin, so the one-reduction check cannot rule the pass out
    # and the exact near-centre test picks those bins out
    params = ScenarioParams(R0=20.0, r=1.0, VT=1.0, n=4, eps=0.1)
    grid = SimConfig(bins=720, mode="defense", capture_profiles=True)
    rep = assert_matches_oracle(params, 1.5, ProtocolKind.CIRCULAR_SAME_DIRECTION, grid)
    assert 0 < len(rep.center_hits) < grid.bins


@pytest.mark.parametrize("below", [True, False])
def test_tied_shape_at_twice_the_bins_matches_tick_loop(below):
    # n = 2 * bins: a tick can carry two neighbours over one bin, so each
    # turn is searched apart and its later passes keep bin arrays
    params = ScenarioParams(R0=100.0, r=40.0, VT=1.0, n=1440, eps=0.1)
    kind = ProtocolKind.CIRCULAR_SAME_DIRECTION
    Vc = CRITICAL[kind](params)
    Vs = params.VT + 0.5 * (Vc - params.VT) if below else 1.2 * Vc
    rep = assert_matches_oracle(params, Vs, kind, SimConfig(bins=720, mode="defense", cycles=3))
    assert rep.searches == len(rep.sweeps) == 3


def test_center_hits_keep_the_search_order(monkeypatch):
    # near bins are replayed in the order the search found them, which
    # sets the center-hit list and the count a refused run reports. The
    # reference run lays each pass out in that order and clears it through
    # bin arrays, as runs did before passes were put in bin order
    params = ScenarioParams(R0=5.0, r=1.0, VT=1.0, n=2, eps=0.1)
    kind = ProtocolKind.CIRCULAR_SAME_DIRECTION
    grid = SimConfig(bins=720, mode="defense")
    rep = simulator.run(params, 1.5, kind, grid)

    def in_search_order(phase, track, centers, levels, two_r):
        d, j, x, k, rank = simulator._crossings(phase, centers, track.s)
        order = np.argsort(rank, kind="stable")
        kp = k[order]
        inner = track.inner[kp]
        passes, lo = [], 0
        for size in np.bincount(rank).tolist():
            sel = slice(lo, lo + size)
            at = order[sel]
            floor = inner[sel] + two_r
            passes.append(simulator._Pass(sel, j[at], levels[kp[sel]], floor, kp[sel] + 1, at))
            lo += size
        top = float((inner + two_r).max())
        return simulator._Shape(
            d, j, x, k, order, inner, tuple(passes), top, phase.index, phase.turn
        )

    monkeypatch.setattr(simulator, "_shape", in_search_order)
    ref = simulator.run(params, 1.5, kind, grid)
    assert len(ref.center_hits) > 0
    assert rep.center_hits == ref.center_hits
    assert (rep.sweeps, rep.replayed_bins) == (ref.sweeps, ref.replayed_bins)


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("mode", ["defense", "expansion"])
def test_top_bounds_every_frontier_value(monkeypatch, kind, mode):
    # the near-centre check is skipped only when every lazy radius exceeds
    # 4e-9 * top, which is exact only while no value is above top
    sweep = simulator._sweep
    seen = []

    def checked(front, shape):
        rho = sweep(front, shape)
        seen.append(front.value.max() <= front.top)
        return rho

    monkeypatch.setattr(simulator, "_sweep", checked)
    Vs = CRITICAL[kind](BASE) * (0.9 if mode == "defense" else 1.5)
    simulator.run(BASE, Vs, kind, SimConfig(bins=720, mode=mode, max_sweeps=4))
    assert len(seen) >= 3 and all(seen)
