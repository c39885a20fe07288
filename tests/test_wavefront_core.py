"""The event-driven wavefront core against the tick-by-tick reference.

`oracles.wavefront_run` steps every tick: decay all bins, report center
hits, then let each defender clear what its sensor swept. The library
finds crossing ticks by search and decays lazily instead. Both replay the
same phases, built here with the simulator's own planner, so breaches must
agree exactly (count, kind, bin, tick time) and every radius to within
1e-9 * R0. The golden tables pin the shipped simulate configs as they
stood under the tick loop.
"""

import csv
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


def oracle_phases(phases):
    out = []
    for ph in phases:
        if isinstance(ph, simulator._AdvancePhase):
            out.append(oracles.OracleAdvance(ph.duration))
        else:
            out.append(
                oracles.OracleSweep(
                    ph.index, ph.duration, ph.span, ph.progress, ph.inner,
                    ph.starts.tolist(), ph.dirs.tolist(),
                )
            )
    return out


def assert_matches_oracle(params, Vs, kind, grid):
    rep = simulator.run(params, Vs, kind, grid)
    mode, phases, _ = simulator._plan(params, Vs, kind, grid)
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
    _, phases, _ = simulator._plan(BASE, Vs, kind, grid)
    assert simulator._tick_lengths(phases[0].duration, grid.dt)[-1] < grid.dt
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


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", ["simulate-circular", "simulate-spiral"])
def test_simulate_tables_match_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    rc = cli.main(["simulate", "--config", str(ROOT / "configs" / f"{name}.cfg"), "--out", str(out)])
    assert rc == 0
    got, want = read_table(out), read_table(GOLDEN / f"{name}.csv")
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    for row, gold in zip(got, want):
        for col, value in gold.items():
            try:
                expected = float(value)
            except ValueError:
                assert row[col] == value, col
                continue
            if col in ("n", "bins", "index", "breaches"):
                assert row[col] == value, col
            else:
                assert float(row[col]) == pytest.approx(expected, rel=1e-8, abs=1e-9), col


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("n", [2, 32, 128, 130])
@pytest.mark.parametrize("mode", ["defense", "expansion"])
def test_crossing_ranks_match_a_full_sort(monkeypatch, kind, n, mode):
    # only bins met more than once are sorted to rank their crossings; the
    # (defender, bin, distance, tick, rank) set must equal the one a sort
    # of every crossing gives, on every sweep phase the planner lays out.
    # At 3601 bins, or n = 130, sector edges fall between bin centres.
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
    assert len(pairs) == len(grids) * 2
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
    # same-direction starts pass 2pi from index n on
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
    _, phases, _ = simulator._plan(params, 1.2, kind, grid)
    centers = (np.arange(grid.bins) + 0.5) * (2.0 * math.pi / grid.bins)
    ticks = crossings = passes = 0
    for ph in phases:
        if isinstance(ph, simulator._AdvancePhase):
            continue
        h = simulator._tick_lengths(ph.duration, rep.dt)
        t = np.cumsum(h)
        s = np.maximum.accumulate(np.append(ph.progress(t[:-1]), ph.span))
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
    _, phases, _ = simulator._plan(params, Vs, kind, grid)
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
