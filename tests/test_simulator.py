"""Wavefront simulator checks against the analytic schedules.

The engine is deliberately independent of the closed forms: it only knows
the sweep kinematics and the inward-creeping frontier. These tests pin the
places where the two routes must meet exactly (spiral margins, sweep-end
radii) and where they meet up to grid noise (circular margins).
"""

import itertools
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from sweepdefense import circular_pincer, protocols, same_direction, simulator, spiral_pincer
from sweepdefense.errors import (
    ConfigError, MaxIterations, NoExpansion, SpeedTooLow, SubcriticalSpeed,
)
from sweepdefense.scenario import ProtocolKind, ScenarioParams
from sweepdefense.simulator import SimConfig

CIRC = ProtocolKind.CIRCULAR_PINCER
SPIR = ProtocolKind.SPIRAL_PINCER
CIRC_SAME = ProtocolKind.CIRCULAR_SAME_DIRECTION
SPIR_SAME = ProtocolKind.SPIRAL_SAME_DIRECTION

cached_run = lru_cache(maxsize=None)(simulator.run)


def make(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1) -> ScenarioParams:
    return ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps)


def circular_defense_margin(params: ScenarioParams, Vs: float) -> float:
    """Steady defense margin for circular sweeps: twice the sweep budget."""
    T = 2.0 * math.pi * params.R0 / (params.n * Vs)
    return 2.0 * (params.r - params.VT * T)


def spiral_defense_margin(params: ScenarioParams, Vs: float) -> float:
    """Steady defense margin for spiral sweeps, zero at the critical root."""
    lat = math.sqrt(Vs * Vs - params.VT * params.VT)
    lam = math.exp(-2.0 * math.pi * params.VT / (params.n * lat))
    return 2.0 * params.r * Vs / (Vs + params.VT) - (params.R0 + params.r) * (1.0 - lam)


def margin_noise(rep, params: ScenarioParams, Vs: float) -> float:
    """Bound on circular-margin quantization: tick plus bin rounding."""
    binwidth = 2.0 * math.pi / rep.bins
    return 5.0 * params.VT * (rep.dt + binwidth * params.R0 / Vs)


class TestConfigValidation:
    def test_too_few_bins(self):
        with pytest.raises(ConfigError):
            simulator.run(make(), 40.0, CIRC, SimConfig(bins=100))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            simulator.run(make(), 40.0, CIRC, SimConfig(mode="sideways"))

    def test_dt_crossing_a_bin_per_tick(self):
        # at Vs/R0 rad per tick the sweep would skip bins outright
        with pytest.raises(ConfigError):
            simulator.run(make(), 40.0, CIRC, SimConfig(bins=3600, dt=1.0))

    def test_speed_at_or_below_threat(self):
        with pytest.raises(SpeedTooLow):
            simulator.run(make(), 1.0, CIRC)
        for Vs in (1.0, 0.5):
            with pytest.raises(SpeedTooLow):
                simulator.run(make(), Vs, SPIR)

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ConfigError):
            simulator.run(make(), 40.0, CIRC, SimConfig(cycles=0))
        with pytest.raises(ConfigError):
            simulator.run(make(), 40.0, CIRC, SimConfig(max_sweeps=0))

    def test_explicit_expansion_below_critical(self):
        with pytest.raises(SubcriticalSpeed):
            simulator.run(make(), 20.0, CIRC, SimConfig(mode="expansion"))

    def test_explicit_expansion_with_no_room(self):
        p = make(eps=50.0)  # beyond what Vs = Vc + 10 can reach
        with pytest.raises(NoExpansion):
            simulator.run(p, 41.0, CIRC, SimConfig(mode="expansion"))


class TestModeResolution:
    def test_auto_mode_resolution(self):
        p = make()
        assert cached_run(p, 20.0, CIRC).mode == "defense"
        assert cached_run(p, 40.0, CIRC).mode == "expansion"

    def test_auto_falls_back_when_no_room(self):
        # supercritical speed but eps asks for more than the asymptote allows
        rep = simulator.run(make(eps=50.0), 41.0, CIRC)
        assert rep.mode == "defense"


class TestCircularDefense:
    def test_margin_vanishes_at_critical_speed(self):
        p = make()
        Vc = circular_pincer.critical_speed(p)
        rep = cached_run(p, Vc, CIRC, SimConfig(mode="defense"))
        assert abs(rep.min_margin) <= rep.grid_tolerance, (
            f"margin {rep.min_margin} at Vc should sit within {rep.grid_tolerance}"
        )
        assert len(rep.breaches) == 0

    @pytest.mark.parametrize("factor", [0.9, 0.95, 1.05, 1.1])
    def test_margin_matches_budget(self, factor):
        p = make()
        Vs = factor * circular_pincer.critical_speed(p)
        rep = cached_run(p, Vs, CIRC, SimConfig(mode="defense"))
        want = circular_defense_margin(p, Vs)
        assert abs(rep.min_margin - want) <= margin_noise(rep, p, Vs), (
            f"margin {rep.min_margin} vs predicted {want}"
        )

    def test_breach_below_but_not_above(self):
        p = make()
        Vc = circular_pincer.critical_speed(p)
        below = cached_run(p, 0.9 * Vc, CIRC, SimConfig(mode="defense"))
        above = cached_run(p, 1.1 * Vc, CIRC, SimConfig(mode="defense"))
        assert len(below.breaches), "subcritical defense must leak"
        assert len(above.breaches) == 0
        ev = below.breaches[0]
        assert not ev["center"]
        assert ev["rho_at_pass"] < ev["sensor_inner"]
        assert 0 <= ev["bin"] < below.bins
        assert ev["t"] > 0.0

    @pytest.mark.parametrize(
        "R0,r,VT,n", [(50.0, 5.0, 0.5, 4), (200.0, 8.0, 2.0, 6), (30.0, 3.0, 0.2, 2)]
    )
    def test_critical_margin_across_families(self, R0, r, VT, n):
        p = make(R0=R0, r=r, VT=VT, n=n)
        Vc = circular_pincer.critical_speed(p)
        rep = simulator.run(p, Vc, CIRC, SimConfig(bins=720, mode="defense"))
        assert abs(rep.min_margin) <= rep.grid_tolerance


class TestSpiralDefense:
    def test_margin_vanishes_at_root(self):
        p = make()
        root = spiral_pincer.critical_speed(p)
        rep = cached_run(p, root, SPIR, SimConfig(mode="defense"))
        # spiral margins carry no angular quantization: the sensor tracks
        # the frontier, so tick rounding cancels out of the difference
        assert abs(rep.min_margin) <= 1e-9 * p.R0
        assert len(rep.breaches) == 0

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("factor", [0.95, 1.05])
    def test_margin_is_exact(self, n, factor):
        p = make(n=n)
        Vs = factor * spiral_pincer.critical_speed(p)
        rep = simulator.run(p, Vs, SPIR, SimConfig(bins=720, mode="defense"))
        want = spiral_defense_margin(p, Vs)
        assert rep.min_margin == pytest.approx(want, abs=1e-9 * p.R0), (
            f"n={n} Vs={Vs}: margin {rep.min_margin} vs {want}"
        )

    def test_breach_below_but_not_above(self):
        p = make()
        root = spiral_pincer.critical_speed(p)
        below = cached_run(p, 0.9 * root, SPIR, SimConfig(mode="defense"))
        above = cached_run(p, 1.1 * root, SPIR, SimConfig(mode="defense"))
        assert len(below.breaches) and len(above.breaches) == 0

    def test_every_counted_cycle_sees_the_same_margin(self):
        p = make()
        rep = cached_run(p, 1.1 * spiral_pincer.critical_speed(p), SPIR,
                         SimConfig(mode="defense"))
        counted = [s.margin for s in rep.sweeps if s.index >= 1]
        assert len(counted) == 2
        assert counted[0] == pytest.approx(counted[1], abs=1e-9)


def test_long_defense_holds_no_phase_per_cycle():
    # each cycle's sweep phase is built when the run reaches it, so a
    # long defense keeps its per-sweep records and little else per cycle
    p = make(n=128)

    def peak(cycles):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            simulator.run(p, 2.0, CIRC, SimConfig(bins=360, mode="defense", cycles=cycles))
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    per_cycle = (peak(1200) - peak(200)) / 1000
    assert per_cycle < 1000, f"peak grows by {per_cycle:.0f} B per defense cycle"


def traced_peak(run):
    """Peak traced memory of run() above what was allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_long_expansion_is_refused_before_its_schedule_is_listed():
    # 476 605 sweeps at 360 bins go past the bin-update budget; the
    # count comes from the expansion's totals, so no step is listed
    grid = SimConfig(bins=360, mode="expansion")

    def refused():
        with pytest.raises(MaxIterations, match="476605 sweeps"):
            simulator.run(make(), 1e5, CIRC, grid)

    peak = traced_peak(refused)
    assert peak < 5e6, f"the refusal peaked at {peak / 1e6:.1f} MB"


def test_capped_expansion_lists_only_its_played_sweeps():
    # 1 534 748 sweeps, of which max_sweeps plays 2: a plan that listed the
    # whole schedule first would peak at hundreds of MB
    grid = SimConfig(bins=360, mode="expansion", max_sweeps=2)
    reps = []
    peak = traced_peak(lambda: reps.append(simulator.run(make(), 3e5, CIRC, grid)))
    assert peak < 5e6, f"the capped run peaked at {peak / 1e6:.1f} MB"
    assert circular_pincer.totals(make(), 3e5).N_n == 1_534_748
    assert [s.index for s in reps[0].sweeps] == [0, 1]


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("n", [2, 8, 32])
def test_first_steps_are_the_schedules_prefix(kind, n):
    # the steps a capped expansion plays are its schedule's, to the bit
    p = make(n=n, eps=0.01)
    Vs = protocols.CRITICAL[kind](p) + 3.0
    steps = protocols.schedule(p, Vs, kind)
    N = len(steps)
    for sweeps in sorted({1, 2, N // 2 or 1, N - 1 or 1, N, N + 5}):
        assert protocols.first_steps(p, Vs, kind, sweeps) == steps[:sweeps], sweeps


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("max_sweeps", [1, 3, None])
def test_a_capped_plan_plays_the_schedules_first_sweeps(kind, max_sweeps):
    p = make(n=4, eps=1.0)
    Vs = protocols.CRITICAL[kind](p) + 2.0
    steps = protocols.schedule(p, Vs, kind)
    grid = SimConfig(bins=360, mode="expansion", max_sweeps=max_sweeps)
    planned = simulator._plan(p, Vs, kind, grid)[1]
    played = steps[:max_sweeps]
    assert [(s.anchor, s.duration) for s in planned] == [(s.R_i, s.T_sweep_i) for s in played]
    advances = [s.T_out_i for s in played]
    if max_sweeps is None:
        # the last advance stops at the target
        advances[-1] = protocols.totals(p, Vs, kind).T_out_last
    assert [s.advance for s in planned] == advances


class TestRepeatedShapes:
    """A run searches each sweep shape once and keeps at most two."""

    @pytest.fixture
    def searched(self, monkeypatch):
        """Every _crossings result, and the most entries any store held."""
        found, most = [], [0]
        crossings, recent = simulator._crossings, simulator._recent

        def counted(*args):
            found.append(crossings(*args))
            return found[-1]

        def bounded(store, key, make):
            value = recent(store, key, make)
            most[0] = max(most[0], len(store))
            return value

        monkeypatch.setattr(simulator, "_crossings", counted)
        monkeypatch.setattr(simulator, "_recent", bounded)
        return found, most

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_defense_searches_each_shape_once(self, searched, kind):
        # pincer sweeps alternate outbound and inbound; a same-direction
        # sweep is the first one moved on by whole slots, so it is one shape
        found, most = searched
        p = make(n=8)
        rep = simulator.run(p, 1.5 * protocols.CRITICAL[kind](p), kind,
                            SimConfig(bins=720, mode="defense", cycles=5))
        assert len(rep.sweeps) == 5
        assert len(found) == (2 if protocols.is_pincer(kind) else 1)
        # the fullest store holds a pincer's two shapes, or a spiral's sweep
        # and advance tick arrays; a circular-same defense needs one entry
        assert most[0] == (1 if kind is CIRC_SAME else 2)
        # the work counts still count every phase
        per_phase = [found[i % len(found)] for i in range(5)]
        assert rep.crossings == sum(len(j) for _, j, _, _, _ in per_phase)
        assert rep.clearing_passes == sum(int(rank.max()) + 1 for *_, rank in per_phase)

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_expansion_searches_every_sweep(self, searched, kind):
        found, most = searched
        p = make()
        rep = simulator.run(p, 2.0 * protocols.CRITICAL[kind](p), kind,
                            SimConfig(bins=720, mode="expansion", max_sweeps=6))
        assert len(rep.sweeps) == len(found) == 6
        assert most[0] == 2
        assert rep.crossings == sum(len(f[1]) for f in found)

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_searches_counts_the_crossing_searches(self, searched, kind):
        found, _ = searched
        p = make(n=8)
        Vc = protocols.CRITICAL[kind](p)
        for cycles in (3, 2 * p.n + 3):
            found.clear()
            rep = simulator.run(p, 1.5 * Vc, kind, SimConfig(bins=720, mode="defense", cycles=cycles))
            assert rep.searches == len(found) == (2 if protocols.is_pincer(kind) else 1)
        found.clear()
        rep = simulator.run(p, 2.0 * Vc, kind, SimConfig(bins=720, mode="expansion", max_sweeps=6))
        assert rep.searches == len(found) == len(rep.sweeps) == 6

    @pytest.mark.parametrize("kind", [CIRC, SPIR_SAME])
    def test_long_expansion_keeps_two_shapes(self, kind):
        # every expansion sweep is a new shape; a store that kept them all
        # would grow the peak by tens of kB per sweep at 360 bins
        p = make(eps=1e-3)
        Vs = 5.0 * protocols.CRITICAL[kind](p)

        def peak(max_sweeps):
            grid = SimConfig(bins=360, mode="expansion", max_sweeps=max_sweeps)
            return traced_peak(lambda: simulator.run(p, Vs, kind, grid))

        assert len(protocols.schedule(p, Vs, kind)) >= 300
        per_sweep = (peak(300) - peak(100)) / 200
        assert per_sweep < 2048, f"peak grows by {per_sweep:.0f} B per expansion sweep"


def test_defense_sweep_is_the_schedules_first():
    # a defense plays, to the bit, the sweep the analytic schedule prices first
    defense = SimConfig(mode="defense")
    off = []
    for kind, n, r, R0, factor in itertools.product(
        ProtocolKind, (2, 6, 10, 12, 30), (7.7, 33.0), (99.7, 123.4), (1.1, 10.0)
    ):
        params = make(R0=R0, r=r, n=n, eps=1.0)
        Vs = factor * protocols.CRITICAL[kind](params)
        duration = simulator._plan(params, Vs, kind, defense)[1][0].duration
        first = protocols.schedule(params, Vs, kind)[0].T_sweep_i
        if duration != first:
            off.append((kind.value, n, r, R0, factor, duration, first))
    assert off == []


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_one_motion_sweeps_the_sector_the_schedule_prices(kind, n):
    # _motion is the one path of every kind: its progress at the planned
    # duration is the sector, and a spiral sensor's lateral speed at its
    # innermost radius gives its peak rate
    for (R0, r, VT), factor, scale in itertools.product(
        ((100.0, 10.0, 1.0), (50.0, 1.0, 0.5), (400.0, 40.0, 2.0)), (1.05, 1.5, 3.0), (1.0, 1.3)
    ):
        params = make(R0=R0, r=r, VT=VT, n=n)
        Vs = factor * protocols.CRITICAL[kind](params)
        span, duration = protocols.sweep(params, Vs, kind, scale * R0)
        planned = simulator._Planned(scale * R0, duration, span, None)
        progress, inner, rate = simulator._motion(params, Vs, kind, planned)
        assert progress(duration) == pytest.approx(span, rel=1e-12, abs=0.0)
        if protocols.is_spiral(kind):
            lateral = spiral_pincer.lateral_speed(Vs, VT)
            assert rate * (inner(duration) + r) == pytest.approx(lateral, rel=1e-12, abs=0.0)


def peak_rates(params, Vs, kind):
    """Each schedule sweep's peak angular rate: a circular sensor turns at
    Vs/R_i, a spiral one fastest where it is innermost, at the sweep's end."""
    steps = protocols.schedule(params, Vs, kind)
    if not protocols.is_spiral(kind):
        return [Vs / s.R_i for s in steps]
    lateral = math.sqrt(Vs * Vs - params.VT * params.VT)
    return [lateral / (s.R_i + params.r - params.VT * s.T_sweep_i) for s in steps]


def test_no_planned_sweep_turns_faster_than_the_first():
    # the simulator takes dt from the first sweep's rate alone
    schedules, faster = 0, []
    for kind, n, factor, eps in itertools.product(
        ProtocolKind, (2, 8, 32, 128), (1.0001, 1.1, 2.0, 10.0), (1.0, 1e-3, 1e-6)
    ):
        params = make(n=n, eps=eps)
        try:
            rates = peak_rates(params, factor * protocols.CRITICAL[kind](params), kind)
        except NoExpansion:
            continue
        schedules += 1
        if rates[0] != max(rates):
            faster.append((kind.value, n, factor, eps, rates.index(max(rates))))
    assert faster == []
    assert schedules == 184


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("n", [2, 8])
def test_expansion_dt_follows_the_fastest_sweep(kind, n):
    params = make(n=n, eps=1.0)
    Vs = 2.0 * protocols.CRITICAL[kind](params)
    grid = SimConfig(mode="expansion")
    dt = simulator._plan(params, Vs, kind, grid)[4]
    stable = 0.5 * (2.0 * math.pi / grid.bins) / max(peak_rates(params, Vs, kind))
    assert stable < params.r / (50.0 * Vs)  # the rate sets dt here
    assert dt == stable


class TestSameDirectionDefense:
    def test_spiral_same_margin_vanishes_at_root(self):
        p = make()
        root = same_direction.spiral_same_critical_speed(p)
        rep = cached_run(p, root, SPIR_SAME, SimConfig(mode="defense"))
        assert abs(rep.min_margin) <= 1e-9 * p.R0
        assert len(rep.breaches) == 0

    def test_circular_same_holds_with_slack_at_critical(self):
        # the single-direction criterion spends r on the handoff overlap,
        # so the wavefront check keeps roughly that much slack in hand
        p = make()
        Vc = same_direction.circular_same_critical_speed(p)
        rep = cached_run(p, Vc, CIRC_SAME, SimConfig(mode="defense"))
        assert len(rep.breaches) == 0
        assert rep.min_margin > 0.5 * p.r

    @pytest.mark.parametrize("kind", [CIRC, SPIR, CIRC_SAME, SPIR_SAME])
    def test_all_kinds_clear_at_double_critical(self, kind):
        p = make()
        Vs = 2.0 * {
            CIRC: circular_pincer.critical_speed,
            SPIR: spiral_pincer.critical_speed,
            CIRC_SAME: same_direction.circular_same_critical_speed,
            SPIR_SAME: same_direction.spiral_same_critical_speed,
        }[kind](p)
        rep = simulator.run(p, Vs, kind, SimConfig(bins=720, mode="defense"))
        assert rep.min_margin > 0.0
        assert len(rep.breaches) == 0


@pytest.mark.parametrize("kind", [CIRC_SAME, SPIR_SAME])
@pytest.mark.parametrize("n", [2, 4, 8, 32, 130])
@pytest.mark.parametrize("bins", [360, 3600, 3601])
@pytest.mark.parametrize("factor", [0.7, 1.2, 3.0])
def test_same_direction_sweeps_report_the_same_numbers(kind, n, bins, factor):
    # every same-direction sweep starts from sweep 0's slots, each
    # defender one slot further on, so from the first counted sweep on,
    # through up to two full turns of the slots, each sweep reports the
    # same margin and radii
    p = make(n=n)
    Vs = max(factor * protocols.CRITICAL[kind](p), 1.05 * p.VT)
    grid = SimConfig(bins=bins, mode="defense", cycles=min(2 * n + 3, 9))
    rep = simulator.run(p, Vs, kind, grid)
    counted = [(s.margin, s.rho_min, s.rho_max) for s in rep.sweeps[1:]]
    assert counted == [counted[0]] * (grid.cycles - 1)


class TestExpansionRadii:
    def test_circular_sweep_ends_match_schedule(self):
        p = make()
        Vs = circular_pincer.critical_speed(p) + 10.0 * p.VT
        rep = cached_run(p, Vs, CIRC, SimConfig(mode="expansion", max_sweeps=10))
        steps = circular_pincer.expansion_schedule(p, Vs)[:10]
        tol = 2.0 * rep.grid_tolerance
        for rec, step in zip(rep.sweeps, steps):
            lo = step.R_i + p.r + step.delta_i  # first-cleared bin, decayed longest
            hi = step.R_i + 2.0 * p.r           # just cleared at the turnaround
            assert abs(rec.rho_min - lo) <= tol, f"sweep {step.index} rho_min"
            assert abs(rec.rho_max - hi) <= tol, f"sweep {step.index} rho_max"
        assert len(rep.breaches) == 0
        assert rep.min_margin > 0.0

    def test_spiral_sweep_ends_match_schedule(self):
        p = make()
        Vs = spiral_pincer.critical_speed(p) + 10.0 * p.VT
        rep = cached_run(p, Vs, SPIR, SimConfig(mode="expansion", max_sweeps=10))
        steps = spiral_pincer.expansion_schedule(p, Vs)[:10]
        for rec, step in zip(rep.sweeps, steps):
            flat = step.R_i + step.delta_i
            assert abs(rec.rho_min - flat) <= 1e-9 * p.R0, f"sweep {step.index}"
            assert abs(rec.rho_max - flat) <= 1e-9 * p.R0, f"sweep {step.index}"
        assert len(rep.breaches) == 0

    def test_spiral_shape_preserved(self):
        # the tracking sweep flattens the frontier: at every sweep end the
        # profile collapses to a circle up to float rounding
        p = make()
        Vs = spiral_pincer.critical_speed(p) + 10.0 * p.VT
        rep = cached_run(p, Vs, SPIR, SimConfig(mode="expansion", max_sweeps=10))
        for rec in rep.sweeps:
            assert rec.rho_max - rec.rho_min <= 1e-9 * p.R0

    def test_total_time_matches_closed_form(self):
        p = make(eps=5.0)
        Vs = circular_pincer.critical_speed(p) + 10.0 * p.VT
        rep = simulator.run(p, Vs, CIRC, SimConfig(bins=720, mode="expansion"))
        want = circular_pincer.totals(p, Vs)
        assert rep.t_final == pytest.approx(want.T_total, rel=1e-9)
        assert len(rep.sweeps) == want.N_n

    @pytest.mark.parametrize("kind", [CIRC_SAME, SPIR_SAME])
    def test_same_direction_expansion_runs_clean(self, kind):
        p = make()
        crit = {
            CIRC_SAME: same_direction.circular_same_critical_speed,
            SPIR_SAME: same_direction.spiral_same_critical_speed,
        }[kind](p)
        rep = simulator.run(p, crit + 5.0 * p.VT, kind,
                            SimConfig(bins=720, mode="expansion", max_sweeps=5))
        assert len(rep.sweeps) == 5
        assert [s.index for s in rep.sweeps] == [0, 1, 2, 3, 4]
        assert len(rep.breaches) == 0

    def test_center_reached_when_hopeless(self):
        # a crawl-speed defender cannot stop the front from reaching 0
        p = make(R0=5.0, r=1.0, VT=1.0, n=2)
        rep = simulator.run(p, 1.5, CIRC, SimConfig(bins=720, mode="defense"))
        assert rep.breaches["center"].any()


class TestGridInvariance:
    @pytest.mark.parametrize("kind", [CIRC, SPIR])
    def test_pincer_profile_symmetry(self, kind):
        # pair axes are mirror lines and the pair pattern repeats every
        # second sector, so the frontier must share both symmetries
        p = make(n=4)
        mod = circular_pincer if kind is CIRC else spiral_pincer
        Vs = mod.critical_speed(p) + 10.0 * p.VT
        rep = simulator.run(
            p, Vs, kind,
            SimConfig(bins=1800, mode="expansion", max_sweeps=4, capture_profiles=True),
        )
        shift = 2 * rep.bins // p.n
        for prof in rep.profiles:
            assert np.abs(prof - prof[::-1]).max() <= rep.grid_tolerance
            assert np.abs(prof - np.roll(prof, shift)).max() <= rep.grid_tolerance

    @pytest.mark.parametrize("kind", [CIRC, SPIR])
    def test_refinement_converges(self, kind):
        p = make()
        mod = circular_pincer if kind is CIRC else spiral_pincer
        Vs = mod.critical_speed(p) + 10.0 * p.VT
        coarse = simulator.run(p, Vs, kind,
                               SimConfig(bins=720, mode="expansion", max_sweeps=5))
        fine = simulator.run(
            p, Vs, kind,
            SimConfig(bins=1440, dt=coarse.dt / 2.0, mode="expansion", max_sweeps=5),
        )
        for a, b in zip(coarse.sweeps, fine.sweeps):
            assert abs(a.rho_min - b.rho_min) <= 0.5 * coarse.grid_tolerance
            assert abs(a.rho_max - b.rho_max) <= 0.5 * coarse.grid_tolerance

    def test_margin_curve_is_ordered_and_rising(self):
        p = make()
        Vc = circular_pincer.critical_speed(p)
        grid = SimConfig(bins=720, mode="defense")
        margins = [simulator.run(p, Vs, CIRC, grid).min_margin for Vs in (0.9 * Vc, Vc, 1.1 * Vc)]
        assert margins[0] < margins[1] < margins[2]
        assert margins[0] < 0.0 < margins[2]
