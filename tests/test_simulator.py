"""Wavefront simulator checks against the analytic schedules.

The engine is deliberately independent of the closed forms: it only knows
the sweep kinematics and the inward-creeping frontier. These tests pin the
places where the two routes must meet exactly (spiral margins, sweep-end
radii) and where they meet up to grid noise (circular margins).
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from sweepdefense import circular_pincer, same_direction, simulator, spiral_pincer
from sweepdefense.errors import ConfigError, NoExpansion, SpeedTooLow, SubcriticalSpeed
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
        with pytest.raises(SpeedTooLow):
            simulator.run(make(), 0.5, SPIR)

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ConfigError):
            simulator.run(make(), 40.0, CIRC, SimConfig(cycles=0))
        with pytest.raises(ConfigError):
            simulator.run(make(), 40.0, CIRC, SimConfig(max_sweeps=0))

    def test_margin_curve_speed_grid(self):
        with pytest.raises(ConfigError):
            simulator.margin_curve(make(), CIRC, [30.0, 20.0])
        with pytest.raises(ConfigError):
            simulator.margin_curve(make(), CIRC, [0.5, 30.0])

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
        speeds = [0.9 * Vc, Vc, 1.1 * Vc]
        curve = simulator.margin_curve(p, CIRC, speeds, SimConfig(bins=720))
        assert [v for v, _ in curve] == speeds
        margins = [m for _, m in curve]
        assert margins[0] < margins[1] < margins[2]
        assert margins[0] < 0.0 < margins[2]
