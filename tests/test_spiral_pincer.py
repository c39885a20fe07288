"""Spiral pincer protocol: geometry, root-found critical speed, schedules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepdefense import (
    NoExpansion,
    ScenarioParams,
    SpeedTooLow,
    SubcriticalSpeed,
    circular_pincer,
    spiral_pincer,
    universal_lower_bound,
    validate,
)

from oracles import spiral_pincer_run

REL_TOL = 1e-12
ROOT_TOL = 1e-9    # critical speeds come out of the root finder
ORACLE_TOL = 1e-9  # closed form vs direct summation

# Reference supercritical speed for the (100, 10, 1, 2) spiral family.
REF_SPEED = 17.2219


def make(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.2):
    return validate(ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps))


@st.composite
def supercritical_cases(draw):
    """Valid scenario plus a speed at or above the spiral critical speed."""
    R0 = draw(st.floats(min_value=1.0, max_value=500.0))
    rho = draw(st.floats(min_value=0.02, max_value=0.3))
    VT = draw(st.floats(min_value=0.05, max_value=20.0))
    n = 2 * draw(st.integers(min_value=1, max_value=16))
    mult = draw(st.floats(min_value=1.0, max_value=2.5))
    frac = draw(st.floats(min_value=0.01, max_value=0.9))
    p = validate(ScenarioParams(R0=R0, r=rho * R0, VT=VT, n=n, eps=1.0))
    Vs = mult * spiral_pincer.critical_speed(p)
    eps = frac * (spiral_pincer.max_radius(p, Vs) - R0)
    return validate(ScenarioParams(R0=R0, r=rho * R0, VT=VT, n=n, eps=eps)), Vs


class TestGeometry:
    def test_reference_contraction_factor(self):
        g = spiral_pincer.spiral_geometry(make(), REF_SPEED)
        assert math.isclose(g.lam, 0.8329957220069735, rel_tol=REL_TOL)
        assert math.isclose(g.phi, math.asin(1.0 / REF_SPEED), rel_tol=REL_TOL)
        assert math.isclose(g.Tc, 18.37047057923292, rel_tol=REL_TOL)

    def test_trajectory_starts_on_the_boundary_and_spans_one_sector(self):
        p = make()
        g = spiral_pincer.spiral_geometry(p, REF_SPEED)
        assert g.beta(0.0) == 0.0
        assert g.Rs(0.0) == p.R0 + p.r
        # after one full sweep the polar angle is exactly the pair sector
        assert math.isclose(g.beta(g.Tc), 2.0 * math.pi / p.n, rel_tol=1e-12)
        assert g.Rs(g.Tc) < g.Rs(0.0)

    def test_angular_rate_matches_the_radial_decay(self):
        # d(beta)/dt * Rs(t) should equal sqrt(Vs^2 - VT^2) all along the
        # sweep; probe the closed form with central differences.
        p = make()
        Vs = REF_SPEED
        g = spiral_pincer.spiral_geometry(p, Vs)
        speed = math.sqrt(Vs * Vs - p.VT * p.VT)
        h = 1e-7 * g.Tc
        for k in range(10):
            t = (k / 10.0) * (g.Tc - 2 * h) + h
            rate = (g.beta(t + h) - g.beta(t - h)) / (2.0 * h)
            assert math.isclose(rate * g.Rs(t), speed, rel_tol=1e-6), f"t={t}"

    def test_fast_sweeps_tend_to_no_contraction(self):
        p = make()
        slow = spiral_pincer.spiral_geometry(p, 5.0)
        fast = spiral_pincer.spiral_geometry(p, 5000.0)
        assert slow.lam < fast.lam < 1.0
        assert fast.phi < slow.phi < 0.5 * math.pi

    def test_speed_at_or_below_threat_rejected(self):
        p = make()
        for Vs in (p.VT, 0.5 * p.VT):
            with pytest.raises(SpeedTooLow):
                spiral_pincer.spiral_geometry(p, Vs)


class TestCriticalSpeed:
    def test_initial_guess_reference_value(self):
        assert math.isclose(
            spiral_pincer.critical_speed_initial_guess(make()),
            15.687368250213419,
            rel_tol=REL_TOL,
        )

    def test_root_reference_values(self):
        p = make()
        root = spiral_pincer.critical_speed(p)
        assert math.isclose(root, 16.721945284192238, rel_tol=ROOT_TOL)
        assert math.isclose(
            root / universal_lower_bound(p), 1.0645521000365612, rel_tol=1e-6
        )

    def test_large_team_ratio_recorded(self):
        # With 32 defenders the root sits well above the universal bound;
        # the ratio is pinned so any drift in the solver shows up here.
        p = make(n=32)
        root = spiral_pincer.critical_speed(p)
        assert math.isclose(root, 1.8546548391101907, rel_tol=1e-6)
        assert math.isclose(
            root / universal_lower_bound(p), 1.8891359063916207, rel_tol=1e-6
        )

    def test_balance_identity_at_the_root(self):
        p = make()
        root = spiral_pincer.critical_speed(p)
        lam = spiral_pincer.spiral_geometry(p, root).lam
        lhs = (p.R0 + p.r) * (1.0 - lam)
        rhs = 2.0 * p.r * root / (root + p.VT)
        assert abs(lhs - rhs) <= 1e-9 * p.r

    def test_ordering_across_team_sizes(self):
        for n in range(2, 34, 2):
            p = make(n=n)
            guess = spiral_pincer.critical_speed_initial_guess(p)
            root = spiral_pincer.critical_speed(p)
            circ = circular_pincer.critical_speed(p)
            assert universal_lower_bound(p) <= root <= circ
            assert guess < root, f"n={n}: guess {guess} not below root {root}"
            assert guess < circ

    @pytest.mark.parametrize("VT", [0.2, 1.0, 7.0])
    def test_large_teams_keep_a_bracket(self, VT):
        # from n*r ~ 63*R0 on, ten times the circular critical speed falls
        # below VT; the root must still be found and balance there
        for ratio in (0.4921875, 0.5, 0.7, 0.9, 0.99):
            for n in range(2, 130, 2):
                if n * ratio < 63.0:
                    continue
                p = make(R0=100.0, r=100.0 * ratio, VT=VT, n=n)
                root = spiral_pincer.critical_speed(p)
                assert root >= max(p.VT, universal_lower_bound(p))
                assert abs(spiral_pincer._balance(p, root)) <= 1e-10 * p.r

    @given(supercritical_cases(), st.sampled_from([0.5, 2.0, 4.0]))
    @settings(max_examples=40, deadline=None)
    def test_root_invariant_under_length_rescale(self, case, k):
        # The balance equation is homogeneous in lengths, so scaling R0 and
        # r together leaves the critical speed unchanged.
        p, _ = case
        q = validate(
            ScenarioParams(R0=k * p.R0, r=k * p.r, VT=p.VT, n=p.n, eps=k * p.eps)
        )
        a = spiral_pincer.critical_speed(p)
        b = spiral_pincer.critical_speed(q)
        assert math.isclose(a, b, rel_tol=1e-8)


class TestMaxRadius:
    def test_reference_values(self):
        p = make()
        assert math.isclose(
            spiral_pincer.max_radius(p, REF_SPEED), 109.75741124928024, rel_tol=REL_TOL
        )
        assert math.isclose(
            spiral_pincer.max_radius_alternative(p, REF_SPEED),
            103.18524197772898,
            rel_tol=REL_TOL,
        )

    def test_alternative_is_smaller_by_the_speed_ratio(self):
        p = make()
        main = spiral_pincer.max_radius(p, REF_SPEED)
        alt = spiral_pincer.max_radius_alternative(p, REF_SPEED)
        expected = (main + p.r) * REF_SPEED / (REF_SPEED + p.VT) - p.r
        assert alt < main
        assert math.isclose(alt, expected, rel_tol=REL_TOL)

    def test_beats_the_circular_asymptote(self):
        # Same params, same speed: the spiral pushes further out.
        for n in (2, 8, 32):
            p = make(n=n)
            Vs = 1.05 * circular_pincer.critical_speed(p)
            assert spiral_pincer.max_radius(p, Vs) > circular_pincer.max_radius(p, Vs)

    def test_subcritical_speed_rejected(self):
        p = make()
        with pytest.raises(SubcriticalSpeed):
            spiral_pincer.max_radius(p, 0.99 * spiral_pincer.critical_speed(p))


class TestSweepCount:
    def test_reference_count(self):
        p = make()
        oracle = spiral_pincer_run(p.R0, p.r, p.VT, p.n, p.eps, REF_SPEED)
        assert spiral_pincer.sweep_count(p, REF_SPEED) == oracle.N == 23

    def test_count_matches_oracle_across_eps(self):
        prev = None
        for eps in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
            p = make(eps=eps)
            n_lib = spiral_pincer.sweep_count(p, REF_SPEED)
            n_oracle = spiral_pincer_run(p.R0, p.r, p.VT, p.n, eps, REF_SPEED).N
            assert n_lib == n_oracle, f"eps={eps}: {n_lib} != oracle {n_oracle}"
            if prev is not None:
                assert n_lib <= prev
            prev = n_lib

    def test_no_expansion_when_eps_eats_the_headroom(self):
        # headroom at the reference speed is R_asym - R0 = 9.757...
        with pytest.raises(NoExpansion):
            spiral_pincer.sweep_count(make(eps=10.0), REF_SPEED)

    def test_subcritical_speed_rejected(self):
        p = make()
        with pytest.raises(SubcriticalSpeed):
            spiral_pincer.sweep_count(p, 0.9 * spiral_pincer.critical_speed(p))


class TestExpansionSchedule:
    def test_reference_first_step(self):
        p = make()
        s0 = spiral_pincer.expansion_schedule(p, REF_SPEED)[0]
        assert s0.index == 0
        assert s0.R_i == p.R0
        assert s0.Rtilde_i == p.R0 + p.r
        assert math.isclose(s0.T_sweep_i, 18.37047057923292, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_i, 1.6295294207670814, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_eff_i, 1.5401024443943059, rel_tol=REL_TOL)
        assert math.isclose(s0.T_out_i, 0.08942697637277569, rel_tol=REL_TOL)

    def test_matches_oracle_step_by_step(self):
        p = make()
        steps = spiral_pincer.expansion_schedule(p, REF_SPEED)
        oracle = spiral_pincer_run(p.R0, p.r, p.VT, p.n, p.eps, REF_SPEED)
        assert len(steps) == spiral_pincer.sweep_count(p, REF_SPEED) == oracle.N
        for s, o in zip(steps, oracle.steps):
            assert math.isclose(s.R_i, o.R, rel_tol=REL_TOL)
            assert math.isclose(s.Rtilde_i, o.R + p.r, rel_tol=REL_TOL)
            assert math.isclose(s.T_sweep_i, o.T_sweep, rel_tol=REL_TOL)
            assert math.isclose(s.delta_i, o.delta, rel_tol=REL_TOL)
            assert math.isclose(s.delta_eff_i, o.delta_eff, rel_tol=REL_TOL)
            assert math.isclose(s.T_out_i, o.T_out, rel_tol=REL_TOL)

    def test_budget_at_criticality_is_the_race_share(self):
        # At the critical speed the first sweep consumes the whole sensor
        # except the share lost to the advancing front: delta_0 =
        # 2*r*VT/(Vs+VT), strictly positive (unlike the circular protocol).
        p = make()
        root = spiral_pincer.critical_speed(p)
        s0 = spiral_pincer.expansion_schedule(p, root)[0]
        assert math.isclose(
            s0.delta_i, 2.0 * p.r * p.VT / (root + p.VT), rel_tol=1e-7
        )
        assert s0.delta_i > 0.0

    def test_subcritical_speed_rejected(self):
        p = make()
        with pytest.raises(SubcriticalSpeed):
            spiral_pincer.expansion_schedule(p, 0.95 * spiral_pincer.critical_speed(p))

    @given(supercritical_cases())
    @settings(max_examples=40, deadline=None)
    def test_step_invariants(self, case):
        p, Vs = case
        steps = spiral_pincer.expansion_schedule(p, Vs)
        R_asym = spiral_pincer.max_radius(p, Vs)
        for a, b in zip(steps, steps[1:]):
            assert a.R_i < b.R_i
            assert b.delta_i < a.delta_i
            assert math.isclose(b.R_i, a.R_i + a.delta_eff_i, rel_tol=REL_TOL)
        for s in steps:
            assert 0.0 <= s.delta_i <= 2.0 * p.r
            assert s.delta_eff_i < s.delta_i
            assert s.R_i < R_asym
            assert math.isclose(s.Rtilde_i, s.R_i + p.r, rel_tol=REL_TOL)


class TestTotals:
    def test_reference_summary(self):
        t = spiral_pincer.totals(make(), REF_SPEED)
        assert t.N_n == 23
        assert math.isclose(t.R_asym, 109.75741124928024, rel_tol=REL_TOL)
        assert math.isclose(t.R_max, 109.55741124928024, rel_tol=REL_TOL)
        assert math.isclose(t.R_last, 109.53455512626164, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_sweep_total, 449.8745972596724, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_out_total, 0.5549568426991369, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_out_last, 0.0013271545542941747, rel_tol=1e-6)
        assert math.isclose(t.T_total, 450.4295541023715, rel_tol=ORACLE_TOL)

    def test_outward_time_closed_form(self):
        p = make()
        lam = spiral_pincer.spiral_geometry(p, REF_SPEED).lam
        closed = (lam * (p.R0 + p.r + p.eps) + p.r - p.R0 - p.eps) / (
            REF_SPEED * (1.0 - lam)
        )
        t = spiral_pincer.totals(p, REF_SPEED)
        assert math.isclose(t.T_out_total, closed, rel_tol=REL_TOL)

    def test_no_expansion_when_eps_eats_the_headroom(self):
        with pytest.raises(NoExpansion):
            spiral_pincer.totals(make(eps=10.0), REF_SPEED)

    @given(supercritical_cases())
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_agree_with_summation(self, case):
        p, Vs = case
        t = spiral_pincer.totals(p, Vs)
        oracle = spiral_pincer_run(p.R0, p.r, p.VT, p.n, p.eps, Vs)
        assert t.N_n == oracle.N
        assert math.isclose(t.R_last, oracle.R_last, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_sweep_total, oracle.T_sweep_total, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_out_total, oracle.T_out_total, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_total, oracle.T_total, rel_tol=ORACLE_TOL)
        assert t.T_total == t.T_sweep_total + t.T_out_total
