"""Circular pincer protocol: frozen values, closed forms vs the iteration oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepdefense import (
    NoExpansion,
    ScenarioParams,
    SubcriticalSpeed,
    circular_pincer,
    universal_lower_bound,
    validate,
)

from oracles import circular_pincer_run

REL_TOL = 1e-12
ORACLE_TOL = 1e-9  # closed form vs direct summation over a whole run

# Reference family used throughout: R0=100, r=10, VT=1, n=2 with a
# supercritical sweep speed a little above Vc = 10*pi.
REF_SPEED = 31.9159


def make(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.2):
    return validate(ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps))


@st.composite
def supercritical_cases(draw):
    """A valid scenario plus a strictly supercritical speed.

    eps is drawn as a fraction of the available headroom R_asym - R0 so the
    expansion target is always reachable, and the radius ratio R0/r is kept
    moderate so runs stay a few hundred sweeps long at most.
    """
    R0 = draw(st.floats(min_value=1.0, max_value=500.0))
    rho = draw(st.floats(min_value=0.02, max_value=0.3))
    VT = draw(st.floats(min_value=0.05, max_value=20.0))
    n = 2 * draw(st.integers(min_value=1, max_value=16))
    mult = draw(st.floats(min_value=1.01, max_value=3.0))
    frac = draw(st.floats(min_value=0.01, max_value=0.9))
    r = rho * R0
    Vc = 2.0 * math.pi * R0 * VT / (n * r)
    Vs = mult * Vc
    R_asym = n * Vs * r / (2.0 * math.pi * VT)
    eps = frac * (R_asym - R0)
    return validate(ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps)), Vs


class TestCriticalSpeed:
    def test_reference_values(self):
        assert math.isclose(
            circular_pincer.critical_speed(make()), 31.41592653589793, rel_tol=1e-15
        )
        assert math.isclose(
            circular_pincer.critical_speed(make(n=8)), 7.853981633974483, rel_tol=1e-15
        )

    @given(supercritical_cases())
    @settings(max_examples=100)
    def test_exactly_twice_the_universal_bound(self, case):
        p, _ = case
        assert circular_pincer.critical_speed(p) == 2.0 * universal_lower_bound(p)


class TestCoeffs:
    # R_{i+1} = c2*R_i + c1, and c3 = a*c1 the matching sweep-time excess
    def test_reference_values(self):
        p = make()
        ring = circular_pincer.expansion(p, REF_SPEED)
        c1 = ring.b * REF_SPEED / (REF_SPEED + p.VT)
        assert math.isclose(c1, 9.696195455691626, rel_tol=REL_TOL)
        assert math.isclose(ring._c2(), 0.9045569875473618, rel_tol=REL_TOL)
        assert math.isclose(ring.a * c1, 0.9544301245263818, rel_tol=REL_TOL)

    def test_subcritical_speed_rejected(self):
        p = make()
        low = circular_pincer.critical_speed(p) * (1.0 - 1e-9)
        with pytest.raises(SubcriticalSpeed):
            circular_pincer.expansion(p, low)

    def test_budget_vanishes_at_the_critical_speed(self):
        p = make()
        Vc = circular_pincer.critical_speed(p)
        delta0 = p.r - p.VT * 2.0 * math.pi * p.R0 / (p.n * Vc)
        assert abs(delta0) < 1e-12 * p.r

    @given(supercritical_cases())
    @settings(max_examples=100)
    def test_fixed_point_is_the_asymptote(self, case):
        p, Vs = case
        ring = circular_pincer.expansion(p, Vs)
        c1, c2 = ring.b * Vs / (Vs + p.VT), ring._c2()
        assert 0.0 < c2 < 1.0 and c1 > 0.0 and ring.a * c1 > 0.0
        assert math.isclose(
            c1 / (1.0 - c2), circular_pincer.max_radius(p, Vs), rel_tol=1e-9
        )


class TestMaxRadius:
    def test_reference_values(self):
        assert math.isclose(
            circular_pincer.max_radius(make(), REF_SPEED),
            101.59146496453245,
            rel_tol=REL_TOL,
        )
        assert math.isclose(
            circular_pincer.max_radius(make(n=32), REF_SPEED),
            1625.4634394325192,
            rel_tol=REL_TOL,
        )

    def test_critical_speed_only_holds_the_region(self):
        p = make()
        Vc = circular_pincer.critical_speed(p)
        assert math.isclose(circular_pincer.max_radius(p, Vc), p.R0, rel_tol=REL_TOL)

    def test_subcritical_speed_rejected(self):
        p = make()
        with pytest.raises(SubcriticalSpeed):
            circular_pincer.max_radius(p, 0.99 * circular_pincer.critical_speed(p))


class TestSweepCount:
    def test_reference_count(self):
        p = make()
        oracle = circular_pincer_run(p.R0, p.r, p.VT, p.n, p.eps, REF_SPEED)
        assert circular_pincer.sweep_count(p, REF_SPEED) == oracle.N == 21

    def test_count_matches_oracle_across_eps(self):
        prev = None
        for eps in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.2):
            p = make(eps=eps)
            n_lib = circular_pincer.sweep_count(p, REF_SPEED)
            n_oracle = circular_pincer_run(p.R0, p.r, p.VT, p.n, eps, REF_SPEED).N
            assert n_lib == n_oracle, f"eps={eps}: {n_lib} != oracle {n_oracle}"
            if prev is not None:
                assert n_lib <= prev, "count must not grow with a looser gap"
            prev = n_lib

    def test_integer_boundary_has_no_off_by_one(self):
        # Bisect eps onto the boundary where the oracle count drops from 8
        # to 7; right at the boundary the closed-form log ratio is integral
        # and the count must equal it, not overshoot to 8.
        p0 = make()
        target = 7
        F = circular_pincer.max_radius(p0, REF_SPEED)
        c2 = circular_pincer.expansion(p0, REF_SPEED)._c2()

        def oracle_count(eps):
            return circular_pincer_run(p0.R0, p0.r, p0.VT, p0.n, eps, REF_SPEED).N

        # multiplying eps by c2**0.5 shifts the log ratio by exactly half a
        # step, so this bracket straddles one boundary and no other
        lo = (F - p0.R0) * c2 ** (target + 0.5)
        hi = (F - p0.R0) * c2 ** (target - 0.5)
        assert oracle_count(lo) == target + 1 and oracle_count(hi) == target
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if oracle_count(mid) <= target:
                hi = mid
            else:
                lo = mid
        x = math.log(hi / (F - p0.R0)) / math.log(c2)
        assert abs(x - target) < 1e-6, f"bisection missed the boundary: x={x}"
        for eps in (lo, hi, (F - p0.R0) * c2**target):
            assert circular_pincer.sweep_count(make(eps=eps), REF_SPEED) == oracle_count(eps)

    def test_no_expansion_at_the_critical_speed(self):
        p = make()
        with pytest.raises(NoExpansion):
            circular_pincer.sweep_count(p, circular_pincer.critical_speed(p))

    def test_no_expansion_when_eps_eats_the_headroom(self):
        # R_asym - R0 = 1.5914... at the reference speed; eps = 2 overshoots it.
        with pytest.raises(NoExpansion):
            circular_pincer.sweep_count(make(eps=2.0), REF_SPEED)

    def test_subcritical_speed_rejected(self):
        p = make()
        with pytest.raises(SubcriticalSpeed):
            circular_pincer.sweep_count(p, 0.5 * circular_pincer.critical_speed(p))


class TestExpansionSchedule:
    def test_reference_first_step(self):
        s0 = circular_pincer.expansion_schedule(make(), REF_SPEED)[0]
        assert s0.index == 0
        assert s0.R_i == 100.0
        assert s0.Rtilde_i is None
        assert math.isclose(s0.T_sweep_i, 9.843346587718953, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_i, 0.156653412281047, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_eff_i, 0.15189421042780749, rel_tol=REL_TOL)
        assert math.isclose(s0.T_out_i, 0.004759201853239529, rel_tol=REL_TOL)

    def test_matches_oracle_step_by_step(self):
        p = make()
        steps = circular_pincer.expansion_schedule(p, REF_SPEED)
        oracle = circular_pincer_run(p.R0, p.r, p.VT, p.n, p.eps, REF_SPEED)
        assert len(steps) == circular_pincer.sweep_count(p, REF_SPEED) == oracle.N
        for s, o in zip(steps, oracle.steps):
            assert math.isclose(s.R_i, o.R, rel_tol=REL_TOL)
            assert math.isclose(s.T_sweep_i, o.T_sweep, rel_tol=REL_TOL)
            assert math.isclose(s.delta_i, o.delta, rel_tol=REL_TOL)
            assert math.isclose(s.delta_eff_i, o.delta_eff, rel_tol=REL_TOL)
            assert math.isclose(s.T_out_i, o.T_out, rel_tol=REL_TOL)
        assert [s.index for s in steps] == list(range(oracle.N))

    def test_last_radius_matches_closed_form(self):
        p = make()
        steps = circular_pincer.expansion_schedule(p, REF_SPEED)
        F = circular_pincer.max_radius(p, REF_SPEED)
        c2 = circular_pincer.expansion(p, REF_SPEED)._c2()
        closed = F + c2 ** (len(steps) - 1) * (p.R0 - F)
        assert math.isclose(steps[-1].R_i, closed, rel_tol=ORACLE_TOL)

    def test_degenerate_single_step_at_critical_speed(self):
        p = make()
        Vc = circular_pincer.critical_speed(p)
        steps = circular_pincer.expansion_schedule(p, Vc)
        assert len(steps) == 1
        s = steps[0]
        assert s.delta_i == 0.0 and s.delta_eff_i == 0.0 and s.T_out_i == 0.0
        assert s.R_i == p.R0
        assert math.isclose(s.T_sweep_i, p.r / p.VT, rel_tol=REL_TOL)

    def test_subcritical_speed_rejected(self):
        p = make()
        with pytest.raises(SubcriticalSpeed):
            circular_pincer.expansion_schedule(p, 0.9 * circular_pincer.critical_speed(p))

    @given(supercritical_cases())
    @settings(max_examples=60, deadline=None)
    def test_step_invariants(self, case):
        p, Vs = case
        steps = circular_pincer.expansion_schedule(p, Vs)
        R_asym = circular_pincer.max_radius(p, Vs)
        for a, b in zip(steps, steps[1:]):
            assert a.R_i < b.R_i, "radii must strictly increase"
            assert b.delta_i < a.delta_i, "budget must strictly shrink"
        for s in steps:
            assert 0.0 <= s.delta_i <= p.r
            assert s.delta_eff_i < s.delta_i
            assert s.R_i < R_asym


class TestTotals:
    def test_reference_summary(self):
        t = circular_pincer.totals(make(), REF_SPEED)
        assert t.N_n == 21
        assert math.isclose(t.R_asym, 101.59146496453245, rel_tol=REL_TOL)
        assert math.isclose(t.R_max, 101.39146496453245, rel_tol=REL_TOL)
        assert math.isclose(t.R_last, 101.3774147148139, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_sweep_total, 208.55835794374096, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_out_total, 0.04359786076947409, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_out_last, 0.0004402272760144895, rel_tol=1e-6)
        assert math.isclose(t.T_total, 208.60195580451042, rel_tol=ORACLE_TOL)

    def test_outward_time_closed_form(self):
        # n*r/(2*pi*VT) - (R0+eps)/Vs, checked against the summation oracle.
        p = make()
        closed = p.n * p.r / (2.0 * math.pi * p.VT) - (p.R0 + p.eps) / REF_SPEED
        t = circular_pincer.totals(p, REF_SPEED)
        oracle = circular_pincer_run(p.R0, p.r, p.VT, p.n, p.eps, REF_SPEED)
        assert math.isclose(t.T_out_total, closed, rel_tol=REL_TOL)
        assert math.isclose(t.T_out_total, oracle.T_out_total, rel_tol=ORACLE_TOL)

    def test_last_sweep_time_matches_schedule(self):
        p = make()
        steps = circular_pincer.expansion_schedule(p, REF_SPEED)
        assert math.isclose(steps[-1].T_sweep_i, 9.978930292048325, rel_tol=ORACLE_TOL)

    def test_no_expansion_at_critical_speed(self):
        p = make()
        with pytest.raises(NoExpansion):
            circular_pincer.totals(p, circular_pincer.critical_speed(p))

    def test_subcritical_speed_rejected(self):
        p = make()
        with pytest.raises(SubcriticalSpeed):
            circular_pincer.totals(p, 0.8 * circular_pincer.critical_speed(p))

    @given(supercritical_cases())
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_agree_with_summation(self, case):
        p, Vs = case
        t = circular_pincer.totals(p, Vs)
        oracle = circular_pincer_run(p.R0, p.r, p.VT, p.n, p.eps, Vs)
        assert t.N_n == oracle.N
        assert math.isclose(t.R_last, oracle.R_last, rel_tol=ORACLE_TOL)
        assert math.isclose(t.R_max, oracle.R_max, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_sweep_total, oracle.T_sweep_total, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_out_total, oracle.T_out_total, rel_tol=ORACLE_TOL)
        assert math.isclose(t.T_total, oracle.T_total, rel_tol=ORACLE_TOL)
        assert t.T_total == t.T_sweep_total + t.T_out_total


class TestScalingAndTrends:
    @given(supercritical_cases(), st.sampled_from([0.5, 2.0, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_rescaling_lengths_rescales_the_answer(self, case, k):
        # Multiplying R0, r, eps by k leaves speeds valid, multiplies every
        # length by k and every duration by k, and keeps the count fixed.
        p, Vs = case
        q = validate(
            ScenarioParams(R0=k * p.R0, r=k * p.r, VT=p.VT, n=p.n, eps=k * p.eps)
        )
        a = circular_pincer.totals(p, Vs)
        b = circular_pincer.totals(q, Vs)
        assert b.N_n == a.N_n
        assert math.isclose(b.R_asym, k * a.R_asym, rel_tol=REL_TOL)
        assert math.isclose(b.R_last, k * a.R_last, rel_tol=REL_TOL)
        assert math.isclose(b.T_total, k * a.T_total, rel_tol=REL_TOL)

    def test_more_defenders_reach_a_fixed_target_sooner(self):
        # Hold the sweep speed and the expansion target fixed; adding
        # defenders must shorten the campaign monotonically.
        Vs, target = 40.0, 120.0
        prev = None
        for n in range(2, 34, 2):
            R_asym = n * Vs * 10.0 / (2.0 * math.pi)
            p = make(n=n, eps=R_asym - target)
            t = circular_pincer.totals(p, Vs)
            if prev is not None:
                assert t.T_total < prev, f"n={n} did not improve on n={n - 2}"
            prev = t.T_total
