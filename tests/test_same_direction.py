"""Same-direction baselines: critical speeds, guard angle, derived schedules."""

import math

import pytest

from sweepdefense import (
    InvalidParam,
    NoExpansion,
    ProtocolKind,
    ScenarioParams,
    SubcriticalSpeed,
    circular_pincer,
    same_direction,
    spiral_pincer,
    validate,
)

from oracles import circular_same_run, spiral_same_run

REL_TOL = 1e-12
ROOT_TOL = 1e-9
ORACLE_TOL = 1e-9

CIRC = ProtocolKind.CIRCULAR_SAME_DIRECTION
SPIR = ProtocolKind.SPIRAL_SAME_DIRECTION


def make(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.2):
    return validate(ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps))


class TestCriticalSpeeds:
    def test_circular_reference_values(self):
        assert math.isclose(
            same_direction.circular_same_critical_speed(make()),
            32.41592653589793,
            rel_tol=1e-15,
        )
        assert math.isclose(
            same_direction.circular_same_critical_speed(make(n=32)),
            2.9634954084936207,
            rel_tol=1e-15,
        )

    def test_circular_exceeds_pincer_by_exactly_the_threat_speed(self):
        for n in range(2, 34, 2):
            p = make(n=n)
            diff = same_direction.circular_same_critical_speed(
                p
            ) - circular_pincer.critical_speed(p)
            assert math.isclose(diff, p.VT, rel_tol=1e-12)

    def test_spiral_reference_root(self):
        assert math.isclose(
            same_direction.spiral_same_critical_speed(make()),
            17.512655861977365,
            rel_tol=ROOT_TOL,
        )

    def test_speed_ordering_across_team_sizes(self):
        # losing the pincer partner costs speed, but less than losing the
        # spiral geometry: pincer spiral < same spiral < same circular
        for n in range(2, 34, 2):
            p = make(n=n)
            pincer = spiral_pincer.critical_speed(p)
            same_sp = same_direction.spiral_same_critical_speed(p)
            same_ci = same_direction.circular_same_critical_speed(p)
            assert pincer < same_sp < same_ci, f"n={n}"

    @pytest.mark.parametrize("r, n", [(10.0, 2), (10.0, 32), (10.0, 128), (50.0, 128)])
    def test_spiral_upper_end_is_evaluated_once(self, monkeypatch, r, n):
        # the solver reports a missing sign change itself, so an upper end
        # is not checked before the solve and then again inside it
        p = make(r=r, n=n)
        hi = 2.0 * spiral_pincer.critical_speed(p)
        lam = same_direction._spiral_same_lam
        seen = []

        def recorded(params, Vs, R):
            seen.append(Vs)
            return lam(params, Vs, R)

        monkeypatch.setattr(same_direction, "_spiral_same_lam", recorded)
        root = same_direction.spiral_same_critical_speed(p)
        assert hi in seen
        assert all(seen.count(x) == 1 for x in seen if x >= hi)
        monkeypatch.undo()
        assert root == same_direction.spiral_same_critical_speed(p)

    def test_guard_angle_at_the_spiral_root(self):
        p = make()
        Vc_spiral = same_direction.spiral_same_critical_speed(p)
        beta0 = same_direction.guard_angle(p, Vc_spiral, p.R0)
        Vc_circ = same_direction.circular_same_critical_speed(p)
        assert math.isclose(Vc_circ, 32.41592653589793, rel_tol=1e-15)
        assert math.isclose(Vc_spiral, 17.512655861977365, rel_tol=ROOT_TOL)
        assert math.isclose(beta0, 0.15832443120493822, rel_tol=1e-7)
        assert 0.0 < beta0 < 0.5 * math.pi

    def test_guard_angle_vanishes_for_huge_regions(self):
        angles = [
            same_direction.guard_angle(make(R0=R0), 20.0, R0)
            for R0 in (100.0, 1000.0, 10000.0)
        ]
        assert angles[0] > angles[1] > angles[2]
        assert angles[2] < 2e-3


class TestBudgetIdentities:
    def test_circular_budget_zero_at_critical_speed(self):
        p = make()
        Vc = same_direction.circular_same_critical_speed(p)
        delta0 = p.r * (Vc - p.VT) / Vc - 2.0 * math.pi * p.VT * p.R0 / (p.n * Vc)
        assert abs(delta0) < 1e-12 * p.r

    def test_spiral_budget_at_root_is_the_race_share(self):
        # As for the pincer spiral, the root balances the sweep against the
        # sensor minus the advance race share, so delta_0 = 2r*VT/(Vs+VT),
        # not zero.
        p = make()
        root = same_direction.spiral_same_critical_speed(p)
        steps, _ = same_direction.expansion_schedule_same(p, root, SPIR)
        assert math.isclose(
            steps[0].delta_i, 2.0 * p.r * p.VT / (root + p.VT), rel_tol=1e-7
        )


class TestCircularSameSchedule:
    VS = 33.0

    def test_reference_run(self):
        p = make()
        steps, summary = same_direction.expansion_schedule_same(p, self.VS, CIRC)
        oracle = circular_same_run(p.R0, p.r, p.VT, p.n, p.eps, self.VS)
        assert summary.N_n == len(steps) == oracle.N == 23
        s0 = steps[0]
        assert math.isclose(s0.T_sweep_i, 9.823008041181192, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_i, 0.17699195881880847, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_eff_i, 0.17178631297119645, rel_tol=REL_TOL)
        assert math.isclose(s0.T_out_i, 0.005205645847612014, rel_tol=REL_TOL)
        assert s0.Rtilde_i is None
        for s, o in zip(steps, oracle.steps):
            assert math.isclose(s.R_i, o.R, rel_tol=REL_TOL)
            assert math.isclose(s.delta_i, o.delta, rel_tol=REL_TOL)
        assert math.isclose(summary.R_asym, 101.85916357881302, rel_tol=REL_TOL)
        assert math.isclose(summary.R_max, 101.65916357881302, rel_tol=REL_TOL)
        assert math.isclose(summary.R_last, 101.63887164455973, rel_tol=ORACLE_TOL)
        assert math.isclose(summary.T_sweep_total, 228.29049383523258, rel_tol=ORACLE_TOL)
        assert math.isclose(summary.T_out_total, 0.0502776842064556, rel_tol=ORACLE_TOL)
        assert math.isclose(summary.T_total, 228.34077151943904, rel_tol=ORACLE_TOL)

    def test_subcritical_rejected(self):
        p = make()
        Vc = same_direction.circular_same_critical_speed(p)
        with pytest.raises(SubcriticalSpeed):
            same_direction.expansion_schedule_same(p, 0.99 * Vc, CIRC)

    def test_no_expansion_at_critical_speed(self):
        p = make()
        Vc = same_direction.circular_same_critical_speed(p)
        with pytest.raises(NoExpansion):
            same_direction.expansion_schedule_same(p, Vc, CIRC)


class TestSpiralSameSchedule:
    VS = 18.0

    def test_reference_run(self):
        p = make()
        steps, summary = same_direction.expansion_schedule_same(p, self.VS, SPIR)
        oracle = spiral_same_run(p.R0, p.r, p.VT, p.n, p.eps, self.VS)
        assert summary.N_n == len(steps) == oracle.N == 24
        s0 = steps[0]
        assert math.isclose(s0.T_sweep_i, 18.452766166893017, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_i, 1.5472338331069828, rel_tol=REL_TOL)
        assert math.isclose(s0.delta_eff_i, 1.4658004734697732, rel_tol=REL_TOL)
        assert math.isclose(s0.T_out_i, 0.08143335963720962, rel_tol=REL_TOL)
        assert math.isclose(s0.Rtilde_i, p.R0 + p.r, rel_tol=REL_TOL)
        for s, o in zip(steps, oracle.steps):
            assert math.isclose(s.R_i, o.R, rel_tol=REL_TOL)
            assert math.isclose(s.delta_i, o.delta, rel_tol=REL_TOL)
        assert math.isclose(summary.R_asym, 109.61473678871081, rel_tol=1e-9)
        assert math.isclose(summary.R_last, 109.40044063022545, rel_tol=ORACLE_TOL)
        assert math.isclose(summary.T_sweep_total, 470.0428355849031, rel_tol=ORACLE_TOL)
        assert math.isclose(summary.T_out_total, 0.5230409327061556, rel_tol=ORACLE_TOL)
        assert math.isclose(summary.T_total, 470.5658765176093, rel_tol=ORACLE_TOL)

    def test_guard_angle_shrinks_as_the_region_grows(self):
        p = make()
        steps, _ = same_direction.expansion_schedule_same(p, self.VS, SPIR)
        spans = [
            same_direction.guard_angle(p, self.VS, s.R_i) for s in steps
        ]
        assert all(a > b for a, b in zip(spans, spans[1:]))

    def test_subcritical_rejected(self):
        p = make()
        root = same_direction.spiral_same_critical_speed(p)
        with pytest.raises(SubcriticalSpeed):
            same_direction.expansion_schedule_same(p, 0.99 * root, SPIR)

    def test_pincer_kinds_rejected(self):
        p = make()
        with pytest.raises(InvalidParam):
            same_direction.expansion_schedule_same(
                p, self.VS, ProtocolKind.SPIRAL_PINCER
            )


class TestProtocolComparison:
    def _same_asym(self, p, Vs, kind):
        _, summary = same_direction.expansion_schedule_same(p, Vs, kind)
        return summary.R_asym

    @pytest.mark.parametrize("VT", [1.0, 10.0])
    def test_reach_ordering(self, VT):
        # At one shared supercritical speed the spiral protocols out-reach
        # the circular ones and each pincer variant out-reaches its
        # same-direction counterpart.
        p = make(VT=VT, eps=1.0)
        Vs = same_direction.circular_same_critical_speed(p) + 10.0 * VT
        a_sp = spiral_pincer.max_radius(p, Vs)
        a_ss = self._same_asym(p, Vs, SPIR)
        a_cp = circular_pincer.max_radius(p, Vs)
        a_cs = self._same_asym(p, Vs, CIRC)
        assert a_sp > a_ss > a_cp > a_cs

    def test_all_four_speed_up_with_more_defenders(self):
        # Fixed speed, fixed expansion target: every protocol's campaign
        # shortens monotonically as the team grows.
        Vs, target = 42.41592653589793, 120.0
        prev = {}
        for n in range(2, 34, 2):
            p1 = make(n=n, eps=1.0)
            totals = {
                "cp": circular_pincer.totals(
                    make(n=n, eps=circular_pincer.max_radius(p1, Vs) - target), Vs
                ).T_total,
                "sp": spiral_pincer.totals(
                    make(n=n, eps=spiral_pincer.max_radius(p1, Vs) - target), Vs
                ).T_total,
            }
            for key, kind in (("cs", CIRC), ("ss", SPIR)):
                asym = self._same_asym(p1, Vs, kind)
                _, summary = same_direction.expansion_schedule_same(
                    make(n=n, eps=asym - target), Vs, kind
                )
                totals[key] = summary.T_total
            for key, value in totals.items():
                if key in prev:
                    assert value < prev[key], f"{key} at n={n}"
            prev = totals

    def test_pincer_geometry_overtakes_spiral_steering_for_large_teams(self):
        # Small teams: the spiral same-direction baseline beats the
        # circular pincer. Large teams: the pincer turns the tables.
        Vs, target = 42.41592653589793, 120.0

        def circ_pincer_time(n):
            p = make(n=n, eps=1.0)
            eps = circular_pincer.max_radius(p, Vs) - target
            return circular_pincer.totals(make(n=n, eps=eps), Vs).T_total

        def spiral_same_time(n):
            p = make(n=n, eps=1.0)
            asym = self._same_asym(p, Vs, SPIR)
            _, summary = same_direction.expansion_schedule_same(
                make(n=n, eps=asym - target), Vs, SPIR
            )
            return summary.T_total

        assert spiral_same_time(4) < circ_pincer_time(4)
        for n in (22, 32):
            assert circ_pincer_time(n) < spiral_same_time(n), f"n={n}"


def test_circular_same_asymptote_past_the_float_range_is_an_invalid_speed():
    params = make(R0=1e155, r=1e154)
    with pytest.raises(InvalidParam, match="float range"):
        same_direction.max_radius_same(params, 1e155, CIRC)
