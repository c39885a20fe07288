"""Safeguarded Newton solver behavior on known roots and bad inputs."""

import math

import pytest

from sweepdefense.errors import MaxIterations, NoBracket, RootNotFound
from sweepdefense.rootfind import RootProblem, solve, solve_widening


def test_parabola_root():
    p = RootProblem(objective=lambda x: x * x - 4.0, bracket_lo=0.0, bracket_hi=10.0, guess=3.0)
    assert abs(solve(p) - 2.0) < 1e-9


def test_same_sign_endpoints_raise():
    p = RootProblem(objective=lambda x: x * x + 1.0, bracket_lo=-5.0, bracket_hi=5.0, guess=0.5)
    with pytest.raises(NoBracket):
        solve(p)


def test_no_bracket_reports_both_ends():
    p = RootProblem(objective=lambda x: x * x + 1.0, bracket_lo=-5.0, bracket_hi=2.0, guess=0.5)
    with pytest.raises(NoBracket) as info:
        solve(p)
    exc = info.value
    assert (exc.lo, exc.f_lo, exc.hi, exc.f_hi) == (-5.0, 26.0, 2.0, 5.0)
    assert str(exc) == "objective(-5.0) = 26.0 and objective(2.0) = 5.0 share a sign"


def test_exact_root_at_bracket_end():
    p = RootProblem(objective=lambda x: x - 1.0, bracket_lo=1.0, bracket_hi=3.0, guess=2.0)
    assert solve(p) == 1.0


def test_root_stays_inside_bracket():
    # Steep tanh: naive Newton from a flat tail would shoot far outside.
    f = lambda x: math.tanh(50.0 * (x - 0.7))
    p = RootProblem(objective=f, bracket_lo=0.0, bracket_hi=1.0, guess=0.05)
    x = solve(p)
    assert 0.0 <= x <= 1.0
    assert abs(x - 0.7) < 1e-6


def test_guess_outside_bracket_is_tolerated():
    p = RootProblem(objective=lambda x: x - 2.0, bracket_lo=0.0, bracket_hi=10.0, guess=50.0)
    assert abs(solve(p) - 2.0) < 1e-9


def test_deterministic_iterates():
    f = lambda x: math.exp(x) - 5.0
    a = solve(RootProblem(objective=f, bracket_lo=0.0, bracket_hi=5.0, guess=1.0))
    b = solve(RootProblem(objective=f, bracket_lo=0.0, bracket_hi=5.0, guess=1.0))
    assert a == b
    assert math.isclose(a, math.log(5.0), rel_tol=1e-12)


def test_max_iterations_raised():
    # A discontinuous sign flip has no root; bisection narrows forever until
    # the iteration cap fires (tol_x tightened so the cap comes first).
    f = lambda x: -1.0 if x < math.pi else 1.0
    p = RootProblem(
        objective=f, bracket_lo=0.0, bracket_hi=4.0, guess=1.0,
        tol_f=0.5, tol_x=0.0, max_iter=30,
    )
    with pytest.raises(MaxIterations):
        solve(p)


def test_bisection_only_still_converges():
    # Derivative of |x|^(1/3)*sign(x-1) style kink: Newton steps are mostly
    # rejected, the bracket carries the convergence.
    f = lambda x: math.copysign(abs(x - 1.0) ** (1.0 / 3.0), x - 1.0)
    p = RootProblem(objective=f, bracket_lo=-3.0, bracket_hi=4.0, guess=-2.0, tol_f=1e-12)
    assert abs(solve(p) - 1.0) < 1e-6


def test_probe_past_the_domain_stays_in_the_bracket():
    # the objective is undefined below 1, and the root lies closer to 1 than
    # the finite-difference step: a central probe there would leave the
    # domain, so the derivative is taken inside the bracket instead
    seen = []

    def f(x):
        value = math.sqrt(x - 1.0) - 1e-4
        seen.append(x)
        return value

    p = RootProblem(objective=f, bracket_lo=1.0 + 1e-12, bracket_hi=2.0, guess=1.0 + 2e-8)
    x = solve(p)
    assert abs(x - (1.0 + 1e-8)) < 1e-12
    assert min(seen) >= 1.0 + 1e-12


def test_probes_inside_the_domain_stay_central():
    # a probe just past the bracket, where the objective is defined, is
    # kept: the iterates, and so every root found before, are unchanged
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 4.0

    solve(RootProblem(objective=f, bracket_lo=2.0 - 1e-9, bracket_hi=3.0, guess=2.0 - 5e-10))
    x, h = 2.0 - 5e-10, 1e-6 * (2.0 - 5e-10)
    assert seen[3:5] == [x + h, x - h]
    assert x - h < 2.0 - 1e-9


def test_newton_steps_that_barely_shrink_f_give_way_to_bisection():
    # the root lies closer to 0 than the finite-difference step, so the
    # difference quotient overstates the cubic's slope there: each Newton
    # step cuts |f| by a few percent and leaves the bracket nearly as wide
    f = lambda x: (x - 1e-7) ** 3
    p = RootProblem(objective=f, bracket_lo=0.0, bracket_hi=1.0, guess=0.5, tol_f=0.0)
    assert abs(solve(p) - 1e-7) < 1e-11


def test_widening_finds_a_root_several_doublings_up():
    p = RootProblem(objective=lambda x: 100.0 - x, bracket_lo=0.0, bracket_hi=1.0, guess=0.5)
    assert solve_widening(p, "widget") == pytest.approx(100.0, abs=1e-9)
    assert p.bracket_hi == 128.0  # doubled seven times


def test_widening_skips_upper_ends_at_or_below_the_lower_end():
    # 1.25, 2.5 and 5 lie below the lower end and 10 on it: none is solved
    # for, so the lower end is evaluated once per solve, at 20 and at 40
    seen = []

    def f(x):
        seen.append(x)
        return 30.0 - x

    p = RootProblem(objective=f, bracket_lo=10.0, bracket_hi=1.25, guess=15.0)
    assert solve_widening(p, "widget") == pytest.approx(30.0, abs=1e-9)
    assert not {1.25, 2.5, 5.0} & set(seen)
    assert seen.count(10.0) == 2
    assert 20.0 in seen and 40.0 in seen


def test_widening_with_a_wrong_signed_lower_end_names_the_search():
    p = RootProblem(objective=lambda x: -1.0 - x, bracket_lo=0.0, bracket_hi=1.0, guess=0.5)
    with pytest.raises(RootNotFound) as info:
        solve_widening(p, "widget")
    assert str(info.value) == (
        "widget search failed: objective(0.0) = -1.0 and objective(1.0) = -2.0 share a sign"
    )
    assert isinstance(info.value.__cause__, NoBracket)


def test_widening_gives_up_after_sixty_doublings():
    p = RootProblem(objective=lambda x: 1.0, bracket_lo=0.0, bracket_hi=1.0, guess=0.5)
    with pytest.raises(RootNotFound, match="^widget search failed: no upper bracket$"):
        solve_widening(p, "widget")
