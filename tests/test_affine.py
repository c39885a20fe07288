"""The affine recursion both pincer protocols share: sweep cap, failures at
extreme speeds, and the coefficients each protocol hands to it."""

import math

import pytest

from sweepdefense import (
    InvalidParam,
    MaxIterations,
    ScenarioParams,
    affine,
    circular_pincer,
    spiral_pincer,
    validate,
)

from oracles import circular_pincer_run, spiral_pincer_run

PINCERS = [circular_pincer, spiral_pincer]
ORACLES = {circular_pincer: circular_pincer_run, spiral_pincer: spiral_pincer_run}


def make(R0=100.0, r=10.0, VT=1.0, n=4, eps=0.05):
    return validate(ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps))


def by_name(mod):
    return mod.__name__.rsplit(".", 1)[-1]


@pytest.mark.parametrize("mod", PINCERS, ids=by_name)
def test_sweep_cap_is_the_same(mod, monkeypatch):
    params = make()
    Vs = 1.5 * mod.critical_speed(params)
    count = mod.sweep_count(params, Vs)
    assert count > 2
    # a run of exactly the cap still finishes; one sweep fewer does not
    monkeypatch.setattr(affine, "ITERATION_CAP", count)
    assert len(mod.expansion_schedule(params, Vs)) == count
    monkeypatch.setattr(affine, "ITERATION_CAP", count - 1)
    with pytest.raises(MaxIterations):
        mod.expansion_schedule(params, Vs)
    # the closed forms need no iteration, so the cap does not bind them
    assert mod.totals(params, Vs).N_n == count


@pytest.mark.parametrize("mod", PINCERS, ids=by_name)
def test_count_on_an_integer_boundary_iterates_under_the_cap(mod, monkeypatch):
    # eps = (R_asym - R0) * c2**k puts the closed-form count on k exactly
    base = make()
    Vs = 1.5 * mod.critical_speed(base)
    c2 = mod.coeffs(base, Vs).c2
    k = 9
    params = make(eps=(mod.max_radius(base, Vs) - base.R0) * c2**k)
    p = params
    want = ORACLES[mod](p.R0, p.r, p.VT, p.n, p.eps, Vs).N
    assert want in (k, k + 1)
    monkeypatch.setattr(affine, "ITERATION_CAP", k + 1)
    assert mod.sweep_count(params, Vs) == want
    monkeypatch.setattr(affine, "ITERATION_CAP", k - 1)
    with pytest.raises(MaxIterations):
        mod.sweep_count(params, Vs)


@pytest.mark.parametrize("mod", PINCERS, ids=by_name)
def test_contraction_rounding_to_one_is_an_invalid_speed(mod):
    params = make(n=2)
    for fn in (mod.sweep_count, mod.totals, mod.expansion_schedule):
        with pytest.raises(InvalidParam):
            fn(params, 1e17)


def test_schedule_past_the_cap_fails_before_iterating():
    params = make(n=2)
    for Vs in (1e7, 1e9):
        # the closed forms still answer; only the schedule would iterate
        assert circular_pincer.totals(params, Vs).N_n > affine.ITERATION_CAP
        with pytest.raises(MaxIterations):
            circular_pincer.expansion_schedule(params, Vs)
    # past 2**53 every float is an integer, so the count lands in the
    # integer guard; it too fails without iterating
    for fn in (circular_pincer.totals, circular_pincer.expansion_schedule):
        with pytest.raises(MaxIterations):
            fn(params, 1e15)


@pytest.mark.parametrize("mod", PINCERS, ids=by_name)
def test_fixed_point_of_the_coefficients_is_the_asymptote(mod):
    params = make(n=8)
    Vs = 1.2 * mod.critical_speed(params)
    c = mod.coeffs(params, Vs)
    shift = 0.0 if mod is circular_pincer else params.r
    assert 0.0 < c.c2 < 1.0
    assert math.isclose(c.c1 / (1.0 - c.c2) - shift, mod.max_radius(params, Vs), rel_tol=1e-12)
    # c3 turns a radius excess into the sweep-time excess it costs
    first = mod.expansion_schedule(params, Vs)[0]
    assert math.isclose(c.c3 / c.c1 * (params.R0 + shift), first.T_sweep_i, rel_tol=1e-12)
