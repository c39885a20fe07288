"""The affine recursion both pincer protocols share: sweep cap, failures at
extreme speeds, and the coefficients each protocol hands to it; and the
one expansion loop every protocol runs."""

import math
import tracemalloc

import pytest

from sweepdefense import (
    InvalidParam,
    MaxIterations,
    ProtocolKind,
    ScenarioParams,
    affine,
    circular_pincer,
    protocols,
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
    c2 = mod.expansion(base, Vs)._c2()
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
    rec = mod.expansion(params, Vs)
    c1, c2 = rec.b * Vs / (Vs + params.VT), rec._c2()
    c3 = rec.a * c1
    shift = 0.0 if mod is circular_pincer else params.r
    assert 0.0 < c2 < 1.0
    assert math.isclose(c1 / (1.0 - c2) - shift, mod.max_radius(params, Vs), rel_tol=1e-12)
    # c3 turns a radius excess into the sweep-time excess it costs
    first = mod.expansion_schedule(params, Vs)[0]
    assert math.isclose(c3 / c1 * (params.R0 + shift), first.T_sweep_i, rel_tol=1e-12)


@pytest.mark.parametrize(
    "fn",
    [circular_pincer.max_radius, circular_pincer.sweep_count,
     circular_pincer.expansion_schedule, circular_pincer.totals],
    ids=lambda fn: fn.__name__,
)
def test_fixed_point_past_the_float_range_is_an_invalid_speed(fn):
    # n*Vs*r/(2*pi*VT) = inf: the asymptote, the log of the gap and every
    # time measured from them would be nonsense
    params = make(R0=1e155, r=1e154, n=2)
    with pytest.raises(InvalidParam, match="float range"):
        fn(params, 1e155)


# eps from 1e-8 down past the rounding of the asymptote, where the last
# sweeps' advance shrinks to a few ulps and then the radius stalls
SCAN_EPS = [1e-8 * 1.4e-9 ** (i / 59) for i in range(0, 60, 4)]


@pytest.mark.parametrize("mod", PINCERS, ids=by_name)
@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("Vs", [40.0, 400.0, 4000.0])
def test_count_totals_and_schedule_agree_down_to_the_floor(mod, n, Vs, monkeypatch):
    monkeypatch.setattr(affine, "ITERATION_CAP", 200_000)

    def outcome(fn):
        try:
            return fn()
        except MaxIterations as exc:
            return str(exc)

    for eps in SCAN_EPS:
        params = make(n=n, eps=eps)
        count = outcome(lambda: mod.sweep_count(params, Vs))
        total = outcome(lambda: mod.totals(params, Vs).N_n)
        listed = outcome(lambda: len(mod.expansion_schedule(params, Vs)))
        if isinstance(count, int) and count > affine.ITERATION_CAP:
            # past the cap the closed form answers and the schedule refuses at once
            want = f"schedule needs {count} sweeps, more than {affine.ITERATION_CAP}"
            assert (total, listed) == (count, want), f"eps={eps}"
        else:
            assert count == total == listed, f"eps={eps}"


def test_a_count_through_the_iteration_keeps_no_sweep():
    # the last advance is within FLOOR_GUARD ulps of the fixed point, so
    # the count is iterated: 2.8e5 sweeps until the radius stalls. Kept,
    # their times and budgets would take about 18 MB
    params = make(n=2, eps=1e-8)
    tracemalloc.start()
    try:
        with pytest.raises(MaxIterations, match="the radius stalls"):
            circular_pincer.sweep_count(params, 3e4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
def test_first_steps_of_a_stalled_run_fail_as_its_schedule_does(kind):
    # eps is below the rounding of R near the asymptote: the radius stalls
    # a few hundred sweeps in
    params = make(eps=1e-14)
    Vs = protocols.CRITICAL[kind](params) + 20.0
    with pytest.raises(MaxIterations) as failed:
        protocols.schedule(params, Vs, kind)
    with pytest.raises(MaxIterations) as listed:
        protocols.first_steps(params, Vs, kind, 10_000)
    assert str(listed.value) == str(failed.value)
    # sweeps before the stall are listed without meeting it
    first = protocols.first_steps(params, Vs, kind, 9)
    assert protocols.first_steps(params, Vs, kind, 5) == first[:5]
    assert protocols.first_steps(params, Vs, kind, 0) == []
