"""The same-direction sweep loop against its exact reference, compared with ==.

`oracles.same_direction_exact` evaluates the derived same-direction
schedule the way the library first did: one step function per kind and
sweep, and a fixed 200-step bisection for the spiral asymptote. The
library's hoisted loop, its early-exit bisection and the asymptote-only
`max_radius_same` must reproduce every float of it exactly, and raise the
same domain errors at the same inputs.
"""

import contextlib
import io
import itertools
import math
import random
import time

import pytest

from sweepdefense import (
    MaxIterations,
    NoExpansion,
    ProtocolKind,
    ProtocolSummary,
    ScenarioParams,
    SubcriticalSpeed,
    cli,
    same_direction,
    validate,
)

import oracles

CIRC = ProtocolKind.CIRCULAR_SAME_DIRECTION
SPIR = ProtocolKind.SPIRAL_SAME_DIRECTION
KINDS = (CIRC, SPIR)
TEAM_SIZES = (2, 4, 8, 16, 32, 64, 128)
# Vs above the kind's critical speed, in units of VT
OFFSETS = (0.0, 1e-9, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

ERRORS = {
    "SubcriticalSpeed": SubcriticalSpeed,
    "NoExpansion": NoExpansion,
    "MaxIterations": MaxIterations,
}


def make(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1):
    return validate(ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=eps))


def critical(params, kind):
    if kind is CIRC:
        return same_direction.circular_same_critical_speed(params)
    return same_direction.spiral_same_critical_speed(params)


def reference(params, Vs, kind, max_steps=10_000_000):
    p = params
    return oracles.same_direction_exact(
        p.R0, p.r, p.VT, p.n, p.eps, Vs, kind is SPIR, critical(p, kind), max_steps
    )


def check(params, Vs, kind) -> str:
    """Compare all three entry points with the reference; return the status."""
    ref = reference(params, Vs, kind)
    if isinstance(ref, str):
        for fn in (
            same_direction.expansion_schedule_same,
            same_direction.totals_same,
            same_direction.max_radius_same,
        ):
            with pytest.raises(ERRORS[ref]):
                fn(params, Vs, kind)
        return ref
    steps, summary = same_direction.expansion_schedule_same(params, Vs, kind)
    got = [
        (s.index, s.R_i, s.Rtilde_i, s.delta_i, s.delta_eff_i, s.T_sweep_i, s.T_out_i)
        for s in steps
    ]
    want = [
        (i, s.R, s.R + params.r if kind is SPIR else None,
         s.delta, s.delta_eff, s.T_sweep, s.T_out)
        for i, s in enumerate(ref.steps)
    ]
    assert got == want
    expected = ProtocolSummary(
        N_n=ref.N,
        R_last=ref.R_last,
        R_max=ref.R_max,
        R_asym=ref.R_asym,
        T_out_total=ref.T_out_total,
        T_sweep_total=ref.T_sweep_total,
        T_total=ref.T_total,
        T_out_last=ref.T_out_last,
    )
    assert summary == expected
    assert same_direction.totals_same(params, Vs, kind) == expected
    assert same_direction.max_radius_same(params, Vs, kind) == ref.R_asym
    return "ok"


@pytest.mark.parametrize("n", TEAM_SIZES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_team_sizes_and_headroom(kind, n):
    params = make(n=n)
    Vc = critical(params, kind)
    statuses = [check(params, Vc + off * params.VT, kind) for off in OFFSETS]
    if kind is CIRC:
        # 1e-9*VT of headroom lifts the asymptote far less than eps
        assert statuses[:2] == ["NoExpansion"] * 2
    assert statuses[2:] == ["ok"] * (len(OFFSETS) - 2)


def test_circular_at_exactly_critical_is_no_expansion():
    params = make(n=4)
    assert check(params, critical(params, CIRC), CIRC) == "NoExpansion"


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_subcritical_speeds(kind):
    params = make(n=8)
    Vc = critical(params, kind)
    for Vs in (Vc - 1e-9 * params.VT, 0.5 * Vc, 0.0):
        assert check(params, Vs, kind) == "SubcriticalSpeed"


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_eps_around_the_headroom(kind):
    base = make(n=16, eps=1e-3)
    Vs = critical(base, kind) + 2.0 * base.VT
    headroom = same_direction.max_radius_same(base, Vs, kind) - base.R0
    assert check(make(n=16, eps=headroom), Vs, kind) == "NoExpansion"
    assert check(make(n=16, eps=2.0 * headroom), Vs, kind) == "NoExpansion"
    assert check(make(n=16, eps=0.999 * headroom), Vs, kind) == "ok"


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_sweep_cap_is_the_same(kind, monkeypatch):
    params = make(n=4)
    Vs = critical(params, kind) + 3.0 * params.VT
    count = same_direction.totals_same(params, Vs, kind).N_n
    assert count > 2
    # a run of exactly the cap still finishes; one sweep fewer does not
    monkeypatch.setattr(same_direction, "_ITERATION_CAP", count)
    assert not isinstance(reference(params, Vs, kind, max_steps=count), str)
    assert same_direction.totals_same(params, Vs, kind).N_n == count
    monkeypatch.setattr(same_direction, "_ITERATION_CAP", count - 1)
    assert reference(params, Vs, kind, max_steps=count - 1) == "MaxIterations"
    for fn in (same_direction.expansion_schedule_same, same_direction.totals_same):
        with pytest.raises(MaxIterations):
            fn(params, Vs, kind)
    assert same_direction.max_radius_same(params, Vs, kind) == reference(params, Vs, kind).R_asym


def random_params(rng):
    R0 = rng.uniform(5.0, 500.0)
    r = R0 / math.exp(rng.uniform(math.log(1.5), math.log(50.0)))
    n = 2 * rng.randint(1, 64)
    # keep n*r well below 63*R0, where the spiral pincer bracket collapses
    n = min(n, 2 * max(1, int(20.0 * R0 / r) // 2))
    return make(R0=R0, r=r, VT=math.exp(rng.uniform(-2.0, 2.0)), n=n,
                eps=math.exp(rng.uniform(-8.0, 2.0)))


def test_random_instances():
    rng = random.Random(20221)
    statuses = set()
    for _ in range(150):
        params = random_params(rng)
        kind = rng.choice(KINDS)
        Vs = critical(params, kind) + params.VT * math.exp(rng.uniform(-5.0, 3.0))
        statuses.add(check(params, Vs, kind))
    assert statuses == {"ok", "NoExpansion"}


def test_spiral_asymptote_bisection_ends_where_the_full_depth_does():
    rng = random.Random(7)
    for _ in range(1000):
        params = random_params(rng)
        Vc = critical(params, SPIR)
        Vs = Vc * (1.0 + math.exp(rng.uniform(-30.0, 12.0)))
        p = params
        want = oracles.spiral_same_asymptote(p.R0, p.r, p.VT, p.n, Vs, lo=p.R0)
        assert same_direction._spiral_same_asymptote(params, Vs) == want


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_a_stalled_run_fails_at_once(kind):
    # eps is below the rounding of R near the asymptote: a sweep leaves R
    # unchanged short of the target, and so would every later one, which
    # listed ten million sweeps before the cap ended the run
    params = make(eps=1e-14)
    Vs = critical(params, kind) + 20.0
    assert reference(params, Vs, kind, max_steps=100_000) == "MaxIterations"
    for fn in (same_direction.expansion_schedule_same, same_direction.totals_same):
        start = time.perf_counter()
        with pytest.raises(MaxIterations, match=f"schedule exceeded {same_direction._ITERATION_CAP} sweeps"):
            fn(params, Vs, kind)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["sweep-count", "totals", "schedule", "simulate"])
def test_a_spiral_run_far_past_the_cap_is_refused_before_its_loop(command):
    # about 6e8 sweeps: the lower bound on the count refuses the run at
    # once, where the loop took seconds to meet the cap
    if command == "simulate":
        pytest.importorskip("numpy")
    argv = [command, "--protocol", "spiral-same", "--Vs", "1e9"]
    argv += ["--bins", "360"] if command == "simulate" else []
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("numerical failure: the expansion needs about ")


@pytest.mark.parametrize("n", (2, 8, 32))
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_the_sweep_bound_stays_below_the_count(kind, n):
    # the refusal above needs the bound to be less than one past the
    # loop's count; the spiral bound is a strict lower bound, the circular
    # one the closed form, which rounding may put just past the count
    counted = 0
    for offset, eps in itertools.product((1e-6, 0.5, 3.0, 40.0, 1e3), (1.0, 1e-3, 1e-9)):
        params = make(n=n, eps=eps)
        Vs = critical(params, kind) + offset
        try:
            N = same_direction.totals_same(params, Vs, kind).N_n
        except (NoExpansion, MaxIterations):
            continue  # no target above R0, or a radius that stalls: no count
        counted += 1
        bound = same_direction.expansion(params, Vs, kind).sweep_bound(eps)
        assert bound < N + 1, (offset, eps, bound, N)
        if kind is SPIR:
            assert bound <= N, (offset, eps, bound, N)
    assert counted >= 10
