"""Acceptance suite: one test per numbered criterion, run it with -v.

Each test is self-timed where the criterion carries a runtime bound and
finishes with a printed summary line holding the measured figures (shown
under -s, or in the failure report otherwise). The pytest -v PASSED or
FAILED line per test is the acceptance verdict.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import oracles
from sweepdefense import (
    circular_pincer,
    cli,
    protocols,
    report,
    same_direction,
    simulator,
    spiral_pincer,
)
from sweepdefense.bounds import universal_lower_bound
from sweepdefense.scenario import ProtocolKind, ScenarioParams
from sweepdefense.simulator import SimConfig

BASE = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EXPECTED_DIR = Path(__file__).resolve().parent.parent / "bench" / "expected"
SEED = 42


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _draw_instance(rng) -> ScenarioParams:
    """One random valid instance; log-uniform scales, even n in 2..32."""
    R0 = math.exp(rng.uniform(math.log(1.0), math.log(1000.0)))
    r = R0 * rng.uniform(0.01, 0.5)
    VT = math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
    n = 2 * int(rng.integers(1, 17))
    return ScenarioParams(R0=R0, r=r, VT=VT, n=n, eps=1.0)


def _draw_expansion(rng, params, mod):
    """Supercritical speed plus a stopping gap that keeps the task feasible."""
    Vc = mod.critical_speed(params)
    lo = Vc * (1.0 + 2e-3)
    Vs = lo + rng.uniform(0.0, 1.0) * (3.0 * Vc - lo)
    asym = mod.max_radius(params, Vs)
    f = math.exp(rng.uniform(math.log(1e-3), math.log(0.9)))
    eps = f * (asym - params.R0)
    return replace(params, eps=eps), Vs


def _check_against_oracle(params, Vs, mod, oracle_run):
    """Closed forms vs plain iteration, 1e-9 relative on every total."""
    want = oracle_run(params.R0, params.r, params.VT, params.n, params.eps, Vs)
    got = mod.totals(params, Vs)
    assert mod.sweep_count(params, Vs) == want.N
    assert got.N_n == want.N, f"N_n {got.N_n} != {want.N} on {params}, Vs={Vs}"
    worst = 0.0
    for name, ref in (
        ("R_asym", want.R_asym),
        ("R_max", want.R_max),
        ("R_last", want.R_last),
        ("T_sweep_total", want.T_sweep_total),
        ("T_out_total", want.T_out_total),
        ("T_total", want.T_total),
    ):
        err = _rel(getattr(got, name), ref)
        assert err <= 1e-9, f"{name} off by {err:.3e} on {params}, Vs={Vs}"
        worst = max(worst, err)
    # the capped last advance subtracts two radii that may nearly coincide,
    # so its error is judged at the radius scale, not against the difference
    last_err = abs(got.T_out_last - want.T_out_last) * Vs / want.R_max
    assert last_err <= 1e-9, f"T_out_last off by {last_err:.3e} at radius scale"
    assert _rel(mod.max_radius(params, Vs), want.R_asym) <= 1e-9
    return worst


def test_criterion_01_circular_critical_speed_doubles_lower_bound():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        p = _draw_instance(rng)
        worst = max(
            worst,
            _rel(circular_pincer.critical_speed(p), 2.0 * universal_lower_bound(p)),
        )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-15, f"worst relative error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    print(f"PASS 01: Vc = 2*V_LB on 10000 draws "
          f"(worst rel err {worst:.1e}, {elapsed:.2f} s)")


def test_criterion_02_spiral_critical_speed_near_lower_bound():
    t0 = time.perf_counter()
    ratio = spiral_pincer.critical_speed(BASE) / universal_lower_bound(BASE)
    elapsed = time.perf_counter() - t0
    assert ratio == pytest.approx(1.06, abs=0.01), f"ratio {ratio:.5f}"
    assert elapsed < 1.0
    print(f"PASS 02: spiral critical / V_LB = {ratio:.4f} (within 1.06 +/- 0.01)")


def test_criterion_03_same_direction_exceeds_pincer_by_threat_speed():
    # the team is paired, so even n is the model's whole domain
    for n in range(2, 33, 2):
        p = replace(BASE, n=n)
        same = same_direction.circular_same_critical_speed(p)
        pincer = circular_pincer.critical_speed(p)
        assert same == pincer + p.VT, f"gap identity broken at n={n}"
    print("PASS 03: circular-same Vc == circular-pincer Vc + VT, bit-exact, "
          "n in 2..32")


def test_criterion_04_circular_closed_forms_match_iteration():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1_000):
        params, Vs = _draw_expansion(rng, _draw_instance(rng), circular_pincer)
        worst = max(
            worst,
            _check_against_oracle(
                params, Vs, circular_pincer, oracles.circular_pincer_run
            ),
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(f"PASS 04: circular closed forms vs iteration on 1000 draws "
          f"(worst rel err {worst:.1e}, {elapsed:.2f} s)")


def test_criterion_05_spiral_closed_forms_match_iteration():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    variant_dev = 0.0
    for _ in range(1_000):
        params, Vs = _draw_expansion(rng, _draw_instance(rng), spiral_pincer)
        worst = max(
            worst,
            _check_against_oracle(
                params, Vs, spiral_pincer, oracles.spiral_pincer_run
            ),
        )
        variant_dev = max(
            variant_dev,
            _rel(
                spiral_pincer.max_radius_alternative(params, Vs),
                spiral_pincer.max_radius(params, Vs),
            ),
        )
    print(f"PASS 05: spiral closed forms vs iteration on 1000 draws "
          f"(worst rel err {worst:.1e})")
    print(f"note: the alternative asymptote form deviates from the one the "
          f"schedule uses by up to {variant_dev:.3e} relative; logged, not "
          f"asserted")


def test_criterion_06_trajectory_ode_matches_closed_form():
    for n in (2, 8, 32):
        p = replace(BASE, n=n)
        Vs = 1.5 * spiral_pincer.critical_speed(p)
        # the path the simulator runs: polar angle beta(t), sensor inner radius
        kind = ProtocolKind.SPIRAL_PINCER
        span, Tc = protocols.sweep(p, Vs, kind, p.R0)
        planned = simulator._Planned(p.R0, Tc, span, None)
        beta, inner, _ = simulator._motion(p, Vs, kind, planned)
        lateral = math.sqrt(Vs * Vs - p.VT * p.VT)
        sol = solve_ivp(
            lambda t, y: [lateral / (inner(t) + p.r)],
            (0.0, Tc),
            [0.0],
            t_eval=np.linspace(0.0, Tc, 201)[1:],
            rtol=1e-12,
            atol=1e-14,
        )
        assert sol.success
        dev = max(
            _rel(theta, beta(t)) for t, theta in zip(sol.t, sol.y[0])
        )
        assert dev <= 1e-6, f"n={n}: max relative deviation {dev:.3e}"
        assert beta(Tc) == pytest.approx(2.0 * math.pi / n, rel=1e-12)
    print("PASS 06: integrated sweep angle matches the closed form to 1e-6 "
          "for n in {2, 8, 32}")


@pytest.mark.parametrize(
    "kind,crit",
    [
        (ProtocolKind.CIRCULAR_PINCER, circular_pincer.critical_speed),
        (ProtocolKind.SPIRAL_PINCER, spiral_pincer.critical_speed),
    ],
    ids=["circular", "spiral"],
)
def test_criterion_07_simulator_localizes_critical_speed(kind, crit):
    t0 = time.perf_counter()
    Vc = crit(BASE)
    grid = SimConfig(bins=3600)
    defense = replace(grid, mode="defense")
    curve = [
        (Vs, simulator.run(BASE, Vs, kind, defense).min_margin)
        for Vs in (f * Vc for f in (0.9, 0.95, 1.0, 1.05, 1.1))
    ]
    crossing = None
    for (va, ma), (vb, mb) in zip(curve, curve[1:]):
        if ma < 0.0 <= mb:
            crossing = va - ma * (vb - va) / (mb - ma)
            break
    assert crossing is not None, f"no sign change in {curve}"
    err = _rel(crossing, Vc)
    assert err <= 0.01, f"crossing {crossing:.4f} vs Vc {Vc:.4f} ({err:.2%})"

    below = simulator.run(BASE, 0.9 * Vc, kind, grid)
    above = simulator.run(BASE, 1.1 * Vc, kind, grid)
    assert len(below.breaches), "no breach at 0.9x critical"
    assert len(above.breaches) == 0, f"{len(above.breaches)} breaches at 1.1x critical"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    print(f"PASS 07 ({kind.value}): margin zero-crossing at {crossing:.4f} vs "
          f"analytic {Vc:.4f} (rel err {err:.1e}); breach below, none above "
          f"({elapsed:.1f} s)")


@pytest.mark.parametrize(
    "kind,mod",
    [
        (ProtocolKind.CIRCULAR_PINCER, circular_pincer),
        (ProtocolKind.SPIRAL_PINCER, spiral_pincer),
    ],
    ids=["circular", "spiral"],
)
def test_criterion_08_simulated_radii_track_schedule(kind, mod):
    Vs = mod.critical_speed(BASE) + 10.0 * BASE.VT
    rep = simulator.run(BASE, Vs, kind, SimConfig(mode="expansion", max_sweeps=10))
    steps = mod.expansion_schedule(BASE, Vs)[:10]
    tol = 2.0 * rep.grid_tolerance
    worst = 0.0
    for rec, step in zip(rep.sweeps, steps):
        if kind is ProtocolKind.CIRCULAR_PINCER:
            lo = step.R_i + BASE.r + step.delta_i
            hi = step.R_i + 2.0 * BASE.r
        else:
            lo = hi = step.R_i + step.delta_i
        worst = max(worst, abs(rec.rho_min - lo), abs(rec.rho_max - hi))
        assert abs(rec.rho_min - lo) <= tol, f"sweep {step.index} rho_min"
        assert abs(rec.rho_max - hi) <= tol, f"sweep {step.index} rho_max"
    assert len(rep.sweeps) == 10
    print(f"PASS 08 ({kind.value}): 10 simulated sweep-end radii within "
          f"{worst:.4f} of the schedule (allowed {tol:.4f})")


def test_criterion_09_protocol_family_orderings():
    # (a) critical-speed ladder at every even team size
    for n in range(2, 33, 2):
        p = replace(BASE, n=n)
        vlb = universal_lower_bound(p)
        vsp = spiral_pincer.critical_speed(p)
        vcp = circular_pincer.critical_speed(p)
        vcs = same_direction.circular_same_critical_speed(p)
        assert vlb <= vsp <= vcp < vcs, f"ordering broken at n={n}"

    # (b), (c): one speed serving every protocol; equal expansion target
    Vs = 42.4159265358979
    for n in (2, 4, 6, 8):
        p = replace(BASE, n=n)
        circ_asym = circular_pincer.max_radius(p, Vs)
        spiral_asym = spiral_pincer.max_radius(p, Vs)
        assert spiral_asym > circ_asym, f"asymptote ordering broken at n={n}"
        for target in (110.0, 120.0, 130.0):
            circ_T = circular_pincer.totals(
                replace(p, eps=circ_asym - target), Vs
            ).T_total
            spiral_T = spiral_pincer.totals(
                replace(p, eps=spiral_asym - target), Vs
            ).T_total
            assert spiral_T < circ_T, f"time ordering broken at n={n}, {target}"

    # (d) the ranking against the same-direction spiral flips with team size
    target = 120.0
    flips = {}
    for n in (4, 22, 32):
        p = replace(BASE, n=n)
        circ_T = circular_pincer.totals(
            replace(p, eps=circular_pincer.max_radius(p, Vs) - target), Vs
        ).T_total
        probe = same_direction.expansion_schedule_same(
            p, Vs, ProtocolKind.SPIRAL_SAME_DIRECTION
        )[1]
        same_T = same_direction.expansion_schedule_same(
            replace(p, eps=probe.R_asym - target),
            Vs,
            ProtocolKind.SPIRAL_SAME_DIRECTION,
        )[1].T_total
        flips[n] = (circ_T, same_T)
    assert flips[4][1] < flips[4][0], "same-direction spiral should win at n=4"
    for n in (22, 32):
        circ_T, same_T = flips[n]
        assert circ_T < same_T, f"circular pincer should win at n={n}"
    print("PASS 09: speed ladder, asymptote and time orderings, and the "
          f"large-n ranking flip (n=4: {flips[4][1]:.2f} < {flips[4][0]:.2f}; "
          f"n=32: {flips[32][0]:.2f} < {flips[32][1]:.2f})")


def test_criterion_10_cli_outputs_byte_stable(tmp_path):
    subcommand_for = {
        "defense-speeds": "critical-speeds",
        "reach-circular": "max-radius",
        "reach-comparison": "max-radius",
        "sweeps-circular": "sweep-count",
        "sweeps-spiral": "sweep-count",
        "schedule-circular": "schedule",
        "schedule-spiral": "schedule",
        "expansion-times": "totals",
        "baseline-comparison": "totals",
        "simulate-circular": "simulate",
        "simulate-spiral": "simulate",
    }
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    assert {c.stem for c in configs} == set(subcommand_for), "config set drifted"
    assert set(subcommand_for.values()) == set(cli._COMMANDS), "subcommand gap"
    analytic = {c for c, cmd in subcommand_for.items() if cmd != "simulate"}
    assert {p.stem for p in EXPECTED_DIR.glob("*.csv")} == analytic, "golden set drifted"
    for cfg in configs:
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{cfg.stem}-{attempt}.csv"
            rc = cli.main(
                [subcommand_for[cfg.stem], "--config", str(cfg), "--out", str(out)]
            )
            assert rc == 0, f"{cfg.name} exited {rc}"
            outs.append(out)
        first, second = outs
        assert first.read_bytes() == second.read_bytes(), f"{cfg.name} table"
        if cfg.stem in analytic:
            golden = (EXPECTED_DIR / f"{cfg.stem}.csv").read_bytes()
            assert first.read_bytes() == golden, f"{cfg.name} table differs from its golden copy"
        assert (
            report.meta_path(first).read_bytes()
            == report.meta_path(second).read_bytes()
        ), f"{cfg.name} metadata"
    print(f"PASS 10: {len(configs)} shipped configs, two runs each, "
          f"byte-identical tables and metadata, {len(analytic)} tables equal "
          "to their golden copies")
