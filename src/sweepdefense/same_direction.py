"""Baselines where every defender sweeps the same way around.

Without a partner closing in from the other side, each defender must also
cover the stretch its neighbour vacates, so the circular variant pays a
flat speed surcharge of VT and the spiral variant guards an extra sector
beta0 that shrinks as the region grows.

The critical speeds below are printed formulas (circular) or a root of
the published balance (spiral). The expansion schedules have no published
recursion; they are derived here by carrying the pincer advance
kinematics over to the same-direction sweep times, and are labeled
"derived baseline" wherever the CLI serializes them. The circular budget
vanishes at its critical speed; the spiral one does not, because its
asymptote bisects 2r - (R+r)*(1-lam) while its critical speed balances
2r*Vs/(Vs+VT) against (R0+r)*(1-lam): at Vc the spiral asymptote already
sits above R0 (by 6.5 for n = 2 up to 185 for n = 128 at R0 = 100,
r = 10, VT = 1). Their summaries come from direct summation only;
no closed forms are claimed. The asymptote needs no iteration (a printed
formula for circular, a bisection of the spiral budget), so
`max_radius_same` answers from it alone; `totals_same` and
`expansion_schedule_same` share one plain-float loop over the sweeps.
The circular loop is the affine pincer recursion with a smaller budget,
so a circular expansion whose closed-form count is past the sweep cap
fails before the loop runs. A run whose radius a sweep leaves unchanged
short of its target fails at once, as the cap would end it.

eps moves only where an expansion stops, so inside a `memo.command` the
eps values a table plans share one loop per (kind, n, Vs): the first of
them runs it to the farthest target and every eps takes its sums over
its own prefix, in the order a run of its own adds them, and its steps
as the first of the farthest eps's steps. The critical speed and the
spiral asymptote are solved once per command as well; the asymptote's
bisection computes the R-free factors of lam(R) once for all its probes.
"""

import math
from dataclasses import replace
from itertools import accumulate, count, islice, repeat
from operator import truediv
from typing import Dict, List, Optional, Sequence, Tuple

from . import memo
from .affine import ITERATION_CAP as _ITERATION_CAP
from .affine import AffineRecursion, check_finite, check_speed, expansion_target, prefix, step_list
from .circular_pincer import critical_speed as _circular_pincer_speed
from .errors import InvalidParam, MaxIterations, NoExpansion
from .rootfind import RootProblem, solve_widening
from .scenario import ExpansionStep, ProtocolKind, ProtocolSummary, ScenarioParams
from .spiral_pincer import _contraction as _spiral_pincer_contraction
from .spiral_pincer import checked_contraction, lateral_speed, sweep_balance
from .spiral_pincer import critical_speed as _spiral_pincer_speed

_TWO_PI = 2.0 * math.pi

# Bisection depth cap for the spiral same-direction asymptote; the loop
# stops once the midpoint rounds onto an end, after about 55 steps.
_BISECT_STEPS = 200


def circular_same_critical_speed(params: ScenarioParams) -> float:
    """Circular same-direction critical speed: the pincer speed plus VT."""
    return _circular_pincer_speed(params) + params.VT


def guard_angle(params: ScenarioParams, Vs: float, R: float) -> float:
    """Extra angular sector a same-direction spiral defender must cover
    when the protected radius is R."""
    return math.asin(2.0 * params.r * Vs / ((Vs + params.VT) * (R + 2.0 * params.r)))


def _lam_at(
    R: float, sector: float, two_r: float, two_r_Vs: float, closing: float, VT: float,
    lateral: float, Vs: float,
) -> float:
    """lam of a same-direction spiral sweep from radius R, given the factors
    that do not move with R: the sector 2*pi/n, 2r, 2r*Vs, Vs + VT, VT and
    lateral_speed(Vs, VT). The span is the sector plus the guard angle."""
    span = sector + math.asin(two_r_Vs / (closing * (R + two_r)))
    return checked_contraction(math.exp(-span * VT / lateral), Vs)


def _spiral_same_lam(params: ScenarioParams, Vs: float, R: float) -> float:
    VT, two_r = params.VT, 2.0 * params.r
    return _lam_at(R, _TWO_PI / params.n, two_r, two_r * Vs, Vs + VT, VT, lateral_speed(Vs, VT), Vs)


@memo.per_scene
def spiral_same_critical_speed(params: ScenarioParams) -> float:
    """Spiral same-direction critical speed, by safeguarded root search.

    The balance, sweep loss minus sensor coverage as for the pincer, adds
    the guard angle to the sweep span; it is positive at the pincer root,
    so the pincer root brackets from below and solve_widening doubles the
    upper end until the sensor wins.
    """

    def balance(Vs: float) -> float:
        return sweep_balance(params, Vs, _spiral_same_lam(params, Vs, params.R0))

    lo = _spiral_pincer_speed(params)
    problem = RootProblem(
        objective=balance,
        bracket_lo=lo,
        bracket_hi=2.0 * lo,
        # start essentially at the pincer root, nudged inside the bracket
        guess=lo * (1.0 + 1e-6),
        tol_f=1e-10 * params.r,
    )
    return solve_widening(problem, "same-direction spiral speed")


@memo.per_scene
def _spiral_same_asymptote(params: ScenarioParams, Vs: float) -> float:
    """Radius where the same-direction spiral budget runs out.

    The budget 2r - (R+r)*(1-lam(R)) falls with R; bisect between R0 and
    the (larger) pincer asymptote, where it is already negative.
    """
    VT, r = params.VT, params.r
    two_r = 2.0 * r
    lam_pincer = _spiral_pincer_contraction(params, Vs)
    # lam's factors that do not move with R, once for every probe
    sector, two_r_Vs, closing = _TWO_PI / params.n, two_r * Vs, Vs + VT
    lateral = lateral_speed(Vs, VT)
    lo, hi = params.R0, two_r / (1.0 - lam_pincer) - r
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # the bracket can now only stay or collapse onto mid, so the
            # remaining steps would all end on this same midpoint
            break
        lam = _lam_at(mid, sector, two_r, two_r_Vs, closing, VT, lateral, Vs)
        if two_r - (mid + r) * (1.0 - lam) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _targets(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> Tuple[float, float]:
    """(R_asym, R_target) of a same-direction expansion, or the domain
    error that rules the expansion out."""
    if kind is ProtocolKind.CIRCULAR_SAME_DIRECTION:
        Vc = circular_same_critical_speed(params)
        check_speed(Vs, Vc, "circular same-direction")
        if Vs == Vc:
            raise NoExpansion("at the critical speed the region never grows")
        R_asym = check_finite(
            params.n * params.r * (Vs - params.VT) / (_TWO_PI * params.VT), Vs
        )
    elif kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
        check_speed(Vs, spiral_same_critical_speed(params), "spiral same-direction")
        R_asym = _spiral_same_asymptote(params, Vs)
    else:
        raise InvalidParam(
            "kind", f"expected a same-direction protocol kind, got {kind}"
        )
    return R_asym, expansion_target(params, R_asym)


def max_radius_same(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> float:
    """Asymptotic radius of a same-direction expansion, without iterating it.

    Raises the same domain errors as the schedule, so a grid point gets
    the same status from either.
    """
    return _targets(params, Vs, kind)[0]


def _check_circular_count(params: ScenarioParams, Vs: float) -> None:
    """MaxIterations at once when the circular loop would run past the cap.

    The circular sweep time (2*pi*R/n + r)/Vs leaves the budget
    r*(Vs-VT)/Vs - VT*a*R with a = 2*pi/(n*Vs): the affine pincer
    recursion with that b, whose fixed point is R_asym, counts the sweeps
    in closed form. Its count and the loop's may part by a rounding, so
    only a count more than one past the cap is refused; below that the
    loop decides.
    """
    ring = AffineRecursion(
        params, Vs, a_num=_TWO_PI, a_den=params.n * Vs,
        b=params.r * (Vs - params.VT) / Vs, shift=0.0,
    )
    x = ring.closed_count()
    if x > _ITERATION_CAP + 1:
        raise MaxIterations(
            f"the expansion needs about {math.ceil(x)} sweeps, more than {_ITERATION_CAP}"
        )


def _iterate(
    params: ScenarioParams, Vs: float, kind: ProtocolKind, targets: Sequence[float],
    limit: Optional[int] = None,
):
    """Sweep times and effective budgets, one entry per sweep until the
    radius reaches the last of the rising targets, or for limit sweeps at
    most; and, for each target it reaches, the sweep count and the last
    sweep-start radius.

    A target is not reached within the sweep cap, nor past a radius that
    a sweep leaves unchanged: every later sweep would repeat that one.
    Plain floats only; the invariant factors are hoisted, every per-sweep
    expression keeps the evaluation order of the step formulas.
    """
    n, r, VT = params.n, params.r, params.VT
    spiral = kind is ProtocolKind.SPIRAL_SAME_DIRECTION
    closing = Vs + VT
    if spiral:
        sector = _TWO_PI / n
        two_r = 2.0 * r
        two_r_Vs = two_r * Vs
        lateral = lateral_speed(Vs, VT)
    T_list: List[float] = []
    eff_list: List[float] = []
    ends: List[Tuple[int, float]] = []
    R_target = targets[0]
    R = params.R0
    for _ in range(_ITERATION_CAP if limit is None else limit):
        if spiral:
            # the guard angle, hence lam, follows the sweep-start radius
            span = sector + math.asin(two_r_Vs / (closing * (R + two_r)))
            lam = math.exp(-span * VT / lateral)
            T = (R + r) * (1.0 - lam) / VT
            delta = two_r - VT * T
        else:
            # the sector plus one sensor half-length of overlap
            T = (_TWO_PI * R / n + r) / Vs
            delta = r - VT * T
        delta_eff = delta * Vs / closing
        T_list.append(T)
        eff_list.append(delta_eff)
        R_next = R + delta_eff
        if R_next >= R_target:
            reached = sum(t <= R_next for t in targets)
            ends += [(len(T_list), R)] * (reached - len(ends))
            if reached == len(targets):
                break
            R_target = targets[reached]
        elif R_next == R:
            break  # below R_target for good
        R = R_next
    return T_list, eff_list, ends


def _summary(
    Vs: float, R_asym: float, R_target: float, N: int, R_last: float, T_list, eff_list
) -> ProtocolSummary:
    """The summary of the first N sweeps; the sums run over the first N
    entries alone, in the order a run of N sweeps adds them."""
    T_out_last = (R_target - R_last) / Vs
    T_sweep_total = sum(islice(T_list, N))
    T_out_total = sum(map(truediv, islice(eff_list, N - 1), repeat(Vs))) + T_out_last
    return ProtocolSummary(
        N_n=N,
        R_last=R_last,
        R_max=R_target,
        R_asym=R_asym,
        T_out_total=T_out_total,
        T_sweep_total=T_sweep_total,
        T_total=T_sweep_total + T_out_total,
        T_out_last=T_out_last,
    )


def _steps(
    params: ScenarioParams, Vs: float, kind: ProtocolKind, T_list, eff_list, N: int
) -> List[ExpansionStep]:
    """The first N steps of the run whose sweep times and effective budgets
    are T_list and eff_list. The radii and raw budgets the loop did not
    keep come from the same float operations: R_{i+1} = R_i + delta_eff_i,
    delta_i = b - VT*T_i."""
    R_list = list(accumulate(islice(eff_list, N - 1), initial=params.R0))
    if kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
        b = 2.0 * params.r
        Rtilde = [R + params.r for R in R_list]
    else:
        b = params.r
        Rtilde = repeat(None)
    VT = params.VT
    delta_list = [b - VT * T for T in islice(T_list, N)]
    T_out = map(truediv, eff_list, repeat(Vs))
    # each step's cells in field order, one iterable per column
    return step_list(zip(count(), R_list, Rtilde, delta_list, eff_list, T_list, T_out))


def _summaries(
    params: ScenarioParams, Vs: float, kind: ProtocolKind, R_asym: float, gaps, listed: bool
) -> Dict[float, object]:
    """The summary of the expansion to R_asym - eps for each eps in gaps,
    with its steps in front when listed, from one run of sweeps to the
    farthest target; a nearer eps takes a prefix of the farthest one's
    steps. An eps whose run would fail gets its MaxIterations instead; one
    whose target is not above R0 is left out."""
    out: Dict[float, object] = {}
    targets: Dict[float, float] = {}
    for eps in gaps:
        R_target = R_asym - eps
        if R_target <= params.R0:
            continue
        if kind is ProtocolKind.CIRCULAR_SAME_DIRECTION:
            try:
                _check_circular_count(replace(params, eps=eps), Vs)
            except MaxIterations as exc:
                out[eps] = exc
                continue
        targets[eps] = R_target
    if targets:
        rising = sorted(set(targets.values()))
        T_list, eff_list, ends = _iterate(params, Vs, kind, rising)
        if listed and ends:
            steps = _steps(params, Vs, kind, T_list, eff_list, ends[-1][0])
        for eps, R_target in targets.items():
            k = rising.index(R_target)
            if k >= len(ends):
                out[eps] = MaxIterations(f"schedule exceeded {_ITERATION_CAP} sweeps")
                continue
            N, R_last = ends[k]
            summary = _summary(Vs, R_asym, R_target, N, R_last, T_list, eff_list)
            out[eps] = (prefix(steps, N), summary) if listed else summary
    return out


def _shared(params: ScenarioParams, Vs: float, kind: ProtocolKind, listed: bool):
    """The summary, with its steps in front when listed, of the expansion
    to params.eps; inside a memo.command the eps values the command plans
    share one run of sweeps per (kind, n, Vs)."""
    R_asym, _ = _targets(params, Vs, kind)
    return memo.per_gap(
        ("same_direction", listed, kind, params.R0, params.r, params.VT, params.n, Vs),
        params.eps,
        lambda gaps: _summaries(params, Vs, kind, R_asym, gaps, listed),
    )


def totals_same(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> ProtocolSummary:
    """Summary of a derived same-direction expansion, by direct summation
    over the sweeps, without building the per-sweep steps.

    Inside a memo.command, the eps values the command plans share one run
    of sweeps per (kind, n, Vs); every result is the one its own run gives.
    """
    return _shared(params, Vs, kind, listed=False)


def expansion_schedule_same(
    params: ScenarioParams, Vs: float, kind: ProtocolKind
) -> Tuple[List[ExpansionStep], ProtocolSummary]:
    """Derived same-direction expansion: per-sweep steps plus a summary.

    Everything is produced by direct iteration and summation; the guard
    angle of the spiral variant is re-evaluated at every sweep-start
    radius, so its contraction factor changes from step to step. Inside a
    memo.command, the eps values the command plans share one run of
    sweeps per (kind, n, Vs), and a nearer eps's steps are the first of
    the farthest one's: every result is the one its own run gives.
    """
    return _shared(params, Vs, kind, listed=True)


def first_steps_same(
    params: ScenarioParams, Vs: float, kind: ProtocolKind, sweeps: int
) -> List[ExpansionStep]:
    """The schedule's first sweeps steps, from a run of sweeps stopped
    there, or all of a shorter schedule."""
    _, R_target = _targets(params, Vs, kind)
    T_list, eff_list, _ = _iterate(params, Vs, kind, (R_target,), sweeps)
    return _steps(params, Vs, kind, T_list, eff_list, len(T_list))
