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
fails before the loop runs.
"""

import math
from itertools import count, repeat
from typing import List, Tuple

from .affine import ITERATION_CAP as _ITERATION_CAP
from .affine import AffineRecursion
from .circular_pincer import critical_speed as _circular_pincer_speed
from .errors import InvalidParam, MaxIterations, NoExpansion, SubcriticalSpeed
from .rootfind import RootProblem, solve_widening
from .scenario import ExpansionStep, ProtocolKind, ProtocolSummary, ScenarioParams
from .spiral_pincer import _contraction as _spiral_pincer_contraction
from .spiral_pincer import checked_contraction
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


def _spiral_same_lam(params: ScenarioParams, Vs: float, R: float) -> float:
    span = _TWO_PI / params.n + guard_angle(params, Vs, R)
    return checked_contraction(
        math.exp(-span * params.VT / math.sqrt(Vs * Vs - params.VT * params.VT)), Vs
    )


def spiral_same_critical_speed(params: ScenarioParams) -> float:
    """Spiral same-direction critical speed, by safeguarded root search.

    The balance, sweep loss minus sensor coverage as for the pincer, adds
    the guard angle to the sweep span; it is positive at the pincer root,
    so the pincer root brackets from below and solve_widening doubles the
    upper end until the sensor wins.
    """

    def balance(Vs: float) -> float:
        lam = _spiral_same_lam(params, Vs, params.R0)
        return (params.R0 + params.r) * (1.0 - lam) - 2.0 * params.r * Vs / (
            Vs + params.VT
        )

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


def _spiral_same_asymptote(params: ScenarioParams, Vs: float) -> float:
    """Radius where the same-direction spiral budget runs out.

    The budget 2r - (R+r)*(1-lam(R)) falls with R; bisect between R0 and
    the (larger) pincer asymptote, where it is already negative.
    """

    def budget(R: float) -> float:
        return 2.0 * params.r - (R + params.r) * (1.0 - _spiral_same_lam(params, Vs, R))

    lam_pincer = _spiral_pincer_contraction(params, Vs)
    lo, hi = params.R0, 2.0 * params.r / (1.0 - lam_pincer) - params.r
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # the bracket can now only stay or collapse onto mid, so the
            # remaining steps would all end on this same midpoint
            break
        if budget(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _targets(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> Tuple[float, float]:
    """(R_asym, R_target) of a same-direction expansion, or the domain
    error that rules the expansion out."""
    if kind is ProtocolKind.CIRCULAR_SAME_DIRECTION:
        Vc = circular_same_critical_speed(params)
        if Vs < Vc:
            raise SubcriticalSpeed(
                f"Vs={Vs} is below the circular same-direction critical speed {Vc}"
            )
        if Vs == Vc:
            raise NoExpansion("at the critical speed the region never grows")
        R_asym = params.n * params.r * (Vs - params.VT) / (_TWO_PI * params.VT)
    elif kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
        Vc = spiral_same_critical_speed(params)
        if Vs < Vc:
            raise SubcriticalSpeed(
                f"Vs={Vs} is below the spiral same-direction critical speed {Vc}"
            )
        R_asym = _spiral_same_asymptote(params, Vs)
    else:
        raise InvalidParam(
            "kind", f"expected a same-direction protocol kind, got {kind}"
        )
    R_target = R_asym - params.eps
    if R_target <= params.R0:
        raise NoExpansion(
            f"eps={params.eps} leaves no expansion target above R0={params.R0}"
        )
    return R_asym, R_target


def max_radius_same(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> float:
    """Asymptotic radius of a same-direction expansion, without iterating it.

    Raises the same domain errors as the schedule, so a grid point gets
    the same status from either.
    """
    return _targets(params, Vs, kind)[0]


def _check_circular_count(params: ScenarioParams, Vs: float, R_target: float) -> None:
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
    N = ring._count(R_target)
    if N > _ITERATION_CAP + 1:
        raise MaxIterations(f"the expansion needs about {N} sweeps, more than {_ITERATION_CAP}")


def _iterate(params: ScenarioParams, Vs: float, kind: ProtocolKind, R_target: float):
    """Sweep-start radii, sweep times, raw and effective budgets, one
    entry per sweep until the radius reaches R_target.

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
        lateral = math.sqrt(Vs * Vs - VT * VT)
    else:
        _check_circular_count(params, Vs, R_target)
    R_list: List[float] = []
    T_list: List[float] = []
    delta_list: List[float] = []
    eff_list: List[float] = []
    R = params.R0
    for _ in range(_ITERATION_CAP):
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
        R_list.append(R)
        T_list.append(T)
        delta_list.append(delta)
        eff_list.append(delta_eff)
        R += delta_eff
        if R >= R_target:
            break
    else:
        raise MaxIterations(f"schedule exceeded {_ITERATION_CAP} sweeps")
    return R_list, T_list, delta_list, eff_list


def _summary(
    Vs: float, R_asym: float, R_target: float, R_list, T_list, eff_list
) -> ProtocolSummary:
    R_last = R_list[-1]
    T_out_last = (R_target - R_last) / Vs
    T_sweep_total = sum(T_list)
    T_out_total = sum(e / Vs for e in eff_list[:-1]) + T_out_last
    return ProtocolSummary(
        N_n=len(R_list),
        R_last=R_last,
        R_max=R_target,
        R_asym=R_asym,
        T_out_total=T_out_total,
        T_sweep_total=T_sweep_total,
        T_total=T_sweep_total + T_out_total,
        T_out_last=T_out_last,
    )


def totals_same(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> ProtocolSummary:
    """Summary of a derived same-direction expansion, by direct summation
    over the sweeps, without building the per-sweep steps."""
    R_asym, R_target = _targets(params, Vs, kind)
    R_list, T_list, _, eff_list = _iterate(params, Vs, kind, R_target)
    return _summary(Vs, R_asym, R_target, R_list, T_list, eff_list)


def expansion_schedule_same(
    params: ScenarioParams, Vs: float, kind: ProtocolKind
) -> Tuple[List[ExpansionStep], ProtocolSummary]:
    """Derived same-direction expansion: per-sweep steps plus a summary.

    Everything is produced by direct iteration and summation; the guard
    angle of the spiral variant is re-evaluated at every sweep-start
    radius, so its contraction factor changes from step to step.
    """
    R_asym, R_target = _targets(params, Vs, kind)
    R_list, T_list, delta_list, eff_list = _iterate(params, Vs, kind, R_target)
    if kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
        Rtilde = [R + params.r for R in R_list]
    else:
        Rtilde = repeat(None)
    T_out = [delta_eff / Vs for delta_eff in eff_list]
    # each step's cells in field order, one list per column
    cells = zip(count(), R_list, Rtilde, delta_list, eff_list, T_list, T_out)
    steps = list(map(ExpansionStep._make, cells))
    return steps, _summary(Vs, R_asym, R_target, R_list, T_list, eff_list)
