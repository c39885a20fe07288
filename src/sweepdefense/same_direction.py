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
"""

import math
from dataclasses import dataclass
from typing import List, Tuple

from .affine import ITERATION_CAP as _ITERATION_CAP
from .circular_pincer import critical_speed as _circular_pincer_speed
from .errors import (
    InvalidParam,
    MaxIterations,
    NoBracket,
    NoExpansion,
    RootNotFound,
    SubcriticalSpeed,
)
from .rootfind import RootProblem, solve
from .scenario import ExpansionStep, ProtocolKind, ProtocolSummary, ScenarioParams
from .spiral_pincer import _contraction as _spiral_pincer_contraction
from .spiral_pincer import checked_contraction
from .spiral_pincer import critical_speed as _spiral_pincer_speed

_TWO_PI = 2.0 * math.pi

# Bisection depth cap for the spiral same-direction asymptote; the loop
# stops once the midpoint rounds onto an end, after about 55 steps.
_BISECT_STEPS = 200


@dataclass(frozen=True)
class SameDirectionGeometry:
    """Guard angle and the two same-direction critical speeds."""

    beta0: float         # extra sector guarded at the initial radius, radians
    Vc_circ_same: float  # circular same-direction critical speed
    Vc_spiral_same: float


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

    The balance adds the guard angle to the sweep span; it is negative at
    the pincer root, so the pincer root brackets from below and doubling
    finds an upper end where the sensor wins.
    """

    def balance(Vs: float) -> float:
        lam = _spiral_same_lam(params, Vs, params.R0)
        return 2.0 * params.r * Vs / (Vs + params.VT) - (params.R0 + params.r) * (
            1.0 - lam
        )

    lo = _spiral_pincer_speed(params)
    hi = 2.0 * lo
    for _ in range(60):
        if balance(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RootNotFound("no upper bracket for the same-direction spiral speed")
    problem = RootProblem(
        objective=balance,
        bracket_lo=lo,
        bracket_hi=hi,
        # start essentially at the pincer root, nudged inside the bracket
        guess=lo * (1.0 + 1e-6),
        tol_f=1e-10 * params.r,
    )
    try:
        return solve(problem)
    except (NoBracket, MaxIterations) as exc:
        raise RootNotFound(f"same-direction spiral speed search failed: {exc}") from exc


def geometry(params: ScenarioParams) -> SameDirectionGeometry:
    """Both same-direction critical speeds plus the guard angle at R0,
    evaluated at the spiral root."""
    Vc_spiral = spiral_same_critical_speed(params)
    return SameDirectionGeometry(
        beta0=guard_angle(params, Vc_spiral, params.R0),
        Vc_circ_same=circular_same_critical_speed(params),
        Vc_spiral_same=Vc_spiral,
    )


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
    spiral = kind is ProtocolKind.SPIRAL_SAME_DIRECTION
    steps = [
        ExpansionStep(
            index=i,
            R_i=R,
            Rtilde_i=R + params.r if spiral else None,
            delta_i=delta,
            delta_eff_i=delta_eff,
            T_sweep_i=T,
            T_out_i=delta_eff / Vs,
        )
        for i, (R, T, delta, delta_eff) in enumerate(
            zip(R_list, T_list, delta_list, eff_list)
        )
    ]
    return steps, _summary(Vs, R_asym, R_target, R_list, T_list, eff_list)
