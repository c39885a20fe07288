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
`expansion_schedule_same` run their sweeps through `affine.run`, the one
loop of every kind, and take their steps and sums from `affine.per_eps`.
`_shared` asks it for steps, sums, both, or neither: a sweep count alone
comes from a run that keeps no sweep and sums nothing, so counting takes
O(1) memory however long the run.
An expansion whose `sweep_bound` puts its count past the sweep cap fails
before the loop runs: the circular loop is the affine pincer recursion
with a smaller budget, so its count has a closed form, and the spiral
count has a lower bound. A run whose radius a sweep leaves unchanged
short of its target fails at once, as the cap would end it.

eps moves only where an expansion stops, so inside a `memo.command` the
eps values a table plans share one run per (kind, n, Vs): the first of
them runs it to the farthest target and every eps takes its count, its
sums over its own prefix, in the order a run of its own adds them, and
its steps as the first of the farthest eps's steps. The critical speed
and the spiral asymptote are solved once per command as well; the
asymptote's bisection computes the R-free factors of lam(R) once for all
its probes.
"""

import math
from typing import List, NamedTuple, Optional, Tuple

from . import memo
from .affine import ITERATION_CAP as _ITERATION_CAP
from .affine import AffineRecursion, Sweeps, check_finite, check_speed, expansion_target, per_eps
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


class _Expansion(NamedTuple):
    """A same-direction expansion, as affine.per_eps and affine.first_steps run it."""

    params: ScenarioParams
    Vs: float
    kind: ProtocolKind
    asymptote: float

    @property
    def sweeps(self) -> Sweeps:
        params, Vs = self.params, self.Vs
        n, r, VT = params.n, params.r, params.VT
        if self.kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
            guard = (r, _TWO_PI / n, lateral_speed(Vs, VT))
            return Sweeps(params.R0, 0.0, 2.0 * r, VT, Vs, guard=guard)
        # the sector plus one sensor half-length of overlap, at Vs
        return Sweeps(params.R0, 0.0, r, VT, Vs, _TWO_PI, n, r, Vs)

    @property
    def cap(self) -> int:
        return _ITERATION_CAP

    def target(self) -> float:
        return expansion_target(self.params, self.asymptote)

    def check(self, eps: float, R_target: float) -> None:
        """MaxIterations when sweep_bound puts the run to eps past the cap
        by more than a rounding; below that the loop decides."""
        x = self.sweep_bound(eps)
        if x > _ITERATION_CAP + 1:
            raise MaxIterations(
                f"the expansion needs about {math.ceil(x)} sweeps, more than {_ITERATION_CAP}"
            )

    def sweep_bound(self, eps: float) -> float:
        """A count of sweeps that the loop's run to R_asym - eps cannot
        undercut by a whole sweep, found without running it.

        The circular sweep time (2*pi*R/n + r)/Vs leaves the budget
        r*(Vs-VT)/Vs - VT*a*R with a = 2*pi/(n*Vs): the affine pincer
        recursion with that b, whose fixed point is R_asym, counts the
        sweeps in closed form, up to a rounding.

        The spiral loop's budget b - (R+r)*(1-lam(R)) has its root at
        R_asym, and 1-lam(R) falls as R grows. So a sweep from R < R_asym
        advances by at most (R_asym - R)*(1-lam(R0))*Vs/(Vs+VT): the gap to
        R_asym shrinks by the factor c = 1 - (1-lam(R0))*Vs/(Vs+VT) at most,
        and closing it to eps takes at least log(eps/(R_asym - R0))/log(c)
        sweeps, whatever b is.
        """
        params, Vs = self.params, self.Vs
        if self.kind is ProtocolKind.CIRCULAR_SAME_DIRECTION:
            ring = AffineRecursion(
                params, Vs, a_num=_TWO_PI, a_den=params.n * Vs,
                b=params.r * (Vs - params.VT) / Vs, shift=0.0,
            )
            return ring.closed_count(eps)
        shed = (1.0 - _spiral_same_lam(params, Vs, params.R0)) * Vs / (Vs + params.VT)
        # log1p: the factor c can round to 1 at speeds far above VT
        return math.log(eps / (self.asymptote - params.R0)) / math.log1p(-shed)

    def shortfall(self, stall: Optional[float], R_target: float) -> MaxIterations:
        return MaxIterations(f"schedule exceeded {_ITERATION_CAP} sweeps")


def max_radius_same(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> float:
    """Asymptotic radius of a same-direction expansion, without iterating it.

    Raises the same domain errors as the schedule, so a grid point gets
    the same status from either.
    """
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
    expansion_target(params, R_asym)
    return R_asym


def expansion(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> _Expansion:
    """The same-direction expansion at Vs, or the error that rules it out."""
    return _Expansion(params, Vs, kind, max_radius_same(params, Vs, kind))


def _shared(params: ScenarioParams, Vs: float, kind: ProtocolKind, listed: bool, summed: bool):
    """The expansion to params.eps as affine.per_eps cuts it: its steps
    when listed, its summary when summed, both as a pair, or its sweep
    count when neither; inside a memo.command the eps values the command
    plans share one run of sweeps per (kind, n, Vs)."""
    return memo.per_gap(
        ("same_direction", listed, summed, kind, params.R0, params.r, params.VT, params.n, Vs),
        params.eps, _cut, params, Vs, kind, max_radius_same(params, Vs, kind), listed, summed,
    )


def _cut(gaps, params: ScenarioParams, Vs: float, kind: ProtocolKind, R_asym: float,
         listed: bool, summed: bool):
    # the expansion is built only when a run is made, not at every grid point
    return per_eps(gaps, _Expansion(params, Vs, kind, R_asym), listed, summed)


def totals_same(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> ProtocolSummary:
    """Summary of a derived same-direction expansion, by direct summation
    over the sweeps, without building the per-sweep steps.

    Inside a memo.command, the eps values the command plans share one run
    of sweeps per (kind, n, Vs); every result is the one its own run gives.
    """
    return _shared(params, Vs, kind, listed=False, summed=True)


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
    return _shared(params, Vs, kind, listed=True, summed=True)
