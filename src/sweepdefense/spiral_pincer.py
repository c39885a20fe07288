"""Pincer sweeps along inward-tightening spirals.

Instead of holding a fixed radius, each defender lets its sensor ride the
incoming front: the sensor's inner tip starts on the protected boundary
and the whole sensor drifts inward at the threat speed while the defender
circles, so nothing slips underneath during the sweep. The resulting path
is a logarithmic spiral in the co-moving picture. Bookkeeping runs over
the sensor-centre radius Rtilde = R + r, which obeys an affine recursion
just like the circular protocol's ring radius.

The critical speed has no closed form here; it is the root of the balance
between what one sweep loses to the front and what the sensor can cover,
found numerically with a safeguarded Newton iteration.
"""

import math
from typing import List

from . import affine, memo
from .affine import AffineRecursion
from .bounds import universal_lower_bound
from .circular_pincer import critical_speed as _circular_critical_speed
from .errors import InvalidParam
from .rootfind import RootProblem, solve_widening
from .scenario import ExpansionStep, ProtocolSummary, ScenarioParams

_TWO_PI = 2.0 * math.pi


def checked_contraction(lam: float, Vs: float) -> float:
    """lam, unless it rounds to 1: then a sweep sheds nothing and every
    1/(1 - lam) in the protocol formulas divides by zero."""
    if lam == 1.0:
        raise InvalidParam(
            "Vs", f"{Vs} is so far above VT that the per-sweep contraction rounds to 1"
        )
    return lam


def lateral_speed(Vs: float, VT: float) -> float:
    """sqrt(Vs^2 - VT^2): InvalidParam above VT where the squares leave
    the float range; at or below VT, ValueError or a 0 root, which a root
    search's probe past its bracket may meet (see rootfind.RootProblem)."""
    lateral = math.sqrt(Vs * Vs - VT * VT)
    if Vs > VT and not 0.0 < lateral < math.inf:
        raise InvalidParam("VT", f"{VT}: Vs^2 - VT^2 leaves the float range at Vs={Vs}")
    return lateral


def _contraction(params: ScenarioParams, Vs: float) -> float:
    return checked_contraction(
        math.exp(-_TWO_PI * params.VT / (params.n * lateral_speed(Vs, params.VT))), Vs
    )


def critical_speed_initial_guess(params: ScenarioParams) -> float:
    """Closed-form underestimate of the critical speed.

    Obtained by ignoring the post-sweep advance race; always at least VT
    and a decent Newton starting point in practice.
    """
    span = _TWO_PI / params.n
    stretch = math.log((params.R0 + params.r) / (params.R0 - params.r))
    if stretch == 0.0:
        # the quotient rounds to 1 once r/R0 is below about 1e-16
        stretch = math.log1p(2.0 * params.r / (params.R0 - params.r))
    slope = span / stretch if stretch else math.inf
    try:
        return params.VT * math.sqrt(slope**2 + 1.0)
    except OverflowError:
        return params.VT * math.hypot(slope, 1.0)


def sweep_balance(params: ScenarioParams, Vs: float, lam: float) -> float:
    """Sweep loss minus sensor coverage, at R0, of a spiral whose sweep
    contracts the sensor-centre radius by lam."""
    return (params.R0 + params.r) * (1.0 - lam) - 2.0 * params.r * Vs / (Vs + params.VT)


def _balance(params: ScenarioParams, Vs: float) -> float:
    """The pincer's sweep balance; the critical speed is its root."""
    return sweep_balance(params, Vs, _contraction(params, Vs))


@memo.per_scene
def critical_speed(params: ScenarioParams) -> float:
    """Slowest speed at which one spiral sweep covers what the front takes.

    Root of the balance function. The bracket starts just above VT, where
    the balance is about R0 > 0, or at the universal lower bound if that is
    higher. Its upper end is ten times the circular critical speed whenever
    the balance is negative there; for large teams (n*r beyond about
    63*R0) that end falls below VT, and solve_widening doubles it until
    it brackets.
    """
    lo = max(params.VT * (1.0 + 1e-9), universal_lower_bound(params))
    problem = RootProblem(
        objective=lambda Vs: _balance(params, Vs),
        bracket_lo=lo,
        bracket_hi=10.0 * _circular_critical_speed(params),
        guess=critical_speed_initial_guess(params),
        tol_f=1e-10 * params.r,
    )
    return solve_widening(problem, "spiral critical speed")


def expansion(params: ScenarioParams, Vs: float) -> AffineRecursion:
    """The sensor-centre recursion, once Vs is checked against the
    critical speed: a sweep at Rtilde takes Rtilde*(1-lam)/VT."""
    affine.check_speed(Vs, critical_speed(params), "spiral pincer")
    return AffineRecursion(
        params,
        Vs,
        a_num=1.0 - _contraction(params, Vs),
        a_den=params.VT,
        b=2.0 * params.r,
        shift=params.r,
    )


def max_radius(params: ScenarioParams, Vs: float) -> float:
    """Asymptote of the sensor-centre recursion, 2r/(1-lam) - r.

    This is the fixed point the expansion actually converges to; see
    max_radius_alternative for a published variant.
    """
    return expansion(params, Vs).asymptote


def max_radius_alternative(params: ScenarioParams, Vs: float) -> float:
    """Published alternative form of the spiral asymptote.

    Differs from max_radius by a factor Vs/(Vs+VT) on the leading term and
    is exposed for comparison only; no schedule or total uses it.
    """
    one_minus_lam = expansion(params, Vs).a_num
    return 2.0 * params.r * Vs / (one_minus_lam * (Vs + params.VT)) - params.r


def sweep_count(params: ScenarioParams, Vs: float) -> int:
    """Sweeps needed to push the boundary to within eps of the asymptote."""
    return expansion(params, Vs).sweep_count()


def expansion_schedule(params: ScenarioParams, Vs: float) -> List[ExpansionStep]:
    """Per-sweep log of the expansion, by direct iteration over Rtilde.

    Unlike the circular protocol there is no degenerate case at the
    critical speed: the balance there still leaves delta_0 = 2r*VT/(Vs+VT)
    of budget, so the schedule is always a genuine expansion.
    """
    return expansion(params, Vs).schedule()


def totals(params: ScenarioParams, Vs: float) -> ProtocolSummary:
    """Campaign summary from closed forms alone, over Rtilde; the outward
    time telescopes to (R_max - R0)/Vs."""
    return expansion(params, Vs).totals()
