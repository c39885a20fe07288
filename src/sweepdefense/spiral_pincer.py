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
from dataclasses import dataclass, field
from typing import Callable, List

from . import affine
from .affine import AffineRecursion
from .bounds import universal_lower_bound
from .circular_pincer import critical_speed as _circular_critical_speed
from .errors import InvalidParam, SpeedTooLow
from .rootfind import RootProblem, solve_widening
from .scenario import ExpansionStep, ProtocolSummary, RecursionCoeffs, ScenarioParams

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpiralGeometry:
    """One sweep of the spiral trajectory, in ready-to-evaluate form."""

    phi: float  # tilt of the sensor against the path, arcsin(VT/Vs)
    lam: float  # radial contraction factor per sweep ("lambda" is reserved)
    Tc: float   # duration of the first sweep
    beta: Callable[[float], float] = field(repr=False)  # polar angle at time t
    Rs: Callable[[float], float] = field(repr=False)    # sensor-centre radius at time t


def checked_contraction(lam: float, Vs: float) -> float:
    """lam, unless it rounds to 1: then a sweep sheds nothing and every
    1/(1 - lam) in the protocol formulas divides by zero."""
    if lam == 1.0:
        raise InvalidParam(
            "Vs", f"{Vs} is so far above VT that the per-sweep contraction rounds to 1"
        )
    return lam


def _contraction(params: ScenarioParams, Vs: float) -> float:
    return checked_contraction(
        math.exp(
            -_TWO_PI * params.VT / (params.n * math.sqrt(Vs * Vs - params.VT * params.VT))
        ),
        Vs,
    )


def spiral_geometry(params: ScenarioParams, Vs: float) -> SpiralGeometry:
    """Trajectory of the first sweep, starting at the protected boundary.

    The sensor centre sinks linearly, Rs(t) = R0 + r - VT*t, while the
    polar angle accumulates as the closed-form logarithm; beta(Tc) lands
    exactly on the pair sector 2*pi/n.
    """
    if Vs <= params.VT:
        raise SpeedTooLow(f"Vs={Vs} must exceed the threat speed VT={params.VT}")
    lateral = math.sqrt(Vs * Vs - params.VT * params.VT)
    lam = _contraction(params, Vs)
    R_start = params.R0 + params.r
    VT = params.VT

    def beta(t: float) -> float:
        return (lateral / VT) * math.log(R_start / (R_start - VT * t))

    def Rs(t: float) -> float:
        return R_start - VT * t

    return SpiralGeometry(
        phi=math.asin(params.VT / Vs),
        lam=lam,
        Tc=R_start * (1.0 - lam) / VT,
        beta=beta,
        Rs=Rs,
    )


def critical_speed_initial_guess(params: ScenarioParams) -> float:
    """Closed-form underestimate of the critical speed.

    Obtained by ignoring the post-sweep advance race; always at least VT
    and a decent Newton starting point in practice.
    """
    span = _TWO_PI / params.n
    stretch = math.log((params.R0 + params.r) / (params.R0 - params.r))
    return params.VT * math.sqrt((span / stretch) ** 2 + 1.0)


def _balance(params: ScenarioParams, Vs: float) -> float:
    """Sweep loss minus sensor coverage; the critical speed is its root."""
    lam = _contraction(params, Vs)
    return (params.R0 + params.r) * (1.0 - lam) - 2.0 * params.r * Vs / (
        Vs + params.VT
    )


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


def _sensor_centre(params: ScenarioParams, Vs: float) -> AffineRecursion:
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


def coeffs(params: ScenarioParams, Vs: float) -> RecursionCoeffs:
    """Coefficients of Rtilde_{i+1} = c2*Rtilde_i + c1."""
    return _sensor_centre(params, Vs).coeffs()


def max_radius(params: ScenarioParams, Vs: float) -> float:
    """Asymptote of the sensor-centre recursion, 2r/(1-lam) - r.

    This is the fixed point the expansion actually converges to; see
    max_radius_alternative for a published variant.
    """
    return _sensor_centre(params, Vs).asymptote


def max_radius_alternative(params: ScenarioParams, Vs: float) -> float:
    """Published alternative form of the spiral asymptote.

    Differs from max_radius by a factor Vs/(Vs+VT) on the leading term and
    is exposed for comparison only; no schedule or total uses it.
    """
    one_minus_lam = _sensor_centre(params, Vs).a_num
    return 2.0 * params.r * Vs / (one_minus_lam * (Vs + params.VT)) - params.r


def sweep_count(params: ScenarioParams, Vs: float) -> int:
    """Sweeps needed to push the boundary to within eps of the asymptote."""
    return _sensor_centre(params, Vs).sweep_count()


def expansion_schedule(params: ScenarioParams, Vs: float) -> List[ExpansionStep]:
    """Per-sweep log of the expansion, by direct iteration over Rtilde.

    Unlike the circular protocol there is no degenerate case at the
    critical speed: the balance there still leaves delta_0 = 2r*VT/(Vs+VT)
    of budget, so the schedule is always a genuine expansion.
    """
    return _sensor_centre(params, Vs).schedule()


def totals(params: ScenarioParams, Vs: float) -> ProtocolSummary:
    """Campaign summary from closed forms alone, over Rtilde; the outward
    time telescopes to (R_max - R0)/Vs."""
    return _sensor_centre(params, Vs).totals()
