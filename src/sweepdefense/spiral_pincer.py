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

from .bounds import universal_lower_bound
from .circular_pincer import critical_speed as _circular_critical_speed
from .errors import (
    InvalidParam,
    MaxIterations,
    NoBracket,
    NoExpansion,
    RootNotFound,
    SpeedTooLow,
    SubcriticalSpeed,
)
from .rootfind import RootProblem, solve
from .scenario import ExpansionStep, ProtocolSummary, ScenarioParams

_TWO_PI = 2.0 * math.pi

# Same integer-boundary guard as the circular module: near-integral values
# of the closed-form sweep count are recomputed by direct iteration.
INTEGER_GUARD = 1e-9

_ITERATION_CAP = 10_000_000


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

    Root of the balance function, bracketed between just above VT (where
    the balance is R0 - r > 0) and ten times the circular critical speed.
    """
    lo = max(params.VT * (1.0 + 1e-9), universal_lower_bound(params))
    problem = RootProblem(
        objective=lambda Vs: _balance(params, Vs),
        bracket_lo=lo,
        bracket_hi=10.0 * _circular_critical_speed(params),
        guess=critical_speed_initial_guess(params),
        tol_f=1e-10 * params.r,
    )
    try:
        return solve(problem)
    except (NoBracket, MaxIterations) as exc:
        raise RootNotFound(f"spiral critical speed search failed: {exc}") from exc


def _require_supercritical(params: ScenarioParams, Vs: float) -> None:
    Vc = critical_speed(params)
    if Vs < Vc:
        raise SubcriticalSpeed(
            f"Vs={Vs} is below the spiral pincer critical speed {Vc}"
        )


def max_radius(params: ScenarioParams, Vs: float) -> float:
    """Asymptote of the sensor-centre recursion, 2r/(1-lam) - r.

    This is the fixed point the expansion actually converges to; see
    max_radius_alternative for a published variant.
    """
    _require_supercritical(params, Vs)
    return 2.0 * params.r / (1.0 - _contraction(params, Vs)) - params.r


def max_radius_alternative(params: ScenarioParams, Vs: float) -> float:
    """Published alternative form of the spiral asymptote.

    Differs from max_radius by a factor Vs/(Vs+VT) on the leading term and
    is exposed for comparison only; no schedule or total uses it.
    """
    _require_supercritical(params, Vs)
    lam = _contraction(params, Vs)
    return 2.0 * params.r * Vs / ((1.0 - lam) * (Vs + params.VT)) - params.r


def _recursion(params: ScenarioParams, Vs: float):
    """(lam, c1, c2) for Rtilde_{i+1} = c2*Rtilde_i + c1."""
    lam = _contraction(params, Vs)
    c1 = 2.0 * params.r * Vs / (Vs + params.VT)
    c2 = (params.VT + Vs * lam) / (Vs + params.VT)
    return lam, c1, c2


def _expansion_targets(params: ScenarioParams, Vs: float):
    """Validate the expansion task; returns (R_asym, R_target)."""
    _require_supercritical(params, Vs)
    R_asym = 2.0 * params.r / (1.0 - _contraction(params, Vs)) - params.r
    R_target = R_asym - params.eps
    if R_target <= params.R0:
        raise NoExpansion(
            f"eps={params.eps} leaves no expansion target above R0={params.R0}"
        )
    return R_asym, R_target


def _advance(params: ScenarioParams, Vs: float, lam: float, Rt: float):
    """One sweep at sensor-centre radius Rt: (T_sweep, delta, delta_eff)."""
    T = Rt * (1.0 - lam) / params.VT
    delta = 2.0 * params.r - params.VT * T
    return T, delta, delta * Vs / (Vs + params.VT)


def sweep_count(params: ScenarioParams, Vs: float) -> int:
    """Sweeps needed to push the boundary to within eps of the asymptote."""
    R_asym, R_target = _expansion_targets(params, Vs)
    lam, _, c2 = _recursion(params, Vs)
    Rt_fix = R_asym + params.r
    x = math.log(params.eps / (Rt_fix - params.R0 - params.r)) / math.log(c2)
    if abs(x - round(x)) <= INTEGER_GUARD:
        Rt = params.R0 + params.r
        Rt_target = R_target + params.r
        for i in range(1, _ITERATION_CAP + 1):
            Rt += _advance(params, Vs, lam, Rt)[2]
            if Rt >= Rt_target:
                return i
        raise MaxIterations(
            f"no convergence to R_target={R_target} within {_ITERATION_CAP} sweeps"
        )
    return max(1, math.ceil(x))


def expansion_schedule(params: ScenarioParams, Vs: float) -> List[ExpansionStep]:
    """Per-sweep log of the expansion, by direct iteration over Rtilde.

    Unlike the circular protocol there is no degenerate case at the
    critical speed: the balance there still leaves delta_0 = 2r*VT/(Vs+VT)
    of budget, so the schedule is always a genuine expansion.
    """
    _, R_target = _expansion_targets(params, Vs)
    lam, _, _ = _recursion(params, Vs)
    Rt_target = R_target + params.r
    steps: List[ExpansionStep] = []
    Rt = params.R0 + params.r
    while True:
        T, delta, delta_eff = _advance(params, Vs, lam, Rt)
        steps.append(
            ExpansionStep(
                index=len(steps),
                R_i=Rt - params.r,
                Rtilde_i=Rt,
                delta_i=delta,
                delta_eff_i=delta_eff,
                T_sweep_i=T,
                T_out_i=delta_eff / Vs,
            )
        )
        Rt += delta_eff
        if Rt >= Rt_target:
            return steps
        if len(steps) >= _ITERATION_CAP:
            raise MaxIterations(f"schedule exceeded {_ITERATION_CAP} sweeps")


def totals(params: ScenarioParams, Vs: float) -> ProtocolSummary:
    """Campaign summary from closed forms alone.

    The sweep total is the geometric partial sum of Rtilde_i*(1-lam)/VT;
    the outward total telescopes across sweeps. Both are held against the
    schedule summation in the test suite.
    """
    R_asym, R_target = _expansion_targets(params, Vs)
    N = sweep_count(params, Vs)
    lam, _, c2 = _recursion(params, Vs)
    Rt_fix = R_asym + params.r
    Rt0 = params.R0 + params.r
    shrink_last = c2 ** (N - 1) * (Rt0 - Rt_fix)
    R_last = Rt_fix + shrink_last - params.r
    T_sweep_total = ((1.0 - lam) / params.VT) * (
        N * Rt_fix + (Rt0 - Rt_fix) * (1.0 - c2**N) / (1.0 - c2)
    )
    T_out_total = (
        lam * (params.R0 + params.r + params.eps) + params.r - params.R0 - params.eps
    ) / (Vs * (1.0 - lam))
    return ProtocolSummary(
        N_n=N,
        R_last=R_last,
        R_max=R_target,
        R_asym=R_asym,
        T_out_total=T_out_total,
        T_sweep_total=T_sweep_total,
        T_total=T_sweep_total + T_out_total,
        T_out_last=(R_target - R_last) / Vs,
    )
