"""Pincer sweeps along circles of fixed radius.

The team works in back-to-back pairs. Both members of a pair trace the
same circle in opposite directions, meet the neighbouring pair's sweep
halfway, and turn around, so every sweep closes the full ring while the
threat front creeps inward. Whatever sensor margin is left over after a
sweep is spent pushing the ring outward before the next sweep begins.

Everything here is a pure function of the scenario and the sweep speed.
The ring radius follows the affine recursion of `affine` with sweep time
2*pi*R/(n*Vs) and budget r; this module supplies those coefficients, the
critical speed, and the single zero-advance step at exactly that speed.
"""

import math
from typing import List, Tuple

from . import affine
from .affine import AffineRecursion
from .bounds import universal_lower_bound
from .errors import NoExpansion
from .scenario import ExpansionStep, ProtocolSummary, ScenarioParams

_TWO_PI = 2.0 * math.pi


def critical_speed(params: ScenarioParams) -> float:
    """Slowest sweep speed at which the ring can be held forever.

    Exactly twice the universal lower bound: the doubling is the price of
    covering each sector from both ends at a fixed radius.
    """
    return 2.0 * universal_lower_bound(params)


def _ring(params: ScenarioParams, Vs: float) -> Tuple[AffineRecursion, bool]:
    """The ring-radius recursion, once Vs is checked against the critical
    speed, and whether Vs is exactly that speed."""
    Vc = critical_speed(params)
    affine.check_speed(Vs, Vc, "circular pincer")
    ring = AffineRecursion(
        params, Vs, a_num=_TWO_PI, a_den=params.n * Vs, b=params.r, shift=0.0
    )
    return ring, Vs == Vc


def expansion(params: ScenarioParams, Vs: float) -> AffineRecursion:
    """The ring recursion of an expansion at Vs; NoExpansion at Vc."""
    ring, at_critical = _ring(params, Vs)
    if at_critical:
        raise NoExpansion("at the critical speed the ring never grows")
    return ring


def max_radius(params: ScenarioParams, Vs: float) -> float:
    """Fixed point of the radius recursion: the radius the expansion
    approaches but never attains, n*Vs*r / (2*pi*VT)."""
    return _ring(params, Vs)[0].asymptote


def sweep_count(params: ScenarioParams, Vs: float) -> int:
    """Number of sweeps needed to push the ring to within eps of its limit."""
    return expansion(params, Vs).sweep_count()


def expansion_schedule(params: ScenarioParams, Vs: float) -> List[ExpansionStep]:
    """Per-sweep log of the expansion, by direct iteration.

    Step i records the ring radius at sweep start, the sweep duration, the
    leftover sensor budget delta_i, its effective outward share, and the
    advance duration. At Vs exactly equal to the critical speed the task
    degenerates to holding R0 and a single zero-advance step is returned.
    """
    ring, at_critical = _ring(params, Vs)
    if not at_critical:
        return ring.schedule()
    return [
        ExpansionStep(
            index=0,
            R_i=params.R0,
            Rtilde_i=None,
            delta_i=0.0,
            delta_eff_i=0.0,
            T_sweep_i=ring.sweep_time(params.R0),
            T_out_i=0.0,
        )
    ]


def totals(params: ScenarioParams, Vs: float) -> ProtocolSummary:
    """Campaign summary from closed forms alone; the outward time
    telescopes to n*r/(2*pi*VT) - (R0+eps)/Vs."""
    return expansion(params, Vs).totals()
