"""Which functions answer for each protocol kind.

The CLI and the simulator ask this module for a kind's critical speed,
asymptote, sweep count, totals, schedule or its first steps, sweep
sector and duration from a radius, and whether it is a pincer or a
spiral. The pincer kinds are answered by their own modules, the
same-direction kinds by `same_direction`; each call looks the function
up on its module when it is made. Each answer does only the work it
returns: a same-direction sweep count comes from a run that keeps no
sweep and sums nothing, and a same-direction schedule sums nothing.
"""

import math
from typing import Callable, Dict, List, Tuple

from . import affine, circular_pincer, same_direction, spiral_pincer
from .scenario import ExpansionStep, ProtocolKind, ProtocolSummary, ScenarioParams

_TWO_PI = 2.0 * math.pi

# in the column order of the critical-speeds table
CRITICAL: Dict[ProtocolKind, Callable[[ScenarioParams], float]] = {
    ProtocolKind.CIRCULAR_PINCER: lambda p: circular_pincer.critical_speed(p),
    ProtocolKind.SPIRAL_PINCER: lambda p: spiral_pincer.critical_speed(p),
    ProtocolKind.CIRCULAR_SAME_DIRECTION: lambda p: same_direction.circular_same_critical_speed(p),
    ProtocolKind.SPIRAL_SAME_DIRECTION: lambda p: same_direction.spiral_same_critical_speed(p),
}

_PINCERS = {
    ProtocolKind.CIRCULAR_PINCER: circular_pincer,
    ProtocolKind.SPIRAL_PINCER: spiral_pincer,
}
_SPIRALS = (ProtocolKind.SPIRAL_PINCER, ProtocolKind.SPIRAL_SAME_DIRECTION)


def is_pincer(kind: ProtocolKind) -> bool:
    return kind in _PINCERS


def is_spiral(kind: ProtocolKind) -> bool:
    return kind in _SPIRALS


def max_radius(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> float:
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return same_direction.max_radius_same(params, Vs, kind)
    return pincer.max_radius(params, Vs)


def sweep_count(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> int:
    """The N_n of the kind's totals, or the error they raise, without
    the rest of the summary."""
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return same_direction._shared(params, Vs, kind, listed=False, summed=False)
    return pincer.sweep_count(params, Vs)


def totals(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> ProtocolSummary:
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return same_direction.totals_same(params, Vs, kind)
    return pincer.totals(params, Vs)


def schedule(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> List[ExpansionStep]:
    """The kind's expansion schedule; inside a memo.command, one listing
    per (kind, n, Vs) serves every eps the command plans."""
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return same_direction._shared(params, Vs, kind, listed=True, summed=False)
    return pincer.expansion_schedule(params, Vs)


def first_steps(
    params: ScenarioParams, Vs: float, kind: ProtocolKind, sweeps: int
) -> List[ExpansionStep]:
    """The schedule's first sweeps steps, the very steps schedule lists,
    from a run of the one expansion loop stopped there."""
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return affine.first_steps(same_direction.expansion(params, Vs, kind), sweeps)
    return affine.first_steps(pincer.expansion(params, Vs), sweeps)


def sweep(params: ScenarioParams, Vs: float, kind: ProtocolKind, R: float) -> Tuple[float, float]:
    """The sector one defender covers in a sweep from radius R, and the
    sweep's duration in the float expression of the kind's schedule: a
    sweep from R0 lasts exactly as long as the schedule's first."""
    n, r, VT = params.n, params.r, params.VT
    span = _TWO_PI / n
    if kind is ProtocolKind.CIRCULAR_PINCER:
        return span, R * _TWO_PI / (n * Vs)
    if kind is ProtocolKind.SPIRAL_PINCER:
        return span, (R + r) * (1.0 - spiral_pincer._contraction(params, Vs)) / VT
    if kind is ProtocolKind.CIRCULAR_SAME_DIRECTION:
        return span + r / R, (_TWO_PI * R / n + r) / Vs
    lam = same_direction._spiral_same_lam(params, Vs, R)
    return span + same_direction.guard_angle(params, Vs, R), (R + r) * (1.0 - lam) / VT
