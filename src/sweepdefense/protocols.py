"""Which functions answer for each protocol kind.

The CLI and the simulator ask this module for a kind's critical speed,
asymptote, totals, schedule (alone, or with its summary), sweep span at
a radius, and whether it is a pincer or a spiral. The pincer kinds are
answered by their own modules, the same-direction kinds by
`same_direction`; each call looks the function up on its module when it
is made.
"""

import math
from typing import Callable, Dict, List, Tuple

from . import circular_pincer, same_direction, spiral_pincer
from .scenario import ExpansionStep, ProtocolKind, ProtocolSummary, ScenarioParams

_TWO_PI = 2.0 * math.pi

CRITICAL: Dict[ProtocolKind, Callable[[ScenarioParams], float]] = {
    ProtocolKind.CIRCULAR_PINCER: circular_pincer.critical_speed,
    ProtocolKind.SPIRAL_PINCER: spiral_pincer.critical_speed,
    ProtocolKind.CIRCULAR_SAME_DIRECTION: same_direction.circular_same_critical_speed,
    ProtocolKind.SPIRAL_SAME_DIRECTION: same_direction.spiral_same_critical_speed,
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


def totals(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> ProtocolSummary:
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return same_direction.totals_same(params, Vs, kind)
    return pincer.totals(params, Vs)


def schedule(params: ScenarioParams, Vs: float, kind: ProtocolKind) -> List[ExpansionStep]:
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return same_direction.expansion_schedule_same(params, Vs, kind)[0]
    return pincer.expansion_schedule(params, Vs)


def expansion(
    params: ScenarioParams, Vs: float, kind: ProtocolKind
) -> Tuple[List[ExpansionStep], ProtocolSummary]:
    """The schedule and its summary. Unlike the schedule alone, it raises
    NoExpansion for the circular pincer's zero-advance step at Vc."""
    pincer = _PINCERS.get(kind)
    if pincer is None:
        return same_direction.expansion_schedule_same(params, Vs, kind)
    return pincer.expansion_schedule(params, Vs), pincer.totals(params, Vs)


def sweep_span(params: ScenarioParams, Vs: float, kind: ProtocolKind, R: float) -> float:
    """Angular sector one defender covers in a sweep starting at radius R."""
    span = _TWO_PI / params.n
    if kind is ProtocolKind.CIRCULAR_SAME_DIRECTION:
        return span + params.r / R
    if kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
        return span + same_direction.guard_angle(params, Vs, R)
    return span
