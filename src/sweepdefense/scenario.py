"""Shared domain types for the sweep-defense protocols.

Conventions: all lengths share one unit, speeds are length per time unit.
A team of n defenders (n even, paired back-to-back for the pincer
protocols) guards a disk of radius R0 against invaders that move at most
at speed VT. Each defender carries a radial line sensor of full length
2r, so r is the sensor half-length throughout.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InvalidParam


@dataclass(frozen=True)
class ScenarioParams:
    """Static problem instance."""

    R0: float   # initial protected radius
    r: float    # sensor half-length (full sensor length = 2r)
    VT: float   # maximum invader speed
    n: int      # number of defenders, even, >= 2
    eps: float  # stopping gap below the asymptotic maximal radius


@dataclass(frozen=True)
class RecursionCoeffs:
    """Affine per-sweep radius recursion R_{i+1} = c2 * R_i + c1.

    c3 is the matching per-sweep time coefficient. The contraction
    0 < c2 < 1 guarantees the finite fixed point c1 / (1 - c2).
    """

    c1: float  # length
    c2: float  # dimensionless contraction factor
    c3: float  # time


@dataclass(frozen=True)
class ExpansionStep:
    """One sweep iteration of an expansion schedule.

    Radii are sweep-start values. delta_i is the raw advance budget won by
    the sweep, delta_eff_i the part that survives the outward race against
    the closing wavefront, and T_out_i the time that advance takes.
    """

    index: int
    R_i: float                   # protected radius when the sweep starts
    Rtilde_i: Optional[float]    # sensor-center radius R_i + r (spiral bookkeeping; None for circular)
    delta_i: float               # raw advance budget
    delta_eff_i: float           # delta_i * Vs / (Vs + VT)
    T_sweep_i: float             # duration of the sweep itself
    T_out_i: float               # duration of the outward advance, delta_eff_i / Vs


@dataclass(frozen=True)
class ProtocolSummary:
    """Aggregate results of a maximal-expansion run."""

    N_n: int             # number of sweeps performed
    R_last: float        # sweep-start radius of the final sweep
    R_max: float         # expansion target, R_asym - eps
    R_asym: float        # asymptotic fixed point of the radius recursion
    T_out_total: float   # total outward-advance time, including the capped last advance
    T_sweep_total: float # total sweeping time
    T_total: float       # T_out_total + T_sweep_total
    T_out_last: float    # the capped last advance, (R_max - R_last) / Vs


class ProtocolKind(Enum):
    """The four sweep protocols this library implements."""

    CIRCULAR_PINCER = "circular-pincer"
    SPIRAL_PINCER = "spiral-pincer"
    CIRCULAR_SAME_DIRECTION = "circular-same"
    SPIRAL_SAME_DIRECTION = "spiral-same"


def validate(params: ScenarioParams) -> ScenarioParams:
    """Check physical feasibility and return the instance unchanged.

    Raises InvalidParam naming the offending field otherwise. Validation is
    idempotent; it never mutates or normalizes.
    """
    for field in ("R0", "r", "VT", "eps"):
        value = getattr(params, field)
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise InvalidParam(field, "must be a finite number")
        if value <= 0:
            raise InvalidParam(field, "must be > 0")
    n = params.n
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidParam("n", "must be an integer")
    if n < 2:
        raise InvalidParam("n", "must be >= 2")
    if n % 2 != 0:
        raise InvalidParam("n", "must be even")
    if params.r >= params.R0:
        raise InvalidParam("r", "r must be < R0")
    return params
