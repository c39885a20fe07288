"""Protocol-independent speed bound.

Whatever sweep pattern the defenders use, holding a disk of radius R0
against invaders of speed VT with n sensors of half-length r requires at
least pi * R0 * VT / (n * r). Every protocol critical speed in this
library sits at or above this value.
"""

import math

from .errors import InvalidParam
from .scenario import ScenarioParams


def universal_lower_bound(params: ScenarioParams) -> float:
    """V_LB = pi * R0 * VT / (n * r); linear in R0 and VT, inverse in n and r.

    Raises InvalidParam when the circular pincer speed, twice the bound,
    passes the float range: no critical speed is then a number.
    """
    bound = math.pi * params.R0 * params.VT / (params.n * params.r)
    if not math.isfinite(2.0 * bound):
        raise InvalidParam(
            "R0", f"pi*R0*VT/(n*r) at R0={params.R0}, r={params.r} passes the float range"
        )
    return bound
