"""Guaranteed sweep-defense protocols for a circular perimeter.

A team of n speed-bounded defenders with radial line sensors guards a
disk against worst-case invaders, modeled as an inward-closing wavefront.
This package computes, for four sweep protocols (circular and spiral,
pincer and same-direction): critical defender speeds, maximal defendable
radii, per-sweep expansion schedules and total times. An independent
angular-grid wavefront simulator cross-checks the analytical results, and
a CLI emits parameter-sweep tables as CSV or JSON.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    InvalidParam,
    MaxIterations,
    NoBracket,
    NoExpansion,
    ProtocolError,
    RootNotFound,
    SpeedTooLow,
    SubcriticalSpeed,
)
from .scenario import (
    ExpansionStep,
    ProtocolKind,
    ProtocolSummary,
    RecursionCoeffs,
    ScenarioParams,
    validate,
)
from .bounds import universal_lower_bound

__all__ = [
    "ConfigError",
    "ExpansionStep",
    "InvalidParam",
    "MaxIterations",
    "NoBracket",
    "NoExpansion",
    "ProtocolError",
    "ProtocolKind",
    "ProtocolSummary",
    "RecursionCoeffs",
    "RootNotFound",
    "ScenarioParams",
    "SpeedTooLow",
    "SubcriticalSpeed",
    "universal_lower_bound",
    "validate",
    "__version__",
]
