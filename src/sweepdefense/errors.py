"""Exception types shared by the protocol, solver, simulator and CLI modules."""


class ProtocolError(Exception):
    """Base class for every error this library raises on purpose."""


class InvalidParam(ProtocolError):
    """A scenario field violates a physical validity constraint."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class SubcriticalSpeed(ProtocolError):
    """Defender speed is below the protocol's critical speed."""


class NoExpansion(ProtocolError):
    """No outward expansion is possible: the speed only sustains the defense
    task, or eps is at least as large as the reachable margin."""


class SpeedTooLow(ProtocolError):
    """Defender speed does not exceed the invader speed."""


class NoBracket(ProtocolError):
    """Root bracketing failed: the objective has the same sign at both ends.

    Carries both ends and their objective values, so a caller can widen
    the bracket without evaluating the objective there again.
    """

    def __init__(self, lo: float, f_lo: float, hi: float, f_hi: float):
        self.lo, self.f_lo, self.hi, self.f_hi = lo, f_lo, hi, f_hi
        super().__init__(f"objective({lo}) = {f_lo} and objective({hi}) = {f_hi} share a sign")


class MaxIterations(ProtocolError):
    """Iteration limit reached before convergence."""


class RootNotFound(ProtocolError):
    """A critical-speed solve failed to converge."""


class ConfigError(ProtocolError):
    """Simulator or CLI configuration is invalid."""
