"""The affine per-sweep recursion behind both pincer expansions.

Both pincer protocols grow the protected radius R by one rule, written
over a bookkeeping radius X = R + shift. A sweep at X takes a*X, leaves
the raw budget b - VT*a*X of the sensor, and the outward race against
the front keeps the share Vs/(Vs+VT) of it:

    X_{i+1} = X_i + (b - VT*a*X_i) * Vs/(Vs+VT) = c2*X_i + c1.

The circular pincer runs it on the ring radius (a = 2*pi/(n*Vs), b = r,
shift = 0), the spiral pincer on the sensor-centre radius
(a = (1-lam)/VT, b = 2r, shift = r). The fixed point X* = b/(a*VT) gives
the asymptote; the sweep count, the last radius and the campaign times
follow in closed form. The schedule itself is produced by direct
iteration, and the tests hold the two routes against each other.
"""

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .errors import InvalidParam, MaxIterations, NoExpansion, SubcriticalSpeed
from .scenario import ExpansionStep, ProtocolSummary, RecursionCoeffs, ScenarioParams

# Band around integer values of the closed-form sweep count inside which
# the count is recomputed by direct iteration; taking a ceiling that close
# to an integer is one rounding error away from an off-by-one.
INTEGER_GUARD = 1e-9

# Most sweeps any schedule is iterated for.
ITERATION_CAP = 10_000_000


def check_speed(Vs: float, Vc: float, protocol: str) -> None:
    if Vs < Vc:
        raise SubcriticalSpeed(f"Vs={Vs} is below the {protocol} critical speed {Vc}")


@dataclass(frozen=True)
class AffineRecursion:
    """One pincer expansion at sweep speed Vs.

    The sweep-time coefficient a is kept as the ratio a_num/a_den: a sweep
    at X takes X*a_num/a_den, which is each protocol's own formula in its
    own order of evaluation, so the schedules are the protocols' to the bit.
    """

    params: ScenarioParams
    Vs: float
    a_num: float
    a_den: float
    b: float      # sensor budget of one sweep before the front's share
    shift: float  # X = R + shift

    @property
    def a(self) -> float:
        return self.a_num / self.a_den

    @property
    def fixed_point(self) -> float:
        # b/(a*VT), in the order that gives the circular ring its
        # n*Vs*r/(2*pi*VT) to the bit
        return self.b * self.a_den / (self.params.VT * self.a_num)

    @property
    def asymptote(self) -> float:
        """The radius the expansion approaches but never attains."""
        return self.fixed_point - self.shift

    def sweep_time(self, X: float) -> float:
        return X * self.a_num / self.a_den

    def _c2(self) -> float:
        VT, Vs = self.params.VT, self.Vs
        c2 = 1.0 - self.a * VT * Vs / (Vs + VT)
        if c2 == 1.0:
            raise InvalidParam(
                "Vs", f"{Vs} is so fast that the per-sweep contraction rounds to 1"
            )
        return c2

    def coeffs(self) -> RecursionCoeffs:
        """c1 and c2 of X_{i+1} = c2*X_i + c1; c3 = a*c1 converts a
        radius excess into the matching sweep-time excess."""
        c1 = self.b * self.Vs / (self.Vs + self.params.VT)
        return RecursionCoeffs(c1=c1, c2=self._c2(), c3=self.a * c1)

    def target(self) -> float:
        """R_max, eps short of the asymptote; NoExpansion unless above R0."""
        R_target = self.asymptote - self.params.eps
        if R_target <= self.params.R0:
            raise NoExpansion(
                f"eps={self.params.eps} leaves no expansion target above R0={self.params.R0}"
            )
        return R_target

    def _sweeps(self, R_target: float) -> Iterator[Tuple[float, float, float, float]]:
        """(X, T_sweep, delta, delta_eff) of each sweep until X reaches the target."""
        a_num, a_den, b, VT, Vs = self.a_num, self.a_den, self.b, self.params.VT, self.Vs
        closing = Vs + VT
        X, X_target = self.params.R0 + self.shift, R_target + self.shift
        for _ in range(ITERATION_CAP):
            T = X * a_num / a_den  # sweep_time(X), without the call
            delta = b - VT * T
            delta_eff = delta * Vs / closing
            yield X, T, delta, delta_eff
            X += delta_eff
            if X >= X_target:
                return
        raise MaxIterations(
            f"no convergence to R_target={R_target} within {ITERATION_CAP} sweeps"
        )

    def _count(self, R_target: float) -> int:
        """Closed-form ceiling of the geometric recursion, except within
        INTEGER_GUARD of an integer, where the recursion is iterated."""
        R0 = self.params.R0
        x = math.log(self.params.eps / (self.asymptote - R0)) / math.log(self._c2())
        if abs(x - round(x)) > INTEGER_GUARD:
            return max(1, math.ceil(x))
        if round(x) > ITERATION_CAP:
            # the count is round(x) or one more; both exceed the cap
            raise MaxIterations(f"about {x:.6g} sweeps, more than {ITERATION_CAP}")
        return sum(1 for _ in self._sweeps(R_target))

    def sweep_count(self) -> int:
        """Sweeps needed to push the boundary to within eps of the asymptote."""
        return self._count(self.target())

    def schedule(self) -> List[ExpansionStep]:
        """Per-sweep log of the expansion, by direct iteration. Fails at
        once when the count says the run would exceed ITERATION_CAP."""
        R_target = self.target()
        N = self._count(R_target)
        if N > ITERATION_CAP:
            raise MaxIterations(f"schedule needs {N} sweeps, more than {ITERATION_CAP}")
        return [
            ExpansionStep(
                index=i,
                R_i=X - self.shift,
                Rtilde_i=X if self.shift else None,
                delta_i=delta,
                delta_eff_i=delta_eff,
                T_sweep_i=T,
                T_out_i=delta_eff / self.Vs,
            )
            for i, (X, T, delta, delta_eff) in enumerate(self._sweeps(R_target))
        ]

    def totals(self) -> ProtocolSummary:
        """Campaign summary from closed forms alone.

        The sweep time is a times the geometric partial sum of X_i; the
        outward time telescopes to (R_max - R0)/Vs.
        """
        R0, Vs = self.params.R0, self.Vs
        R_target = self.target()
        N = self._count(R_target)
        c2 = self._c2()
        X_fix, X0 = self.fixed_point, R0 + self.shift
        R_last = X_fix + c2 ** (N - 1) * (X0 - X_fix) - self.shift
        T_sweep_total = self.a * (N * X_fix + (X0 - X_fix) * (1.0 - c2**N) / (1.0 - c2))
        T_out_total = (R_target - R0) / Vs
        return ProtocolSummary(
            N_n=N,
            R_last=R_last,
            R_max=R_target,
            R_asym=self.asymptote,
            T_out_total=T_out_total,
            T_sweep_total=T_sweep_total,
            T_total=T_sweep_total + T_out_total,
            T_out_last=(R_target - R_last) / Vs,
        )
