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
iteration, and the tests hold the two routes against each other. eps
moves only where the iteration stops, so inside a `memo.command` one
listing per recursion serves every eps a table plans: it runs to the
farthest target, and each eps takes its first steps, up to its own.
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice, repeat
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from . import memo
from .errors import InvalidParam, MaxIterations, NoExpansion, SubcriticalSpeed
from .scenario import ExpansionStep, ProtocolSummary, RecursionCoeffs, ScenarioParams

# Band around integer values of the closed-form sweep count inside which
# the count is recomputed by direct iteration; taking a ceiling that close
# to an integer is one rounding error away from an off-by-one.
INTEGER_GUARD = 1e-9

# Ulps of the fixed point within which the last sweeps' advance (1-c2)*eps
# has the count iterated too: that close, each step's rounding is as large
# as the step, so the recursion can end sweeps away from the closed form or
# stall short of its target.
FLOOR_GUARD = 1024.0

# Most sweeps any schedule is iterated for.
ITERATION_CAP = 10_000_000


def check_speed(Vs: float, Vc: float, protocol: str) -> None:
    if Vs < Vc:
        raise SubcriticalSpeed(f"Vs={Vs} is below the {protocol} critical speed {Vc}")


def expansion_target(params: ScenarioParams, R_asym: float) -> float:
    """R_max, eps short of the asymptote R_asym; NoExpansion unless above R0."""
    R_target = R_asym - params.eps
    if R_target <= params.R0:
        raise NoExpansion(f"eps={params.eps} leaves no expansion target above R0={params.R0}")
    return R_target


def step_list(cells: Iterable[Tuple]) -> List[ExpansionStep]:
    """One ExpansionStep per tuple of cells, without _make's length check
    per step: every producer yields all seven fields."""
    return list(map(tuple.__new__, repeat(ExpansionStep), cells))


def prefix(steps: List[ExpansionStep], count: int) -> List[ExpansionStep]:
    """The first count steps of a listing: the list itself, uncopied,
    when it holds no more."""
    return steps if count >= len(steps) else steps[:count]


def check_finite(radius: float, Vs: float) -> float:
    """radius, unless it overflowed: a row cannot hold it, and every
    count or time measured from it is nonsense."""
    if not math.isfinite(radius):
        raise InvalidParam("Vs", f"{Vs} puts the asymptote beyond the float range")
    return radius


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
        return check_finite(self.b * self.a_den / (self.params.VT * self.a_num), self.Vs)

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
        return expansion_target(self.params, self.asymptote)

    def _steps(self, R_targets: Sequence[float], ends: list) -> Iterator[Tuple]:
        """The cells of each sweep's ExpansionStep, in field order, until X
        reaches the last of the rising targets. ends gets one entry per
        target: the count of sweeps that reaches it, or the MaxIterations
        of a run that stops short of it. A sweep that leaves X unchanged
        short of a target stops the run at once, as every later sweep would
        repeat it; the sweep cap stops it too."""
        a_num, a_den, b, shift = self.a_num, self.a_den, self.b, self.shift
        VT, Vs = self.params.VT, self.Vs
        closing = Vs + VT
        X = self.params.R0 + shift
        X_targets = [R_target + shift for R_target in R_targets]
        X_target = X_targets[0]
        for i in range(ITERATION_CAP):
            T = X * a_num / a_den  # sweep_time(X), without the call
            delta = b - VT * T
            delta_eff = delta * Vs / closing
            yield i, X - shift, X if shift else None, delta, delta_eff, T, delta_eff / Vs
            X_next = X + delta_eff
            if X_next >= X_target:
                reached = sum(t <= X_next for t in X_targets)
                ends += [i + 1] * (reached - len(ends))
                if reached == len(X_targets):
                    return
                X_target = X_targets[reached]
            if X_next == X:
                ends += [
                    MaxIterations(f"the radius stalls at R={X - shift} short of R_target={R}")
                    for R in R_targets[len(ends):]
                ]
                return
            X = X_next
        ends += [
            MaxIterations(f"no convergence to R_target={R} within {ITERATION_CAP} sweeps")
            for R in R_targets[len(ends):]
        ]

    def closed_count(self) -> float:
        """The real sweep count of the closed form; the count is its ceiling."""
        c2 = self._c2()  # before the logs: refuses a contraction that rounds to 1
        return math.log(self.params.eps / (self.asymptote - self.params.R0)) / math.log(c2)

    def _count(self, R_target: float) -> int:
        """Closed-form ceiling of the geometric recursion, except where
        rounding can move the count: within INTEGER_GUARD of an integer, or
        up to ITERATION_CAP sweeps whose last advance is within FLOOR_GUARD
        ulps of the fixed point. There the recursion is iterated."""
        x = self.closed_count()
        N = max(1, math.ceil(x))
        if abs(x - round(x)) <= INTEGER_GUARD:
            if round(x) > ITERATION_CAP:
                # the count is round(x) or one more; both exceed the cap
                raise MaxIterations(f"about {x:.6g} sweeps, more than {ITERATION_CAP}")
        elif N > ITERATION_CAP or (
            (1.0 - self._c2()) * self.params.eps > FLOOR_GUARD * math.ulp(self.fixed_point)
        ):
            return N
        ends: list = []
        deque(self._steps((R_target,), ends), maxlen=0)
        if isinstance(ends[0], MaxIterations):
            raise ends[0]
        return ends[0]

    def sweep_count(self) -> int:
        """Sweeps needed to push the boundary to within eps of the asymptote."""
        return self._count(self.target())

    def schedule(self) -> List[ExpansionStep]:
        """Per-sweep log of the expansion, by direct iteration. Fails at
        once when the count says the run would exceed ITERATION_CAP.

        Inside a memo.command, the eps values the command plans share one
        listing to the farthest target, and each eps takes the steps up to
        its own: the very steps, and failures, that its own run gives.
        """
        self.target()  # NoExpansion here, as _schedules leaves such an eps out
        params = self.params
        # the listing is a function of the recursion and R0 alone
        key = ("affine.schedule", params.R0, params.VT, self.Vs, self.a_num, self.a_den, self.b,
               self.shift)
        return memo.per_gap(key, params.eps, self._schedules)

    def _schedules(self, gaps) -> Dict[float, Union[List[ExpansionStep], MaxIterations]]:
        """The schedule for each eps in gaps, or the MaxIterations its run
        raises, from one listing; an eps whose target is not above R0 is
        left out."""
        out: Dict[float, Union[List[ExpansionStep], MaxIterations]] = {}
        targets: Dict[float, float] = {}
        for eps in gaps:
            run = replace(self, params=replace(self.params, eps=eps))
            try:
                R_target = run.target()
            except NoExpansion:
                continue
            try:
                N = run._count(R_target)
                if N > ITERATION_CAP:
                    raise MaxIterations(f"schedule needs {N} sweeps, more than {ITERATION_CAP}")
            except MaxIterations as exc:
                out[eps] = exc
                continue
            targets[eps] = R_target
        if targets:
            rising = sorted(set(targets.values()))
            ends: list = []
            steps = step_list(self._steps(rising, ends))
            for eps, R_target in targets.items():
                end = ends[rising.index(R_target)]
                out[eps] = end if isinstance(end, MaxIterations) else prefix(steps, end)
        return out

    def first_steps(self, sweeps: int) -> List[ExpansionStep]:
        """The schedule's first sweeps steps, or all of a shorter one,
        listed without the rest: a failure past them is not met."""
        ends: list = []
        steps = step_list(islice(self._steps((self.target(),), ends), sweeps))
        if ends and isinstance(ends[0], MaxIterations):
            raise ends[0]
        return steps

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
