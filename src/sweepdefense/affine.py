"""The one expansion loop of all four protocols, and the affine recursion
behind both pincers.

Every protocol grows the protected radius R by one rule, written over a
bookkeeping radius X = R + shift. A sweep at X takes T(X), leaves the raw
budget b - VT*T(X) of the sensor, and the outward race against the front
keeps the share Vs/(Vs+VT) of it. `run` iterates that rule for every
kind, `steps` turns a run into ExpansionSteps, and `per_eps` cuts one run
to the farthest target into each eps's steps, sums or failure: eps moves
only where the iteration stops, so inside a `memo.command` one run serves
every eps a table plans.

For both pincers T = a*X, so X_{i+1} = c2*X_i + c1. The circular pincer
runs it on the ring radius (a = 2*pi/(n*Vs), b = r, shift = 0), the
spiral pincer on the sensor-centre radius (a = (1-lam)/VT, b = 2r,
shift = r). The fixed point X* = b/(a*VT) gives the asymptote; the sweep
count, the last radius and the campaign times follow in closed form, and
the tests hold them against the loop.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat
from operator import truediv
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import memo
from .errors import InvalidParam, MaxIterations, NoExpansion, SubcriticalSpeed
from .scenario import ExpansionStep, ProtocolSummary, ScenarioParams

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


def check_finite(radius: float, Vs: float) -> float:
    """radius, unless it overflowed: a row cannot hold it, and every
    count or time measured from it is nonsense."""
    if not math.isfinite(radius):
        raise InvalidParam("Vs", f"{Vs} puts the asymptote beyond the float range")
    return radius


class Sweeps(NamedTuple):
    """One expansion's sweeps, as `run` iterates them. A sweep at X takes
    (X*a_num/a_den + overlap)/speed: (2*pi*X/n + r)/Vs for circular-same,
    and X*a_num/a_den for a pincer, whose overlap 0.0 and speed 1.0 change
    no bit. With guard = (r, 2*pi/n, lateral_speed(Vs, VT)) it takes
    spiral-same's (X + r)*(1 - lam(X))/VT instead, lam following the guard
    angle at X. So the loop tests the kind once per sweep."""

    R0: float
    shift: float  # X = R + shift
    b: float      # sensor budget of one sweep before the front's share
    VT: float
    Vs: float
    a_num: float = 0.0
    a_den: float = 1.0
    overlap: float = 0.0
    speed: float = 1.0
    guard: Optional[Tuple[float, float, float]] = None


def run(sweeps: Sweeps, R_targets: Sequence[float], limit: int, keep: bool = True):
    """The sweeps from R0 until the radius reaches the last of the rising
    R_targets, limit sweeps at most: (T_list, eff_list, ends, stall).

    T_list and eff_list hold each sweep's time and effective budget unless
    keep is false; ends holds, per target reached, the count of sweeps
    that reaches it and its last sweep's start radius. stall is the radius
    a sweep left unchanged short of a target, where every later sweep
    would repeat it, or None: then an unreached target met the limit.
    """
    R0, shift, b, VT, Vs, a_num, a_den, overlap, speed, guard = sweeps
    closing = Vs + VT
    spiral = guard is not None
    if spiral:
        r, sector, lateral = guard
        two_r_Vs = b * Vs
        asin, exp = math.asin, math.exp
    # a deque of length 0 drops what it is given: a count keeps O(1) memory
    T_list, eff_list = ([], []) if keep else (deque(maxlen=0),) * 2
    keep_T, keep_eff = T_list.append, eff_list.append
    ends: List[Tuple[int, float]] = []
    X_targets = [R_target + shift for R_target in R_targets]
    X_target = X_targets[0]
    X = R0 + shift
    for i in range(limit):
        if spiral:
            # the guard angle, hence lam, follows the sweep-start radius
            span = sector + asin(two_r_Vs / (closing * (X + b)))
            T = (X + r) * (1.0 - exp(-span * VT / lateral)) / VT
        else:
            T = (X * a_num / a_den + overlap) / speed
        delta_eff = (b - VT * T) * Vs / closing
        keep_T(T)
        keep_eff(delta_eff)
        X_next = X + delta_eff
        if X_next >= X_target:
            reached = sum(t <= X_next for t in X_targets)
            ends += [(i + 1, X - shift)] * (reached - len(ends))
            if reached == len(X_targets):
                break
            X_target = X_targets[reached]
        elif X_next == X:
            return T_list, eff_list, ends, X - shift
        X = X_next
    return T_list, eff_list, ends, None


def steps(sweeps: Sweeps, T_list, eff_list, N: int) -> List[ExpansionStep]:
    """The first N steps of a run, with what it did not keep rebuilt by its
    own float operations: X_{i+1} = X_i + delta_eff_i, delta_i = b - VT*T_i."""
    R0, shift, b, VT, Vs = sweeps[:5]
    X_list = list(accumulate(islice(eff_list, max(N - 1, 0)), initial=R0 + shift))
    if shift:
        R_list, Rtilde = [X - shift for X in X_list], X_list
    elif sweeps.guard:
        r = sweeps.guard[0]
        R_list, Rtilde = X_list, [R + r for R in X_list]
    else:
        R_list, Rtilde = X_list, repeat(None)
    delta_list = [b - VT * T for T in islice(T_list, N)]
    T_out = map(truediv, eff_list, repeat(Vs))
    # each step's cells in field order, one iterable per column; every
    # step gets all seven, so none needs _make's length check
    cells = zip(count(), R_list, Rtilde, delta_list, eff_list, T_list, T_out)
    return list(map(tuple.__new__, repeat(ExpansionStep), cells))


def _sums(
    Vs: float, R_asym: float, R_target: float, N: int, R_last: float, T_list, eff_list
) -> ProtocolSummary:
    """The summary of the first N sweeps; the sums run over the first N
    entries alone, in the order a run of N sweeps adds them."""
    T_out_last = (R_target - R_last) / Vs
    T_sweep_total = sum(islice(T_list, N))
    T_out_total = sum(map(truediv, islice(eff_list, N - 1), repeat(Vs))) + T_out_last
    return ProtocolSummary(
        N_n=N,
        R_last=R_last,
        R_max=R_target,
        R_asym=R_asym,
        T_out_total=T_out_total,
        T_sweep_total=T_sweep_total,
        T_total=T_sweep_total + T_out_total,
        T_out_last=T_out_last,
    )


def per_eps(gaps, expansion, listed: bool, summed: bool) -> Dict[float, object]:
    """Each eps in gaps's cut of one run to the farthest target: its steps
    when listed, its summed summary when summed, both as a pair, or the
    MaxIterations its own run gives. An eps whose target is not above R0
    is left out. expansion is an AffineRecursion or a same-direction
    expansion, with the same sweeps, cap, check and shortfall."""
    R0, R_asym = expansion.params.R0, expansion.asymptote
    out: Dict[float, object] = {}
    targets: Dict[float, float] = {}
    for eps in gaps:
        R_target = R_asym - eps
        if R_target <= R0:
            continue
        try:
            expansion.check(eps, R_target)
        except MaxIterations as exc:
            out[eps] = exc
            continue
        targets[eps] = R_target
    if targets:
        rising = sorted(set(targets.values()))
        sweeps = expansion.sweeps
        T_list, eff_list, ends, stall = run(sweeps, rising, expansion.cap)
        if listed and ends:
            listing = steps(sweeps, T_list, eff_list, ends[-1][0])
        for eps, R_target in targets.items():
            k = rising.index(R_target)
            if k >= len(ends):
                out[eps] = expansion.shortfall(stall, R_target)
                continue
            N, R_last = ends[k]
            cut = (listing if N == len(listing) else listing[:N]) if listed else None
            if not summed:
                out[eps] = cut
                continue
            summary = _sums(sweeps.Vs, R_asym, R_target, N, R_last, T_list, eff_list)
            out[eps] = (cut, summary) if listed else summary
    return out


def first_steps(expansion, limit: int) -> List[ExpansionStep]:
    """The first limit steps of the expansion's schedule, or all of a
    shorter one, from a run stopped there; a stall before them, or the
    cap, fails as the schedule does."""
    R_target, cap, sweeps = expansion.target(), expansion.cap, expansion.sweeps
    T_list, eff_list, ends, stall = run(sweeps, (R_target,), min(limit, cap))
    if stall is not None or (limit > cap and not ends):
        raise expansion.shortfall(stall, R_target)
    return steps(sweeps, T_list, eff_list, len(T_list))


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

    @property
    def sweeps(self) -> Sweeps:
        params = self.params
        return Sweeps(params.R0, self.shift, self.b, params.VT, self.Vs, self.a_num, self.a_den)

    @property
    def cap(self) -> int:
        return ITERATION_CAP

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

    def target(self) -> float:
        return expansion_target(self.params, self.asymptote)

    def shortfall(self, stall: Optional[float], R_target: float) -> MaxIterations:
        """The failure of a run that stalled, or met the cap, short of R_target."""
        if stall is not None:
            return MaxIterations(f"the radius stalls at R={stall} short of R_target={R_target}")
        return MaxIterations(f"no convergence to R_target={R_target} within {ITERATION_CAP} sweeps")

    def closed_count(self, eps: float) -> float:
        """The real sweep count of the closed form to eps; the count is its ceiling."""
        c2 = self._c2()  # before the logs: refuses a contraction that rounds to 1
        return math.log(eps / (self.asymptote - self.params.R0)) / math.log(c2)

    def _count(self, R_target: float, eps: float) -> int:
        """Closed-form ceiling of the geometric recursion, except where
        rounding can move the count: within INTEGER_GUARD of an integer, or
        up to ITERATION_CAP sweeps whose last advance is within FLOOR_GUARD
        ulps of the fixed point. There the recursion is iterated, keeping
        no sweep."""
        x = self.closed_count(eps)
        N = max(1, math.ceil(x))
        if abs(x - round(x)) <= INTEGER_GUARD:
            if round(x) > ITERATION_CAP:
                # the count is round(x) or one more; both exceed the cap
                raise MaxIterations(f"about {x:.6g} sweeps, more than {ITERATION_CAP}")
        elif N > ITERATION_CAP or (
            (1.0 - self._c2()) * eps > FLOOR_GUARD * math.ulp(self.fixed_point)
        ):
            return N
        _, _, ends, stall = run(self.sweeps, (R_target,), ITERATION_CAP, keep=False)
        if not ends:
            raise self.shortfall(stall, R_target)
        return ends[0][0]

    def check(self, eps: float, R_target: float) -> None:
        """MaxIterations when the count of the run to R_target at eps is past the cap."""
        N = self._count(R_target, eps)
        if N > ITERATION_CAP:
            raise MaxIterations(f"schedule needs {N} sweeps, more than {ITERATION_CAP}")

    def sweep_count(self) -> int:
        """Sweeps needed to push the boundary to within eps of the asymptote."""
        return self._count(self.target(), self.params.eps)

    def schedule(self) -> List[ExpansionStep]:
        """Per-sweep log of the expansion, by direct iteration. Fails at
        once when the count says the run would exceed ITERATION_CAP.

        Inside a memo.command, the eps values the command plans share one
        run to the farthest target, and each eps takes the steps up to its
        own: the very steps, and failures, that its own run gives.
        """
        self.target()  # NoExpansion here, as per_eps leaves such an eps out
        params = self.params
        # the run is a function of the recursion and R0 alone
        key = ("affine.schedule", params.R0, params.VT, self.Vs, self.a_num, self.a_den, self.b,
               self.shift)
        return memo.per_gap(key, params.eps, per_eps, self, True, False)

    def totals(self) -> ProtocolSummary:
        """Campaign summary from closed forms alone.

        The sweep time is a times the geometric partial sum of X_i; the
        outward time telescopes to (R_max - R0)/Vs.
        """
        R0, Vs = self.params.R0, self.Vs
        R_target = self.target()
        N = self._count(R_target, self.params.eps)
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
