"""Safeguarded scalar root finder.

Newton iteration with a finite-difference derivative, wrapped in a
bisection safeguard: a Newton step is taken only when it stays inside the
current sign-change bracket and at least halves the objective magnitude,
otherwise the step falls back to bisecting the bracket. Steps that only
nibble at the magnitude, as a poor finite-difference derivative gives,
would otherwise repeat without narrowing the bracket. Both critical-speed
equations in this library (spiral pincer and spiral same-direction) are
smooth and monotone near their roots, so Newton does almost all the work
and the safeguard only matters for sloppy brackets.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import MaxIterations, NoBracket, RootNotFound

# Relative step for the central finite-difference derivative. Both target
# objectives compose exp/arcsin terms where hand-derived formulas invite
# transcription mistakes; the safeguard recovers any accuracy lost here.
FD_REL_STEP = 1e-6


@dataclass
class RootProblem:
    """A bracketed scalar root-finding task.

    bracket_lo < guess < bracket_hi is expected; a guess outside the
    bracket is replaced by the bracket midpoint. The objective must change
    sign across the bracket (checked at solve time). tol_x = None defaults
    to 1e-12 times the initial bracket width. The objective must be defined
    on the bracket; past it, it may raise ValueError or ZeroDivisionError,
    and a finite-difference probe that does is moved inside the bracket.
    """

    objective: Callable[[float], float]
    bracket_lo: float
    bracket_hi: float
    guess: float
    tol_f: float = 1e-10
    tol_x: Optional[float] = None
    max_iter: int = 200


def solve(p: RootProblem) -> float:
    """Find a root of p.objective inside [p.bracket_lo, p.bracket_hi].

    Returns
    -------
    float
        x with |objective(x)| <= tol_f, or the current iterate when a step
        shrinks below tol_x. Always inside the initial bracket.

    Raises
    ------
    NoBracket
        The objective has the same sign at both bracket ends.
    MaxIterations
        No convergence within p.max_iter iterations.

    The iteration is deterministic: identical inputs produce bitwise
    identical iterate sequences.
    """
    f = p.objective
    lo, hi = float(p.bracket_lo), float(p.bracket_hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise NoBracket(lo, flo, hi, fhi)

    lo0, hi0 = lo, hi
    tol_x = p.tol_x if p.tol_x is not None else 1e-12 * (hi - lo)

    x = p.guess if lo < p.guess < hi else 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(p.max_iter):
        if abs(fx) <= p.tol_f:
            return x
        # keep the sign change inside [lo, hi]
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx

        h = FD_REL_STEP * max(abs(x), 1.0)
        try:
            df = (f(x + h) - f(x - h)) / (2.0 * h)
        except (ValueError, ZeroDivisionError):
            # a probe left the objective's domain, which may end just past
            # the initial bracket: difference over the part inside it
            below, above = max(x - h, lo0), min(x + h, hi0)
            df = (f(above) - f(below)) / (above - below)

        stepped = False
        if df != 0.0:
            cand = x - fx / df
            if lo < cand < hi:
                fcand = f(cand)
                if abs(fcand) <= 0.5 * abs(fx):
                    if abs(cand - x) <= tol_x:
                        return cand
                    x, fx = cand, fcand
                    stepped = True
        if not stepped:
            if (hi - lo) <= 2.0 * tol_x:
                return 0.5 * (lo + hi)
            x = 0.5 * (lo + hi)
            fx = f(x)
    raise MaxIterations(f"no root after {p.max_iter} iterations; last x = {x}, f = {fx}")


def solve_widening(p: RootProblem, what: str) -> float:
    """Like solve, for an objective positive at p.bracket_lo and negative
    past its root: p.bracket_hi is doubled in place, up to 60 times, while
    it is at or below bracket_lo (no solve is run) or the objective there
    is still positive (solve's NoBracket says so).

    Raises RootNotFound "{what} search failed: ..." for a wrong-signed
    lower end, a solve that does not converge, or no bracket at all.
    """
    try:
        for _ in range(60):
            if p.bracket_hi > p.bracket_lo:
                try:
                    return solve(p)
                except NoBracket as exc:
                    if exc.f_hi <= 0.0:
                        raise
            p.bracket_hi *= 2.0
    except (NoBracket, MaxIterations) as exc:
        raise RootNotFound(f"{what} search failed: {exc}") from exc
    raise RootNotFound(f"{what} search failed: no upper bracket")
