"""What one table computes once instead of at every grid point.

A table evaluates the same maths at many grid points. A critical speed
depends on (R0, r, VT, n) only, an asymptote on those and Vs, and eps
moves only where an expansion stops along one shared sequence of
sweeps. Inside ``command()`` these are computed once:

- ``per_scene`` functions answer each (R0, r, VT, n, *args) once;
- ``per_gap`` runs one pass for all the stop gaps a table plans for one
  expansion and hands each gap its own result when that gap is asked for:
  every kind's schedule and the same-direction totals and sweep counts
  share one run of `affine.run`, cut at each gap's own target by
  `affine.per_eps`.

Outside ``command()`` nothing is kept and every function computes afresh,
a pure function of its arguments. The scope is a context variable, so a
command run inside another keeps its own memo, and the memo ends with
the command.
"""

import functools
from contextvars import ContextVar
from typing import Callable, Dict, Iterable, Optional, Tuple

from .scenario import ScenarioParams


class _Scope:
    __slots__ = ("values", "gaps")

    def __init__(self, gaps: Tuple[float, ...]) -> None:
        self.values: Dict[tuple, object] = {}
        self.gaps = gaps


_SCOPE: ContextVar[Optional[_Scope]] = ContextVar("sweepdefense.memo", default=None)


class command:
    """``with command(gaps):`` memoizes inside the block. gaps are the eps
    values the command will ask expansions to stop at; empty when it
    cannot know them."""

    def __init__(self, gaps: Iterable[float] = ()) -> None:
        self._scope = _Scope(tuple(gaps))

    def __enter__(self) -> None:
        self._token = _SCOPE.set(self._scope)

    def __exit__(self, *exc) -> None:
        _SCOPE.reset(self._token)


def per_scene(fn: Callable) -> Callable:
    """fn(params, *args), computed once per (R0, r, VT, n, *args) inside a
    command. fn must not read params.eps. A call that raises is not kept,
    so an error is raised again by the next call."""

    @functools.wraps(fn)
    def memoized(params: ScenarioParams, *args):
        scope = _SCOPE.get()
        if scope is None:
            return fn(params, *args)
        key = (fn, params.R0, params.r, params.VT, params.n, *args)
        values = scope.values
        if key in values:
            return values[key]
        value = values[key] = fn(params, *args)
        return value

    return memoized


def per_gap(key: tuple, eps: float, compute: Callable[..., Dict[float, object]], *args):
    """compute({eps}, *args)[eps], where compute(gaps, *args) gives one
    result per gap; a result that is an exception is raised instead, so a
    failure found for one gap is raised only when that gap is asked for.

    Inside a command, the first ask for key computes every planned gap
    with it at once; each other gap's result is kept until that gap is
    asked for, and then dropped. compute may leave out a gap that is never
    asked for.
    """
    scope = _SCOPE.get()
    if scope is None:
        value = compute({eps}, *args)[eps]
    else:
        values = scope.values
        results = values.get(key)
        if results is None or eps not in results:
            results = values[key] = compute({eps, *scope.gaps}, *args)
        value = results.pop(eps)
        if not results:
            del values[key]
    if isinstance(value, Exception):
        raise value
    return value
