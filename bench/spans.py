"""Spans and counts around the public functions of each sweepdefense module.

``Tracer.install`` wraps the functions from outside: it swaps every
reference to a traced function held in a ``sweepdefense`` module's globals
(or in a dict stored there, such as the CLI's dispatch tables) for a
wrapper that records a span, and ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited. Spans are kept in memory as
[name, start, end, parent, op] and written out by ``dump``.

Self time is a span's duration minus the time covered by its child spans.
Counts come from the program's own return values (schedule lengths, table
sizes, simulator reports) and from wrapping the root-finder objective, so
they repeat exactly for one seed.
"""

import dataclasses
import functools
import json
import math
import sys
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List

from sweepdefense import circular_pincer, cli, report, rootfind, same_direction, simulator, spiral_pincer
from sweepdefense.scenario import ProtocolKind

_TWO_PI = 2.0 * math.pi

PROTOCOL_FUNCTIONS = {
    "circular_pincer": (circular_pincer, ("critical_speed", "max_radius", "sweep_count", "expansion_schedule", "totals")),
    "spiral_pincer": (spiral_pincer, ("critical_speed", "max_radius", "sweep_count", "expansion_schedule", "totals")),
    "same_direction": (
        same_direction,
        ("circular_same_critical_speed", "spiral_same_critical_speed", "expansion_schedule_same"),
    ),
}
PROTOCOL_SPANS = tuple(
    f"{mod}.{fn}" for mod, (_, fns) in PROTOCOL_FUNCTIONS.items() for fn in fns
)

# Per-layer metrics: name -> unit. Counts are those of the first traced
# cycle; times are the median over traced cycles of each cycle's total,
# scaled like every time of the workload (see run.Speed).
PER_LAYER = {
    "cycle.ms": "ms",
    "cli.build_parser.ms": "ms",
    "cli.build_config.ms": "ms",
    "cli.command.self_ms": "ms",
    "report.render.ms": "ms",
    "report.render.rows": "count",
    "report.render.bytes": "bytes",
    "report.write.ms": "ms",
    "rootfind.solve.calls": "count",
    "rootfind.solve.us": "us",
    "rootfind.solve.evals": "count",
    **{f"{name}.{suffix}": unit for name in PROTOCOL_SPANS for suffix, unit in (("calls", "count"), ("self_us", "us"))},
    "same_direction.expansion_schedule_same.steps": "count",
    "simulator.run.calls": "count",
    "simulator.run.self_ms": "ms",
    "simulator.plan.ms": "ms",
    "simulator.ticks": "count",
    "simulator.bin_ticks": "count",
    "simulator.bin_ticks_per_s": "1/s",
    "simulator.breaches": "count",
    "trace.overhead_pct": "%",
}
COUNT_METRICS = tuple(k for k, unit in PER_LAYER.items() if unit == "count" or unit == "bytes")


def sweep_durations(params, Vs: float, kind: ProtocolKind, grid, rep) -> List[float]:
    """Durations of the sweep phases simulator.run stepped through.

    Expansion runs play the analytic schedule; defense runs repeat one
    sweep anchored at R0. Same arithmetic as the simulator's own plan, so
    the tick count below is exact.
    """
    if rep.mode == "expansion":
        if kind is ProtocolKind.CIRCULAR_PINCER:
            steps = circular_pincer.expansion_schedule(params, Vs)
        elif kind is ProtocolKind.SPIRAL_PINCER:
            steps = spiral_pincer.expansion_schedule(params, Vs)
        else:
            steps, _ = same_direction.expansion_schedule_same(params, Vs, kind)
        if grid.max_sweeps is not None:
            steps = steps[: grid.max_sweeps]
        return [s.T_sweep_i for s in steps]
    span = _TWO_PI / params.n
    if kind is ProtocolKind.CIRCULAR_SAME_DIRECTION:
        span += params.r / params.R0
    elif kind is ProtocolKind.SPIRAL_SAME_DIRECTION:
        span += same_direction.guard_angle(params, Vs, params.R0)
    if kind in (ProtocolKind.SPIRAL_PINCER, ProtocolKind.SPIRAL_SAME_DIRECTION):
        lateral = math.sqrt(Vs * Vs - params.VT * params.VT)
        lam = math.exp(-span * params.VT / lateral)
        duration = (params.R0 + params.r) * (1.0 - lam) / params.VT
    else:
        duration = span * params.R0 / Vs
    return [duration] * grid.cycles


def phase_ticks(duration: float, dt: float) -> int:
    n_full = int(duration / dt)
    return n_full + (1 if duration - n_full * dt > 1e-12 * dt else 0)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False
        self.finished: List[list] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, body: Callable, name: str, original: Callable, after=None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = body(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                tracer.active = False
                try:
                    after(args, kwargs, result)
                finally:
                    tracer.active = True
            return result

        return wrapper

    def _swap(self, original: Callable, wrapper: Callable) -> None:
        """Point every sweepdefense reference to original at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname != "sweepdefense" and not modname.startswith("sweepdefense."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((vars(mod), key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._restore.append((value, k, original))

    def install(self) -> None:
        def trace(mod, attr, name, after=None, body=None):
            original = getattr(mod, attr)
            self._swap(original, self._wrap(body or original, name, original, after))

        trace(cli, "main", "cli.main")
        trace(cli, "build_parser", "cli.build_parser")
        trace(cli, "build_config", "cli.build_config")
        for attr in sorted(vars(cli)):
            if attr.startswith("cmd_"):
                trace(cli, attr, "cli.command")
        trace(report, "render", "report.render", after=self._count_render)
        trace(report, "write_table", "report.write")
        trace(report, "write_meta", "report.write")
        trace(rootfind, "solve", "rootfind.solve", body=self._counted_solve(rootfind.solve))
        for modname, (mod, fns) in PROTOCOL_FUNCTIONS.items():
            for fn in fns:
                after = self._count_steps if fn == "expansion_schedule_same" else None
                trace(mod, fn, f"{modname}.{fn}", after=after)
        trace(simulator, "run", "simulator.run", after=self._count_sim)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()

    # -------------------------------------------------------------- counts

    def _counted_solve(self, solve: Callable) -> Callable:
        counts = self.counts

        def body(problem):
            objective = problem.objective

            def counted(x):
                counts["rootfind.solve.evals"] += 1
                return objective(x)

            return solve(dataclasses.replace(problem, objective=counted))

        return body

    def _count_render(self, args, kwargs, text) -> None:
        self.counts["report.render.rows"] += len(args[0].rows)
        self.counts["report.render.bytes"] += len(text.encode("utf-8"))

    def _count_steps(self, args, kwargs, result) -> None:
        self.counts["same_direction.expansion_schedule_same.steps"] += len(result[0])

    def _count_sim(self, args, kwargs, rep) -> None:
        params, Vs, kind = args[:3]
        grid = args[3] if len(args) > 3 else kwargs.get("grid", simulator.SimConfig())
        durations = sweep_durations(params, Vs, kind, grid, rep)
        if len(durations) != len(rep.sweeps):
            raise RuntimeError(f"{len(durations)} sweep phases for {len(rep.sweeps)} sweep records")
        ticks = sum(phase_ticks(d, rep.dt) for d in durations)
        self.counts["simulator.ticks"] += ticks
        self.counts["simulator.bin_ticks"] += ticks * rep.bins
        self.counts["simulator.breaches"] += len(rep.breaches)

    # ---------------------------------------------------------- aggregates

    def take(self) -> Dict[str, float]:
        """Per-layer totals of the spans and counts since the last take."""
        spans, counts = self.spans, self.counts
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        plan = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            total[name] += end - start
            self_time[name] += end - start - covered[i]
            calls[name] += 1
            if parent >= 0 and spans[parent][0] == "simulator.run":
                plan += end - start
        run_self = self_time["simulator.run"]
        out = {
            "cycle.ms": 1e3 * total["cli.main"],
            "cli.build_parser.ms": 1e3 * total["cli.build_parser"],
            "cli.build_config.ms": 1e3 * total["cli.build_config"],
            "cli.command.self_ms": 1e3 * self_time["cli.command"],
            "report.render.ms": 1e3 * total["report.render"],
            "report.render.rows": counts["report.render.rows"],
            "report.render.bytes": counts["report.render.bytes"],
            "report.write.ms": 1e3 * self_time["report.write"],
            "rootfind.solve.calls": calls["rootfind.solve"],
            "rootfind.solve.us": 1e6 * total["rootfind.solve"],
            "rootfind.solve.evals": counts["rootfind.solve.evals"],
            "same_direction.expansion_schedule_same.steps": counts[
                "same_direction.expansion_schedule_same.steps"
            ],
            "simulator.run.calls": calls["simulator.run"],
            "simulator.run.self_ms": 1e3 * run_self,
            "simulator.plan.ms": 1e3 * plan,
            "simulator.ticks": counts["simulator.ticks"],
            "simulator.bin_ticks": counts["simulator.bin_ticks"],
            "simulator.breaches": counts["simulator.breaches"],
            "simulator.run.self_s": run_self,
        }
        for name in PROTOCOL_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_us"] = 1e6 * self_time[name]
        self.finished.extend(spans)
        self.spans, self.counts = [], Counter()
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.finished:
                fh.write(json.dumps(rec) + "\n")


def summarize(cycles: List[Dict[str, float]], factor: float, overhead_pct: float) -> Dict[str, float]:
    """Counts of the first cycle, median per-cycle times, whole-run rates.

    factor turns the pass's wall times into reference-speed times.
    """
    first = cycles[0]
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        if name in COUNT_METRICS and name in first:
            out[name] = first[name]
        elif name in first:
            out[name] = median(c[name] for c in cycles) * factor
    run_s = sum(c["simulator.run.self_s"] for c in cycles) * factor
    bin_ticks = sum(c["simulator.bin_ticks"] for c in cycles)
    out["simulator.bin_ticks_per_s"] = bin_ticks / run_s if run_s > 0.0 else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return out
