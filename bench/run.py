"""Benchmark of the sweepdefense CLI tables and wavefront simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. Load is a closed loop with one caller: a single
process issues ops (``cli.main`` calls, one table each) one after another,
in-process, after a warm-up. A run measures whole cycles of seeded ops
until the summed op time reaches ``--seconds``, checks every op's output,
and prints a summary followed, on the last line, by one JSON object.

Times are reported at a reference machine speed. Neighbours on a shared
host slow this process by up to half for seconds at a time, which moves
raw wall times far more than the changes the benchmark should see. A
fixed calibration kernel (see ``Speed``) runs between ops for a set share
of the op time, and each op's time is scaled by the kernel's reference
time over the median of the kernel runs just before and just after that
op. The summary prints the raw figures as well.

``--trace 0`` reports the end-to-end metrics, untraced. ``--trace 1``
runs a share of the cycles untraced, then runs cycles again with spans
recorded around each module's public functions (see spans.py) and reports
the per-layer metrics, including the tracing overhead on the cycles both
passes ran. Spans go to ``.bench_out/`` in the checkout.
"""

import argparse
import bisect
import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "rows_per_s": "1/s",
    "op_ms.p50": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_SAMPLES = 7
# A set-up probe: time the import and a first table, then run the
# calibration kernel in the same interpreter (sys.argv[1] is this
# directory). The kernel runs after the timed part, so its own imports are
# not counted, and on the same CPU, which the parent's may not be.
# NUMPY_CODE, run in a fresh interpreter just before each probe, is the
# second reference (see measure_setup).
NUMPY_CODE = """\
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""
# NUMPY_CODE's time in s at the reference speed
NUMPY_REF_S = 0.1
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import contextlib, io
from sweepdefense import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["critical-speeds"])
elapsed = time.perf_counter() - t0
import sys
from statistics import median
sys.path.insert(0, sys.argv[1])
from run import CAL_SETUP, Speed
speed = Speed()
speed.sample(CAL_SETUP)
print(rc, elapsed, median(speed.samples), cli.__file__)
"""

# The calibration kernel's time in ms at the reference speed (its time on
# the 2-vCPU Xeon KVM guest the first baseline was measured on, while the
# host was quiet; under load it took up to 1.8 times as long). The kernel
# runs for CAL_SHARE of the op time, and CAL_SETUP times after each
# set-up probe. An op's factor comes from the CAL_NEAR kernel runs nearest
# to it in op time: half ran just before the op, half just after it.
CAL_REF_MS = 4.0
CAL_SHARE = 0.1
CAL_SETUP = 5
CAL_NEAR = 6

WARMUP_S = 1.0
# share of a traced run spent on the untraced reference cycles
REFERENCE_SHARE = 0.25
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class Speed:
    """Machine speed, from a fixed kernel run between ops.

    The kernel does what the CLI does around the maths, with the standard
    library only: scalar float recursions, argparse trees built and
    parsed, and floats written as CSV. Its times tracked the ops of the
    listed workloads under host contention better than a numpy kernel of
    simulator-like array updates did (see README.md). It is part of the
    benchmark, so no change to the program can move it.

    The median of the kernel runs nearest to an op sets that op's factor,
    so the kernel's own jitter averages out and what is taken out is the
    drift within and between runs: neighbours that slow the host for part
    of a run slow both the ops and the kernel runs around them.
    """

    def __init__(self) -> None:
        self.samples = []  # kernel ms
        self.at = []       # summed op seconds when each kernel run ended
        self._kernel_s = 0.0
        self._op_s = 0.0

    @staticmethod
    def _kernel() -> None:
        acc = 0.0
        for i in range(200):
            for k in range(20):
                acc += math.exp(-k * 1e-3) * math.sqrt(i + k)
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="cmd")
        for c in range(6):
            p = sub.add_parser(f"c{c}")
            for a in range(20):
                p.add_argument(f"--opt{a}", help="an option")
        parser.parse_args(["c3", "--opt4", "1.5", "--opt7", "2"])
        writer = csv.writer(io.StringIO(), lineterminator="\n")
        for i in range(200):
            writer.writerow(["%.9g" % (i * 1.000001 * k + acc) for k in range(10)])

    def _run(self) -> float:
        t0 = perf_counter()
        self._kernel()
        elapsed = perf_counter() - t0
        self.samples.append(1e3 * elapsed)
        self.at.append(self._op_s)
        return elapsed

    def sample(self, times: int) -> None:
        for _ in range(times):
            self._run()

    def after_op(self, elapsed: float) -> None:
        """Run the kernel until it has had its share of the op time."""
        self._op_s += elapsed
        while self._kernel_s < CAL_SHARE * self._op_s:
            self._kernel_s += self._run()

    @property
    def factor(self) -> float:
        """Reference-speed time over wall time, for the whole pass."""
        return CAL_REF_MS / median(self.samples)

    def factors(self, seconds) -> list:
        """Reference-speed time over wall time for each op, given each op's
        wall seconds in the order the ops ran."""
        out, start, k = [], 0.0, min(CAL_NEAR, len(self.samples))
        for s in seconds:
            mid = start + 0.5 * s
            start += s
            lo = min(max(bisect.bisect(self.at, mid) - k // 2, 0), len(self.samples) - k)
            out.append(CAL_REF_MS / median(self.samples[lo:lo + k]))
        return out


def measure_setup():
    """Median time, in fresh interpreters, to import the CLI and run one
    table: (at reference speed, raw wall).

    Most of set-up is loading numpy's extension modules; the rest is
    Python code. The host does not slow the two alike: set-up once rose by
    half while the kernel slowed by 6%, and a bare numpy import once moved
    twice as far as set-up did. So each probe is scaled by the geometric
    mean of two factors, from the kernel in the probe's own interpreter
    and from a bare numpy import just before it. Neither reference runs
    the program, so a change that makes set-up cheaper still shows.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def probe(*argv):
        proc = subprocess.run([sys.executable, "-c", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return proc.stdout.split()

    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        (numpy_s,) = probe(NUMPY_CODE)
        rc, elapsed, kernel_ms, where = probe(SETUP_CODE, str(Path(__file__).resolve().parent))
        if rc != "0" or not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe failed: {rc} {elapsed} {where}")
        factor = math.sqrt(NUMPY_REF_S / float(numpy_s) * CAL_REF_MS / float(kernel_ms))
        raw.append(float(elapsed))
        scaled.append(float(elapsed) * factor)
    return median(scaled), median(raw)


def execute(op, cli):
    """Run one op in-process; returns (Result, seconds)."""
    from workloads import Result

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a traceback out of cli.main is a failed op
            rc, error = None, exc
        elapsed = perf_counter() - t0
    return Result(rc, out.getvalue(), err.getvalue(), error), elapsed


class Pass:
    """The ops of one pass over whole cycles, with their checked outcomes."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.speed = Speed()
        self.ms = []         # wall ms per op, +inf for a failed op
        self.op_seconds = []  # wall seconds per op, failed or not
        self.seconds = 0.0   # summed wall op time
        self.rows = 0        # ok rows of ops that passed their check
        self.failures = []   # (label, Failure)
        self.cycles = 0
        self.cycle_seconds = []

    def run(self, seed, seconds, out_dir, cli, tracer=None, min_cycles=1, on_cycle=None):
        from workloads import cycle_ops

        # stop at the cycle boundary nearest to the time asked for
        while self.cycles < max(min_cycles, 1) or self.seconds * (1.0 + 0.5 / self.cycles) < seconds:
            ops = cycle_ops(self.workload, seed, self.cycles, ROOT, out_dir)
            spent = 0.0
            for op in ops:
                if tracer is not None:
                    tracer.op += 1
                    tracer.active = True
                result, elapsed = execute(op, cli)
                if tracer is not None:
                    tracer.active = False
                spent += elapsed
                self.op_seconds.append(elapsed)
                self.speed.after_op(elapsed)
                failure, rows = op.check(result)
                if failure is None:
                    self.rows += rows
                    self.ms.append(1e3 * elapsed)
                else:
                    self.failures.append((op.label, failure))
                    self.ms.append(math.inf)
            self.seconds += spent
            self.cycle_seconds.append(spent)
            self.cycles += 1
            if on_cycle is not None:
                on_cycle()
        return self

    @property
    def attempted(self) -> int:
        return len(self.ms)

    @property
    def correct(self) -> bool:
        return all(f.known is not None for _, f in self.failures)


def tail(ms):
    """Highest listed percentile with at least ten ops beyond it."""
    ordered = sorted(ms)
    for p in TAIL_PERCENTILES:
        beyond = len(ordered) * (100.0 - p) / 100.0
        if beyond >= 10.0:
            return p, ordered[math.ceil(p / 100.0 * len(ordered)) - 1]
    return None


def warm_up(workload, seed, out_dir, cli):
    from workloads import cycle_ops

    spent = 0.0
    for op in cycle_ops(workload, seed, -1, ROOT, out_dir):
        spent += execute(op, cli)[1]
        if spent >= WARMUP_S:
            break


def report_failures(p: Pass) -> None:
    by_kind = {}
    for label, failure in p.failures:
        key = failure.known or f"UNKNOWN: {label}: {failure.reason}"
        by_kind[key] = by_kind.get(key, 0) + 1
    for key, count in sorted(by_kind.items()):
        print(f"  failed  {count:6d}  {key}")


def end_to_end(args, out_dir, cli):
    setup_s, setup_raw = measure_setup()
    warm_up(args.workload, args.seed, out_dir, cli)
    p = Pass(args.workload).run(args.seed, args.seconds, out_dir, cli)
    fs = p.speed.factors(p.op_seconds)
    scaled_ms = [ms * f for ms, f in zip(p.ms, fs)]
    scaled_s = sum(s * f for s, f in zip(p.op_seconds, fs))
    metrics = {
        "rows_per_s": p.rows / scaled_s,
        "op_ms.p50": median(scaled_ms),
        "ok_ratio": 1.0 - len(p.failures) / p.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    print(f"workload {args.workload} seed {args.seed}: {p.attempted} ops in {p.cycles} cycles, "
          f"{p.seconds:.3f} s measured; reference-speed factor {scaled_s / p.seconds:.4f} "
          f"(ops {min(fs):.4f}-{max(fs):.4f}) from {len(p.speed.samples)} kernel runs")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {metrics[name]:.6g} {unit}")
    print(f"  raw wall:    rows_per_s {p.rows / p.seconds:.6g} 1/s, op_ms.p50 {median(p.ms):.6g} ms, "
          f"setup_s {setup_raw:.6g} s")
    t = tail(scaled_ms)
    if t is None:
        print(f"  op_ms.tail   n/a ({p.attempted} ops; a tail needs at least ten ops beyond it)")
    else:
        print(f"  op_ms.tail   p{t[0]:g} = {t[1]:.6g} ms ({p.attempted} ops)")
    print(f"  fail_ratio   {len(p.failures) / p.attempted:.6g} ({len(p.failures)} of {p.attempted})")
    report_failures(p)
    return p, metrics, END_TO_END


def per_layer(args, out_dir, cli):
    import spans

    warm_up(args.workload, args.seed, out_dir, cli)
    reference = Pass(args.workload).run(args.seed, REFERENCE_SHARE * args.seconds, out_dir, cli)
    tracer = spans.Tracer()
    cycles = []
    tracer.install()
    try:
        traced = Pass(args.workload).run(
            args.seed, args.seconds, out_dir, cli, tracer=tracer,
            min_cycles=reference.cycles, on_cycle=lambda: cycles.append(tracer.take()),
        )
    finally:
        tracer.uninstall()
    base = sum(reference.cycle_seconds) * reference.speed.factor
    overhead = 100.0 * (sum(traced.cycle_seconds[: reference.cycles]) * traced.speed.factor - base) / base
    metrics = spans.summarize(cycles, traced.speed.factor, overhead)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(f"workload {args.workload} seed {args.seed} traced: {traced.attempted} ops in "
          f"{traced.cycles} cycles; overhead {overhead:.3g}% over {reference.cycles} cycles")
    for name, unit in spans.PER_LAYER.items():
        print(f"  {name:<52} {metrics[name]:.6g} {unit}")
    report_failures(traced)
    return traced, metrics, spans.PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sweepdefense" / "cli.py").is_file():
        print(f"error: no sweepdefense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sweepdefense import cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sweepdefense from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        p, metrics, units = measure(args, out_dir, cli)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "correct": p.correct,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
