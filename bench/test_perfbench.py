"""The benchmark's exact counts repeat for one seed and follow the seed.

Each case traces the first few ops of cycle 0 twice with one seed and once
with another. Run with ``python -m pytest bench``.
"""

import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from sweepdefense import cli, report  # noqa: E402


def traced_counts(workload, seed, keep, out_dir):
    ops = workloads.cycle_ops(workload, seed, 0, run.ROOT, out_dir)[:keep]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            tracer.op += 1
            tracer.active = True
            result, _ = run.execute(op, cli)
            tracer.active = False
            failure, _ = op.check(result)
            assert failure is None or failure.known, failure
    finally:
        tracer.uninstall()
    cycle = tracer.take()
    return {name: cycle[name] for name in spans.COUNT_METRICS if name in cycle}


@pytest.mark.parametrize(
    "workload, keep, moved",
    [
        ("analytic-grid", 5, "rootfind.solve.evals"),
        ("sim-defense", 3, "simulator.ticks"),
        ("shipped-tables", 9, None),
    ],
)
def test_counts_repeat_and_follow_the_seed(tmp_path, workload, keep, moved):
    first = traced_counts(workload, 1, keep, tmp_path)
    again = traced_counts(workload, 1, keep, tmp_path)
    assert first == again
    assert any(first.values())
    if moved is not None:
        other = traced_counts(workload, 2, keep, tmp_path)
        assert other != first
        assert other[moved] != first[moved]


def test_uninstall_restores_the_program():
    before = (cli.main, dict(cli._COMMANDS), dict(cli._CRITICAL), report.render)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.uninstall()
    assert (cli.main, dict(cli._COMMANDS), dict(cli._CRITICAL), report.render) == before
