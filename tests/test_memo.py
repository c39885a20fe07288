"""What one command computes once: same bytes, less work, bounded memory.

`cli.main` runs each command inside `memo.command`, where critical
speeds and asymptotes are solved once per scenario and the eps values of
one same-direction expansion share one run of sweeps. The reference for
every table here is the same command with the scope replaced by a no-op:
per-point library calls, each computing afresh.
"""

import contextlib
import io
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepdefense import cli, memo, protocols, rootfind, same_direction, spiral_pincer
from sweepdefense.scenario import ProtocolKind, ScenarioParams

PROTOCOLS = tuple(k.value for k in ProtocolKind)
COMMANDS = ("critical-speeds", "max-radius", "sweep-count", "totals", "schedule")


def run(argv):
    """(exit code, stdout, stderr, the protocols.totals calls and outcomes)."""
    calls = []
    totals = protocols.totals

    def recorded(params, Vs, kind):
        try:
            summary = totals(params, Vs, kind)
        except Exception as exc:
            calls.append((kind, params.n, params.eps, Vs, type(exc).__name__))
            raise
        calls.append((kind, params.n, params.eps, Vs, summary))
        return summary

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(protocols, "totals", recorded), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue(), calls


def run_unscoped(argv):
    with mock.patch.object(memo, "command", lambda gaps=(): contextlib.nullcontext()):
        return run(argv)


def floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def commands(draw):
    cmd = draw(st.sampled_from(COMMANDS))
    R0 = draw(floats(20.0, 400.0))
    r = R0 * draw(floats(0.06, 0.5))
    VT = draw(floats(0.5, 2.0))
    argv = [cmd, "--R0", repr(R0), "--r", repr(r), "--VT", repr(VT)]
    teams = (2, 4, 8) if cmd == "schedule" else (2, 4, 8, 16, 32)
    argv += ["--n", ",".join(map(str, draw(st.lists(st.sampled_from(teams), min_size=1, max_size=2))))]
    # stop gaps from well inside the headroom to past it (NoExpansion),
    # repeated, in rising, falling or drawn order
    eps = draw(st.lists(st.sampled_from([1e-7, 1e-4, 0.01, 0.3, 3.0, 1e3]).map(lambda c: c * r / 10.0),
                        min_size=1, max_size=4))
    order = draw(st.sampled_from(["drawn", "rising", "falling"]))
    if order != "drawn":
        eps.sort(reverse=order == "falling")
    argv += ["--eps", ",".join(map(repr, eps))]
    argv += ["--protocol", ",".join(draw(st.lists(st.sampled_from(PROTOCOLS), min_size=1, max_size=4)))]
    mode = draw(st.sampled_from(["absolute", "delta-own", "delta-reference"]))
    argv += ["--speed-mode", mode]
    if mode == "absolute":
        speeds = draw(st.lists(floats(1.0, 60.0).map(lambda v: v * VT), min_size=1, max_size=3))
        argv += ["--Vs", ",".join(map(repr, speeds + speeds[:draw(st.integers(0, 1))]))]
    else:
        # a negative offset gives SubcriticalSpeed rows
        offsets = draw(st.lists(floats(-0.5, 20.0).map(lambda d: d * VT), min_size=1, max_size=3))
        argv += ["--dV", ",".join(map(repr, offsets + offsets[:draw(st.integers(0, 1))]))]
        if mode == "delta-reference":
            argv += ["--ref-protocol", draw(st.sampled_from(PROTOCOLS)), "--ref-n", "4"]
    if cmd == "totals" and draw(st.booleans()):
        argv += ["--target-radius", repr(R0 * draw(floats(1.0, 3.0)))]
    return argv


class TestSameBytes:
    @given(commands(), st.sampled_from(["csv", "json"]))
    @settings(max_examples=60, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
    def test_a_command_matches_its_per_point_calls(self, argv, fmt):
        argv = argv + ["--format", fmt]
        assert run(argv) == run_unscoped(argv)

    @pytest.mark.parametrize("order", ["falling", "rising"])
    @pytest.mark.parametrize("protocol", ["circular-same", "spiral-same"])
    def test_a_run_past_the_sweep_cap_fails_at_its_own_grid_point(self, monkeypatch, order, protocol):
        kind = ProtocolKind(protocol)
        near, far = 1.0, 1e-6
        Vc = protocols.CRITICAL[kind](ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=4, eps=near))

        def count(eps, dV):
            params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=4, eps=eps)
            return same_direction.totals_same(params, Vc + dV, kind).N_n

        cap = max(count(near, 3.0), count(near, 3.5))
        assert cap < count(far, 3.0)
        # the near targets fit under the cap, the far ones do not
        monkeypatch.setattr(same_direction, "_ITERATION_CAP", cap)
        gaps = [near, far] if order == "falling" else [far, near]
        argv = ["totals", "--protocol", protocol, "--n", "4", "--eps", ",".join(map(repr, gaps)),
                "--speed-mode", "delta-own", "--dV", "3,3.5"]
        got = run(argv)
        assert got == run_unscoped(argv)
        rc, out, err, calls = got
        assert rc == 2 and out == ""
        # the circular count refuses the far run before its loop starts
        assert err.startswith("numerical failure: ") and str(cap) in err
        # falling: both speeds at the near gap, then the far gap's first point
        assert [call[2:] for call in calls[-1:]] == [(far, Vc + 3.0, "MaxIterations")]
        assert len(calls) == (3 if order == "falling" else 1)


class TestWork:
    def test_each_spiral_root_is_solved_once(self, monkeypatch):
        solve, iterate = rootfind.solve, same_direction._iterate
        solved, runs = [], []

        def counted(problem):
            solved.append(problem.bracket_lo)
            return solve(problem)

        def counted_runs(params, Vs, kind, targets):
            runs.append(len(targets))
            return iterate(params, Vs, kind, targets)

        monkeypatch.setattr(rootfind, "solve", counted)
        monkeypatch.setattr(same_direction, "_iterate", counted_runs)
        argv = ["totals", "--protocol", ",".join(PROTOCOLS), "--n", "2,4", "--eps", "0.1,0.01",
                "--speed-mode", "delta-own", "--dV", "1,5"]
        rc, out, _, _ = run(argv)
        assert rc == 0 and out.count(",ok\n") == 32
        # spiral pincer and spiral same-direction at n = 2 and n = 4
        assert len(solved) == 4
        # one run of sweeps per same-direction kind, n and speed, to both eps
        assert runs == [2] * 8
        # outside a command every call solves again
        solved.clear()
        params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1)
        spiral_pincer.critical_speed(params)
        spiral_pincer.critical_speed(params)
        assert len(solved) == 2

    def test_a_speed_grid_keeps_one_run_of_sweeps(self):
        # eps runs outside speed: a memo keeping each speed's sweeps until
        # its next eps would hold 200 of them at once
        scene = ["--R0", "100", "--r", "1", "--n", "2"]

        def transient(*argv):
            """The command's table, and its traced peak above what the
            table holds at the end: the sweeps and results kept meanwhile."""
            cfg = cli.build_config(cli.build_parser().parse_args(["totals", *scene, *argv]))
            tracemalloc.start()
            try:
                with memo.command(cfg.eps):
                    table = cli.cmd_totals(cfg)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return table, peak - held

        table, grid = transient("--protocol", "circular-same,spiral-same", "--eps", "1e-6,1e-9",
                                "--speed-mode", "delta-own", "--dV", "0.001:0.2:0.001")
        assert [row[-1] for row in table.rows] == ["ok"] * 800
        protocol, _, eps, Vs, N = max(table.rows, key=lambda row: row[4])[:5]
        assert N > 1000
        _, alone = transient("--protocol", protocol, "--eps", repr(eps), "--Vs", repr(Vs))
        assert grid <= 2 * alone, (grid, alone)
