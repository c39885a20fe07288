"""What one command computes once: same bytes, less work, bounded memory.

`cli.main` runs each command inside `memo.command`, where critical
speeds and asymptotes are solved once per scenario, the eps values of
one same-direction expansion share one run of sweeps, and those of one
schedule share one listing. The reference for
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

from sweepdefense import (
    affine, circular_pincer, cli, memo, protocols, rootfind, same_direction, spiral_pincer,
)
from sweepdefense.errors import MaxIterations
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


def is_same_direction(sweeps):
    """Whether a run of the one loop is a same-direction kind's: only those
    add an overlap to the sweep time or guard an extra angle."""
    return bool(sweeps.overlap or sweeps.guard)


class TestWork:
    def test_each_spiral_root_is_solved_once(self, monkeypatch):
        solve, loop = rootfind.solve, affine.run
        solved, runs = [], []

        def counted(problem):
            solved.append(problem.bracket_lo)
            return solve(problem)

        def counted_runs(sweeps, R_targets, limit, keep=True):
            runs.append(len(R_targets))
            return loop(sweeps, R_targets, limit, keep)

        monkeypatch.setattr(rootfind, "solve", counted)
        monkeypatch.setattr(affine, "run", counted_runs)
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

    def test_each_schedule_is_listed_once_for_every_eps(self, monkeypatch):
        loop = affine.run
        runs = []

        def counted_runs(sweeps, R_targets, limit, keep=True):
            runs.append(("same" if is_same_direction(sweeps) else "pincer", len(R_targets)))
            return loop(sweeps, R_targets, limit, keep)

        monkeypatch.setattr(affine, "run", counted_runs)
        argv = ["schedule", "--protocol", ",".join(PROTOCOLS), "--n", "2,4",
                "--eps", "0.1,0.05,0.01", "--speed-mode", "delta-own", "--dV", "1,5"]
        rc, out, _, _ = run(argv)
        assert rc == 0 and out.count(",ok\n") > 48
        # one listing per kind, n and speed, to all three eps
        assert runs == [("pincer", 3)] * 8 + [("same", 3)] * 8
        # outside a command every call lists again
        runs.clear()
        params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1)
        Vs = protocols.CRITICAL[ProtocolKind.SPIRAL_PINCER](params) + 1.0
        protocols.schedule(params, Vs, ProtocolKind.SPIRAL_PINCER)
        protocols.schedule(params, Vs, ProtocolKind.SPIRAL_PINCER)
        assert runs == [("pincer", 1)] * 2

    def test_a_schedule_grid_holds_no_more_than_its_table(self):
        # the steps of a nearer eps are the farther eps's own, so the whole
        # grid holds little more than its farthest eps alone; meanwhile
        # nothing but the table's own steps is kept for long
        scene = ["--R0", "100", "--r", "1", "--n", "2", "--protocol", ",".join(PROTOCOLS),
                 "--speed-mode", "delta-own"]

        def traced(*argv):
            """The table, what it holds at the end, and the traced peak
            above that."""
            tracemalloc.start()
            try:
                table = schedule_table(*scene, *argv)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return table, held, peak - held

        speeds = ["--dV", "0.01:0.1:0.01"]
        table, held, transient = traced("--eps", "1e-3,1e-6", *speeds)
        near_rows = sum(len(body) for _, body, _ in blocks(table)[:40])
        assert sum(len(body) for _, body, _ in blocks(table)[40:]) > 20_000
        _, far_held, far_transient = traced("--eps", "1e-6", *speeds)
        # a nearer eps costs a list slot per step, not a step
        assert held - far_held <= 16 * near_rows + 100_000, (held, far_held, near_rows)
        assert transient <= 2 * far_transient, (transient, far_transient)

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


def schedule_table(*argv):
    """The schedule table of argv, built in process inside its command."""
    cfg = cli.build_config(cli.build_parser().parse_args(["schedule", *argv]))
    with memo.command(cfg.eps):
        return cli.cmd_schedule(cfg)


def blocks(table):
    """The table's blocks that hold rows: one per grid point."""
    return [block for block in table.blocks if block[1]]


class TestSharedListing:
    """A schedule's eps values share one listing, cut at each eps's target."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("n", ["2", "8", "32"])
    def test_each_eps_block_is_its_own_run(self, protocol, n):
        # 1e4 leaves no target above R0 (NoExpansion rows); the rest are
        # nearer and farther targets, in drawn order
        gaps = ["0.3", "1e4", "1e-3", "0.05"]
        scene = ["--protocol", protocol, "--n", n, "--speed-mode", "delta-own",
                 "--dV", "0,0.5,3,40"]
        shared = blocks(schedule_table(*scene, "--eps", ",".join(gaps)))
        alone = [block for eps in gaps for block in blocks(schedule_table(*scene, "--eps", eps))]
        assert shared == alone
        statuses = {block[2][-1] if block[2] else block[1][0][-1] for block in alone}
        assert statuses == {"ok", "NoExpansion"}

    def test_a_nearer_eps_holds_the_farther_ones_steps(self):
        table = schedule_table("--protocol", ",".join(PROTOCOLS), "--n", "4", "--eps", "0.1,0.001",
                               "--Vs", "60")
        near, far = blocks(table)[0::2], blocks(table)[1::2]
        for (_, steps, _), (_, longer, _) in zip(near, far):
            assert 0 < len(steps) < len(longer)
            assert all(a is b for a, b in zip(steps, longer))

    @pytest.mark.parametrize("order", ["falling", "rising"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_run_past_the_sweep_cap_fails_at_its_own_grid_point(self, monkeypatch, order, protocol):
        kind = ProtocolKind(protocol)
        near, far, none = 1.0, 1e-6, 1e4
        Vc = protocols.CRITICAL[kind](ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=4, eps=near))

        def count(eps, dV):
            params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=4, eps=eps)
            return protocols.totals(params, Vc + dV, kind).N_n

        cap = max(count(near, 3.0), count(near, 3.5))
        assert cap < count(far, 3.0)
        # the near targets fit under the cap, the far ones do not
        monkeypatch.setattr(affine, "ITERATION_CAP", cap)
        monkeypatch.setattr(same_direction, "_ITERATION_CAP", cap)

        def argv_at(*gaps):
            return ["schedule", "--protocol", protocol, "--n", "4", "--eps", ",".join(map(repr, gaps)),
                    "--speed-mode", "delta-own", "--dV", "3,3.5"]

        argv = argv_at(none, near, far) if order == "falling" else argv_at(far, near, none)
        listed = []
        schedule = protocols.schedule

        def recorded(params, Vs, kind):
            try:
                steps = schedule(params, Vs, kind)
            except Exception as exc:
                listed.append((params.eps, Vs, type(exc).__name__))
                raise
            listed.append((params.eps, Vs, len(steps)))
            return steps

        monkeypatch.setattr(protocols, "schedule", recorded)
        got = run(argv)
        got_listed, listed[:] = listed[:], []
        assert got == run_unscoped(argv)
        assert got_listed == listed
        rc, out, err, _ = got
        assert rc == 2 and out == ""
        # the message the far eps's own run gives
        assert err == run(argv_at(far))[2]
        assert str(cap) in err
        # falling: NoExpansion, then both speeds at the near gap, then the
        # far gap's first point
        points = [(none, Vc + 3.0), (none, Vc + 3.5), (near, Vc + 3.0), (near, Vc + 3.5)]
        head = points if order == "falling" else []
        assert [entry[:2] for entry in got_listed] == head + [(far, Vc + 3.0)]
        assert got_listed[-1][2] == "MaxIterations"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_one_listing_cuts_each_target_where_its_own_run_ends(monkeypatch, protocol):
    # a target beyond the asymptote is never reached: the radius stalls,
    # and the nearer targets keep the steps their own runs list
    kind = ProtocolKind(protocol)
    params = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=4, eps=0.1)
    Vs = protocols.CRITICAL[kind](params) + 3.0
    if protocols.is_pincer(kind):
        module = circular_pincer if kind is ProtocolKind.CIRCULAR_PINCER else spiral_pincer
        expansion, cap = module.expansion(params, Vs), (affine, "ITERATION_CAP")
        stalls, capped = "stalls", "no convergence"
    else:
        expansion = same_direction.expansion(params, Vs, kind)
        cap = (same_direction, "_ITERATION_CAP")
        stalls = capped = "schedule exceeded"
    asym = expansion.asymptote
    targets = [asym - 1.0, asym - 1e-3, asym + 1.0, asym + 2.0]

    def listing(rising):
        """Every sweep of one run to the rising targets, and per target its
        count of sweeps or its failure."""
        sweeps = expansion.sweeps
        T_list, eff_list, ends, stall = affine.run(sweeps, rising, expansion.cap)
        failed = [expansion.shortfall(stall, R_target) for R_target in rising[len(ends):]]
        return affine.steps(sweeps, T_list, eff_list, len(T_list)), [N for N, _ in ends] + failed

    steps, ends = listing(targets)
    for target, end in zip(targets, ends):
        alone, (own,) = listing([target])
        if isinstance(end, MaxIterations):
            assert stalls in str(end) and str(end) == str(own)
            assert alone == steps
        else:
            assert (end, alone) == (own, steps[:end])
    assert [type(end) for end in ends] == [int, int, MaxIterations, MaxIterations]
    # the cap, read from the kind's own module, stops a run as the stall
    # does, with its own message per target
    monkeypatch.setattr(*cap, ends[1])
    steps, ends = listing(targets[1:])
    assert len(steps) == ends[0] and all(isinstance(end, MaxIterations) for end in ends[1:])
    assert [str(end) for end in ends[1:]] == [str(listing([t])[1][0]) for t in targets[2:]]
    assert capped in str(ends[1])
