"""CLI and table-emission checks: parsing, exit codes, byte stability."""

import argparse
import json
import math
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepdefense import circular_pincer, cli, report, same_direction, simulator, spiral_pincer
from sweepdefense.cli import RunConfig, SpeedMode, build_config, load_config_file, main
from sweepdefense.errors import ConfigError, RootNotFound
from sweepdefense.report import Table
from sweepdefense.scenario import ExpansionStep, ProtocolKind, ScenarioParams
from sweepdefense.simulator import SimConfig

from oracles import csv_render

REF = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestListParsing:
    def test_comma_ints(self):
        assert cli._parse_int_list("2,4,8", "n") == (2, 4, 8)

    def test_int_range_inclusive(self):
        assert cli._parse_int_list("2:8:2", "n") == (2, 4, 6, 8)
        assert cli._parse_int_list("2:7:2", "n") == (2, 4, 6)

    def test_mixed_tokens(self):
        assert cli._parse_int_list("2,6:10:2", "n") == (2, 6, 8, 10)

    def test_empty_is_empty(self):
        assert cli._parse_int_list("", "n") == ()

    def test_bad_int_token(self):
        with pytest.raises(ConfigError):
            cli._parse_int_list("2,x", "n")

    def test_float_range(self):
        got = cli._parse_float_list("0.1:0.5:0.2", "eps")
        assert got == pytest.approx((0.1, 0.3, 0.5))

    def test_float_range_endpoint_kept(self):
        # accumulated rounding must not drop the last grid point
        got = cli._parse_float_list("5:20:5", "dV")
        assert got == pytest.approx((5.0, 10.0, 15.0, 20.0))

    def test_bad_float_step(self):
        with pytest.raises(ConfigError):
            cli._parse_float_list("1:2:0", "eps")

    def test_protocol_names(self):
        got = cli._parse_protocols("circular-pincer,spiral-same", "protocol")
        assert got == (
            ProtocolKind.CIRCULAR_PINCER,
            ProtocolKind.SPIRAL_SAME_DIRECTION,
        )

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            cli._parse_protocols("helical-pincer", "protocol")

    @pytest.mark.parametrize(
        "parse, key, at_limit, over_limit",
        [
            (cli._parse_int_list, "n", "1:5:1", "1:6:1"),
            (cli._parse_int_list, "n", "9:1:-2", "11:1:-2"),
            (cli._parse_int_list, "n", "1,2:5:1", "1,2:6:1"),
            (cli._parse_float_list, "eps", "0:2:0.5", "0:2.5:0.5"),
            (cli._parse_float_list, "Vs", "1,2,3,4,5", "1,2,3,4,5,6"),
        ],
    )
    def test_values_per_key_are_limited(self, monkeypatch, parse, key, at_limit, over_limit):
        monkeypatch.setattr(cli, "MAX_LIST_VALUES", 5)
        assert len(parse(at_limit, key)) == 5
        with pytest.raises(ConfigError, match=f"^{key}=.*more than 5 values"):
            parse(over_limit, key)

    @pytest.mark.parametrize(
        "parse, token",
        [
            (cli._parse_int_list, "1:1000001:1"),
            (cli._parse_int_list, "-1:-2000001:-2"),
            (cli._parse_float_list, "0:1000000:1"),
            (cli._parse_float_list, "-1e308:1e308:1"),
        ],
    )
    def test_oversized_range_is_refused_before_expanding(self, parse, token):
        # just over the limit, so that expanding would cost megabytes, not
        # hours; the refusal itself must take almost no memory
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="more than 1000000 values"):
                parse(token, "key")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_float_range_past_the_overflow_is_empty(self):
        assert cli._parse_float_list("1e308:-1e308:1", "eps") == ()


class TestConfigFile:
    def test_values_comments_blanks(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# header\nR0 = 50\n\nn = 2,4  # trailing\n")
        assert load_config_file(str(cfg)) == {"R0": "50", "n": "2,4"}

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("R0 50\n")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("speed = 3\n")
        args = cli.build_parser().parse_args(["totals", "--config", str(cfg)])
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config(args)

    def test_cli_overrides_file(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("R0 = 50\nn = 2,4\n")
        args = cli.build_parser().parse_args(
            ["totals", "--config", str(cfg), "--n", "6"]
        )
        built = build_config(args)
        assert built.R0 == 50.0
        assert built.n == (6,)

    def test_defaults_without_config(self):
        args = cli.build_parser().parse_args(["totals"])
        built = build_config(args)
        assert built == RunConfig()
        assert built.speed_mode is SpeedMode.ABSOLUTE


class TestTableModel:
    def test_csv_round_trip(self, tmp_path):
        t = Table(["a", "b", "c", "d"])
        t.append(1, 2.5, "ok", None)
        t.append(-3, 1.0 / 3.0, "spiral-pincer", 0.125)
        path = tmp_path / "t.csv"
        report.write_table(t, path, "csv")
        back = report.read_table(path)
        assert back.columns == t.columns
        assert back.rows[0] == [1, 2.5, "ok", None]
        assert back.rows[1][1] == pytest.approx(1.0 / 3.0, rel=1e-8)

    def test_json_round_trip(self, tmp_path):
        t = Table(["x", "status"])
        t.append(0.1 + 0.2, "ok")
        path = tmp_path / "t.json"
        report.write_table(t, path, "json")
        back = report.read_table(path)
        assert back.columns == ["x", "status"]
        assert back.rows == [[0.3, "ok"]]  # pre-rounded to 9 significant digits

    def test_nine_significant_digits(self):
        t = Table(["x"])
        t.append(math.pi)
        assert report.render_csv(t) == "x\n3.14159265\n"

    def test_non_finite_becomes_blank(self):
        t = Table(["x"])
        t.append(math.inf)
        # csv.writer quotes a lone empty field so the row is not an empty line
        assert report.render_csv(t).splitlines()[1] == '""'
        assert json.loads(report.render_json(t))["rows"] == [[None]]

    def test_row_arity_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.append(1)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            report.read_table(path)

    @pytest.mark.parametrize(
        "columns, rows, text",
        [
            (["x"], [], "x\n"),
            (["x"], [[""], [None], ["a"]], 'x\n""\n""\na\n'),
            (["a", "b"], [[None, None], ["p,q", 'say "hi"']], 'a,b\n,\n"p,q","say ""hi"""\n'),
            (["a", "b"], [[True, -0.0], [1e300, np.float64(1.0 / 3.0)]], "a,b\nTrue,-0\n1e+300,0.333333333\n"),
        ],
    )
    def test_csv_text(self, columns, rows, text):
        assert report.render_csv(Table(columns, rows)) == text

    def test_format_inferred_from_suffix(self, tmp_path):
        t = Table(["a"])
        t.append(1)
        report.write_table(t, tmp_path / "t.json", "json")
        assert report.read_table(tmp_path / "t.json").rows == [[1]]


_FIELD_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "1", "-", "\t"]), max_size=5)
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300, 1e300, 5e-324]),
    _FIELD_TEXT,
    st.text(max_size=5),
    # text a non-finite float would format as, and text that is a format
    st.sampled_from(["nan", "inf", "-inf", "info", "%s"]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    columns = draw(st.lists(_FIELD_TEXT | st.text(max_size=5), min_size=width, max_size=width))
    table = Table(columns)
    for row in draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=20)):
        table.append(*row)
    return table


class TestCsvRenderer:
    @given(_tables())
    @settings(max_examples=400, deadline=None)
    @example(Table([""], [[None], [math.nan]]))
    @example(Table(["a", "b"], [[",", '"'], ["\r", "\n"], [" ", ""]]))
    # one type signature over finite and non-finite floats and look-alike text
    @example(Table(["a", "b"], [[1.5, "x"], [math.nan, "x"], [2.5, "inf"], [-math.inf, "%s"], [3.0, "info"]]))
    @example(Table(["nan", "%s"], [["-inf", np.int64(7)], [None, np.int64(-3)], ["nan", None]]))
    def test_matches_the_csv_writer_reference(self, table):
        assert report.render_csv(table) == csv_render(table.columns, table.rows)

    def test_schedule_table_matches_the_reference(self):
        # pincer and same-direction kinds, circular rows (Rtilde_i blank)
        # and spiral rows, plus a subcritical row of blanks
        cfg = RunConfig(
            protocol=tuple(ProtocolKind),
            n=(2, 8, 32),
            eps=(1e-4,),
            speed_mode=SpeedMode.DELTA_OWN,
            dV=(-0.5, 0.5, 2.0),
        )
        table = cli.cmd_schedule(cfg)
        tilde = table.columns.index("Rtilde_i")
        assert len(table.rows) >= 1000
        assert {type(row[tilde]) for row in table.rows} == {type(None), float}
        assert {row[-1] for row in table.rows} == {"ok", "SubcriticalSpeed"}
        assert report.render_csv(table) == csv_render(table.columns, table.rows)


class TestExpansionStep:
    def test_columns_are_the_step_fields(self):
        assert cli._STEP_COLUMNS == ExpansionStep._fields

    def test_steps_are_immutable(self):
        step = circular_pincer.expansion_schedule(REF, 40.0)[0]
        with pytest.raises(AttributeError):
            step.R_i = 0.0


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["critical-speeds", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,V_LB,")

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["critical-speeds", "--frequency", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_protocol_is_config_error(self, capsys):
        assert main(["totals", "--protocol", "zigzag", "--Vs", "40"]) == 1

    def test_absolute_mode_needs_speeds(self, capsys):
        assert main(["totals"]) == 1
        assert "Vs" in capsys.readouterr().err

    def test_numerical_failure_is_exit_2(self, capsys, monkeypatch):
        def boom(params):
            raise RootNotFound("bracket lost")

        monkeypatch.setattr(spiral_pincer, "critical_speed", boom)
        assert main(["critical-speeds", "--n", "2"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_unwritable_out_is_exit_3(self, capsys):
        rc = main(["critical-speeds", "--n", "2", "--out", "/no/such/dir/t.csv"])
        assert rc == 3
        assert "i/o error" in capsys.readouterr().err

    def test_empty_grid_is_success(self, capsys):
        assert main(["critical-speeds", "--n", ""]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "n,V_LB,Vc_circ_pincer,Vc_spiral_pincer,Vc_circ_same,Vc_spiral_same,status"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            "totals --n 3 --Vs 40",
            "max-radius --VT -1 --Vs 40",
            "critical-speeds --r 200",
            "critical-speeds --n 0",
            "totals --eps -1 --Vs 40",
            "totals --Vs nan",
            "sweep-count --Vs inf",
            "totals --Vs 1:inf:1",
            "totals --Vs 40 --target-radius nan",
            # the spiral contraction per sweep rounds to 1 at these speeds
            "max-radius --protocol spiral-pincer --Vs 1e17",
            "totals --protocol spiral-pincer --Vs 1e17",
            "sweep-count --protocol spiral-pincer --Vs 1e17",
            "schedule --protocol spiral-pincer --Vs 1e17",
            "simulate --protocol spiral-pincer --Vs 1e17 --bins 360",
            "simulate --protocol spiral-pincer --Vs 1e17 --bins 360 --mode defense",
            "max-radius --protocol spiral-same --Vs 1e17",
            "simulate --protocol spiral-same --Vs 1e17 --bins 360 --mode defense",
            # the circular per-sweep contraction c2 rounds to 1 here
            "totals --protocol circular-pincer --Vs 1e17",
            "sweep-count --protocol circular-pincer --Vs 1e17",
            "schedule --protocol circular-pincer --Vs 1e17",
            "simulate --protocol circular-pincer --Vs 1e17 --bins 360",
            "totals --protocol circular-same --Vs 1e17",
            "sweep-count --protocol circular-same --Vs 1e17",
            "schedule --protocol circular-same --Vs 1e17",
        ],
    )
    def test_invalid_scenario_is_config_error(self, capsys, argv):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("Vs", ["1e7", "1e9", "1e15"])
    def test_schedule_past_the_sweep_cap_fails_before_iterating(self, capsys, Vs):
        # the closed-form count is above the cap, so no sweep is iterated
        assert main(["schedule", "--protocol", "circular-pincer", "--Vs", Vs]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep-count", "totals", "schedule"])
    def test_circular_same_past_the_sweep_cap_fails_at_once(self, capsys, command):
        # about 7.7e9 sweeps: the affine count refuses them before iterating
        start = time.perf_counter()
        assert main([command, "--protocol", "circular-same", "--Vs", "1e9"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # 3289 sweeps, about 3.4e8 ticks: 22 s if it ran
            ("--Vs 1e3 --mode expansion", "--max-sweeps"),
            ("--Vs 40 --mode defense --cycles 1000000000", "--cycles"),
        ],
    )
    def test_simulate_past_the_tick_budget_fails_at_once(self, capsys, argv, flag):
        start = time.perf_counter()
        assert main(["simulate", "--protocol", "circular-pincer", *argv.split()]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and flag in err
        assert str(simulator.MAX_TICKS) in err

    def test_simulate_within_the_tick_budget_runs(self, capsys):
        argv = "--Vs 1e3 --mode expansion --max-sweeps 20"
        assert main(["simulate", "--protocol", "circular-pincer", *argv.split()]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 20 and all(row.endswith(",0,ok") for row in rows)

    def test_large_team_spiral_speed_is_found(self, capsys):
        # n*r = 64*R0: ten times the circular critical speed is below VT
        assert main(["critical-speeds", "--R0", "100", "--r", "50", "--n", "128"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[-1] == "ok"
        assert float(row[3]) > 1.0

    def test_spiral_speed_just_above_the_threat_speed_is_found(self, capsys):
        # the root lies closer to VT than the solver's finite-difference
        # step, so a central probe would fall below VT
        assert main(["critical-speeds", "--r", "40", "--n", "10000"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[-1] == "ok"
        assert 1.0 < float(row[3]) < 1.00001

    def test_spiral_speed_past_creeping_newton_steps_is_found(self, capsys):
        # the root lies within the finite-difference step of VT, where each
        # Newton step cut |f| by little and 200 of them ended in exit 2
        argv = "critical-speeds --R0 2287.19 --r 17.9547 --VT 0.00200199 --n 36464"
        assert main(argv.split()) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[-1] == "ok"
        assert 0.00200199 < float(row[3]) < 0.002003

    @pytest.mark.parametrize("protocol", ["circular-same", "spiral-same"])
    def test_same_direction_asymptote_ignores_the_sweep_cap(self, capsys, protocol):
        # the schedule to eps short of this asymptote would exceed the cap
        assert main(["max-radius", "--protocol", protocol, "--Vs", "1e9"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert rows[1].startswith(f"{protocol},2,0.1,1e+09,")
        assert rows[1].endswith(",ok")


class TestSubcommands:
    def test_critical_speeds_values(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["critical-speeds", "--n", "2", "--out", str(out)]) == 0
        table = report.read_table(out)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["n"] == 2
        assert row["V_LB"] == pytest.approx(5.0 * math.pi, rel=1e-8)
        assert row["Vc_circ_pincer"] == pytest.approx(10.0 * math.pi, rel=1e-8)
        assert row["Vc_spiral_pincer"] == pytest.approx(
            spiral_pincer.critical_speed(REF), rel=1e-8
        )
        assert row["Vc_circ_same"] == pytest.approx(10.0 * math.pi + 1.0, rel=1e-8)
        assert row["status"] == "ok"

    def test_subcritical_becomes_status_row(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["totals", "--protocol", "circular-pincer", "--Vs", "20", "--out", str(out)]
        ) == 0
        table = report.read_table(out)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["status"] == "SubcriticalSpeed"
        assert row["T_total"] is None

    def test_schedule_rows_match_sweep_count(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["schedule", "--protocol", "spiral-pincer", "--Vs", "17.2219",
             "--out", str(out)]
        ) == 0
        table = report.read_table(out)
        want = spiral_pincer.sweep_count(REF, 17.2219)
        assert len(table.rows) == want
        first = dict(zip(table.columns, table.rows[0]))
        assert first["index"] == 0
        assert first["R_i"] == 100.0
        assert first["Rtilde_i"] == 110.0

    def test_circular_schedule_has_blank_rtilde(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["schedule", "--protocol", "circular-pincer", "--Vs", "31.9159",
              "--out", str(out)])
        table = report.read_table(out)
        col = table.columns.index("Rtilde_i")
        assert all(row[col] is None for row in table.rows)

    def test_delta_own_speed_resolution(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["max-radius", "--protocol", "circular-pincer", "--speed-mode",
              "delta-own", "--dV", "10", "--out", str(out)])
        table = report.read_table(out)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["Vs"] == pytest.approx(
            circular_pincer.critical_speed(REF) + 10.0, rel=1e-8
        )

    def test_delta_reference_speed_resolution(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["max-radius", "--protocol", "spiral-pincer", "--n", "2,4",
              "--speed-mode", "delta-reference", "--ref-protocol", "circular-same",
              "--ref-n", "2", "--dV", "10", "--out", str(out)])
        table = report.read_table(out)
        base = same_direction.circular_same_critical_speed(REF)
        i_vs = table.columns.index("Vs")
        assert all(r[i_vs] == pytest.approx(base + 10.0, rel=1e-8) for r in table.rows)

    def test_totals_target_radius(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["totals", "--protocol", "circular-pincer", "--Vs", "31.9159",
              "--target-radius", "101", "--out", str(out)])
        table = report.read_table(out)
        row = dict(zip(table.columns, table.rows[0]))
        asym = circular_pincer.max_radius(REF, 31.9159)
        assert row["eps"] == pytest.approx(asym - 101.0, rel=1e-8)
        assert row["R_max"] == pytest.approx(101.0, rel=1e-8)

    def test_totals_target_beyond_asymptote(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["totals", "--protocol", "circular-pincer", "--Vs", "31.9159",
              "--target-radius", "200", "--out", str(out)])
        table = report.read_table(out)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["status"] == "NoExpansion"

    @pytest.mark.parametrize(
        "Vs, target, status, eps",
        [
            # the target step fails: the row keeps the given eps
            ("20", "101", "SubcriticalSpeed", 0.1),
            ("40", "200", "NoExpansion", 0.1),
            # totals fails after the step: the row shows the implied eps
            ("40", "-5", "NoExpansion", 132.323954),
        ],
    )
    def test_totals_target_failure_row_eps(self, tmp_path, Vs, target, status, eps):
        out = tmp_path / "t.csv"
        assert main(["totals", "--Vs", Vs, "--target-radius", target, "--out", str(out)]) == 0
        table = report.read_table(out)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["status"] == status
        assert row["eps"] == eps
        assert row["N_n"] is None and row["T_total"] is None

    def test_simulate_defense_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["simulate", "--protocol", "circular-pincer", "--Vs", "31.9159",
             "--mode", "defense", "--bins", "720", "--out", str(out)]
        ) == 0
        table = report.read_table(out)
        assert len(table.rows) == 3  # default defense cycles
        row = dict(zip(table.columns, table.rows[-1]))
        assert row["mode"] == "defense"
        assert row["breaches"] == 0
        assert row["min_margin"] > 0.0
        assert row["index"] == 2

    def test_simulate_breach_count_matches_the_report(self, tmp_path):
        Vs = 1.0 + 0.6 * (spiral_pincer.critical_speed(REF) - 1.0)
        out = tmp_path / "t.csv"
        assert main(
            ["simulate", "--protocol", "spiral-pincer", "--Vs", repr(Vs),
             "--mode", "defense", "--bins", "720", "--out", str(out)]
        ) == 0
        rep = simulator.run(
            REF, Vs, ProtocolKind.SPIRAL_PINCER, SimConfig(bins=720, mode="defense")
        )
        counts = {row[-2] for row in report.read_table(out).rows}
        assert rep.breach_count > 0
        assert counts == {rep.breach_count} == {len(rep.breaches)}
        assert rep.breaches is rep.breaches


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_flag_leaks_into_the_next_call(self, capsys):
        assert main(["totals", "--Vs", "40", "--n", "4", "--R0", "50"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("circular-pincer,4,")
        assert main(["totals", "--Vs", "40"]) == 0
        defaults = cli.cmd_totals(RunConfig(Vs=(40.0,)))
        assert capsys.readouterr().out == report.render_csv(defaults)
        assert defaults.rows[0][1] == 2
        assert build_config(cli.build_parser().parse_args(["totals"])) == RunConfig()

    @pytest.mark.parametrize("argv", [[]] + [[name] for name in cli._COMMANDS])
    def test_help_is_stable_across_calls(self, capsys, argv):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--help"])
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: sweepdefense")

    @pytest.mark.parametrize("name", [None, *cli._COMMANDS])
    def test_help_matches_its_golden_copy(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ([name] if name else []) + ["--help"]
        with pytest.raises(SystemExit):
            main(argv)
        golden = GOLDEN_DIR / (f"help-{name}.txt" if name else "help.txt")
        assert capsys.readouterr().out == golden.read_text()

    def test_every_command_is_a_module_function(self):
        # the benchmark tracer wraps cmd_* attributes by name and swaps
        # them in module dicts, _COMMANDS among them
        for name, command in cli._COMMANDS.items():
            assert command is getattr(cli, "cmd_" + name.replace("-", "_")), name

    def test_flags_follow_the_config_fields(self):
        want = ["--config"] + ["--" + f.name.replace("_", "-") for f in fields(RunConfig)]
        parser = cli.build_parser()
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            got = [a.option_strings[0] for a in sub._actions if a.dest != "help"]
            assert got == want, name

    def test_bad_flag_after_a_good_call(self, capsys):
        assert main(["critical-speeds", "--n", "2"]) == 0
        capsys.readouterr()
        assert main(["critical-speeds", "--frequency", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert main(["critical-speeds", "--n", "2"]) == 0

    def test_oversized_range_exits_1_naming_the_key(self, capsys):
        assert main(["totals", "--n", "2:2000002:2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: n='2:2000002:2': more than 1000000 values")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, count",
        [
            # about 9e8 rows, each key under its own cap: hours if it ran
            ("max-radius --n 2:2000:2 --Vs 50:900000:1", "Vs is 899951000"),
            # counted before the first critical-speed solve of a delta speed
            (
                "totals --protocol spiral-pincer,spiral-same --n 2:2000:2 "
                "--speed-mode delta-own --dV 1:1000:1",
                "dV is 2000000",
            ),
        ],
    )
    def test_oversized_grid_exits_1_naming_the_keys(self, capsys, argv, count):
        start = time.perf_counter()
        assert main(argv.split()) == 1
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: protocol x n x eps x {count} grid points, more than 1000000\n"
        )
        assert captured.out == ""

    def test_grid_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LIST_VALUES", 4)
        assert main(["max-radius", "--n", "2,4", "--Vs", "40,50"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert main(["max-radius", "--n", "2,4", "--eps", "0.1,0.2", "--Vs", "40,50"]) == 1
        assert "is 8 grid points, more than 4" in capsys.readouterr().err

    def test_every_subcommand_takes_the_config_keys(self):
        parser = cli.build_parser()
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(cli._COMMANDS)
        for name, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions} - {"help"}
            assert dests == set(cli._KEYS) | {"config"}, name


class TestOutputStability:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["schedule", "--config", str(CONFIG_DIR / "schedule-spiral.cfg")]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (
            report.meta_path(a).read_bytes() == report.meta_path(b).read_bytes()
        )

    def test_meta_sidecar_written(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["critical-speeds", "--n", "2,4", "--out", str(out)])
        meta = json.loads(report.meta_path(out).read_text())
        assert meta["subcommand"] == "critical-speeds"
        assert meta["config"]["n"] == [2, 4]
        assert "version" in meta
        assert not any("time" in k.lower() or "date" in k.lower() for k in meta)

    def test_meta_config_holds_every_field_but_out(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["critical-speeds", "--n", "2,4", "--out", str(out)])
        config = json.loads(report.meta_path(out).read_text())["config"]
        assert set(config) == {f.name for f in fields(RunConfig)} - {"out"}
        assert config["protocol"] == ["circular-pincer"]
        assert config["speed_mode"] == "absolute"

    def test_no_sidecar_on_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["critical-speeds", "--n", "2"])
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_json_format_selected(self, tmp_path):
        out = tmp_path / "t.json"
        main(["critical-speeds", "--n", "2", "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "n"
        assert doc["rows"][0][0] == 2
