"""CLI and table-emission checks: parsing, exit codes, byte stability."""

import argparse
import csv
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

from sweepdefense import affine, circular_pincer, cli, report, same_direction, simulator, spiral_pincer
from sweepdefense.cli import RunConfig, SpeedMode, build_config, load_config_file, main
from sweepdefense.errors import ConfigError, RootNotFound
from sweepdefense.report import Table
from sweepdefense.scenario import ExpansionStep, ProtocolKind, ScenarioParams
from sweepdefense.simulator import SimConfig

from oracles import csv_render

REF = ScenarioParams(R0=100.0, r=10.0, VT=1.0, n=2, eps=0.1)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def csv_rows(path):
    """The rows of a CSV table, each a dict of its cells' text by column."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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
            (cli._parse_protocols, "protocol", "spiral-same," * 5, "spiral-same," * 6),
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

    @pytest.mark.parametrize(
        "flag, text, line",
        [
            ("--n", "2,x", "error: n='x': expected int or lo:hi:step"),
            ("--eps", "1:2:0", "error: eps='1:2:0': expected a finite float or lo:hi:step"),
            (
                "--protocol",
                "helical-pincer",
                "error: protocol='helical-pincer': expected one of circular-pincer, "
                "circular-same, spiral-pincer, spiral-same",
            ),
            (
                "--ref-protocol",
                "circular-pincer,spiral-same",
                "error: ref_protocol must name exactly one protocol",
            ),
            ("--R0", "nan", "error: R0='nan': expected a finite number"),
            ("--bins", "3.5", "error: bins='3.5': expected an integer"),
            (
                "--speed-mode",
                "sideways",
                "error: speed_mode='sideways': expected one of absolute, delta-own, delta-reference",
            ),
            ("--format", "xml", "error: format='xml': expected csv or json"),
            ("--n", "1:1000001:1", "error: n='1:1000001:1': more than 1000000 values in one key"),
        ],
    )
    def test_each_parser_names_its_error(self, capsys, flag, text, line):
        assert main(["critical-speeds", flag, text]) == 1
        captured = capsys.readouterr()
        assert captured.err == line + "\n" and captured.out == ""


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
        with open(path, newline="", encoding="utf-8") as fh:
            columns, first, second = csv.reader(fh)
        assert columns == t.columns
        a, b, c, d = first
        assert (int(a), float(b), c, d) == (1, 2.5, "ok", "")  # None is a blank cell
        assert float(second[1]) == pytest.approx(1.0 / 3.0, rel=1e-8)

    def test_numpy_int_cells_are_json_ints(self):
        # CSV writes an np.int64 cell as its digits, so JSON writes its int
        big, low = np.int64(2**63 - 1), np.int64(-(2**63))
        cells = [[np.int64(7), 2.5, "ok"], [low, None, big]]
        ints = [[7, 2.5, "ok"], [-(2**63), None, 2**63 - 1]]
        blocks = Table(["k", "a", "b", "c"])
        blocks.extend((np.int64(3),), cells, ())
        for table, plain in (
            (Table(["a", "b", "c"], cells), Table(["a", "b", "c"], ints)),
            (blocks, Table(["k", "a", "b", "c"], [[3, *row] for row in ints])),
        ):
            text = report.render_json(table)
            assert text == report.render_json(plain)
            assert json.loads(text)["rows"] == plain.rows

    def test_json_round_trip(self, tmp_path):
        t = Table(["x", "status"])
        t.append(0.1 + 0.2, "ok")
        path = tmp_path / "t.json"
        report.write_table(t, path, "json")
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back["columns"] == ["x", "status"]
        assert back["rows"] == [[0.3, "ok"]]  # pre-rounded to 9 significant digits

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

    @pytest.mark.parametrize(
        "add",
        [
            lambda t: t.append(1),
            # a ragged block: its second row is one cell too wide
            lambda t: t.extend(("k",), [(1,), (2, 3)], ()),
        ],
        ids=["append", "ragged-block"],
    )
    def test_row_arity_checked(self, add):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            add(t)
        assert t.rows == []

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

    @pytest.mark.parametrize(
        "command",
        [cli.cmd_schedule, cli.cmd_max_radius, cli.cmd_sweep_count, cli.cmd_totals, cli.cmd_simulate],
    )
    def test_schedule_table_matches_the_reference(self, command):
        # pincer and same-direction kinds, circular rows (Rtilde_i blank)
        # and spiral rows, plus a subcritical row of blanks
        cfg = RunConfig(
            protocol=tuple(ProtocolKind),
            n=(2, 8, 32),
            eps=(1e-4,),
            speed_mode=SpeedMode.DELTA_OWN,
            dV=(-0.5, 0.5, 2.0),
            bins=360,
        )
        table = command(cfg)
        if command is cli.cmd_schedule:
            tilde = table.columns.index("Rtilde_i")
            assert len(table.rows) >= 1000
            assert {type(row[tilde]) for row in table.rows} == {type(None), float}
            assert {row[-1] for row in table.rows} == {"ok", "SubcriticalSpeed"}
        assert report.render_csv(table) == csv_render(table.columns, table.rows)


# a block's key and status cells: any cell, and text that breaks a format
# or a CSV line if spliced in unescaped
_KEY_CELLS = _CELLS | st.sampled_from(["nan", "inf", "%s", "%%", ",", '"'])
# one body column: one cell type throughout, or a type that changes in a
# later row (a float format would write 1e9 as 1e+09 and fail on None)
_BODY_COLUMNS = [
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(),
    st.integers(),
    st.none(),
    st.booleans(),
    _FIELD_TEXT,
    st.floats(allow_nan=False).map(np.float64),
    st.floats(allow_nan=False) | st.integers(min_value=10**9),
    st.floats(allow_nan=False) | st.none(),
    st.floats(allow_nan=False) | st.floats(allow_nan=False).map(np.float64),
    _CELLS,
]


def _block_table(columns, *blocks):
    table = Table(columns)
    for head, body, tail in blocks:
        table.extend(head, body, tail)
    return table


@st.composite
def _block_tables(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    columns = draw(st.lists(_FIELD_TEXT | st.text(max_size=5), min_size=width, max_size=width))
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        cut = sorted(draw(st.lists(st.integers(min_value=0, max_value=width), min_size=2, max_size=2)))
        head = tuple(draw(st.lists(_KEY_CELLS, min_size=cut[0], max_size=cut[0])))
        tail = tuple(draw(st.lists(_KEY_CELLS, min_size=width - cut[1], max_size=width - cut[1])))
        kinds = [draw(st.sampled_from(_BODY_COLUMNS)) for _ in range(cut[1] - cut[0])]
        size = draw(st.sampled_from([0, 1, 1, 2, 3, 8]))
        as_row = draw(st.sampled_from([tuple, list]))
        body = [as_row(draw(kind) for kind in kinds) for _ in range(size)]
        blocks.append((head, body, tail))
    return _block_table(columns, *blocks)


_TWO_ROWS = [(1.5, "x"), (2.5, "y")]


class TestBlockTables:
    @given(_block_tables())
    @settings(max_examples=400, deadline=None)
    # equal keys that format differently: -0.0 == 0.0 and True == 1 == 1.0
    @example(_block_table(["k", "x", "t", "s"], ((0.0,), _TWO_ROWS, ("ok",)), ((-0.0,), _TWO_ROWS, ("ok",))))
    @example(
        _block_table(["k", "x", "t"], ((1,), _TWO_ROWS, ()), ((1.0,), _TWO_ROWS, ()), ((True,), _TWO_ROWS, ()))
    )
    # a column whose type changes in a later row
    @example(_block_table(["k", "x"], (("a",), [(1.5,), (10**9,)], ()), (("b",), [(1.5,), (None,)], ())))
    @example(_block_table(["x", "y"], ((), [(1.5, 2.5), (np.float64(0.1), 3.5)], ())))
    # key text that is a format, or is what a non-finite float formats as
    @example(_block_table(["k", "x", "t"], (("%s",), [[1.5], [2.5]], ("%%",)), (("nan",), [[1.5], [2.5]], ("inf",))))
    def test_matches_the_flat_references(self, table):
        rows = table.rows
        assert report.render_csv(table) == csv_render(table.columns, rows)
        assert _json_or_error(table) == _json_or_error(Table(table.columns, rows))


@st.composite
def _shared_block_tables(draw):
    # later blocks cut prefixes of one listing, the same row objects, under
    # other heads and tails, some beside new rows of the same column kinds
    width = draw(st.integers(min_value=1, max_value=5))
    columns = draw(st.lists(_FIELD_TEXT | st.text(max_size=5), min_size=width, max_size=width))
    cells = draw(st.integers(min_value=0, max_value=width))
    kinds = [draw(st.sampled_from(_BODY_COLUMNS)) for _ in range(cells)]

    def rows(size):
        return [tuple(draw(kind) for kind in kinds) for _ in range(size)]

    listing = rows(draw(st.integers(min_value=0, max_value=8)))
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        cut = draw(st.integers(min_value=0, max_value=len(listing)))
        body = listing if cut == len(listing) and draw(st.booleans()) else listing[:cut]
        body = body + rows(draw(st.sampled_from([0, 0, 1, 2])))
        left = draw(st.integers(min_value=0, max_value=width - cells))
        right = width - cells - left
        head = tuple(draw(st.lists(_KEY_CELLS, min_size=left, max_size=left)))
        tail = tuple(draw(st.lists(_KEY_CELLS, min_size=right, max_size=right)))
        blocks.append((head, body, tail))
    return _block_table(columns, *blocks)


_LISTING = [(1.5, "x"), (2.5, "y"), (3.5, "z")]
_NUMBERS = [(1.5,), (2.5,), (3.5,)]


class TestSharedRows:
    @given(_shared_block_tables())
    @settings(max_examples=400, deadline=None)
    # a shared row under a head that needs quoting, or a tail that is "nan"
    @example(_block_table(
        ["k", "x", "y", "t"],
        (("a",), _LISTING, ("ok",)), ((",",), _LISTING[:2], ("ok",)),
        (('"',), _LISTING, ("ok",)), (("b",), _LISTING[:2], ("nan",)),
    ))
    # shared rows beside new rows of another cell type in the same column
    @example(_block_table(
        ["k", "x"], (("a",), _NUMBERS, ()), (("b",), [*_NUMBERS[:2], (None,), (10**9,)], ()),
        (("c",), [*_NUMBERS, ("x",)], ()),
    ))
    @example(_block_table(["x"], ((), [(1.5,), (None,), ("",)], ()), ((), [(1.5,), (None,)], ())))
    # the shorter cut before the longer one, and after it
    @example(_block_table(["k", "x", "y", "t"], (("a",), _LISTING[:2], ("ok",)), (("b",), _LISTING, ("ok",))))
    @example(_block_table(["k", "x", "y", "t"], (("a",), _LISTING, ("ok",)), (("b",), _LISTING[:2], ("ok",))))
    def test_matches_the_flat_reference(self, table):
        assert report.render_csv(table) == csv_render(table.columns, table.rows)

    def test_each_distinct_row_is_formatted_once(self):
        class Counted:
            # a %s cell that counts the calls of its __str__
            def __init__(self, text):
                self.text, self.calls = text, 0

            def __str__(self):
                self.calls += 1
                return self.text

        listing = [(Counted(f"c{i}"), i + 0.5) for i in range(6)]
        table = _block_table(
            ["k", "c", "x", "t"],
            (("a",), listing[:3], ("ok",)), (("b",), listing, ("ok",)), (("c",), listing[:4], ("ok",)),
        )
        text = report.render_csv(table)
        assert [cell.calls for cell, _ in listing] == [1] * 6
        assert text == csv_render(table.columns, table.rows)


def _json_or_error(table):
    # a cell JSON cannot encode (np.int64 is written as its int) must fail
    # alike in both tables
    try:
        return report.render_json(table)
    except TypeError as exc:
        return str(exc)


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
            # pi*R0*VT/(n*r) overflows: no critical speed is a number
            "critical-speeds --R0 1e200 --r 1e-200 --n 2",
            "totals --R0 1e200 --r 1e-200 --speed-mode delta-own --dV 1",
            # Vs^2 and VT^2 underflow, so the spiral lateral speed is 0
            "critical-speeds --VT 1e-300",
            "max-radius --protocol spiral-pincer --Vs 1 --VT 1e-300",
            "totals --protocol spiral-same --Vs 1 --VT 1e-200",
            "simulate --protocol spiral-pincer --Vs 40 --bins 360 --VT 1e-300",
            # both squares overflow, so the spiral lateral speed is nan
            "simulate --protocol spiral-pincer --VT 1e160 --Vs 1e163 --bins 360 --mode defense",
            "critical-speeds --VT 1e160",
            # over simulator.MAX_BINS: memory grows with the bins
            "simulate --protocol circular-pincer --Vs 40 --bins 1000001",
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
            # 1 - lam rounds to 1: the spiral sensor would reach the centre
            # within one sweep (a zero, then a negative, innermost radius)
            ("--protocol spiral-same --Vs 1.0000001 --mode defense --bins 360", "--Vs"),
            (
                "--protocol spiral-same --Vs 0.3000687105634733 --VT 0.3 --R0 5 --r 0.5"
                " --mode defense --bins 360",
                "--Vs",
            ),
            # just above those speeds one sweep alone is past the budget
            ("--protocol spiral-pincer --Vs 1.0036 --mode defense --bins 360", "--bins"),
            # 9.4e7 ticks, under the budget, but 6e9 bin updates: 8 min if it ran
            ("--n 128 --Vs 300 --mode defense --bins 1000000 --cycles 6000", "--bins"),
            # 476 605 sweeps at 360 bins: counted, not listed, before it is refused
            ("--n 2 --Vs 1e5 --mode expansion --bins 360", "--max-sweeps"),
        ],
    )
    def test_simulate_past_the_tick_budget_fails_at_once(self, capsys, argv, flag):
        start = time.perf_counter()
        assert main(["simulate", "--protocol", "circular-pincer", *argv.split()]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and flag in err
        assert str(simulator.MAX_TICKS) in err

    def test_simulate_past_the_replay_budget_fails(self, capsys):
        # a hopeless defense of about 2e7 ticks, within the tick budget;
        # each bin the front brings to the centre replays its whole fall
        argv = "--protocol spiral-pincer --R0 5 --r 1 --VT 1 --n 2 --Vs 1.05 --mode defense"
        start = time.perf_counter()
        assert main(["simulate", *argv.split()]) == 2
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "--bins" in err

    @pytest.mark.parametrize("mode", ["defense", "auto"])
    def test_one_cycle_defense_is_refused(self, capsys, mode):
        # Vs 20 is below the circular pincer's Vc of about 31.4, so auto
        # defends too; the one sweep would be the warm-up, which reports
        # nothing, and the row would read ok with no margin
        argv = ["simulate", "--mode", mode, "--cycles", "1", "--bins", "360", "--Vs", "20"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--cycles" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["defense", "expansion"])
    def test_zero_cycles_keeps_its_error(self, capsys, mode):
        argv = ["simulate", "--mode", mode, "--cycles", "0", "--bins", "360", "--Vs", "40"]
        assert main(argv) == 1
        assert "need at least one defense cycle" in capsys.readouterr().err

    def test_one_cycle_expansion_ignores_cycles(self, capsys):
        argv = "simulate --mode expansion --cycles 1 --bins 360 --Vs 40 --max-sweeps 2"
        assert main(argv.split()) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",0,ok") for row in rows)

    def test_simulate_within_the_tick_budget_runs(self, capsys):
        argv = "--Vs 1e3 --mode expansion --max-sweeps 20"
        assert main(["simulate", "--protocol", "circular-pincer", *argv.split()]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 20 and all(row.endswith(",0,ok") for row in rows)

    def test_simulate_past_the_tick_budget_builds_no_phase(self, capsys, monkeypatch):
        # about 50 000 schedule steps: the plan is refused before any
        # sweep phase, with its numpy starts and directions, is built
        built = []
        sweep_starts = simulator._sweep_starts
        monkeypatch.setattr(
            simulator, "_sweep_starts", lambda *args: built.append(args) or sweep_starts(*args)
        )
        argv = "--Vs 1e4 --bins 360 --mode expansion"
        assert main(["simulate", "--protocol", "circular-pincer", *argv.split()]) == 2
        assert capsys.readouterr().err.startswith("numerical failure")
        assert built == []

    @pytest.mark.parametrize("protocol", ["circular-pincer", "spiral-pincer"])
    def test_schedule_past_a_stalled_radius_fails_at_once(self, capsys, monkeypatch, protocol):
        # eps lies below the rounding of the asymptote: the radius stops
        # moving short of its target, and no later sweep could move it
        monkeypatch.setattr(affine, "ITERATION_CAP", 100_000)
        assert main(["schedule", "--protocol", protocol, "--eps", "1e-14", "--Vs", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: the radius stalls at R=")
        assert "short of R_target=" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "command, protocol", [("totals", "circular-pincer"), ("sweep-count", "spiral-pincer")]
    )
    def test_counts_past_a_stalled_radius_fail_at_once(self, capsys, command, protocol):
        # the closed form alone would answer ok with a count the sweeps never reach
        assert main([command, "--protocol", protocol, "--eps", "1e-14", "--Vs", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: the radius stalls at R=")
        assert captured.out == ""

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
        row = csv_rows(out)[0]
        assert int(row["n"]) == 2
        assert float(row["V_LB"]) == pytest.approx(5.0 * math.pi, rel=1e-8)
        assert float(row["Vc_circ_pincer"]) == pytest.approx(10.0 * math.pi, rel=1e-8)
        assert float(row["Vc_spiral_pincer"]) == pytest.approx(
            spiral_pincer.critical_speed(REF), rel=1e-8
        )
        assert float(row["Vc_circ_same"]) == pytest.approx(10.0 * math.pi + 1.0, rel=1e-8)
        assert row["status"] == "ok"

    @pytest.mark.parametrize(
        "speeds, per_group",
        [
            (dict(Vs=(40.0, 60.0, 80.0)), 1),
            (dict(speed_mode=SpeedMode.DELTA_OWN, dV=(1.0, 2.0, 3.0)), 1),
            # the reference scenario as well as the group's own
            (dict(speed_mode=SpeedMode.DELTA_REFERENCE, dV=(1.0, 2.0, 3.0)), 2),
        ],
    )
    def test_each_scenario_is_validated_once_per_group(self, monkeypatch, speeds, per_group):
        validated = []
        validate = cli.validate
        monkeypatch.setattr(cli, "validate", lambda p: validated.append(p) or validate(p))
        cfg = RunConfig(protocol=tuple(ProtocolKind)[:2], n=(2, 4), eps=(0.1, 0.2), **speeds)
        table = cli.cmd_max_radius(cfg)
        groups = 2 * 2 * 2
        assert len(table.rows) == 3 * groups
        assert len(validated) == per_group * groups

    def test_subcritical_becomes_status_row(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["totals", "--protocol", "circular-pincer", "--Vs", "20", "--out", str(out)]
        ) == 0
        row = csv_rows(out)[0]
        assert row["status"] == "SubcriticalSpeed"
        assert row["T_total"] == ""

    def test_schedule_rows_match_sweep_count(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["schedule", "--protocol", "spiral-pincer", "--Vs", "17.2219",
             "--out", str(out)]
        ) == 0
        rows = csv_rows(out)
        want = spiral_pincer.sweep_count(REF, 17.2219)
        assert len(rows) == want
        first = rows[0]
        assert int(first["index"]) == 0
        assert float(first["R_i"]) == 100.0
        assert float(first["Rtilde_i"]) == 110.0

    def test_circular_schedule_has_blank_rtilde(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["schedule", "--protocol", "circular-pincer", "--Vs", "31.9159",
              "--out", str(out)])
        assert all(row["Rtilde_i"] == "" for row in csv_rows(out))

    def test_delta_own_speed_resolution(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["max-radius", "--protocol", "circular-pincer", "--speed-mode",
              "delta-own", "--dV", "10", "--out", str(out)])
        row = csv_rows(out)[0]
        assert float(row["Vs"]) == pytest.approx(
            circular_pincer.critical_speed(REF) + 10.0, rel=1e-8
        )

    def test_delta_reference_speed_resolution(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["max-radius", "--protocol", "spiral-pincer", "--n", "2,4",
              "--speed-mode", "delta-reference", "--ref-protocol", "circular-same",
              "--ref-n", "2", "--dV", "10", "--out", str(out)])
        base = same_direction.circular_same_critical_speed(REF)
        assert all(float(r["Vs"]) == pytest.approx(base + 10.0, rel=1e-8) for r in csv_rows(out))

    def test_totals_target_radius(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["totals", "--protocol", "circular-pincer", "--Vs", "31.9159",
              "--target-radius", "101", "--out", str(out)])
        row = csv_rows(out)[0]
        asym = circular_pincer.max_radius(REF, 31.9159)
        assert float(row["eps"]) == pytest.approx(asym - 101.0, rel=1e-8)
        assert float(row["R_max"]) == pytest.approx(101.0, rel=1e-8)

    def test_totals_target_beyond_asymptote(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["totals", "--protocol", "circular-pincer", "--Vs", "31.9159",
              "--target-radius", "200", "--out", str(out)])
        assert csv_rows(out)[0]["status"] == "NoExpansion"

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
        row = csv_rows(out)[0]
        assert row["status"] == status
        assert float(row["eps"]) == eps
        assert row["N_n"] == "" and row["T_total"] == ""

    def test_simulate_defense_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["simulate", "--protocol", "circular-pincer", "--Vs", "31.9159",
             "--mode", "defense", "--bins", "720", "--out", str(out)]
        ) == 0
        rows = csv_rows(out)
        assert len(rows) == 3  # default defense cycles
        row = rows[-1]
        assert row["mode"] == "defense"
        assert int(row["breaches"]) == 0
        assert float(row["min_margin"]) > 0.0
        assert int(row["index"]) == 2

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
        counts = {int(row["breaches"]) for row in csv_rows(out)}
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


class TestFloatRangeEdges:
    def test_spiral_guess_at_a_vanishing_sensor_is_exit_1(self, capsys):
        # log((R0+r)/(R0-r)) rounds to 0 here; the speed it implies is far
        # past any the per-sweep contraction can resolve
        assert main(["critical-speeds", "--R0", "1e12", "--r", "1e-5", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "contraction rounds to 1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["max-radius", "sweep-count", "schedule", "totals", "simulate"])
    @pytest.mark.parametrize("protocol", ["circular-pincer", "circular-same"])
    def test_asymptote_past_the_float_range_is_exit_1(self, capsys, command, protocol):
        # n*Vs*r/(2*pi*VT) overflows: no ok row with blank radii, no
        # math domain error from the log of the gap
        argv = [command, "--protocol", protocol, "--R0", "1e155", "--r", "1e154", "--Vs", "1e155"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""
