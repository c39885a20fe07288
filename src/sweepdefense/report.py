"""Table emission and ingestion for the CLI.

One table model, held in blocks of rows that share their first and last
cells (a grid point's key and status), and two byte-stable encodings.
Floats are cut to 9 significant digits in both: CSV through the format
string, JSON by re-parsing the formatted value, so the two encodings
carry identical numbers and repeated runs are byte-identical. Missing
values (a blank cell in CSV, null in JSON) stand for fields a row
legitimately lacks, like the spiral-only bookkeeping radius on circular
rows.
"""

import csv
import io
import json
import math
import operator
from itertools import chain
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ConfigError

FLOAT_FORMAT = "%.9g"

Cell = Union[int, float, str, None]


class Table:
    """Columns, and rows kept as blocks (head, body, tail).

    Each row of a block is (*head, *cells, *tail) for cells in body, so
    the cells one grid point shares (its key and status) are held once
    for all its rows. rows is derived: a new list of lists on each read.
    """

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Cell]] = ()):
        self.columns = list(columns)
        self.blocks: List[Tuple[Sequence[Cell], Sequence[Sequence[Cell]], Sequence[Cell]]] = []
        self.extend((), list(rows), ())

    def append(self, *values: Cell) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} cells, table has {len(self.columns)} columns")
        self.blocks.append(((), (values,), ()))

    def extend(self, head: Sequence[Cell], body: Sequence[Sequence[Cell]], tail: Sequence[Cell]) -> None:
        """Add one row per entry of body, each between head and tail.

        body is kept as given, not copied; every entry must hold the cells
        the columns leave between head and tail, or nothing is added.
        """
        width = len(self.columns) - len(head) - len(tail)
        for cells in body:
            if len(cells) != width:
                raise ValueError(f"block row has {len(cells)} cells between head and tail, not {width}")
        self.blocks.append((head, body, tail))

    def __repr__(self) -> str:
        return f"Table({self.columns!r}, blocks={self.blocks!r})"

    @property
    def rows(self) -> List[List[Cell]]:
        return [[*head, *cells, *tail] for head, body, tail in self.blocks for cells in body]


def _json_cell(value: Cell) -> Cell:
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(FLOAT_FORMAT % value)
    return value


def _cell_format(cell_type: type) -> str:
    if issubclass(cell_type, float):
        return FLOAT_FORMAT
    return "%.0s" if cell_type is type(None) else "%s"


class _Formats(dict):
    """The % format of each tuple of cell types, built on first use."""

    def __missing__(self, signature: Tuple[type, ...]) -> str:
        fmt = self[signature] = ",".join(map(_cell_format, signature))
        return fmt


def render_csv(table: Table) -> str:
    """CSV text, one line per row, written as the csv module writes it.

    Each block's lines come from one % format string of cell formats
    (FLOAT_FORMAT for a float, so for np.float64 too, "%.0s" for None,
    "%s" otherwise), built once per tuple of cell types. A one-row block
    is formatted as one whole row. A longer one needs one type per body
    column; its head and tail are formatted once, %-escaped and spliced
    into the row format, and its lines are joined in one pass. A block
    whose text that format may get wrong goes row by row, cell by cell,
    through csv.writer: text holding "nan" or "inf" (a non-finite float
    is blank), a quote or a carriage return, more line breaks or commas
    than its shape makes (a cell holding one), or one column (where an
    empty line must be written as "").
    """
    buf = io.StringIO()
    write = buf.write
    writer = csv.writer(buf, lineterminator="\n")
    isfinite = math.isfinite
    width = len(table.columns)
    formats = _Formats()
    header = ((), (table.columns,), ())
    for head, body, tail in chain((header,), table.blocks):
        rows = len(body)
        if rows == 1:
            row = (*head, *body[0], *tail)
            text = formats[tuple(map(type, row))] % row
            one_line_each = "\n" not in text
        else:
            # a column of mixed types leaves the signature short
            signature = tuple(t for column in zip(*body) for t in set(map(type, column)))
            text = ""
            if len(signature) == width - len(head) - len(tail):
                fmt = formats[signature]
                if head:
                    fmt = (formats[tuple(map(type, head))] % tuple(head)).replace("%", "%%") + "," + fmt
                if tail:
                    fmt += "," + (formats[tuple(map(type, tail))] % tuple(tail)).replace("%", "%%")
                text = "\n".join(map(fmt.__mod__, map(tuple, body)))
            one_line_each = text.count("\n") == rows - 1
        if (
            one_line_each and text.count(",") == rows * (width - 1) and width > 1
            and "nan" not in text and "inf" not in text and '"' not in text and "\r" not in text
        ):
            write(text)
            write("\n")
            continue
        for row in body:
            writer.writerow([
                (FLOAT_FORMAT % v if isfinite(v) else "") if isinstance(v, float)
                else "" if v is None else str(v)
                for v in (*head, *row, *tail)
            ])
    return buf.getvalue()


def render_json(table: Table) -> str:
    """JSON text; an integer cell of a type json does not know, like
    numpy's int64, is written as its int, as CSV writes its digits."""
    doc = {
        "columns": table.columns,
        "rows": [[_json_cell(v) for v in row] for row in table.rows],
    }
    return json.dumps(doc, indent=2, default=operator.index) + "\n"


def render(table: Table, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(table)
    if fmt == "json":
        return render_json(table)
    raise ConfigError(f"format={fmt!r}: expected csv or json")


def write_table(table: Table, path: Union[str, Path], fmt: str) -> None:
    Path(path).write_text(render(table, fmt), encoding="utf-8")


def _parse_cell(text: str) -> Cell:
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: Union[str, Path], fmt: Optional[str] = None) -> Table:
    """Read back a table this module wrote.

    The format is inferred from the file suffix unless given. CSV cells
    come back as int, float or str by narrowest fit; blank means None.
    """
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix == ".json" else "csv"
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return Table(columns=list(doc["columns"]), rows=[list(r) for r in doc["rows"]])
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        try:
            columns = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file, expected a header row")
        rows = [[_parse_cell(c) for c in row] for row in reader]
        return Table(columns=columns, rows=rows)
    raise ConfigError(f"format={fmt!r}: expected csv or json")


def meta_path(out: Union[str, Path]) -> Path:
    return Path(str(out) + ".meta.json")


def write_meta(out: Union[str, Path], meta: dict) -> None:
    """Sidecar recording how a table was produced.

    Holds the resolved config and library version only; nothing
    time-dependent, so reruns stay byte-identical.
    """
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    meta_path(out).write_text(text, encoding="utf-8")
