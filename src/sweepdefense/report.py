"""Table emission for the CLI.

One table model, held in blocks of rows that share their first and last
cells (a grid point's key and status), and two byte-stable encodings.
Blocks may share row objects too, as the eps of one schedule do; CSV
formats and checks each distinct row of its many-row blocks once per
render, and joins a block from its rows' texts between its key's and
its status's text. Floats are cut to 9 significant digits in both
encodings: CSV through the format string, JSON by re-parsing the
formatted value, so the two encodings carry identical numbers and
repeated runs are byte-identical. Missing values (a blank cell in CSV,
null in JSON) stand for fields a row legitimately lacks, like the
spiral-only bookkeeping radius on circular rows.
"""

import csv
import json
import math
import operator
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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

    def lines(self, rows: Iterable[Sequence[Cell]], cells: int) -> Optional[List[str]]:
        """Each row's text, through one format; None if a column mixes
        cell types (its signature comes out short of cells)."""
        signature = tuple(t for column in zip(*rows) for t in set(map(type, column)))
        if len(signature) != cells:
            return None
        return list(map(self[signature].__mod__, map(tuple, rows)))


def _plain(text: str, lines: int, commas: int) -> bool:
    """Whether text is written as is: `lines` lines and `commas` commas,
    holding no quote, carriage return, or "nan" or "inf" (a non-finite
    float is blank)."""
    return (
        text.count("\n") == lines - 1 and text.count(",") == commas
        and "nan" not in text and "inf" not in text and '"' not in text and "\r" not in text
    )


def render_csv(table: Table) -> str:
    """CSV text, one line per row, written as the csv module writes it.

    Cells go through one % format string per tuple of cell types, built
    once per call: FLOAT_FORMAT for a float, so for np.float64 too, "%.0s"
    for None, "%s" otherwise. A one-row block is formatted as one whole
    row. In a longer block the head is formatted once, with a comma after
    it (H), and the tail once, with a comma before it (T); the block's
    text is H + (T + "\n" + H).join(row texts) + T, where a row's text is
    that of its body cells. Each distinct row object of such blocks is
    formatted and checked once per call, by the first that holds it, and
    its text kept by id() for the call, so blocks that share rows share
    their text; a block's texts are keyed only when a later many-row
    block comes, so the table's last one keys none. The output is one
    join of all pieces at the end, cached row texts among them, so no
    row text is copied before it.

    A block whose text that format may get wrong goes row by row, cell by
    cell, through csv.writer: a whole row, head, tail or newly formatted
    row whose text holds "nan" or "inf", a quote or a carriage return, or
    more line breaks or commas than its cells make (a cell holding one);
    newly formatted rows with a column of mixed cell types; and every row
    of a one-column table (where an empty line must be written as "").
    """
    parts: List[str] = []
    write = parts.append
    writer = csv.writer(SimpleNamespace(write=write), lineterminator="\n")
    isfinite = math.isfinite
    width = len(table.columns)
    formats = _Formats()
    # a body row's id() -> its cells' text; every row stays alive in the
    # table, so no id is reused while the call runs
    texts: Dict[int, str] = {}
    # the last many-row block's rows and texts, with its ids when they were
    # taken, until a later many-row block may read them from texts
    held: Optional[tuple] = None
    header = ((), (table.columns,), ())
    for head, body, tail in chain((header,), table.blocks):
        if not body:
            continue
        if len(body) == 1:
            row = (*head, *body[0], *tail)
            text = formats[tuple(map(type, row))] % row
            # _plain(text, 1, width - 1), inline: a call per row costs
            # tables of one-row blocks a few percent
            if (
                width > 1 and text.count(",") == width - 1 and "\n" not in text
                and "nan" not in text and "inf" not in text and '"' not in text and "\r" not in text
            ):
                write(text)
                write("\n")
                continue
        elif width > 1:
            cut = formats[tuple(map(type, head))] % tuple(head) + "," if head else ""
            end = "," + formats[tuple(map(type, tail))] % tuple(tail) if tail else ""
            cells = width - len(head) - len(tail)
            if held is not None:
                keys, rows, lines = held
                texts.update(zip(map(id, rows) if keys is None else keys, lines))
                held = None
            keys, new = None, body
            if texts:
                keys = list(map(id, body))
                if not texts.keys().isdisjoint(keys):
                    fresh = {key: row for key, row in zip(keys, body) if key not in texts}
                    new_keys, new = fresh.keys(), fresh.values()
            lines = formats.lines(new, cells) if new else []
            # H + T is checked as a line of its own: ",," where they meet,
            # so no cell's text spans the two
            if lines is not None and _plain(
                "\n".join([cut + end, *lines]), 1 + len(lines), width - cells + len(lines) * (cells - 1)
            ):
                if new is body:
                    held = keys, body, lines
                else:
                    texts.update(zip(new_keys, lines))
                    lines = list(map(texts.__getitem__, keys))
                # H, then each row's text and T + "\n" + H, the last of
                # which becomes T + "\n"
                write(cut)
                pieces = [end + "\n" + cut] * (2 * len(lines))
                pieces[::2] = lines
                pieces[-1] = end + "\n"
                parts += pieces
                continue
        for row in body:
            writer.writerow([
                (FLOAT_FORMAT % v if isfinite(v) else "") if isinstance(v, float)
                else "" if v is None else str(v)
                for v in (*head, *row, *tail)
            ])
    return "".join(parts)


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


def meta_path(out: Union[str, Path]) -> Path:
    return Path(str(out) + ".meta.json")


def write_meta(out: Union[str, Path], meta: dict) -> None:
    """Sidecar recording how a table was produced.

    Holds the resolved config and library version only; nothing
    time-dependent, so reruns stay byte-identical.
    """
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    meta_path(out).write_text(text, encoding="utf-8")
