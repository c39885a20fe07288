"""Table emission and ingestion for the CLI.

One table model, two byte-stable encodings. Floats are cut to 9
significant digits in both: CSV through the format string, JSON by
re-parsing the formatted value, so the two encodings carry identical
numbers and repeated runs are byte-identical. Missing values (a blank
cell in CSV, null in JSON) stand for fields a row legitimately lacks,
like the spiral-only bookkeeping radius on circular rows.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import List, Optional, Union

from .errors import ConfigError

FLOAT_FORMAT = "%.9g"

Cell = Union[int, float, str, None]


@dataclass
class Table:
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)

    def append(self, *values: Cell) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))


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


def _plain_line(line: str, cells: int) -> bool:
    """Whether the csv module writes these joined cells as they are."""
    return (
        bool(line)
        and line.count(",") == cells - 1
        and '"' not in line
        and "\r" not in line
        and "\n" not in line
    )


def render_csv(table: Table) -> str:
    """CSV text, one line per row, written as the csv module writes it.

    Each row goes through one % format string, built once per tuple of
    cell types and kept for the call: FLOAT_FORMAT for a float (and so
    for np.float64), "%.0s" for None, "%s" for anything else. A line
    that format may get wrong goes cell by cell instead: one holding
    "nan" or "inf" (a non-finite float is a blank cell), a quote or a
    line break, one with a comma count other than len(row) - 1 (a cell
    holding a comma), or an empty line. There the cells are formatted
    one at a time and joined, and only a line the csv module would write
    differently (quoted, or a lone empty cell written as "") goes
    through csv.writer.
    """
    buf = io.StringIO()
    write = buf.write
    writer = csv.writer(buf, lineterminator="\n")
    isfinite = math.isfinite
    formats = {}
    for row in chain((table.columns,), table.rows):
        row = tuple(row)
        signature = tuple(map(type, row))
        fmt = formats.get(signature)
        if fmt is None:
            fmt = formats[signature] = ",".join(map(_cell_format, signature))
        line = fmt % row
        if "nan" not in line and "inf" not in line and _plain_line(line, len(row)):
            write(line)
            write("\n")
            continue
        cells = [
            (FLOAT_FORMAT % v if isfinite(v) else "") if isinstance(v, float)
            else "" if v is None else str(v)
            for v in row
        ]
        line = ",".join(cells)
        if _plain_line(line, len(cells)):
            write(line)
            write("\n")
        else:
            writer.writerow(cells)
    return buf.getvalue()


def render_json(table: Table) -> str:
    doc = {
        "columns": table.columns,
        "rows": [[_json_cell(v) for v in row] for row in table.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


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
