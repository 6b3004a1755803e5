"""The CSV format of every table soilrct reads or writes.

A table is comma-separated text: one header line, then one line per row,
each ending in `\\n`.  Both `read` and `write` hold a table as columns,
one sequence per header cell.  Floats are written with `%.17g`, which
round-trips IEEE doubles exactly, and `None` as an empty cell; a column
of floats only, or of ints and strs only, is formatted with one `map`.
Reading checks the header, the width of every row and every numeric
cell, and reports the first fault as a `SchemaError` naming the file and
line.

Every table soilrct writes itself (populations, studies, `regime.csv`,
the `simulate` tables) needs no quoting, and is read and written by
plain string splits and joins.  Anything else, or any fault at all,
goes through the `csv` module: a table with a quote, a `\\r`, a blank
line, a ragged row or no final `\\n` is read by the strict reader, which
raises every `SchemaError`, and a cell that needs quoting is written by
`csv.writer`.

This is the one module that reads a CSV header: `read` checks it, and
`read_header` returns it alone, for a caller that picks the kind of a
table by its header.
"""

import csv
import math
import os
from itertools import repeat

from .errors import SchemaError

#: Format spec that round-trips IEEE doubles through text exactly.
FLOAT_FMT = ".17g"


def write(path_or_file, header, columns) -> None:
    """Write `header` and then the table whose columns are `columns`, one
    sequence per header cell, to a path or an open text file: a float
    cell with `FLOAT_FMT`, `None` as an empty cell, others by `str`.

    Raises ValueError when the columns differ in length or are not as
    many as the header cells.
    """
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", newline="") as fh:
            write(fh, header, columns)
        return
    header = ["" if v is None else str(v) for v in header]
    cells = list(map(_format_column, columns))
    if len(cells) != len(header) or len(set(map(len, cells))) > 1:
        raise ValueError(f"{len(header)} header cells and columns of "
                         f"lengths {list(map(len, cells))}")
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    text = "\n".join(lines) + "\n"
    # a cell needs quoting if it holds a quote, a comma or a line end, or
    # if it is the only cell of its row and empty; the counts find commas
    # and line ends, and an empty line sends an empty row to `csv.writer`
    if ('"' in text or "\r" in text or "" in lines
            or text.count("\n") != len(lines)
            or text.count(",") != (len(header) - 1) * len(lines)):
        csv.writer(path_or_file, lineterminator="\n").writerows(
            [header, *zip(*cells)])
    else:
        path_or_file.write(text)


def _format_column(column) -> list:
    """The cells of one column, by one `map` where every value is a float,
    or every value an int or a str, and by a rule per cell otherwise."""
    types = set(map(type, column))
    if types == {float}:
        return list(map(float.__format__, column, repeat(FLOAT_FMT)))
    if types <= {int, str}:
        return list(map(str, column))
    return [format(v, FLOAT_FMT) if isinstance(v, float)
            else "" if v is None else str(v) for v in column]


def read(path, header_check) -> list:
    """The data columns of the table at `path`, one list per column.

    `header_check` is either a mapping from each expected column name to
    its parser, or a function that takes the header row and returns one
    parser per column, raising `SchemaError` for a header it refuses.  A
    parser takes the cell text and returns its value or raises
    `ValueError`; `str` keeps the text.  A `float` column must hold finite
    numbers: give another parser where `inf` or `nan` is a legitimate
    value.  A table with no data rows is refused.
    """
    try:
        columns = _read_plain(path, header_check)
    except ValueError:  # SchemaError and UnicodeDecodeError among them
        columns = None
    return _read_strict(path, header_check) if columns is None else columns


def read_header(path):
    """The header row of the table at `path` as the strict `csv` reader
    sees it, or None if the file is empty or that reader cannot read its
    first row."""
    try:
        with open(path, newline="") as fh:
            return next(csv.reader(fh, strict=True), None)
    except (csv.Error, ValueError):  # UnicodeDecodeError among them
        return None


def _parsers(header, header_check) -> list:
    if callable(header_check):
        return list(header_check(header))
    if header == list(header_check):
        return list(header_check.values())
    raise SchemaError(f"expected header {','.join(header_check)}")


def _read_plain(path, header_check):
    """`read` by string splits, or None where the strict reader is needed:
    for a quote, a `\\r`, a blank line, a row of the wrong width, no final
    `\\n`, a line past the `csv` field limit, no data rows or a non-finite
    `float` cell.  Raises ValueError where the strict reader may answer
    otherwise."""
    with open(path, newline="") as fh:
        text = fh.read()
    # `csv.reader` refuses \x00 before Python 3.11
    if ('"' in text or "\r" in text or "\x00" in text
            or not text.endswith("\n") or text.startswith("\n")
            or "\n\n" in text):
        return None
    head, _, body = text[:-1].partition("\n")
    header = head.split(",")
    parsers = _parsers(header, header_check)
    # `split("\n")`, not `splitlines()`: like `csv.reader`, it keeps
    # \x0b, \x0c, \x1c and U+2028 inside a cell
    lines = body.split("\n")
    width = len(header)
    if (not body
            or max(len(head), max(map(len, lines))) > csv.field_size_limit()
            or set(map(str.count, lines, repeat(","))) != {width - 1}):
        return None
    cells = body.replace("\n", ",").split(",")
    columns = []
    for j, parse in zip(range(width), parsers):
        column = cells[j::width]
        if parse is not str:
            column = list(map(parse, column))
            # a float sum is finite only if every term is; a sum of
            # finite terms can still overflow, so then test each cell
            if parse is float and not (math.isfinite(sum(column))
                                       or all(map(math.isfinite, column))):
                return None
        columns.append(column)
    return columns


def _read_strict(path, header_check) -> list:
    """`read` by `csv.reader`, which reports the first fault of any table."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, strict=True)
            header = next(reader, [])
            parsers = _parsers(header, header_check)
            rows = list(reader)
    except SchemaError as exc:
        raise SchemaError(f"{path}:1: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(header)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise SchemaError(f"{path}:{lineno}: {len(row)} columns, "
                              f"expected {width}")
    columns = []
    for name, parse, cells in zip(header, parsers, zip(*rows)):
        if parse is str:
            columns.append(list(cells))
            continue
        values = []
        try:
            for cell in cells:
                values.append(parse(cell))
        except ValueError as exc:
            raise SchemaError(f"{path}:{len(values) + 2}: column {name}: "
                              f"{exc}") from exc
        if parse is float and not all(map(math.isfinite, values)):
            lineno = 2 + [math.isfinite(v) for v in values].index(False)
            raise SchemaError(f"{path}:{lineno}: column {name}: "
                              f"{cells[lineno - 2]!r} is not finite")
        columns.append(values)
    return columns
