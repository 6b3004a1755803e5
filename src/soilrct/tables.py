"""The CSV format of every table soilrct reads or writes.

A table is comma-separated UTF-8 text, whatever the locale: one header
line, then one line per row, each ending in `\\n`.  Both `read` and
`write` hold a table as columns, one sequence per header cell.  Floats
are written with `%.17g`, which round-trips IEEE doubles exactly, and
`None` as an empty cell; a column of floats only, or of ints and strs
only, is formatted with one `map`.  `read` reports the first fault as a
`SchemaError` naming the file: a byte that is not UTF-8 by its offset,
or else the line of a bad header, row width or numeric cell.

Every table soilrct writes itself (populations, studies, `regime.csv`,
the `simulate` tables) needs no quoting, and is read and written by
plain string splits and joins.  The plain reader checks a table's shape
by one numpy scan of its UTF-8 bytes, with no Python work per line: the
offsets of its commas and line ends must be `width` per line, every
`width`-th of them a line end and no other, and no line may be longer
in bytes than the `csv` field limit.  Anything else, or any fault at all,
goes through the `csv` module: a table with a quote, a `\\r`, a blank
line, a ragged row or no final `\\n` is read by the strict reader, which
raises every `SchemaError`, and a cell that needs quoting is written by
`csv.writer`.

`read` is the one reader of a CSV header: it hands the header to the
caller's check, which may pick the kind of the table by it.  This is also
the one module that turns a row into a line: the library types refuse a
table's rows by position, and `refusal` names the file and the line,
`row + 2`, of that refusal.
"""

import csv
import io
import os
from itertools import repeat

import numpy as np

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
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
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
    """The data columns of the table at `path`: a C-contiguous float64
    array for each column parsed by `float`, a list for every other one.

    `header_check` is either a mapping from each expected column name to
    its parser, or a function that takes the header row and returns one
    parser per column, raising `SchemaError` for a header it refuses.  A
    parser takes the cell text and returns its value or raises
    `ValueError`; `str` keeps the text.  A `float` column must hold finite
    numbers: give another parser where `inf` or `nan` is a legitimate
    value.  A table with no data rows is refused.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    try:
        columns = _read_plain(data, text, header_check)
    except ValueError:  # SchemaError among them
        columns = None
    return (_read_strict(path, text, header_check) if columns is None
            else columns)


def first_repeat(ids):
    """The position of the first of `ids` that repeats an earlier one, or
    None if they are distinct."""
    if len(set(ids)) < len(ids):
        seen = set()
        for i, value in enumerate(ids):
            if value in seen:
                return i
            seen.add(value)
    return None


def refusal(path, exc) -> SchemaError:
    """The `SchemaError` for a library type's refusal `exc` of the rows
    read from the table at `path`: `<path>:<line>: <exc>`, where the line
    of the refused row `exc.row` is `row + 2`, or `<path>: <exc>` when
    `exc` names no row."""
    row = getattr(exc, "row", None)
    where = path if row is None else f"{path}:{row + 2}"
    return SchemaError(f"{where}: {exc}")


def _parsers(header, header_check) -> list:
    if callable(header_check):
        return list(header_check(header))
    if header == list(header_check):
        return list(header_check.values())
    raise SchemaError(f"expected header {','.join(header_check)}")


def _read_plain(data, text, header_check):
    """`read` by string splits, or None where the strict reader is needed:
    for a quote, a `\\r`, a blank line, a row of the wrong width, no final
    `\\n`, a line past the `csv` field limit, no data rows or a non-finite
    `float` cell.  Raises ValueError where the strict reader may answer
    otherwise.

    The shape is checked by one numpy scan of `data`, the UTF-8 bytes of
    `text`, in which `,` and `\\n` are single bytes: a table of `width`
    columns is plain only if its separators are `width` per line and
    every `width`-th of them, and no other, ends a line.  Only `\\n` ends
    a line, as for `csv.reader`, so \\x0b, \\x0c, \\x1c and U+2028 stay
    inside a cell.  A line's length is measured in bytes, never fewer
    than its characters, so the field limit test can only send more
    tables to the strict reader."""
    if ('"' in text or "\r" in text or not text.endswith("\n")
            or text.startswith("\n") or "\n\n" in text):
        return None
    head, _, body = text[:-1].partition("\n")
    header = head.split(",")
    parsers = _parsers(header, header_check)
    width = len(header)
    raw = np.frombuffer(data, np.uint8)
    is_end = raw == ord("\n")
    seps = np.flatnonzero(is_end | (raw == ord(",")))
    # the offset of each line's end, if every line holds width - 1 commas
    ends = seps[width - 1::width]
    if (not body or seps.size != width * ends.size
            or np.count_nonzero(is_end) != ends.size
            or not is_end[ends].all()
            or np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit()):
        return None
    cells = body.replace("\n", ",").split(",")
    columns = []
    for j, parse in zip(range(width), parsers):
        column = cells[j::width]
        if parse is float:
            column = np.fromiter(map(float, column), np.float64, len(column))
            if not np.isfinite(column).all():
                return None
        elif parse is not str:
            column = list(map(parse, column))
        columns.append(column)
    return columns


def _read_strict(path, text, header_check) -> list:
    """`read` by `csv.reader`, which reports the first fault of any table."""
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        header = next(reader, [])
        parsers = _parsers(header, header_check)
        rows = list(reader)
    except SchemaError as exc:
        raise SchemaError(f"{path}:1: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(header)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise SchemaError(f"{path}:{lineno}: {len(row)} columns, "
                              f"expected {width}")
    columns = []
    for name, parse, cells in zip(header, parsers, zip(*rows)):
        values = []
        try:
            for cell in cells:
                values.append(parse(cell))
        except ValueError as exc:
            raise SchemaError(f"{path}:{len(values) + 2}: column {name}: "
                              f"{exc}") from exc
        if parse is float:
            values = np.array(values, dtype=np.float64)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise SchemaError(f"{path}:{bad[0] + 2}: column {name}: "
                                  f"{cells[bad[0]]!r} is not finite")
        columns.append(values)
    return columns
