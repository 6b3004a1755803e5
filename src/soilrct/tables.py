"""The CSV format of every table soilrct reads or writes.

A table is comma-separated text: one header line, then one line per row,
each ending in `\\n`.  Floats are written with `%.17g`, which round-trips
IEEE doubles exactly, and `None` as an empty cell.  Reading checks the
header, the width of every row and every numeric cell, and reports the
first fault as a `SchemaError` naming the file and line.
"""

import csv
import math
import os

from .errors import SchemaError

#: Format spec that round-trips IEEE doubles through text exactly.
FLOAT_FMT = ".17g"


def write(path_or_file, header, rows) -> None:
    """Write `header` and then `rows` to a path or an open text file: a
    float cell with `FLOAT_FMT`, `None` as an empty cell, others by `str`."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", newline="") as fh:
            write(fh, header, rows)
        return
    writer = csv.writer(path_or_file, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format(v, FLOAT_FMT) if isinstance(v, float) else v for v in row]
        for row in rows)


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
        with open(path, newline="") as fh:
            reader = csv.reader(fh, strict=True)
            header = next(reader, [])
            if callable(header_check):
                parsers = list(header_check(header))
            elif header == list(header_check):
                parsers = list(header_check.values())
            else:
                raise SchemaError(
                    f"expected header {','.join(header_check)}")
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
