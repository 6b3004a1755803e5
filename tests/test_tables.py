import io
import math

import pytest

from soilrct import tables
from soilrct.errors import SchemaError

COLUMNS = {"id": str, "k": int, "x": float}


def test_write_then_read_is_exact(tmp_path):
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 2.0 / 3.0]
    path = tmp_path / "t.csv"
    tables.write(path, list(COLUMNS),
                 [[f"p{i}", i, v] for i, v in enumerate(values)])
    text = path.read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")
    ids, ks, xs = tables.read(path, COLUMNS)
    assert ids == [f"p{i}" for i in range(len(values))]
    assert ks == list(range(len(values)))
    assert [v.hex() for v in xs] == [v.hex() for v in values]


def test_write_to_open_file_cells():
    buf = io.StringIO()
    tables.write(buf, ["a", "b", "c"], [[None, 1, 0.5], ("x,y", "", 3.0)])
    assert buf.getvalue() == 'a,b,c\n,1,0.5\n"x,y",,3\n'


@pytest.mark.parametrize("text, where", [
    ("id,x,k\n0,1,1.0\n", "t.csv:1: expected header id,k,x"),
    ("", "t.csv:1: expected header id,k,x"),
    ("id,k,x\n", "t.csv: no data rows"),
    ("id,k,x\n0,1,1.0\n1,2\n", "t.csv:3: 2 columns, expected 3"),
    ("id,k,x\n0,1,1.0\n1,2.5,1.0\n", "t.csv:3: column k:"),
    ("id,k,x\n0,1,1.0\n1,2,\n", "t.csv:3: column x:"),
    ("id,k,x\n0,1,1.0\n1,2,3\n2,3,nan\n", "t.csv:4: column x: 'nan' is not"),
    ("id,k,x\n0,1,-inf\n", "t.csv:2: column x: '-inf' is not finite"),
    ('id,k,x\n0,1,"1.0\n', "t.csv:2: unexpected end of data"),
])
def test_read_rejects_with_file_and_line(tmp_path, text, where):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        tables.read(path, COLUMNS)
    assert str(err.value).startswith(str(tmp_path / where))


def test_read_header_function_and_lenient_parser(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("m,y0,y1\ninf,1,2\nnan,3,4\n")

    def check(header):
        if header[0] != "m":
            raise SchemaError("first column must be m")
        return [lambda cell: float(cell)] + [float] * (len(header) - 1)

    m, y0, y1 = tables.read(path, check)
    assert m[0] == math.inf and math.isnan(m[1])
    assert (y0, y1) == ([1.0, 3.0], [2.0, 4.0])
    path.write_text("n,y0\n1,2\n")
    with pytest.raises(SchemaError, match=r"t\.csv:1: first column must be m"):
        tables.read(path, check)
