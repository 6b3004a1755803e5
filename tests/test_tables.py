import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from soilrct import cli, harness, tables
from soilrct.design import ObservedStudy
from soilrct.errors import SchemaError
from soilrct.population import (Population, PopulationParams,
                                generate_population)

COLUMNS = {"id": str, "k": int, "x": float}


def test_write_then_read_is_exact(tmp_path):
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 2.0 / 3.0]
    path = tmp_path / "t.csv"
    tables.write(path, list(COLUMNS),
                 [[f"p{i}" for i in range(len(values))],
                  range(len(values)), values])
    text = path.read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")
    ids, ks, xs = tables.read(path, COLUMNS)
    assert ids == [f"p{i}" for i in range(len(values))]
    assert ks == list(range(len(values)))
    # a float column is a C-contiguous float64 array, the others lists
    assert type(ids) is type(ks) is list
    assert xs.dtype == np.float64 and xs.flags.c_contiguous
    assert xs.tobytes() == np.array(values).tobytes()


def test_write_to_open_file_cells():
    buf = io.StringIO()
    tables.write(buf, ["a", "b", "c"], [[None, "x,y"], (1, ""), [0.5, 3.0]])
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


@pytest.mark.parametrize("ids, position", [
    ([], None), ([7], None), ([3, 1, 2], None), ([1, 1], 1),
    ([3, 1, 2, 1, 3], 3), (["a", "b", "c", "b", "a"], 3), ("ABCA", 3),
])
def test_first_repeat(ids, position):
    assert tables.first_repeat(ids) == position


def test_read_takes_a_header_function_and_a_lenient_parser(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("m,y0,y1\ninf,1,2\nnan,3,4\n")

    def check(header):
        if header[0] != "m":
            raise SchemaError("first column must be m")
        return [lambda cell: float(cell)] + [float] * (len(header) - 1)

    m, y0, y1 = tables.read(path, check)
    assert type(m) is list and m[0] == math.inf and math.isnan(m[1])
    assert (y0.tolist(), y1.tolist()) == ([1.0, 3.0], [2.0, 4.0])
    path.write_text("n,y0\n1,2\n")
    with pytest.raises(SchemaError, match=r"t\.csv:1: first column must be m"):
        tables.read(path, check)


def _lenient(header):
    # inf and nan pass in the third column; fewer parsers than columns
    # leave the columns past them out, as `zip` does
    if header[:1] != ["id"]:
        raise SchemaError("first column must be id")
    return [str, int, lambda cell: float(cell)][:len(header)]


#: header checks by name: the mapping, a function that refuses some
#: headers, and one that takes any header
_CHECKS = {"columns": COLUMNS, "lenient": _lenient,
           "any": lambda header: [str] * len(header)}


def _outcome(read, path, header_check):
    try:
        columns = read(path, header_check)
    except SchemaError as exc:
        return "error", str(exc)
    # a float64 array is compared bit for bit, which tells -0.0 from 0.0;
    # in a list, repr tells int from float and keeps nan comparable
    return "columns", [
        (column.dtype.str, column.flags.c_contiguous, column.tobytes())
        if isinstance(column, np.ndarray)
        else (type(column).__name__, [repr(v) for v in column])
        for column in columns]


_CELLS = st.one_of(
    st.sampled_from(["0", "1", "-2", "1.5", "-0.0", "1e3", "1_0", " 1", "1 ",
                     "inf", "nan", "-inf", "", "x", "\uff11", "1\x0c",
                     "\x00", "\x0b", "\x1c", "\u2028", '"', '"1"', "a,b"]),
    st.text(alphabet='01.-e,"\r\n x\x0b', max_size=4))


@st.composite
def _table_bytes(draw):
    header = draw(st.sampled_from(["id,k,x", "id,k,x", "id,k", "id,x,k",
                                   "id", "", "id,k,x,y"]))
    rows = draw(st.lists(
        st.one_of(st.lists(_CELLS, min_size=3, max_size=3),
                  st.lists(_CELLS, max_size=5)).map(",".join), max_size=6))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
                         min_size=len(rows) + 1, max_size=len(rows) + 1))
    text = "".join(line + end for line, end in zip([header] + rows, ends))
    if draw(st.booleans()):
        text = text[:-1]
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_table_bytes(), check=st.sampled_from(sorted(_CHECKS)))
@example(data=b"id,k,x\n0,1,1.0\n\n1,2,3\n", check="columns")
@example(data=b"id,k,x\n0,1,1.0\n\n", check="columns")
@example(data=b"id\n0\n\n", check="lenient")
@example(data=b"\nid\n0\n", check="any")
@example(data=b"\nid,k,x\n0,1,1.0\n", check="columns")
@example(data=b"id,k,x\n0,1\n1,2,3,4\n", check="columns")
@example(data=b'id,k,x\n"0",1,1.0\n', check="columns")
@example(data=b"id,k,x\r\n0,1,1.0\r\n", check="columns")
@example(data=b"id,k,x\n0,1,1.0\r1,2,3\n", check="columns")
@example(data=b"id,k,x\n0,1,1.0", check="columns")
@example(data=b"id,k,x\n", check="columns")
@example(data=b"", check="columns")
@example(data=b"id,k,x\n0,1_0,1_0\n", check="columns")
@example(data=b"id,k,x\n0, 1, 1\n", check="columns")
@example(data=b"id,k,x\n0,1,inf\n1,2,nan\n2,3,-inf\n", check="columns")
@example(data=b"id,k,x\n0,1,inf\n1,2,nan\n2,3,-inf\n", check="lenient")
@example(data=b"id,k,x\na\x00b,1,1\n", check="columns")
@example(data="id,k,x\n\x0b,1,1\x0c\n\x1c,2,\u20282\n".encode(),
         check="columns")
@example(data="id\na\x0bb\nc\x0cd\ne\x1cf\ng\u2028h\n".encode(),
         check="any")
@example(data=b"id,k,x\n" + b"a" * (csv.field_size_limit() + 1)
         + b",1,1\n", check="columns")
@example(data=b"id,k,x\n0,1,1.0\n1,2\n3,4,5,6\n", check="columns")
@example(data=b"id,k\n0\n1\n2,3\n", check="any")
@example(data=b"id\n0\n1\n2\n", check="any")
@example(data=b"id,k,x\n" + b"a" * (csv.field_size_limit() - 4)
         + b",1,1\n", check="columns")
@example(data="id,k,x\n".encode() + "\u00e9".encode()
         * (csv.field_size_limit() - 10) + b",1,1\n", check="columns")
@example(data=b"id,k,x\n0,1,\xff\n", check="columns")
@example(data=b"\xffid,k,x\n0,1,1\n", check="lenient")
@example(data=b"id,k,x\n0,1,1e308\n1,2,1e308\n", check="columns")
@example(data=b"id,k,x\n0,1,1e308\n1,2,-1e308\n2,3,1e308\n", check="columns")
@example(data=b"id,k,x\n0,1,1e308\n1,2,1e308\n2,3,-1e308\n", check="columns")
@example(data=b"id,k,x\n0,1,-0.0\n1,2,0.0\n2,3,-0\n", check="columns")
@example(data=b"id,k,x\n0,1,-0.0\n1,2,0.0\n2,3,-0\n", check="lenient")
def test_read_matches_the_strict_reader(tmp_path, data, check):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert (_outcome(tables.read, path, _CHECKS[check])
            == _outcome(tables._read_strict, path, _CHECKS[check]))


@pytest.mark.parametrize("rows", [
    [["0", 1, 1e308], ["1", 2, 1e308]],
    [["0", 1, 1e308], ["1", 2, 1e308], ["2", 3, -1e308]],
])
def test_plain_reader_takes_finite_cells_whose_sum_overflows(tmp_path, rows):
    path = tmp_path / "t.csv"
    tables.write(path, list(COLUMNS), zip(*rows))
    ids, ks, xs = tables._read_plain(path, COLUMNS)
    assert [ids, ks, xs.tolist()] == [list(c) for c in zip(*rows)]


def _csv_writer_table(header, columns) -> str:
    """`header` and the rows of `columns` as `csv.writer` writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format(v, tables.FLOAT_FMT) if isinstance(v, float) else v
         for v in row] for row in zip(*columns))
    return buf.getvalue()


_FLOATS = st.one_of(st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                     5e-324]))
_INTS = st.one_of(st.integers(), st.integers(2**63 - 2, 2**70),
                  st.integers(-2**70, -2**63 + 1))
_PLAIN_TEXT = st.text(alphabet="ab1 .-\x0b\u2028", max_size=4)
_QUOTED_TEXT = st.text(alphabet='ab,"\n\r', max_size=4)


def _column_values(text):
    """Column strategies by kind: wholly float, int or str, or mixed,
    so that each of `tables.write`'s formatters runs."""
    mixed = st.one_of(st.none(), st.booleans(), _FLOATS, _INTS, text,
                      _FLOATS.map(np.float64),
                      st.integers(-2**63, 2**63 - 1).map(np.int64))
    return st.sampled_from([_FLOATS, _INTS, text, mixed])


@st.composite
def _column_tables(draw):
    """A header of 1-4 cells and as many columns of 0-5 values each; the
    text cells of a table either never or sometimes need quoting."""
    text = draw(st.sampled_from([_PLAIN_TEXT, _QUOTED_TEXT]))
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 5))
    header = draw(st.lists(st.one_of(st.none(), st.booleans(), _INTS,
                                     _FLOATS, text),
                           min_size=width, max_size=width))
    columns = [draw(st.lists(draw(_column_values(text)), min_size=n_rows,
                             max_size=n_rows)) for _ in range(width)]
    return header, columns


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_column_tables())
@example(table=(["a"], [[""]]))
@example(table=(["a"], [[None]]))
@example(table=(["a", "b"], [["x,y", "1\r"], ["", '"']]))
@example(table=(["a"], [["b\nc"]]))
@example(table=([""], [[]]))
def test_write_matches_csv_writer(tmp_path, table):
    header, columns = table
    expected = _csv_writer_table(header, columns)
    buf = io.StringIO()
    tables.write(buf, header, columns)
    assert buf.getvalue() == expected
    path = tmp_path / "t.csv"
    tables.write(path, header, map(tuple, columns))
    with open(path, newline="") as fh:
        assert fh.read() == expected


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1, 2], [3]]),
    (["a", "b"], [[0.5], [1.5, 2.5]]),
    (["a", "b"], [[1, 2]]),
    (["a"], [[1], [2]]),
    ([], [[1]]),
])
def test_write_refuses_columns_unlike_the_header(header, columns):
    with pytest.raises(ValueError):
        tables.write(io.StringIO(), header, columns)


def test_soilrct_tables_take_the_fast_path(tmp_path, monkeypatch):
    """Every table soilrct writes is written and read back without the
    `csv` module, so a change that sends them to it fails here."""
    def refuse(*args, **kwargs):
        raise AssertionError("a soilrct table went through the csv module")

    monkeypatch.setattr(tables, "_read_strict", refuse)
    monkeypatch.setattr(csv, "writer", refuse)
    pop = generate_population(PopulationParams(
        mu_b=2.34, sd_b_across=0.47, mean_control_change=0.16,
        sd_control_change=0.37, tau=0.1, beta_mod=-0.5, sd_eps1=0.3,
        n_plots=40), 5)
    pop.to_csv(tmp_path / "pop.csv")
    assert np.array_equal(Population.from_csv(tmp_path / "pop.csv").po,
                          pop.po)
    rng = np.random.default_rng(2)
    b = rng.normal(2.3, 0.5, 12)
    study = ObservedStudy(baseline_obs=b, outcome_obs=b + rng.normal(size=12),
                          arm=np.repeat([0, 1], 6), source_index=np.arange(12))
    study.to_csv(tmp_path / "study.csv")
    assert np.array_equal(ObservedStudy.from_csv(tmp_path / "study.csv")
                          .outcome_obs, study.outcome_obs)

    runner = CliRunner()
    config = tmp_path / "run.yaml"
    config.write_text("grid: custom\ntaus: [0.0, 0.3]\nbeta_mods: [-0.5]\n"
                      "sd_eps1s: [0.0]\nsample_sizes: [10]\n"
                      "samples_per_plot: [5, inf]\nn_replicates: 10\n"
                      "population_size: 200\n")
    done = runner.invoke(cli.main, ["simulate", "--config", str(config),
                                    "--out", str(tmp_path)])
    assert done.exit_code == 0, done.output
    run_dir = tmp_path / done.output.strip().splitlines()[-1]
    assert harness.metrics_from_csv(run_dir / "metrics.csv")
    for name in ("power_curves.csv", "attenuation.csv"):
        assert tables.read(run_dir / name, lambda h: [str] * len(h))[0]

    # a budgeted request also reads a cost table in the README's format,
    # with integer costs (the DP) or `%.17g` floats (the LP)
    costs = (rng.integers(0, 5, (40, 2)).tolist(),
             rng.uniform(0, 5, (40, 2)).tolist())
    for cost in costs:
        tables.write(tmp_path / "costs.csv", ["plot_id", "cost0", "cost1"],
                     [range(40), *zip(*cost)])
        assert (tables.read(tmp_path / "costs.csv", lambda h: [float] * 3)[1]
                .tolist() == [float(c) for c, _ in cost])
        done = runner.invoke(cli.main, [
            "policy", str(tmp_path / "study.csv"), str(tmp_path / "pop.csv"),
            "--out", str(tmp_path / "pol"), "--costs",
            str(tmp_path / "costs.csv"), "--budget", "100"])
        assert done.exit_code == 0, done.output
        ids, arms = tables.read(tmp_path / "pol" / "regime.csv",
                                {"plot_id": int, "arm": int})
        assert ids == list(range(40)) and set(arms) <= {0, 1}
        summary = json.loads((tmp_path / "pol" / "policy.json").read_text())
        assert summary["realized_mean"] is not None
