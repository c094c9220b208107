import csv
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arraycov.coverage import CoverageResult, load_cdf_csv, save_cdf_csv
from arraycov.deembed import PortLossTable, load_loss_csv, save_loss_csv
from arraycov.grid import make_regular_grid
from arraycov.errors import ConfigError
from arraycov.ioutil import config_value, format_float, write_csv
from arraycov.pattern import ElementPatternSet, load_pattern_csv, save_pattern_csv

TINY = np.finfo(np.float64).tiny

# repr has an exponent below 1e-4 and from 1e16 up, and format_float
# has none; integers up to 2^53 are exact
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-4, 1e-4),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
    st.floats(-TINY, TINY),
    st.integers(-(2**53), 2**53).map(float),
    st.sampled_from([0.0, -0.0, 1e-4, -1e-4, 1e16, 5e-324, TINY, 2.0**53]),
)
all_floats = finite_floats | st.sampled_from([math.nan, math.inf, -math.inf])

# labels with csv's delimiter, quote and line-end characters, and spaces
LABEL_CHARS = ' ab,"\r\n\t\'é'
labels = st.text(alphabet=LABEL_CHARS, max_size=6)
# non-empty labels with no leading or trailing whitespace, by construction:
# one non-whitespace character, or two around any draw from the alphabet
_edge = st.sampled_from([c for c in LABEL_CHARS if not c.isspace()])
_inner = st.text(alphabet=LABEL_CHARS, max_size=4)
stripped_labels = _edge | st.tuples(_edge, _inner, _edge).map("".join)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def reference_csv(path, header, rows):
    # the row-by-row writer that write_csv replaces
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else format_float(v) for v in row])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(all_floats, min_size=1, max_size=40))
def test_every_float_cell_is_format_float(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["v", "w"], [values, np.array(values[::-1])])
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "v,w" and lines[-1] == ""
    cells = [line.split(",") for line in lines[1:-1]]
    assert cells == [[format_float(v), format_float(w)] for v, w in zip(values, values[::-1])]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(all_floats, labels, finite_floats), min_size=1, max_size=30))
def test_write_csv_matches_csv_writer(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("csv")
    header = ["x", "label", "y"]
    write_csv(tmp / "columns.csv", header, [list(c) for c in zip(*rows)])
    reference_csv(tmp / "rows.csv", header, rows)
    assert (tmp / "columns.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def test_label_cells_quoted_as_csv_writer(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["feed", "v"], [["a,b", 'q"x', " s ", "", "l\nm"], [1.0] * 5])
    assert path.read_bytes() == (
        b'feed,v\r\n"a,b",1.0\r\n"q""x",1.0\r\n s ,1.0\r\n,1.0\r\n"l\nm",1.0\r\n'
    )


@settings(max_examples=60, deadline=None)
@given(
    steps=st.sampled_from([(30.0, 90.0), (45.0, 120.0), (180.0 / 7, 360.0 / 7)]),
    n_feeds=st.integers(1, 3),
    data=st.data(),
)
def test_pattern_csv_round_trip_bit_exact(tmp_path_factory, steps, n_feeds, data):
    grid = make_regular_grid(*steps)
    parts = data.draw(arrays(np.float64, (n_feeds, len(grid), 2, 2), elements=finite_floats))
    original = ElementPatternSet(
        grid, tuple(f"f{i}" for i in range(n_feeds)), parts[..., 0] + 1j * parts[..., 1]
    )
    path = tmp_path_factory.mktemp("csv") / "pattern.csv"
    save_pattern_csv(original, path)
    loaded = load_pattern_csv(path)
    assert loaded.feeds == original.feeds
    same_bits(loaded.grid.theta_deg, grid.theta_deg)
    same_bits(loaded.grid.phi_deg, grid.phi_deg)
    same_bits(loaded.gains.view(np.float64), original.gains.view(np.float64))


@settings(max_examples=100, deadline=None)
@given(
    gains=st.lists(finite_floats, min_size=1, max_size=30),
    low=st.booleans(),
    # one step per gain, and one for the -inf a low CDF starts with
    steps=st.lists(st.floats(1e-3, 1e3), min_size=31, max_size=31),
)
# gains whose difference overflows
@example(gains=[-1.7e308, 1.7e308], low=False, steps=[1.0] * 31)
# 30 distinct gains and the -inf
@example(gains=[float(i) for i in range(30)], low=True, steps=[1.0] * 31)
def test_cdf_csv_round_trip_bit_exact(tmp_path_factory, gains, low, steps):
    gain_db = np.unique(np.array(gains) + 0.0)  # + 0.0 merges -0.0 into 0.0
    if low:
        gain_db = np.concatenate([[-np.inf], gain_db])
    cdf = np.cumsum(steps[: gain_db.size])
    cdf /= cdf[-1]
    assume(np.all(np.diff(cdf) > 0.0))
    result = CoverageResult(gain_db, cdf)
    path = tmp_path_factory.mktemp("csv") / "cdf.csv"
    save_cdf_csv(result, path)
    loaded = load_cdf_csv(path)
    same_bits(loaded.gain_db, result.gain_db)
    same_bits(loaded.cdf, result.cdf)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            stripped_labels,
            finite_floats,
            all_floats,
        ),
        min_size=1,
        max_size=12,
        unique_by=lambda r: r[0],
    )
)
def test_loss_csv_round_trip_bit_exact(tmp_path_factory, rows):
    feeds = tuple(r[0] for r in rows)
    args = feeds, {r[0]: r[1] for r in rows}, {r[0]: r[2] for r in rows}
    if not all(math.isfinite(r[2]) for r in rows):
        # the reader rejects a non-finite half-width, so the table does too
        with pytest.raises(ValueError, match="window half-width for feed"):
            PortLossTable(*args)
        return
    table = PortLossTable(*args)
    path = tmp_path_factory.mktemp("csv") / "losses.csv"
    save_loss_csv(table, path)
    loaded = load_loss_csv(path)
    assert loaded.feeds == feeds
    same_bits([loaded.loss_db[f] for f in feeds], [r[1] for r in rows])
    same_bits([loaded.window_halfwidth_deg[f] for f in feeds], [r[2] for r in rows])


# explicit ids: adding or removing a case renames no other
@pytest.mark.parametrize(
    "kind, good, bad",
    [
        pytest.param("number", [0, -3, 2.5, 1e308, 10**300],
                     [True, False, math.nan, math.inf, -math.inf, 10**309, "1", None, [1.0]],
                     id="number-good0-bad0"),
        pytest.param("int", [0, -1, 10**400], [True, 2.0, 2.5, "2", None],
                     id="int-good1-bad1"),
        pytest.param("str", ["", "ab"], [1, None, ["a"]], id="str-good3-bad3"),
        pytest.param("object", [{}, {"a": 1}], [[], "a", None], id="object-good4-bad4"),
        pytest.param("number list", [[], [1, 2.5]], ["90", [math.nan], [True], 1.0, None],
                     id="number list-good5-bad5"),
        pytest.param("str list", [[], ["a", "b"]], ["ab", [1], None],
                     id="str list-good6-bad6"),
        pytest.param("object list", [[{}]], [{}, [[]], [None]], id="object list-good7-bad7"),
    ],
)
def test_config_value_kinds(kind, good, bad):
    for value in good:
        got = config_value({"k": value}, "k", kind)
        if kind == "number":
            assert type(got) is float and got == float(value)
        elif kind == "number list":
            assert [type(v) for v in got] == [float] * len(value) and got == value
        else:
            assert got is value
    for value in bad:
        with pytest.raises(ConfigError, match="config key 'k' must be"):
            config_value({"k": value}, "k", kind)


def test_config_value_default_and_alternatives():
    with pytest.raises(ConfigError, match="missing required key 'k'"):
        config_value({}, "k", "number")
    assert config_value({}, "k", "number", None) is None
    assert config_value({"k": [1]}, "k", ("number list", "object")) == [1.0]
    assert config_value({"k": {}}, "k", ("number list", "object")) == {}
    with pytest.raises(ConfigError, match="a list of finite numbers or an object, got 'x'"):
        config_value({"k": "x"}, "k", ("number list", "object"))
