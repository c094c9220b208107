"""Small I/O helpers: CSV and JSON readers and writers, typed config values."""

import csv
import io
import json
import math
import reprlib
import sys

import numpy as np

from .errors import ConfigError, ParseError


def format_float(value) -> str:
    """Shortest decimal string that parses back to the exact float.

    Keeps CSV round trips bit-exact without dumping 17 digits for
    every value.
    """
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return np.format_float_positional(v, unique=True, trim="0")


def _float_cells(values):
    """format_float of each value, formatted once per distinct bit pattern.

    repr of a Python float is format_float's string wherever repr has no
    exponent; values with one (|v| < 1e-4 or |v| >= 1e16) keep
    format_float.
    """
    bits, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.int64),
        return_inverse=True,
    )
    distinct = bits.view(np.float64).tolist()
    text = [
        t if "e" not in t else format_float(v)
        for v, t in zip(distinct, map(repr, distinct))
    ]
    return np.array(text, dtype=object)[inverse].tolist()


def _label_cells(labels):
    """Each label as csv.writer writes it in a row of two or more cells."""
    quoted = {}
    for label in set(labels):
        buf = io.StringIO()
        csv.writer(buf).writerow([label, ""])
        quoted[label] = buf.getvalue()[: -len(",\r\n")]
    return [quoted[label] for label in labels]


def write_csv(path, header, columns) -> None:
    """Write a table of two or more columns, given column by column.

    A column holds str labels or numbers. The bytes are those of
    csv.writer writing the rows with every number as format_float.
    """
    cells = [
        _label_cells(c) if len(c) and isinstance(c[0], str) else _float_cells(c)
        for c in columns
    ]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def csv_rows(fh, path):
    """csv.reader(fh) that raises ParseError where csv or decoding fails.

    A record csv cannot split (a field over csv's size limit, say) is
    named by its row, counted as the readers count rows (header = 1).
    Bytes that do not decode are named by the line they sit on, as the
    decoder reads ahead of the row being parsed.
    """
    reader = csv.reader(fh)
    row = 0
    while True:
        row += 1
        try:
            rec = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", path=path, row=row) from exc
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode(exc.encoding)
            except UnicodeDecodeError as err:
                row = data.count(b"\n", 0, err.start) + 1
            raise ParseError(f"not {exc.encoding} text", path=path, row=row) from exc
        yield rec


def check_header(header, expected, path) -> None:
    """Raise ParseError at row 1 unless the stripped header is expected."""
    if header is None or [h.strip() for h in header] != expected:
        raise ParseError(f"expected header {','.join(expected)}", path=path, row=1)


def table_rows(path, header):
    """(row, cells) of each non-blank data row of a CSV table.

    Rows are numbered as in the file, the header being row 1. Raises
    ParseError at the header unless check_header passes, and at a row
    whose cell count is not the header's.
    """
    with open(path, newline="") as fh:
        reader = csv_rows(fh, path)
        check_header(next(reader, None), header, path)
        for row, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ParseError(f"expected {len(header)} columns", path=path, row=row)
            yield row, cells


def parse_floats(cells, path, row, finite=False):
    """The cells as floats; ParseError at row where one is not a number,
    or, with finite, not finite."""
    try:
        values = [float(v) for v in cells]
    except ValueError:
        raise ParseError("non-numeric value", path=path, row=row) from None
    if finite and not all(map(math.isfinite, values)):
        raise ParseError("non-finite value", path=path, row=row)
    return values


def float_table(path, header, finite=False):
    """The columns of an all-numeric CSV table, as one (columns, rows)
    float array; ParseError where parse_floats fails or the table has
    no data rows."""
    rows = [
        parse_floats(cells, path, row, finite=finite)
        for row, cells in table_rows(path, header)
    ]
    if not rows:
        raise ParseError("no entries", path=path)
    return np.array(rows).T


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an int over the digit limit
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON kinds of a config value: (a value is, the items of a list are, check);
# a number is finite, and an int is one only within the float range
_CONFIG_KINDS = {
    "number": ("a finite number", "finite numbers",
               lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    "int": ("an integer", "integers", _is_int),
    "bool": ("true or false", "booleans", lambda v: isinstance(v, bool)),
    "str": ("a string", "strings", lambda v: isinstance(v, str)),
    "object": ("an object", "objects", lambda v: isinstance(v, dict)),
}

_REQUIRED = object()


def config_value(container, key, kind, default=_REQUIRED):
    """container[key] if it is of the JSON kind, else ConfigError naming key.

    kind is a key of _CONFIG_KINDS, "<kind> list", or a tuple of kinds
    of which one must match. Numbers are returned as floats. A missing
    key gives the default, or without one a ConfigError.
    """
    if key not in container:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = container[key]
    kinds = (kind,) if isinstance(kind, str) else kind
    wanted = []
    for k in kinds:
        item_kind, _, of_list = k.partition(" ")
        one, many, check = _CONFIG_KINDS[item_kind]
        wanted.append(f"a list of {many}" if of_list else one)
        if of_list and isinstance(value, list) and all(map(check, value)):
            return [float(v) for v in value] if item_kind == "number" else value
        if not of_list and check(value):
            return float(value) if item_kind == "number" else value
    raise ConfigError(
        f"config key {key!r} must be {' or '.join(wanted)}, got {reprlib.repr(value)}"
    )


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
