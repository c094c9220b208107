"""Small I/O helpers shared by the CSV readers and writers."""

import csv
import json
import math

import numpy as np

from .errors import ParseError


def format_float(value) -> str:
    """Shortest decimal string that parses back to the exact float.

    Keeps CSV round trips bit-exact without dumping 17 digits for
    every value.
    """
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return np.format_float_positional(v, unique=True, trim="0")


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


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
