"""Small I/O helpers shared by the CSV readers and writers."""

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


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
