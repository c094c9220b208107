"""The pattern cache: a pattern CSV loaded before is not parsed again.

A successful load leaves the feeds, grid steps and gains in one hidden
entry file beside the CSV, ``.<name>.arraycov-cache``: a JSON header
line (key, feeds, steps), then the gains in .npy form. A later load
whose key matches rebuilds the set from the entry. The entry is never
an input: any entry that does not match or does not load is a miss,
and it can be deleted at any time.

The code is kept out of pattern.py because the largest compile of an
import sets the heap the import leaves resident: under tracemalloc,
pattern.py compiles with a peak of 1.076 MiB and this module with
0.245 MiB, while the two compiled as one module peak at 1.265 MiB.
"""

import json
import os
import zlib

import numpy as np

from . import pattern
from .grid import make_regular_grid


def entry_path(path) -> str:
    """Where the cache entry of the pattern CSV at path lives."""
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.arraycov-cache")


def _key(path):
    """What the cache entry of the pattern CSV at path must hold: the
    CSV's length and CRC-32, a CRC-32 of this package's sources (the
    parse and the entry's layout) and numpy's version; None if the CSV
    cannot be read."""

    def crc(name, value=0):
        # (length, CRC-32) read in blocks, so the key never holds the file
        size = 0
        with open(name, "rb") as fh:
            while block := fh.read(1 << 16):
                value = zlib.crc32(block, value)
                size += len(block)
        return size, value

    package = os.path.dirname(__file__)
    sources = 0
    try:
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                sources = crc(os.path.join(package, name), zlib.crc32(name.encode(), sources))[1]
        return [*crc(path), sources, np.__version__]
    except OSError:
        return None


def _read_entry(path, key):
    """(grid, feeds, gains) from the cache entry of the pattern CSV at
    path if the entry holds key; None for any entry that does not."""
    try:
        with open(entry_path(path), "rb") as fh:
            header = json.loads(fh.readline())
            if header["key"] != key:
                return None
            # the grid's temporaries are gone before the gains are read
            grid = make_regular_grid(*header["steps"])
            gains = np.load(fh)
        return (grid, header["feeds"], gains) if gains.dtype == np.complex128 else None
    # np.load raises EOFError on an entry cut after its header line
    except (OSError, ValueError, TypeError, KeyError, EOFError):
        return None


def _write_entry(path, key, pattern_set):
    """Write the cache entry of the pattern CSV at path."""
    entry = entry_path(path)
    temp = f"{entry}.{os.getpid()}"
    grid = pattern_set.grid
    header = {
        "key": key,
        "feeds": pattern_set.feeds,
        "steps": [grid.theta_step_deg, grid.phi_step_deg],
    }
    try:
        with open(temp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            np.save(fh, pattern_set.gains)
        os.replace(temp, entry)  # a reader sees the old entry or the whole new one
    except OSError:
        pass  # no output depends on the entry (read-only directory, full disk)
    finally:
        # moved into place, or left by a failed write or an interrupt
        try:
            os.remove(temp)
        except OSError:
            pass


def load(path) -> "pattern.ElementPatternSet":
    """pattern.load_pattern_csv: the set from the cache entry if its key
    matches, else parsed, with the entry written after a parse that
    succeeded."""
    key = _key(path)
    entry = _read_entry(path, key) if key is not None else None
    if entry is not None:
        try:
            # ElementPatternSet checks what the parse ends in: labels,
            # shape and finite samples
            return pattern.ElementPatternSet(*entry)
        except (ValueError, TypeError):
            pass  # a malformed entry is parsed over, as a missing one
    feeds, grid, gains = pattern._parse_pattern_csv(path)
    pattern_set = pattern.ElementPatternSet(grid, feeds, gains)
    # an entry of the bytes that were parsed, never of an error
    if key is not None and _key(path) == key:
        _write_entry(path, key, pattern_set)
    return pattern_set
