"""Per-feed complex polarimetric far-field patterns.

Internal unit is linear complex field-gain in the sqrt(realized-gain)
convention; dB shows up only at I/O and reporting boundaries, because
array synthesis sums fields coherently and is linear in them.
"""

import csv
import itertools

import numpy as np

from .grid import SphericalGrid, _is_pole, direction_keys, make_regular_grid, ring_index
from .ioutil import ParseError, check_header, parse_floats, table_rows, write_csv

PATTERN_CSV_HEADER = [
    "feed",
    "theta_deg",
    "phi_deg",
    "re_gtheta",
    "im_gtheta",
    "re_gphi",
    "im_gphi",
]

# complex disagreement above this between duplicate pole rows is an error
_POLE_MERGE_ATOL = 1e-7


class ElementPatternSet:
    """Feed-by-direction matrix of polarimetric samples on one grid.

    gains has shape (n_feeds, n_directions, 2) with component 0 the
    theta polarization and component 1 the phi polarization.
    """

    __slots__ = ("grid", "feeds", "gains")

    def __init__(self, grid, feeds, gains):
        feeds = tuple(str(f) for f in feeds)
        if len(set(feeds)) != len(feeds) or not feeds:
            raise ValueError("feed labels must be unique and non-empty")
        gains = np.ascontiguousarray(gains, dtype=np.complex128)
        if gains.shape != (len(feeds), len(grid), 2):
            raise ValueError(
                f"gains shape {gains.shape} does not match "
                f"({len(feeds)}, {len(grid)}, 2)"
            )
        if not np.all(np.isfinite(gains)):
            raise ValueError("pattern samples must be finite")
        gains.flags.writeable = False
        self.grid, self.feeds, self.gains = grid, feeds, gains

    def feed_index(self, feed) -> int:
        try:
            return self.feeds.index(feed)
        except ValueError:
            raise KeyError(f"unknown feed {feed!r}") from None

    def power_gain(self, feed) -> np.ndarray:
        """Linear power gain |g_theta|^2 + |g_phi|^2 for every direction."""
        g = self.gains[self.feed_index(feed)]
        return np.abs(g[:, 0]) ** 2 + np.abs(g[:, 1]) ** 2


def _parse_pattern_rows(path):
    """Validate a pattern CSV row by row; yields (row, feed, theta, phi % 360,
    g_theta, g_phi) per data row and raises ParseError at the first bad one.

    This is the definition of a valid row. load_pattern_csv reads well-formed
    files in vectorized chunks and comes here only to reject a file, to
    accept what that read is stricter about, or to locate a row.
    """
    for row, cells in table_rows(path, PATTERN_CSV_HEADER):
        feed = cells[0].strip()
        if not feed:
            raise ParseError("empty feed label", path=path, row=row)
        theta, phi, *g = parse_floats(cells[1:], path, row, finite=True)
        if not (0.0 <= theta <= 180.0):
            raise ParseError(f"theta_deg {theta} outside [0, 180]", path=path, row=row)
        yield row, feed, theta, phi % 360.0, complex(g[0], g[1]), complex(g[2], g[3])


# data rows the fast read parses at a time; only one chunk's labels are alive
_CHUNK_ROWS = 4096

_CHUNK_DTYPE = [("feed", object), ("angles", "f8", (2,)), ("samples", "f8", (4,))]


def _add_runs(runs, labels, offset):
    """Extend runs, a list of (first row, label), by an object array of the
    labels of rows offset, offset + 1, ...; a run may go on across calls."""
    change = np.ones(labels.size, dtype=bool)
    change[1:] = labels[1:] != labels[:-1]
    if runs and labels.size and labels[0] == runs[-1][1]:
        change[0] = False
    (new,) = np.nonzero(change)
    runs.extend(zip((offset + new).tolist(), labels[new].tolist()))


def _number_feeds(runs, n_rows):
    """(feeds, feed_id): the stripped labels of the runs in first-seen
    order, and each of the n_rows rows' position among them."""
    ids = {}
    run_ids = [ids.setdefault(label.strip(), len(ids)) for _, label in runs]
    starts = np.array([start for start, _ in runs], dtype=np.int64)
    feed_id = np.repeat(np.array(run_ids, dtype=np.int64), np.diff(starts, append=n_rows))
    return list(ids), feed_id


def _line_capacity(path):
    """An upper bound on the lines of a file whose lines end in a newline."""
    lines = 1
    with open(path, "rb") as fh:
        # numpy's compare counts about three times as fast as bytes.count;
        # 64 KiB blocks keep its bool temporary small
        while block := fh.read(1 << 16):
            lines += np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
    return lines


def _read_chunks(path):
    """(runs, key_t, key_p, pole, samples) of a well-formed pattern CSV,
    read _CHUNK_ROWS rows at a time into buffers sized once; None where
    the row-by-row read has to decide. Only one chunk's angles are alive.

    Raises ValueError or csv.Error where numpy or csv cannot read a row.
    """
    capacity = _line_capacity(path)
    key_t, key_p = np.empty(capacity), np.empty(capacity)
    pole = np.empty(capacity, dtype=bool)
    samples = np.empty((capacity, 4))
    runs, n = [], 0
    with open(path, encoding="utf-8-sig", newline="") as fh:
        check_header(next(csv.reader(fh), None), PATTERN_CSV_HEADER, path)
        while True:
            # loadtxt warns on input without data, so a chunk starts at a data line
            first = next((line for line in fh if line.strip("\r\n")), None)
            if first is None:
                break
            chunk = np.loadtxt(
                itertools.chain([first], itertools.islice(fh, _CHUNK_ROWS - 1)),
                delimiter=",",
                comments=None,
                quotechar='"',
                dtype=_CHUNK_DTYPE,
                ndmin=1,
            )
            if n + chunk.size > capacity:
                return None  # more rows than newlines: lines end in a lone \r
            angles, own = chunk["angles"], slice(n, n + chunk.size)
            theta = angles[:, 0]
            # what the row-by-row read rejects
            if (
                not np.isfinite(angles).all()
                or not np.isfinite(chunk["samples"]).all()
                or not ((theta >= 0.0) & (theta <= 180.0)).all()
            ):
                return None
            # phi % 360 first, as the row-by-row read yields it
            key_t[own], key_p[own] = direction_keys(theta, angles[:, 1] % 360.0)
            pole[own] = _is_pole(theta)
            samples[own] = chunk["samples"]
            _add_runs(runs, chunk["feed"], n)
            n += chunk.size
    if any(not label.strip() for _, label in runs):
        return None
    return runs, key_t[:n], key_p[:n], pole[:n], samples[:n]


def _read_table(path):
    """The data rows of a pattern CSV in file order.

    Returns (feeds, feed_id, key_t, key_p, pole, samples, error): per data
    row, key_t and key_p are the direction keys of theta and phi % 360,
    pole whether theta is a pole, samples holds re_gtheta, im_gtheta,
    re_gphi and im_gphi (the memory layout of the two complex gains), and
    feed_id indexes feeds. error is None, or the exception that stopped
    the row-by-row read at an invalid row, in which case only the rows
    before it are returned.
    """
    try:
        read = _read_chunks(path)
    except (ValueError, csv.Error):
        # UnicodeDecodeError is a ValueError; the row-by-row read names the row
        read = None
    if read is not None:
        runs, *columns = read
        return *_number_feeds(runs, len(columns[0])), *columns, None

    # row by row, _CHUNK_ROWS rows at a time: only one chunk's rows are tuples
    rows, runs, columns, n, error = _parse_pattern_rows(path), [], [[], [], [], []], 0, None
    while True:
        chunk = []
        try:
            chunk.extend(itertools.islice(rows, _CHUNK_ROWS))
        except ParseError as exc:
            error = exc  # the rows before the bad one are kept
        _add_runs(runs, np.array([row[1] for row in chunk], dtype=object), n)
        theta = np.array([row[2] for row in chunk], dtype=np.float64)
        phi = np.array([row[3] for row in chunk], dtype=np.float64)
        samples = np.array([row[4:] for row in chunk], dtype=np.complex128).reshape(-1, 2)
        part = (*direction_keys(theta, phi), _is_pole(theta), samples.view(np.float64))
        for column, array in zip(columns, part):
            column.append(array)
        n += len(chunk)
        if error is not None or len(chunk) < _CHUNK_ROWS:
            break
    joined = []
    while columns:  # a column's chunks are freed as soon as it is joined
        joined.append(np.concatenate(columns.pop(0)))
    return *_number_feeds(runs, n), *joined, error


def _merge_directions(path, feed_id, key_t, key_p, pole, samples):
    """(rows, feed_id, key_t, key_p) of the rows that hold each feed's
    samples, sorted by feed, then by direction key, file order within a
    key; rows is None where that is every row in file order.

    Repeated pole rows (theta 0 or 180 at several phi) merge into the first
    one. A repeated non-pole direction, or a pole row that disagrees with
    the first by more than _POLE_MERGE_ATOL, raises ParseError at the
    later row in file order.
    """
    f, t, p, order = feed_id, key_t, key_p, None
    if not (
        (f[1:] > f[:-1])
        | ((f[1:] == f[:-1]) & ((t[1:] > t[:-1]) | ((t[1:] == t[:-1]) & (p[1:] >= p[:-1]))))
    ).all():
        order = np.lexsort((p, t, f))
        f, t, p = f[order], t[order], p[order]
    starts = np.ones(f.size, dtype=bool)
    starts[1:] = (f[1:] != f[:-1]) | (t[1:] != t[:-1]) | (p[1:] != p[:-1])
    if starts.all():
        return order, f, t, p
    rows, later = np.flatnonzero(starts), np.flatnonzero(~starts)
    if order is not None:
        rows, later = order[rows], order[later]
    first = rows[np.cumsum(starts)[~starts] - 1]
    diff = samples[later] - samples[first]
    bad = (
        ~pole[later]
        | (np.hypot(diff[:, 0], diff[:, 1]) > _POLE_MERGE_ATOL)
        | (np.hypot(diff[:, 2], diff[:, 3]) > _POLE_MERGE_ATOL)
    )
    if bad.any():
        # no per-row angles are kept, so the message reads the row again;
        # its file row is not its index, as the readers skip blank rows
        again = itertools.islice(_parse_pattern_rows(path), later[bad].min(), None)
        row, feed, at_t, at_p, _, _ = next(again)
        if _is_pole(at_t):
            message = f"conflicting pole samples for feed {feed} at theta={at_t}"
        else:
            message = f"duplicate direction theta={at_t} phi={at_p} for feed {feed}"
        raise ParseError(message, path=path, row=row)
    return rows, f[starts], t[starts], p[starts]


def _parse_pattern_csv(path):
    """(feeds, grid, gains) of a pattern CSV; raises ParseError."""
    feeds, feed_id, key_t, key_p, pole, samples, error = _read_table(path)
    rows, feed_id, key_t, key_p = _merge_directions(path, feed_id, key_t, key_p, pole, samples)
    del pole
    if error is not None:
        raise error
    if not feeds:
        raise ParseError("no samples", path=path)

    # rows are grouped by feed; every feed must cover feed 0's key set
    ends = np.cumsum(np.bincount(feed_id, minlength=len(feeds)))
    ref_t, ref_p = key_t[: ends[0]], key_p[: ends[0]]
    for fi in range(1, len(feeds)):
        own = slice(ends[fi - 1], ends[fi])
        if not (np.array_equal(key_t[own], ref_t) and np.array_equal(key_p[own], ref_p)):
            raise ParseError(
                f"feed {feeds[fi]} covers different directions than feed {feeds[0]}",
                path=path,
            )

    # the one lattice with as many rings and directions (n_phi on each of
    # the rings - 2 between the poles), whose keys must then be the file's
    rings = 1 + np.count_nonzero(ref_t[1:] != ref_t[:-1])
    if rings < 3 or (ref_t.size - 2) % (rings - 2):
        raise ParseError(
            "directions do not form a full regular theta/phi lattice", path=path
        )
    grid = make_regular_grid(180.0 / (rings - 1), 360.0 / ((ref_t.size - 2) // (rings - 2)))

    # grid order is ascending (theta, phi) key order, the order of each feed's rows
    grid_t, grid_p = direction_keys(grid.theta_deg, grid.phi_deg)
    if not (np.array_equal(grid_t, ref_t) and np.array_equal(grid_p, ref_p)):
        present = set(zip(ref_t.tolist(), ref_p.tolist()))
        di = next(
            i
            for i, key in enumerate(zip(grid_t.tolist(), grid_p.tolist()))
            if key not in present
        )
        raise ParseError(
            f"feed {feeds[0]} is missing direction theta={grid.theta_deg[di]}"
            f" phi={grid.phi_deg[di]}",
            path=path,
        )
    # of the per-row arrays, only samples is alive while the gains are gathered
    del feed_id, key_t, key_p
    # a file in grid order, as save_pattern_csv writes it, is read in place
    if rows is not None:
        samples = samples[rows]
    return feeds, grid, samples.view(np.complex128).reshape(len(feeds), -1, 2)


def load_pattern_csv(path) -> ElementPatternSet:
    """Read a pattern CSV.

    Directions must form the full regular theta/phi lattice, identical
    across feeds; rows may appear in any order. Repeated pole rows
    (theta 0 or 180 at several phi) collapse to the single stored pole
    sample and must agree within 1e-7.

    A CSV loaded before is not parsed again (see patterncache).
    """
    from . import patterncache

    return patterncache.load(path)


def save_pattern_csv(pattern_set: ElementPatternSet, path) -> None:
    """Write the pattern CSV.

    Floats go through shortest-round-trip formatting, so load after
    save reproduces every complex sample bit-exactly.
    """
    grid, gains = pattern_set.grid, pattern_set.gains
    n = len(pattern_set.feeds)
    columns = [
        np.repeat(np.array(pattern_set.feeds, dtype=object), len(grid)),
        np.tile(grid.theta_deg, n),
        np.tile(grid.phi_deg, n),
        gains[:, :, 0].real,
        gains[:, :, 0].imag,
        gains[:, :, 1].real,
        gains[:, :, 1].imag,
    ]
    write_csv(path, PATTERN_CSV_HEADER, columns)


def resample(pattern_set: ElementPatternSet, target: SphericalGrid) -> ElementPatternSet:
    """Bilinear (theta, phi) interpolation onto another grid.

    Real and imaginary parts of both polarization components are
    interpolated independently; phi wraps at 360 and the pole samples
    act as full rings of the pole value.
    """
    src = pattern_set.grid
    if not src.is_regular:
        raise ValueError("resample requires a regular source grid")
    feeds = pattern_set.feeds
    if target.same_directions(src):
        return ElementPatternSet(target, feeds, pattern_set.gains)

    index = ring_index(src)
    t_step = src.theta_step_deg
    p_step = src.phi_step_deg
    n_rings, n_phi = index.shape

    theta = target.theta_deg / t_step
    i0 = np.clip(np.floor(theta).astype(np.int64), 0, n_rings - 2)
    ft = theta - i0
    phi = (target.phi_deg % 360.0) / p_step
    j0 = np.floor(phi).astype(np.int64) % n_phi
    fp = phi - np.floor(phi)
    j1 = (j0 + 1) % n_phi

    source = pattern_set.gains
    v00 = source[:, index[i0, j0], :]
    v01 = source[:, index[i0, j1], :]
    v10 = source[:, index[i0 + 1, j0], :]
    v11 = source[:, index[i0 + 1, j1], :]
    wt = ft[np.newaxis, :, np.newaxis]
    wp = fp[np.newaxis, :, np.newaxis]
    gains = (
        v00 * (1.0 - wt) * (1.0 - wp)
        + v01 * (1.0 - wt) * wp
        + v10 * wt * (1.0 - wp)
        + v11 * wt * wp
    )
    return ElementPatternSet(target, feeds, gains)
