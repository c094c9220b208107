"""Per-feed complex polarimetric far-field patterns.

Internal unit is linear complex field-gain in the sqrt(realized-gain)
convention; dB shows up only at I/O and reporting boundaries, because
array synthesis sums fields coherently and is linear in them.
"""

import csv
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError
from .grid import (
    SphericalGrid,
    _is_pole,
    detect_regular_steps,
    direction_keys,
    make_regular_grid,
    regular_ring_structure,
)
from .ioutil import (
    check_header,
    parse_floats,
    read_json,
    table_rows,
    write_csv,
    write_json,
)

DEFAULT_FREQUENCY_GHZ = 28.0
DEFAULT_CONVENTION = "realized-gain-embedded"

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


@dataclass(frozen=True)
class ElementPatternSet:
    """Feed-by-direction matrix of polarimetric samples on one grid.

    gains has shape (n_feeds, n_directions, 2) with component 0 the
    theta polarization and component 1 the phi polarization.
    """

    grid: SphericalGrid
    feeds: tuple
    gains: np.ndarray
    frequency_ghz: float = DEFAULT_FREQUENCY_GHZ
    convention: str = DEFAULT_CONVENTION

    def __post_init__(self):
        feeds = tuple(str(f) for f in self.feeds)
        if len(set(feeds)) != len(feeds) or not feeds:
            raise ValueError("feed labels must be unique and non-empty")
        gains = np.ascontiguousarray(self.gains, dtype=np.complex128)
        if gains.shape != (len(feeds), len(self.grid), 2):
            raise ValueError(
                f"gains shape {gains.shape} does not match "
                f"({len(feeds)}, {len(self.grid)}, 2)"
            )
        if not np.all(np.isfinite(gains)):
            raise ValueError("pattern samples must be finite")
        gains.flags.writeable = False
        object.__setattr__(self, "feeds", feeds)
        object.__setattr__(self, "gains", gains)

    def feed_index(self, feed) -> int:
        try:
            return self.feeds.index(feed)
        except ValueError:
            raise KeyError(f"unknown feed {feed!r}") from None

    def power_gain(self, feed) -> np.ndarray:
        """Linear power gain |g_theta|^2 + |g_phi|^2 for every direction."""
        g = self.gains[self.feed_index(feed)]
        return np.abs(g[:, 0]) ** 2 + np.abs(g[:, 1]) ** 2


def sidecar_path(csv_path) -> str:
    root, _ = os.path.splitext(os.fspath(csv_path))
    return root + ".json"


def _parse_pattern_rows(path):
    """Validate a pattern CSV row by row; yields (row, feed, theta, phi % 360,
    g_theta, g_phi) per data row and raises ParseError at the first bad one.

    This is the definition of a valid row. load_pattern_csv reads well-formed
    files in one vectorized pass and comes here only to reject a file, to
    accept what that pass is stricter about, or to locate a row.
    """
    for row, cells in table_rows(path, PATTERN_CSV_HEADER):
        feed = cells[0].strip()
        if not feed:
            raise ParseError("empty feed label", path=path, row=row)
        theta, phi, *g = parse_floats(cells[1:], path, row, finite=True)
        if not (0.0 <= theta <= 180.0):
            raise ParseError(f"theta_deg {theta} outside [0, 180]", path=path, row=row)
        yield row, feed, theta, phi % 360.0, complex(g[0], g[1]), complex(g[2], g[3])


def _row_number(path, index):
    """File row of the index-th data row; blank rows are skipped by the
    readers, so the two differ."""
    for i, row in enumerate(_parse_pattern_rows(path)):
        if i == index:
            return row[0]


def _number_feeds(labels):
    """(feeds, feed_id): the stripped labels of an object array in
    first-seen order, and each row's position among them."""
    # rows come in runs of one label, so look up one label per run
    change = np.ones(labels.size, dtype=bool)
    change[1:] = labels[1:] != labels[:-1]
    starts = np.flatnonzero(change)
    ids = {}
    run_ids = [ids.setdefault(label.strip(), len(ids)) for label in labels[starts]]
    feed_id = np.repeat(np.array(run_ids, dtype=np.int64), np.diff(starts, append=labels.size))
    return list(ids), feed_id


def _lines_from(first, rest):
    yield first
    yield from rest


def _read_table(path):
    """The data rows of a pattern CSV in file order.

    Returns (feeds, feed_id, table, error): table holds one row of
    theta, phi % 360, re_gtheta, im_gtheta, re_gphi, im_gphi per data row
    and feed_id indexes feeds. error is None, or the exception that
    stopped the row-by-row read at an invalid row, in which case only the
    rows before it are returned.
    """
    records = None
    try:
        with open(path, newline="") as fh:
            check_header(next(csv.reader(fh), None), PATTERN_CSV_HEADER, path)
            # loadtxt warns on a file without data; such a file goes the slow way
            first = next((line for line in fh if line.strip("\r\n")), None)
            if first is not None:
                records = np.loadtxt(
                    _lines_from(first, fh),
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    dtype=[("feed", object), ("v", "f8", (6,))],
                    ndmin=1,
                )
    except (ValueError, csv.Error):
        # UnicodeDecodeError is a ValueError; the row-by-row read names the row
        pass
    if records is not None:
        feeds, feed_id = _number_feeds(records["feed"])
        table = records["v"].copy()
        del records
        theta = table[:, 0]
        if (
            "" not in feeds
            and np.isfinite(table).all()
            and ((theta >= 0.0) & (theta <= 180.0)).all()
        ):
            table[:, 1] %= 360.0
            return feeds, feed_id, table, None

    rows, error = [], None
    try:
        rows.extend(_parse_pattern_rows(path))
    except ParseError as exc:
        error = exc
    feeds, feed_id = _number_feeds(np.array([row[1] for row in rows], dtype=object))
    table = np.array(
        [(t, p, gt.real, gt.imag, gp.real, gp.imag) for _, _, t, p, gt, gp in rows],
        dtype=np.float64,
    ).reshape(-1, 6)
    return feeds, feed_id, table, error


def _merge_directions(path, feeds, feed_id, table):
    """Rows of table that hold each feed's samples, sorted by feed, then by
    direction key; returns them with the keys of every row.

    Repeated pole rows (theta 0 or 180 at several phi) merge into the first
    one. A repeated non-pole direction, or a pole row that disagrees with
    the first by more than _POLE_MERGE_ATOL, raises ParseError at the
    later row in file order.
    """
    theta, phi = table[:, 0], table[:, 1]
    key_t, key_p = direction_keys(theta, phi)
    order = np.lexsort((key_p, key_t, feed_id))  # stable: file order within a key
    a, b = order[:-1], order[1:]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (feed_id[a] != feed_id[b]) | (key_t[a] != key_t[b]) | (key_p[a] != key_p[b])
    later = order[~starts]
    first = order[starts][np.cumsum(starts)[~starts] - 1]
    diff = table[later, 2:] - table[first, 2:]
    bad = (
        ~_is_pole(theta[later])
        | (np.hypot(diff[:, 0], diff[:, 1]) > _POLE_MERGE_ATOL)
        | (np.hypot(diff[:, 2], diff[:, 3]) > _POLE_MERGE_ATOL)
    )
    if bad.any():
        i = later[bad].min()
        feed, t, p = feeds[feed_id[i]], float(theta[i]), float(phi[i])
        if _is_pole(t):
            message = f"conflicting pole samples for feed {feed} at theta={t}"
        else:
            message = f"duplicate direction theta={t} phi={p} for feed {feed}"
        raise ParseError(message, path=path, row=_row_number(path, i))
    return order[starts], key_t, key_p


def load_pattern_csv(path) -> ElementPatternSet:
    """Read a pattern CSV (plus optional JSON sidecar for metadata).

    Directions must form the full regular theta/phi lattice, identical
    across feeds; rows may appear in any order. Repeated pole rows
    (theta 0 or 180 at several phi) collapse to the single stored pole
    sample and must agree within 1e-7.
    """
    feeds, feed_id, table, error = _read_table(path)
    rows, key_t, key_p = _merge_directions(path, feeds, feed_id, table)
    if error is not None:
        raise error
    if not feeds:
        raise ParseError("no samples", path=path)

    # rows are grouped by feed; every feed must cover feed 0's key set
    ends = np.cumsum(np.bincount(feed_id[rows], minlength=len(feeds)))
    ref_t, ref_p = key_t[rows[: ends[0]]], key_p[rows[: ends[0]]]
    for fi in range(1, len(feeds)):
        own = rows[ends[fi - 1] : ends[fi]]
        if not (np.array_equal(key_t[own], ref_t) and np.array_equal(key_p[own], ref_p)):
            raise ParseError(
                f"feed {feeds[fi]} covers different directions than feed {feeds[0]}",
                path=path,
            )

    steps = detect_regular_steps(ref_t, ref_p)
    if steps is None:
        raise ParseError(
            "directions do not form a full regular theta/phi lattice", path=path
        )
    grid = make_regular_grid(*steps)

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
    # columns re_gtheta, im_gtheta, re_gphi, im_gphi are the complex pair's memory layout
    gains = np.ascontiguousarray(table[rows.reshape(len(feeds), -1), 2:]).view(
        np.complex128
    )

    frequency = DEFAULT_FREQUENCY_GHZ
    convention = DEFAULT_CONVENTION
    meta_path = sidecar_path(path)
    if os.path.exists(meta_path):
        meta = read_json(meta_path)
        if not isinstance(meta, dict):
            raise ParseError("sidecar root must be a JSON object", path=meta_path)
        frequency = meta.get("frequency_ghz", frequency)
        # bool is an int; nan, infinities and ints beyond any float fail the bound
        if type(frequency) not in (int, float) or not abs(frequency) <= sys.float_info.max:
            raise ParseError(
                f"frequency_ghz must be a finite number, got {frequency!r}", path=meta_path
            )
        convention = str(meta.get("convention", convention))
    return ElementPatternSet(
        grid, tuple(feeds), gains, frequency_ghz=float(frequency), convention=convention
    )


def pattern_csv_columns(labels, grid, fields):
    """The pattern CSV's columns: one row per label and direction.

    fields is complex (len(labels), len(grid), 2); rows go label by
    label, in grid order within each.
    """
    n = len(labels)
    return [
        np.repeat(np.array(labels, dtype=object), len(grid)),
        np.tile(grid.theta_deg, n),
        np.tile(grid.phi_deg, n),
        fields[:, :, 0].real,
        fields[:, :, 0].imag,
        fields[:, :, 1].real,
        fields[:, :, 1].imag,
    ]


def save_pattern_csv(pattern_set: ElementPatternSet, path) -> None:
    """Write the pattern CSV and its JSON metadata sidecar.

    Floats go through shortest-round-trip formatting, so load after
    save reproduces every complex sample bit-exactly.
    """
    columns = pattern_csv_columns(pattern_set.feeds, pattern_set.grid, pattern_set.gains)
    write_csv(path, PATTERN_CSV_HEADER, columns)
    write_json(
        sidecar_path(path),
        {
            "frequency_ghz": pattern_set.frequency_ghz,
            "convention": pattern_set.convention,
        },
    )


def _ring_matrix(pattern_set: ElementPatternSet):
    """Gains as (n_feeds, n_rings, n_phi, 2) with pole rows replicated."""
    grid = pattern_set.grid
    ring_thetas, rings = regular_ring_structure(grid)
    n_phi = round(360.0 / grid.phi_step_deg)
    out = np.empty(
        (len(pattern_set.feeds), ring_thetas.size, n_phi, 2), dtype=np.complex128
    )
    for ri, idx in enumerate(rings):
        # a pole's single sample broadcasts across the phi stencil
        out[:, ri, :, :] = pattern_set.gains[:, idx, :]
    return ring_thetas, out


def resample(pattern_set: ElementPatternSet, target: SphericalGrid) -> ElementPatternSet:
    """Bilinear (theta, phi) interpolation onto another grid.

    Real and imaginary parts of both polarization components are
    interpolated independently; phi wraps at 360 and the pole samples
    act as full rings of the pole value.
    """
    src = pattern_set.grid
    if not src.is_regular:
        raise ValueError("resample requires a regular source grid")
    if target.same_directions(src):
        return replace(pattern_set, grid=target)

    ring_thetas, matrix = _ring_matrix(pattern_set)
    t_step = src.theta_step_deg
    p_step = src.phi_step_deg
    n_rings = ring_thetas.size
    n_phi = matrix.shape[2]

    theta = target.theta_deg / t_step
    i0 = np.clip(np.floor(theta).astype(np.int64), 0, n_rings - 2)
    ft = theta - i0
    phi = (target.phi_deg % 360.0) / p_step
    j0 = np.floor(phi).astype(np.int64) % n_phi
    fp = phi - np.floor(phi)
    j1 = (j0 + 1) % n_phi

    v00 = matrix[:, i0, j0, :]
    v01 = matrix[:, i0, j1, :]
    v10 = matrix[:, i0 + 1, j0, :]
    v11 = matrix[:, i0 + 1, j1, :]
    wt = ft[np.newaxis, :, np.newaxis]
    wp = fp[np.newaxis, :, np.newaxis]
    gains = (
        v00 * (1.0 - wt) * (1.0 - wp)
        + v01 * (1.0 - wt) * wp
        + v10 * wt * (1.0 - wp)
        + v11 * wt * wp
    )
    return replace(pattern_set, grid=target, gains=gains)
