"""Maximum realized gain, spherical-coverage CDF, and comparison metrics.

The coverage statistic follows the max-over-realizations definition:
at every direction the best of all synthesized patterns counts, and
the CDF of that map over the sphere (solid-angle weighted, so grids do
not over-represent the poles) is the spherical coverage.
"""

import math

import numpy as np

from .grid import ring_index
from .ioutil import ParseError, parse_floats, table_rows, write_csv
from .kernels import power_cap, power_slack, synth_max_accumulate, synthesize_fields
from .pattern import ElementPatternSet
from .synth import SynthesisPlan, element_gains, enumerate_weights

WEIGHTING_SOLID_ANGLE = "solid-angle"

# (row, direction) fields the seed synthesizes at once
_SEED_TILE = 2**13

# power gains below this are excluded from MAE cut comparisons
MAE_FLOOR_DB = -60.0


class GainMap:
    """Per-direction linear power gain with the winning realization index.

    best_index holds the global realization number (plan enumeration
    order) that achieves the maximum at each direction.
    """

    __slots__ = ("grid", "gain", "best_index")

    def __init__(self, grid, gain, best_index=None):
        gain = np.ascontiguousarray(gain, dtype=np.float64)
        if gain.shape != (len(grid),):
            raise ValueError("gain array does not match grid size")
        if np.any(gain < 0.0) or not np.all(np.isfinite(gain)):
            raise ValueError("gains must be finite and non-negative")
        gain.flags.writeable = False
        if best_index is not None:
            best_index = np.ascontiguousarray(best_index, dtype=np.int64)
            if best_index.shape != gain.shape:
                raise ValueError("best_index does not match grid size")
            best_index.flags.writeable = False
        self.grid, self.gain, self.best_index = grid, gain, best_index

    def gain_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.gain)


def max_gain_over_plan(pattern_set: ElementPatternSet, plan: SynthesisPlan) -> GainMap:
    """Per-direction maximum power over every realization of a plan.

    Realizations are numbered by sub-array, then by weight index in
    enumeration order; ties go to the lowest number. No realization's
    fields are kept.
    """
    grid = pattern_set.grid
    best_power = np.zeros(len(grid))
    best_index = np.zeros(len(grid), dtype=np.int64)
    # no floor at 1 bit, where its rows would be the whole codebook
    floor = _seed_floor(pattern_set, plan) if plan.bits > 1 else None
    offset = 0
    for spec in plan.sub_arrays:
        elem = element_gains(pattern_set, spec)
        phasors = enumerate_weights(spec, plan.bits)
        synth_max_accumulate(elem, phasors, best_power, best_index, offset, floor)
        offset += len(phasors)
    return GainMap(grid, best_power, best_index)


def _seed_floor(pattern_set: ElementPatternSet, plan: SynthesisPlan) -> np.ndarray:
    """Per direction, a power at most that of the plan's winner.

    Every b-bit codebook holds the 1-bit one: code 2^(b-1) is 180 deg
    exactly. So the best power over every sub-array's 1-bit rows, less
    their rounding, is at most the winner's power, however it rounds.
    """
    n_dir = len(pattern_set.grid)
    floor = np.full(n_dir, -np.inf)
    for spec in plan.sub_arrays:
        elem = element_gains(pattern_set, spec)
        phasors = enumerate_weights(spec, 1)
        # these calls have other shapes than the reference's, so the same
        # row's power may round otherwise there
        w_max = np.abs(phasors).max()
        margin = power_slack(spec.size, power_cap(elem, w_max)[0], w_max)
        # a few directions at a time, so that the fields stay small
        width = max(1, _SEED_TILE // len(phasors))
        for lo in range(0, n_dir, width):
            cols = slice(lo, lo + width)
            fields = synthesize_fields(elem[:, cols], phasors)
            power = np.abs(fields[:, :, 0]) ** 2
            power += np.abs(fields[:, :, 1]) ** 2
            np.maximum(floor[cols], power.max(axis=0) - margin[cols], out=floor[cols])
    return floor


class CoverageResult:
    """Aggregated CDF points of a gain map.

    gain_db is sorted and unique; cdf holds the inclusive cumulative
    fraction P(G <= gain_db[i]) so the final entry is 1. The strict
    coverage CDF P(G < x) is evaluated by cdf_at.
    """

    __slots__ = ("gain_db", "cdf")

    def __init__(self, gain_db, cdf):
        g = np.ascontiguousarray(gain_db, dtype=np.float64)
        c = np.ascontiguousarray(cdf, dtype=np.float64)
        if g.ndim != 1 or g.shape != c.shape or g.size == 0:
            raise ValueError("gain_db and cdf must be equal-length 1-D arrays")
        # NaN fails every ordering check below, so reject it here
        if np.isnan(g).any() or np.isnan(c).any() or g[-1] == math.inf:
            raise ValueError("gain_db and cdf must not be NaN, nor gain_db +inf")
        if np.any(g[1:] <= g[:-1]):
            raise ValueError("gain_db must be strictly increasing")
        if np.any(np.diff(c) <= 0.0) or c[0] <= 0.0 or abs(c[-1] - 1.0) > 1e-9:
            raise ValueError("cdf must increase to 1")
        for arr in (g, c):
            arr.flags.writeable = False
        self.gain_db, self.cdf = g, c

    def cdf_at(self, x_db) -> float:
        """Strict empirical CDF P(G < x)."""
        j = int(np.searchsorted(self.gain_db, x_db, side="left"))
        return 0.0 if j == 0 else float(self.cdf[j - 1])

    @property
    def peak_gain_db(self) -> float:
        return float(self.gain_db[-1])


def coverage_cdf(gain_map: GainMap) -> CoverageResult:
    """Solid-angle weighted empirical CDF of a full-sphere gain map."""
    grid = gain_map.grid
    if not grid.is_full_sphere:
        raise ValueError("coverage requires a full-sphere grid")
    gain_db = gain_map.gain_db()
    order = np.argsort(gain_db, kind="stable")
    g_sorted = gain_db[order]
    w_sorted = grid.weight_sr[order]
    # aggregate ties so gain_db comes out strictly increasing
    uniq, start = np.unique(g_sorted, return_index=True)
    w_agg = np.add.reduceat(w_sorted, start)
    cum = np.cumsum(w_agg)
    cum /= cum[-1]
    return CoverageResult(uniq, cum)


def percentile_gain(result: CoverageResult, p) -> float:
    """Infimum gain x with CDF(x) >= p, interpolated linearly in dB.

    Between CDF points the value is interpolated on the inclusive
    cumulative curve; at or below the first point the first gain is
    returned. Infinite brackets (zero-gain directions) fall back to
    the step-function inverse.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be in (0, 1), got {p}")
    g = result.gain_db
    c = result.cdf
    idx = int(np.searchsorted(c, p, side="left"))
    if idx == 0:
        return float(g[0])
    g_lo, g_hi = float(g[idx - 1]), float(g[idx])
    if not math.isfinite(g_lo):
        return g_hi
    c_lo, c_hi = float(c[idx - 1]), float(c[idx])
    return g_lo + (p - c_lo) / (c_hi - c_lo) * (g_hi - g_lo)


def mae_per_theta_cut(a: GainMap, b: GainMap, floor_db=MAE_FLOOR_DB) -> list:
    """Mean absolute dB difference per constant-theta ring.

    Directions where either map sits below floor_db are excluded; a
    ring with no usable directions reports NaN.
    """
    if not a.grid.same_directions(b.grid):
        raise ValueError("gain maps must share a grid")
    if not a.grid.is_regular:
        raise ValueError("theta cuts require a regular grid")
    floor_lin = 10.0 ** (floor_db / 10.0)
    rings = list(ring_index(a.grid))
    # a pole's row repeats its one position
    rings[0], rings[-1] = rings[0][:1], rings[-1][:1]
    out = []
    for idx in rings:
        theta = a.grid.theta_deg[idx[0]]
        mask = (a.gain[idx] > floor_lin) & (b.gain[idx] > floor_lin)
        if not np.any(mask):
            out.append((float(theta), math.nan))
            continue
        sel = idx[mask]
        diff = 10.0 * np.abs(np.log10(a.gain[sel]) - np.log10(b.gain[sel]))
        out.append((float(theta), float(diff.mean())))
    return out


CDF_CSV_HEADER = ["gain_db", "cdf"]


def save_cdf_csv(result: CoverageResult, path) -> None:
    write_csv(path, CDF_CSV_HEADER, [result.gain_db, result.cdf])


def load_cdf_csv(path) -> CoverageResult:
    rows = []
    for row, cells in table_rows(path, CDF_CSV_HEADER):
        gain, cdf = parse_floats(cells, path, row)
        if math.isnan(cdf) or not gain < math.inf:
            raise ParseError("NaN cell or +inf gain_db", path=path, row=row)
        rows.append((gain, cdf))
    if not rows:
        raise ParseError("no entries", path=path)
    try:
        return CoverageResult(*np.array(rows).T)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


GAINMAP_CSV_HEADER = ["theta_deg", "phi_deg", "weight_sr", "gain_db"]


def save_gainmap_csv(gain_map: GainMap, path) -> None:
    grid = gain_map.grid
    write_csv(
        path,
        GAINMAP_CSV_HEADER,
        [grid.theta_deg, grid.phi_deg, grid.weight_sr, gain_map.gain_db()],
    )
