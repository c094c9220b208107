"""Maximum realized gain, spherical-coverage CDF, and comparison metrics.

The coverage statistic follows the max-over-realizations definition:
at every direction the best of all synthesized patterns counts, and
the CDF of that map over the sphere (solid-angle weighted, so grids do
not over-represent the poles) is the spherical coverage.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .grid import SphericalGrid, regular_ring_structure
from .ioutil import float_table, write_csv
from .kernels import synth_max_accumulate
from .pattern import ElementPatternSet
from .synth import SynthesisPlan, element_gains, enumerate_weights

WEIGHTING_SOLID_ANGLE = "solid-angle"
WEIGHTING_SAMPLE_COUNT = "sample-count"

# power gains below this are excluded from MAE cut comparisons
MAE_FLOOR_DB = -60.0


@dataclass(frozen=True)
class GainMap:
    """Per-direction linear power gain with the winning realization index.

    best_index holds the global realization number (plan enumeration
    order) that achieves the maximum at each direction.
    """

    grid: SphericalGrid
    gain: np.ndarray
    best_index: np.ndarray | None = None

    def __post_init__(self):
        gain = np.ascontiguousarray(self.gain, dtype=np.float64)
        if gain.shape != (len(self.grid),):
            raise ValueError("gain array does not match grid size")
        if np.any(gain < 0.0) or not np.all(np.isfinite(gain)):
            raise ValueError("gains must be finite and non-negative")
        gain.flags.writeable = False
        object.__setattr__(self, "gain", gain)
        if self.best_index is not None:
            idx = np.ascontiguousarray(self.best_index, dtype=np.int64)
            if idx.shape != gain.shape:
                raise ValueError("best_index does not match grid size")
            idx.flags.writeable = False
            object.__setattr__(self, "best_index", idx)

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
    best_power = np.full(len(grid), -1.0)
    best_index = np.zeros(len(grid), dtype=np.int64)
    offset = 0
    for spec in plan.sub_arrays:
        elem = element_gains(pattern_set, spec)
        phasors = enumerate_weights(spec, plan.bits)
        synth_max_accumulate(elem, phasors, best_power, best_index, offset)
        offset += len(phasors)
    return GainMap(grid, best_power, best_index)


@dataclass(frozen=True)
class CoverageResult:
    """Aggregated CDF points of a gain map.

    gain_db is sorted and unique; cdf holds the inclusive cumulative
    fraction P(G <= gain_db[i]) so the final entry is 1. The strict
    coverage CDF P(G < x) is evaluated by cdf_at.
    """

    gain_db: np.ndarray
    cdf: np.ndarray
    weighting: str = WEIGHTING_SOLID_ANGLE

    def __post_init__(self):
        g = np.ascontiguousarray(self.gain_db, dtype=np.float64)
        c = np.ascontiguousarray(self.cdf, dtype=np.float64)
        if g.ndim != 1 or g.shape != c.shape or g.size == 0:
            raise ValueError("gain_db and cdf must be equal-length 1-D arrays")
        if np.any(g[1:] <= g[:-1]):
            raise ValueError("gain_db must be strictly increasing")
        if np.any(np.diff(c) <= 0.0) or c[0] <= 0.0 or abs(c[-1] - 1.0) > 1e-9:
            raise ValueError("cdf must increase to 1")
        for arr in (g, c):
            arr.flags.writeable = False
        object.__setattr__(self, "gain_db", g)
        object.__setattr__(self, "cdf", c)

    def cdf_at(self, x_db) -> float:
        """Strict empirical CDF P(G < x)."""
        j = int(np.searchsorted(self.gain_db, x_db, side="left"))
        return 0.0 if j == 0 else float(self.cdf[j - 1])

    @property
    def peak_gain_db(self) -> float:
        return float(self.gain_db[-1])


def direction_weights(grid: SphericalGrid, weighting=WEIGHTING_SOLID_ANGLE) -> np.ndarray:
    """Each direction's weight in the coverage CDF over a full-sphere grid.

    Solid-angle weighting (default) uses the grid weights; the
    sample-count switch weights every direction equally, for
    comparison on near-uniform grids.
    """
    if not grid.is_full_sphere:
        raise ValueError("coverage requires a full-sphere grid")
    if weighting == WEIGHTING_SOLID_ANGLE:
        return grid.weight_sr
    if weighting == WEIGHTING_SAMPLE_COUNT:
        return np.ones(len(grid))
    raise ValueError(f"unknown weighting {weighting!r}")


def coverage_cdf(gain_map: GainMap, weighting=WEIGHTING_SOLID_ANGLE) -> CoverageResult:
    """Weighted empirical CDF of a full-sphere gain map (see direction_weights)."""
    weights = direction_weights(gain_map.grid, weighting)
    gain_db = gain_map.gain_db()
    order = np.argsort(gain_db, kind="stable")
    g_sorted = gain_db[order]
    w_sorted = weights[order]
    # aggregate ties so gain_db comes out strictly increasing
    uniq, start = np.unique(g_sorted, return_index=True)
    w_agg = np.add.reduceat(w_sorted, start)
    cum = np.cumsum(w_agg)
    cum /= cum[-1]
    return CoverageResult(uniq, cum, weighting=weighting)


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


def compare_cdfs(x: CoverageResult, y: CoverageResult, levels) -> list:
    """percentile_gain(x) - percentile_gain(y) at each level, in dB."""
    return [percentile_gain(x, p) - percentile_gain(y, p) for p in levels]


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
    ring_thetas, rings = regular_ring_structure(a.grid)
    out = []
    for theta, idx in zip(ring_thetas, rings):
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
    gains, cdf = float_table(path, CDF_CSV_HEADER)
    try:
        return CoverageResult(gains, cdf)
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
