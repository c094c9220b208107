"""Spherical direction grids with analytic solid-angle weights.

Two constructions are provided: the regular theta/phi lattice used by
far-field measurements (single pole samples, ring-band weights) and a
ring-based equal-density grid for orientation-independent coverage
statistics, where rings near the poles carry fewer azimuth samples in
proportion to sin(theta).

Weights come from exact band integrals (differences of cos(theta)), so
every full-sphere grid closes to 4*pi up to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .ioutil import float_table, write_csv

FULL_SPHERE_SR = 4.0 * math.pi

# relative tolerance on the full-sphere weight-sum closure
_CLOSURE_RTOL = 1e-3

KIND_REGULAR = "regular"
KIND_UNIFORM = "uniform-sphere"


def _is_pole(theta_deg):
    return (theta_deg == 0.0) | (theta_deg == 180.0)


def _round9(values):
    """Python's round(v, 9) of each value, bit for bit."""
    scaled = values * 1e9
    out = np.rint(scaled) / 1e9
    # rint sees the product rounded to a double, Python the exact product;
    # they can part only where that double is a half-integer or has no
    # fraction bits left
    redo = (np.abs(scaled - np.trunc(scaled)) == 0.5) | ~(np.abs(scaled) < 2.0**52)
    out[redo] = [round(v, 9) for v in values[redo].tolist()]
    return out


def direction_keys(theta_deg, phi_deg):
    """Lookup keys of 1-D arrays of directions: theta and phi rounded to
    9 decimals, with phi wrapped into [0, 360) and set to 0 at the poles.

    The grid's duplicate check and the pattern reader both key
    directions with this one function.
    """
    theta = np.asarray(theta_deg, dtype=np.float64)
    phi = np.where(_is_pole(theta), 0.0, np.asarray(phi_deg, dtype=np.float64) % 360.0)
    return _round9(theta), _round9(phi)


@dataclass(frozen=True)
class Direction:
    """A direction on the sphere: polar angle theta (0 = +z), azimuth phi.

    phi is normalized into [0, 360); at the poles every phi denotes the
    same direction, so phi collapses to 0 there and pole directions
    compare equal regardless of the phi they were built with.
    """

    theta_deg: float
    phi_deg: float = 0.0

    def __post_init__(self):
        theta = float(self.theta_deg)
        phi = float(self.phi_deg)
        if not (0.0 <= theta <= 180.0) or not math.isfinite(phi):
            raise ValueError(f"direction out of range: theta={theta}, phi={phi}")
        phi = phi % 360.0
        if _is_pole(theta):
            phi = 0.0
        object.__setattr__(self, "theta_deg", theta)
        object.__setattr__(self, "phi_deg", phi)


@dataclass(frozen=True)
class SphericalGrid:
    """Ordered direction samples with per-direction solid angles [sr]."""

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    weight_sr: np.ndarray
    kind: str
    theta_step_deg: float | None = None
    phi_step_deg: float | None = None

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta_deg, dtype=np.float64)
        phi = np.ascontiguousarray(self.phi_deg, dtype=np.float64)
        weight = np.ascontiguousarray(self.weight_sr, dtype=np.float64)
        if not (theta.shape == phi.shape == weight.shape) or theta.ndim != 1:
            raise ValueError("grid arrays must be 1-D and equally sized")
        if theta.size == 0:
            raise ValueError("grid has no directions")
        if np.any(weight <= 0.0) or not np.all(np.isfinite(weight)):
            raise ValueError("solid-angle weights must be positive and finite")
        for arr in (theta, phi, weight):
            arr.flags.writeable = False
        object.__setattr__(self, "theta_deg", theta)
        object.__setattr__(self, "phi_deg", phi)
        object.__setattr__(self, "weight_sr", weight)
        key_t, key_p = direction_keys(theta, phi)
        order = np.lexsort((key_p, key_t))
        repeated = (key_t[order[1:]] == key_t[order[:-1]]) & (
            key_p[order[1:]] == key_p[order[:-1]]
        )
        if repeated.any():
            i = order[1:][repeated].min()
            first = np.flatnonzero((key_t == key_t[i]) & (key_p == key_p[i]))[0]
            raise ValueError(f"duplicate direction at rows {first} and {i}")

    def __len__(self):
        return self.theta_deg.size

    def same_directions(self, other: "SphericalGrid") -> bool:
        return np.array_equal(self.theta_deg, other.theta_deg) and np.array_equal(
            self.phi_deg, other.phi_deg
        )

    @property
    def weight_sum(self) -> float:
        return float(self.weight_sr.sum())

    @property
    def is_full_sphere(self) -> bool:
        return abs(self.weight_sum - FULL_SPHERE_SR) <= _CLOSURE_RTOL * FULL_SPHERE_SR

    @property
    def is_regular(self) -> bool:
        return self.kind == KIND_REGULAR


def _band_solid_angle(theta_lo_deg, theta_hi_deg):
    # 2*pi*(cos lo - cos hi), exact for a full azimuth band
    lo = math.radians(theta_lo_deg)
    hi = math.radians(theta_hi_deg)
    return 2.0 * math.pi * (math.cos(lo) - math.cos(hi))


def _check_divides(step, span, name):
    if not (step > 0.0) or not math.isfinite(step):
        raise ValueError(f"{name} must be positive, got {step}")
    n = span / step
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"{name}={step} does not divide {span}")
    return int(round(n))


def make_regular_grid(theta_step_deg, phi_step_deg) -> SphericalGrid:
    """Full-sphere theta/phi lattice with poles stored once.

    Rings sit at theta = 0, step, ..., 180; each non-pole ring carries
    360/phi_step samples. Ring solid-angle bands (half a step to either
    side, clipped at the poles) are split evenly among the ring samples.
    """
    n_theta = _check_divides(theta_step_deg, 180.0, "theta_step_deg")
    n_phi = _check_divides(phi_step_deg, 360.0, "phi_step_deg")
    theta_step = 180.0 / n_theta
    phi_step = 360.0 / n_phi

    # per ring in math, as np.cos may differ by an ulp; the weights reach
    # the bytes of the coverage CDF
    ring_thetas, ring_sizes, ring_weights = [], [], []
    for i in range(n_theta + 1):
        # n_theta * (180 / n_theta) can round below 180 (n_theta = 39)
        theta = 180.0 if i == n_theta else i * theta_step
        lo = max(0.0, theta - theta_step / 2.0)
        hi = min(180.0, theta + theta_step / 2.0)
        size = 1 if _is_pole(theta) else n_phi
        ring_thetas.append(theta)
        ring_sizes.append(size)
        ring_weights.append(_band_solid_angle(lo, hi) / size)
    ring_start = np.cumsum(ring_sizes) - ring_sizes
    phi_index = np.arange(sum(ring_sizes)) - np.repeat(ring_start, ring_sizes)
    return SphericalGrid(
        np.repeat(ring_thetas, ring_sizes),
        phi_index * phi_step,
        np.repeat(ring_weights, ring_sizes),
        kind=KIND_REGULAR,
        theta_step_deg=theta_step,
        phi_step_deg=phi_step,
    )


def _uniform_ring_layout(target_count):
    # rings at (r + 0.5) * 180/M; equator azimuth count tuned so the
    # total sample count lands as close to the target as possible
    n_rings = max(2, round(math.sqrt(math.pi * target_count) / 2.0))

    def total(n_eq):
        count = 0
        for r in range(n_rings):
            theta = math.radians((r + 0.5) * 180.0 / n_rings)
            count += max(1, round(n_eq * math.sin(theta)))
        return count

    best_eq, best_diff = 1, abs(total(1) - target_count)
    for n_eq in range(2, 8 * n_rings + 1):
        diff = abs(total(n_eq) - target_count)
        if diff < best_diff:
            best_eq, best_diff = n_eq, diff
    return n_rings, best_eq


def make_uniform_sphere_grid(target_count) -> SphericalGrid:
    """Ring-based grid with near-constant sample density over the sphere.

    Ring r (of M total) sits at theta = (r + 0.5) * 180/M and carries
    max(1, round(n_eq * sin(theta))) azimuth samples; each sample gets an
    equal share of its ring's exact solid-angle band. The construction is
    deterministic and the realized count lands within a few samples of
    target_count.
    """
    if not isinstance(target_count, (int, np.integer)):
        raise ValueError(f"target_count must be an integer, got {target_count!r}")
    if target_count < 6:
        raise ValueError(f"target_count must be >= 6, got {target_count}")
    n_rings, n_eq = _uniform_ring_layout(int(target_count))

    thetas, phis, weights = [], [], []
    ring_step = 180.0 / n_rings
    for r in range(n_rings):
        theta = (r + 0.5) * ring_step
        band = _band_solid_angle(r * ring_step, (r + 1) * ring_step)
        n_az = max(1, round(n_eq * math.sin(math.radians(theta))))
        for k in range(n_az):
            thetas.append(theta)
            phis.append(k * 360.0 / n_az)
            weights.append(band / n_az)
    return SphericalGrid(
        np.array(thetas), np.array(phis), np.array(weights), kind=KIND_UNIFORM
    )


def regular_ring_structure(grid: SphericalGrid):
    """Ring decomposition of a regular grid.

    Returns (ring_thetas, ring_indices) where ring_indices[i] holds the
    grid positions of ring i ordered by increasing phi. Raises ValueError
    for non-regular grids.
    """
    if not grid.is_regular:
        raise ValueError("ring structure requires a regular grid")
    order = np.lexsort((grid.phi_deg, grid.theta_deg))
    theta = grid.theta_deg[order]
    starts = np.flatnonzero(theta[1:] != theta[:-1]) + 1
    return theta[np.concatenate([[0], starts])], np.split(order, starts)


def detect_regular_steps(theta_deg, phi_deg):
    """(theta_step, phi_step) if the directions form the full regular
    lattice of make_regular_grid, else None."""
    thetas, ring = np.unique(theta_deg, return_inverse=True)
    if thetas.size < 3 or thetas[0] != 0.0 or thetas[-1] != 180.0:
        return None
    # against the lattice, not ring to ring: keys rounded to 9 decimals
    # put neighbouring gaps up to 2e-9 apart
    theta_step = 180.0 / (thetas.size - 1)
    if not np.allclose(thetas, np.arange(thetas.size) * theta_step, rtol=0.0, atol=1e-9):
        return None

    # one sample per pole; the rings between carry 360/phi_step samples each
    sizes = np.bincount(ring)
    if sizes[0] != 1 or sizes[-1] != 1:
        return None
    phi_step = 360.0 / int(sizes[1])
    if np.any(np.abs(360.0 / sizes[1:-1] - phi_step) > 1e-9):
        return None
    # phis sorted within each ring, against j * phi_step; the poles stay out
    order = np.lexsort((phi_deg, ring))
    j = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    if not np.allclose(
        np.asarray(phi_deg)[order][1:-1], j[1:-1] * phi_step, rtol=0.0, atol=1e-9
    ):
        return None
    return theta_step, phi_step


GRID_CSV_HEADER = ["theta_deg", "phi_deg", "weight_sr"]


def save_grid_csv(grid: SphericalGrid, path) -> None:
    write_csv(path, GRID_CSV_HEADER, [grid.theta_deg, grid.phi_deg, grid.weight_sr])


def load_grid_csv(path) -> SphericalGrid:
    """Read a grid CSV (theta_deg, phi_deg, weight_sr with header)."""
    thetas, phis, weights = float_table(path, GRID_CSV_HEADER, finite=True)
    steps = detect_regular_steps(thetas, phis)
    kind = KIND_REGULAR if steps else KIND_UNIFORM
    try:
        return SphericalGrid(
            thetas,
            phis,
            weights,
            kind=kind,
            theta_step_deg=steps[0] if steps else None,
            phi_step_deg=steps[1] if steps else None,
        )
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc
