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

import numpy as np

FULL_SPHERE_SR = 4.0 * math.pi

# relative tolerance on the full-sphere weight-sum closure
_CLOSURE_RTOL = 1e-3

# most directions a grid constructor builds (1 deg x 1 deg has 64442)
MAX_GRID_DIRECTIONS = 10_000_000

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


class Direction:
    """A direction on the sphere: polar angle theta (0 = +z), azimuth phi.

    phi is normalized into [0, 360); at the poles every phi denotes the
    same direction, so phi collapses to 0 there, whatever phi the
    direction was built with.
    """

    __slots__ = ("theta_deg", "phi_deg")

    def __init__(self, theta_deg, phi_deg=0.0):
        theta = float(theta_deg)
        phi = float(phi_deg)
        if not (0.0 <= theta <= 180.0) or not math.isfinite(phi):
            raise ValueError(f"direction out of range: theta={theta}, phi={phi}")
        self.theta_deg = theta
        self.phi_deg = 0.0 if _is_pole(theta) else phi % 360.0


class SphericalGrid:
    """Ordered direction samples with per-direction solid angles [sr].

    kind is a label. A grid is regular when it has steps, and only
    make_regular_grid gives it them, with its layout.
    """

    __slots__ = ("theta_deg", "phi_deg", "weight_sr", "kind", "theta_step_deg", "phi_step_deg")

    def __init__(self, theta_deg, phi_deg, weight_sr, kind):
        theta = np.ascontiguousarray(theta_deg, dtype=np.float64)
        phi = np.ascontiguousarray(phi_deg, dtype=np.float64)
        weight = np.ascontiguousarray(weight_sr, dtype=np.float64)
        if not (theta.shape == phi.shape == weight.shape) or theta.ndim != 1:
            raise ValueError("grid arrays must be 1-D and equally sized")
        if theta.size == 0:
            raise ValueError("grid has no directions")
        if np.any(weight <= 0.0) or not np.all(np.isfinite(weight)):
            raise ValueError("solid-angle weights must be positive and finite")
        for arr in (theta, phi, weight):
            arr.flags.writeable = False
        self.theta_deg, self.phi_deg, self.weight_sr = theta, phi, weight
        self.kind = kind
        self.theta_step_deg = self.phi_step_deg = None
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
        return self.theta_step_deg is not None


def _band_solid_angle(theta_lo_deg, theta_hi_deg):
    # 2*pi*(cos lo - cos hi), exact for a full azimuth band
    lo = math.radians(theta_lo_deg)
    hi = math.radians(theta_hi_deg)
    return 2.0 * math.pi * (math.cos(lo) - math.cos(hi))


def _check_divides(step, span, name):
    if not (step > 0.0) or not math.isfinite(step):
        raise ValueError(f"{name} must be positive, got {step}")
    n = span / step
    if not math.isfinite(n):
        raise ValueError(f"{name}={step} is too small to divide {span}")
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"{name}={step} does not divide {span}")
    return int(round(n))


def _ring_positions(ring_sizes):
    """Each direction's position within its ring, rings laid end to end."""
    sizes = np.asarray(ring_sizes)
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def make_regular_grid(theta_step_deg, phi_step_deg) -> SphericalGrid:
    """Full-sphere theta/phi lattice with poles stored once.

    Rings sit at theta = 0, step, ..., 180; each non-pole ring carries
    360/phi_step samples. Ring solid-angle bands (half a step to either
    side, clipped at the poles) are split evenly among the ring samples.
    Steps giving more than MAX_GRID_DIRECTIONS directions raise ValueError.
    """
    n_theta = _check_divides(theta_step_deg, 180.0, "theta_step_deg")
    n_phi = _check_divides(phi_step_deg, 360.0, "phi_step_deg")
    if (n_theta - 1) * n_phi + 2 > MAX_GRID_DIRECTIONS:
        raise ValueError(
            f"theta_step_deg={theta_step_deg} and phi_step_deg={phi_step_deg} give "
            f"more than {MAX_GRID_DIRECTIONS} directions"
        )
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
    grid = SphericalGrid(
        np.repeat(ring_thetas, ring_sizes),
        _ring_positions(ring_sizes) * phi_step,
        np.repeat(ring_weights, ring_sizes),
        kind=KIND_REGULAR,
    )
    grid.theta_step_deg, grid.phi_step_deg = theta_step, phi_step
    return grid


def ring_index(grid: SphericalGrid) -> np.ndarray:
    """(rings, n_phi) grid positions of a regular grid, in make_regular_grid's
    layout: rings north to south, each in phi order, a pole's one position
    in every column. Raises ValueError for a grid that is not regular."""
    if not grid.is_regular:
        raise ValueError("ring structure requires a regular grid")
    n_rings = round(180.0 / grid.theta_step_deg) + 1
    n_phi = round(360.0 / grid.phi_step_deg)
    # ring r > 0 starts at (r - 1) n_phi + 1; the clip folds a pole's row to its position
    first = np.arange(1 - n_phi, (n_rings - 1) * n_phi + 1).reshape(n_rings, n_phi)
    return np.clip(first, 0, len(grid) - 1)


def _uniform_ring_layout(target_count):
    # rings at (r + 0.5) * 180/M; equator azimuth count tuned so the
    # total sample count lands as close to the target as possible
    n_rings = max(2, round(math.sqrt(math.pi * target_count) / 2.0))
    # the totals of every candidate n_eq = 1 .. 8M, summed ring by ring;
    # np.rint rounds half to even, as round does
    n_eq = np.arange(1.0, 8 * n_rings + 1)
    totals = np.zeros(n_eq.size)
    for r in range(n_rings):
        sin = math.sin(math.radians((r + 0.5) * 180.0 / n_rings))
        totals += np.maximum(1.0, np.rint(n_eq * sin))
    # the smallest n_eq among those nearest the target
    return n_rings, int(np.argmin(np.abs(totals - target_count))) + 1


def make_uniform_sphere_grid(target_count) -> SphericalGrid:
    """Ring-based grid with near-constant sample density over the sphere.

    Ring r (of M total) sits at theta = (r + 0.5) * 180/M and carries
    max(1, round(n_eq * sin(theta))) azimuth samples; each sample gets an
    equal share of its ring's exact solid-angle band. The construction is
    deterministic and the realized count lands within a few samples of
    target_count, which may not exceed MAX_GRID_DIRECTIONS.
    """
    if not isinstance(target_count, (int, np.integer)):
        raise ValueError(f"target_count must be an integer, got {target_count!r}")
    if target_count < 6:
        raise ValueError(f"target_count must be >= 6, got {target_count}")
    if target_count > MAX_GRID_DIRECTIONS:
        raise ValueError(
            f"target_count must be at most {MAX_GRID_DIRECTIONS}, got {target_count}"
        )
    n_rings, n_eq = _uniform_ring_layout(int(target_count))

    ring_step = 180.0 / n_rings
    ring_thetas, ring_sizes, ring_weights = [], [], []
    for r in range(n_rings):
        theta = (r + 0.5) * ring_step
        size = max(1, round(n_eq * math.sin(math.radians(theta))))
        ring_thetas.append(theta)
        ring_sizes.append(size)
        ring_weights.append(_band_solid_angle(r * ring_step, (r + 1) * ring_step) / size)
    return SphericalGrid(
        np.repeat(ring_thetas, ring_sizes),
        _ring_positions(ring_sizes) * 360.0 / np.repeat(ring_sizes, ring_sizes),
        np.repeat(ring_weights, ring_sizes),
        kind=KIND_UNIFORM,
    )
