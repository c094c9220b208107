import functools
import math
import tracemalloc

import numpy as np
import pytest

from arraycov.grid import (
    MAX_GRID_DIRECTIONS,
    Direction,
    SphericalGrid,
    _band_solid_angle,
    _uniform_ring_layout,
    detect_regular_steps,
    direction_keys,
    make_regular_grid,
    make_uniform_sphere_grid,
    regular_ring_structure,
)
from arraycov.pattern import ElementPatternSet, load_pattern_csv, save_pattern_csv

FULL_SPHERE = 4.0 * math.pi


def test_direction_normalizes_phi():
    d = Direction(45.0, 370.0)
    assert d.phi_deg == 10.0
    assert Direction(45.0, -90.0).phi_deg == 270.0


def test_direction_pole_collapses_phi():
    assert Direction(0.0, 123.0) == Direction(0.0, 0.0)
    assert hash(Direction(0.0, 123.0)) == hash(Direction(0.0, 0.0))
    assert len({Direction(180.0, 10.0), Direction(180.0, 350.0)}) == 1
    assert Direction(180.0, 45.0).phi_deg == 0.0


def test_direction_equals_only_directions():
    d = Direction(45.0, 10.0)
    assert d.__eq__((45.0, 10.0)) is NotImplemented
    assert d != (45.0, 10.0)
    assert d != Direction(45.0, 20.0)


def test_direction_rejects_bad_theta():
    with pytest.raises(ValueError):
        Direction(-1.0, 0.0)
    with pytest.raises(ValueError):
        Direction(180.5, 0.0)
    with pytest.raises(ValueError):
        Direction(90.0, math.nan)


def test_regular_grid_measurement_shape():
    # 1 deg theta x 10 deg phi: 179 rings x 36 + 2 poles
    grid = make_regular_grid(1.0, 10.0)
    assert len(grid) == 6446
    assert grid.kind == "regular"
    assert np.count_nonzero(grid.theta_deg == 0.0) == 1
    assert np.count_nonzero(grid.theta_deg == 180.0) == 1


def test_regular_grid_weight_closure():
    grid = make_regular_grid(1.0, 10.0)
    assert abs(grid.weight_sum - FULL_SPHERE) <= 1e-3 * FULL_SPHERE
    assert grid.is_full_sphere
    # analytic bands close much tighter than the stated 0.1%
    assert grid.weight_sum == pytest.approx(FULL_SPHERE, rel=1e-12)


def test_regular_grid_weights_match_band_integral():
    grid = make_regular_grid(5.0, 30.0)
    # independent formula: ring band split over its 12 samples
    theta = 45.0
    lo, hi = math.radians(42.5), math.radians(47.5)
    expected = 2.0 * math.pi * (math.cos(lo) - math.cos(hi)) / 12.0
    idx = np.nonzero(grid.theta_deg == theta)[0]
    assert idx.size == 12
    np.testing.assert_allclose(grid.weight_sr[idx], expected, rtol=1e-12)


def test_regular_grid_pole_cap_weight():
    grid = make_regular_grid(10.0, 30.0)
    cap = 2.0 * math.pi * (1.0 - math.cos(math.radians(5.0)))
    i = int(np.nonzero(grid.theta_deg == 0.0)[0][0])
    assert grid.weight_sr[i] == pytest.approx(cap, rel=1e-12)


@pytest.mark.parametrize("n_theta", [39, 78, 156])
def test_regular_grid_south_pole_when_steps_round_short(n_theta):
    # n * (180 / n) rounds below 180 for these counts
    assert n_theta * (180.0 / n_theta) < 180.0
    grid = make_regular_grid(180.0 / n_theta, 90.0)
    assert np.count_nonzero(grid.theta_deg == 180.0) == 1
    assert grid.theta_deg.max() == 180.0
    assert len(grid) == 2 + (n_theta - 1) * 4
    cap = 2.0 * math.pi * (1.0 - math.cos(math.radians(90.0 / n_theta)))
    assert grid.weight_sr[-1] == pytest.approx(cap, rel=1e-9)


# 180/7 has no 9-decimal form, so its direction keys step unevenly;
# 39, 78 and 156 also put n * (180 / n) below 180
@pytest.mark.parametrize("n_theta", [7, 39, 78, 156])
def test_regular_grid_csv_round_trips_at_inexact_steps(tmp_path, n_theta):
    # a pattern CSV on the lattice: its reader finds the steps with
    # detect_regular_steps
    grid = make_regular_grid(180.0 / n_theta, 90.0)
    rng = np.random.default_rng(n_theta)
    shape = (1, len(grid), 2)
    pset = ElementPatternSet(
        grid, ("f0",), rng.normal(size=shape) + 1j * rng.normal(size=shape)
    )
    pattern_path = tmp_path / "pattern.csv"
    save_pattern_csv(pset, pattern_path)
    back = load_pattern_csv(pattern_path)
    assert back.grid.kind == "regular"
    assert (back.grid.theta_step_deg, back.grid.phi_step_deg) == (180.0 / n_theta, 90.0)
    assert back.grid.same_directions(grid)
    assert back.grid.weight_sr.tobytes() == grid.weight_sr.tobytes()
    assert back.gains.tobytes() == pset.gains.tobytes()


def test_regular_grid_rejects_non_dividing_steps():
    with pytest.raises(ValueError):
        make_regular_grid(7.0, 10.0)
    with pytest.raises(ValueError):
        make_regular_grid(1.0, 11.0)
    with pytest.raises(ValueError):
        make_regular_grid(0.0, 10.0)
    with pytest.raises(ValueError):
        make_regular_grid(-1.0, 10.0)


def test_grids_above_the_direction_cap_are_rejected():
    # each step divides its span exactly; the count alone is too large
    fine = 180.0 / 2**24
    with pytest.raises(ValueError, match="theta_step_deg=.* more than 10000000 directions"):
        make_regular_grid(fine, 10.0)
    with pytest.raises(ValueError, match="phi_step_deg=.* more than 10000000 directions"):
        make_regular_grid(90.0, 2 * fine)
    # a step so small that span / step overflows to infinity
    with pytest.raises(ValueError, match="theta_step_deg=1e-308 is too small"):
        make_regular_grid(1e-308, 10.0)
    with pytest.raises(ValueError, match="phi_step_deg=1e-320 is too small"):
        make_regular_grid(90.0, 1e-320)
    for target in (MAX_GRID_DIRECTIONS + 1, 10**18):
        with pytest.raises(ValueError, match=f"target_count must be at most .*{target}"):
            make_uniform_sphere_grid(target)


def test_uniform_grid_count_and_closure():
    grid = make_uniform_sphere_grid(301)
    assert grid.kind == "uniform-sphere"
    assert abs(len(grid) - 301) <= 0.05 * 301
    assert grid.weight_sum == pytest.approx(FULL_SPHERE, rel=1e-12)


def test_uniform_grid_ring_counts_taper_to_poles():
    grid = make_uniform_sphere_grid(500)
    thetas = np.unique(grid.theta_deg)
    counts = [int(np.count_nonzero(grid.theta_deg == t)) for t in thetas]
    mid = np.argmin(np.abs(thetas - 90.0))
    assert all(counts[i] >= counts[i - 1] for i in range(1, mid + 1))
    assert all(counts[i] >= counts[i + 1] for i in range(mid, len(counts) - 1))


def test_uniform_grid_near_equal_density():
    grid = make_uniform_sphere_grid(1000)
    w = grid.weight_sr
    assert w.max() / np.median(w) < 2.0
    assert np.median(w) / w.min() < 2.0


def test_uniform_grid_deterministic():
    a = make_uniform_sphere_grid(301)
    b = make_uniform_sphere_grid(301)
    assert a.same_directions(b)
    assert np.array_equal(a.weight_sr, b.weight_sr)


@functools.cache
def _ring_total(n_rings, n_eq):
    count = 0
    for r in range(n_rings):
        theta = math.radians((r + 0.5) * 180.0 / n_rings)
        count += max(1, round(n_eq * math.sin(theta)))
    return count


def _reference_ring_layout(target_count):
    # the layout as a loop over every candidate n_eq, with Python's round;
    # a ring count's totals are shared by every target that has it
    n_rings = max(2, round(math.sqrt(math.pi * target_count) / 2.0))
    best_eq, best_diff = 1, abs(_ring_total(n_rings, 1) - target_count)
    for n_eq in range(2, 8 * n_rings + 1):
        diff = abs(_ring_total(n_rings, n_eq) - target_count)
        if diff < best_diff:
            best_eq, best_diff = n_eq, diff
    return n_rings, best_eq


def test_uniform_ring_layout_matches_candidate_loop():
    for target in [*range(6, 3001), 6446, 64442]:
        assert _uniform_ring_layout(target) == _reference_ring_layout(target), target


def _direction_loop_uniform_grid(target_count):
    # the construction one direction at a time, as Python floats
    n_rings, n_eq = _uniform_ring_layout(target_count)
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
    return np.array(thetas), np.array(phis), np.array(weights)


def test_uniform_grid_bit_identical_to_direction_loop():
    for target in [*range(6, 3001), 6446, 64442]:
        grid = make_uniform_sphere_grid(target)
        for got, want in zip(
            (grid.theta_deg, grid.phi_deg, grid.weight_sr), _direction_loop_uniform_grid(target)
        ):
            assert got.tobytes() == want.tobytes(), target


def test_uniform_grid_peak_memory_per_direction():
    make_uniform_sphere_grid(1000)  # numpy's first-call allocations stay out
    tracemalloc.start()
    try:
        grid = make_uniform_sphere_grid(400_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the three float64 arrays kept are 24 B of it
    assert peak / len(grid) < 100


def test_uniform_grid_rejects_tiny_targets():
    with pytest.raises(ValueError):
        make_uniform_sphere_grid(5)
    with pytest.raises(ValueError):
        make_uniform_sphere_grid(3.5)


def test_direction_keys_are_python_round():
    # ties at the 10th decimal, where rounding x * 1e9 as a double can
    # pick the other neighbour, plus ordinary and very large angles
    rng = np.random.default_rng(5)
    theta = np.concatenate(
        [np.arange(-40, 400) * 5e-10, rng.uniform(0.0, 180.0, 500), [1e7, 3.3e15]]
    )
    phi = np.concatenate([np.arange(-40, 400) * 0.5e-9 + 30.0, rng.uniform(-720, 720, 502)])
    key_t, key_p = direction_keys(theta, phi)
    for t, p, kt, kp in zip(theta.tolist(), phi.tolist(), key_t.tolist(), key_p.tolist()):
        want_p = 0.0 if t in (0.0, 180.0) else p % 360.0
        assert (kt, kp) == (round(t, 9), round(want_p, 9))
        assert math.copysign(1.0, kt) == math.copysign(1.0, round(t, 9))


def test_grid_arrays_immutable():
    grid = make_regular_grid(30.0, 90.0)
    with pytest.raises(ValueError):
        grid.weight_sr[0] = 1.0


def test_duplicate_directions_rejected():
    with pytest.raises(ValueError):
        SphericalGrid(
            np.array([10.0, 10.0]),
            np.array([0.0, 0.0]),
            np.array([1.0, 1.0]),
            kind="uniform-sphere",
        )


def test_duplicate_directions_named_by_row():
    # the earliest repeat is reported with its first occurrence; pole
    # directions collapse whatever their phi
    with pytest.raises(ValueError, match="at rows 1 and 3"):
        SphericalGrid(
            np.array([10.0, 20.0, 30.0, 20.0, 10.0]),
            np.array([0.0, 5.0, 0.0, 365.0, 0.0]),
            np.ones(5),
            kind="uniform-sphere",
        )
    with pytest.raises(ValueError, match="at rows 0 and 2"):
        SphericalGrid(
            np.array([180.0, 90.0, 180.0]),
            np.array([0.0, 0.0, 90.0]),
            np.ones(3),
            kind="uniform-sphere",
        )


def _ring_loop_regular_grid(theta_step_deg, phi_step_deg):
    # make_regular_grid as one append per direction
    n_theta = round(180.0 / theta_step_deg)
    n_phi = round(360.0 / phi_step_deg)
    theta_step, phi_step = 180.0 / n_theta, 360.0 / n_phi
    thetas, phis, weights = [], [], []
    for i in range(n_theta + 1):
        theta = i * theta_step
        lo = math.radians(max(0.0, theta - theta_step / 2.0))
        hi = math.radians(min(180.0, theta + theta_step / 2.0))
        band = 2.0 * math.pi * (math.cos(lo) - math.cos(hi))
        if theta in (0.0, 180.0):
            thetas.append(theta)
            phis.append(0.0)
            weights.append(band)
        else:
            for j in range(n_phi):
                thetas.append(theta)
                phis.append(j * phi_step)
                weights.append(band / n_phi)
    return np.array(thetas), np.array(phis), np.array(weights)


@pytest.mark.parametrize(
    "steps", [(1.0, 10.0), (30.0, 90.0), (0.5, 7.2), (180.0 / 7, 360.0 / 11)]
)
def test_regular_grid_bit_identical_to_ring_loop(steps):
    grid = make_regular_grid(*steps)
    for got, want in zip(
        (grid.theta_deg, grid.phi_deg, grid.weight_sr), _ring_loop_regular_grid(*steps)
    ):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "theta, phi, weight, message",
    [
        ([10.0, 20.0], [0.0], [1.0, 1.0], "1-D and equally sized"),
        ([[10.0, 20.0]], [[0.0, 0.0]], [[1.0, 1.0]], "1-D and equally sized"),
        ([], [], [], "no directions"),
    ],
    ids=["unequal", "two_dimensional", "empty"],
)
def test_grid_array_shapes_rejected(theta, phi, weight, message):
    with pytest.raises(ValueError, match=message):
        SphericalGrid(np.array(theta), np.array(phi), np.array(weight), kind="uniform-sphere")


def test_nonpositive_weights_rejected():
    with pytest.raises(ValueError):
        SphericalGrid(
            np.array([10.0, 20.0]),
            np.array([0.0, 0.0]),
            np.array([1.0, 0.0]),
            kind="uniform-sphere",
        )


def test_detect_regular_steps():
    grid = make_regular_grid(15.0, 45.0)
    steps = detect_regular_steps(grid.theta_deg, grid.phi_deg)
    assert steps == (15.0, 45.0)
    uniform = make_uniform_sphere_grid(100)
    assert detect_regular_steps(uniform.theta_deg, uniform.phi_deg) is None


def test_detect_regular_steps_rejects_off_lattice_rings_and_doubled_poles():
    grid = make_regular_grid(60.0, 90.0)
    theta = grid.theta_deg.copy()
    theta[theta == 60.0] = 50.0  # poles and three rings, not evenly spaced
    assert detect_regular_steps(theta, grid.phi_deg) is None
    # a second north-pole sample at another phi
    theta = np.concatenate([[0.0], grid.theta_deg])
    phi = np.concatenate([[90.0], grid.phi_deg])
    assert detect_regular_steps(theta, phi) is None


@pytest.mark.parametrize(
    "shift, regular", [(5e-10, True), (1e-6, False), (45.0, False), (0.0, True)]
)
def test_detect_regular_steps_phi_tolerance(shift, regular):
    # phi may sit 1e-9 off the lattice in any row order; pole phi is free
    grid = make_regular_grid(15.0, 45.0)
    order = np.random.default_rng(2).permutation(len(grid))
    theta, phi = grid.theta_deg[order], grid.phi_deg[order].copy()
    phi[theta == 180.0] = 123.0
    phi[np.flatnonzero(theta == 60.0)[3]] += shift
    steps = detect_regular_steps(theta, phi)
    assert steps == ((15.0, 45.0) if regular else None)


def test_ring_structure():
    grid = make_regular_grid(45.0, 90.0)
    thetas, rings = regular_ring_structure(grid)
    np.testing.assert_array_equal(thetas, [0.0, 45.0, 90.0, 135.0, 180.0])
    assert [len(r) for r in rings] == [1, 4, 4, 4, 1]
    ring = rings[1]
    np.testing.assert_array_equal(grid.phi_deg[ring], [0.0, 90.0, 180.0, 270.0])
    with pytest.raises(ValueError, match="requires a regular grid"):
        regular_ring_structure(make_uniform_sphere_grid(100))

