import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arraycov import coverage
from arraycov.coverage import (
    CoverageResult,
    _seed_floor,
    GainMap,
    coverage_cdf,
    load_cdf_csv,
    mae_per_theta_cut,
    max_gain_over_plan,
    percentile_gain,
    save_cdf_csv,
    save_gainmap_csv,
)
from arraycov.grid import SphericalGrid, make_regular_grid, make_uniform_sphere_grid
from arraycov.ioutil import ParseError
from arraycov.kernels import synthesize_fields
from arraycov.pattern import ElementPatternSet
from arraycov.synth import SubArraySpec, SynthesisPlan, enumerate_weights
from test_kernels import reference_synth_max


def random_single_element_plan(grid, n, seed=0):
    # one single-element sub-array per feed: realization k's fields are
    # exactly feed k's gains
    rng = np.random.default_rng(seed)
    gains = rng.normal(size=(n, len(grid), 2)) + 1j * rng.normal(
        size=(n, len(grid), 2)
    )
    pset = ElementPatternSet(grid, tuple(f"f{i}" for i in range(n)), gains)
    plan = SynthesisPlan(tuple(SubArraySpec(f"s{i}", (i,)) for i in range(n)), bits=1)
    return pset, plan


def power_of(fields):
    return np.abs(fields[..., 0]) ** 2 + np.abs(fields[..., 1]) ** 2


def reference_max_over_plan(pattern_set, plan):
    """Materializing oracle: synthesize every realization of the plan,
    then keep the per-direction maximum, ties to the lowest index."""
    realized = []
    for spec in plan.sub_arrays:
        elem = pattern_set.gains[list(spec.feed_indices)]
        realized.extend(synthesize_fields(elem, enumerate_weights(spec, plan.bits)))
    grid = pattern_set.grid
    best_power = np.full(len(grid), -1.0)
    best_index = np.zeros(len(grid), dtype=np.int64)
    for k, fields in enumerate(realized):
        p = power_of(fields)
        better = p > best_power
        best_power[better] = p[better]
        best_index[better] = k
    return GainMap(grid, best_power, best_index)


def random_map(grid, seed=0):
    rng = np.random.default_rng(seed)
    return GainMap(grid, rng.uniform(0.01, 10.0, size=len(grid)))


def oracle_strict_cdf(gain_lin, weights, x_db):
    # brute-force weighted counting, independent of the package path
    total = 0.0
    hit = 0.0
    for g, w in zip(gain_lin, weights):
        total += w
        g_db = 10 * math.log10(g) if g > 0 else -math.inf
        if g_db < x_db:
            hit += w
    return hit / total


def oracle_percentile(gain_lin, weights, p):
    # sort-and-scan inverse with linear-in-dB interpolation
    pairs = sorted(
        (10 * math.log10(g) if g > 0 else -math.inf, w)
        for g, w in zip(gain_lin, weights)
    )
    total = sum(w for _, w in pairs)
    agg = []
    for g, w in pairs:
        if agg and agg[-1][0] == g:
            agg[-1][1] += w
        else:
            agg.append([g, w])
    cum = 0.0
    prev_g, prev_c = None, None
    for g, w in agg:
        cum += w
        c = cum / total
        if c >= p:
            if prev_g is None or not math.isfinite(prev_g):
                return g  # no finite left bracket: step answer
            return prev_g + (p - prev_c) / (c - prev_c) * (g - prev_g)
        prev_g, prev_c = g, c
    return agg[-1][0]


def test_max_matches_bruteforce_loop():
    grid = make_uniform_sphere_grid(50)
    pset, plan = random_single_element_plan(grid, 8, seed=1)
    out = max_gain_over_plan(pset, plan)
    for d in range(len(grid)):
        best = -1.0
        best_k = 0
        for k in range(len(pset.feeds)):
            f = pset.gains[k, d]
            p = abs(f[0]) ** 2 + abs(f[1]) ** 2
            if p > best:
                best = p
                best_k = k
        assert out.gain[d] == pytest.approx(best, rel=1e-12)
        assert out.best_index[d] == best_k


def test_max_single_realization_identity():
    grid = make_uniform_sphere_grid(30)
    pset, plan = random_single_element_plan(grid, 1, seed=2)
    out = max_gain_over_plan(pset, plan)
    np.testing.assert_allclose(out.gain, power_of(pset.gains[0]), rtol=1e-15)
    assert np.all(out.best_index == 0)


def test_plan_naming_a_missing_feed_raises_value_error():
    # an IndexError would reach the command line as no EXIT_CODES row
    grid = make_uniform_sphere_grid(30)
    pset, _ = random_single_element_plan(grid, 8)
    plan = SynthesisPlan((SubArraySpec("s", (0, 1)), SubArraySpec("edge", (7, 8))), bits=1)
    with pytest.raises(ValueError, match="sub-array 'edge' references feed index 8"):
        max_gain_over_plan(pset, plan)


def test_max_dominant_realization_wins():
    grid = make_uniform_sphere_grid(30)
    pset, plan = random_single_element_plan(grid, 2, seed=3)
    boosted = ElementPatternSet(grid, pset.feeds, pset.gains * [[[1.0]], [[10.0]]])
    out = max_gain_over_plan(boosted, plan)
    assert np.all(out.best_index == 1)


def test_max_dominance_invariant():
    grid = make_uniform_sphere_grid(40)
    pset, plan = random_single_element_plan(grid, 5, seed=4)
    out = max_gain_over_plan(pset, plan)
    for k in range(len(pset.feeds)):
        assert np.all(out.gain >= power_of(pset.gains[k]) - 1e-15)


def test_plan_numbers_realizations_by_sub_array_then_weight():
    # on direction k only realization k (a/0, a/1, b/0, b/1) adds up
    # in phase; every other direction is dark
    grid = make_uniform_sphere_grid(30)
    gains = np.zeros((4, len(grid), 2), dtype=complex)
    gains[:, :4, 0] = [
        [1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 2.0],
        [0.0, 0.0, 2.0, -2.0],
    ]
    pset = ElementPatternSet(grid, ("a0", "a1", "b0", "b1"), gains)
    plan = SynthesisPlan(
        (SubArraySpec("a", (0, 1)), SubArraySpec("b", (2, 3))), bits=1
    )
    out = max_gain_over_plan(pset, plan)
    assert plan.realization_count == 4
    assert out.best_index[:4].tolist() == [0, 1, 2, 3]
    np.testing.assert_allclose(out.gain[:4], [2.0, 2.0, 8.0, 8.0], rtol=1e-15)
    assert np.all(out.gain[4:] == 0.0) and np.all(out.best_index[4:] == 0)


def test_fused_equals_listed_path():
    grid = make_uniform_sphere_grid(80)
    rng = np.random.default_rng(6)
    gains = rng.normal(size=(4, len(grid), 2)) + 1j * rng.normal(
        size=(4, len(grid), 2)
    )
    pset = ElementPatternSet(grid, ("a", "b", "c", "d"), gains)
    plan = SynthesisPlan(
        (SubArraySpec("s1", (0, 1)), SubArraySpec("s2", (2, 3))), bits=2
    )
    fused = max_gain_over_plan(pset, plan)
    listed = reference_max_over_plan(pset, plan)
    np.testing.assert_allclose(fused.gain, listed.gain, rtol=1e-12)
    np.testing.assert_array_equal(fused.best_index, listed.best_index)


def reference_plan_bits(pattern_set, plan):
    """The chunked reference loop over every sub-array of the plan."""
    n_dir = len(pattern_set.grid)
    best_power, best_index = np.full(n_dir, -1.0), np.zeros(n_dir, dtype=np.int64)
    offset = 0
    for spec in plan.sub_arrays:
        phasors = enumerate_weights(spec, plan.bits)
        elem = pattern_set.gains[list(spec.feed_indices)]
        reference_synth_max(elem, phasors, best_power, best_index, offset)
        offset += len(phasors)
    return best_power, best_index


def assert_plan_matches_reference(pattern_set, plan):
    out = max_gain_over_plan(pattern_set, plan)
    best_power, best_index = reference_plan_bits(pattern_set, plan)
    np.testing.assert_array_equal(out.gain.view(np.int64), best_power.view(np.int64))
    np.testing.assert_array_equal(out.best_index, best_index)


# (feeds of each sub-array): one sub-array; one-feed sub-arrays, whose
# 1-bit codebook is a single row (a gemv); sub-arrays that share feeds, so
# that one sub-array's rows tie the others' exactly; the phone layout
PLANS = {
    "one_sub_array": [(0, 1, 2, 3)],
    "one_feed": [(2,), (0, 1, 2), (5,)],
    "repeated": [(0, 1, 2, 3), (0, 1, 2, 3), (3, 2, 1, 0)],
    "phone": [(0, 1, 2, 3), (4, 5, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7)],
}


@pytest.mark.parametrize("bits", [2, 3])
@pytest.mark.parametrize("layout", list(PLANS.values()), ids=list(PLANS))
def test_seeded_plan_matches_reference_bit_for_bit(layout, bits):
    grid = make_regular_grid(5.0, 20.0)
    rng = np.random.default_rng(bits)
    gains = rng.normal(size=(8, len(grid), 2)) + 1j * rng.normal(size=(8, len(grid), 2))
    # dead for every feed, for the first sub-array's feeds only, and for
    # every feed but one
    gains[:, 3::50] = 0.0
    gains[list(layout[0]), 5::40] = 0.0
    gains[1:, 7::30] = 0.0
    pset = ElementPatternSet(grid, tuple(f"f{i}" for i in range(8)), gains)
    subs = tuple(SubArraySpec(f"s{k}", feeds) for k, feeds in enumerate(layout))
    for scale in (1e-160, 1.0, 1e30):
        scaled = ElementPatternSet(grid, pset.feeds, gains * scale)
        assert_plan_matches_reference(scaled, SynthesisPlan(subs, bits=bits))


def tied_beams(a, b, n_dir, rng):
    """Gains at which rows a and b have the same exact power and, mostly,
    the largest: theta gains that point between them, with some noise,
    and phi gains scaled to make up the difference."""
    shape = (4 * n_dir, 2, len(a))
    g, h = (0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))).transpose(1, 0, 2)
    g += (a + b).conj()
    s2 = (abs(g @ a) ** 2 - abs(g @ b) ** 2) / (abs(h @ b) ** 2 - abs(h @ a) ** 2)
    keep = np.flatnonzero((s2 > 0.0) & (s2 < 100.0))[:n_dir]
    return np.stack([g[keep], np.sqrt(s2[keep])[:, None] * h[keep]], axis=2).transpose(1, 0, 2)


@pytest.mark.parametrize("seed_tile", [2**13, 3 * 2**3], ids=["tiles", "odd_tiles"])
@pytest.mark.parametrize("bits", [2, 3])
def test_rows_tying_the_seeds_realization_match_reference(monkeypatch, bits, seed_tile):
    # The 1-bit row b and its codebook neighbour a have the same exact
    # power, mostly the largest: their computed powers differ by a few
    # ulps either way, and b's also between the seed's call shape and the
    # reference's. b gives the floor, so the floor's margin alone decides
    # whether the winner, a or b, stays in the select. Tiles of 3
    # directions end each seed call in a 2-column tail, where the zgemm
    # rounds otherwise than in the reference's calls.
    monkeypatch.setattr(coverage, "_SEED_TILE", seed_tile)
    phasors = enumerate_weights(SubArraySpec("s", (0, 1, 2, 3)), bits)
    a, b = phasors[2 ** (bits - 1) - 1], phasors[2 ** (bits - 1)]
    assert np.array_equal(np.round(np.angle(b, deg=True)), [0.0, 0.0, 0.0, 180.0])
    grid = make_regular_grid(2.0, 10.0)
    gains = tied_beams(a, b, len(grid), np.random.default_rng(70 + bits))
    pset = ElementPatternSet(grid, ("f0", "f1", "f2", "f3"), gains)
    alone = SynthesisPlan((SubArraySpec("s", (0, 1, 2, 3)),), bits)
    assert np.mean(reference_plan_bits(pset, alone)[1] == 2 ** (bits - 1)) > 0.1
    for layout in ([(0, 1, 2, 3)], [(0, 1, 2, 3), (0, 1, 2, 3)]):
        plan = SynthesisPlan(
            tuple(SubArraySpec(f"s{k}", feeds) for k, feeds in enumerate(layout)), bits
        )
        # the kernel's contract: the floor is at most the winner's power
        assert np.all(_seed_floor(pset, plan) <= reference_plan_bits(pset, plan)[0])
        assert_plan_matches_reference(pset, plan)


def test_cdf_constant_map_is_step():
    grid = make_uniform_sphere_grid(50)
    g0 = 10 ** (7.0 / 10.0)
    result = coverage_cdf(GainMap(grid, np.full(len(grid), g0)))
    assert result.gain_db.size == 1
    assert result.cdf_at(6.99) == 0.0
    assert result.cdf_at(7.0) == 0.0  # strict: P(G < 7 dB) = 0
    assert result.cdf_at(7.01) == 1.0
    assert percentile_gain(result, 0.5) == pytest.approx(7.0)


def test_cdf_two_hemispheres():
    grid = make_uniform_sphere_grid(400)
    north = grid.theta_deg < 90.0
    gain = np.where(north, 10.0, 1.0)  # 10 dB / 0 dB
    result = coverage_cdf(GainMap(grid, gain))
    assert result.cdf_at(5.0) == pytest.approx(0.5, abs=1e-12)
    assert percentile_gain(result, 0.25) == pytest.approx(0.0)
    assert percentile_gain(result, 0.5) == pytest.approx(0.0)


def test_cdf_matches_counting_oracle():
    for gi, grid in enumerate(
        (make_uniform_sphere_grid(301), make_regular_grid(1.0, 10.0))
    ):
        for seed in range(3):
            gmap = random_map(grid, seed=10 * gi + seed)
            result = coverage_cdf(gmap)
            quantiles = np.quantile(gmap.gain_db(), np.linspace(0.02, 0.98, 20))
            for x in quantiles:
                expected = oracle_strict_cdf(gmap.gain, grid.weight_sr, x)
                assert abs(result.cdf_at(x) - expected) < 1e-9


def test_percentile_matches_scan_oracle():
    grid = make_uniform_sphere_grid(301)
    for seed in range(5):
        gmap = random_map(grid, seed=seed)
        result = coverage_cdf(gmap)
        for p in (0.1, 0.5, 0.9):
            expected = oracle_percentile(gmap.gain, grid.weight_sr, p)
            assert abs(percentile_gain(result, p) - expected) < 1e-9


def test_cdf_monotone_and_normalized():
    grid = make_regular_grid(5.0, 15.0)
    result = coverage_cdf(random_map(grid, seed=3))
    assert np.all(np.diff(result.cdf) > 0)
    assert result.cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert result.cdf_at(-math.inf) == 0.0
    assert result.cdf_at(math.inf) == 1.0


CDF_GRIDS = (
    make_regular_grid(30.0, 90.0),
    make_regular_grid(10.0, 30.0),
    make_uniform_sphere_grid(60),
    make_uniform_sphere_grid(301),
)
# a few shared values make ties; zero gains are -inf dB
map_gains = st.sampled_from([0.0, 5e-324, 0.5, 1.0, 3.0]) | st.floats(0.0, 1e300)


@settings(max_examples=150, deadline=None)
@given(grid=st.sampled_from(CDF_GRIDS), data=st.data())
def test_cdf_strictly_increasing_to_one_property(grid, data):
    gmap = GainMap(grid, data.draw(arrays(np.float64, len(grid), elements=map_gains)))
    result = coverage_cdf(gmap)
    np.testing.assert_array_equal(result.gain_db, np.unique(gmap.gain_db()))
    assert np.all(np.diff(result.gain_db) > 0.0)
    assert np.all(np.diff(result.cdf) > 0.0) and result.cdf[0] > 0.0
    assert abs(result.cdf[-1] - 1.0) <= 1e-9


def test_cdf_permutation_invariant():
    grid = make_uniform_sphere_grid(120)
    gmap = random_map(grid, seed=8)
    rng = np.random.default_rng(9)
    perm = rng.permutation(len(grid))
    shuffled_grid = SphericalGrid(
        grid.theta_deg[perm], grid.phi_deg[perm], grid.weight_sr[perm], kind=grid.kind
    )
    shuffled = GainMap(shuffled_grid, gmap.gain[perm])
    a = coverage_cdf(gmap)
    b = coverage_cdf(shuffled)
    np.testing.assert_array_equal(a.gain_db, b.gain_db)
    np.testing.assert_allclose(a.cdf, b.cdf, rtol=0, atol=1e-15)


@pytest.mark.parametrize("step", [2.0, 1.0, 0.25])
@pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
def test_dipole_cdf_matches_its_closed_form(step, p):
    # A z-directed short dipole, g_theta = sqrt(1.5) sin(theta), has
    # G = 1.5 sin^2(theta), so G < g on the polar caps theta < t_g and
    # theta > 180 - t_g, where cos(t_g) = sqrt(1 - g / 1.5): P(G < g) =
    # 1 - sqrt(1 - g / 1.5). A ring carries its band's solid angle, and the
    # bands tile the sphere; a band wholly inside or outside the caps
    # counts as its exact share. Only the bands that hold a cap's edge can
    # count wrongly, by at most their own weight.
    grid = make_regular_grid(step, 120.0)
    gains = np.zeros((1, len(grid), 2), dtype=complex)
    gains[0, :, 0] = math.sqrt(1.5) * np.sin(np.radians(grid.theta_deg))
    pset = ElementPatternSet(grid, ("z",), gains)
    result = coverage_cdf(
        max_gain_over_plan(pset, SynthesisPlan((SubArraySpec("s", (0,)),), bits=1))
    )
    g = 1.5 * (1.0 - (1.0 - p) ** 2)  # the exact p-quantile
    edge = math.degrees(math.acos(math.sqrt(1.0 - g / 1.5)))
    held = np.zeros(len(grid), dtype=bool)
    for boundary in (edge, 180.0 - edge):
        held |= np.abs(grid.theta_deg - boundary) <= step / 2.0
    bound = grid.weight_sr[held].sum() / (4.0 * math.pi)
    assert abs(result.cdf_at(10.0 * math.log10(g)) - p) <= bound + 1e-12


def test_common_scaling_shifts_percentiles():
    grid = make_uniform_sphere_grid(150)
    base = max_gain_over_plan(*random_single_element_plan(grid, 4, seed=11))
    c = 3.7
    scaled = GainMap(grid, base.gain * c, base.best_index)
    pa = coverage_cdf(base)
    pb = coverage_cdf(scaled)
    for p in (0.1, 0.5, 0.9):
        assert percentile_gain(pb, p) - percentile_gain(pa, p) == pytest.approx(
            10 * math.log10(c), abs=1e-9
        )
    np.testing.assert_array_equal(base.best_index, scaled.best_index)


def test_zero_gain_directions_handled():
    grid = make_uniform_sphere_grid(60)
    gain = np.linspace(0.0, 2.0, len(grid))
    result = coverage_cdf(GainMap(grid, gain))
    assert result.gain_db[0] == -math.inf
    p = percentile_gain(result, 0.5)
    assert math.isfinite(p)


def test_percentile_above_a_zero_gain_bracket_is_the_upper_gain():
    # zero-gain directions put -inf dB at the bottom of the CDF; a level
    # just above them takes the next gain, with no interpolation through -inf
    result = CoverageResult(np.array([-math.inf, 3.0, 5.0]), np.array([0.25, 0.5, 1.0]))
    assert percentile_gain(result, 0.3) == 3.0
    assert percentile_gain(result, 0.75) == 4.0


def test_percentile_validation():
    grid = make_uniform_sphere_grid(30)
    result = coverage_cdf(random_map(grid, seed=1))
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            percentile_gain(result, p)


def test_coverage_requires_full_sphere():
    # drop the last ring: weight sum falls well short of 4 pi
    grid = make_uniform_sphere_grid(100)
    keep = grid.theta_deg < 150.0
    partial = SphericalGrid(
        grid.theta_deg[keep], grid.phi_deg[keep], grid.weight_sr[keep], kind="uniform-sphere"
    )
    with pytest.raises(ValueError, match="full-sphere"):
        coverage_cdf(GainMap(partial, np.ones(len(partial))))


def test_mae_identity_and_offset():
    grid = make_regular_grid(10.0, 30.0)
    a = random_map(grid, seed=14)
    same = mae_per_theta_cut(a, a)
    assert all(v == 0.0 for _, v in same)
    b = GainMap(grid, a.gain * 10 ** (0.3 / 10.0))
    offset = mae_per_theta_cut(a, b)
    assert [t for t, _ in offset] == sorted(np.unique(grid.theta_deg).tolist())
    for _, v in offset:
        assert v == pytest.approx(0.3, abs=1e-9)


def test_mae_localized_difference():
    grid = make_regular_grid(10.0, 30.0)
    a = random_map(grid, seed=15)
    gain = np.array(a.gain)
    legs = grid.theta_deg >= 140.0
    gain[legs] *= 2.0
    b = GainMap(grid, gain)
    for theta, v in mae_per_theta_cut(a, b):
        if theta < 140.0:
            assert v == 0.0
        else:
            assert v == pytest.approx(10 * math.log10(2.0), abs=1e-9)


def test_mae_floor_exclusion():
    grid = make_regular_grid(30.0, 90.0)
    gain_a = np.ones(len(grid))
    gain_b = np.ones(len(grid)) * 2.0
    # bury one ring below the floor in map a
    ring = grid.theta_deg == 90.0
    gain_a[ring] = 1e-9
    result = dict(mae_per_theta_cut(GainMap(grid, gain_a), GainMap(grid, gain_b)))
    assert math.isnan(result[90.0])
    assert result[30.0] == pytest.approx(10 * math.log10(2.0))


def test_mae_requires_shared_regular_grid():
    regular = make_regular_grid(30.0, 90.0)
    uniform = make_uniform_sphere_grid(30)
    with pytest.raises(ValueError):
        mae_per_theta_cut(random_map(regular), random_map(make_regular_grid(30.0, 45.0)))
    with pytest.raises(ValueError, match="regular"):
        mae_per_theta_cut(random_map(uniform), random_map(uniform))


def test_cdf_csv_round_trip(tmp_path):
    grid = make_uniform_sphere_grid(90)
    result = coverage_cdf(random_map(grid, seed=16))
    path = tmp_path / "cdf.csv"
    save_cdf_csv(result, path)
    loaded = load_cdf_csv(path)
    np.testing.assert_array_equal(loaded.gain_db, result.gain_db)
    np.testing.assert_array_equal(loaded.cdf, result.cdf)
    for p in (0.1, 0.5, 0.9):
        assert percentile_gain(loaded, p) == percentile_gain(result, p)


def test_cdf_csv_errors(tmp_path):
    path = tmp_path / "cdf.csv"
    path.write_text("gain,cdf\n")
    with pytest.raises(ParseError):
        load_cdf_csv(path)
    path.write_text("gain_db,cdf\n")
    with pytest.raises(ParseError):
        load_cdf_csv(path)
    path.write_text("gain_db,cdf\n1.0,0.5\n0.5,1.0\n")
    with pytest.raises(ParseError):
        load_cdf_csv(path)
    path.write_text("gain_db,cdf\nx,0.5\n")
    with pytest.raises(ParseError) as err:
        load_cdf_csv(path)
    assert err.value.row == 2
    # the first NaN cell or +inf gain, rows counted as in the file
    for body, row in (
        ("nan,0.5\n1.0,1.0\n", 2),
        ("0.0,nan\n1.0,1.0\n", 2),
        ("-inf,0.5\n\n1.0,nan\n", 4),
        ("0.0,0.5\n\n\ninf,1.0\n", 5),
        ("nan,nan\ninf,nan\n", 2),
    ):
        path.write_text("gain_db,cdf\n" + body)
        with pytest.raises(ParseError) as err:
            load_cdf_csv(path)
        assert err.value.row == row
    path.write_text("gain_db,cdf\n-inf,0.5\n\n1.0,1.0\n")
    assert load_cdf_csv(path).gain_db.tolist() == [-math.inf, 1.0]


def test_gainmap_csv_export(tmp_path):
    grid = make_regular_grid(30.0, 90.0)
    gmap = random_map(grid, seed=17)
    path = tmp_path / "map.csv"
    save_gainmap_csv(gmap, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta_deg,phi_deg,weight_sr,gain_db"
    assert len(lines) == len(grid) + 1
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(gmap.gain_db()[0])


def test_coverage_result_validation():
    with pytest.raises(ValueError):
        CoverageResult(np.array([1.0, 0.5]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        CoverageResult(np.array([0.5, 1.0]), np.array([0.5, 0.9]))
    with pytest.raises(ValueError):
        CoverageResult(np.array([0.5, 1.0]), np.array([0.9, 0.5]))
    for gain_db, cdf in (([0.5, 1.0], [1.0]), ([], []), ([[0.5, 1.0]], [[0.5, 1.0]])):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            CoverageResult(np.array(gain_db), np.array(cdf))
    for gain_db, cdf in (
        ([math.nan, 1.0], [0.5, 1.0]),
        ([0.5, math.nan], [0.5, 1.0]),
        ([0.5, 1.0], [math.nan, 1.0]),
        ([0.5, 1.0], [0.5, math.nan]),
        ([0.5, math.inf], [0.5, 1.0]),
    ):
        with pytest.raises(ValueError, match="NaN"):
            CoverageResult(np.array(gain_db), np.array(cdf))
    # save_cdf_csv writes a leading -inf where some directions have zero gain
    assert CoverageResult(np.array([-math.inf, 1.0]), np.array([0.5, 1.0])).peak_gain_db == 1.0


def test_gainmap_validation():
    grid = make_uniform_sphere_grid(30)
    with pytest.raises(ValueError):
        GainMap(grid, np.ones(len(grid) - 1))
    bad = np.ones(len(grid))
    bad[0] = -1.0
    with pytest.raises(ValueError):
        GainMap(grid, bad)
    bad[0] = math.inf
    with pytest.raises(ValueError):
        GainMap(grid, bad)
    with pytest.raises(ValueError, match="best_index does not match"):
        GainMap(grid, np.ones(len(grid)), np.zeros(len(grid) + 1, dtype=np.int64))
