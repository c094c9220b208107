import cmath
import json
import math
import os
import random
import tracemalloc
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arraycov import cli, pattern, patterncache
from arraycov.errors import ParseError
from arraycov.grid import (
    SphericalGrid,
    _is_pole,
    detect_regular_steps,
    make_regular_grid,
    make_uniform_sphere_grid,
)
from arraycov.pattern import (
    _POLE_MERGE_ATOL,
    ElementPatternSet,
    _parse_pattern_rows,
    load_pattern_csv,
    resample,
    save_pattern_csv,
    sidecar_path,
)


def random_set(theta_step=30.0, phi_step=90.0, n_feeds=2, seed=0):
    grid = make_regular_grid(theta_step, phi_step)
    rng = np.random.default_rng(seed)
    shape = (n_feeds, len(grid), 2)
    gains = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    feeds = tuple(f"{i + 1}{'V' if i % 2 == 0 else 'H'}" for i in range(n_feeds))
    return ElementPatternSet(grid, feeds, gains)


def test_round_trip_bit_exact(tmp_path):
    original = random_set(n_feeds=3, seed=11)
    path = tmp_path / "patterns.csv"
    save_pattern_csv(original, path)
    loaded = load_pattern_csv(path)
    assert loaded.feeds == original.feeds
    assert loaded.grid.same_directions(original.grid)
    np.testing.assert_array_equal(loaded.gains, original.gains)
    assert np.abs(loaded.gains - original.gains).max() < 1e-7
    assert loaded.frequency_ghz == original.frequency_ghz
    assert loaded.convention == original.convention


def test_save_twice_byte_identical(tmp_path):
    original = random_set(seed=3)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_pattern_csv(original, a)
    save_pattern_csv(load_pattern_csv(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_sidecar_metadata(tmp_path):
    original = random_set()
    path = tmp_path / "patterns.csv"
    save_pattern_csv(original, path)
    meta = json.loads((tmp_path / "patterns.json").read_text())
    assert meta == {"frequency_ghz": 28.0, "convention": "realized-gain-embedded"}
    # defaults apply when the sidecar is absent
    os.remove(sidecar_path(path))
    loaded = load_pattern_csv(path)
    assert loaded.frequency_ghz == 28.0
    assert loaded.convention == "realized-gain-embedded"


def test_sidecar_overrides(tmp_path):
    original = random_set()
    path = tmp_path / "patterns.csv"
    save_pattern_csv(original, path)
    (tmp_path / "patterns.json").write_text(
        '{"frequency_ghz": 39.0, "convention": "realized-gain-embedded"}'
    )
    assert load_pattern_csv(path).frequency_ghz == 39.0


def test_row_order_independent(tmp_path):
    original = random_set(seed=5)
    path = tmp_path / "patterns.csv"
    save_pattern_csv(original, path)
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    rows.reverse()
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + rows) + "\n")
    loaded = load_pattern_csv(shuffled)
    assert loaded.feeds == tuple(reversed(original.feeds))
    for feed in original.feeds:
        a = original.gains[original.feed_index(feed)]
        b = loaded.gains[loaded.feed_index(feed)]
        np.testing.assert_array_equal(a, b)


def test_pole_rows_deduplicate(tmp_path):
    # a writer that stores the pole at every phi must load cleanly
    path = tmp_path / "patterns.csv"
    rows = ["feed,theta_deg,phi_deg,re_gtheta,im_gtheta,re_gphi,im_gphi"]
    for phi in (0.0, 90.0, 180.0, 270.0):
        rows.append(f"a,0.0,{phi},1.0,0.0,0.0,0.0")
        rows.append(f"a,180.0,{phi},0.5,0.0,0.0,0.0")
        rows.append(f"a,90.0,{phi},0.25,0.0,0.0,0.0")
    path.write_text("\n".join(rows) + "\n")
    loaded = load_pattern_csv(path)
    assert len(loaded.grid) == 6
    # grid order is ascending theta, so the north pole is direction 0
    assert loaded.gains[0, 0, 0] == 1.0


def test_conflicting_pole_rows_rejected(tmp_path):
    path = tmp_path / "patterns.csv"
    rows = [
        "feed,theta_deg,phi_deg,re_gtheta,im_gtheta,re_gphi,im_gphi",
        "a,0.0,0.0,1.0,0.0,0.0,0.0",
        "a,0.0,90.0,1.1,0.0,0.0,0.0",
    ]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        load_pattern_csv(path)
    assert err.value.row == 3


def test_duplicate_direction_rejected(tmp_path):
    path = tmp_path / "patterns.csv"
    rows = [
        "feed,theta_deg,phi_deg,re_gtheta,im_gtheta,re_gphi,im_gphi",
        "a,90.0,0.0,1.0,0.0,0.0,0.0",
        "a,90.0,0.0,1.0,0.0,0.0,0.0",
    ]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        load_pattern_csv(path)
    assert err.value.row == 3


def test_nan_cited_with_row(tmp_path):
    original = random_set(seed=7)
    path = tmp_path / "patterns.csv"
    save_pattern_csv(original, path)
    lines = path.read_text().splitlines()
    parts = lines[6].split(",")
    parts[3] = "nan"
    lines[6] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_pattern_csv(path)
    assert err.value.row == 7
    assert "row 7" in str(err.value)


def test_empty_file(tmp_path):
    path = tmp_path / "patterns.csv"
    path.write_text("feed,theta_deg,phi_deg,re_gtheta,im_gtheta,re_gphi,im_gphi\n")
    with pytest.raises(ParseError, match="no samples"):
        load_pattern_csv(path)


def test_missing_header(tmp_path):
    path = tmp_path / "patterns.csv"
    path.write_text("feed,theta_deg,phi_deg\na,0,0\n")
    with pytest.raises(ParseError) as err:
        load_pattern_csv(path)
    assert err.value.row == 1


def test_ragged_lattice_rejected(tmp_path):
    original = random_set(seed=2)
    path = tmp_path / "patterns.csv"
    save_pattern_csv(original, path)
    lines = path.read_text().splitlines()
    del lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_pattern_csv(path)


def test_feeds_must_share_lattice(tmp_path):
    path = tmp_path / "patterns.csv"
    rows = ["feed,theta_deg,phi_deg,re_gtheta,im_gtheta,re_gphi,im_gphi"]
    grid = make_regular_grid(90.0, 180.0)
    for i in range(len(grid)):
        rows.append(f"a,{grid.theta_deg[i]},{grid.phi_deg[i]},1,0,0,0")
        if i > 0:
            rows.append(f"b,{grid.theta_deg[i]},{grid.phi_deg[i]},1,0,0,0")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="different directions"):
        load_pattern_csv(path)


def test_power_gain_db_identities():
    grid = make_regular_grid(90.0, 180.0)
    gains = np.zeros((3, len(grid), 2), dtype=complex)
    gains[0, :, 0] = 1.0
    gains[1, :, 0] = 1.0
    gains[1, :, 1] = 1.0
    pset = ElementPatternSet(grid, ("unit", "both", "null"), gains)
    assert np.all(10 * np.log10(pset.power_gain("unit")) == 0.0)
    np.testing.assert_allclose(10 * np.log10(pset.power_gain("both")), 10 * math.log10(2.0))
    assert np.all(pset.power_gain("null") == 0.0)


def test_power_gain_lookup_errors():
    pset = random_set()
    with pytest.raises(KeyError, match="unknown feed 'nope'"):
        pset.power_gain("nope")


def test_power_gain_phase_invariant():
    pset = random_set(seed=9)
    rotated = ElementPatternSet(
        pset.grid, pset.feeds, pset.gains * cmath.exp(1j * 0.7)
    )
    for feed in pset.feeds:
        np.testing.assert_allclose(
            rotated.power_gain(feed), pset.power_gain(feed), rtol=1e-12
        )


def test_validation_rejects_bad_sets():
    grid = make_regular_grid(90.0, 180.0)
    good = np.zeros((1, len(grid), 2), dtype=complex)
    with pytest.raises(ValueError):
        ElementPatternSet(grid, ("a", "a"), np.zeros((2, len(grid), 2), complex))
    with pytest.raises(ValueError):
        ElementPatternSet(grid, ("a",), good[:, :-1, :])
    bad = good.copy()
    bad[0, 0, 0] = complex(math.nan, 0.0)
    with pytest.raises(ValueError):
        ElementPatternSet(grid, ("a",), bad)


def test_resample_identity_exact():
    pset = random_set(seed=4)
    target = make_regular_grid(30.0, 90.0)
    out = resample(pset, target)
    np.testing.assert_array_equal(out.gains, pset.gains)


def test_resample_constant_everywhere():
    grid = make_regular_grid(30.0, 30.0)
    gains = np.full((1, len(grid), 2), 2.0 + 0.0j)
    pset = ElementPatternSet(grid, ("a",), gains)
    target = make_uniform_sphere_grid(333)
    out = resample(pset, target)
    np.testing.assert_allclose(out.gains, 2.0 + 0.0j, rtol=1e-12)
    assert out.grid is target


source_steps = st.sampled_from([(90.0, 180.0), (30.0, 90.0), (15.0, 45.0), (10.0, 30.0)])
# normal or zero: a subnormal constant has no relative accuracy to keep
field_parts = st.just(0.0) | st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)


@settings(max_examples=60, deadline=None)
@given(steps=source_steps, data=st.data())
def test_resample_same_directions_same_bits_property(steps, data):
    grid = make_regular_grid(*steps)
    parts = data.draw(arrays(np.float64, (2, len(grid), 4), elements=st.floats(-1e308, 1e308)))
    pset = ElementPatternSet(grid, ("a", "b"), parts.view(np.complex128))
    target = SphericalGrid(grid.theta_deg, grid.phi_deg, grid.weight_sr, kind="uniform-sphere")
    out = resample(pset, target)
    assert out.grid is target
    np.testing.assert_array_equal(out.gains.view(np.int64), pset.gains.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(
    steps=source_steps,
    value=st.builds(complex, field_parts, field_parts),
    # distinct micro-degree thetas never share a 9-decimal direction key
    theta=arrays(np.float64, 40, elements=st.integers(0, 180_000_000).map(lambda k: k / 1e6),
                 unique=True),
    phi=arrays(np.float64, 40, elements=st.floats(-1e3, 1e3)),
)
def test_resample_constant_field_property(steps, value, theta, phi):
    grid = make_regular_grid(*steps)
    pset = ElementPatternSet(grid, ("a",), np.full((1, len(grid), 2), value))
    target = SphericalGrid(theta, phi, np.ones(theta.size), kind="uniform-sphere")
    out = resample(pset, target)
    eps = np.finfo(np.float64).eps
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(out.gains) - part(value)) <= 4 * eps * abs(part(value)))


def test_resample_matches_direct_formula():
    # phase ramp on the equator ring, queried midway between samples
    grid = make_regular_grid(30.0, 10.0)
    gains = np.zeros((1, len(grid), 2), dtype=complex)
    on_equator = grid.theta_deg == 90.0
    gains[0, on_equator, 0] = np.exp(
        1j * math.pi * grid.phi_deg[on_equator] / 180.0
    )
    pset = ElementPatternSet(grid, ("a",), gains)

    target = SphericalGridAt(90.0, 5.0)
    out = resample(pset, target)
    expected = 0.5 * (
        cmath.exp(1j * math.pi * 0.0 / 180.0) + cmath.exp(1j * math.pi * 10.0 / 180.0)
    )
    assert abs(out.gains[0, 0, 0] - expected) < 1e-12


def SphericalGridAt(theta, phi):
    from arraycov.grid import SphericalGrid

    return SphericalGrid(
        np.array([theta]), np.array([phi]), np.array([4 * math.pi]), kind="uniform-sphere"
    )


def test_resample_wraps_phi():
    grid = make_regular_grid(30.0, 90.0)
    gains = np.zeros((1, len(grid), 2), dtype=complex)
    ring = grid.theta_deg == 90.0
    # values 0,1,2,3 at phi 0,90,180,270 on the equator
    gains[0, ring, 0] = grid.phi_deg[ring] / 90.0
    pset = ElementPatternSet(grid, ("a",), gains)
    out = resample(pset, SphericalGridAt(90.0, 315.0))
    # midway between phi=270 (3) and wrapped phi=0 (0)
    assert out.gains[0, 0, 0] == pytest.approx(1.5)


def test_resample_pole_stencil():
    # just below the pole every phi interpolates toward the same pole value
    grid = make_regular_grid(30.0, 90.0)
    gains = np.zeros((1, len(grid), 2), dtype=complex)
    pole = grid.theta_deg == 0.0
    gains[0, pole, 0] = 4.0
    pset = ElementPatternSet(grid, ("a",), gains)
    for phi in (0.0, 45.0, 200.0):
        out = resample(pset, SphericalGridAt(15.0, phi))
        assert out.gains[0, 0, 0] == pytest.approx(2.0)


def test_resample_requires_regular_source():
    grid = make_uniform_sphere_grid(50)
    gains = np.zeros((1, len(grid), 2), dtype=complex)
    pset = ElementPatternSet(grid, ("a",), gains)
    with pytest.raises(ValueError, match="regular"):
        resample(pset, make_regular_grid(30.0, 90.0))


HEADER = "feed,theta_deg,phi_deg,re_gtheta,im_gtheta,re_gphi,im_gphi"


def _write_rows(tmp_path, rows, name="patterns.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n")
    return path


def _key(theta_deg, phi_deg):
    if _is_pole(theta_deg):
        phi_deg = 0.0
    return (round(float(theta_deg), 9), round(float(phi_deg) % 360.0, 9))


def reference_load_pattern_csv(path):
    """The row-by-row reader that load_pattern_csv replaced: one dict of
    samples per feed, keyed by direction, filled in file order."""
    per_feed = {}
    feeds = []
    for lineno, feed, theta, phi, g_theta, g_phi in _parse_pattern_rows(path):
        if feed not in per_feed:
            per_feed[feed] = {}
            feeds.append(feed)
        key = _key(theta, phi)
        samples = per_feed[feed]
        if key in samples:
            prev = samples[key]
            if not _is_pole(theta):
                raise ParseError(
                    f"duplicate direction theta={theta} phi={phi} for feed {feed}",
                    path=path,
                    row=lineno,
                )
            if abs(prev[0] - g_theta) > _POLE_MERGE_ATOL or (
                abs(prev[1] - g_phi) > _POLE_MERGE_ATOL
            ):
                raise ParseError(
                    f"conflicting pole samples for feed {feed} at theta={theta}",
                    path=path,
                    row=lineno,
                )
        else:
            samples[key] = (g_theta, g_phi)
    if not feeds:
        raise ParseError("no samples", path=path)

    first = feeds[0]
    keys = set(per_feed[first])
    for feed in feeds[1:]:
        if set(per_feed[feed]) != keys:
            raise ParseError(
                f"feed {feed} covers different directions than feed {first}", path=path
            )

    steps = detect_regular_steps(
        np.array([k[0] for k in keys]), np.array([k[1] for k in keys])
    )
    if steps is None:
        raise ParseError(
            "directions do not form a full regular theta/phi lattice", path=path
        )
    grid = make_regular_grid(*steps)

    gains = np.empty((len(feeds), len(grid), 2), dtype=np.complex128)
    for fi, feed in enumerate(feeds):
        samples = per_feed[feed]
        for di in range(len(grid)):
            key = _key(grid.theta_deg[di], grid.phi_deg[di])
            try:
                g_theta, g_phi = samples[key]
            except KeyError:
                raise ParseError(
                    f"feed {feed} is missing direction theta={grid.theta_deg[di]}"
                    f" phi={grid.phi_deg[di]}",
                    path=path,
                ) from None
            gains[fi, di, 0] = g_theta
            gains[fi, di, 1] = g_phi
    return ElementPatternSet(grid, tuple(feeds), gains)


def _outcome(loader, path):
    try:
        p = loader(path)
    except ParseError as exc:
        return ("error", str(exc), exc.row)
    return (
        p.feeds,
        p.gains.tobytes(),
        p.grid.theta_deg.tobytes(),
        p.grid.phi_deg.tobytes(),
        p.grid.weight_sr.tobytes(),
    )


def _lattice_rows(rng, steps, labels, repeat_poles):
    grid = make_regular_grid(*steps)
    n_phi = round(360.0 / grid.phi_step_deg)
    rows = []
    for label in labels:
        for theta, phi in zip(grid.theta_deg.tolist(), grid.phi_deg.tolist()):
            values = ",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(4))
            if repeat_poles and _is_pole(theta):
                phis = [j * grid.phi_step_deg for j in range(n_phi)]
            else:
                phis = [phi]
            rows.extend(f"{label},{theta!r},{p!r},{values}" for p in phis)
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_reader_matches_row_by_row_reference(tmp_path, seed):
    rng = random.Random(seed)
    steps = [(30.0, 90.0), (20.0, 45.0), (45.0, 120.0), (10.0, 30.0)][seed % 4]
    labels = rng.sample(["1V", "2H", "3V", "4H", " 5V ", '"6,H"'], rng.randint(1, 4))
    rows = _lattice_rows(rng, steps, labels, repeat_poles=seed % 3 == 0)
    if seed % 2:
        rng.shuffle(rows)
    path = _write_rows(tmp_path, rows)
    new = _outcome(load_pattern_csv, path)
    assert new[0] != "error"
    assert new == _outcome(reference_load_pattern_csv, path)


def _mutate(rng, rows):
    i = rng.choice([k for k, row in enumerate(rows) if row.count(",") == 6])
    parts = rows[i].split(",")
    kind = rng.randrange(6)
    if kind == 0:  # repeated row, possibly a pole
        rows.insert(rng.randrange(len(rows) + 1), rows[i])
    elif kind == 1:  # pole or direction row with a shifted sample
        parts[3] = repr(float(parts[3]) + rng.choice([1e-9, 1e-6]))
        rows.insert(rng.randrange(len(rows) + 1), ",".join(parts))
    elif kind == 2:
        parts[rng.randrange(1, 7)] = rng.choice(["nan", "x", "", "1_0", "inf"])
        rows[i] = ",".join(parts)
    elif kind == 3:
        rows.insert(i, rng.choice(["", "", "  ", "#", ",,,,,,"]))
    elif kind == 4:
        del rows[i]
    else:
        parts[1] = rng.choice(["-1", "181", "1e-12"])
        rows[i] = ",".join(parts)


@pytest.mark.parametrize("seed", range(40))
def test_reader_errors_match_row_by_row_reference(tmp_path, seed):
    # malformed files fail with the same message at the same row, or
    # load the same arrays
    rng = random.Random(1000 + seed)
    labels = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    rows = _lattice_rows(rng, (45.0, 90.0), labels, repeat_poles=seed % 2 == 0)
    rng.shuffle(rows)
    for _ in range(rng.randint(1, 3)):
        _mutate(rng, rows)
    path = _write_rows(tmp_path, rows)
    assert _outcome(load_pattern_csv, path) == _outcome(reference_load_pattern_csv, path)


# a few rows per chunk put label runs, quoted labels, blank rows, pole
# replicas and the first bad row on chunk boundaries
SMALL_CHUNKS = [1, 3]


@pytest.mark.parametrize("chunk_rows", SMALL_CHUNKS)
@pytest.mark.parametrize("seed", range(12))
def test_reader_matches_row_by_row_reference_in_small_chunks(
    tmp_path, monkeypatch, seed, chunk_rows
):
    monkeypatch.setattr(pattern, "_CHUNK_ROWS", chunk_rows)
    test_reader_matches_row_by_row_reference(tmp_path, seed)


@pytest.mark.parametrize("chunk_rows", SMALL_CHUNKS)
@pytest.mark.parametrize("seed", range(40))
def test_reader_errors_match_row_by_row_reference_in_small_chunks(
    tmp_path, monkeypatch, seed, chunk_rows
):
    monkeypatch.setattr(pattern, "_CHUNK_ROWS", chunk_rows)
    test_reader_errors_match_row_by_row_reference(tmp_path, seed)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_feeds=st.integers(1, 3),
    replicas=st.integers(2, 5),
    component=st.integers(0, 3),
    factor=st.sampled_from([0.5, 2.0]),
    chunk_rows=st.sampled_from([2, 4096]),
)
def test_pole_merge_matches_row_by_row_reference(
    tmp_path_factory, seed, n_feeds, replicas, component, factor, chunk_rows
):
    # pole rows replicated at several phi merge, unless one component of
    # one replica is off by more than _POLE_MERGE_ATOL
    rng = random.Random(seed)
    grid = make_regular_grid(30.0, 90.0)
    rows = []
    for label in ["a", "b", "c"][:n_feeds]:
        for theta, phi in zip(grid.theta_deg.tolist(), grid.phi_deg.tolist()):
            values = [rng.gauss(0.0, 1.0) for _ in range(4)]
            phis = [phi]
            if _is_pole(theta):
                phis = [rng.uniform(-360.0, 720.0) for _ in range(replicas)]
            rows.extend([label, theta, p, *values] for p in phis)
    poles = [i for i, row in enumerate(rows) if _is_pole(row[1])]
    replica = rows[rng.choice(poles)]
    replica[3 + component] += factor * _POLE_MERGE_ATOL
    rng.shuffle(rows)
    path = tmp_path_factory.mktemp("poles") / "patterns.csv"
    path.write_text("\n".join([HEADER] + [",".join(map(str, row)) for row in rows]) + "\n")
    with mock.patch.object(pattern, "_CHUNK_ROWS", chunk_rows):
        new = _outcome(load_pattern_csv, path)
    assert new == _outcome(reference_load_pattern_csv, path)
    if factor < 1.0:
        assert new[0] != "error"
    else:
        assert new[0] == "error" and "conflicting pole samples" in new[1]


def test_reader_peak_memory(tmp_path):
    # the full-scale input: 8 feeds on the 1 deg x 10 deg grid. The read
    # holds one chunk's labels and angles at a time, gathers no per-row
    # array of a file in grid order and reads the gains in place.
    path = tmp_path / "patterns.csv"
    save_pattern_csv(random_set(1.0, 10.0, n_feeds=8), path)
    tracemalloc.start()
    try:
        loaded = load_pattern_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * loaded.gains.nbytes
    # the bound holds with the cache entry's write
    assert (tmp_path / ".patterns.csv.arraycov-cache").exists()


def test_deembedded_load_peak_memory(tmp_path):
    # the command line scales the gains it loaded in place, so a load with
    # a loss table peaks where the read alone does; scaling a copy while
    # the loaded set is alive peaked 0.07x the gains higher
    pattern_set = random_set(1.0, 10.0, n_feeds=8)
    loss_path = tmp_path / "losses.csv"
    loss_path.write_text(
        "feed,loss_db,window_halfwidth_deg\n"
        + "".join(f"{feed},{0.75 * i - 2.0},60\n" for i, feed in enumerate(pattern_set.feeds))
    )
    def deembedded(path):
        return cli._load_pattern_input({"pattern": str(path), "loss_table": str(loss_path)})

    peaks = []
    for name, load in (("read.csv", load_pattern_csv), ("deembedded.csv", deembedded)):
        save_pattern_csv(pattern_set, tmp_path / name)
        tracemalloc.start()
        try:
            loaded = load(tmp_path / name)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 0.02 * loaded.gains.nbytes
    assert not loaded.gains.flags.writeable


def _minimal_rows(label="a"):
    # full 90 x 180 lattice: both poles and four equator directions
    return [
        f"{label},{t},{p},{t / 90.0},0.5,0.0,-1.0"
        for t, p in [(0.0, 0.0), (90.0, 0.0), (90.0, 180.0), (180.0, 0.0)]
    ]


@pytest.mark.parametrize(
    "row", ["a,90.0,0.0,1.0,0.0,0.0,0.0,0.0", "a,90.0,0.0,1.0,0.0,0.0"]
)
def test_wrong_column_count_rejected_at_row(tmp_path, row):
    rows = _minimal_rows()
    rows.insert(2, row)
    with pytest.raises(ParseError, match="expected 7 columns") as err:
        load_pattern_csv(_write_rows(tmp_path, rows))
    assert err.value.row == 4


@pytest.mark.parametrize("label", ["F" * 40, '"quoted, label"'])
def test_feed_labels_load_whole(tmp_path, label):
    loaded = load_pattern_csv(_write_rows(tmp_path, _minimal_rows(label)))
    assert loaded.feeds == (label.strip('"'),)


def test_blank_lines_ignored(tmp_path):
    rows = _minimal_rows("a") + _minimal_rows("b")
    plain = load_pattern_csv(_write_rows(tmp_path, rows, "plain.csv"))
    spaced = load_pattern_csv(
        _write_rows(tmp_path, ["", *rows[:3], "", "", *rows[3:], ""], "spaced.csv")
    )
    assert spaced.feeds == plain.feeds
    assert spaced.gains.tobytes() == plain.gains.tobytes()
    assert spaced.grid.same_directions(plain.grid)


def test_lone_carriage_returns_load_like_newlines(tmp_path):
    # more rows than newlines: the chunked read gives way to the row-by-row one
    rows = _minimal_rows("a") + _minimal_rows("b")
    plain = load_pattern_csv(_write_rows(tmp_path, rows, "plain.csv"))
    path = tmp_path / "cr.csv"
    path.write_bytes(("\r".join([HEADER] + rows) + "\r").encode())
    assert pattern._read_chunks(path) is None
    loaded = load_pattern_csv(path)
    assert loaded.feeds == plain.feeds
    assert loaded.gains.tobytes() == plain.gains.tobytes()
    assert loaded.grid.same_directions(plain.grid)


def test_blank_feed_label_rejected_at_row(tmp_path):
    rows = _minimal_rows()
    rows[2] = " " + rows[2][1:]
    with pytest.raises(ParseError, match="empty feed label") as err:
        load_pattern_csv(_write_rows(tmp_path, rows))
    assert err.value.row == 4


@pytest.mark.parametrize(
    "extra, message",
    [
        ("a,90.0,0.0,1.0,0.5,0.0,-1.0", "duplicate direction"),
        ("a,0.0,90.0,1.0,0.5,0.0,-1.0", "conflicting pole samples"),
    ],
)
def test_merge_errors_count_blank_rows(tmp_path, extra, message):
    rows = _minimal_rows()
    rows[2:2] = ["", "", extra]
    with pytest.raises(ParseError, match=message) as err:
        load_pattern_csv(_write_rows(tmp_path, rows))
    assert err.value.row == 6


def test_duplicate_reported_before_later_bad_row(tmp_path):
    rows = _minimal_rows() + ["a,90.0,0.0,1.0,0.0,0.0,0.0", "a,90.0,90.0,x,0,0,0"]
    with pytest.raises(ParseError, match="duplicate direction") as err:
        load_pattern_csv(_write_rows(tmp_path, rows))
    assert err.value.row == 6


@pytest.mark.parametrize("row", ["# a comment", "   "])
def test_comment_and_whitespace_rows_rejected(tmp_path, row):
    rows = _minimal_rows()
    rows.insert(1, row)
    with pytest.raises(ParseError) as err:
        load_pattern_csv(_write_rows(tmp_path, rows))
    assert err.value.row == 3


def test_underscore_digits_accepted(tmp_path):
    rows = _minimal_rows()
    rows[1] = "a,90.0,0.0,1_0,0.5,0.0,-1.0"
    loaded = load_pattern_csv(_write_rows(tmp_path, rows))
    # the grid's direction 1 is (90, 0), after the north pole
    assert loaded.gains[0, 1, 0] == 10.0 + 0.5j


def test_header_only_file_has_no_samples_and_no_warning(tmp_path):
    path = tmp_path / "patterns.csv"
    path.write_text(HEADER + "\n\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="no samples"):
            load_pattern_csv(path)


def test_direction_off_its_key_is_missing(tmp_path):
    # 9e-10 from the lattice passes the lattice check, but its 9-decimal
    # key is not the grid direction's
    rows = _minimal_rows()
    rows[1] = "a,90.0,9e-10,1.0,0.5,0.0,-1.0"
    with pytest.raises(ParseError, match="missing direction theta=90.0 phi=0.0"):
        load_pattern_csv(_write_rows(tmp_path, rows))


def _cache_entry(path):
    return path.parent / f".{path.name}.arraycov-cache"


def _cached_file(tmp_path, pattern_set=None):
    """A saved pattern CSV whose cache entry has been written."""
    path = tmp_path / "patterns.csv"
    save_pattern_csv(random_set(n_feeds=3, seed=5) if pattern_set is None else pattern_set, path)
    load_pattern_csv(path)
    assert _cache_entry(path).exists()
    return path


def test_cache_hit_is_the_parsed_set(tmp_path, forbid_parse):
    saved = random_set(n_feeds=3, seed=5)
    path = _cached_file(tmp_path, saved)
    forbid_parse()
    hit = load_pattern_csv(path)
    # the parse reproduces the saved set bit-exactly, so the hit must too
    assert hit.feeds == saved.feeds
    for name in ("theta_deg", "phi_deg", "weight_sr"):
        assert getattr(hit.grid, name).tobytes() == getattr(saved.grid, name).tobytes()
    assert (hit.grid.kind, hit.grid.theta_step_deg, hit.grid.phi_step_deg) == (
        saved.grid.kind,
        saved.grid.theta_step_deg,
        saved.grid.phi_step_deg,
    )
    assert hit.gains.tobytes() == saved.gains.tobytes()
    assert not hit.gains.flags.writeable
    assert (hit.frequency_ghz, hit.convention) == (saved.frequency_ghz, saved.convention)


def test_cache_hit_reads_the_sidecar(tmp_path, forbid_parse):
    path = _cached_file(tmp_path)
    forbid_parse()
    (tmp_path / "patterns.json").write_text('{"frequency_ghz": 39.0, "convention": "x"}')
    hit = load_pattern_csv(path)
    assert (hit.frequency_ghz, hit.convention) == (39.0, "x")
    (tmp_path / "patterns.json").write_text('{"frequency_ghz": "abc"}')
    with pytest.raises(ParseError, match="frequency_ghz must be a finite number"):
        load_pattern_csv(path)


def test_cache_entry_of_another_numpy_is_a_miss(tmp_path, monkeypatch, count_parses):
    path = _cached_file(tmp_path)
    entry = _cache_entry(path).read_bytes()
    parses = count_parses()
    monkeypatch.setattr(np, "__version__", "0.0")
    load_pattern_csv(path)
    assert parses == [path]
    assert _cache_entry(path).read_bytes() != entry
    load_pattern_csv(path)
    assert parses == [path]


def test_cache_entry_is_not_written_if_the_csv_changes_during_the_parse(tmp_path, monkeypatch):
    path = tmp_path / "patterns.csv"
    save_pattern_csv(random_set(), path)
    read_table = pattern._read_table

    def read_then_edit(path):
        table = read_table(path)
        path.write_text(path.read_text().replace("1V,", "1X,", 1))
        return table

    monkeypatch.setattr(pattern, "_read_table", read_then_edit)
    load_pattern_csv(path)
    assert not _cache_entry(path).exists()


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "patterns.csv"
    save_pattern_csv(random_set(), path)

    def interrupt(fh, gains):
        fh.write(b"\x93NUMPY")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "save", interrupt)
    with pytest.raises(KeyboardInterrupt):
        load_pattern_csv(path)
    assert sorted(os.listdir(tmp_path)) == ["patterns.csv", "patterns.json"]


@pytest.mark.parametrize("fault", ["csv", "sidecar"])
def test_failed_load_leaves_no_cache_entry(tmp_path, fault):
    rows = _minimal_rows()
    if fault == "csv":
        rows[1] = "a,90.0,0.0,nan,0.5,0.0,-1.0"
    path = _write_rows(tmp_path, rows)
    if fault == "sidecar":
        (tmp_path / "patterns.json").write_text("[1, 2]")
    for _ in range(2):
        with pytest.raises(ParseError):
            load_pattern_csv(path)
    assert not _cache_entry(path).exists()


def test_unreadable_csv_has_no_key_and_leaves_no_entry(tmp_path):
    path = tmp_path / "absent.csv"
    assert patterncache._key(path) is None
    with pytest.raises(FileNotFoundError):
        load_pattern_csv(path)
    assert not _cache_entry(path).exists()


def _peak_over_gains(path):
    """tracemalloc peak of a load of path, over its gains' size."""
    tracemalloc.start()
    try:
        loaded = load_pattern_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / loaded.gains.nbytes


def test_cache_hit_peak_memory(tmp_path, monkeypatch, forbid_parse):
    # the full-scale input: the hit holds the gains, read from the entry
    # once, and the CSV's key is read 64 KiB at a time
    path = _cached_file(tmp_path, random_set(1.0, 10.0, n_feeds=8))
    forbid_parse()
    assert _peak_over_gains(path) <= 1.3

    # a key of the whole file read at once (4.8 MB here) fails the bound
    cache_key = patterncache._key

    def whole_file_key(path):
        with open(path, "rb") as fh:
            data = fh.read()
        return [len(data), zlib.crc32(data), *cache_key(path)[2:]]

    monkeypatch.setattr(patterncache, "_key", whole_file_key)
    assert _peak_over_gains(path) > 1.3

