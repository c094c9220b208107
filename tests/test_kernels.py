import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraycov import kernels
from arraycov.kernels import synth_max_accumulate, synthesize_fields
from arraycov.synth import SubArraySpec, enumerate_weights

# chunk size of the reference below
_CHUNK = 128


def reference_synth_max(elem_gains, phasors, best_power, best_index, index_offset):
    """The chunked synthesize-and-max loop that the kernel must reproduce.

    Synthesizes every weight vector in chunks of _CHUNK rows and folds in
    each chunk's argmax; kept as the bit-for-bit reference. It looks
    synthesize_fields up at call time, so that a test can substitute a
    BLAS that rounds by column position.
    """
    n_weights = phasors.shape[0]
    for start in range(0, n_weights, _CHUNK):
        block = kernels.synthesize_fields(elem_gains, phasors[start : start + _CHUNK])
        power = np.abs(block[:, :, 0]) ** 2 + np.abs(block[:, :, 1]) ** 2
        local_best = np.argmax(power, axis=0)
        local_power = power[local_best, np.arange(power.shape[1])]
        better = local_power > best_power
        best_power[better] = local_power[better]
        best_index[better] = index_offset + start + local_best[better]


def random_problem(n_el, n_dir, n_weights, seed):
    rng = np.random.default_rng(seed)
    gains = rng.normal(size=(n_el, n_dir, 2)) + 1j * rng.normal(size=(n_el, n_dir, 2))
    phases = rng.uniform(0.0, 2 * np.pi, size=(n_weights, n_el))
    phasors = np.exp(1j * phases) / np.sqrt(n_el)
    return gains.astype(np.complex128), phasors.astype(np.complex128)


def fresh_state(n_dir):
    return np.zeros(n_dir), np.zeros(n_dir, dtype=np.int64)


def lattice_phasors(n_el, n_weights, bits, rng):
    codes = rng.integers(0, 2**bits, size=(n_weights, n_el))
    codes[:, 0] = 0
    return np.exp(1j * np.radians(codes * 360.0 / 2**bits)) / np.sqrt(n_el)


def assert_same_bits(actual, expected):
    (p_a, i_a), (p_e, i_e) = actual, expected
    np.testing.assert_array_equal(p_a.view(np.int64), p_e.view(np.int64))
    np.testing.assert_array_equal(i_a, i_e)


def test_synthesize_fields_matches_einsum():
    gains, phasors = random_problem(8, 37, 19, seed=0)
    out = synthesize_fields(gains, phasors)
    expected = np.einsum("kn,ndp->kdp", phasors, gains)
    np.testing.assert_allclose(out, expected, rtol=1e-13)
    assert out.shape == (19, 37, 2)


@pytest.mark.parametrize("n_el", [1, 2, 3, 4, 5])
def test_form_factors_layout(n_el):
    # the select takes the last element's pair terms as the last
    # 2 (N - 1) columns of the factors, Re and Im side by side
    gains, phasors = random_problem(n_el, 41, 23, seed=n_el)
    factors, form = kernels._form_factors(gains, phasors, np.arange(41))
    fields = synthesize_fields(gains, phasors)
    power = np.abs(fields[:, :, 0]) ** 2 + np.abs(fields[:, :, 1]) ** 2
    np.testing.assert_allclose(factors @ form, power, rtol=1e-12)
    last = phasors[:, :-1] * phasors[:, -1:].conj()
    expected = np.stack([last.real, last.imag], axis=2).reshape(23, -1)
    np.testing.assert_array_equal(factors[:, n_el**2 - 2 * (n_el - 1) :], expected)


def reference_form_factors(elem_gains, phasors):
    """_form_factors as numpy's reductions over the polarizations give it."""
    n_el, n_dir, _ = elem_gains.shape
    n, m = np.tril_indices(n_el, k=-1)
    cross_w = np.empty((phasors.shape[0], m.size), dtype=np.complex128)
    np.multiply(phasors[:, m], phasors[:, n].conj(), out=cross_w)
    factors = np.hstack([phasors.real**2 + phasors.imag**2, cross_w.view(np.float64)])
    form = np.empty((n_el**2, n_dir))
    for i, g in enumerate(elem_gains):
        form[i] = (g.real**2 + g.imag**2).sum(axis=1)
    for k, (i, j) in enumerate(zip(m, n)):
        cross_r = (elem_gains[i] * elem_gains[j].conj()).sum(axis=1)
        form[n_el + 2 * k] = 2.0 * cross_r.real
        form[n_el + 2 * k + 1] = -2.0 * cross_r.imag
    return factors, form


@pytest.mark.parametrize("n_weights", [1, 2, 127, 300])
@pytest.mark.parametrize("n_el", [1, 2, 3, 4, 5, 8])
def test_form_factors_match_reductions_bit_for_bit(n_el, n_weights):
    # zero and -0.0 samples: numpy's sum starts from +0, so two -0 terms add to +0
    gains, phasors = random_problem(n_el, 301, n_weights, seed=n_el * n_weights)
    gains[:, ::5] = 0.0
    gains[:, ::7] *= -0.0
    gains[::2, ::11] = complex(-0.0, -0.0)
    phasors[::3] *= -0.0
    for actual, expected in zip(kernels._form_factors(gains, phasors, np.arange(301)),
                                reference_form_factors(gains, phasors)):
        assert actual.shape == expected.shape
        np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


@pytest.fixture
def fresh_probe():
    kernels._narrowing_is_exact.cache_clear()
    yield
    kernels._narrowing_is_exact.cache_clear()


# (n_weights, n_dir); odd direction counts end the reference's calls in
# a 2-column tail
SHAPES = [
    pytest.param(n_w, n_d, id=str(n_w) if n_d == 61 else f"{n_w}-{n_d}dirs")
    for n_d in (61, 1, 2, 3, 11)
    for n_w in (1, 2, 127, 128, 129, 517)
] + [pytest.param(300, 6445, id="300-6445dirs")]


@pytest.mark.parametrize("kind", ["lattice", "amplitudes"])
@pytest.mark.parametrize("n_weights,n_dir", SHAPES)
@pytest.mark.parametrize("n_el", [1, 2, 3, 4, 5])
def test_matches_reference_bit_for_bit(n_el, n_weights, n_dir, kind):
    rng = np.random.default_rng(1000 * n_el + n_weights)
    gains, _ = random_problem(n_el, n_dir, 0, seed=n_el + n_weights)
    gains[:, 7::61] = 0.0  # an all-zero direction ties every row
    if kind == "lattice":
        phasors = lattice_phasors(n_el, n_weights, 3, rng)
    else:
        phasors = rng.uniform(0.05, 2.0, size=(n_weights, n_el)) * np.exp(
            1j * rng.uniform(0.0, 2 * np.pi, size=(n_weights, n_el))
        )
    # duplicated rows, also across chunks, make exact ties
    dup = rng.integers(0, n_weights, size=(n_weights // 4, 2))
    phasors[dup[:, 1]] = phasors[dup[:, 0]]
    phasors[-1] = phasors[0]
    # the second call repeats a row of the first, so its ties keep the first index
    second = np.concatenate([phasors[n_weights // 2 :], phasors[:1]])
    # 1e-160 puts the powers below the normal range; at 1e-170 the
    # form's factors underflow to zero, though the gains do not
    for scale in (1e-170, 1e-160, 1e-30, 1.0, 1e30):
        states = fresh_state(n_dir), fresh_state(n_dir)
        for fn, (best_power, best_index) in zip(
            (synth_max_accumulate, reference_synth_max), states
        ):
            fn(gains * scale, phasors, best_power, best_index, 0)
            fn(gains * scale, second, best_power, best_index, n_weights + 1000)
        assert_same_bits(*states)


def test_matches_reference_on_full_scale_codebook():
    # 4 feeds at 3 bits over the 1 deg x 10 deg grid's direction count
    rng = np.random.default_rng(100)
    gains, _ = random_problem(4, 6446, 0, seed=100)
    phasors = lattice_phasors(4, 512, 3, rng)
    states = fresh_state(6446), fresh_state(6446)
    for fn, (best_power, best_index) in zip(
        (synth_max_accumulate, reference_synth_max), states
    ):
        fn(gains, phasors, best_power, best_index, 0)
    assert_same_bits(*states)


def assert_matches_reference(gains, phasors, second_gains):
    # a second call on other gains carries the first call's best powers in
    for scale in (1e-160, 1e-30, 1.0, 1e30):
        states = fresh_state(gains.shape[1]), fresh_state(gains.shape[1])
        for fn, (best_power, best_index) in zip(
            (synth_max_accumulate, reference_synth_max), states
        ):
            fn(gains * scale, phasors, best_power, best_index, 0)
            fn(second_gains * scale, phasors, best_power, best_index, len(phasors))
        assert_same_bits(*states)


# every codebook of up to 4096 rows: (elements, bits)
CODEBOOKS = [(n, b) for n in range(1, 6) for b in range(1, 5) if b * (n - 1) <= 12]


@pytest.mark.parametrize("n_el,bits", CODEBOOKS)
def test_codebook_phase_groups_match_reference(n_el, bits):
    # a codebook's rows come in runs of 2^bits that share all but the last
    # phasor, and the select bounds each run as one group
    phasors = enumerate_weights(SubArraySpec("s", tuple(range(n_el))), bits)
    assert kernels._group_size(phasors) == min(2**bits, len(phasors))
    gains, _ = random_problem(n_el, 45, 0, seed=10 * n_el + bits)
    gains[:, 7] = 0.0
    second, _ = random_problem(n_el, 45, 0, seed=100 + 10 * n_el + bits)
    assert_matches_reference(gains, phasors, second)


# run lengths of rows that share all but the last phasor, and the group
# size the select takes for them
RUNS = {
    "runs_of_3": ([3] * 100, 1),
    "one_short_run": ([16] * 20 + [8], 1),
    "runs_longer_than_a_block": ([256] * 2, 1),
    "runs_across_blocks": ([24] * 11, 1),
    "first_run_shorter": ([32] + [64] * 3, 1),
    "runs_of_32_partial_block": ([32] * 10, 32),
    "runs_of_64": ([64] * 3, 64),
    "one_run": ([128], 128),
}


@pytest.mark.parametrize("runs,group", list(RUNS.values()), ids=list(RUNS))
@pytest.mark.parametrize("n_el", [2, 4])
def test_hand_made_runs_match_reference(n_el, runs, group):
    rng = np.random.default_rng(sum(runs) + n_el)
    heads = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(len(runs), n_el)))
    phasors = np.repeat(heads, runs, axis=0) / np.sqrt(n_el)
    # the last phasor's amplitude varies within a run, so each group's
    # bound must take its largest
    phasors[:, -1] = rng.uniform(0.1, 1.5, size=len(phasors)) * np.exp(
        1j * rng.uniform(0.0, 2 * np.pi, size=len(phasors))
    )
    assert kernels._group_size(phasors) == group
    gains, _ = random_problem(n_el, 37, 0, seed=len(runs))
    second, _ = random_problem(n_el, 37, 0, seed=len(runs) + 1)
    assert_matches_reference(gains, phasors, second)


@pytest.mark.parametrize("partial", [False, True], ids=["codebook", "partial_call"])
@pytest.mark.parametrize("probe", [True, False], ids=["probe_holds", "probe_fails"])
@pytest.mark.parametrize("n_dir", [60, 61])
@pytest.mark.parametrize("bits", [3, 4])
def test_direction_tiles_match_reference(monkeypatch, bits, n_dir, probe, partial):
    # tiles 4 directions wide: a narrowed exact call is split into tiles,
    # an odd call's last tile keeps its 2-column tail, and the select's
    # later passes take 3 directions at a time
    monkeypatch.setattr(kernels, "_EXACT_TILE", 4)
    monkeypatch.setattr(kernels, "_TILE", 3 * _CHUNK)
    monkeypatch.setattr(kernels, "_narrowing_is_exact", lambda n_el: probe)
    phasors = enumerate_weights(SubArraySpec("s", (0, 1, 2, 3)), bits)
    if partial:
        # a trailing partial chunk of louder copies of earlier rows
        phasors = np.concatenate([phasors, 1.1 * phasors[5:42]])
    gains, _ = random_problem(4, n_dir, 0, seed=bits + n_dir)
    # a row of the last call wins the last direction
    winner = len(phasors) - 3
    gains[:, -1] = 0.0
    gains[:, -1, 0] = 3.0 * phasors[winner].conj()
    second, _ = random_problem(4, n_dir, 0, seed=bits + n_dir + 1)

    widths = []

    def gemv_for_one_column(elem_gains, phasors):
        # a BLAS may take a one-column product for a gemv, which rounds
        # otherwise; no call of the kernel or the reference is that narrow
        out = synthesize_fields(elem_gains, phasors)
        if elem_gains.shape[1] == 1:
            out *= 1.0 + np.finfo(np.float64).eps
        if len(phasors) > 1:
            widths.append(elem_gains.shape[1])
        return out

    monkeypatch.setattr(kernels, "synthesize_fields", gemv_for_one_column)
    best_power, best_index = fresh_state(n_dir)
    synth_max_accumulate(gains, phasors, best_power, best_index, 0)
    assert best_index[-1] == winner
    if probe:
        # only a call that needs an odd grid's last direction has an odd tile
        assert max(widths) <= 5
        assert any(w % 2 for w in widths) == (n_dir % 2 == 1)
    else:
        assert set(widths) == {n_dir}
    assert_matches_reference(gains, phasors, second)


def tied_gains(rows, n_dir, rng):
    """Gains at which the two rows' exact powers tie at every direction:
    random theta-polarized gains, and phi-polarized ones scaled so that
    they make up the difference."""
    a, b = rows
    gains = []
    while len(gains) < n_dir:
        g, h = rng.normal(size=(2, len(a))) + 1j * rng.normal(size=(2, len(a)))
        s2 = (abs(a @ g) ** 2 - abs(b @ g) ** 2) / (abs(b @ h) ** 2 - abs(a @ h) ** 2)
        if s2 > 0.0:
            gains.append(np.stack([g, np.sqrt(s2) * h], axis=1))
    return np.stack(gains, axis=1)


@pytest.mark.parametrize("n_el", [2, 3, 4, 5])
def test_near_ties_match_reference(n_el):
    # The exact powers of the two rows differ by a few float64 ulps, their
    # float32 forms by up to a few eps32 either way, so the select's float32
    # margin decides whether the row that the exact powers pick is kept.
    # The second call's rows beat the carried best powers by 2^-40 or less.
    rng = np.random.default_rng(n_el)
    rows = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(2, n_el)))
    gains = tied_gains(rows, 2000, rng)
    states = fresh_state(2000), fresh_state(2000)
    for fn, (best_power, best_index) in zip(
        (synth_max_accumulate, reference_synth_max), states
    ):
        fn(gains, rows, best_power, best_index, 0)
        fn(gains, rows[::-1] * (1.0 + 2.0**-41), best_power, best_index, 2)
    assert_same_bits(*states)


def capped_gains(row, n_dir, rng):
    """Gains at which row's power is the cap, max|w|^2 (A^2 + B^2): each
    feed's gain in each polarization is in phase with conj(w_m)."""
    amp = rng.uniform(0.1, 2.0, size=(len(row), n_dir, 2))
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(1, n_dir, 2)))
    return amp * phase * (row.conj() / np.abs(row))[:, None, None]


@pytest.mark.parametrize("n_el", [1, 2, 4, 5])
def test_running_best_at_the_cap_matches_reference(n_el):
    # The first call's row reaches the cap at every direction, so the
    # carried best equals (up to rounding) the next calls' caps: rows
    # that beat it by a few ulps, tie it, or fall short by a few must each
    # be decided as the reference decides them.
    rng = np.random.default_rng(40 + n_el)
    phasors = enumerate_weights(SubArraySpec("s", tuple(range(n_el))), 2)
    row = phasors[-1]
    gains = capped_gains(row, 500, rng)
    # The computed power of that row exceeds the computed cap by up to
    # about 6 ulps, so a cap with no margin fails here.
    states = fresh_state(500), fresh_state(500)
    for k, ulps in enumerate([0, 0, -4, 1, 2, 3, 256]):
        factor = 1.0 + ulps * np.finfo(np.float64).eps
        for fn, (best_power, best_index) in zip(
            (synth_max_accumulate, reference_synth_max), states
        ):
            fn(gains, phasors * factor, best_power, best_index, k * len(phasors))
        assert_same_bits(*states)
    assert np.all(states[1][1] >= 6 * len(phasors))


def test_without_a_floor_every_call_leaves_the_reference_state():
    # library callers that pass no floor see the reference's state after
    # each call, not only after the last
    calls = [random_problem(4, 97, 300, seed=s) for s in (50, 51, 52)]
    states = fresh_state(97), fresh_state(97)
    offset = 0
    for gains, phasors in calls:
        synth_max_accumulate(gains, phasors, *states[0], offset)
        reference_synth_max(gains, phasors, *states[1], offset)
        assert_same_bits(*states)
        offset += len(phasors)


def test_directions_above_the_cap_leave_the_select(monkeypatch):
    # where the floor or the carried best is above every row's power, the
    # form is not computed at all; dead directions neither
    gains, phasors = random_problem(4, 60, 256, seed=60)
    gains[:, :10] = 0.0
    cap, dead = kernels.power_cap(gains, np.abs(phasors).max())
    np.testing.assert_array_equal(dead, np.arange(60) < 10)
    carried = fresh_state(60)
    carried[0][10:20] = 2.0 * cap[10:20]
    floor = np.full(60, -1.0)
    floor[20:30] = 2.0 * cap[20:30]
    form_columns = []
    form_factors = kernels._form_factors

    def recording(elem_gains, phasors, cols):
        form_columns.append(cols)
        return form_factors(elem_gains, phasors, cols)

    monkeypatch.setattr(kernels, "_form_factors", recording)
    synth_max_accumulate(gains, phasors, *carried, 0, floor)
    np.testing.assert_array_equal(form_columns[0], np.arange(30, 60))
    # the floor was above every power there, so those directions keep
    # whatever they held; elsewhere the result is the reference's
    expected = fresh_state(60)
    expected[0][10:20] = 2.0 * cap[10:20]
    reference_synth_max(gains, phasors, *expected, 0)
    keep = np.r_[0:20, 30:60]
    assert_same_bits(
        (carried[0][keep], carried[1][keep]), (expected[0][keep], expected[1][keep])
    )
    assert np.all(carried[0][20:30] == 0.0)


def test_negative_best_power_is_rejected():
    gains, phasors = random_problem(2, 5, 4, seed=1)
    best_power, best_index = fresh_state(5)
    best_power[3] = -1.0
    with pytest.raises(ValueError, match="best_power must be non-negative"):
        synth_max_accumulate(gains, phasors, best_power, best_index, 0)


def test_lone_winner_recomputed_in_a_full_size_call():
    # one dominant row wins every direction; a 1-row (gemv) recompute
    # would round differently from its 128-row chunk
    gains, phasors = random_problem(5, 97, 257, seed=8)
    phasors[np.arange(257) != 77] *= 1e-6
    for n_weights in (256, 257):
        states = fresh_state(97), fresh_state(97)
        for fn, (best_power, best_index) in zip(
            (synth_max_accumulate, reference_synth_max), states
        ):
            fn(gains, phasors[:n_weights], best_power, best_index, 0)
        assert np.all(states[1][1] == 77)
        assert_same_bits(*states)


@pytest.mark.parametrize("alone", [False, True])
@pytest.mark.parametrize("n_dir", [11, 6445])
@pytest.mark.parametrize("n_el", [2, 3, 4, 5])
def test_last_direction_of_an_odd_grid(n_el, n_dir, alone):
    # the reference computes an odd grid's last direction in its calls'
    # 2-column tail; a row of the trailing call wins it. Alone, the row
    # wins nothing else, and its call needs that one direction.
    gains, phasors = random_problem(n_el, n_dir, 300, seed=n_el + n_dir)
    gains[:, -1] = 0.0
    if alone:
        # scaled copies of one row, all of them nulled by the last direction
        lead = np.linspace(0.5, 1.0, 128)[:, None] * phasors[0]
        phasors = np.concatenate([lead, 0.01 * phasors[-2:]])
        gains[:2, -1, 0] = 3.0 * phasors[0, 1], -3.0 * phasors[0, 0]
    else:
        gains[:, -1, 0] = 3.0 * phasors[-1].conj()
    states = fresh_state(n_dir), fresh_state(n_dir)
    for fn, (best_power, best_index) in zip(
        (synth_max_accumulate, reference_synth_max), states
    ):
        fn(gains, phasors, best_power, best_index, 0)
    assert states[1][1][-1] >= len(phasors) - 2
    assert_same_bits(*states)


def test_one_row_call_keeps_every_direction():
    # a one-row call is a gemv. With 2 BLAS threads this one splits its
    # columns after direction 3222, whose field then rounds otherwise than
    # in a narrower single-thread call; the last row wins there.
    gains, phasors = random_problem(4, 6446, 257, seed=25)
    gains[:, 3000:3400] += 3.0 * phasors[-1].conj()[:, None, None]
    states = fresh_state(6446), fresh_state(6446)
    for fn, (best_power, best_index) in zip(
        (synth_max_accumulate, reference_synth_max), states
    ):
        fn(gains, phasors, best_power, best_index, 0)
    assert states[1][1][3222] == 256
    assert_same_bits(*states)


def test_failed_probe_keeps_every_direction(monkeypatch, fresh_probe):
    # a BLAS that rounds a call's first column differently: a narrowed call
    # no longer gives the full call's bits, and the probe must see it
    def skewed(elem_gains, phasors):
        out = synthesize_fields(elem_gains, phasors)
        out[:, 0] *= 1.0 + np.finfo(np.float64).eps
        return out

    monkeypatch.setattr(kernels, "synthesize_fields", skewed)
    assert not kernels._narrowing_is_exact(4)
    gains, phasors = random_problem(4, 61, 517, seed=12)
    states = fresh_state(61), fresh_state(61)
    for fn, (best_power, best_index) in zip(
        (synth_max_accumulate, reference_synth_max), states
    ):
        fn(gains, phasors, best_power, best_index, 0)
    assert_same_bits(*states)


@settings(max_examples=150, deadline=None)
@given(
    n_el=st.integers(1, 5),
    n_dir=st.integers(1, 40),
    n_weights=st.integers(1, 300),
    bits=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    # 1e-160 puts the powers below float64's normal range
    gain_scale=st.floats(-160.0, 30.0).map(lambda e: 10.0**e),
    # amplitudes spread over 10^-spread .. 10^spread per element
    spread=st.floats(0.0, 3.0),
    # a floor this many ulps of the winner's power below it (2^52 ulps
    # are between half the power and all of it), or none
    floor_ulps=st.none() | st.sampled_from([0, 1, 2, 2**20, 2**52]),
)
def test_property_matches_reference(
    n_el, n_dir, n_weights, bits, seed, gain_scale, spread, floor_ulps
):
    rng = np.random.default_rng(seed)
    gains, _ = random_problem(n_el, n_dir, 0, seed=seed)
    gains *= gain_scale
    phasors = lattice_phasors(n_el, n_weights, bits, rng)
    phasors *= 10.0 ** rng.uniform(-spread, spread, size=phasors.shape)
    states = fresh_state(n_dir), fresh_state(n_dir)
    reference_synth_max(gains, phasors, *states[1], 0)
    floor = None
    if floor_ulps is not None:
        # the largest floor the kernel may be given is the winner's power
        winner = states[1][0]
        floor = winner - floor_ulps * np.spacing(winner)
    synth_max_accumulate(gains, phasors, *states[0], 0, floor)
    assert_same_bits(*states)


def test_carried_best_beyond_float32_after_normalizing():
    # the first call leaves powers near 1e60; the second call's norm is
    # near 1e-60, so those powers are near 1e120 in its float32 units.
    # They must read as out of reach, with no overflow warning. Where the
    # first call's gains are zero, the second call wins.
    gains, phasors = random_problem(4, 61, 300, seed=30)
    strong = gains * 1e30
    strong[:, ::5] = 0.0
    states = fresh_state(61), fresh_state(61)
    for fn, (best_power, best_index) in zip(
        (synth_max_accumulate, reference_synth_max), states
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(strong, phasors, best_power, best_index, 0)
            fn(gains * 1e-30, phasors[::-1], best_power, best_index, 300)
    assert np.all((states[1][1] >= 300) == (np.arange(61) % 5 == 0))
    assert_same_bits(*states)


def test_all_zero_directions_stay_off_the_shortlist(monkeypatch):
    # every row ties where all gains are zero; shortlisting them all made a
    # half-zero pattern at 4 bits take 10x the reference's memory
    gains, phasors = random_problem(4, 40, 600, seed=9)
    gains[:, :30] = 0.0
    shortlisted = []
    shortlist = kernels._shortlist

    def recording(*args):
        rows, dirs = shortlist(*args)
        shortlisted.append(rows.size)
        return rows, dirs

    monkeypatch.setattr(kernels, "_shortlist", recording)
    states = fresh_state(40), fresh_state(40)
    for fn, (best_power, best_index) in zip(
        (synth_max_accumulate, reference_synth_max), states
    ):
        fn(gains, phasors, best_power, best_index, 0)
        fn(gains, phasors, best_power, best_index, 600)
    assert_same_bits(*states)
    assert np.all(states[0][1][:30] == 0)
    assert max(shortlisted) < 600


def test_kernel_peak_memory():
    # a full-scale 4-bit sub-array: 4096 rows on the 6446 directions of the
    # 1 deg x 10 deg grid. Only the float32 form and factors, the block
    # bounds and one tile of temporaries are alive at once: 3.25x the
    # gains. Keeping one tile's 2 a u product alive into the next reads 3.40x.
    rng = np.random.default_rng(12)
    gains = rng.normal(size=(4, 6446, 2)) + 1j * rng.normal(size=(4, 6446, 2))
    phasors = enumerate_weights(SubArraySpec("s", (0, 1, 2, 3)), 4)
    best_power, best_index = fresh_state(6446)
    tracemalloc.start()
    try:
        synth_max_accumulate(gains, phasors, best_power, best_index, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.35 * gains.nbytes


def test_chunked_numpy_path_spans_boundaries():
    # n_weights > chunk size exercises the cross-chunk running maximum
    gains, phasors = random_problem(4, 53, 5 * 128 + 17, seed=2)
    best_power, best_index = fresh_state(53)
    synth_max_accumulate(gains, phasors, best_power, best_index, 0)
    fields = synthesize_fields(gains, phasors)
    power = np.abs(fields[:, :, 0]) ** 2 + np.abs(fields[:, :, 1]) ** 2
    np.testing.assert_allclose(best_power, power.max(axis=0), rtol=1e-13)
    np.testing.assert_array_equal(best_index, power.argmax(axis=0))


def test_accumulation_over_several_calls():
    gains_a, phasors_a = random_problem(4, 31, 64, seed=3)
    gains_b, phasors_b = random_problem(4, 31, 64, seed=4)
    best_power, best_index = fresh_state(31)
    synth_max_accumulate(gains_a, phasors_a, best_power, best_index, 0)
    synth_max_accumulate(gains_b, phasors_b, best_power, best_index, 64)
    pa = np.abs(synthesize_fields(gains_a, phasors_a)) ** 2
    pb = np.abs(synthesize_fields(gains_b, phasors_b)) ** 2
    stacked = np.concatenate([pa.sum(axis=2), pb.sum(axis=2)], axis=0)
    np.testing.assert_allclose(best_power, stacked.max(axis=0), rtol=1e-12)
    np.testing.assert_array_equal(best_index, stacked.argmax(axis=0))


def test_exact_ties_resolve_to_lowest_index():
    gains, phasors = random_problem(4, 29, 8, seed=5)
    tied = np.concatenate([phasors, phasors[:3]], axis=0)  # rows 8..10 repeat 0..2
    best_power, best_index = fresh_state(29)
    synth_max_accumulate(gains, tied, best_power, best_index, 0)
    assert np.all(best_index < 8)


def test_index_offset_applied():
    gains, phasors = random_problem(2, 11, 16, seed=6)
    plain_p, plain_i = fresh_state(11)
    offset_p, offset_i = fresh_state(11)
    synth_max_accumulate(gains, phasors, plain_p, plain_i, 0)
    synth_max_accumulate(gains, phasors, offset_p, offset_i, 1000)
    np.testing.assert_array_equal(offset_i, plain_i + 1000)
    np.testing.assert_array_equal(offset_p, plain_p)
