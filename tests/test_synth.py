import cmath
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from arraycov.grid import make_regular_grid, make_uniform_sphere_grid
from arraycov.ioutil import ConfigError
from arraycov.kernels import synthesize_fields
from arraycov.pattern import ElementPatternSet
from arraycov.synth import (
    SubArraySpec,
    SynthesisPlan,
    WeightVector,
    enumerate_weights,
    plan_from_config,
    synthesize,
    weight_count,
)


def pattern_of(gains, grid):
    feeds = tuple(f"f{i}" for i in range(gains.shape[0]))
    return ElementPatternSet(grid, feeds, gains)


def reference_enumerate_phasors(spec, bits):
    # one WeightVector per row, the codebook's earlier construction
    step = 360.0 / (2**bits)
    amplitude = 1.0 / math.sqrt(spec.size)
    return np.array(
        [
            WeightVector((0.0,) + tuple(k * step for k in rest), amplitude).phasors
            for rest in itertools.product(range(2**bits), repeat=spec.size - 1)
        ]
    )


def phase_codes(phasors, bits):
    # integer lattice codes of a phasor matrix's phases
    return np.rint(np.angle(phasors) * 2**bits / (2 * math.pi)).astype(int) % 2**bits


def powers(fields):
    return np.abs(fields[..., 0]) ** 2 + np.abs(fields[..., 1]) ** 2


def test_enumeration_counts_headline():
    spec = SubArraySpec("m1_v", (0, 1, 2, 3))
    weights = enumerate_weights(spec, 3)
    assert len(weights) == 512
    plan = SynthesisPlan(
        tuple(SubArraySpec(f"s{i}", (0, 1, 2, 3)) for i in range(4)), bits=3
    )
    assert plan.realization_count == 2048


def test_enumeration_single_element():
    weights = enumerate_weights(SubArraySpec("solo", (0,)), 3)
    assert isinstance(weights, np.ndarray)
    assert weights.shape == (1, 1)
    assert weights[0, 0] == 1.0


def test_enumeration_two_elements_one_bit():
    weights = enumerate_weights(SubArraySpec("pair", (0, 1)), 1)
    assert weights.shape == (2, 2)
    assert phase_codes(weights, 1).tolist() == [[0, 0], [0, 1]]
    np.testing.assert_allclose(
        weights, [[1.0, 1.0], [1.0, -1.0]] / np.sqrt(2), rtol=0, atol=1e-15
    )


def test_enumeration_lattice_and_reference():
    spec = SubArraySpec("s", (0, 1, 2))
    weights = enumerate_weights(spec, 2)
    assert weights.shape == (16, 3)
    amplitude = 1 / math.sqrt(3)
    assert np.all(weights[:, 0] == amplitude)
    codes = phase_codes(weights, 2)
    np.testing.assert_allclose(
        weights, amplitude * np.exp(0.5j * math.pi * codes), rtol=0, atol=1e-15
    )
    # lexicographic order over the trailing phases, each vector once
    seq = [tuple(row) for row in codes[:, 1:]]
    assert seq == list(itertools.product(range(4), repeat=2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_weight_vector_loop(n):
    spec = SubArraySpec("s", tuple(range(n)))
    for bits in range(1, 7):
        if weight_count(n, bits) > 100_000:
            break
        weights = enumerate_weights(spec, bits)
        expected = reference_enumerate_phasors(spec, bits)
        assert weights.dtype == expected.dtype == np.complex128
        assert weights.shape == expected.shape
        np.testing.assert_array_equal(
            weights.view(np.int64), expected.view(np.int64)
        )


def test_enumeration_validation():
    spec = SubArraySpec("s", (0, 1, 2, 3))
    for bits in (0, 7, 2.5, True, "2"):
        with pytest.raises(ValueError, match="bits"):
            enumerate_weights(spec, bits)
        with pytest.raises(ValueError, match="bits"):
            SynthesisPlan((spec,), bits=bits)
    # 2^(6*4) = 16.7M exceeds the 1e7 cap; a plan holding such a
    # sub-array fails when it is built, before any enumeration
    big = SubArraySpec("big", (0, 1, 2, 3, 4))
    cap = "enumeration of 16777216 weight vectors exceeds the cap of 10000000"
    with pytest.raises(ValueError, match=cap):
        enumerate_weights(big, 6)
    with pytest.raises(ValueError, match=cap):
        SynthesisPlan((spec, big), bits=6)


def test_coherent_combining_plus_6dB():
    grid = make_uniform_sphere_grid(100)
    rng = np.random.default_rng(0)
    base = rng.normal(size=(1, len(grid), 2)) + 1j * rng.normal(size=(1, len(grid), 2))
    gains = np.repeat(base, 4, axis=0)
    pset = pattern_of(gains, grid)
    spec = SubArraySpec("all", (0, 1, 2, 3))
    w = WeightVector((0.0, 0.0, 0.0, 0.0), 0.5)
    out = synthesize(pset, spec, w)
    single = np.abs(base[0, :, 0]) ** 2 + np.abs(base[0, :, 1]) ** 2
    gain_db = 10 * np.log10(out.power_gain() / single)
    np.testing.assert_allclose(gain_db, 10 * math.log10(4.0), atol=1e-6)


def test_opposite_phases_cancel():
    grid = make_uniform_sphere_grid(60)
    rng = np.random.default_rng(1)
    base = rng.normal(size=(1, len(grid), 2)) + 1j * rng.normal(size=(1, len(grid), 2))
    pset = pattern_of(np.repeat(base, 2, axis=0), grid)
    out = synthesize(
        pset, SubArraySpec("pair", (0, 1)), WeightVector((0.0, 180.0), 1 / math.sqrt(2))
    )
    assert np.abs(out.fields).max() < 1e-12


def test_synthesis_matches_array_factor_oracle():
    # isotropic elements at random positions (in wavelengths); geometric
    # phases folded into the element patterns, then compared against the
    # analytic array factor coded with plain cmath
    rng = np.random.default_rng(42)
    n_el = 4
    positions_wl = rng.uniform(-1.0, 1.0, size=(n_el, 3))
    grid = make_uniform_sphere_grid(60)
    dirs = rng.choice(len(grid), size=20, replace=False)

    theta = np.radians(grid.theta_deg)
    phi = np.radians(grid.phi_deg)
    unit = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=1,
    )
    geometric = np.exp(-2j * math.pi * (positions_wl @ unit.T))  # (n_el, n_dirs)
    gains = np.zeros((n_el, len(grid), 2), dtype=complex)
    gains[:, :, 0] = geometric
    pset = pattern_of(gains, grid)
    spec = SubArraySpec("iso", tuple(range(n_el)))

    worst = 0.0
    for t in range(50):
        phases = rng.integers(0, 8, size=n_el) * 45.0
        phases[0] = 0.0
        w = WeightVector(tuple(phases), 1 / math.sqrt(n_el))
        out = synthesize(pset, spec, w)
        power = out.power_gain()
        for d in dirs:
            acc = 0.0 + 0.0j
            for i in range(n_el):
                psi = -2.0 * math.pi * float(np.dot(positions_wl[i], unit[d]))
                acc += cmath.exp(1j * (math.radians(phases[i]) + psi))
            expected = abs(acc) ** 2 / n_el
            err = abs(10 * math.log10(power[d]) - 10 * math.log10(expected))
            worst = max(worst, err)
    assert worst < 1e-9


def test_global_phase_invariance():
    grid = make_uniform_sphere_grid(80)
    rng = np.random.default_rng(3)
    gains = rng.normal(size=(4, len(grid), 2)) + 1j * rng.normal(size=(4, len(grid), 2))
    weights = enumerate_weights(SubArraySpec("s", (0, 1, 2, 3)), 1)
    a = powers(synthesize_fields(gains, weights))
    b = powers(synthesize_fields(gains * cmath.exp(1j * 1.234), weights))
    assert a.shape == (8, len(grid))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_reference_element_loses_no_generality():
    # every unconstrained quantized vector has a constrained twin with
    # identical power everywhere (N=2, 2 bits, exhaustive)
    grid = make_uniform_sphere_grid(40)
    rng = np.random.default_rng(4)
    gains = rng.normal(size=(2, len(grid), 2)) + 1j * rng.normal(size=(2, len(grid), 2))
    pset = pattern_of(gains, grid)
    spec = SubArraySpec("pair", (0, 1))
    amplitude = 1 / math.sqrt(2)
    constrained = powers(synthesize_fields(gains, enumerate_weights(spec, 2)))
    assert len(constrained) == 4
    for p0 in (0.0, 90.0, 180.0, 270.0):
        for p1 in (0.0, 90.0, 180.0, 270.0):
            free = synthesize(
                pset, spec, WeightVector((p0, p1), amplitude)
            ).power_gain()
            assert any(
                np.allclose(free, c, rtol=1e-10, atol=1e-12) for c in constrained
            )


def test_single_element_plan_reproduces_pattern():
    grid = make_uniform_sphere_grid(30)
    rng = np.random.default_rng(6)
    gains = rng.normal(size=(1, len(grid), 2)) + 1j * rng.normal(size=(1, len(grid), 2))
    weights = enumerate_weights(SubArraySpec("solo", (0,)), 3)
    out = synthesize_fields(gains, weights)
    assert out.shape == (1, len(grid), 2)
    np.testing.assert_allclose(out[0], gains[0], rtol=1e-15)


def test_counting_law_small_plans():
    plan = SynthesisPlan(
        (SubArraySpec("a", (0, 1)), SubArraySpec("b", (0, 1, 2))), bits=2
    )
    assert plan.realization_count == 2**2 + 2**4
    assert weight_count(4, 3) == 512


def test_spec_validation():
    with pytest.raises(ValueError):
        SubArraySpec("dup", (0, 0))
    with pytest.raises(ValueError):
        SubArraySpec("neg", (-1,))
    with pytest.raises(ValueError):
        SubArraySpec("empty", ())
    with pytest.raises(ValueError):
        SynthesisPlan((), bits=3)
    with pytest.raises(ValueError):
        SynthesisPlan((SubArraySpec("a", (0,)), SubArraySpec("a", (1,))), bits=3)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((), 1.0)
    with pytest.raises(ValueError):
        WeightVector((0.0, math.nan), 1.0)
    with pytest.raises(ValueError):
        WeightVector((0.0,), 0.0)


def test_synthesize_validation():
    grid = make_regular_grid(90.0, 180.0)
    gains = np.zeros((2, len(grid), 2), dtype=complex)
    pset = pattern_of(gains, grid)
    with pytest.raises(ValueError, match="phases"):
        synthesize(pset, SubArraySpec("s", (0, 1)), WeightVector((0.0,), 1.0))
    with pytest.raises(ValueError, match="feed index"):
        synthesize(pset, SubArraySpec("s", (0, 5)), WeightVector((0.0, 0.0), 1.0))


def test_plan_from_config():
    feeds = ("1V", "2H", "3V", "4H")
    config = {
        "bits": 2,
        "sub_arrays": [
            {"label": "v", "feeds": ["1V", "3V"]},
            {"label": "h", "feeds": ["2H", "4H"]},
        ],
    }
    plan = plan_from_config(config, feeds)
    assert plan.bits == 2
    assert plan.sub_arrays[0].feed_indices == (0, 2)
    assert plan.sub_arrays[1].feed_indices == (1, 3)
    assert plan_from_config({"sub_arrays": config["sub_arrays"]}, feeds).bits == 3


def test_plan_from_config_errors():
    feeds = ("1V",)
    with pytest.raises(ConfigError):
        plan_from_config({}, feeds)
    with pytest.raises(ConfigError):
        plan_from_config({"sub_arrays": [{"label": "x"}]}, feeds)
    with pytest.raises(ConfigError, match="unknown feed"):
        plan_from_config(
            {"sub_arrays": [{"label": "x", "feeds": ["9V"]}]}, feeds
        )
    with pytest.raises(ConfigError):
        plan_from_config(
            {"bits": 9, "sub_arrays": [{"label": "x", "feeds": ["1V"]}]}, feeds
        )


_SYNTHESIZE_ONE_WEIGHT = """
import sys
import numpy as np
from arraycov.grid import make_regular_grid
from arraycov.pattern import ElementPatternSet
from arraycov.synth import SubArraySpec, WeightVector, synthesize
grid = make_regular_grid(1.0, 10.0)
shape = (4, len(grid), 2)
rng = np.random.default_rng(100)
pset = ElementPatternSet(
    grid, ("a", "b", "c", "d"), rng.normal(size=shape) + 1j * rng.normal(size=shape)
)
w = WeightVector((0.0, 22.5, 135.0, 270.0), 0.5)
sys.stdout.write(synthesize(pset, SubArraySpec("s", (0, 1, 2, 3)), w).fields.tobytes().hex())
"""


def test_synthesize_bytes_do_not_depend_on_blas_threads():
    # one weight over the 6446 directions of the 1 deg x 10 deg grid; as a
    # 1-row product (a gemv) directions 3222 and 6445 differed between 1
    # and 2 OpenBLAS threads
    fields = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _SYNTHESIZE_ONE_WEIGHT],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        fields.append(np.frombuffer(bytes.fromhex(proc.stdout), dtype=np.int64))
    one, two = fields
    assert one.size == 6446 * 2 * 2
    np.testing.assert_array_equal(one, two)
