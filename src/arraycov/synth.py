"""Quantized-phase weight enumeration and coherent array synthesis.

A sub-array groups N feeds behind ideal b-bit phase shifters with an
equal 1/sqrt(N) power split. The first element is the phase reference
(pinned to 0), so a sub-array enumerates 2^(b*(N-1)) weight vectors;
N=4 at 3 bits gives the 512 patterns per sub-array and 2048 total for
the four-sub-array phone configuration.
"""

import math

import numpy as np

from .errors import CapacityError, ConfigError
from .ioutil import config_value
from .kernels import synthesize_fields
from .pattern import ElementPatternSet

MIN_BITS = 1
MAX_BITS = 6

# hard cap on a single sub-array's enumeration size
MAX_WEIGHTS = 10_000_000


class SubArraySpec:
    """A labeled group of feed indices combined by one weight vector."""

    __slots__ = ("label", "feed_indices")

    def __init__(self, label, feed_indices):
        idx = tuple(int(i) for i in feed_indices)
        if len(idx) < 1 or len(set(idx)) != len(idx) or any(i < 0 for i in idx):
            raise ValueError(f"feed indices must be unique and non-negative: {idx}")
        self.label, self.feed_indices = label, idx

    @property
    def size(self) -> int:
        return len(self.feed_indices)


class WeightVector:
    """Per-element phases in degrees plus a common amplitude."""

    __slots__ = ("phases_deg", "amplitude")

    def __init__(self, phases_deg, amplitude):
        phases = tuple(float(p) for p in phases_deg)
        if not phases or not all(map(math.isfinite, phases)):
            raise ValueError(f"invalid phases {phases}")
        if not (amplitude > 0.0):
            raise ValueError(f"amplitude must be positive, got {amplitude}")
        self.phases_deg, self.amplitude = phases, amplitude

    @property
    def phasors(self) -> np.ndarray:
        return self.amplitude * np.exp(1j * np.radians(self.phases_deg))


def weight_count(n_elements, bits) -> int:
    """Size of a sub-array's enumeration, 2^(bits*(N-1)).

    Raises ValueError for bits that are not an integer (a bool is not) in
    [MIN_BITS, MAX_BITS], and CapacityError above MAX_WEIGHTS.
    """
    is_int = isinstance(bits, (int, np.integer)) and not isinstance(bits, bool)
    if not (is_int and MIN_BITS <= bits <= MAX_BITS):
        raise ValueError(f"bits must be an integer in [{MIN_BITS}, {MAX_BITS}], got {bits!r}")
    count = 2 ** (bits * (n_elements - 1))
    if count > MAX_WEIGHTS:
        raise CapacityError(
            f"enumeration of {count} weight vectors exceeds the cap of {MAX_WEIGHTS}"
        )
    return count


def enumerate_weights(spec: SubArraySpec, bits) -> np.ndarray:
    """Every quantized weight vector of a sub-array as one complex
    (n_weights, N) phasor matrix, rows in lexicographic order of the
    trailing phases.

    Phases live on the {k*360/2^bits} lattice with element 0 pinned to
    phase 0 and amplitude 1/sqrt(N) on every element.
    """
    n = spec.size
    count = weight_count(n, bits)
    codes = np.indices((2**bits,) * (n - 1)).reshape(n - 1, count).T
    phases = np.zeros((count, n))
    phases[:, 1:] = codes * (360.0 / (2**bits))
    return (1.0 / math.sqrt(n)) * np.exp(1j * np.radians(phases))


class SynthesisPlan:
    """Sub-array list plus shared phase-shifter bit depth."""

    __slots__ = ("sub_arrays", "bits")

    def __init__(self, sub_arrays, bits=3):
        subs = tuple(sub_arrays)
        if not subs:
            raise ValueError("plan needs at least one sub-array")
        labels = [s.label for s in subs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"sub-array labels must be unique: {labels}")
        for s in subs:
            weight_count(s.size, bits)
        self.sub_arrays, self.bits = subs, bits

    @property
    def realization_count(self) -> int:
        return sum(weight_count(s.size, self.bits) for s in self.sub_arrays)


class SynthesizedPattern:
    """Complex combined fields on a grid: shape (n_directions, 2)."""

    __slots__ = ("grid", "fields")

    def __init__(self, grid, fields):
        self.grid, self.fields = grid, fields

    def power_gain(self) -> np.ndarray:
        return np.abs(self.fields[:, 0]) ** 2 + np.abs(self.fields[:, 1]) ** 2

    def power_gain_db(self) -> np.ndarray:
        p = self.power_gain()
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(p)


def element_gains(pattern_set: ElementPatternSet, spec: SubArraySpec) -> np.ndarray:
    """The sub-array's feed gains; ValueError names a sub-array whose feed
    the set lacks."""
    for i in spec.feed_indices:
        if i >= len(pattern_set.feeds):
            raise ValueError(
                f"sub-array {spec.label!r} references feed index {i}, "
                f"set has {len(pattern_set.feeds)} feeds"
            )
    return pattern_set.gains[list(spec.feed_indices)]


def synthesize(
    pattern_set: ElementPatternSet, spec: SubArraySpec, w: WeightVector
) -> SynthesizedPattern:
    """g(direction) = amplitude * sum_i e^{j phi_i} g_i(direction), per
    polarization component."""
    if len(w.phases_deg) != spec.size:
        raise ValueError(
            f"weight vector has {len(w.phases_deg)} phases, sub-array has {spec.size}"
        )
    elem = element_gains(pattern_set, spec)
    # a 1-row product is a gemv, whose bits depend on the BLAS thread count
    fields = synthesize_fields(elem, np.stack([w.phasors] * 2))[0]
    return SynthesizedPattern(pattern_set.grid, fields)


def plan_from_config(config: dict, feeds) -> SynthesisPlan:
    """Build a plan from its JSON object, resolving feed labels to indices.

    Expected shape: {"bits": 3, "sub_arrays": [{"label": ..., "feeds":
    [...]}, ...]} with feed labels drawn from the pattern set.
    """
    feeds = list(feeds)
    subs = []
    for entry in config_value(config, "sub_arrays", "object list"):
        label = config_value(entry, "label", "str")
        indices = []
        for feed in config_value(entry, "feeds", "str list"):
            if feed not in feeds:
                raise ConfigError(f"sub-array {label!r} references unknown feed {feed!r}")
            indices.append(feeds.index(feed))
        subs.append(SubArraySpec(label, tuple(indices)))
    try:
        return SynthesisPlan(tuple(subs), bits=config_value(config, "bits", "int", 3))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
