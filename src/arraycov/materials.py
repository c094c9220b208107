"""Complex-permittivity records and multilayer reflection arithmetic.

Permittivity uses the engineering convention eps = eps' - j*eps''
(eps'' >= 0 for passive loss) with the e^{+j omega t} time factor, so
plane waves decay as e^{-alpha z} with alpha = k0 * Im(sqrt(eps)) for
the root having non-negative imaginary part. Reflection of a layered
slab follows the standard recursive single-interface combination from
the substrate outward.
"""

import cmath
import math
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import MaterialRangeError, ParseError
from .ioutil import float_table

# speed of light in mm/s; frequencies are GHz, lengths mm
C_MM_PER_S = 299_792_458_000.0

POL_TE = "TE"
POL_TM = "TM"


@dataclass(frozen=True)
class MaterialRecord:
    """Tabulated relative permittivity vs frequency, linear interpolation.

    A single-row record is a frequency-independent constant (air, LD-PE
    and similar low-dispersion materials are stored this way).
    """

    name: str
    frequency_ghz: np.ndarray
    eps_real: np.ndarray
    eps_imag: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.frequency_ghz, dtype=np.float64))
        er = np.atleast_1d(np.asarray(self.eps_real, dtype=np.float64))
        ei = np.atleast_1d(np.asarray(self.eps_imag, dtype=np.float64))
        if not (f.shape == er.shape == ei.shape) or f.ndim != 1 or f.size == 0:
            raise ValueError("record arrays must be 1-D and equally sized")
        if f.size > 1 and np.any(np.diff(f) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(er < 1.0):
            raise ValueError("eps_real must be >= 1 for passive media")
        if np.any(ei < 0.0):
            raise ValueError("eps_imag must be >= 0 (eps = eps' - j*eps'')")
        for arr in (f, er, ei):
            arr.flags.writeable = False
        object.__setattr__(self, "frequency_ghz", f)
        object.__setattr__(self, "eps_real", er)
        object.__setattr__(self, "eps_imag", ei)


AIR = MaterialRecord("air", [1.0], [1.0], [0.0])


def permittivity_at(material: MaterialRecord, f_ghz, extrapolate=False) -> complex:
    """eps' - j*eps'' at f_ghz, linear per component.

    Single-row records are constants at any frequency. Multi-row
    records interpolate inside their range; outside it, the edge-slope
    extension is used only when extrapolate is set, otherwise a range
    error is raised.
    """
    f = float(f_ghz)
    freqs = material.frequency_ghz
    if freqs.size == 1:
        return complex(material.eps_real[0], -material.eps_imag[0])
    if not (freqs[0] <= f <= freqs[-1]):
        if not extrapolate:
            raise MaterialRangeError(
                f"{material.name}: {f} GHz outside [{freqs[0]}, {freqs[-1]}] GHz"
            )
        lo, hi = (0, 1) if f < freqs[0] else (freqs.size - 2, freqs.size - 1)
        t = (f - freqs[lo]) / (freqs[hi] - freqs[lo])
        er = material.eps_real[lo] + t * (material.eps_real[hi] - material.eps_real[lo])
        ei = material.eps_imag[lo] + t * (material.eps_imag[hi] - material.eps_imag[lo])
        return complex(er, -ei)
    er = float(np.interp(f, freqs, material.eps_real))
    ei = float(np.interp(f, freqs, material.eps_imag))
    return complex(er, -ei)


def _k0_rad_per_mm(f_ghz) -> float:
    return 2.0 * math.pi * f_ghz * 1e9 / C_MM_PER_S


def _refraction_root(eps: complex) -> complex:
    # sqrt branch with Im >= 0, the decaying-wave convention
    root = cmath.sqrt(eps)
    return -root if root.imag < 0.0 else root


def penetration_depth_for_eps(eps, f_ghz) -> float:
    """delta = 1/alpha for an arbitrary complex permittivity, in mm."""
    n_imag = _refraction_root(complex(eps)).imag
    alpha = _k0_rad_per_mm(float(f_ghz)) * n_imag
    if alpha <= 0.0:
        raise ValueError(f"lossless permittivity {eps}; penetration depth undefined")
    return 1.0 / alpha


def penetration_depth_mm(material: MaterialRecord, f_ghz, extrapolate=False) -> float:
    """1/e field-decay depth delta = 1/alpha, in millimeters."""
    eps = permittivity_at(material, f_ghz, extrapolate=extrapolate)
    try:
        return penetration_depth_for_eps(eps, f_ghz)
    except ValueError:
        raise ValueError(
            f"{material.name} is lossless; penetration depth undefined"
        ) from None


@dataclass(frozen=True)
class Layer:
    material: MaterialRecord
    thickness_mm: float

    def __post_init__(self):
        if not (self.thickness_mm > 0.0) or not math.isfinite(self.thickness_mm):
            raise ValueError(f"thickness must be positive, got {self.thickness_mm}")


@dataclass(frozen=True)
class LayerStack:
    """Ordered slab layers between two half-spaces, outside-in."""

    layers: tuple
    incident: MaterialRecord = AIR
    substrate: MaterialRecord = AIR

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("stack needs at least one layer")
        object.__setattr__(self, "layers", layers)


def _kz(eps: complex, eps_incident: complex, sin2_theta0: float, k0: float) -> complex:
    # transverse wavenumber component; branch keeps e^{-2j kz d} decaying
    # for lossy media and evanescent for total internal reflection
    w = cmath.sqrt(eps - eps_incident * sin2_theta0)
    if w.imag > 0.0:
        w = -w
    return k0 * w


def _interface(kz_i, kz_j, eps_i, eps_j, polarization) -> complex:
    if polarization == POL_TE:
        return (kz_i - kz_j) / (kz_i + kz_j)
    if polarization == POL_TM:
        return (eps_j * kz_i - eps_i * kz_j) / (eps_j * kz_i + eps_i * kz_j)
    raise ValueError(f"polarization must be TE or TM, got {polarization!r}")


def layered_reflection(
    stack: LayerStack, f_ghz, incidence_deg=0.0, polarization=POL_TE, extrapolate=False
) -> complex:
    """Complex reflection coefficient of the stack at one frequency.

    Recursive combination from the substrate outward:
    Gamma_i = (r_i + Gamma_{i+1} e^{-2j kz d}) / (1 + r_i Gamma_{i+1} e^{-2j kz d}).
    """
    theta0 = float(incidence_deg)
    if not (0.0 <= theta0 < 90.0):
        raise ValueError(f"incidence must be in [0, 90) degrees, got {theta0}")
    f = float(f_ghz)
    k0 = _k0_rad_per_mm(f)

    media = [stack.incident] + [layer.material for layer in stack.layers]
    media.append(stack.substrate)
    eps = [permittivity_at(m, f, extrapolate=extrapolate) for m in media]
    eps_inc = eps[0]
    sin2 = math.sin(math.radians(theta0)) ** 2
    kz = [_kz(e, eps_inc, sin2, k0) for e in eps]

    gamma = _interface(kz[-2], kz[-1], eps[-2], eps[-1], polarization)
    for i in range(len(stack.layers) - 1, -1, -1):
        r = _interface(kz[i], kz[i + 1], eps[i], eps[i + 1], polarization)
        phase = cmath.exp(-2j * kz[i + 1] * stack.layers[i].thickness_mm)
        gamma = (r + gamma * phase) / (1.0 + r * gamma * phase)
    return gamma


def reflection_db(gamma: complex) -> float:
    mag = abs(gamma)
    return 20.0 * math.log10(mag) if mag > 0.0 else -math.inf


def skin_thickness_delta(stack_a: LayerStack, stack_b: LayerStack, f_ghz) -> float:
    """20log10|Gamma_a| - 20log10|Gamma_b| at normal incidence, in dB."""
    ga = layered_reflection(stack_a, f_ghz, 0.0, POL_TE)
    gb = layered_reflection(stack_b, f_ghz, 0.0, POL_TE)
    return reflection_db(ga) - reflection_db(gb)


MATERIAL_CSV_HEADER = ["frequency_ghz", "eps_real", "eps_imag"]


def load_material_csv(path, name=None) -> MaterialRecord:
    if name is None:
        name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    freqs, er, ei = float_table(path, MATERIAL_CSV_HEADER, finite=True)
    try:
        return MaterialRecord(name, freqs, er, ei)
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc


def builtin_material(name) -> MaterialRecord:
    """Load one of the records shipped with the package."""
    if name == "air":
        return AIR
    ref = resources.files("arraycov").joinpath(f"data/materials/{name}.csv")
    if not ref.is_file():
        raise KeyError(f"no builtin material {name!r}")
    with resources.as_file(ref) as path:
        return load_material_csv(path, name=name)
