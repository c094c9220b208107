#!/usr/bin/env python3
"""Derive the calibrated skin permittivity shipped in data/materials.

The phantom-skin recipe is only characterized up to 20 GHz by probe
measurements, so the 28 GHz record is fitted, not measured. Two
published observations pin it down:

  1. field penetration depth of 0.92-0.95 mm at 28 GHz,
  2. reflection of a 5 mm skin layer differing from a 1.5 mm layer by
     about 0.14 dB (layer backed by Styrofoam, eps ~ 1.03).

Parametrize sqrt(eps) = a - j*b. Constraint 1 fixes b outright
(b = 1/(delta * k0) with delta the 0.935 mm band midpoint); a is then
scanned over a grid restricted to eps' in [15, 25], picking the value
whose 5 mm vs 1.5 mm reflection delta lands closest to 0.14 dB. The
result is rounded to 3 decimals before shipping.

Running this script reproduces the shipped record exactly:

    eps = 22.566 - j*18.546  at 28 GHz
"""

import math

import numpy as np

from arraycov.materials import (
    C_MM_PER_S,
    Layer,
    LayerStack,
    MaterialRecord,
    penetration_depth_mm,
    skin_thickness_delta,
)

F_GHZ = 28.0
DEPTH_TARGET_MM = 0.935  # midpoint of the 0.92-0.95 mm target band
DELTA_TARGET_DB = 0.14
EPS_REAL_BRACKET = (15.0, 25.0)

# scan grid for a = Re(sqrt(eps)); step 0.0005
A_GRID = np.linspace(3.8, 5.6, 3601)

STYROFOAM = MaterialRecord("styrofoam", [F_GHZ], [1.03], [0.0])


def _skin_record(eps: complex) -> MaterialRecord:
    return MaterialRecord("skin-candidate", [F_GHZ], [eps.real], [-eps.imag])


def _skin_stack(eps: complex, thickness_mm: float) -> LayerStack:
    return LayerStack((Layer(_skin_record(eps), thickness_mm),), substrate=STYROFOAM)


def _thickness_delta_db(eps: complex) -> float:
    return skin_thickness_delta(_skin_stack(eps, 5.0), _skin_stack(eps, 1.5), F_GHZ)


def fit() -> complex:
    k0 = 2.0 * math.pi * F_GHZ * 1e9 / C_MM_PER_S
    b = 1.0 / (DEPTH_TARGET_MM * k0)
    best_a = None
    best_err = math.inf
    for a in A_GRID:
        eps = (a - 1j * b) ** 2
        if not (EPS_REAL_BRACKET[0] <= eps.real <= EPS_REAL_BRACKET[1]):
            continue
        err = abs(abs(_thickness_delta_db(eps)) - DELTA_TARGET_DB)
        if err < best_err:
            best_err = err
            best_a = a
    eps = (best_a - 1j * b) ** 2
    return complex(round(eps.real, 3), round(eps.imag, 3))


def main():
    eps = fit()
    depth = penetration_depth_mm(_skin_record(eps), F_GHZ)
    delta = _thickness_delta_db(eps)
    assert 0.92 <= depth <= 0.95, depth
    assert abs(abs(delta) - DELTA_TARGET_DB) <= 0.1, delta

    print(f"fitted skin permittivity at {F_GHZ} GHz: {eps.real} - j{-eps.imag}")
    print(f"  penetration depth: {depth:.4f} mm (target band 0.92-0.95)")
    print(f"  5 mm vs 1.5 mm reflection delta: {delta:+.4f} dB (target 0.14)")
    print("shipped record (data/materials/skin_28ghz.csv):")
    print("frequency_ghz,eps_real,eps_imag")
    print(f"{F_GHZ},{eps.real},{-eps.imag}")


if __name__ == "__main__":
    main()
