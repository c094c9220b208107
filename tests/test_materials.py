import cmath
import importlib.util
import math
import os
from importlib import resources

import numpy as np
import pytest

from arraycov.ioutil import ParseError
from arraycov.materials import (
    AIR,
    C_MM_PER_S,
    POL_TE,
    POL_TM,
    Layer,
    LayerStack,
    MaterialRecord,
    _kz,
    builtin_material,
    layered_reflection,
    load_material_csv,
    penetration_depth_mm,
    permittivity_at,
    reflection_db,
    skin_thickness_delta,
)

SKIN = builtin_material("skin_28ghz")
LDPE = builtin_material("ldpe_film")
FOAM = builtin_material("styrofoam")


def halfspace(material):
    # X|X interior interface has r = 0, so the stack reduces to the
    # incident-side Fresnel coefficient exactly, thickness irrelevant
    return LayerStack((Layer(material, 1.0),), substrate=material)


def fresnel_normal(eps: complex) -> complex:
    s = cmath.sqrt(eps)
    return (1.0 - s) / (1.0 + s)


# ---- permittivity records ----


def test_air_is_unity_at_any_frequency():
    for f in (0.5, 1.0, 28.0, 300.0):
        assert permittivity_at(AIR, f) == 1.0 + 0.0j


def test_interpolation_midpoint_exact():
    rec = MaterialRecord("two-point", [10.0, 20.0], [20.0, 16.0], [12.0, 10.0])
    assert permittivity_at(rec, 15.0) == 18.0 - 11.0j
    assert permittivity_at(rec, 10.0) == 20.0 - 12.0j
    assert permittivity_at(rec, 20.0) == 16.0 - 10.0j


def test_ldpe_value_at_28():
    assert permittivity_at(LDPE, 28.0) == pytest.approx(2.3 - 0.0j)


def test_out_of_range_raises_without_flag():
    rec = MaterialRecord("two-point", [10.0, 20.0], [20.0, 16.0], [12.0, 10.0])
    for f in (9.9, 20.1):
        message = rf"^two-point: {f} GHz outside \[10\.0, 20\.0\] GHz$"
        with pytest.raises(ArithmeticError, match=message):
            permittivity_at(rec, f)


def test_single_row_record_is_constant():
    rec = MaterialRecord("flat", [28.0], [4.0], [0.5])
    for f in (1.0, 28.0, 100.0):
        assert permittivity_at(rec, f) == 4.0 - 0.5j


def test_record_validation():
    with pytest.raises(ValueError):
        MaterialRecord("bad", [10.0, 5.0], [2.0, 2.0], [0.0, 0.0])  # decreasing f
    with pytest.raises(ValueError):
        MaterialRecord("bad", [10.0], [0.5], [0.0])  # eps' < 1
    with pytest.raises(ValueError):
        MaterialRecord("bad", [10.0], [2.0], [-0.1])  # eps'' < 0
    with pytest.raises(ValueError):
        MaterialRecord("bad", [10.0, 20.0], [2.0], [0.0])  # ragged
    # NaN fails every ordering check above and inf passes eps' >= 1
    for f, er, ei in [
        ([math.nan], [math.nan], [0.0]),
        ([10.0, math.nan, 30.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0]),
        ([10.0, math.inf], [2.0, 2.0], [0.0, 0.0]),
        ([10.0], [math.inf], [0.0]),
        ([10.0], [2.0], [math.inf]),
    ]:
        with pytest.raises(ValueError, match="finite"):
            MaterialRecord("bad", f, er, ei)


# ---- penetration depth ----


def test_lossless_depth_is_an_error():
    with pytest.raises(ValueError, match="lossless"):
        penetration_depth_mm(AIR, 28.0)


def test_pure_imaginary_eps_analytic_depth():
    # sqrt(3 - 4j) = 2 - 1j, so alpha = k0 exactly and delta = c / (2 pi f)
    f = 28.0
    expected = C_MM_PER_S / (2.0 * math.pi * f * 1e9)
    rec = MaterialRecord("analytic", [f], [3.0], [4.0])
    assert penetration_depth_mm(rec, f) == pytest.approx(expected, rel=1e-12)


def test_skin_depth_lands_in_reference_band():
    depth = penetration_depth_mm(SKIN, 28.0)
    assert 0.92 <= depth <= 0.95


# ---- layered reflection ----


def test_vacuum_slab_is_matched():
    stack = LayerStack((Layer(AIR, 3.0),))
    gamma = layered_reflection(stack, 28.0)
    assert abs(gamma) < 1e-15
    assert reflection_db(gamma) == -math.inf


def test_film_reflection_matches_reference_level():
    stack = LayerStack((Layer(LDPE, 0.1),))
    level = reflection_db(layered_reflection(stack, 28.0))
    assert level == pytest.approx(-28.4, abs=0.3)


def test_thick_lossy_slab_reaches_fresnel_limit():
    stack = LayerStack((Layer(SKIN, 50.0),))
    gamma = layered_reflection(stack, 28.0)
    expected = fresnel_normal(permittivity_at(SKIN, 28.0))
    assert abs(gamma - expected) < 1e-6


def test_halfspace_construction_is_exactly_fresnel():
    for material in (SKIN, LDPE):
        gamma = layered_reflection(halfspace(material), 28.0)
        expected = fresnel_normal(permittivity_at(material, 28.0))
        assert gamma == pytest.approx(expected, rel=1e-12)


def test_identical_stacks_delta_is_zero():
    stack = LayerStack((Layer(SKIN, 5.0),), substrate=FOAM)
    assert skin_thickness_delta(stack, stack, 28.0) == 0.0


def test_skin_thickness_delta_matches_reference_level():
    thick = LayerStack((Layer(SKIN, 5.0),), substrate=FOAM)
    thin = LayerStack((Layer(SKIN, 1.5),), substrate=FOAM)
    delta = skin_thickness_delta(thick, thin, 28.0)
    assert abs(delta) == pytest.approx(0.14, abs=0.1)


def test_deep_slabs_saturate():
    a = LayerStack((Layer(SKIN, 5.0),))
    b = LayerStack((Layer(SKIN, 50.0),))
    assert abs(skin_thickness_delta(a, b, 28.0)) < 1e-3


def test_passive_stacks_never_exceed_unity():
    rng = np.random.default_rng(21)
    mats = [SKIN, LDPE, FOAM, MaterialRecord("lossy", [28.0], [5.0], [3.0])]
    for _ in range(40):
        n = rng.integers(1, 4)
        layers = tuple(
            Layer(mats[rng.integers(len(mats))], float(rng.uniform(0.05, 10.0)))
            for _ in range(n)
        )
        stack = LayerStack(layers, substrate=mats[rng.integers(len(mats))])
        f = float(rng.uniform(20.0, 40.0))
        theta = float(rng.uniform(0.0, 89.0))
        pol = POL_TE if rng.integers(2) else POL_TM
        assert abs(layered_reflection(stack, f, theta, pol)) <= 1.0 + 1e-12


def test_normal_incidence_te_tm_magnitudes_coincide():
    stack = LayerStack((Layer(SKIN, 1.5), Layer(LDPE, 0.1)), substrate=FOAM)
    te = layered_reflection(stack, 28.0, 0.0, POL_TE)
    tm = layered_reflection(stack, 28.0, 0.0, POL_TM)
    assert abs(abs(te) - abs(tm)) < 1e-12


def test_oblique_te_tm_differ():
    stack = LayerStack((Layer(SKIN, 5.0),))
    te = layered_reflection(stack, 28.0, 45.0, POL_TE)
    tm = layered_reflection(stack, 28.0, 45.0, POL_TM)
    assert abs(abs(te) - abs(tm)) > 1e-3


def test_thin_film_grows_linearly_with_thickness():
    # |Gamma| ~ d while beta*d << 1; doubling d doubles the magnitude
    g1 = abs(layered_reflection(LayerStack((Layer(LDPE, 1e-3),)), 28.0))
    g2 = abs(layered_reflection(LayerStack((Layer(LDPE, 2e-3),)), 28.0))
    assert g2 / g1 == pytest.approx(2.0, rel=1e-4)


def test_vanishing_layer_is_a_no_op():
    base = LayerStack((Layer(LDPE, 0.1),))
    padded = LayerStack((Layer(FOAM, 1e-9), Layer(LDPE, 0.1)))
    ga = layered_reflection(base, 28.0, 30.0, POL_TM)
    gb = layered_reflection(padded, 28.0, 30.0, POL_TM)
    assert abs(ga - gb) < 1e-6


def test_brewster_angle_kills_tm():
    eps = permittivity_at(LDPE, 28.0).real
    brewster = math.degrees(math.atan(math.sqrt(eps)))
    tm = layered_reflection(halfspace(LDPE), 28.0, brewster, POL_TM)
    te = layered_reflection(halfspace(LDPE), 28.0, brewster, POL_TE)
    assert abs(tm) < 1e-12
    assert abs(te) > 0.1


def test_lossy_incident_medium_keeps_the_decaying_branch():
    # eps - eps_inc sin^2 has a positive imaginary part when the incident
    # medium is lossier than the layer; the principal root is flipped
    eps_inc = complex(2.0, -1.5)
    sin2 = math.sin(math.radians(40.0)) ** 2
    root = cmath.sqrt(1.0 - eps_inc * sin2)
    assert root.imag > 0.0
    kz = _kz(1.0 + 0j, eps_inc, sin2, 0.5)
    assert kz.imag <= 0.0
    assert kz == -0.5 * root
    lossy = MaterialRecord("lossy", [28.0], [2.0], [1.5])
    stack = LayerStack((Layer(AIR, 1.0),), incident=lossy)
    assert math.isfinite(abs(layered_reflection(stack, 28.0, 40.0, POL_TE)))


def test_reflection_input_validation():
    stack = LayerStack((Layer(LDPE, 0.1),))
    for theta in (-1.0, 90.0, 95.0):
        with pytest.raises(ValueError):
            layered_reflection(stack, 28.0, theta)
    with pytest.raises(ValueError):
        layered_reflection(stack, 28.0, 0.0, "circular")
    with pytest.raises(ValueError):
        Layer(LDPE, 0.0)
    with pytest.raises(ValueError):
        LayerStack(())


def test_non_finite_reflection_is_a_numeric_error():
    stack = LayerStack((Layer(SKIN, 5.0),), substrate=FOAM)
    # the wavenumbers overflow, and Gamma is NaN
    with pytest.raises(ArithmeticError, match=r"reflection at 1e\+300 GHz is not finite"):
        layered_reflection(stack, 1e300)
    # 5 mm of skin is opaque at 1e200 GHz: the air-skin Fresnel coefficient
    gamma = layered_reflection(stack, 1e200)
    assert gamma == pytest.approx(fresnel_normal(permittivity_at(SKIN, 28.0)), rel=1e-12)


def test_reflection_db_keeps_nan():
    assert math.isnan(reflection_db(complex(math.nan, math.nan)))
    assert math.isnan(reflection_db(complex(math.nan, 0.0)))
    assert reflection_db(0j) == -math.inf
    assert reflection_db(-0.1) == pytest.approx(-20.0, abs=1e-12)


def test_range_error_propagates_through_stack():
    narrow = MaterialRecord("narrow", [10.0, 20.0], [2.0, 2.0], [0.1, 0.1])
    stack = LayerStack((Layer(narrow, 1.0),))
    with pytest.raises(ArithmeticError, match=r"^narrow: 28\.0 GHz outside \[10\.0, 20\.0\] GHz$"):
        layered_reflection(stack, 28.0)


# ---- persistence ----


def test_material_csv_round_trip(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("frequency_ghz,eps_real,eps_imag\n10.0,20.0,12.0\n20.0,16.0,10.0\n")
    rec = load_material_csv(path)
    assert rec.name == "sample"
    assert permittivity_at(rec, 15.0) == 18.0 - 11.0j
    named = load_material_csv(path, name="other")
    assert named.name == "other"


def test_material_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq,re,im\n")
    with pytest.raises(ParseError) as err:
        load_material_csv(path)
    assert err.value.row == 1
    path.write_text("frequency_ghz,eps_real,eps_imag\n10.0,2.0\n")
    with pytest.raises(ParseError) as err:
        load_material_csv(path)
    assert err.value.row == 2
    path.write_text("frequency_ghz,eps_real,eps_imag\n10.0,2.0,x\n")
    with pytest.raises(ParseError):
        load_material_csv(path)
    path.write_text("frequency_ghz,eps_real,eps_imag\n")
    with pytest.raises(ParseError, match="no entries"):
        load_material_csv(path)
    path.write_text("frequency_ghz,eps_real,eps_imag\n20.0,2.0,0.0\n10.0,2.0,0.0\n")
    with pytest.raises(ParseError):
        load_material_csv(path)


def test_builtin_materials():
    assert permittivity_at(SKIN, 28.0) == pytest.approx(22.566 - 18.546j)
    assert permittivity_at(FOAM, 28.0) == pytest.approx(1.03 - 0.0j)
    assert builtin_material("air") is AIR
    with pytest.raises(KeyError):
        builtin_material("unobtainium")


def test_skin_fit_script_reproduces_shipped_record(capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "fit_skin_permittivity.py")
    spec = importlib.util.spec_from_file_location("fit_skin_permittivity", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    eps = script.fit()
    # the record stores eps = eps_real - j*eps_imag
    assert (eps.real, -eps.imag) == (SKIN.eps_real[0], SKIN.eps_imag[0])
    assert SKIN.frequency_ghz.tolist() == [script.F_GHZ]
    # main checks the fitted depth and delta against their targets, then
    # prints the shipped file's rows
    script.main()
    out = capsys.readouterr().out.splitlines()
    shipped = resources.files("arraycov").joinpath("data/materials/skin_28ghz.csv")
    assert out[-2:] == shipped.read_text().splitlines()
    assert "penetration depth: 0.9350 mm" in "\n".join(out)
