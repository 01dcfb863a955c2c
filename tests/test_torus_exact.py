import cmath
import math
import random
import re

import numpy as np
import pytest

from conftest import free_field_model, random_z
import pszeros.torus_exact as torus_exact
from pszeros.cli import PRESETS, Scenario, run
from pszeros.contours import torus_contour_identity_check
from pszeros.errors import BudgetError, ConvergenceError
from pszeros.models import ModelError, blume_capel, ising, perturbed_ising, potts
from pszeros.torus_exact import (
    ExactZeroSet,
    PartitionPolynomial,
    _sum_with_mass,
    exact_zeros,
    partition_function_exact,
    partition_polynomial,
    transfer_matrix_pf,
)
from pszeros.zeros import splitting_residual


def test_free_field_counts():
    # all weights one: Z = |S|^(L^d)
    m = free_field_model()
    assert partition_function_exact(m, 3, 1.0) == pytest.approx(512)
    assert transfer_matrix_pf(m, 4, 1.0) == pytest.approx(2**16)


def test_site_field_product_structure():
    m = free_field_model(
        spins=(-1, 0, 1), site_energy=lambda s: 0.3 * s, site_zpower=lambda s: s + 1
    )
    z = 0.7 + 0.4j
    per_site = sum(cmath.exp(-0.3 * s) * z ** (s + 1) for s in (-1, 0, 1))
    assert partition_function_exact(m, 3, z) == pytest.approx(per_site**9, rel=1e-12)


def test_enumeration_vs_transfer_matrix_ising(rng):
    m = ising(1.0)
    for _ in range(20):
        z = random_z(rng)
        ze = partition_function_exact(m, 3, z)
        zt = transfer_matrix_pf(m, 3, z)
        assert abs(ze - zt) / abs(ze) < 1e-12


def test_enumeration_vs_transfer_matrix_blume_capel():
    m = blume_capel(1.2, 0.05)
    ze = partition_function_exact(m, 3, 1.0)
    zt = transfer_matrix_pf(m, 3, 1.0)
    assert abs(ze - zt) / abs(ze) < 1e-12


def _backward_offset_ising():
    # the anti-diagonal bond reaches back along the first axis
    return perturbed_ising({
        ((0, 0), (1, 0)): 1.0,
        ((0, 0), (0, 1)): 1.0,
        ((-1, 1), (0, 0)): 0.3,
        ((0, 0), (0, 1), (1, 1)): 0.2,
    })


def _plaquette_ising():
    return perturbed_ising({
        ((0, 0), (1, 0)): 1.5,
        ((0, 0), (0, 1)): 1.5,
        ((0, 0), (1, 0), (0, 1), (1, 1)): 0.1,
    })


@pytest.mark.parametrize("make, L", [
    (_backward_offset_ising, 3),
    (_backward_offset_ising, 4),
    (_plaquette_ising, 3),
    (_plaquette_ising, 4),
    (lambda: blume_capel(1.3, 0.1), 3),
    (lambda: potts(3, 1.2), 3),
], ids=["backward-L3", "backward-L4", "plaquette-L3", "plaquette-L4", "blume-capel-L3",
        "potts3-L3"])
def test_enumeration_vs_transfer_matrix_to_term_moduli(make, L):
    # relative to the summed moduli of the terms: at complex z they cancel
    m = make()
    rng = random.Random(f"{m.name}/{L}")
    for z in [1.0, 0.8 + 0.3j] + [random_z(rng) for _ in range(3)]:
        ze, mass = _sum_with_mass(m, L, z)
        assert abs(ze - transfer_matrix_pf(m, L, z)) <= 1e-12 * mass


def test_transfer_matrix_rejects_long_range():
    m = __import__("pszeros.models", fromlist=["perturbed_ising"]).perturbed_ising(
        {((0, 0), (0, 2)): 0.1, ((0, 0), (0, 1)): 1.0}
    )
    assert m.range == 2
    with pytest.raises(BudgetError):
        transfer_matrix_pf(m, 5, 1.0)


@pytest.mark.parametrize(
    "model", [ising(1.5), blume_capel(1.3, 0.1)], ids=["ising", "blume-capel"]
)
def test_z_zero_is_the_constant_coefficient(model):
    c0 = partition_polynomial(model, 3).coefficients[0]
    for value in (
        partition_function_exact(model, 3, 0),
        _sum_with_mass(model, 3, 0)[0],
        transfer_matrix_pf(model, 3, 0),
    ):
        assert abs(value - c0) <= 1e-13 * abs(c0)


def test_z_zero_with_a_negative_power_is_an_error():
    m = ising(1.0, field="plain")
    for evaluate in (partition_function_exact, _sum_with_mass, transfer_matrix_pf):
        with pytest.raises(ValueError, match="negative power"):
            evaluate(m, 3, 0)


@pytest.mark.parametrize("evaluate", [
    partition_function_exact,
    transfer_matrix_pf,
    lambda model, L, z: splitting_residual(model, L, z),
], ids=["partition_function_exact", "transfer_matrix_pf", "splitting_residual"])
@pytest.mark.parametrize("z, error, message", [
    (math.nan, ModelError, "z = nan: not a finite point"),
    (complex(1, math.nan), ModelError, "z = (1+nanj): not a finite point"),
    (complex(math.inf, 0), ModelError, "z = (inf+0j): not a finite point"),
    (1e300, ConvergenceError, "overflows at z = 1e+300"),
], ids=["nan", "1+nanj", "inf+0j", "1e300"])
def test_nonfinite_or_overflowing_z_is_a_typed_error(evaluate, z, error, message):
    # the exact side refuses z as the metastable side does, and a Z that
    # overflows is a refused computation, not a nan
    with pytest.raises(error, match=re.escape(message)):
        evaluate(ising(1.5), 3, z)


def test_one_enumeration_per_torus(monkeypatch, tmp_path):
    # the exact pipeline, the identity check and the compare pipeline
    # enumerate each torus once, however many z they evaluate
    passes = []
    energy_blocks = torus_exact._energy_blocks

    def counted(model, L):
        passes.append((model.name, L))
        return energy_blocks(model, L)

    monkeypatch.setattr(torus_exact, "_energy_blocks", counted)
    scenario = Scenario.from_text(
        "[scenario]\nname = one-pass\npipelines = exact\n\n"
        "[model]\nname = ising\nJ = 1.5\n\n"
        "[exact]\nL = 3\nz_values = 0.6+0.8j; -1.1+0.2j\n"
    )
    assert run(scenario, tmp_path / "o") == 0
    assert len((tmp_path / "o" / "exact_spot_checks_L3.csv").read_text().splitlines()) == 3
    assert len(passes) == 1
    passes.clear()
    report = torus_contour_identity_check(ising(1.2), 3, [0.7 + 0.2j, -0.9 + 0.5j, 1.3j])
    assert len(report["per_z"]) == 3
    assert len(passes) == 1
    # the compare pipeline: once per side, for all three z of each
    passes.clear()
    run(Scenario.from_text(PRESETS["residual-ising"]), tmp_path / "r")
    assert passes == [("ising(J=1.5,shifted)", 3), ("ising(J=1.5,shifted)", 4)]


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        partition_function_exact(ising(1.0), 6, 1.0, budget=2**20)
    with pytest.raises(BudgetError):
        torus_contour_identity_check(ising(1.0), 4, [1.0], budget=2**10)


def test_repeated_calls_are_bit_reproducible():
    m = blume_capel(1.3, 0.1)
    z = 0.6 + 0.8j
    assert partition_function_exact(m, 3, z) == partition_function_exact(m, 3, z)
    assert partition_polynomial(m, 3).coefficients == partition_polynomial(m, 3).coefficients


def test_polynomial_degrees():
    assert partition_polynomial(ising(1.0), 3).degree == 9
    assert partition_polynomial(blume_capel(1.0, 0.1), 3).degree == 18


def test_polynomial_matches_enumeration(rng):
    for model in (ising(1.5), blume_capel(1.3, 0.1), potts(3, 2.0)):
        poly = partition_polynomial(model, 3)
        assert abs(poly.coefficients[-1]) > 0
        for _ in range(5):
            z = random_z(rng)
            assert abs(poly(z) - partition_function_exact(model, 3, z)) / abs(
                poly(z)
            ) < 1e-10


def test_polynomial_rejects_plain_field():
    with pytest.raises(BudgetError):
        partition_polynomial(ising(1.0, field="plain"), 3)


def test_coefficient_flip_symmetry():
    poly = partition_polynomial(ising(1.3), 3)
    co = poly.coefficients
    for k in range(10):
        assert co[k] == pytest.approx(co[9 - k], rel=1e-12)


def test_functional_symmetry_z_to_inverse(rng):
    poly = partition_polynomial(ising(1.1), 3)
    for _ in range(5):
        z = random_z(rng)
        assert poly(z) == pytest.approx(z**9 * poly(1 / z), rel=1e-10)


def test_exact_zeros_ninth_roots():
    poly = PartitionPolynomial((1.0,) + (0.0,) * 8 + (1.0,), 3, tag="z^9+1")
    zs = exact_zeros(poly)
    assert zs.degree == 9 and len(zs.roots) == 9
    expected = sorted(
        (cmath.exp(1j * (math.pi + 2 * math.pi * k) / 9) for k in range(9)),
        key=lambda w: cmath.phase(w),
    )
    got = sorted(zs.roots, key=lambda w: cmath.phase(w))
    for a, b in zip(got, expected):
        assert abs(a - b) < 1e-12
    assert zs.residual < 1e-12


def test_exact_zeros_lee_yang_circle():
    zs = exact_zeros(partition_polynomial(ising(1.5), 3))
    assert len(zs.roots) == 9
    assert max(abs(abs(r) - 1) for r in zs.roots) < 1e-8
    assert zs.residual < 1e-10


def test_exact_zeros_deflation_note():
    poly = PartitionPolynomial((0.0, 1.0, 1.0, 1e-20), 2, tag="degenerate")
    zs = exact_zeros(poly)
    assert any("deflated" in n for n in zs.notes)
    assert any("z=0" in n for n in zs.notes)
    assert len(zs.roots) == 2  # one at zero, one at -1 after deflation


def test_zero_set_serialization():
    zs = exact_zeros(partition_polynomial(ising(1.2), 3))
    rows = zs.to_csv_rows()
    assert rows[0] == ("re", "im", "abs", "arg")
    assert len(rows) == 10
    data = zs.to_json()
    assert '"degree": 9' in data


def _winding_number(coefficients, radius, n=2**15):
    """Zeros of the polynomial inside |z| = radius by the argument principle:
    the winding of its values round a circle sampled at n points."""
    co = np.asarray(coefficients)[::-1]
    v = np.polyval(co, radius * np.exp(2j * np.pi * np.arange(n + 1) / n))
    steps = np.angle(v[1:] / v[:-1])
    # each step must turn by well under pi for the winding to be unambiguous
    assert np.abs(steps).max() < math.pi / 4
    return round(steps.sum() / (2 * math.pi))


@pytest.mark.parametrize(
    "model, L", [(ising(1.5), 4), (blume_capel(1.5, 0.3), 3)], ids=["ising-L4", "blume-capel-L3"]
)
def test_argument_principle_counts_the_roots(model, L):
    poly = partition_polynomial(model, L)
    roots = exact_zeros(poly).roots
    assert len(roots) == poly.degree
    delta = 1e-3
    # the roots found against the count, and every root on the unit circle
    # (Lee-Yang): none inside 1 - delta, all inside 1 + delta
    inner = _winding_number(poly.coefficients, 1 - delta)
    outer = _winding_number(poly.coefficients, 1 + delta)
    assert inner == sum(abs(r) < 1 - delta for r in roots) == 0
    assert outer == sum(abs(r) < 1 + delta for r in roots) == poly.degree
