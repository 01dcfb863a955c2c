import cmath
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import free_field_model, random_z
import pszeros.contours as contours
import pszeros.torus_exact as torus_exact
from pszeros.cli import PRESETS, Scenario, run
from pszeros.contours import torus_contour_identity_check
from pszeros.errors import BudgetError, ConvergenceError
from pszeros.models import ModelError, blume_capel, ising, perturbed_ising, potts
from pszeros.torus_exact import (
    ExactZeroSet,
    PartitionPolynomial,
    _density_of_states,
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


def test_record_vs_transfer_matrix_ising(rng):
    m = ising(1.0)
    for _ in range(20):
        z = random_z(rng)
        ze = partition_function_exact(m, 3, z)
        zt = transfer_matrix_pf(m, 3, z)
        assert abs(ze - zt) / abs(ze) < 1e-12


def test_record_vs_transfer_matrix_blume_capel():
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
def test_record_vs_transfer_matrix_to_term_moduli(make, L):
    # relative to the summed moduli of the terms: at complex z they cancel
    m = make()
    rng = random.Random(f"{m.name}/{L}")
    for z in [1.0, 0.8 + 0.3j] + [random_z(rng) for _ in range(3)]:
        ze, mass = _density_of_states(m, L).sum_with_mass(z)
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
        _density_of_states(model, 3).sum_with_mass(0)[0],
        transfer_matrix_pf(model, 3, 0),
    ):
        assert abs(value - c0) <= 1e-13 * abs(c0)


def test_z_zero_with_a_negative_power_is_an_error():
    m = ising(1.0, field="plain")
    for evaluate in (partition_function_exact, transfer_matrix_pf,
                     lambda m, L, z: _density_of_states(m, L).sum_with_mass(z)):
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
    # the exact pipeline, the identity check and the compare pipeline build
    # each torus's density of states once, by either path, however many z
    # they evaluate
    passes = []
    for name in ("_graded_density_of_states", "_enumerated_density_of_states"):
        build = getattr(torus_exact, name)

        def counted(model, L, build=build):
            passes.append((model.name, L))
            return build(model, L)

        monkeypatch.setattr(torus_exact, name, counted)
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
    # a model the graded path declines (half-integer strip powers) is
    # counted twice: the graded attempt, then its enumeration
    passes.clear()
    partition_function_exact(ising(1.0, field="plain"), 3, 0.7 + 0.2j)
    assert passes == [("ising(J=1.0,plain)", 3)] * 2


def test_enumeration_budget(monkeypatch):
    # the budget binds where enumeration runs: half-integer strip powers
    monkeypatch.setattr(torus_exact, "ENUM_BUDGET", 2**20)
    with pytest.raises(BudgetError, match="enumeration of 2\\^25 states"):
        partition_function_exact(ising(1.0, field="plain"), 5, 1.0)
    # the identity check enumerates the torus itself, whatever builds Z
    monkeypatch.setattr(contours, "IDENTITY_BUDGET", 2**10)
    with pytest.raises(BudgetError, match="identity check over 2\\^16 states"):
        torus_contour_identity_check(ising(1.0), 4, [1.0])


def test_graded_record_past_enumeration(monkeypatch):
    # Ising L=6 has 2^36 configurations, far past the enumeration budget;
    # the graded transfer matrix builds its record in 64 layer states
    monkeypatch.setattr(torus_exact, "ENUM_BUDGET", 2**10)
    poly = partition_polynomial(ising(1.5), 6)
    assert poly.degree == 36
    co = poly.coefficients
    # all spins alike (72 bonds at -J), and one spin flipped (4 bonds broken)
    for power, weight in ((0, math.exp(1.5 * 72)), (1, 36 * math.exp(1.5 * 64))):
        assert co[power] == pytest.approx(weight, rel=1e-13)
        assert co[36 - power] == pytest.approx(weight, rel=1e-13)


def test_graded_bound_is_a_budget_error():
    # Ising L=9: 512 layer states and 65 grades of T^8 exceed the bound,
    # and the refusal comes before the product (136 MB in float64) is
    # allocated: only the strip table's few MB are
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="graded transfer matrix"):
            partition_polynomial(ising(1.5), 9)
        assert tracemalloc.get_traced_memory()[1] < 32 * 2**20
    finally:
        tracemalloc.stop()


def test_exact_side_does_not_depend_on_what_ran_before(monkeypatch):
    # the record's bounds are module constants, so whether it builds depends
    # on (model, L) alone: a fresh model and one whose record was built
    # first give the same bits
    z = cmath.exp(0.7j)
    for make, L in ((lambda: ising(1.5, field="plain"), 3), (lambda: ising(1.5), 4)):
        residual = splitting_residual(make(), L, z, phases=(1, -1)).xi
        exact = partition_function_exact(make(), L, z)
        built = make()
        _density_of_states(built, L)
        assert partition_function_exact(built, L, z) == exact
        assert splitting_residual(built, L, z, phases=(1, -1)).xi == residual
    # and the bound is read when the record is built, not when the
    # function is defined
    monkeypatch.setattr(torus_exact, "ENUM_BUDGET", 2**8)
    with pytest.raises(BudgetError, match="enumeration of 2\\^9 states"):
        partition_function_exact(ising(1.5, field="plain"), 3, z)


def test_residual_past_the_graded_bound_reads_the_transfer_matrix():
    # Ising L=9: the record is refused, and the residual's Z is the numeric
    # transfer matrix at z
    model, z = ising(1.5), cmath.exp(1.0j)
    with pytest.raises(BudgetError, match="graded transfer matrix"):
        partition_function_exact(model, 9, z)
    report = splitting_residual(model, 9, z, phases=(1, -1))
    assert report.ratio == pytest.approx(8.05e-8, rel=1e-3)


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


def _winding_number(coefficients, radius, n=2**12):
    """Zeros of the polynomial inside |z| = radius by the argument principle:
    the winding of its values round a circle, sampled at n points and
    bisected wherever a step turns by pi/4 or more, so that each step turns
    by well under pi and the winding is unambiguous."""
    co = np.asarray(coefficients)[::-1]
    t = 2 * np.pi * np.arange(n + 1) / n
    for _ in range(60):
        v = np.polyval(co, radius * np.exp(1j * t))
        steps = np.angle(v[1:] / v[:-1])
        wide = np.abs(steps) >= math.pi / 4
        if not wide.any():
            return round(steps.sum() / (2 * math.pi))
        t = np.sort(np.concatenate([t, (t[:-1][wide] + t[1:][wide]) / 2]))
    raise AssertionError(f"the winding round |z| = {radius} does not resolve")


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


@pytest.mark.parametrize("L", [5, 6, 7])
def test_high_degree_roots_checked_independently(L):
    # degrees 25 to 49, where no enumeration reaches: each root against the
    # numeric transfer matrix, and the count against the argument principle
    model = ising(1.5)
    states = torus_exact._density_of_states(model, L)
    poly = states.polynomial(model, L)
    roots = exact_zeros(poly).roots
    assert len(roots) == poly.degree == L * L
    for r in roots:
        mass = states.sum_with_mass(r)[1]
        assert abs(transfer_matrix_pf(model, L, r)) <= 1e-12 * mass
    # Lee-Yang: none inside 1 - 1e-6, all inside 1 + 1e-6
    assert _winding_number(poly.coefficients, 1 - 1e-6) == 0
    assert _winding_number(poly.coefficients, 1 + 1e-6) == poly.degree


# -- the graded record against enumeration --------------------------------------

_ORACLE_CASES = {
    "ising-L3": (lambda: ising(1.5), 3),
    "ising-L4": (lambda: ising(1.5), 4),
    "plain-ising-L4": (lambda: ising(1.0, field="plain"), 4),  # powers -8..8
    "blume-capel-L3": (lambda: blume_capel(1.3, 0.1), 3),
    "plain-blume-capel-L3": (lambda: blume_capel(1.3, 0.1, field="plain"), 3),
    "potts3-L3": (lambda: potts(3, 1.2), 3),
    "potts4-L3": (lambda: potts(4, 1.5), 3),
    "backward-L3": (_backward_offset_ising, 3),
    "backward-L4": (_backward_offset_ising, 4),
    "plaquette-L3": (_plaquette_ising, 3),
    "plaquette-L4": (_plaquette_ising, 4),
}
# three-state models stop at L=3 here: 3^16 configurations at L=4 take
# tens of seconds to enumerate


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_graded_record_matches_enumeration(name):
    make, L = _ORACLE_CASES[name]
    model = make()
    graded = torus_exact._graded_density_of_states(model, L)
    enumerated = torus_exact._enumerated_density_of_states(model, L)
    assert np.array_equal(graded.powers, enumerated.powers)
    scale = enumerated.moduli
    assert np.all(np.abs(graded.amplitudes - enumerated.amplitudes) <= 1e-13 * scale)
    assert np.all(np.abs(graded.moduli - enumerated.moduli) <= 1e-13 * scale)


def test_half_integer_powers_take_the_enumeration_path():
    # plain-field Ising on L=3: a layer of three spins carries z^(+-1/2) each
    model = ising(1.0, field="plain")
    assert torus_exact._graded_density_of_states(model, 3) is None
    record = torus_exact._density_of_states(model, 3)
    assert set(record.powers % 1) == {0.5}
    oracle = torus_exact._enumerated_density_of_states(model, 3)
    for got, want in zip(record, oracle):
        assert np.array_equal(got, want)
