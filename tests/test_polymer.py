import cmath
import functools
import itertools
import math
import random

import pytest

from pszeros import contours
from pszeros.errors import BudgetError, ConvergenceError
from pszeros.metastable import estimated_constants
from pszeros.models import blume_capel
from pszeros.polymer import (
    PolymerSystem,
    enumerate_clusters,
    estimate_c0,
    independent_set_sum,
    kp_certificate,
    log_partition_expansion,
    polymer_partition_function,
    tail_bounds_check,
    ursell_coefficient,
)


def two_polymer_system(w1, w2, incompatible):
    edges = [("a", "b")] if incompatible else []
    return PolymerSystem.build(("a", "b"), {"a": w1, "b": w2}, edges)


def test_partition_function_single():
    s = PolymerSystem.build(("a",), {"a": 0.3 + 0.1j}, [])
    assert polymer_partition_function(s) == pytest.approx(1.3 + 0.1j)


def test_partition_function_factorizes_when_compatible():
    s = two_polymer_system(0.2, 0.5j, incompatible=False)
    assert polymer_partition_function(s) == pytest.approx((1.2) * (1 + 0.5j))


def test_partition_function_incompatible_pair():
    s = two_polymer_system(0.2, 0.3, incompatible=True)
    assert polymer_partition_function(s) == pytest.approx(1.5)


def test_independent_set_sum_matches_brute_force():
    rng = random.Random(45)
    for _ in range(60):
        n_bits = rng.randint(1, 16)
        n = rng.randint(0, 12)
        masks = [
            sum(1 << rng.randrange(n_bits) for _ in range(rng.randint(1, 4)))
            for _ in range(n)
        ]
        weights = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in masks]
        vacancy = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        # extra sites, some of them covered by no polymer
        sites = rng.randrange(1 << (n_bits + 2))
        universe = sites
        for m in masks:
            universe |= m
        expected = 0j
        for chosen in itertools.product((False, True), repeat=n):
            covered, term = 0, 1 + 0j
            for pick, m, w in zip(chosen, masks, weights):
                if pick:
                    if covered & m:
                        break
                    covered |= m
                    term *= w
            else:
                expected += term * vacancy ** (universe & ~covered).bit_count()
        got = independent_set_sum(masks, weights, vacancy, sites)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))
    assert independent_set_sum([], [], 0.5, 0b1011) == 0.5**3


def test_partition_function_budget():
    polys = tuple(range(30))
    s = PolymerSystem.build(polys, {g: 0.01 for g in polys}, [])
    with pytest.raises(BudgetError):
        polymer_partition_function(s)


def test_ursell_canonical_values():
    s = two_polymer_system(0.1, 0.1, incompatible=True)
    assert ursell_coefficient(s, {"a": 1}) == 1.0
    assert ursell_coefficient(s, {"a": 2}) == -0.5
    assert ursell_coefficient(s, {"a": 1, "b": 1}) == -1.0


def test_ursell_disconnected_vanishes():
    s = two_polymer_system(0.1, 0.1, incompatible=False)
    assert ursell_coefficient(s, {"a": 1, "b": 1}) == 0.0


def test_ursell_weight_independence():
    # the coefficient sees only the incompatibility pattern, not the weights
    s1 = two_polymer_system(0.1, 0.9, incompatible=True)
    s2 = two_polymer_system(0.001j, -0.5, incompatible=True)
    for X in ({"a": 1, "b": 1}, {"a": 2, "b": 1}, {"a": 3}):
        assert ursell_coefficient(s1, X) == ursell_coefficient(s2, X)


def test_ursell_budget():
    s = two_polymer_system(0.1, 0.1, incompatible=True)
    with pytest.raises(BudgetError):
        ursell_coefficient(s, {"a": 9})


def test_ursell_matches_log_series():
    # one self-incompatible polymer: a^T(n) = (-1)^{n-1}/n
    s = PolymerSystem.build(("a",), {"a": 0.2}, [])
    for n in range(1, 8):
        assert ursell_coefficient(s, {"a": n}) == pytest.approx(
            (-1) ** (n - 1) / n
        )


def test_expansion_single_polymer_series():
    w = 0.1
    s = PolymerSystem.build(("a",), {"a": w}, [], {"a": 1.0}, {"a": 1.0})
    res = log_partition_expansion(s, None, 3.0)
    assert res.value == pytest.approx(w - w**2 / 2 + w**3 / 3)


def test_expansion_empty_subset():
    s = PolymerSystem.build(("a",), {"a": 0.1}, [])
    assert log_partition_expansion(s, (), 5.0).value == 0


def test_expansion_refuses_without_certificate():
    s = PolymerSystem.build(("a",), {"a": 5.0}, [], {"a": 1.0}, {"a": 1.0})
    with pytest.raises(ConvergenceError):
        log_partition_expansion(s, None, 5.0)


def _random_certified_system(rng, eta=0.5, mass_cap=0.3):
    n = rng.randint(1, 6)
    polys = tuple(f"g{i}" for i in range(n))
    sizes = {g: rng.choice([1.0, 1.0, 2.0]) for g in polys}
    edges = [
        (polys[i], polys[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    raw = {g: rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for g in polys}
    scale = 1.0
    for _ in range(80):
        w = {g: raw[g] * scale for g in polys}
        s = PolymerSystem.build(polys, w, edges, sizes, dict(sizes))
        boosted = {g: abs(w[g]) * math.exp(eta * sizes[g]) for g in polys}
        mass = sum(boosted[g] * math.exp(sizes[g]) for g in polys)
        if kp_certificate(s, boosted).ok and mass < mass_cap:
            return s, eta
        scale *= 0.7
    raise AssertionError("could not certify a random system")


def test_expansion_matches_brute_force(rng):
    worst = 0.0
    for _ in range(50):
        s, eta = _random_certified_system(rng)
        res = log_partition_expansion(s, None, 8.0)
        z = polymer_partition_function(s)
        err = abs(cmath.exp(res.value) - z) / abs(z)
        assert err <= max(res.tail_bound * 1.05, 1e-12)
        worst = max(worst, err)
    assert worst < 1e-2


def test_tail_decay_slope(rng):
    # partial sums by norm must decay at least like e^{-eta k}
    for _ in range(10):
        s, eta = _random_certified_system(rng)
        clusters = enumerate_clusters(s, None, 8.0)
        tails = []
        for k in range(1, 9):
            t = sum(abs(c.value) for c in clusters if c.norm >= k)
            tails.append(t)
        pts = [(k + 1.0, math.log(t)) for k, t in enumerate(tails) if t > 1e-300]
        if len(pts) < 3:
            continue
        n = len(pts)
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] ** 2 for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        assert slope <= -eta + 0.1


def test_kp_certificate_examples():
    # zero weights always pass
    s0 = PolymerSystem.build(("a", "b"), {"a": 0.0, "b": 0.0}, [("a", "b")])
    assert kp_certificate(s0).ok
    # single self-incompatible polymer with a = 1: passes iff w * e <= 1
    for w, expect in ((1 / math.e - 1e-9, True), (1 / math.e + 1e-3, False)):
        s = PolymerSystem.build(("a",), {"a": w}, [], {"a": 1.0}, {"a": 1.0})
        assert kp_certificate(s).ok is expect


def test_kp_certificate_contour_style():
    # weights e^{-(c0+eta)|Y|}, a(Y)=|Y|, with c0 from the entropy estimate
    c0 = estimate_c0(2, 2, 1, 12)["c0"]
    eta = 0.3
    sizes = {"y1": 9.0, "y2": 12.0}
    w = {g: math.exp(-(c0 + eta) * sizes[g]) for g in sizes}
    # overlap multiplicities as in the rooted contour sum
    s = PolymerSystem.build(("y1", "y2"), w, [("y1", "y1"), ("y1", "y2"), ("y2", "y2")],
                            sizes, dict(sizes))
    z0 = {g: 25 * 3 * w[g] for g in sizes}  # translates overlapping a fixed one
    assert kp_certificate(s, z0).ok


def test_tail_bounds_check_single():
    s = PolymerSystem.build(("a",), {"a": 0.1}, [], {"a": 1.0}, {"a": 1.0})
    rep = tail_bounds_check(s, "a", 14.0)
    assert rep["rooted_sum"] == pytest.approx(-math.log(1 - 0.1), rel=1e-6)
    assert rep["rooted_sum"] >= abs(math.log(1 + 0.1))
    assert rep["rooted_ok"] and rep["neighbor_ok"]


def test_tail_bounds_check_pair():
    s = PolymerSystem.build(
        ("a", "b"), {"a": 0.05, "b": 0.08}, [("a", "b")],
        {"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 1.0},
    )
    rep = tail_bounds_check(s, "a", 10.0)
    assert rep["rooted_ok"] and rep["neighbor_ok"]


def test_tail_bounds_zero_weight():
    s = PolymerSystem.build(("a",), {"a": 0.0}, [])
    rep = tail_bounds_check(s, "a", 8.0)
    assert rep["rooted_sum"] == 0.0 and rep["weighted_sum"] == 0.0


def test_estimate_c0_vacuous():
    rep = estimate_c0(2, 2, 1, 8)
    assert rep["vacuous"] and rep["c0"] == 0.0


def test_estimate_c0_regression_and_monotonicity():
    rep = estimate_c0(2, 2, 1, 12)
    assert rep["c0"] == pytest.approx(2.4, abs=0.05)  # regression fixture
    assert rep["weights"] == {9: 9.0, 12: 24.0}
    rep16 = estimate_c0(2, 2, 1, 16)
    assert rep16["c0"] >= rep["c0"]
    # doubling the spin count never decreases c0
    rep4 = estimate_c0(2, 4, 1, 12)
    assert rep4["c0"] >= rep["c0"]


def test_estimate_c0_counts_classes_once_per_value_key(monkeypatch):
    # c0 depends on (d, spins, R, size cap) only and reads the class
    # geometry records that the models' own phases share: two fresh
    # three-state models build each record once between them, the counting
    # one (background digit 0) among them
    builds = []
    build = contours._class_geometry.__wrapped__

    def counted(*key):
        builds.append(key)
        return build(*key)

    monkeypatch.setattr(contours, "_class_geometry", functools.lru_cache(maxsize=None)(counted))
    first = estimated_constants(blume_capel(1.5, 0.1), [1.0])
    second = estimated_constants(blume_capel(1.75, -0.3), [1.0])
    assert sorted(builds) == [(2, 1, 3, bg, 12) for bg in range(3)]
    assert first.c0 == second.c0
    a, b = estimate_c0(2, 3, 1, 12), estimate_c0(2, 3, 1, 12)
    assert a == b and a["weights"] is not b["weights"]
    assert len(builds) == 3


def test_derivative_transport(rng):
    # term-wise differentiated expansion vs finite differences of log Z
    for _ in range(6):
        s, _ = _random_certified_system(rng)

        def scaled(t):
            return PolymerSystem.build(
                s.polymers,
                {g: s.weights[g] * (1 + t) for g in s.polymers},
                [tuple(e) for e in s.edges],
                s.sizes,
                s.a,
            )

        clusters = enumerate_clusters(s, None, 10.0)
        d_analytic = sum(
            c.value * sum(m for _, m in c.multiplicity) for c in clusters
        )  # d/dt at t=0 of sum a^T prod (w(1+t))^X
        h = 1e-6
        zp = polymer_partition_function(scaled(h))
        zm = polymer_partition_function(scaled(-h))
        d_numeric = (cmath.log(zp) - cmath.log(zm)) / (2 * h)
        assert abs(d_analytic - d_numeric) < 1e-5


def test_system_json_roundtrip():
    s = PolymerSystem.build(
        ("a", "b"), {"a": 0.1 + 0.2j, "b": -0.05}, [("a", "b")],
        {"a": 2.0, "b": 1.0}, {"a": 2.0, "b": 1.0},
    )
    s2 = PolymerSystem.from_json(s.to_json())
    assert s2.polymers == s.polymers
    assert s2.weights == s.weights
    assert s2.incompatible("a", "b") and s2.incompatible("a", "a")
    assert polymer_partition_function(s2) == polymer_partition_function(s)
