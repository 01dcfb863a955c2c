"""Acceptance suite: every criterion prints one PASS line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import cmath
import hashlib
import itertools
import math
import random
import time

import pytest

from pszeros.cli import main as cli_main
from pszeros.contours import contour_classes, contour_partition_function, extract, reconstruct, torus_contour_identity_check
from pszeros.metastable import Cutoffs, WeightEngine, free_energy_table
from pszeros.models import TorusConfiguration, blume_capel, ising, potts
from pszeros.polymer import PolymerSystem, enumerate_clusters, kp_certificate, log_partition_expansion, polymer_partition_function, ursell_coefficient
from pszeros.torus_exact import exact_zeros, partition_polynomial
from pszeros.zeros import PhaseEvaluator, ising_zero_angle, splitting_residual, _correct


def _report(number, label, t0):
    print(f"ACCEPTANCE {number:02d} [PASS] {label} ({time.time() - t0:.2f}s)")


def test_criterion_01_bijection():
    t0 = time.time()
    for model, L in ((ising(1.0), 3), (blume_capel(1.0, 0.1), 3)):
        n = L**model.dimension
        count = 0
        for assignment in itertools.product(model.spins, repeat=n):
            cfg = TorusConfiguration(L, model.dimension, assignment)
            assert reconstruct(extract(cfg, model.range)).spins == cfg.spins
            count += 1
        assert count == len(model.spins) ** n
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"bijection sweep took {elapsed:.1f}s"
    _report(1, "extract/reconstruct bijection on 512 + 19683 configurations", t0)


def test_criterion_02_contour_representation():
    t0 = time.time()
    rng = random.Random(42)
    zs = [
        rng.choice((0.55, 1.45)) * cmath.exp(2j * math.pi * rng.random())
        for _ in range(10)
    ]
    for model in (ising(1.2), blume_capel(1.3, 0.1)):
        rep = torus_contour_identity_check(model, 3, zs)
        assert rep["collection_max_rel"] < 1e-10, rep
        assert rep["resummed_max_rel"] < 1e-10, rep
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(2, "both contour representations equal the exact torus sum", t0)


def _certified_random_system(rng, eta=0.5):
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
        if kp_certificate(s, boosted).ok and mass < 0.3:
            return s, eta
        scale *= 0.7
    raise AssertionError("generator failed to certify")


def test_criterion_03_cluster_expansion_oracle():
    t0 = time.time()
    rng = random.Random(7)
    slopes_checked = 0
    for _ in range(50):
        system, eta = _certified_random_system(rng)
        res = log_partition_expansion(system, None, 8.0)
        z = polymer_partition_function(system)
        err = abs(cmath.exp(res.value) - z) / abs(z)
        assert err < math.exp(-eta * 8.0), (err, eta)
        assert err <= max(res.tail_bound * 1.05, 1e-12)
        clusters = enumerate_clusters(system, None, 8.0)
        tails = [
            sum(abs(c.value) for c in clusters if c.norm >= k) for k in range(1, 9)
        ]
        pts = [(k + 1.0, math.log(v)) for k, v in enumerate(tails) if v > 1e-300]
        if len(pts) >= 3:
            n = len(pts)
            sx = sum(p[0] for p in pts)
            sy = sum(p[1] for p in pts)
            sxx = sum(p[0] * p[0] for p in pts)
            sxy = sum(p[0] * p[1] for p in pts)
            slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
            assert slope <= -eta + 0.1, slope
            slopes_checked += 1
    assert slopes_checked >= 25
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, "cluster expansion within its tail bound on 50 random systems", t0)


def test_criterion_04_ursell_values():
    t0 = time.time()
    s = PolymerSystem.build(("a", "b"), {"a": 0.1, "b": 0.1}, [("a", "b")])
    assert ursell_coefficient(s, {"a": 1}) == 1.0
    assert ursell_coefficient(s, {"a": 2}) == -0.5
    assert ursell_coefficient(s, {"a": 1, "b": 1}) == -1.0
    _report(4, "canonical cluster coefficients 1, -1/2, -1", t0)


def test_criterion_05_lee_yang_circle():
    t0 = time.time()
    zs = exact_zeros(partition_polynomial(ising(1.5), 3))
    assert len(zs.roots) == 9
    assert max(abs(abs(r) - 1) for r in zs.roots) < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(5, "all nine exact torus zeros on the unit circle", t0)


def test_criterion_06_angle_formula_trend():
    t0 = time.time()
    worst = {}
    for J in (1.0, 1.25, 1.5):
        zs = exact_zeros(partition_polynomial(ising(J), 3))
        args = sorted(cmath.phase(r) % (2 * math.pi) for r in zs.roots)
        ref = sorted(ising_zero_angle(J, 2, 3, k) for k in range(9))
        worst[J] = max(abs(a - b) for a, b in zip(args, ref))
    assert worst[1.0] > worst[1.25] > worst[1.5]
    assert worst[1.5] < 3 * math.exp(-6)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(6, "two-term angle formula accuracy improves with coupling", t0)


def test_criterion_07_leading_coefficients():
    t0 = time.time()
    d = 2
    # Ising: a single overturned spin costs 4dJ + 2h (each broken bond pays
    # 2J), so the displayed leading term e^{-2dJ'-2h} is matched with the
    # bond-cost coupling J' = 2J and coefficient one
    J = 3.0
    for z in (1.0, cmath.exp(0.15), cmath.exp(0.2j)):
        tab = free_energy_table(ising(J), z, Cutoffs(12, 12.0))
        c_plus = tab[1].s * z * math.exp(2 * d * (2 * J))
        c_minus = tab[-1].s / z * math.exp(2 * d * (2 * J))
        assert abs(c_plus - 1) < 0.01
        assert abs(c_minus - 1) < 0.01
    # Blume-Capel: displayed coefficients 1, 1 and d
    lam = 0.05
    m = blume_capel(J, lam)
    for z in (1.0, cmath.exp(0.1j)):
        tab = free_energy_table(m, z, Cutoffs(12, 12.0))
        c_plus = tab[1].s * z * math.exp(2 * d * J + lam)
        c_zero = tab[0].s / (z + 1 / z) * math.exp(2 * d * J - lam)
        second = (tab[1].s - cmath.exp(-2 * d * J - lam) / z) * z**2 * math.exp(
            (4 * d - 2) * J + 2 * lam
        )
        assert abs(c_plus - 1) < 0.01
        assert abs(c_zero - 1) < 0.01
        assert abs(second - d) < 0.01 * d
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, "leading expansion coefficients match (1; 1, 1, d) to 1%", t0)


def test_criterion_08_truncation_inert(tmp_path):
    t0 = time.time()
    total = 0
    # every shipped scenario family, at its own parameter points
    points = [
        (ising(1.5), [cmath.exp(1j * t) for t in (0.0, 0.7, 1.9, 3.0)]),
        (ising(1.2), [cmath.exp(0.1 + 0.2j)]),
        (blume_capel(1.5, 0.001), [cmath.exp(1.1j), 1.0 + 0j]),
        (blume_capel(1.5, -0.05), [cmath.exp(0.05)]),
        (potts(3, 2.5), [cmath.exp(0.02)]),
    ]
    for model, zs in points:
        for z in zs:
            tab = free_energy_table(model, z)
            total += tab.activations
    assert total == 0
    # and the emitted scenario reports agree
    out = tmp_path / "fe"
    assert cli_main(["--preset", "free-energy-ising", "--out", str(out)]) == 0
    import json

    rep = json.loads((out / "free_energy.json").read_text())
    assert rep["cap_activations"] == 0
    _report(8, "truncation cap never activates in shipped scenarios", t0)


def test_criterion_09_stability_equivalence():
    t0 = time.time()
    region = [(i, j) for i in range(4) for j in range(4)]
    # Ising at the symmetric point: both phases
    z = cmath.exp(0.4j)
    model = ising(1.3)
    eng = WeightEngine(model, z)
    for q in (1, -1):
        for y in contour_classes(model, q, 12):
            kp, k = eng.weight_truncated(y), eng.weight_plain(y)
            assert abs(kp - k) <= 1e-9 * abs(k)
        zq = contour_partition_function(model, region, q, z)
        assert abs(eng.zprime(region, q) - zq) <= 1e-9 * abs(zq)
    # Blume-Capel at its located plus/zero coexistence
    bc = blume_capel(1.5, -0.05)
    ev = PhaseEvaluator(bc)
    zstar, res = _correct(ev, 1, 0, math.exp(0.05))
    assert res < 1e-9
    eng = WeightEngine(bc, zstar)
    for q in (1, 0):
        for y in contour_classes(bc, q, 12):
            kp, k = eng.weight_truncated(y), eng.weight_plain(y)
            assert abs(kp - k) <= 1e-9 * abs(k)
        zq = contour_partition_function(bc, region, q, zstar)
        assert abs(eng.zprime(region, q) - zq) <= 1e-9 * abs(zq)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(9, "truncated weights and sums equal the plain ones where stable", t0)


def test_criterion_10_residual_trend():
    t0 = time.time()
    model = ising(1.5)
    zs = [cmath.exp(0.5j), cmath.exp(1.0j), cmath.exp(2.1j)]
    r3 = max(splitting_residual(model, 3, z, phases=(1, -1)).ratio for z in zs)
    r4 = max(splitting_residual(model, 4, z, phases=(1, -1)).ratio for z in zs)
    assert r4 < r3, (r3, r4)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(10, f"finite-volume splitting residual drops {r3:.1e} -> {r4:.1e}", t0)


def test_criterion_11_blume_capel_sweep():
    t0 = time.time()
    J = 1.3
    fractions = []
    for lam in (-0.3, -0.15, -0.05, 0.0, 0.05, 0.1, 0.2, 0.4):
        zs = exact_zeros(partition_polynomial(blume_capel(J, lam), 3))
        frac = sum(1 for r in zs.roots if abs(abs(r) - 1) < 1e-6) / len(zs.roots)
        inv = max(
            min(abs(r - 1 / w.conjugate()) for w in zs.roots) for r in zs.roots
        )
        assert inv < 1e-8
        fractions.append(frac)
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(11, "zero set collapses onto the unit circle as lambda grows", t0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    digests = {}
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        code = cli_main(["--preset", "bc-lambda-sweep", "--out", str(out)])
        assert code == 0
        digests[run] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }
    assert digests[1] == digests[2]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(12, "scenario outputs byte-identical across two runs", t0)
