import cmath
import math

import pytest

from conftest import free_field_model, random_z, sparse_torus_config
from pszeros.models import (
    ModelError,
    TorusConfiguration,
    ZdConfiguration,
    blume_capel,
    excitation_energy,
    excitation_energy_pair,
    ground_state_energy,
    hamiltonian_torus,
    hamiltonian_torus_pair,
    ising,
    model_from_config,
    pair_energy,
    pair_weight,
    perturbed_ising,
    potts,
    r_boundary,
    theta,
    theta_max,
)


def test_ground_state_energy_ising_plain():
    # one site term -h, four edge translates at -J/2 each
    m = ising(1.0, field="plain")
    z = cmath.exp(2 * 0.3)
    assert ground_state_energy(m, 1, z) == pytest.approx(-2.3)
    assert ground_state_energy(m, -1, z) == pytest.approx(0.3 - 2.0)


def test_ground_state_energy_blume_capel_zero_spin():
    m = blume_capel(1.7, 0.4)
    assert ground_state_energy(m, 0, 1.0) == pytest.approx(-0.0)
    m2 = blume_capel(1.7, 0.4, field="plain")
    assert ground_state_energy(m2, 0, 2.0 + 1.0j) == 0


def test_ground_state_energy_potts():
    m = potts(3, 2.0)
    z = cmath.exp(0.5)
    assert ground_state_energy(m, 1, z) == pytest.approx(-4.5)
    assert ground_state_energy(m, 2, z) == pytest.approx(-4.0)


def test_theta_values():
    assert theta(free_field_model(), -1, 1.3) == 1.0
    m = ising(1.0)
    assert theta(m, 1, 1.0) == pytest.approx(math.exp(2))
    assert theta(m, -1, 1.0) == pytest.approx(math.exp(2))
    assert theta_max(m, 1.0) == pytest.approx(math.exp(2))
    bc = blume_capel(1.0, 0.0)
    assert all(theta(bc, s, 1.0) == pytest.approx(1.0) for s in (-1, 0, 1))


def test_r_boundary_examples():
    m = ising(1.0)
    const = TorusConfiguration(5, 2, (1,) * 25)
    assert r_boundary(const, 1) == frozenset()
    # single flip on T_5: the 3x3 box of centers around it
    spins = [1] * 25
    spins[12] = -1
    one = TorusConfiguration(5, 2, tuple(spins))
    assert len(r_boundary(one, 1)) == 9
    # two flips at Chebyshev distance 4 on Z^d: two disjoint boxes
    cfg = ZdConfiguration.make(1, {(0, 0): -1, (4, 0): -1})
    assert len(r_boundary(cfg, 1)) == 18


def test_excitation_energy_ground_state_zero():
    m = blume_capel(1.5, 0.2)
    cfg = TorusConfiguration(5, 2, (1,) * 25)
    assert excitation_energy(m, cfg, 1.3 + 0.2j) == 0


def test_excitation_energy_oracle_one_flip_t7():
    # E(sigma) must reproduce betaH - sum_m e_m |Lambda_m| with the flip's
    # 9-site boundary excluded from the ground-state regions
    m = ising(1.25, field="plain")
    spins = [1] * 49
    spins[24] = -1
    cfg = TorusConfiguration(7, 2, tuple(spins))
    z = random_z(__import__("random").Random(3))
    E = excitation_energy(m, cfg, z)
    bh = hamiltonian_torus(m, cfg, z)
    e_plus = ground_state_energy(m, 1, z)
    oracle = bh - (49 - 9) * e_plus
    assert E == pytest.approx(oracle, rel=1e-12)


def test_excitation_energy_symmetry_under_orbit_permutation(rng):
    # Potts spins 2 and 3 are interchangeable
    m = potts(3, 1.5)
    for _ in range(10):
        cfg = sparse_torus_config(rng, m, 5, 3, background=1)
        swapped = TorusConfiguration(
            5, 2, tuple({2: 3, 3: 2}.get(s, s) for s in cfg.spins)
        )
        z = random_z(rng)
        assert excitation_energy(m, cfg, z) == pytest.approx(
            excitation_energy(m, swapped, z), rel=1e-12
        )


def test_hamiltonian_constant_config():
    m = blume_capel(1.1, 0.3)
    cfg = TorusConfiguration(4, 2, (1,) * 16)
    z = 0.8 + 0.1j
    assert hamiltonian_torus(m, cfg, z) == pytest.approx(
        16 * ground_state_energy(m, 1, z), rel=1e-12
    )


def test_hamiltonian_brute_force_edges():
    # direct double loop over sites and torus edges
    m = ising(1.0, field="plain")
    spins = (1, -1, 1, 1, 1, -1, 1, 1, -1)
    cfg = TorusConfiguration(3, 2, spins)
    h = 0.2
    z = cmath.exp(2 * h)
    total = 0.0
    for r in range(3):
        for c in range(3):
            i = r * 3 + c
            total += -h * spins[i]
            total += -1.0 * spins[i] * spins[r * 3 + (c + 1) % 3]
            total += -1.0 * spins[i] * spins[((r + 1) % 3) * 3 + c]
    assert hamiltonian_torus(m, cfg, z) == pytest.approx(total, rel=1e-12)


def test_hamiltonian_additivity_single_component(rng):
    # betaH - L^d e_q = E(sigma) when the boundary is one non-wrapping piece
    m = ising(1.4)
    spins = [1] * 49
    spins[8] = -1
    cfg = TorusConfiguration(7, 2, tuple(spins))
    z = random_z(rng)
    lhs = hamiltonian_torus(m, cfg, z) - (49 - 9) * ground_state_energy(m, 1, z)
    assert lhs == pytest.approx(excitation_energy(m, cfg, z), rel=1e-12)


def test_translation_invariance(rng):
    m = blume_capel(1.2, 0.1)
    cfg = sparse_torus_config(rng, m, 4, 4)
    z = random_z(rng)
    ref = hamiltonian_torus(m, cfg, z)
    # shift by one row and one column
    L = 4
    shifted = [None] * 16
    for r in range(L):
        for c in range(L):
            shifted[((r + 1) % L) * L + (c + 1) % L] = cfg.spins[r * L + c]
    assert hamiltonian_torus(m, TorusConfiguration(4, 2, tuple(shifted)), z) == ref


def test_builtin_validation():
    with pytest.raises(ModelError):
        ising(-1.0)
    with pytest.raises(ModelError):
        potts(1, 2.0)
    with pytest.raises(ModelError):
        potts(3, 0.0)
    with pytest.raises(ModelError):
        blume_capel(0.0, 0.1)


def test_ising_structure():
    m = ising(1.0)
    assert m.spins == (-1, 1)
    shapes = sorted(len(t.shape) for t in m.terms)
    assert shapes == [1, 2, 2]  # one site class, one edge class per axis


def test_blume_capel_pair_energies():
    # plus-minus neighboring pair costs four times zero-plus
    m = blume_capel(1.0, 0.1)
    edge = next(t for t in m.terms if len(t.shape) == 2)
    assert edge.energy[(1, -1)] == 4 * edge.energy[(0, 1)]


def test_potts_orbits():
    m = potts(3, 5.0)
    assert m.orbits == ((1,), (2, 3))
    assert m.orbit_size(2) == 2 and m.orbit_size(1) == 1


def test_perturbed_ising_three_body(rng):
    m = perturbed_ising({((0, 0), (0, 1)): 1.0, ((0, 0), (1, 0), (0, 1)): 0.2})
    cfg = sparse_torus_config(rng, m, 5, 2)
    z = random_z(rng)
    # energy additivity still exact
    bh = hamiltonian_torus(m, cfg, z)
    b = r_boundary(cfg, m.range)
    e = ground_state_energy(m, cfg.spins[0], z)
    assert bh - (25 - len(b)) * e == pytest.approx(
        excitation_energy(m, cfg, z), rel=1e-11
    )


def _dzbar(f, z, eps=1e-6):
    fx = (f(z + eps) - f(z - eps)) / (2 * eps)
    fy = (f(z + 1j * eps) - f(z - 1j * eps)) / (2 * eps)
    return 0.5 * (fx + 1j * fy)


def test_holomorphy_cauchy_riemann(rng):
    for model in (ising(1.3), blume_capel(1.1, 0.2), potts(3, 2.0)):
        for _ in range(4):
            z = random_z(rng)
            for m in model.orbit_representatives():
                f = lambda w: theta(model, m, w)
                scale = abs(f(z)) + 1.0
                assert abs(_dzbar(f, z)) / scale < 1e-6
        for t in model.terms:
            pat = tuple(model.spins[0] for _ in t.shape)
            g = lambda w: cmath.exp(-pair_energy(t.pair(pat), w))
            assert abs(_dzbar(g, random_z(rng))) / (abs(g(z)) + 1) < 1e-6


def test_peierls_suppression(rng):
    # |rho_z(sigma)| <= (e^{-tau} theta)^{|B_R|} with the measured tau
    from pszeros.metastable import estimate_tau

    for J in (2.0, 3.0):
        model = ising(J)
        z = cmath.exp(0.2j)
        tau = estimate_tau(model, z)
        th = theta_max(model, z)
        for _ in range(20):
            cfg = sparse_torus_config(rng, model, 7, rng.randint(1, 3))
            b = r_boundary(cfg, model.range)
            if not b or len(b) > 30:
                continue
            rho = abs(pair_weight(excitation_energy_pair(model, cfg), z))
            assert rho <= (math.exp(-tau) * th) ** len(b) * (1 + 1e-9)


def test_model_from_config_roundtrip():
    text = """
[model]
name = blume_capel
d = 2
J = 1.25
lambda = 0.05
"""
    m = model_from_config(text)
    assert m.spins == (-1, 0, 1)
    assert ground_state_energy(m, 1, 1.0) == pytest.approx(-0.05)


def test_model_from_config_custom():
    text = """
[model]
name = custom
d = 2
R = 1
spins = 0,1

[potential.site]
shape = (0,0)
table = 0 : 0.0 : 0
    1 : -0.5 : 1

[potential.edge]
shape = (0,0);(0,1)
table = 0,0 : 0.0 : 0
    0,1 : 1.0 : 0
    1,0 : 1.0 : 0
    1,1 : 0.0 : 0
"""
    m = model_from_config(text)
    assert ground_state_energy(m, 1, 1.0) == pytest.approx(-0.5)
    assert theta(m, 1, 2.0) == pytest.approx(math.exp(0.5) * 2.0)
