import cmath
import itertools
import random

import pytest

from pszeros.models import (
    InteractionTerm,
    SpinModel,
    TorusConfiguration,
    ZdConfiguration,
    blume_capel,
    ising,
    potts,
)


def free_field_model(spins=(-1, 1), d=2, site_energy=None, site_zpower=None):
    """A model with a single-site term only (no couplings)."""
    site_energy = site_energy or (lambda s: 0.0)
    site_zpower = site_zpower or (lambda s: 0.0)
    shape = ((0,) * d,)
    term = InteractionTerm(
        shape,
        {(s,): complex(site_energy(s)) for s in spins},
        {(s,): float(site_zpower(s)) for s in spins},
    )
    return SpinModel(
        tuple(spins), d, 1, (term,), tuple((s,) for s in spins), name="free-field"
    )


def sweep_models():
    """The twelve fresh models of the benchmark's model-sweep workload."""
    models = [blume_capel(J, lam) for J in (1.5, 1.75) for lam in (-0.3, -0.05, 0.1, 0.4)]
    return models + [potts(3, 1.5), potts(4, 1.5), ising(1.25), ising(1.5)]


def random_torus_config(rng, model, L):
    n = L**model.dimension
    return TorusConfiguration(
        L, model.dimension, tuple(rng.choice(model.spins) for _ in range(n))
    )


def sparse_torus_config(rng, model, L, n_dev, background=None):
    """Background plus a few random deviations (keeps R-boundaries small)."""
    n = L**model.dimension
    bg = background if background is not None else model.spins[-1]
    spins = [bg] * n
    others = [s for s in model.spins if s != bg]
    for site in rng.sample(range(n), n_dev):
        spins[site] = rng.choice(others)
    return TorusConfiguration(L, model.dimension, tuple(spins))


def all_configs(model, L):
    n = L**model.dimension
    for assignment in itertools.product(model.spins, repeat=n):
        yield TorusConfiguration(L, model.dimension, assignment)


def random_z(rng, rmin=0.5, rmax=1.8):
    r = rng.uniform(rmin, rmax)
    return r * cmath.exp(2j * cmath.pi * rng.random())


@pytest.fixture
def rng():
    return random.Random(20250810)
