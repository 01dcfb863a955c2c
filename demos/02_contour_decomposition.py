"""Decomposing torus configurations into contours and networks.

A configuration's deviation region splits into connected pieces; small ones
(wrapped diameter below L/2) become contours with standardized local
configurations, large ones merge into the contour network.  The map is a
bijection and turns the Boltzmann weight into a product over pieces, which
is what makes the whole contour calculus exact.
"""

import cmath
import random

from pszeros import (
    TorusConfiguration,
    extract,
    hamiltonian_torus,
    ground_state_energy,
    ising,
    is_matching,
    nesting_order,
    reconstruct,
    torus_contour_identity_check,
)

model = ising(1.2)
L = 7

# one overturned spin in a sea of plus
spins = [1] * (L * L)
spins[24] = -1
cfg = TorusConfiguration(L, 2, tuple(spins))
coll = extract(cfg, model.range)
print(f"single flip on the {L}x{L} torus:")
print(f"  contours: {len(coll.contours)}, network: {coll.network is not None}")
y = coll.contours[0]
print(f"  support size {len(y.support)}, exterior label {y.ext_label}, "
      f"interior components {len(y.interiors)}")
assert reconstruct(coll).spins == cfg.spins

# a wrapping stripe must become a network instead
stripe = [1] * 25
for r in range(5):
    stripe[r * 5] = -1
coll2 = extract(TorusConfiguration(5, 2, tuple(stripe)), model.range)
print(f"\nwrapping stripe on the 5x5 torus: contours {len(coll2.contours)}, "
      f"network support {len(coll2.network.support)} sites")
ok, _ = is_matching(coll2)
print(f"  matching conditions hold: {ok}")

# random configurations round-trip exactly
rng = random.Random(1)
for _ in range(200):
    spins = tuple(rng.choice((-1, 1)) for _ in range(25))
    c = TorusConfiguration(5, 2, spins)
    assert reconstruct(extract(c, 1)).spins == spins
print("\n200 random configurations reconstructed exactly")

forest = nesting_order(coll)
print(f"nesting forest of the single flip: {len(forest.elements)} elements, "
      f"root = network slot")

# the two contour representations of Z agree with the exact Z
zs = [cmath.exp(0.2 + 0.5j), 0.8 - 0.3j]
rep = torus_contour_identity_check(model, 3, zs)
print(f"\ncontour representations on the 3x3 torus over {len(zs)} points:")
print(f"  full collection sum   vs exact: {rep['collection_max_rel']:.2e}")
print(f"  network-resummed form vs exact: {rep['resummed_max_rel']:.2e}")
print(f"  ({rep['n_networks']} distinct networks contributed)")
