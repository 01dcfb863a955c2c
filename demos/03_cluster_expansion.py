"""Cluster expansions: abstract polymers, certificates and tail bounds."""

import cmath
import math

from pszeros import (
    PolymerSystem,
    estimate_c0,
    ising,
    kp_certificate,
    log_partition_expansion,
    polymer_partition_function,
    polymer_pressure,
    ursell_coefficient,
)

# a toy system: three polymers, one incompatibility edge
system = PolymerSystem.build(
    ("a", "b", "c"),
    {"a": 0.05, "b": 0.04 + 0.02j, "c": -0.03},
    [("a", "b")],
    {"a": 1.0, "b": 1.0, "c": 1.0},
    {"a": 1.0, "b": 1.0, "c": 1.0},
)
print("toy polymer system: Z =", polymer_partition_function(system))
print("certificate:", kp_certificate(system))
res = log_partition_expansion(system, max_norm=8.0)
print(f"log Z by clusters = {res.value:.10f}  ({res.n_clusters} clusters, "
      f"tail bound {res.tail_bound:.1e}, eta {res.eta:.2f})")
print("exp(expansion) vs Z:",
      abs(cmath.exp(res.value) - polymer_partition_function(system)))

print("\ncanonical coefficients:")
print("  single polymer:", ursell_coefficient(system, {"a": 1}))
print("  doubled polymer:", ursell_coefficient(system, {"a": 2}))
print("  incompatible pair:", ursell_coefficient(system, {"a": 1, "b": 1}))

# the entropy constant for contour counting
rep = estimate_c0(2, 2, 1, 12)
print(f"\ncontour entropy constant (d=2, two spins, cap 12): c0 = {rep['c0']:.1f}")
print("  class weights by support size:", rep["weights"])

# the contour gas of the Ising plus phase
model = ising(2.0)
for z in (1.0, cmath.exp(0.2j)):
    p = polymer_pressure(model, 1, z)
    print(f"\npressure of the plus-phase contour gas at z={z:.3f}:")
    print(f"  s_+ = {p.value:.6e}")
    print(f"  leading term exp(-8J)/z = {math.exp(-8 * 2.0) / z:.6e}")
    # the certificate covers the annulus of |z| on a grid of width 0.01 in
    # log |z|: eta is a lower bound over it, the tail bound an upper one
    print(f"  eta {p.eta:.2f} and cluster-norm tail bound {p.error_bound:.1e}, "
          "certified over the annulus of |z|")
