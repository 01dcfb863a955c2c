"""Built-in models, exact torus partition functions and their zeros.

Walks through the exact layer: evaluating the partition function from its
density of states (built by a transfer matrix graded by the power of z) and
by a numeric transfer matrix at one z, extracting the coefficient polynomial
in the field parameter z, and locating its roots.
"""

import cmath
import math

from pszeros import (
    blume_capel,
    exact_zeros,
    ground_state_energy,
    ising,
    partition_function_exact,
    partition_polynomial,
    theta,
    transfer_matrix_pf,
)

J = 1.5
model = ising(J)
print(f"model: {model.name}   spins {model.spins}   parametrization {model.zparam}")
print(f"ground state energies at z=1:  e_+ = {ground_state_energy(model, 1, 1.0):.4f}, "
      f"e_- = {ground_state_energy(model, -1, 1.0):.4f}")
print(f"ground state weights:  theta_+ = {theta(model, 1, 1.0):.4f} = e^(2J)")

z = cmath.exp(0.3 + 0.4j)
Z_dos = partition_function_exact(model, 3, z)
Z_tm = transfer_matrix_pf(model, 3, z)
print(f"\nZ on the 3x3 torus at z = {z:.4f}")
print(f"  density of states: {Z_dos:.6e}")
print(f"  transfer matrix:   {Z_tm:.6e}")
print(f"  relative gap:      {abs(Z_dos - Z_tm) / abs(Z_dos):.2e}")

poly = partition_polynomial(model, 3)
print(f"\ncoefficient polynomial: degree {poly.degree} (one power of z per plus spin)")
roots = exact_zeros(poly)
print("zeros (all should sit on the unit circle):")
for r in sorted(roots.roots, key=cmath.phase):
    print(f"  |z| - 1 = {abs(r) - 1:+.2e}   arg = {cmath.phase(r):+.4f}")

bc = blume_capel(1.3, 0.1)
pbc = partition_polynomial(bc, 3)
print(f"\n{bc.name}: polynomial degree {pbc.degree} (site powers 0, 1, 2)")
rbc = exact_zeros(pbc)
on_circle = sum(1 for r in rbc.roots if abs(abs(r) - 1) < 1e-6)
print(f"zeros on the unit circle: {on_circle} of {len(rbc.roots)}")

if __name__ == "__main__":
    pass
