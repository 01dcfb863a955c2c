"""Predicting partition-function zeros and matching them to exact roots.

Traces the two-phase coexistence curve of the Ising model (the unit circle
in z = e^{2h}), solves the modulus and phase equations along it, and lays
the predictions over the exact roots of the degree-9 torus polynomial.
Writes the scatter plot to demos/output/.
"""

import cmath
import math
import pathlib

from pszeros import (
    PhaseEvaluator,
    density_of_zeros,
    exact_zeros,
    ising,
    ising_zero_angle,
    match_predicted_exact,
    partition_polynomial,
    solve_zero_equations,
    splitting_residual,
    trace_coexistence,
)
from pszeros.cli import emit_plot

J, L = 1.5, 3
model = ising(J)
ev = PhaseEvaluator(model)

curve = trace_coexistence(model, 1, -1, seed=1.04 + 0.06j, step=0.06, evaluator=ev)
print(f"coexistence curve: {len(curve)} points, closed={curve.closed}, "
      f"winding={curve.winding:+.3f}")
print(f"  max | |z| - 1 | = {max(abs(abs(z) - 1) for z in curve.points):.2e}")

predicted = solve_zero_equations(model, curve, L, evaluator=ev)
print(f"  {ev.closed_points} points read in closed form, {ev.tables} free-energy tables built")
exact = exact_zeros(partition_polynomial(model, L))
report = match_predicted_exact(predicted, exact)
print(f"\npredicted {report.n_predicted} zeros against {report.n_exact} exact roots:")
print(f"  max distance  {report.max_distance:.2e}")
print(f"  mean distance {report.mean_distance:.2e}")

print("\nangles against the two-term formula:")
for w in sorted(report.zeros.zeros, key=lambda w: w.k):
    ref = ising_zero_angle(J, 2, L, w.k)
    print(f"  k={w.k}: arg z = {cmath.phase(w.z) % (2 * math.pi):.6f}   "
          f"formula {ref:.6f}")

dens = density_of_zeros(curve, L)
print(f"\ndensity of zeros integrates to {dens.total:.6f} (expect {L**2})")

r3 = splitting_residual(model, 3, cmath.exp(1.0j), phases=(1, -1))
r4 = splitting_residual(model, 4, cmath.exp(1.0j), phases=(1, -1), exact_budget=2**12)
print(f"finite-volume splitting residual: L=3 {r3.ratio:.2e}  ->  L=4 {r4.ratio:.2e}")

out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)
svg = emit_plot(
    hollow=report.zeros.positions(),
    filled=list(exact.roots),
    curves=[curve.points],
    title=f"ising(J={J}) L={L}: predicted (hollow) vs exact (filled)",
)
(out / "ising_zeros.svg").write_text(svg)
print(f"\nwrote {out / 'ising_zeros.svg'}")
