"""Exact torus partition functions, their coefficient polynomials and zeros.

Everything here is ground truth for the contour machinery: full enumeration
over spin configurations, a transfer-matrix evaluation for range-1 models,
and companion matrix root finding for the partition polynomial in z.
Enumeration runs once per model and torus, into its z-graded density of
states (``_density_of_states``, held on the model); Z(z), the summed moduli
of its terms and the coefficients of the partition polynomial all read from
that one record.

Enumeration and the transfer matrix share the pattern tables of the energy
kernel ``models.placement_energies``, not the sum over configurations:
enumeration runs the kernel on blocks of torus configurations, the transfer
matrix on pairs of layer states of a two-layer strip and takes a trace.
Their agreement checks the two ways of summing over configurations; a
wrong table entry would show in both alike.
"""

from __future__ import annotations

import cmath
import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, ConvergenceError
from .models import (
    ModelError,
    SpinModel,
    check_finite,
    placement_energies,
    strip_placements,
    torus_placements,
)

ENUM_BUDGET = 2**27
MATRIX_BUDGET = 1024
_BLOCK = 1024  # configurations per enumeration block, at most


# -- enumeration --------------------------------------------------------------


def _energy_blocks(model: SpinModel, L: int):
    """Yield ``(c, p)``: the complex energy and the power of z of every torus
    configuration, one block of at most ``_BLOCK`` configurations at a time.

    ``D[site, row]`` is the spin digit of a site in each configuration of a
    block: every digit row of the first ``lo`` sites, the other sites pinned;
    blocks come in a fixed order.  The energy kernel computes every energy
    anew, with no running update between configurations.
    """
    q = len(model.spins)
    n = L**model.dimension
    lo = 0
    while lo < n and q ** (lo + 1) <= _BLOCK:
        lo += 1
    D = np.empty((n, q**lo), dtype=np.intp)
    D[:lo] = np.indices((q,) * lo).reshape(lo, q**lo)

    def blocks():
        for high in itertools.product(range(q), repeat=n - lo):
            D[lo:] = np.array(high, dtype=np.intp)[:, None]
            yield D

    return placement_energies(model, torus_placements(model, L), blocks())


def _zpow(z: complex, p: np.ndarray) -> np.ndarray:
    """z^p for real powers p on numpy's principal branch (repeated squaring
    at integer p); at z = 0, 1 for p = 0, 0 for p > 0, a ModelError for p < 0.
    A power that overflows comes out infinite (callers silence numpy's
    warning and ``_finite`` refuses the sum)."""
    if z == 0 and (p < 0).any():
        raise ModelError(f"z = {z!r} with a negative power of z: the weights diverge there")
    return np.power(complex(z), p)


def _finite(value, z: complex, what: str):
    """The number ``value``, or a ConvergenceError naming z where it
    overflowed."""
    if not cmath.isfinite(value):
        raise ConvergenceError(f"{what} overflows at z = {z!r}")
    return value


class _DensityOfStates(NamedTuple):
    """The z-graded density of states of a torus: its distinct powers p of z,
    ascending, and per power the sums a_p of e^{-c} and m_p of |e^{-c}|."""

    powers: np.ndarray
    amplitudes: np.ndarray
    moduli: np.ndarray

    def sum_with_mass(self, z: complex) -> tuple:
        """Z(z) = sum_p a_p z^p, and the summed moduli sum_p m_p |z|^p of its
        terms: the scale against which Z is known when the terms cancel."""
        check_finite(z)
        with np.errstate(over="ignore", invalid="ignore"):
            zp = _zpow(z, self.powers)
            total = complex((self.amplitudes * zp).sum())
            mass = float((self.moduli * np.abs(zp)).sum())
        return _finite(total, z, "Z"), _finite(mass, z, "the sum of the moduli of Z's terms")

    def polynomial(self, model: SpinModel, L: int) -> PartitionPolynomial:
        """The amplitudes as coefficients by power of z."""
        k = np.rint(self.powers)
        if (k != self.powers).any() or (k < 0).any():
            raise BudgetError("not polynomial in z: fractional or negative powers")
        co = np.zeros(int(k[-1]) + 1, dtype=complex)
        co[k.astype(np.intp)] = self.amplitudes
        return PartitionPolynomial(tuple(co.tolist()), L, tag=f"{model.name} L={L}")


def _density_of_states(model: SpinModel, L: int, budget: int = ENUM_BUDGET) -> _DensityOfStates:
    """The density of states of the L-torus from one pass of ``_energy_blocks``:
    each block binned by power with ``bincount``, the block sums added in
    block order, so the sums of a power do not depend on the other powers.
    Built once per model and L, after the budget check, and held on the
    model (``SpinModel.density_of_states``)."""
    q, n = len(model.spins), L**model.dimension
    if q**n > budget:
        raise BudgetError(f"enumeration of {q}^{n} states exceeds budget {budget}")
    if L in model.density_of_states:
        return model.density_of_states[L]
    acc = {}
    for c, p in _energy_blocks(model, L):
        powers = sorted(set(p.tolist()))
        k = np.searchsorted(powers, p)
        w = np.exp(-c)
        sums = np.stack([np.bincount(k, x, len(powers)) for x in (w.real, w.imag, np.abs(w))])
        for power, s in zip(powers, sums.T):
            acc[power] = acc.get(power, 0.0) + s
    powers = sorted(acc)
    re, im, moduli = np.array([acc[x] for x in powers]).T
    model.density_of_states[L] = _DensityOfStates(np.array(powers), re + 1j * im, moduli)
    return model.density_of_states[L]


def _sum_with_mass(model: SpinModel, L: int, z: complex, budget: int = ENUM_BUDGET):
    return _density_of_states(model, L, budget).sum_with_mass(z)


def partition_function_exact(
    model: SpinModel, L: int, z: complex, budget: int = ENUM_BUDGET
) -> complex:
    """Z_L^per(z) by full enumeration of |S|^{L^d} configurations."""
    return _sum_with_mass(model, L, z, budget)[0]


# -- transfer matrix ----------------------------------------------------------


def transfer_matrix_pf(
    model: SpinModel, L: int, z: complex, budget: int = MATRIX_BUDGET
) -> complex:
    """Z_L^per(z) as the trace of the L-fold product of the layer-to-layer
    transfer matrix.  Supports range-1 interactions only.

    Entry (i, j) is the energy kernel on the two-layer strip with layer
    states i and j, evaluated a block of rows i at a time so that no array
    is much larger than the matrix itself.
    """
    check_finite(z)
    if model.range != 1:
        raise BudgetError("transfer matrix supports range R=1 only")
    q = len(model.spins)
    m = L ** (model.dimension - 1)
    n = q**m
    if n > budget:
        raise BudgetError(f"transfer matrix dimension {n} exceeds budget {budget}")
    layer = np.indices((q,) * m).reshape(m, n)  # digits of each layer state
    starts = range(0, n, max(1, _BLOCK // n))

    def blocks():  # digits of the layer pairs (i, j), i in a block of rows
        for i0 in starts:
            rows = layer[:, i0 : i0 + starts.step]
            yield np.concatenate([np.repeat(rows, n, axis=1), np.tile(layer, rows.shape[1])])

    T = np.empty((n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, (c, p) in zip(starts, placement_energies(model, strip_placements(model, L),
                                                         blocks())):
            T[i0 : i0 + starts.step] = (np.exp(-c) * _zpow(z, p)).reshape(-1, n)
        trace = complex(np.trace(np.linalg.matrix_power(T, L)))
    return _finite(trace, z, "the transfer-matrix product")


# -- partition polynomial -----------------------------------------------------


@dataclass(frozen=True)
class PartitionPolynomial:
    """Z_L^per as a polynomial in z: coefficients c_0..c_D by power of z."""

    coefficients: tuple
    side: int
    tag: str = ""

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def to_json(self) -> str:
        coefficients = [[c.real, c.imag] for c in self.coefficients]
        return json.dumps({"tag": self.tag, "L": self.side, "degree": self.degree,
                           "coefficients": coefficients}, indent=1)


def partition_polynomial(
    model: SpinModel, L: int, budget: int = ENUM_BUDGET
) -> PartitionPolynomial:
    """Exact coefficients of Z_L^per in z: a BudgetError unless the power of z
    of every configuration is a nonnegative integer."""
    return _density_of_states(model, L, budget).polynomial(model, L)


# -- zeros ---------------------------------------------------------------------


def phase_key(z: complex) -> tuple:
    """Sort key of zeros: arg z rounded to 10 digits, then |z|.  A phase
    within 1e-10 of -pi counts as +pi, so a zero on the negative real axis
    sorts last whatever the sign of a rounding-level imaginary part."""
    t = cmath.phase(z)
    if t < 1e-10 - cmath.pi:
        t = cmath.pi
    return (round(t, 10), abs(z))


@dataclass(frozen=True)
class ExactZeroSet:
    roots: tuple
    residual: float
    degree: int
    notes: tuple = field(default=())

    def to_csv_rows(self):
        return [("re", "im", "abs", "arg")] + [
            tuple(format(v, ".17g") for v in (r.real, r.imag, abs(r), cmath.phase(r)))
            for r in sorted(self.roots, key=phase_key)
        ]

    def to_json(self) -> str:
        roots = [[r.real, r.imag] for r in self.roots]
        return json.dumps({"degree": self.degree, "residual": self.residual,
                           "roots": roots, "notes": list(self.notes)}, indent=1)


def exact_zeros(poly: PartitionPolynomial) -> ExactZeroSet:
    """All roots of the partition polynomial: companion-matrix eigenvalues
    (with balancing, as in numpy's root finder) followed by five Newton
    steps of polish."""
    co = np.asarray(poly.coefficients, dtype=complex)
    if len(co) < 2:
        raise BudgetError("polynomial degree must be at least 1")
    notes = []
    scale = float(np.max(np.abs(co)))
    lead = len(co) - 1
    while lead > 0 and abs(co[lead]) <= 1e-14 * scale:
        lead -= 1
    if lead < len(co) - 1:
        notes.append(f"deflated {len(co) - 1 - lead} near-zero leading coefficients")
    trail = 0
    while trail < lead and abs(co[trail]) <= 1e-14 * scale:
        trail += 1
    roots = [0j] * trail
    if trail:
        notes.append(f"{trail} roots at z=0 from vanishing low-order coefficients")
    work = co[trail : lead + 1]
    r = np.roots(work[::-1])
    dwork = work[1:] * np.arange(1, len(work))
    for _ in range(5):
        pv = np.polyval(work[::-1], r)
        dv = np.polyval(dwork[::-1], r)
        ok = np.abs(dv) > 1e-30
        r = np.where(ok, r - pv / np.where(ok, dv, 1), r)
    roots.extend(complex(x) for x in r)
    # residual scaled by the coefficient mass at each root
    res = 0.0
    for x in roots:
        mass = float(np.sum(np.abs(co) * np.abs(x) ** np.arange(len(co))))
        res = max(res, abs(poly(x)) / max(mass, 1e-300))
    return ExactZeroSet(tuple(roots), res, poly.degree, tuple(notes))
