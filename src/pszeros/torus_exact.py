"""Exact torus partition functions, their coefficient polynomials and zeros.

Everything here is ground truth for the contour machinery.  Z(z), the summed
moduli of its terms and the coefficients of the partition polynomial all
read from one z-graded density of states per model and torus
(``_density_of_states``, held on the model).  A range-1 model whose
two-layer strip carries integer powers of z gets it from a transfer matrix
graded by that power (Beale's density-of-states transfer matrix, written in
z); every other model, and the tests' oracle, from full enumeration over
spin configurations.  Roots of the partition polynomial come from its
companion matrix.

Both the graded record and the numeric transfer matrix ``transfer_matrix_pf``
read one strip table per model and torus: the energy kernel
``models.placement_energies`` on every pair of layer states.  Enumeration
runs the same kernel on blocks of torus configurations.  The spot checks of
the record against ``transfer_matrix_pf`` compare a sum over grades with a
trace at one z; the oracle tests compare the graded record with enumeration.
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
_BLOCK = 1024  # configurations (or layer pairs) per energy-kernel block, at most
_GRADED_BOUND = 2**23  # layer states x layer states x grades of T^(L-1), at most


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


def _enumerated_density_of_states(model: SpinModel, L: int) -> _DensityOfStates:
    """The density of states of the L-torus from one pass of ``_energy_blocks``:
    each block binned by power with ``bincount``, the block sums added in
    block order, so the sums of a power do not depend on the other powers.
    A BudgetError past ``ENUM_BUDGET`` configurations."""
    q, n = len(model.spins), L**model.dimension
    if q**n > ENUM_BUDGET:
        raise BudgetError(f"enumeration of {q}^{n} states exceeds budget {ENUM_BUDGET}")
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
    return _DensityOfStates(np.array(powers), re + 1j * im, moduli)


def _graded_density_of_states(model: SpinModel, L: int) -> _DensityOfStates | None:
    """The density of states of the L-torus of a range-1 model as the traces,
    grade by grade, of T^L for the transfer matrix T graded by the power of
    z: T[k, i, j] = e^{-c(i, j)} where layer pair (i, j) of the strip table
    carries the integer power k(i, j) (shifted to start at 0).  None where
    some strip power is not an integer.

    Where every strip weight is real and >= 0 the amplitudes are the moduli
    and one float64 product serves both; otherwise a second product runs on
    |e^{-c}|.  A BudgetError, before the product is allocated, past
    ``_GRADED_BOUND`` layer states x layer states x grades of T^(L-1)."""
    n = len(model.spins) ** (L ** (model.dimension - 1))
    if n * n > _GRADED_BOUND:
        raise BudgetError(f"graded transfer matrix of {n} layer states exceeds "
                          f"bound {_GRADED_BOUND}")
    w, p = _strip_table(model, L)
    k = np.rint(p)
    if (k != p).any():
        return None
    low = int(k.min())
    k = (k - low).astype(np.intp)
    n_grades = int(k.max()) + 1
    if n * n * ((L - 1) * (n_grades - 1) + 1) > _GRADED_BOUND:
        raise BudgetError(f"graded transfer matrix of {n} layer states and "
                          f"{n_grades} grades per layer exceeds bound {_GRADED_BOUND} at L={L}")
    real = not w.imag.any() and (w.real >= 0).all()
    amplitudes = _graded_traces(w.real if real else w, k, n_grades, L)
    moduli = amplitudes if real else _graded_traces(np.abs(w), k, n_grades, L)
    keep = moduli != 0  # a sum that overflowed stays, for the evaluation to refuse
    powers = np.arange(low * L, low * L + len(moduli), dtype=float)
    return _DensityOfStates(powers[keep], amplitudes[keep].astype(complex), moduli[keep])


def _graded_traces(w: np.ndarray, k: np.ndarray, n_grades: int, L: int) -> np.ndarray:
    """Per grade g = 0..L(n_grades-1), the trace of the grade-g part of T^L,
    T[k(i, j), i, j] = w(i, j).  The product P = T^l, from P = 1, is held as
    grades x layer states x layer states; each step multiplies all grades
    of P by one step grade b in one matmul, on the rows of T that grade b
    reaches, and adds the result at grades shifted by b.  The last factor
    is taken as traces only."""
    steps = []
    for b in range(n_grades):
        mask = k == b
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size:
            steps.append((b, rows, np.where(mask, w, 0)[rows]))
    P = np.eye(len(w), dtype=w.dtype)[None]
    for _ in range(L - 1):
        grown = np.zeros((len(P) + n_grades - 1,) + w.shape, dtype=w.dtype)
        for b, rows, T in steps:
            grown[b : b + len(P)] += (P[:, :, rows].reshape(-1, rows.size) @ T).reshape(P.shape)
        P = grown
    traces = np.zeros(len(P) + n_grades - 1, dtype=w.dtype)
    for b, rows, T in steps:  # tr(A T) = sum_ij A[i, j] T[j, i]
        traces[b : b + len(P)] += P[:, :, rows].reshape(len(P), -1) @ T.T.ravel()
    return traces


def _density_of_states(model: SpinModel, L: int) -> _DensityOfStates:
    """The density of states of the L-torus: graded transfer matrix where the
    model has range 1 and integer strip powers, else enumeration within
    ``ENUM_BUDGET`` configurations.  Built once per model and L and held on
    the model (``SpinModel.density_of_states``); the bounds are module
    constants, so whether it builds depends on (model, L) alone."""
    if L not in model.density_of_states:
        record = _graded_density_of_states(model, L) if model.range == 1 else None
        if record is None:
            record = _enumerated_density_of_states(model, L)
        model.density_of_states[L] = record
    return model.density_of_states[L]


def partition_function_exact(model: SpinModel, L: int, z: complex) -> complex:
    """Z_L^per(z) = sum_p a_p z^p from the torus's density of states: the
    graded transfer matrix for range-1 models with integer strip powers,
    else full enumeration of |S|^{L^d} configurations within ``ENUM_BUDGET``."""
    return _density_of_states(model, L).sum_with_mass(z)[0]


# -- transfer matrix ----------------------------------------------------------


def _strip_table(model: SpinModel, L: int) -> tuple:
    """``(w, p)``: the weight e^{-c(i, j)} and the power p(i, j) of z of every
    pair of layer states (i, j) on the two-layer strip of a range-1 model,
    as (n, n) arrays.  The energy kernel runs a block of rows i at a time,
    so that no temporary is much larger than the table; built once per
    model and L and held on the model (``SpinModel.strip_tables``)."""
    if L < 3:
        raise ModelError(f"torus side {L} is below 2R+1=3")
    if L not in model.strip_tables:
        q = len(model.spins)
        m = L ** (model.dimension - 1)
        n = q**m
        layer = np.indices((q,) * m).reshape(m, n)  # digits of each layer state
        starts = range(0, n, max(1, _BLOCK // n))

        def blocks():  # digits of the layer pairs (i, j), i in a block of rows
            for i0 in starts:
                rows = layer[:, i0 : i0 + starts.step]
                yield np.concatenate([np.repeat(rows, n, axis=1), np.tile(layer, rows.shape[1])])

        w = np.empty((n, n), dtype=complex)
        p = np.empty((n, n))
        with np.errstate(over="ignore"):
            for i0, (c, pb) in zip(starts, placement_energies(model, strip_placements(model, L),
                                                              blocks())):
                w[i0 : i0 + starts.step] = np.exp(-c).reshape(-1, n)
                p[i0 : i0 + starts.step] = pb.reshape(-1, n)
        w.setflags(write=False)
        p.setflags(write=False)
        model.strip_tables[L] = (w, p)
    return model.strip_tables[L]


def transfer_matrix_pf(model: SpinModel, L: int, z: complex) -> complex:
    """Z_L^per(z) as the trace of the L-fold product of the layer-to-layer
    transfer matrix, evaluated at z from the strip table.  Supports range-1
    interactions only, of at most ``MATRIX_BUDGET`` layer states.  It reads
    the strip table, not the density of states, so that the two stay
    independent ways of summing it."""
    check_finite(z)
    if model.range != 1:
        raise BudgetError("transfer matrix supports range R=1 only")
    n = len(model.spins) ** (L ** (model.dimension - 1))
    if n > MATRIX_BUDGET:
        raise BudgetError(f"transfer matrix dimension {n} exceeds budget {MATRIX_BUDGET}")
    w, p = _strip_table(model, L)
    with np.errstate(over="ignore", invalid="ignore"):
        T = w * _zpow(z, p)
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


def partition_polynomial(model: SpinModel, L: int) -> PartitionPolynomial:
    """Exact coefficients of Z_L^per in z, from the torus's density of states:
    a BudgetError unless the power of z of every configuration is a
    nonnegative integer."""
    return _density_of_states(model, L).polynomial(model, L)


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
