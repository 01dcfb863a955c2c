"""Exact torus partition functions, their coefficient polynomials and zeros.

Everything here is ground truth for the contour machinery: full enumeration
over spin configurations (one numpy kernel computes the energies of a block
of configurations from placement-index arrays and per-pattern energy
tables), an independent transfer-matrix evaluation for range-1 models, and
companion matrix root finding for the partition polynomial in z.
"""

from __future__ import annotations

import cmath
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError
from .models import SpinModel, _torus_placements

ENUM_BUDGET = 2**27
MATRIX_BUDGET = 1024
_BLOCK = 1024  # configurations per enumeration block, at most


# -- enumeration --------------------------------------------------------------


def _energy_blocks(model: SpinModel, L: int):
    """Yield ``(c, p)``: the complex energy and the power of z of every torus
    configuration, one block of at most ``_BLOCK`` configurations at a time.

    ``D[site, row]`` is the spin digit of a site in each configuration of a
    block: every digit row of the first ``lo`` sites, the other sites pinned;
    blocks come in a fixed order.  A term adds ``e[code]`` per placement,
    where ``code`` reads the digits at the placement's sites in base q, so
    every energy is computed from scratch.
    """
    q = len(model.spins)
    geom, anchored, _ = _torus_placements(model, L)
    n = geom.n_sites
    kernels = []
    for ti, t in enumerate(model.terms):
        idx = np.array(
            [sites for x in range(n) for tj, sites in anchored[x] if tj == ti], dtype=np.intp
        )
        w = q ** np.arange(len(t.shape) - 1, -1, -1)
        pats = [
            tuple(model.spins[i] for i in digits)
            for digits in itertools.product(range(q), repeat=len(t.shape))
        ]
        ec = np.array([t.energy[s] for s in pats], dtype=complex)
        ep = np.array([t.zpower.get(s, 0.0) for s in pats], dtype=float)
        kernels.append((idx, w, ec, ep))
    lo = 0
    while lo < n and q ** (lo + 1) <= _BLOCK:
        lo += 1
    D = np.empty((n, q**lo), dtype=np.intp)
    D[:lo] = np.indices((q,) * lo).reshape(lo, q**lo)
    for high in itertools.product(range(q), repeat=n - lo):
        D[lo:] = np.array(high, dtype=np.intp)[:, None]
        c = np.zeros(q**lo, dtype=complex)
        p = np.zeros(q**lo, dtype=float)
        for idx, w, ec, ep in kernels:
            code = w @ D[idx]  # (placements, rows)
            c += ec[code].sum(axis=0)
            p += ep[code].sum(axis=0)
        yield c, p


def partition_function_exact(
    model: SpinModel, L: int, z: complex, budget: int = ENUM_BUDGET
) -> complex:
    """Z_L^per(z) by full enumeration of |S|^{L^d} configurations."""
    q = len(model.spins)
    n = L**model.dimension
    if q**n > budget:
        raise BudgetError(
            f"enumeration of {q}^{n} states exceeds budget {budget}; "
            "use transfer_matrix_pf for range-1 models"
        )
    logz = cmath.log(z)
    total = 0j
    for c, p in _energy_blocks(model, L):
        total += complex(np.exp(-c + p * logz).sum())
    return total


# -- transfer matrix ----------------------------------------------------------


def transfer_matrix_pf(
    model: SpinModel, L: int, z: complex, budget: int = MATRIX_BUDGET
) -> complex:
    """Z_L^per(z) as the trace of the L-fold product of the layer-to-layer
    transfer matrix.  Supports range-1 interactions only."""
    if model.range != 1:
        raise BudgetError("transfer matrix supports range R=1 only")
    d = model.dimension
    q = len(model.spins)
    layer_sites = L ** (d - 1)
    n = q**layer_sites
    if n > budget:
        raise BudgetError(f"transfer matrix dimension {n} exceeds budget {budget}")

    layer_coords = [tuple(p) for p in itertools.product(range(L), repeat=d - 1)]
    layer_index = {c: i for i, c in enumerate(layer_coords)}
    states = [tuple(p) for p in itertools.product(range(q), repeat=layer_sites)]
    spins = model.spins
    logz = cmath.log(z)

    intra, inter = [], []
    for t in model.terms:
        firsts = {off[0] for off in t.shape}
        if firsts == {0}:
            intra.append(t)
        else:
            inter.append(t)

    def wrap(coord):
        return tuple(c % L for c in coord)

    # energies within one layer (site terms and in-layer bonds), per state
    ec = np.zeros(n, dtype=complex)
    ep = np.zeros(n, dtype=float)
    for si, st in enumerate(states):
        c, p = 0j, 0.0
        for t in intra:
            for anchor in layer_coords:
                pat = tuple(
                    spins[st[layer_index[wrap(tuple(anchor[a] + off[a + 1] for a in range(d - 1)))]]]
                    for off in t.shape
                )
                tc, tp = t.pair(pat)
                c += tc
                p += tp
        ec[si] = c
        ep[si] = p

    # layer-to-layer coupling
    cc = np.zeros((n, n), dtype=complex)
    cp = np.zeros((n, n), dtype=float)
    pair_terms = [t for t in inter if len(t.shape) == 2]
    other_terms = [t for t in inter if len(t.shape) != 2]
    st_arr = np.array(states, dtype=np.intp)
    for t in pair_terms:
        (o0, o1) = t.shape if t.shape[0][0] == 0 else (t.shape[1], t.shape[0])
        tc = np.array(
            [[t.energy[(spins[a], spins[b])] for b in range(q)] for a in range(q)],
            dtype=complex,
        )
        tp = np.array(
            [[t.zpower.get((spins[a], spins[b]), 0.0) for b in range(q)] for a in range(q)],
            dtype=float,
        )
        for k, coord in enumerate(layer_coords):
            tgt = layer_index[wrap(tuple(coord[a] + o1[a + 1] - o0[a + 1] for a in range(d - 1)))]
            ia = st_arr[:, k]
            jb = st_arr[:, tgt]
            cc += tc[ia[:, None], jb[None, :]]
            cp += tp[ia[:, None], jb[None, :]]
    for t in other_terms:  # rare multi-site cross-layer shapes
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                c, p = 0j, 0.0
                for anchor in layer_coords:
                    pat = []
                    for off in t.shape:
                        rest = wrap(tuple(anchor[a] + off[a + 1] for a in range(d - 1)))
                        src = si if off[0] == 0 else sj
                        pat.append(spins[src[layer_index[rest]]])
                    tc, tp = t.pair(tuple(pat))
                    c += tc
                    p += tp
                cc[i, j] += c
                cp[i, j] += p

    T = np.exp(-(ec[:, None] + cc) + (ep[:, None] + cp) * logz)
    return complex(np.trace(np.linalg.matrix_power(T, L)))


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
        return json.dumps(
            {
                "tag": self.tag,
                "L": self.side,
                "degree": self.degree,
                "coefficients": [[c.real, c.imag] for c in self.coefficients],
            },
            indent=1,
        )


def partition_polynomial(
    model: SpinModel, L: int, budget: int = ENUM_BUDGET
) -> PartitionPolynomial:
    """Exact coefficients of Z_L^per in z.

    Requires the normalization in which the z dependence sits entirely in
    single-site weights with nonnegative integer powers, so each
    configuration contributes a monomial z^k with k the total site power.
    """
    max_site_power = 0
    for t in model.terms:
        powers = set(t.zpower.values()) | {0.0}
        if len(t.shape) > 1:
            if powers != {0.0}:
                raise BudgetError("not polynomial in z: multi-site z powers")
        else:
            if any(p < 0 or p != int(p) for p in powers):
                raise BudgetError("not polynomial in z: fractional or negative powers")
            max_site_power = max(max_site_power, int(max(powers)))
    q = len(model.spins)
    n = L**model.dimension
    if q**n > budget:
        raise BudgetError(f"enumeration of {q}^{n} states exceeds budget {budget}")
    D = n * max_site_power
    co = np.zeros(D + 1, dtype=complex)
    for c, p in _energy_blocks(model, L):
        k = np.rint(p).astype(np.intp)
        w = np.exp(-c)
        co.real += np.bincount(k, w.real, D + 1)
        co.imag += np.bincount(k, w.imag, D + 1)
    return PartitionPolynomial(tuple(co.tolist()), L, tag=f"{model.name} L={L}")


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
        rows = [("re", "im", "abs", "arg")]
        for r in sorted(self.roots, key=phase_key):
            rows.append(
                (
                    format(r.real, ".17g"),
                    format(r.imag, ".17g"),
                    format(abs(r), ".17g"),
                    format(cmath.phase(r), ".17g"),
                )
            )
        return rows

    def to_json(self) -> str:
        return json.dumps(
            {
                "degree": self.degree,
                "residual": self.residual,
                "roots": [[r.real, r.imag] for r in self.roots],
                "notes": list(self.notes),
            },
            indent=1,
        )


def exact_zeros(poly: PartitionPolynomial, newton_steps: int = 5) -> ExactZeroSet:
    """All roots of the partition polynomial: companion-matrix eigenvalues
    (with balancing, as in numpy's root finder) followed by Newton polish."""
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
    for _ in range(newton_steps):
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
