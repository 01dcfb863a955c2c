"""Predicting partition-function zeros from metastable free energies.

Zeros of the torus partition sum sit, up to exponentially small shifts, at
the points of a two-phase coexistence curve where the moduli of the two
competing weights (with their orbit-multiplicity factors) agree and the
accumulated phase difference hits pi modulo 2 pi / L^d.  This module traces
coexistence curves by predictor-corrector continuation, and solves the two
zero equations along them as one complex equation per zero,
L^d log(zeta_m / zeta_n) = log(q_n / q_m) + i pi (2j + 1), by complex Newton
inside a bracket found on the traced curve.  It also derives the density of
zeros and matches predictions against exact polynomial roots.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError
from .metastable import Cutoffs, _closed_entries, finite_volume_zeta, free_energy_table
from .models import SpinModel
from .torus_exact import ExactZeroSet, partition_function_exact, phase_key, transfer_matrix_pf

TWO_PI = 2.0 * math.pi


class CurveError(RuntimeError):
    pass


class PhaseEvaluator:
    """Cached phase entries over repeated z: in closed form where the annulus
    of |z| admits it (``metastable._closed_entries``), else from the table
    that ``table(z)`` builds.  ``closed_points`` and ``tables`` count the z of
    each kind, ``fd_fallbacks`` the finite-difference derivatives."""

    def __init__(self, model: SpinModel, cutoffs: Cutoffs = Cutoffs()):
        self.model = model
        self.cutoffs = cutoffs
        self.fd_fallbacks = 0
        self.closed_points = self.tables = 0
        self._cache, self._tables = {}, {}

    def table(self, z: complex):
        if z not in self._tables:
            self._tables[z] = free_energy_table(self.model, z, self.cutoffs)
            self.tables += 1
        return self._tables[z]

    def _entries(self, z: complex) -> dict:
        if z not in self._cache:
            entries = _closed_entries(self.model, z, self.cutoffs)
            self.closed_points += entries is not None
            self._cache[z] = entries or self.table(z).entries
        return self._cache[z]

    def f(self, m, z: complex) -> float:
        return self._entries(z)[m].f

    def a(self, m, z: complex) -> float:
        return self._entries(z)[m].a

    def zeta(self, m, z: complex) -> complex:
        return self._entries(z)[m].zeta

    def dlog(self, m, z: complex) -> complex | None:
        return self._entries(z)[m].dlog

    def arg_ratio(self, m, n, z: complex) -> float:
        return cmath.phase(self.zeta(m, z) / self.zeta(n, z))


@dataclass(frozen=True)
class CoexistenceCurve:
    phases: tuple
    points: tuple          # complex samples along the locus
    delta: tuple           # unwrapped Arg(zeta_m / zeta_n) per point
    arclength: tuple       # cumulative arc length
    residuals: tuple       # | |zeta_m| - |zeta_n| | / max at each point
    closed: bool
    winding: float | None  # (delta[-1] - delta[0]) / 2 pi when closed
    end_reason: str

    def __len__(self):
        return len(self.points)

    def to_json_dict(self):
        return {
            "phases": [str(p) for p in self.phases],
            "closed": self.closed,
            "winding": self.winding,
            "end_reason": self.end_reason,
            "points": [[z.real, z.imag] for z in self.points],
            "delta": list(self.delta),
            "arclength": list(self.arclength),
        }


def _wrap_pi(x: float) -> float:
    return (x + math.pi) % TWO_PI - math.pi


def _phase_near(ev, m, n, z, ref: float) -> float:
    """Arg(zeta_m / zeta_n) at z, on the branch within pi of ref."""
    return ref + _wrap_pi(ev.arg_ratio(m, n, z) - _wrap_pi(ref))


def _correct(ev: PhaseEvaluator, m, n, z: complex, offset: float = 0.0):
    """Newton correction transverse to the locus f_m - f_n = offset."""
    for _ in range(24):
        F = ev.f(m, z) - ev.f(n, z) - offset
        if abs(F) < 1e-12:
            return z, abs(F)
        g = _gradient(ev, m, n, z)
        if abs(g) < 1e-14:
            break
        z = z - F * g / abs(g) ** 2
    F = ev.f(m, z) - ev.f(n, z) - offset
    return z, abs(F)


def _dlog_ratio(ev: PhaseEvaluator, m, n, z):
    """h' = d log(zeta_m / zeta_n) / dz where both tables have it exactly;
    else None, counted as a fallback."""
    a, b = ev.dlog(m, z), ev.dlog(n, z)
    if a is None or b is None:
        ev.fd_fallbacks += 1
        return None
    return a - b


def _gradient(ev, m, n, z):
    """Gradient of f_m - f_n as a complex number: -conj(h') where h' is
    exact, else by central differences."""
    dh = _dlog_ratio(ev, m, n, z)
    if dh is not None:
        return -dh.conjugate()
    eps = 1e-7 * (1.0 + abs(z))
    gx = (
        (ev.f(m, z + eps) - ev.f(n, z + eps))
        - (ev.f(m, z - eps) - ev.f(n, z - eps))
    ) / (2 * eps)
    gy = (
        (ev.f(m, z + 1j * eps) - ev.f(n, z + 1j * eps))
        - (ev.f(m, z - 1j * eps) - ev.f(n, z - 1j * eps))
    ) / (2 * eps)
    return complex(gx, gy)


def trace_coexistence(
    model: SpinModel, m, n, seed: complex, step: float = 0.02,
    max_points: int = 2000, cutoffs: Cutoffs = Cutoffs(),
    multiple_tol: float = 1e-6, evaluator: PhaseEvaluator | None = None,
) -> CoexistenceCurve:
    """Predictor-corrector continuation of the locus |zeta_m| = |zeta_n|.

    The tangent comes from the gradient of f_m - f_n, -conj(h'_m - h'_n)
    from the tables' d log zeta where the mollifier leaves both phases
    untouched, else by central differences.  The corrector is Newton
    transverse to the curve with the same gradient, and the phase difference
    is unwrapped along the way with steps kept below pi/4.  Tracing stops on
    loop closure, at a multiple point (a third phase's free-energy gap
    vanishes), on leaving the modulus window 1e-3 <= |z| <= 1e3, or at the
    point budget.  The seed must lie within 0.25 of the locus in f_m - f_n,
    and the step must be positive and finite (a ValueError otherwise).
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step = {step!r} must be positive and finite")
    ev = evaluator or PhaseEvaluator(model, cutoffs)
    f_seed = abs(ev.f(m, seed) - ev.f(n, seed))
    if f_seed > 0.25:
        raise CurveError(
            f"seed {seed} is far from the coexistence locus "
            f"(residual {f_seed:.3e} > window 0.25)"
        )
    z0, res0 = _correct(ev, m, n, seed)
    if res0 > 1e-9:
        raise CurveError(
            f"seed {seed} does not correct onto the coexistence locus "
            f"(residual {res0:.3e})"
        )
    others = [p for p in model.orbit_representatives() if p not in (m, n)]
    points = [z0]
    delta = [ev.arg_ratio(m, n, z0)]
    residuals = [res0]
    arclength = [0.0]
    direction = None
    end_reason = "budget"
    closed = False
    h = step
    while len(points) < max_points:
        z = points[-1]
        g = _gradient(ev, m, n, z)
        if abs(g) < 1e-14:
            end_reason = "degenerate gradient"
            break
        t = 1j * g / abs(g)
        if direction is not None and (t.real * direction.real + t.imag * direction.imag) < 0:
            t = -t
        accepted = False
        for _ in range(12):
            z_new, res = _correct(ev, m, n, z + h * t)
            d_new = _phase_near(ev, m, n, z_new, delta[-1])
            if res < 1e-9 and abs(d_new - delta[-1]) < math.pi / 4 and abs(z_new - z) < 3 * h:
                accepted = True
                break
            h *= 0.5
        if not accepted:
            end_reason = "step collapse"
            break
        direction = (z_new - z) / abs(z_new - z)
        points.append(z_new)
        delta.append(d_new)
        residuals.append(res)
        arclength.append(arclength[-1] + abs(z_new - z))
        h = min(h * 1.4, step)
        if not (1e-3 <= abs(z_new) <= 1e3):
            end_reason = "left domain"
            break
        if others and min(ev.a(p, z_new) for p in others) < multiple_tol:
            end_reason = "multiple point"
            break
        if len(points) > 6 and abs(z_new - points[0]) < 0.75 * h:
            closed = True
            end_reason = "closed"
            # close the loop exactly on the first point
            d_close = _phase_near(ev, m, n, points[0], delta[-1])
            points.append(points[0])
            delta.append(d_close)
            residuals.append(residuals[0])
            arclength.append(arclength[-1] + abs(points[-1] - points[-2]))
            break
    winding = (delta[-1] - delta[0]) / TWO_PI if closed else None
    return CoexistenceCurve(
        (m, n), tuple(points), tuple(delta), tuple(arclength),
        tuple(residuals), closed, winding, end_reason,
    )


# -- the two zero equations ------------------------------------------------------


@dataclass(frozen=True)
class PredictedZero:
    z: complex
    k: int
    req_residual: float
    imq_residual: float
    degraded: bool = False
    nearest_exact: complex | None = None
    distance: float | None = None


@dataclass(frozen=True)
class ZeroSet:
    phases: tuple
    side: int
    zeros: tuple
    windows_flagged: tuple = field(default=())

    def positions(self):
        return [w.z for w in self.zeros]

    def to_csv_rows(self):
        rows = [("k", "re", "im", "req_residual", "imq_residual",
                 "exact_re", "exact_im", "distance")]
        for w in self.zeros:
            rows.append((
                str(w.k),
                format(w.z.real, ".17g"),
                format(w.z.imag, ".17g"),
                format(w.req_residual, ".3e"),
                format(w.imq_residual, ".3e"),
                "" if w.nearest_exact is None else format(w.nearest_exact.real, ".17g"),
                "" if w.nearest_exact is None else format(w.nearest_exact.imag, ".17g"),
                "" if w.distance is None else format(w.distance, ".17g"),
            ))
        return rows


def _solve_crossing(ev, m, n, offset, target, bracket, Ld):
    """The root of h = log(zeta_m / zeta_n) = -offset + i target between two
    locus points (z1, d1, z2, d2) whose unwrapped phases straddle target.

    Complex Newton from linear interpolation, with h' = r'/r.  Where both
    tables carry d log zeta, r' = r (h'_m - h'_n), so h' = h'_m - h'_n;
    else r' of r = zeta_m / zeta_n comes from central differences (r has no
    branch cut, log r does).  An iterate in the disk around the bracket is
    kept if it halves |F| = |h - target| or makes L^d |F| < 1e-9, and is
    the root if the latter holds after a negligible step.  Any other
    iterate, or r' = 0, gives way to a bisection step on the bracket, so the
    loop converges also where the mollifier makes zeta non-holomorphic.
    """
    z1, d1, z2, d2 = bracket

    def at(w):
        r = ev.zeta(m, w) / ev.zeta(n, w)
        return r, complex(math.log(abs(r)) + offset, _wrap_pi(cmath.phase(r) - target))

    z = z1 + (z2 - z1) * ((target - d1) / (d2 - d1)) if d2 != d1 else z1
    for _ in range(80):
        r, F = at(z)
        dh = _dlog_ratio(ev, m, n, z)
        if dh is not None:
            z_new = z - F / dh if dh else math.inf
        else:
            eps = 1e-6 * (1.0 + abs(z))
            dr = at(z + eps)[0] - at(z - eps)[0]
            z_new = z - F * r * 2 * eps / dr if dr else math.inf
        if abs(z_new - 0.5 * (z1 + z2)) <= abs(z2 - z1):
            F_new = at(z_new)[1]
            small = Ld * abs(F_new) < 1e-9
            if small and abs(z_new - z) <= 1e-13 * (1.0 + abs(z)):
                return z_new
            if small or abs(F_new) <= 0.5 * abs(F):
                z = z_new
                continue
        z, _ = _correct(ev, m, n, 0.5 * (z1 + z2), offset)
        d = _phase_near(ev, m, n, z, d1)
        if (d1 - target) * (d - target) <= 0:
            z2, d2 = z, d
        else:
            z1, d1 = z, d
        if abs(Ld * (d2 - d1)) < 1e-9 and abs(z2 - z1) < 1e-13 * (1 + abs(z1)):
            return _correct(ev, m, n, 0.5 * (z1 + z2), offset)[0]
    return z


def solve_zero_equations(
    model: SpinModel, curve: CoexistenceCurve, L: int,
    cutoffs: Cutoffs = Cutoffs(), evaluator: PhaseEvaluator | None = None,
) -> ZeroSet:
    """Solve the modulus and phase equations along a traced curve.

    The modulus equation carries the orbit-size factors q^{1/L^d}; when they
    differ the curve is re-corrected onto the shifted locus.  The phase
    equation looks for L^d * Delta = pi (mod 2 pi): every sample window is
    refined until it moves the scaled phase by at most pi/2, and each window
    whose phase crosses a target brackets one zero.  Together the two
    equations say L^d log(zeta_m / zeta_n) = log(q_n / q_m) + i pi (2j + 1),
    which ``_solve_crossing`` solves in the bracket by safeguarded complex
    Newton; its bisection fallback stops once the bracket's scaled phase
    width is below 1e-9.
    """
    m, n = curve.phases
    ev = evaluator or PhaseEvaluator(model, cutoffs)
    Ld = L**model.dimension
    qm, qn = model.orbit_size(m), model.orbit_size(n)
    offset = (math.log(qm) - math.log(qn)) / Ld

    pts = list(curve.points)
    if offset:
        corrected = []
        for z in pts:
            zc, res = _correct(ev, m, n, z, offset)
            if res > 1e-9:
                raise CurveError(f"re-correction failed near {z}")
            corrected.append(zc)
        pts = corrected
    # unwrap phase along the (possibly shifted) polyline
    deltas = [ev.arg_ratio(m, n, pts[0])]
    for z in pts[1:]:
        deltas.append(_phase_near(ev, m, n, z, deltas[-1]))

    # refine until each segment moves the scaled phase by at most pi/2
    def refine(z1, d1, z2, d2, depth=0):
        if abs(Ld * (d2 - d1)) <= math.pi / 2 or depth > 24:
            return [(z1, d1)]
        zm_, res = _correct(ev, m, n, 0.5 * (z1 + z2), offset)
        dm = _phase_near(ev, m, n, zm_, d1)
        return refine(z1, d1, zm_, dm, depth + 1) + refine(zm_, dm, z2, d2, depth + 1)

    fine = []
    for i in range(len(pts) - 1):
        fine.extend(refine(pts[i], deltas[i], pts[i + 1], deltas[i + 1]))
    fine.append((pts[-1], deltas[-1]))

    zeros = []
    flagged = []
    lo = min(d for _, d in fine)
    hi = max(d for _, d in fine)
    jlo = math.floor((Ld * lo - math.pi) / TWO_PI)
    jhi = math.ceil((Ld * hi - math.pi) / TWO_PI)
    degraded_tail = curve.end_reason == "multiple point"
    for j in range(jlo, jhi + 1):
        target = (math.pi + TWO_PI * j) / Ld
        crossings = [
            i for i in range(len(fine) - 1)
            if (fine[i][1] - target) == 0.0
            or (fine[i][1] - target) * (fine[i + 1][1] - target) < 0
        ]
        if len(crossings) > 1:
            flagged.append((j, len(crossings)))
        for i in crossings:
            zsol = _solve_crossing(
                ev, m, n, offset, target, fine[i] + fine[i + 1], Ld
            )
            dsol = _phase_near(ev, m, n, zsol, target)
            near_end = degraded_tail and (
                abs(zsol - curve.points[-1]) < 3 * (curve.arclength[-1] / max(len(curve) - 1, 1))
            )
            zeros.append(PredictedZero(
                zsol, j % Ld, abs(ev.f(m, zsol) - ev.f(n, zsol) - offset),
                abs(Ld * dsol - (math.pi + TWO_PI * j)), degraded=near_end,
            ))
    return ZeroSet((m, n), L, _sort_unique(zeros), tuple(flagged))


def _sort_unique(zeros) -> tuple:
    """Zeros in ``phase_key`` order, without the closed-curve double counts
    (first point == last point)."""
    uniq = []
    for w in sorted(zeros, key=lambda w: phase_key(w.z)):
        if uniq and abs(w.z - uniq[-1].z) < 1e-10 * (1 + abs(w.z)):
            continue
        uniq.append(w)
    return tuple(uniq)


def ising_zero_angle(J: float, d: int, L: int, k: int) -> float:
    """Two-term angle formula for the k-th unit-circle zero at low
    temperature: (2k+1) pi / L^d plus the leading sinusoidal correction."""
    Ld = L**d
    if not 0 <= k < Ld:
        raise ValueError(f"k must lie in [0, {Ld})")
    t = (2 * k + 1) * math.pi / Ld
    return t + 2.0 * math.exp(-2 * d * J) * math.sin(t)


@dataclass(frozen=True)
class DensityProfile:
    arclength: tuple
    density: tuple
    total: float


def density_of_zeros(curve: CoexistenceCurve, L: int, dimension: int = 2) -> DensityProfile:
    """Zeros per unit arc length: (L^d / 2 pi) |d Delta / d s| along the
    curve; its integral counts the zeros."""
    Ld = L**dimension
    s = curve.arclength
    d = curve.delta
    n = len(s)
    dens = []
    for i in range(n):
        i0 = max(0, i - 1)
        i1 = min(n - 1, i + 1)
        ds = s[i1] - s[i0]
        dens.append((Ld / TWO_PI) * abs((d[i1] - d[i0]) / ds) if ds > 0 else 0.0)
    total = (Ld / TWO_PI) * abs(d[-1] - d[0])
    return DensityProfile(tuple(s), tuple(dens), total)


# -- matching against exact roots -------------------------------------------------


@dataclass(frozen=True)
class MatchReport:
    pairs: tuple           # (predicted index, exact index, distance)
    max_distance: float
    mean_distance: float
    n_predicted: int
    n_exact: int
    cardinality_mismatch: bool
    greedy_optimal: bool
    zeros: ZeroSet


def match_predicted_exact(
    predicted: ZeroSet, exact: ExactZeroSet, restrict=None
) -> MatchReport:
    """Pair predicted zeros with exact roots.

    Greedy matching on globally sorted distances, then verified against the
    optimal (Hungarian) assignment; the optimal pairing is reported if the
    greedy one is beaten.  When every greedy pair is the nearest root of its
    predicted zero (or, with more predicted zeros than roots, the nearest
    predicted zero of its root), the greedy total is the sum of the row (or
    column) minima, a lower bound on every assignment, so the greedy pairing
    is optimal without the assignment solver.  ``restrict`` optionally
    filters both sides (e.g. to a shared unit-circle arc)."""
    pred = [w.z for w in predicted.zeros]
    exa = list(exact.roots)
    if restrict is not None:
        pred_idx = [i for i, z in enumerate(pred) if restrict(z)]
        exa_idx = [i for i, z in enumerate(exa) if restrict(z)]
    else:
        pred_idx = list(range(len(pred)))
        exa_idx = list(range(len(exa)))
    mismatch = len(pred_idx) != len(exa_idx)
    if not pred_idx or not exa_idx:
        return MatchReport((), math.nan, math.nan, len(pred_idx), len(exa_idx),
                           mismatch, True, predicted)
    cand = sorted(
        (abs(pred[i] - exa[j]), i, j) for i in pred_idx for j in exa_idx
    )
    used_p, used_e, pairs = set(), set(), []
    for dist, i, j in cand:
        if i in used_p or j in used_e:
            continue
        used_p.add(i)
        used_e.add(j)
        pairs.append((i, j, dist))

    cost = np.array([[abs(pred[i] - exa[j]) for j in exa_idx] for i in pred_idx])
    if len(pred_idx) <= len(exa_idx):
        nearest = dict(zip(pred_idx, cost.min(axis=1)))
        greedy_ok = all(dist == nearest[i] for i, _, dist in pairs)
    else:
        nearest = dict(zip(exa_idx, cost.min(axis=0)))
        greedy_ok = all(dist == nearest[j] for _, j, dist in pairs)
    final = pairs
    if not greedy_ok:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        opt_pairs = [
            (pred_idx[r], exa_idx[c], float(cost[r, c])) for r, c in zip(rows, cols)
        ]
        greedy_ok = sum(p[2] for p in pairs) <= sum(p[2] for p in opt_pairs) + 1e-12
        final = pairs if greedy_ok else opt_pairs
    dists = [p[2] for p in final]
    annotated = []
    by_pred = {i: (j, dist) for i, j, dist in final}
    for i, w in enumerate(predicted.zeros):
        if i in by_pred:
            j, dist = by_pred[i]
            annotated.append(PredictedZero(
                w.z, w.k, w.req_residual, w.imq_residual, w.degraded,
                exa[j], dist,
            ))
        else:
            annotated.append(w)
    return MatchReport(
        tuple(final), max(dists), sum(dists) / len(dists),
        len(pred_idx), len(exa_idx), mismatch, greedy_ok,
        ZeroSet(predicted.phases, predicted.side, tuple(annotated),
                predicted.windows_flagged),
    )


# -- finite-volume residual ---------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    z: complex
    side: int
    phases: tuple
    xi: complex
    ratio: float
    zeta_scale: float
    warnings: tuple


def splitting_residual(
    model: SpinModel, L: int, z: complex, phases=None,
    cutoffs: Cutoffs = Cutoffs(), use_orbit_factors: bool = True,
    exact_budget: int = 2**22,
) -> ResidualReport:
    """Xi = Z_L^per - sum over the selected phases of q_m [zeta_m^{(L)}]^{L^d},
    reported relative to zeta(z)^{L^d}.

    Phases default to the stable set at z.  A warning is attached for any
    excluded phase whose free-energy gap is below tau/(4L), where the
    finite-volume splitting is not expected to be accurate.
    """
    table = free_energy_table(model, z, cutoffs)
    if phases is None:
        phases = table.stable
    phases = tuple(phases)
    Ld = L**model.dimension
    try:
        zex = partition_function_exact(model, L, z, budget=exact_budget)
    except BudgetError:
        zex = transfer_matrix_pf(model, L, z)
    total = 0j
    for m in phases:
        q_m = model.orbit_size(m) if use_orbit_factors else 1
        zl = finite_volume_zeta(model, m, L, z, cutoffs)
        total += q_m * zl**Ld
    xi = zex - total
    zscale = max(abs(e.zeta) for e in table.entries.values())
    kappa = table.tau / 4.0
    warnings = tuple(
        f"phase {m!r} excluded but nearly stable (a={table[m].a:.3e} < {kappa / L:.3e})"
        for m in table.entries
        if m not in phases and table[m].a < kappa / L
    )
    return ResidualReport(
        z, L, phases, xi, abs(xi) / zscale**Ld, zscale, warnings
    )


# -- multiple points ------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplePoint:
    z: complex
    phases: tuple
    residual: float


def find_multiple_points(model: SpinModel, seeds, cutoffs: Cutoffs = Cutoffs()) -> list:
    """Grid scan plus Newton iteration on the pair of free-energy
    differences of each phase triple, from the seeds where all three gaps
    are at most 0.5; returns points where three phases are simultaneously
    stable."""
    ev = PhaseEvaluator(model, cutoffs)
    reps = model.orbit_representatives()
    found = []
    for (m, n, p) in itertools.combinations(reps, 3):
        for seed in seeds:
            if max(ev.a(m, seed), ev.a(n, seed), ev.a(p, seed)) > 0.5:
                continue
            z = seed
            ok = False
            for _ in range(80):
                if not 0.02 < abs(z) < 50.0:
                    break
                g1 = ev.f(m, z) - ev.f(n, z)
                g2 = ev.f(n, z) - ev.f(p, z)
                if abs(g1) + abs(g2) < 1e-10:
                    ok = True
                    break
                d1, d2 = _gradient(ev, m, n, z), _gradient(ev, n, p, z)
                J = np.array([[d1.real, d1.imag], [d2.real, d2.imag]])
                try:
                    dxy = np.linalg.solve(J, np.array([g1, g2]))
                except np.linalg.LinAlgError:
                    break
                step = complex(dxy[0], dxy[1])
                cap = 0.25 * (1.0 + abs(z))
                if abs(step) > cap:
                    step *= cap / abs(step)
                z = z - step
            if ok:
                if all(abs(z - q.z) > 1e-6 for q in found):
                    found.append(
                        MultiplePoint(z, (m, n, p), abs(g1) + abs(g2))
                    )
    return sorted(found, key=lambda q: (round(q.z.real, 9), round(q.z.imag, 9)))
