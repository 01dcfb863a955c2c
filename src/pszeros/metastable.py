"""Truncated contour weights and metastable free energies.

For each phase q the contour gas with weights K_q(Y) = rho(Y) theta_q^{-|Y|}
(times interior partition-function ratios) is summed by cluster expansion to
a polymer pressure s_q; the metastable weight is zeta_q = theta_q e^{s_q}
and f_q = -log|zeta_q| its free energy.  Where a phase is unstable, large
contours are suppressed by a smooth mollifier acting on interior free-energy
differences, and a hard exponential cap (which must never activate in a
consistent run) keeps the truncated weights inside the certified convergence
region.  Finite-volume analogues on the torus sum the same gas over wrapped
placements.

The z-independent part of a phase's gas (its contour classes with their
energy pairs as arrays, the offsets at which two classes overlap, the
certificate geometry and the cluster skeleton with its Ursell coefficients,
also as an index matrix) is one record per (phase, support cap), built on
first use and held on the model (``SpinModel.gas``), so that it is
computed once per model and freed with it.

Where the mollifier leaves a phase's contours untouched, zeta_q is
holomorphic, and the table also carries d log zeta_q / dz in closed form
(``PhaseEntry.dlog``); elsewhere that entry is None and callers fall back
to finite differences.

Desk-scale note: the Peierls rate tau and the entropy constant c0 are
estimated from the model and reported.  The engine always runs with the
measured tau and c0 = 0, so the cap is exp(-(tau/2)|Y|); the certified
asymptotic constants (tau >= 4 c0 + 16) are only checked against, in
``estimated_constants``, never assumed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contours import (
    ENUM_CORE_BUDGET,
    ContourSumEngine,
    ZdContour,
    contour_classes,
    contours_in_region,
    region_masks,
)
from .errors import ConvergenceError
from .lattice import torus
from .models import SpinModel, pair_weight, theta, theta_max
from .polymer import (
    PolymerSystem,
    enumerate_clusters,
    independent_set_sum,
    multi_indices,
)

STABLE_TOL = 1e-9


# -- mollifier -----------------------------------------------------------------


def mollifier_eval(x: float):
    """The C^2 cutoff: 0 below -2, 1 above -1, quintic smoothstep between.
    Returns (value, first derivative, second derivative)."""
    if x <= -2.0:
        return 0.0, 0.0, 0.0
    if x >= -1.0:
        return 1.0, 0.0, 0.0
    t = x + 2.0
    v = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    dv = 30.0 * t * t * (1.0 - t) ** 2
    ddv = 60.0 * t * (1.0 - 3.0 * t + 2.0 * t * t)
    return v, dv, ddv


# -- cutoffs and estimated constants --------------------------------------------


@dataclass(frozen=True)
class Cutoffs:
    """Truncation orders: maximum contour support size entering the gas and
    maximum cluster norm (sum of multiplicity * support size)."""

    size_cap: int = 12
    norm_cap: float = 18.0


def estimate_tau(model: SpinModel, z: complex, size_cap: int = 12) -> float:
    """Measured Peierls rate: the infimum over enumerated contours of
    -log(|rho(Y)| / theta(z)^{|Y|}) / |Y|."""
    th = theta_max(model, z)
    if th == 0:
        return math.inf
    best = math.inf
    for q in model.orbit_representatives():
        arr = _gas(model, q, size_cap).arrays
        rho = np.abs(arr.rho * complex(z) ** arr.power)
        live = rho != 0
        if live.any():
            sizes = arr.sizes[live]
            best = min(best, float((-(np.log(rho[live]) - sizes * math.log(th)) / sizes).min()))
    return best


def estimate_M(model: SpinModel, zs) -> float:
    """Measured derivative constant: max over phases and sample points of
    |d theta_m / dz| / theta(z), by central differences."""
    out = 0.0
    for z in zs:
        th = theta_max(model, z)
        for m in model.orbit_representatives():
            out = max(out, abs(_theta_derivative(model, m, z)) / th)
    return out


def _theta_derivative(model, m, z):
    eps = 1e-6 * (1.0 + abs(z))
    return (theta(model, m, z + eps) - theta(model, m, z - eps)) / (2 * eps)


def estimated_constants(model: SpinModel, zs, size_cap: int = 12):
    from .models import EstimatedConstants
    from .polymer import estimate_c0

    tau = min(estimate_tau(model, z, size_cap) for z in zs)
    M = estimate_M(model, zs)
    c0 = estimate_c0(model.dimension, len(model.spins), model.range, size_cap)["c0"]
    return EstimatedConstants(
        tau,
        M,
        c0,
        tau >= 4 * c0 + 16,
        note="" if tau >= 4 * c0 + 16 else
        "measured tau below the certified threshold 4*c0+16; truncation runs "
        "in finite-certificate mode",
    )


# -- truncated weight engine -----------------------------------------------------


class WeightEngine:
    """Truncated contour weights over finite Z^d regions at one fixed z.

    The induction over region volume is realized by memoized recursion: a
    weight calls truncated partition functions of strictly smaller regions.
    tau is the measured Peierls rate at z (``estimate_tau``) and the cap
    threshold is exp(-(tau/2)|Y|); whenever it would activate, the weight is
    zeroed and the event recorded in ``activation_log``.
    """

    def __init__(self, model: SpinModel, z: complex, budget: int = ENUM_CORE_BUDGET):
        self.model = model
        self.z = z
        self.tau = estimate_tau(model, z)
        self.budget = budget
        self.theta = {m: pair_weight(model.ground_pair(m), z) for m in model.spins}
        self.activation_log = []
        self._untruncated = ContourSumEngine(model, z, budget)
        self._zprime = {}
        self._kprime = {}

    # untruncated objects ------------------------------------------------

    def weight_plain(self, y: ZdContour) -> complex:
        """K_q(Y): no mollifier, interiors resummed with untruncated sums."""
        thq = self.theta[y.q]
        if thq == 0:
            return 0j
        w = pair_weight(y.energy_pair(self.model), self.z) * thq ** (-y.size)
        for comp, lab in y.interiors:
            w *= self._untruncated.partition_function(comp, lab)
            w /= self._untruncated.partition_function(comp, y.q)
        return w

    # truncated objects ---------------------------------------------------

    def zprime(self, region, q) -> complex:
        """Z'_q(region) = theta_q^{|region|} * (compatible-collection sum of
        truncated weights)."""
        region = frozenset(tuple(x) for x in region)
        key = (tuple(sorted(region)), q)
        if key in self._zprime:
            return self._zprime[key]
        thq = self.theta[q]
        if thq == 0:
            self._zprime[key] = 0j
            return 0j
        val = thq ** len(region) * self.polymer_sum(region, q)
        self._zprime[key] = val
        return val

    def polymer_sum(self, region, q) -> complex:
        """Sum over support-disjoint families of q-contours in the region of
        the product of truncated weights."""
        region = frozenset(tuple(x) for x in region)
        contours = contours_in_region(self.model, q, region, self.budget)
        weights = [self.weight_truncated(y) for y in contours]
        masks, _ = region_masks(region, [y.support for y in contours])
        return independent_set_sum(masks, weights)

    def mollifier_factor(self, y: ZdContour) -> float:
        """phi_q(Y): the product over phases of the smooth cutoff applied to
        tau/4 plus the normalized interior free-energy difference."""
        return self.phase_factor(y.q, frozenset().union(*[c for c, _ in y.interiors]), y.size)

    def phase_factor(self, q, interior=frozenset(), size: int = 1) -> float:
        """phi_q of a q-contour of the given size around the given interior;
        without interiors it is the same for every q-contour."""
        thq = self.theta[q]
        if thq == 0:
            return 0.0
        zq = self.zprime(interior, q) if interior else 1.0 + 0j
        if zq == 0:
            return 0.0
        log_num = math.log(abs(zq)) / size + math.log(abs(thq))
        out = 1.0
        for m in self.model.spins:
            if m == q:
                continue
            thm = self.theta[m]
            if thm == 0:
                continue  # interpreted as chi = 1
            zm = self.zprime(interior, m) if interior else 1.0 + 0j
            if zm == 0:
                continue
            log_den = math.log(abs(zm)) / size + math.log(abs(thm))
            x = self.tau / 4.0 + log_num - log_den
            out *= mollifier_eval(x)[0]
            if out == 0.0:
                return 0.0
        return out

    def weight_truncated(self, y: ZdContour) -> complex:
        key = y.key()
        if key in self._kprime:
            return self._kprime[key]
        q = y.q
        thq = self.theta[q]
        if thq == 0:
            self._kprime[key] = 0j
            return 0j
        w = pair_weight(y.energy_pair(self.model), self.z) * thq ** (-y.size)
        w *= self.mollifier_factor(y)
        for comp, lab in y.interiors:
            w *= self._untruncated.partition_function(comp, lab)
            w /= self.zprime(comp, q)
        cap = math.exp(-(self.tau / 2.0) * y.size)
        if abs(w) > cap:
            self.activation_log.append(
                {"contour": key, "size": y.size, "weight": abs(w), "cap": cap}
            )
            w = 0j
        self._kprime[key] = w
        return w

    def is_stable(self, y: ZdContour) -> bool:
        """Whether the truncation left the weight untouched: K' = K."""
        kp = self.weight_truncated(y)
        k = self.weight_plain(y)
        if k == 0:
            return kp == 0
        return abs(kp - k) <= 1e-9 * abs(k)


def truncated_weight(model: SpinModel, y: ZdContour, z: complex,
                     engine: WeightEngine | None = None) -> complex:
    if engine is None:
        engine = WeightEngine(model, z)
    return engine.weight_truncated(y)


def truncated_partition(model: SpinModel, region, q, z: complex) -> complex:
    """Z'_q over a finite Z^d region."""
    return WeightEngine(model, z).zprime(region, q)


# -- infinite-volume pressure -----------------------------------------------------


_A_SCALES = (1.0, 0.5, 0.25, 0.15, 0.111, 0.1, 0.083, 0.06, 0.05, 0.02, 0.01)
_LOG_SCALES = np.log(_A_SCALES)
_ETA_CAP = 8.0
_ETA_TOL = 2.0**-14  # largest loss of eta to the t grid's chords
_T_MAX = max(_A_SCALES) + _ETA_CAP


_CertificateGeometry = namedtuple("_CertificateGeometry", "sizes volumes offsets rows grid_exp step")
_ClassArrays = namedtuple("_ClassArrays", "rho power sizes bare ground_power")


class _Gas:
    """Phase q's gas record at one support cap (see the module docstring);
    each part is built on first use.  The overlap offsets are dropped once
    the cluster arrays and the geometry are built (they take about 0.3 MiB
    for a three-state phase), so another norm cap searches them again."""

    def __init__(self, model: SpinModel, q, size_cap: int):
        self.d = model.dimension
        self.q = q
        self.classes = tuple(contour_classes(model, q, size_cap))
        self._model = weakref.ref(model)  # the model holds the record
        self._cluster_arrays = {}

    @cached_property
    def arrays(self) -> _ClassArrays:
        """z-independent class data: per class, exp(-c) and p of its energy
        pair (rho = exp(-c) z^p), its size |Y| and whether it has no
        interiors; and the z power of theta_q."""
        model = self._model()
        pairs = [y.energy_pair(model) for y in self.classes]
        return _ClassArrays(
            np.array([cmath.exp(-c) for c, _ in pairs], dtype=complex),
            np.array([p for _, p in pairs], dtype=float),
            np.array([y.size for y in self.classes], dtype=float),
            np.array([not y.interiors for y in self.classes], dtype=bool),
            model.ground_pair(self.q)[1],
        )

    @cached_property
    def offsets(self):
        """Per pair of classes (i, j), the sorted offsets a - b (a in support
        i, b in support j) at which class j placed relative to class i
        overlaps it."""
        if not self.classes:
            return []
        # with every coordinate in an interval of M values, a - b lies in
        # (-M, M)^d; code (j, a - b) as one integer that sorts like the tuple
        supports = [np.array(sorted(y.support)) for y in self.classes]
        every = np.concatenate(supports)
        owner = np.repeat(np.arange(len(supports)), [len(s) for s in supports])
        M = int(every.max() - every.min()) + 1
        radix = (2 * M - 1) ** np.arange(self.d - 1, -1, -1)
        span = (2 * M - 1) ** self.d
        out = []
        for si in supports:
            diff = (si[:, None, :] - every[None, :, :] + M - 1) @ radix
            codes = np.sort(owner * span + diff, axis=None)
            # distinct codes; np.unique would do, but it imports numpy.ma,
            # which costs about 1 MiB of resident memory
            codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
            cuts = np.searchsorted(codes, np.arange(1, len(supports)) * span)
            digits = (codes[:, None] % span // radix) % (2 * M - 1) - (M - 1)
            out.append([list(map(tuple, part.tolist())) for part in np.split(digits, cuts)])
        return out

    @cached_property
    def geometry(self) -> _CertificateGeometry:
        """z-independent certificate data: class sizes |Y|, volumes |V(Y)|,
        counts of overlapping relative placements per pair of classes, the
        rows (volumes, then each offsets row over its |Y|), and e^{t |Y|} on a
        t grid over [0, max alpha + eta cap] with its step.  A chord of a
        log-sum-exp row over one cell misses its root by at most
        (s_max - s_min)^2 step^2 / (32 s_min) for class sizes s; the step
        keeps that below _ETA_TOL."""
        offsets = np.array([[len(o) for o in row] for row in self.offsets], dtype=float)
        sizes = np.array([y.size for y in self.classes], dtype=float)
        volumes = np.array([len(y.volume) for y in self.classes], dtype=float)
        spread = float(np.ptp(sizes)) if len(sizes) else 0.0
        step = math.sqrt(32.0 * sizes.min() * _ETA_TOL) / spread if spread else _T_MAX
        grid = np.linspace(0.0, _T_MAX, math.ceil(_T_MAX / step) + 1)
        return _CertificateGeometry(
            sizes, volumes, offsets, np.vstack([volumes, offsets / sizes[:, None]]),
            np.exp(np.outer(sizes, grid)), grid[1],
        )

    def skeleton(self, norm_cap: float) -> tuple:
        """z-independent cluster data for the translation-invariant gas.

        Entries are (class multiplicities, ursell coefficient); summing the
        evaluated entries over translation classes of clusters equals the
        per-site rooted sum, since a cluster class has exactly |V| translates
        whose volume covers the origin.  Built anew on each call; the record
        keeps it only as ``cluster_arrays``.
        """
        classes, d, overlap_offsets = self.classes, self.d, self.offsets
        # connected placement sets up to translation, rooted at class i0 at 0;
        # growth ends where every further class would pass the norm cap
        placement_sets = set()

        def canon(pset):
            t = min(pset, key=lambda p: (p[1], p[0]))[1]
            return tuple(sorted(
                (ci, tuple(o[k] - t[k] for k in range(d))) for ci, o in pset
            ))

        def grow(pset, base_norm):
            placement_sets.add(canon(pset))
            for cj in range(len(classes)):
                if base_norm + classes[cj].size > norm_cap:
                    continue
                for (ci, oi) in pset:
                    for rel in overlap_offsets[ci][cj]:
                        cand = (cj, tuple(oi[k] + rel[k] for k in range(d)))
                        if cand not in pset:
                            grow(pset | {cand}, base_norm + classes[cj].size)

        for i0 in range(len(classes)):
            if classes[i0].size <= norm_cap:
                grow(frozenset([(i0, (0,) * d)]), classes[i0].size)

        entries = []
        for pset in sorted(placement_sets):
            placements = list(pset)
            ids = tuple(range(len(placements)))
            # (ca, oa) and (cb, ob) overlap exactly when ob - oa is an offset
            # at which class cb placed relative to class ca overlaps it
            incompat = [
                (a, b)
                for (a, (ca, oa)), (b, (cb, ob))
                in itertools.combinations(enumerate(placements), 2)
                if tuple(y - x for x, y in zip(oa, ob)) in overlap_offsets[ca][cb]
            ]
            sizes = {i: classes[ci].size for i, (ci, _) in enumerate(placements)}
            sys_stub = PolymerSystem.build(ids, {i: 0j for i in ids}, incompat, sizes)
            for mult, _, u in multi_indices(sys_stub, ids, norm_cap):
                entries.append((tuple((placements[i][0], mult[i]) for i in ids), u))
        self.geometry  # takes its counts from the offsets before they go
        del self.offsets
        return tuple(entries)

    def cluster_arrays(self, norm_cap: float) -> tuple:
        """The skeleton as an (entries x parts) index matrix and an Ursell
        vector: a class of multiplicity k fills k parts of its entry's row,
        and unused parts hold the index one past the last class."""
        if norm_cap not in self._cluster_arrays:
            entries = self.skeleton(norm_cap)
            rows = [[ci for ci, k in mults for _ in range(k)] for mults, _ in entries]
            index = np.full((len(rows), max(map(len, rows), default=0)), len(self.classes))
            for r, row in enumerate(rows):
                index[r, :len(row)] = row
            self._cluster_arrays[norm_cap] = index, np.array([u for _, u in entries], dtype=float)
        return self._cluster_arrays[norm_cap]


def _gas(model: SpinModel, q, size_cap: int) -> _Gas:
    """Phase q's gas record at the given support cap, built once per model."""
    key = (q, size_cap)
    if key not in model.gas:
        model.gas[key] = _Gas(model, q, size_cap)
    return model.gas[key]


@dataclass(frozen=True)
class PressureResult:
    value: complex
    eta: float
    error_bound: float
    n_clusters: int
    certified: bool
    truncation: Cutoffs
    activations: int = 0
    derivative: complex | None = None  # ds/dz where exact, else None


def polymer_pressure(
    model: SpinModel, q, z: complex, cutoffs: Cutoffs = Cutoffs(),
    engine: WeightEngine | None = None,
) -> PressureResult:
    """The contour-gas pressure s_q at z: rooted cluster sum per site of the
    truncated weights, with the certified exponential tail bound.

    Classes without interiors are weighed in one array pass:
    K'(Y) = rho(Y) theta_q^{-|Y|} phi_q, where the mollifier factor phi_q
    is the same for all of them.  Classes with interiors, and every class
    once a cap activates, go through ``WeightEngine.weight_truncated``.
    Where phi_q = 1, the engine has logged no cap activation and no class
    with interiors has a nonzero weight, every weight is a monomial in z, so
    d log K'(Y)/dz = (p_Y - |Y| p_q) / z and the derivative of the cluster
    sum is exact."""
    gas = _gas(model, q, cutoffs.size_cap)
    index, ursell = gas.cluster_arrays(cutoffs.norm_cap)
    if engine is None:
        engine = WeightEngine(model, z)
    w, dlog_w = _class_weights(engine, gas)

    cert, eta = _gas_certificate(gas, w)
    if not cert:
        raise ConvergenceError(
            "contour-gas convergence certificate failed; refuse to expand"
        )
    terms = ursell * np.append(w, 1.0)[index].prod(axis=1)
    derivative = None
    if dlog_w is not None:
        derivative = complex(terms @ np.append(dlog_w, 0.0)[index].sum(axis=1))
    bound = math.exp(-eta * cutoffs.norm_cap) if eta > 0 else math.inf
    return PressureResult(
        complex(terms.sum()), eta, bound, len(ursell), cert, cutoffs,
        len(engine.activation_log), derivative,
    )


def _class_weights(engine: WeightEngine, gas: _Gas):
    """The truncated weights of a record's classes at the engine's z, and
    their logarithmic z-derivatives where those are exact (else None)."""
    z, arr = engine.z, gas.arrays
    thq = engine.theta[gas.q]
    if thq == 0:
        return np.zeros(len(gas.classes), dtype=complex), None
    factor = engine.phase_factor(gas.q)
    # complex z: a real negative z with a half-integer power (field="plain")
    # takes the principal branch, as pair_weight does
    w = arr.rho * complex(z) ** arr.power * thq**-arr.sizes * factor
    capped = arr.bare & (np.abs(w) > np.exp(-(engine.tau / 2.0) * arr.sizes))
    if capped.any():
        # the engine logs each activation, in class order, once
        return np.array([engine.weight_truncated(y) for y in gas.classes], dtype=complex), None
    for i in np.flatnonzero(~arr.bare):
        w[i] = engine.weight_truncated(gas.classes[i])
    if factor != 1.0 or z == 0 or engine.activation_log or w[~arr.bare].any():
        return w, None
    return w, (arr.power - arr.sizes * arr.ground_power) / z


def _certificate_ok(geo, absw, alpha, eta):
    """The certificate predicate at scale alpha and decay rate eta."""
    boost = absw * np.exp((alpha + eta) * geo.sizes)
    if float(geo.volumes @ boost) > 1.0:
        return False
    return bool(np.all(geo.offsets @ boost <= alpha * geo.sizes))


def _gas_certificate(gas: _Gas, weights):
    """Convergence certificate for the contour gas of a record at the given
    class weights.

    Uses a(Y) = alpha |Y| (any positive scale is admissible) and requires
    both the neighbor-sum condition per contour class and the origin-rooted
    mass condition, which together turn the norm cutoff into an
    exp(-eta * norm) tail bound.  Returns (ok, best eta over the scales <= 8).

    Both conditions see eta only through t = alpha + eta: the mass sum
    A(t) <= 1 does not involve alpha, and the neighbor rows over |Y| give
    psi(t) <= alpha, so eta(alpha) = min(A^{-1}(1), psi^{-1}(alpha)) - alpha.
    On the t grid, searchsorted finds each root's cell (or an end cell) and
    a chord of the convex log row there bounds the root from below.  The
    predicate confirms the best scale.
    """
    if not np.any(weights):
        return True, _ETA_CAP
    geo = gas.geometry
    absw = np.abs(weights)
    rows = geo.rows * absw @ geo.grid_exp
    i = int(np.searchsorted(rows[0, 1:-1], 1.0, side="right"))
    a0, a1 = math.log(rows[0, i]), math.log(rows[0, i + 1])
    t_mass = geo.step * (i - a0 / (a1 - a0))
    # all neighbor rows, in the cell where their max crosses alpha
    nb = rows[1:]
    cell = np.searchsorted(nb.max(axis=0)[1:-1], _A_SCALES, side="right")
    lo, hi = np.log(nb[:, cell]), np.log(nb[:, cell + 1])
    t_nb = geo.step * (cell + ((_LOG_SCALES - lo) / (hi - lo)).min(axis=0))
    etas = np.minimum(t_nb, t_mass) - _A_SCALES
    k = int(etas.argmax())
    eta = min(float(etas[k]) - 1e-9, _ETA_CAP)  # 1e-9: room for rounding
    if eta < 0.0:
        # within _ETA_TOL of the boundary only the predicate can decide
        return any(_certificate_ok(geo, absw, a, 0.0) for a in _A_SCALES), 0.0
    if not _certificate_ok(geo, absw, _A_SCALES[k], eta):
        raise ConvergenceError(f"gas certificate: eta={eta!r} fails its predicate")
    return True, eta


# -- metastable free energies ------------------------------------------------------


@dataclass(frozen=True)
class PhaseEntry:
    phase: object
    theta: complex
    s: complex
    zeta: complex
    f: float
    a: float
    pressure: PressureResult | None
    dlog: complex | None = None  # d log zeta / dz where exact, else None


@dataclass(frozen=True)
class FreeEnergyTable:
    z: complex
    entries: dict
    stable: tuple
    tau: float
    activations: int

    def __getitem__(self, m):
        return self.entries[m]


def free_energy_table(
    model: SpinModel, z: complex, cutoffs: Cutoffs = Cutoffs()
) -> FreeEnergyTable:
    """zeta_m, f_m and a_m for every phase at one point, sharing one weight
    engine (and hence one activation log), with h'_m = d log zeta_m / dz =
    p_m / z + ds_m/dz wherever ``polymer_pressure`` has the derivative."""
    engine = WeightEngine(model, z)
    entries = {}
    for m in model.orbit_representatives():
        th = engine.theta[m]
        if th == 0:
            entries[m] = PhaseEntry(m, th, 0j, 0j, math.inf, math.inf, None)
            continue
        pres = polymer_pressure(model, m, z, cutoffs, engine=engine)
        zeta_m = th * cmath.exp(pres.value)
        dlog = None
        if pres.derivative is not None:
            dlog = _gas(model, m, cutoffs.size_cap).arrays.ground_power / z + pres.derivative
        entries[m] = PhaseEntry(
            m, th, pres.value, zeta_m, -math.log(abs(zeta_m)), 0.0, pres, dlog
        )
    fmin = min(e.f for e in entries.values())
    out = {}
    for m, e in entries.items():
        gap = e.f - fmin if e.f < math.inf else math.inf
        out[m] = PhaseEntry(m, e.theta, e.s, e.zeta, e.f, gap, e.pressure, e.dlog)
    stable = tuple(sorted((m for m, e in out.items() if e.a < STABLE_TOL), key=str))
    return FreeEnergyTable(z, out, stable, engine.tau, len(engine.activation_log))


def zeta(model: SpinModel, m, z: complex, cutoffs: Cutoffs = Cutoffs()):
    """The metastable entry for one phase (computing the full table so that
    the free-energy gap a_m is normalized against the stable phase)."""
    return free_energy_table(model, z, cutoffs)[m]


# -- finite-volume torus analogue ---------------------------------------------------


EXACT_PLACEMENT_BUDGET = 120


def _torus_placements_of_classes(model, classes, L):
    """Wrapped placements of contour classes on the torus: a class fits when
    its volume extent is at most L along every axis (so wrapping is
    injective); its support is then a genuine subset of torus sites."""
    geom = torus(L, model.dimension, model.range)
    d = model.dimension
    placements = []
    for ci, y in enumerate(classes):
        vol = y.volume
        extent = [
            max(p[k] for p in vol) - min(p[k] for p in vol) + 1 for k in range(d)
        ]
        if any(e > L for e in extent):
            continue
        for anchor in range(geom.n_sites):
            base = geom.coords[anchor]
            sup = frozenset(
                geom.index(tuple(base[k] + p[k] for k in range(d)))
                for p in y.support
            )
            placements.append((ci, anchor, sup))
    return geom, placements


def finite_volume_zeta(
    model: SpinModel, m, L: int, z: complex, cutoffs: Cutoffs = Cutoffs()
) -> complex:
    """zeta_m^{(L)} = theta_m exp(s_m^{(L)}) with the pressure of the wrapped
    contour gas on the torus: exact logarithm of the placement sum for small
    tori, cluster expansion with torus (wrapped) incompatibility beyond."""
    engine = WeightEngine(model, z)
    th = engine.theta[m]
    if th == 0:
        return 0j
    classes = _gas(model, m, cutoffs.size_cap).classes
    geom, placements = _torus_placements_of_classes(model, classes, L)
    n = geom.n_sites
    if not placements:
        return th
    w = [engine.weight_truncated(classes[ci]) for ci, _, _ in placements]
    supports = [sup for (_, _, sup) in placements]
    if len(placements) <= EXACT_PLACEMENT_BUDGET:
        zsum = independent_set_sum([sum(1 << s for s in sup) for sup in supports], w)
        return th * cmath.exp(cmath.log(zsum) / n)
    ids = tuple(range(len(placements)))
    edges = [
        (i, j)
        for i in ids
        for j in ids[i + 1:]
        if supports[i] & supports[j]
    ]
    sizes = {i: classes[placements[i][0]].size for i in ids}
    system = PolymerSystem.build(ids, dict(enumerate(w)), edges, sizes)
    clusters = enumerate_clusters(system, ids, cutoffs.norm_cap)
    return th * cmath.exp(sum(c.value for c in clusters) / n)


# -- non-degeneracy diagnostics ------------------------------------------------------


def _hull_distance(point, others):
    """Distance in the plane from a point to the convex hull of others."""
    pts = [complex(o) for o in others]
    p = complex(point)
    if len(pts) == 1:
        return abs(p - pts[0])
    best = math.inf
    for a, b in itertools.combinations(pts, 2):
        ab = b - a
        t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / max(abs(ab) ** 2, 1e-300)
        t = min(1.0, max(0.0, t))
        best = min(best, abs(p - (a + t * ab)))
    if _inside_hull(p, pts):
        return 0.0
    return best


def _inside_hull(p, pts):
    if len(pts) < 3:
        return False
    from scipy.spatial import ConvexHull, QhullError  # type: ignore

    try:
        arr = np.array([[q.real, q.imag] for q in pts])
        hull = ConvexHull(arr)
        eqs = hull.equations
        v = np.array([p.real, p.imag, 1.0])
        return bool(np.all(eqs @ v <= 1e-12))
    except QhullError:
        return False


def nondegeneracy_check(model: SpinModel, zs, cutoffs: Cutoffs = Cutoffs()) -> dict:
    """Non-degeneracy diagnostics over a z sample.

    Wherever two (or more) phases are simultaneously within the almost-ground
    comparison window, measure the pairwise separation of the logarithmic
    theta derivatives, the convex-position margin for triples and beyond,
    and the same separation for the dressed zeta functions (which the theory
    lowers by at most 2 e^{-tau/2}).
    """
    reps = model.orbit_representatives()
    alpha_pairs = math.inf
    alpha_hull = math.inf
    alpha_hull_zeta = math.inf
    alpha_zeta = math.inf
    checked_pairs = 0
    checked_hulls = 0
    for z in zs:
        th = {m: abs(theta(model, m, z)) for m in reps}
        tmax = max(th.values())
        active = [m for m in reps if th[m] >= tmax * math.exp(-1.0)]
        if len(active) < 2:
            continue
        v = {m: _theta_derivative(model, m, z) / theta(model, m, z) for m in active}
        for a, b in itertools.combinations(active, 2):
            alpha_pairs = min(alpha_pairs, abs(v[a] - v[b]))
            checked_pairs += 1
        if len(active) >= 3:
            for m in active:
                alpha_hull = min(
                    alpha_hull,
                    _hull_distance(v[m], [v[x] for x in active if x != m]),
                )
            checked_hulls += 1
        # complex derivative of log zeta via central differences along the
        # real axis, also where the tables carry it exactly: alpha_zeta
        # feeds the lambda-sweep artifacts
        eps = 1e-5 * (1.0 + abs(z))
        up = free_energy_table(model, z + eps, cutoffs)
        dn = free_energy_table(model, z - eps, cutoffs)
        vzeta = {
            mm: (cmath.log(up[mm].zeta) - cmath.log(dn[mm].zeta)) / (2 * eps)
            for mm in active
        }
        for a, b in itertools.combinations(active, 2):
            alpha_zeta = min(alpha_zeta, abs(vzeta[a] - vzeta[b]))
        if len(active) >= 3:
            for mm in active:
                alpha_hull_zeta = min(
                    alpha_hull_zeta,
                    _hull_distance(vzeta[mm], [vzeta[x] for x in active if x != mm]),
                )
    return {
        "alpha_pairs": alpha_pairs,
        "alpha_hull": alpha_hull,
        "alpha_hull_zeta": alpha_hull_zeta,
        "alpha_zeta": alpha_zeta,
        "pairs_checked": checked_pairs,
        "hulls_checked": checked_hulls,
        "vacuous": checked_pairs == 0,
    }
