"""Truncated contour weights and metastable free energies.

For each phase q the contour gas with weights K_q(Y) = rho(Y) theta_q^{-|Y|}
is summed by cluster expansion to a polymer pressure s_q; the metastable
weight is zeta_q = theta_q e^{s_q} and f_q = -log|zeta_q| its free energy.
Where a phase is unstable, large contours are suppressed by a smooth
mollifier of free-energy differences, and a hard cap exp(-(tau/2)|Y|) (which
must never activate in a consistent run) keeps the weights inside the
certified convergence region.  One array pass (``_class_weights``) weighs a
gas, whose classes have no interiors, for the tables and for its analogue on
the torus; ``WeightEngine`` weighs contours of finite regions with interiors.

The z-independent part of a phase's gas comes in two records.  The shape
record depends on neither couplings nor z, only on the class geometry: d,
R and, per class in class order, its support and its volume.  It holds the
offsets at which two classes overlap, the certificate geometry, per norm
cap the cluster skeleton with its Ursell coefficients as an index matrix,
and per torus side the wrapped placements.  It is shared by every phase
and model with that geometry (all phases of Blume-Capel and of Potts q=3
have one), through a value-keyed cache built once per process.  The
energies stay per model: the gas record of a (phase, support cap), built
on first use and held on the model (``SpinModel.gas``), so that it is
computed once per model and freed with it, holds the contour classes with
their energy pairs as arrays and points at its shape record; the classes'
geometry comes from ``contours._class_geometry``, shared per alphabet.

Where neither the mollifier nor the cap touches a phase's weights, zeta_q
is holomorphic, and the table also carries d log zeta_q / dz in closed form
(``PhaseEntry.dlog``); elsewhere that entry is None and callers fall back
to finite differences.  ``nondegeneracy_check`` measures Assumption B on
these closed forms: theta_q' / theta_q = p_q / z, and the table's h'_q.

Desk-scale note: the Peierls rate tau and the entropy constant c0 are
estimated from the model and reported.  The engine runs with c0 = 0 and the
tau measured on the gas being weighed, so the cap is exp(-(tau/2)|Y|); the
certified asymptotic constants (tau >= 4 c0 + 16) are only checked against,
in ``estimated_constants``, never assumed.
"""

from __future__ import annotations

import cmath
import itertools
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .contours import (
    ContourSumEngine,
    ZdContour,
    contour_classes,
    contours_in_region,
    region_masks,
)
from .errors import BudgetError, ConvergenceError
from .lattice import torus
from .models import SpinModel, pair_weight, theta_max
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


def estimate_tau(model: SpinModel, z: complex, size_cap: int = Cutoffs.size_cap) -> float:
    """Measured Peierls rate: the infimum over enumerated contours of
    -log(|rho(Y)| / theta(z)^{|Y|}) / |Y|."""
    th = theta_max(model, z)
    if th == 0:
        return math.inf
    best = math.inf
    for q in model.orbit_representatives():
        gas = _gas(model, q, size_cap)
        rho = np.abs(gas.rho(z))
        live = rho != 0
        if live.any():
            sizes = gas.arrays.sizes[live]
            best = min(best, float((-(np.log(rho[live]) - sizes * math.log(th)) / sizes).min()))
    return best


def estimate_M(model: SpinModel, zs) -> float:
    """Measured derivative constant: max over phases and sample points of
    |d theta_m / dz| / theta(z), from ``_theta_prime``."""
    return max(
        (abs(_theta_prime(model, m, z)) / theta_max(model, z)
         for z in zs for m in model.orbit_representatives()),
        default=0.0,
    )


def _theta_prime(model: SpinModel, m, z) -> complex:
    """d theta_m / dz = p_m exp(-c_m) z^{p_m - 1} = p_m theta_m / z exactly,
    theta_m being a monomial; this form holds at z = 0 too."""
    c, p = model.ground_pair(m)
    return p * pair_weight((c, p - 1), z) if p else 0j


def estimated_constants(model: SpinModel, zs, size_cap: int = Cutoffs.size_cap):
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
    tau is the Peierls rate measured at z on the classes up to ``size_cap``
    (``estimate_tau``) and the cap threshold is exp(-(tau/2)|Y|); whenever it
    would activate, the weight is zeroed and the event recorded in
    ``activation_log``.
    """

    def __init__(self, model: SpinModel, z: complex, size_cap: int = Cutoffs.size_cap):
        self.model = model
        self.z = z
        self.tau = estimate_tau(model, z, size_cap)
        self.theta = {m: pair_weight(model.ground_pair(m), z) for m in model.spins}
        self.activation_log = []
        self._zprime = {}
        self._kprime = {}

    @cached_property
    def _untruncated(self) -> ContourSumEngine:
        """The untruncated interior sums, built on first use: only contours
        with interiors need them."""
        return ContourSumEngine(self.model, self.z)

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
        contours = contours_in_region(self.model, q, region)
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
_ClassArrays = namedtuple("_ClassArrays", "rho power sizes ground_power")


class _Shape:
    """The coupling- and z-free part of a contour gas, fixed by d, R and,
    per class in class order, its sorted support and its sorted volume (see
    the module docstring); each part is built on first use.  Classes enter
    as their (support, volume) coordinate tuples, and no contour, model or
    energy is held.  The overlap offsets are dropped once the cluster arrays
    and the geometry are built (they take about 0.3 MiB for a three-state
    shape), so another norm cap searches them again."""

    def __init__(self, d: int, R: int, classes: tuple):
        self.d = d
        self.R = R
        self.supports = [sup for sup, _ in classes]
        self.volumes = [vol for _, vol in classes]
        self.sizes = [len(sup) for sup in self.supports]
        self._cluster_arrays = {}
        self._placements = {}

    @cached_property
    def offsets(self):
        """Per pair of classes (i, j), the sorted offsets a - b (a in support
        i, b in support j) at which class j placed relative to class i
        overlaps it."""
        if not self.supports:
            return []
        # with every coordinate in an interval of M values, a - b lies in
        # (-M, M)^d; code (j, a - b) as one integer that sorts like the tuple
        supports = [np.array(sup) for sup in self.supports]
        every = np.concatenate(supports)
        owner = np.repeat(np.arange(len(supports)), self.sizes)
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
        sizes = np.array(self.sizes, dtype=float)
        volumes = np.array([len(v) for v in self.volumes], dtype=float)
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
        d, sizes, overlap_offsets = self.d, self.sizes, self.offsets
        # connected placement sets up to translation, rooted at class i0 at 0;
        # growth ends where every further class would pass the norm cap.  The
        # growths of translates are translates, so each set up to translation
        # is grown once, from the first placement set that reaches it
        placement_sets = set()

        def canon(pset):
            t = min(pset, key=lambda p: (p[1], p[0]))[1]
            return tuple(sorted(
                (ci, tuple(o[k] - t[k] for k in range(d))) for ci, o in pset
            ))

        def grow(pset, base_norm):
            for cj, size in enumerate(sizes):
                if base_norm + size > norm_cap:
                    continue
                for (ci, oi) in pset:
                    for rel in overlap_offsets[ci][cj]:
                        cand = (cj, tuple(oi[k] + rel[k] for k in range(d)))
                        if cand in pset:
                            continue
                        grown = pset | {cand}
                        key = canon(grown)
                        if key not in placement_sets:
                            placement_sets.add(key)
                            grow(grown, base_norm + size)

        for i0, size in enumerate(sizes):
            if size <= norm_cap:
                placement_sets.add(((i0, (0,) * d),))
                grow(frozenset([(i0, (0,) * d)]), size)

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
            part_sizes = {i: sizes[ci] for i, (ci, _) in enumerate(placements)}
            sys_stub = PolymerSystem.build(ids, {i: 0j for i in ids}, incompat, part_sizes)
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
            index = np.full((len(rows), max(map(len, rows), default=0)), len(self.sizes))
            for r, row in enumerate(rows):
                index[r, :len(row)] = row
            self._cluster_arrays[norm_cap] = index, np.array([u for _, u in entries], dtype=float)
        return self._cluster_arrays[norm_cap]

    def placements(self, L: int) -> tuple:
        """The torus of side L's site count and the wrapped placements of
        the classes, as (class, site bitmask) pairs in class order, then
        anchor order.  A class fits when its volume extent is at most L
        along every axis (so wrapping is injective); its support is then a
        genuine subset of torus sites."""
        if L not in self._placements:
            geom = torus(L, self.d, self.R)
            out = []
            for ci, (sup, vol) in enumerate(zip(self.supports, self.volumes)):
                if any(max(p[k] for p in vol) - min(p[k] for p in vol) + 1 > L
                       for k in range(self.d)):
                    continue
                for base in geom.coords:
                    out.append((ci, geom.mask(
                        geom.index(tuple(b + x for b, x in zip(base, p))) for p in sup
                    )))
            self._placements[L] = geom.n_sites, tuple(out)
        return self._placements[L]


@lru_cache(maxsize=None)
def _shape(key: tuple) -> _Shape:
    """The shape record of a class geometry (d, R, per class its sorted
    support and sorted volume), built once per process."""
    return _Shape(*key)


class _Gas:
    """Phase q's gas record at one support cap (see the module docstring):
    this model's contour classes, which carry its energy pairs, and their
    arrays stay per model; ``shape`` is the record of their geometry, shared
    with every phase and model whose classes have the same geometry.  The
    weights have no interior ratios, so a class with interiors is refused."""

    def __init__(self, model: SpinModel, q, size_cap: int):
        self.q = q
        self.classes = tuple(contour_classes(model, q, size_cap))
        if any(y.interiors for y in self.classes):
            raise BudgetError(f"size cap {size_cap} admits contour classes with interiors")
        self.shape = _shape((model.dimension, model.range, tuple(
            (tuple(sorted(y.support)), tuple(sorted(y.volume))) for y in self.classes
        )))
        self._model = weakref.ref(model)  # the model holds the record
        self._rho = None

    @cached_property
    def arrays(self) -> _ClassArrays:
        """z-independent class data: per class, exp(-c) and p of its energy
        pair (rho = exp(-c) z^p) and its size |Y|; and the z power of
        theta_q."""
        model = self._model()
        pairs = [y.energy_pair(model) for y in self.classes]
        return _ClassArrays(
            np.array([cmath.exp(-c) for c, _ in pairs], dtype=complex),
            np.array([p for _, p in pairs], dtype=float),
            np.array(self.shape.sizes, dtype=float),
            model.ground_pair(self.q)[1],
        )

    def rho(self, z) -> np.ndarray:
        """rho(Y) = exp(-c) z^p of the classes, kept for the last z object
        asked for, so that a table's tau estimate and its class weights
        (both at the engine's z) evaluate it once.  Complex z: a real
        negative z with a half-integer power (field="plain") takes the
        principal branch, as pair_weight does."""
        if self._rho is None or self._rho[0] is not z:
            arr = self.arrays
            self._rho = z, arr.rho * complex(z) ** arr.power
        return self._rho[1]


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
    activations: int = 0  # weights of this phase that the cap zeroed
    derivative: complex | None = None  # ds/dz where exact, else None


def polymer_pressure(
    model: SpinModel, q, z: complex, cutoffs: Cutoffs = Cutoffs(),
    engine: WeightEngine | None = None,
) -> PressureResult:
    """The contour-gas pressure s_q at z: rooted cluster sum per site of the
    truncated weights, with the certified exponential tail bound.

    The classes are weighed by ``_class_weights``, and ``activations``
    counts the weights its cap zeroed.  Where phi_q = 1 and the cap zeroed
    none, every weight is a monomial in z, so d log K'(Y)/dz =
    (p_Y - |Y| p_q) / z and the derivative of the cluster sum is exact."""
    gas = _gas(model, q, cutoffs.size_cap)
    index, ursell = gas.shape.cluster_arrays(cutoffs.norm_cap)
    if engine is None:
        engine = WeightEngine(model, z, cutoffs.size_cap)
    w, dlog_w, capped = _class_weights(engine, gas)

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
        complex(terms.sum()), eta, bound, len(ursell), cert, cutoffs, capped, derivative,
    )


def _class_weights(engine: WeightEngine, gas: _Gas):
    """The truncated weights K'(Y) = rho(Y) theta_q^{-|Y|} phi_q of a record's
    classes at the engine's z (phi_q is one number: no class has interiors),
    with those above the cap zeroed; their logarithmic z-derivatives where
    exact (else None); and how many weights the cap zeroed."""
    z, arr = engine.z, gas.arrays
    thq = engine.theta[gas.q]
    if thq == 0:
        return np.zeros(len(gas.classes), dtype=complex), None, 0
    factor = engine.phase_factor(gas.q)
    w = gas.rho(z) * thq**-arr.sizes * factor
    capped = np.abs(w) > np.exp(-(engine.tau / 2.0) * arr.sizes)
    w[capped] = 0
    if factor != 1.0 or z == 0 or capped.any():
        return w, None, int(capped.sum())
    return w, (arr.power - arr.sizes * arr.ground_power) / z, 0


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
    geo = gas.shape.geometry
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
    engine (and hence one tau), with h'_m = d log zeta_m / dz = p_m / z +
    ds_m/dz wherever ``polymer_pressure`` has the derivative; ``activations``
    sums the phases' capped weights."""
    engine = WeightEngine(model, z, cutoffs.size_cap)
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
    activations = sum(e.pressure.activations for e in out.values() if e.pressure)
    return FreeEnergyTable(z, out, stable, engine.tau, activations)


def zeta(model: SpinModel, m, z: complex, cutoffs: Cutoffs = Cutoffs()):
    """The metastable entry for one phase (computing the full table so that
    the free-energy gap a_m is normalized against the stable phase)."""
    return free_energy_table(model, z, cutoffs)[m]


# -- finite-volume torus analogue ---------------------------------------------------


EXACT_PLACEMENT_BUDGET = 120


def finite_volume_zeta(
    model: SpinModel, m, L: int, z: complex, cutoffs: Cutoffs = Cutoffs()
) -> complex:
    """zeta_m^{(L)} = theta_m exp(s_m^{(L)}) with the pressure of the wrapped
    contour gas on the torus: exact logarithm of the placement sum for small
    tori, cluster expansion with torus (wrapped) incompatibility beyond."""
    engine = WeightEngine(model, z, cutoffs.size_cap)
    th = engine.theta[m]
    if th == 0:
        return 0j
    gas = _gas(model, m, cutoffs.size_cap)
    n, placements = gas.shape.placements(L)
    if not placements:
        return th
    w = _class_weights(engine, gas)[0][[ci for ci, _ in placements]].tolist()
    masks = [mask for _, mask in placements]
    if len(placements) <= EXACT_PLACEMENT_BUDGET:
        zsum = independent_set_sum(masks, w)
        return th * cmath.exp(cmath.log(zsum) / n)
    ids = tuple(range(len(placements)))
    edges = [
        (i, j)
        for i in ids
        for j in ids[i + 1:]
        if masks[i] & masks[j]
    ]
    sizes = {i: gas.shape.sizes[placements[i][0]] for i in ids}
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
    if _inside_hull(p, pts):
        return 0.0
    best = math.inf
    for a, b in itertools.combinations(pts, 2):
        ab = b - a
        t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / max(abs(ab) ** 2, 1e-300)
        t = min(1.0, max(0.0, t))
        best = min(best, abs(p - (a + t * ab)))
    return best


def _inside_hull(p, pts):
    """Whether p lies in some triangle of the points: in the plane their
    hull is the union of those triangles (Caratheodory).  Triangles of
    collinear points are skipped; ``_hull_distance`` measures segments."""
    for a, b, c in itertools.combinations(pts, 3):
        # twice the signed areas of the triangles p makes with each edge
        s = [((w - v).conjugate() * (p - v)).imag for v, w in ((a, b), (b, c), (c, a))]
        area = sum(s)
        if abs(area) > 1e-12 and min(x * math.copysign(1.0, area) for x in s) >= -1e-12:
            return True
    return False


def _separations(v: dict):
    """The least distance between two of the values, and the least distance
    from one of them to the hull of the others (inf below three values)."""
    pairs = min(abs(a - b) for a, b in itertools.combinations(v.values(), 2))
    if len(v) < 3:
        return pairs, math.inf
    return pairs, min(_hull_distance(v[m], [v[x] for x in v if x != m]) for m in v)


def nondegeneracy_check(model: SpinModel, zs, cutoffs: Cutoffs = Cutoffs()) -> dict:
    """Non-degeneracy diagnostics over a z sample, one free-energy table per z.

    Wherever two (or more) phases are simultaneously within the almost-ground
    comparison window, measure the pairwise separation of the logarithmic
    theta derivatives p_m / z, the convex-position margin for triples and
    beyond, and the same separation for the dressed zeta functions (which the
    theory lowers by at most 2 e^{-tau/2}), from the table's h'_m.  An active
    phase without an exact h'_m takes log(zeta(z+eps) / zeta(z-eps)) / (2 eps)
    instead, counted in ``fd_fallbacks``; the ratio keeps the difference off
    the branch cut of the logarithm.
    """
    reps = model.orbit_representatives()
    alpha_pairs = math.inf
    alpha_hull = math.inf
    alpha_hull_zeta = math.inf
    alpha_zeta = math.inf
    checked_pairs = 0
    checked_hulls = 0
    fd_fallbacks = 0
    for z in zs:
        tab = free_energy_table(model, z, cutoffs)
        tmax = max(abs(tab[m].theta) for m in reps)
        active = [m for m in reps if abs(tab[m].theta) >= tmax * math.exp(-1.0)]
        if len(active) < 2:
            continue
        vzeta = {m: tab[m].dlog for m in active}
        missing = [m for m in active if vzeta[m] is None]
        if missing:
            eps = 1e-5 * (1.0 + abs(z))
            up = free_energy_table(model, z + eps, cutoffs)
            dn = free_energy_table(model, z - eps, cutoffs)
            for m in missing:
                vzeta[m] = cmath.log(up[m].zeta / dn[m].zeta) / (2 * eps)
            fd_fallbacks += len(missing)
        pairs, hull = _separations({m: _theta_prime(model, m, z) / tab[m].theta for m in active})
        alpha_pairs, alpha_hull = min(alpha_pairs, pairs), min(alpha_hull, hull)
        pairs, hull = _separations(vzeta)
        alpha_zeta, alpha_hull_zeta = min(alpha_zeta, pairs), min(alpha_hull_zeta, hull)
        checked_pairs += len(active) * (len(active) - 1) // 2
        checked_hulls += len(active) >= 3
    return {
        "alpha_pairs": alpha_pairs,
        "alpha_hull": alpha_hull,
        "alpha_hull_zeta": alpha_hull_zeta,
        "alpha_zeta": alpha_zeta,
        "pairs_checked": checked_pairs,
        "hulls_checked": checked_hulls,
        "vacuous": checked_pairs == 0,
        "fd_fallbacks": fd_fallbacks,
    }
