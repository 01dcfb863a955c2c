"""Truncated contour weights and metastable free energies.

For each phase q the contour gas with weights K_q(Y) = rho(Y) theta_q^{-|Y|}
is summed by cluster expansion to a polymer pressure s_q; the metastable
weight is zeta_q = theta_q e^{s_q} and f_q = -log|zeta_q| its free energy.
Where a phase is unstable, large contours are suppressed by a smooth
mollifier phi_q of free-energy differences, and a hard cap exp(-(tau/2)|Y|)
(which must never activate in a consistent run) keeps the weights inside
the certified convergence region.  ``WeightEngine`` weighs contours of
finite regions, with interiors.

The gases of a model's phases have no interiors, so each truncated weight
is A_Y z^{n_Y} phi_q and each s_q a Laurent polynomial sum a z^n phi_q^k of
a few terms.  What does not depend on z is kept in three records.  The
shape record holds the class geometry (d, R, per class its support and
volume): the overlap offsets, the certificate geometry, per norm cap the
cluster skeleton as an index matrix, and per torus side the wrapped
placements; a value-keyed cache shares it among the phases and models with
that geometry.  Held on the model (``SpinModel.gas``), the gas record of a
(phase, support cap) holds the phase's contour classes with their energy
pairs, and the phase-stacked record of some phases (``_record``) holds, per
phase and class, exp(-c), its log-modulus and the z powers, and one
polynomial per (norm cap, phase, capped classes), built on first use.  A
permutation of the spins maps one phase's classes onto another's with the
same supports, so the phases share one shape record, which the stacked
record checks.  A table (``_pressures``) of the orbit representatives'
record takes per phase log|theta_q| and phi_q, the capped classes from the
real log-moduli log|rho(Y)| = log|exp(-c)| + p log|z| (the pass that
``estimate_tau`` reads), and the polynomial's terms; ``polymer_pressure``
reads a phase's own one-phase record, so only that phase's certificate
decides; ``finite_volume_zeta`` weighs a ``_phase_row``'s classes on the torus.

The convergence certificate depends on |z| alone, as tau and phi_q do, so a
stacked record keeps one per annulus r1 <= |z| <= r2 of a grid in log |z|,
made at bounds on the weights across it: ``eta`` and ``error_bound`` are a
lower and an upper bound over the annulus, while tau and the sums stay
pointwise.  A failed annulus is halved towards |z| before a refusal.

Where neither phi_q nor the cap touches a phase's weights, zeta_q is
holomorphic, and the table carries d log zeta_q / dz in closed form
(``PhaseEntry.dlog``); elsewhere that entry is None and callers fall back
to finite differences.  ``nondegeneracy_check`` measures Assumption B on
these closed forms: theta_q' / theta_q = p_q / z, and the table's h'_q.

Desk-scale note: tau and the entropy constant c0 are estimated from the
model and reported.  The engine runs with c0 = 0 and the tau measured on
the gas being weighed; the certified asymptotic constants (tau >= 4 c0 +
16) are only checked against, in ``estimated_constants``, never assumed.
"""

from __future__ import annotations

import cmath
import itertools
import math
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


def estimate_tau(model: SpinModel, z: complex, size_cap: int = Cutoffs.size_cap) -> float:
    """Measured Peierls rate: the infimum over enumerated contours of
    -log(|rho(Y)| / theta(z)^{|Y|}) / |Y|; it depends on |z| alone."""
    return float(_rates(model, abs(z), size_cap).min(initial=math.inf))


def _rates(model: SpinModel, r: float, size_cap: int) -> np.ndarray:
    """The rates log max|theta| - log|rho(Y)| / |Y| at |z| = r per phase and
    class of the orbit representatives' record, from real log-moduli
    (``_Phases.log_moduli``); rho = 0 or theta = 0 gives +inf."""
    record, th = _record(model, size_cap, model.orbit_representatives()), theta_max(model, r)
    if th == 0:
        return np.full(record.power.shape, math.inf)
    return math.log(th) - record.log_moduli(r) / record.sizes


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
        self.log_theta = {m: math.log(abs(th)) for m, th in self.theta.items() if th}
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
        if q not in self.log_theta:  # theta_q = 0
            return 0.0
        zq = self.zprime(interior, q) if interior else 1.0 + 0j
        if zq == 0:
            return 0.0
        log_num = math.log(abs(zq)) / size + self.log_theta[q]
        out = 1.0
        for m, log_thm in self.log_theta.items():  # theta_m = 0: interpreted as chi = 1
            if m == q:
                continue
            zm = self.zprime(interior, m) if interior else 1.0 + 0j
            if zm == 0:
                continue
            x = self.tau / 4.0 + log_num - (math.log(abs(zm)) / size + log_thm)
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
_ETA_CAP = 8.0
_ETA_TOL = 2.0**-14  # largest loss of eta to the t grid's chords
_T_MAX = max(_A_SCALES) + _ETA_CAP


_CertificateGeometry = namedtuple("_CertificateGeometry", "sizes volumes offsets rows grid_exp step")


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
    this model's contour classes, which carry its energy pairs; ``shape`` is
    the record of their geometry, shared with every phase and model whose
    classes have the same geometry.  The weights have no interior ratios, so
    a class with interiors is refused."""

    def __init__(self, model: SpinModel, q, size_cap: int):
        self.q = q
        self.classes = tuple(contour_classes(model, q, size_cap))
        if any(y.interiors for y in self.classes):
            raise BudgetError(f"size cap {size_cap} admits contour classes with interiors")
        self.shape = _shape((model.dimension, model.range, tuple(
            (tuple(sorted(y.support)), tuple(sorted(y.volume))) for y in self.classes
        )))


def _gas(model: SpinModel, q, size_cap: int) -> _Gas:
    """Phase q's gas record at the given support cap, built once per model."""
    key = (q, size_cap)
    if key not in model.gas:
        model.gas[key] = _Gas(model, q, size_cap)
    return model.gas[key]


class _Phases:
    """The phase-stacked record of some phases' gas records, which share
    one shape record (a RuntimeError otherwise): per phase (row) and class
    (column), exp(-c), its log-modulus and p of the energy pair (rho(Y) =
    exp(-c) z^p), and A_Y = exp(-c_Y) exp(-c_q)^{-|Y|} and n_Y = p_Y - |Y|
    p_q (K(Y) = A_Y z^{n_Y}); per class |Y|; and, made on first use, its
    annuli's certificates and the pressure polynomials."""

    def __init__(self, model: SpinModel, gases):
        self.phases = tuple(gas.q for gas in gases)
        self.shape = gases[0].shape
        if any(gas.shape is not self.shape for gas in gases):
            raise RuntimeError(f"the gases of phases {self.phases} have distinct shape records")
        pairs = [y.energy_pair(model) for gas in gases for y in gas.classes]
        dims = (len(gases), len(self.shape.sizes))
        self.rho0 = np.array([cmath.exp(-c) for c, _ in pairs], dtype=complex).reshape(dims)
        self.log_rho0 = -np.array([c.real for c, _ in pairs]).reshape(dims)
        self.power = np.array([p for _, p in pairs], dtype=float).reshape(dims)
        self.sizes = np.array(self.shape.sizes, dtype=float)
        c_q, p_q = np.array([model.ground_pair(m) for m in self.phases], complex).T[:, :, None]
        self.coef = self.rho0 * np.exp(c_q * self.sizes)
        self.dpower = self.power - self.sizes * p_q.real
        self._annuli, self._polynomials = {}, {}

    def log_moduli(self, r: float) -> np.ndarray:
        """log|rho(Y)| = log|exp(-c)| + p log r per phase and class at |z| =
        r; at r = 0, -inf for p > 0 and log|exp(-c)| for p = 0."""
        if r:
            return self.log_rho0 + self.power * math.log(r)
        return np.where(self.power == 0, self.log_rho0, np.copysign(math.inf, -self.power))

    def polynomial(self, norm_cap: float, row: int, capped: tuple = ()) -> tuple:
        """Phase ``row``'s truncated pressure s = sum a z^n phi^k with the
        classes in ``capped`` zeroed, as (a, n, k) triples, built once per
        key: an entry u prod A_Y z^{sum n_Y} phi^{parts} of the skeleton,
        summed per (n, k).  z^n = e^{n Log z} is the product of the parts'
        principal powers, half-integer n included."""
        key = (norm_cap, row, capped)
        if key not in self._polynomials:
            index, ursell = self.shape.cluster_arrays(norm_cap)
            # one column past the classes: the value of an unused part
            coef = np.append(self.coef[row], 1.0)
            coef[list(capped)] = 0.0
            n = np.append(self.dpower[row], 0.0)[index].sum(axis=1)
            terms = {}
            for a, nk in zip((ursell * coef[index].prod(axis=1)).tolist(),
                             zip(n.tolist(), (index < len(self.sizes)).sum(axis=1).tolist())):
                terms[nk] = terms.get(nk, 0.0) + a
            self._polynomials[key] = tuple((a, n, k) for (n, k), a in terms.items() if a)
        return self._polynomials[key]

    def certificates(self, model: SpinModel, size_cap: int, z) -> list:
        """Per phase, the eta certified on the annulus of |z| (``_annulus``),
        halved where the phase fails, up to _ANNULUS_SPLITS times; then a
        ConvergenceError names the annulus.  Each annulus is certified once,
        for every phase."""
        etas = {}
        for level in range(_ANNULUS_SPLITS + 1):
            ends = _annulus(abs(z), level)
            if ends not in self._annuli:
                bound = _annulus_bounds(model, self, size_cap, *ends)
                self._annuli[ends] = _certificates(self.shape.geometry, bound)
            for row, (ok, eta) in enumerate(self._annuli[ends]):
                if ok:
                    etas.setdefault(row, eta)
            if len(etas) == len(self.phases):
                return [etas[row] for row in range(len(self.phases))]
        raise ConvergenceError(f"contour-gas convergence certificate failed on the annulus "
                               f"{ends[0]!r} <= |z| <= {ends[1]!r}; refuse to expand")


def _record(model: SpinModel, size_cap: int, phases: tuple) -> _Phases:
    """The phase-stacked record of the given phases at the given support
    cap, built once per model."""
    key = (size_cap, phases)
    if key not in model.gas:
        model.gas[key] = _Phases(model, [_gas(model, q, size_cap) for q in phases])
    return model.gas[key]


def _phase_row(model: SpinModel, q, size_cap: int) -> tuple:
    """Phase q's record and its row index there: the orbit representatives'
    record, or for a phase that represents no orbit its one-phase record."""
    reps = model.orbit_representatives()
    phases = reps if q in reps else (q,)
    return _record(model, size_cap, phases), phases.index(q)


@dataclass(frozen=True)
class PressureResult:
    value: complex
    eta: float  # certified on the annulus of |z|: a lower bound over it
    error_bound: float  # exp(-eta * norm cap): an upper bound over the annulus
    n_clusters: int
    certified: bool
    truncation: Cutoffs
    activations: int = 0  # weights of this phase that the cap zeroed
    derivative: complex | None = None  # ds/dz where exact, else None


def polymer_pressure(
    model: SpinModel, q, z: complex, cutoffs: Cutoffs = Cutoffs()
) -> PressureResult:
    """The contour-gas pressure s_q at z: rooted cluster sum per site of the
    truncated weights, with the certified exponential tail bound;
    ``_pressures`` of phase q's one-phase record."""
    engine = WeightEngine(model, z, cutoffs.size_cap)
    return _pressures(engine, _record(model, cutoffs.size_cap, (q,)), cutoffs)[0]


def _pressures(engine: WeightEngine, record: _Phases, cutoffs: Cutoffs) -> list:
    """``PressureResult`` of the record's phases at the engine's z, with
    their annuli's certificates: each phase's polynomial
    (``_Phases.polynomial``) without the classes the cap zeroed (``_caps``;
    ``activations`` counts them) at z and phi_q, and where phi_q = 1 and
    none is capped, the exact ds/dz = sum n a z^n / z.  z^n is Python's
    complex power: products for integer n, e^{n Log z} otherwise, and 1 at z
    = 0 for n = 0, so z = 0 takes the same code."""
    z = complex(engine.z)
    phi, capped = _caps(engine, record)
    etas = record.certificates(engine.model, cutoffs.size_cap, engine.z)
    n_clusters = len(record.shape.cluster_arrays(cutoffs.norm_cap)[1])
    out = []
    for row, (f, cap, eta) in enumerate(zip(phi, capped, etas)):
        # phi_q = 0 zeroes every term: each has a part
        poly = record.polynomial(cutoffs.norm_cap, row, cap) if f else ()
        value = slope = 0j
        for a, n, k in poly:
            term = a * z**n * f**k
            value += term
            slope += n * term
        derivative = slope / z if f == 1.0 and not cap and z != 0 else None
        bound = math.exp(-eta * cutoffs.norm_cap) if eta > 0 else math.inf
        out.append(PressureResult(value, eta, bound, n_clusters, True, cutoffs, len(cap),
                                  derivative))
    return out


def _caps(engine: WeightEngine, record: _Phases):
    """Per phase of the record, phi_q (``phase_factor``) and the classes
    whose weights the cap zeroes, from real log-moduli: log|rho(Y)| - |Y|
    log|theta_q| + log phi_q > -(tau/2)|Y|."""
    phi = [engine.phase_factor(q) for q in record.phases]
    # per phase (tau/2 - log|theta_q|, -log phi_q); phi_q = 0 caps nothing
    c = np.array([(engine.tau / 2.0 - engine.log_theta[q], -math.log(f)) if f else (0.0, math.inf)
                  for q, f in zip(record.phases, phi)])
    capped = record.log_moduli(abs(engine.z)) - c[:, 1:] > -c[:, :1] * record.sizes
    if not capped.any():
        return phi, [()] * len(phi)
    return phi, [tuple(np.flatnonzero(row).tolist()) for row in capped]


def _class_weights(engine: WeightEngine, record: _Phases) -> np.ndarray:
    """The truncated weights K'(Y) = A_Y z^{n_Y} phi_q of the classes of the
    record's phases at the engine's z, one row per phase, with those that
    ``_caps`` names zeroed."""
    phi, capped = _caps(engine, record)
    w = record.coef * complex(engine.z) ** record.dpower * np.array(phi)[:, None]
    for row, cap in zip(w, capped):
        row[list(cap)] = 0
    return w


def _certificate_ok(geo, absw, alpha, eta):
    """The certificate predicate at scale alpha and decay rate eta."""
    boost = absw * np.exp((alpha + eta) * geo.sizes)
    if float(geo.volumes @ boost) > 1.0:
        return False
    return bool(np.all(geo.offsets @ boost <= alpha * geo.sizes))


def _certificates(geo, absw) -> list:
    """Convergence certificates of contour gases with one class geometry,
    one per row of class weight moduli; both conditions are monotone in
    them, so a row of bounds (``_annulus_bounds``) certifies all below it.

    Uses a(Y) = alpha |Y| (any positive scale is admissible) and requires
    both the neighbor-sum condition per contour class and the origin-rooted
    mass condition, which together turn the norm cutoff into an
    exp(-eta * norm) tail bound.  Returns per row (ok, best eta over the
    scales <= 8).

    Both conditions see eta only through t = alpha + eta: the mass sum
    A(t) <= 1 does not involve alpha, and the neighbor rows over |Y| give
    psi(t) <= alpha, so eta(alpha) = min(A^{-1}(1), psi^{-1}(alpha)) - alpha.
    Per row, one matmul takes the mass row and the neighbor rows over the t
    grid; searchsorted finds each root's cell (or an end cell) and a chord
    of the convex log row there bounds the root from below.  The predicate
    confirms the best scale.
    """
    out = []
    for w in absw:
        if not w.any():
            out.append((True, _ETA_CAP))
            continue
        rows = geo.rows * w @ geo.grid_exp
        i = int(rows[0, 1:-1].searchsorted(1.0, side="right"))
        # math.log, as in the one-gas oracle of tests/test_fast_paths.py:
        # numpy's log differs from it in the last bit on about one argument
        # in 10^4
        a0, a1 = math.log(rows[0, i]), math.log(rows[0, i + 1])
        t_mass = geo.step * (i - a0 / (a1 - a0))
        # the cells where the max of the neighbor rows crosses each alpha
        nb = rows[1:]
        cell = nb.max(axis=0)[1:-1].searchsorted(_A_SCALES, side="right")
        lo, hi = np.log(nb[:, cell]), np.log(nb[:, cell + 1])
        t_nb = geo.step * (cell + ((np.log(_A_SCALES) - lo) / (hi - lo)).min(axis=0))
        etas = np.minimum(t_nb, t_mass) - _A_SCALES
        k = int(etas.argmax())
        eta = min(float(etas[k]) - 1e-9, _ETA_CAP)  # 1e-9: room for rounding
        if eta < 0.0:
            # within _ETA_TOL of the boundary only the predicate can decide
            out.append((any(_certificate_ok(geo, w, a, 0.0) for a in _A_SCALES), 0.0))
        elif not _certificate_ok(geo, w, _A_SCALES[k], eta):
            raise ConvergenceError(f"gas certificate: eta={eta!r} fails its predicate")
        else:
            out.append((True, eta))
    return out


_ANNULUS_WIDTH = 0.01  # of the certificate grid, in log |z|
_ANNULUS_SPLITS = 6  # halvings of a failed annulus before a refusal


def _annulus(r: float, level: int) -> tuple:
    """The annulus [e^{bW}, e^{(b+1)W}] that holds |z| = r, b = floor(log r /
    W), on the grid of width W = _ANNULUS_WIDTH / 2^level; [0, 0] at r = 0."""
    if r == 0:
        return 0.0, 0.0
    width = _ANNULUS_WIDTH / 2**level
    b = math.floor(math.log(r) / width)
    return math.exp(b * width), math.exp((b + 1) * width)


def _annulus_bounds(model: SpinModel, record: _Phases, size_cap: int, r1: float, r2: float):
    """Per phase q and class Y of the record, B_Y = |exp(-c_Y)|
    |exp(-c_q)|^{-|Y|} max(r1^k, r2^k) phi_up >= |K'_q(Y)| at every r1 <=
    |z| <= r2, with k = p_Y - |Y| p_q (a capped weight is 0).  A class's
    rate (``_rates``) is log max|theta_m|, convex in log r, less a linear
    function, so tau <= tau_up, the least over classes of the larger end
    rate.  Each factor of phi_q (``phase_factor``) is nondecreasing in
    tau/4 + log|theta_q / theta_m|, linear in log r, so phi_up takes each
    at tau_up and its larger end.  Scalar powers: numpy's vector power and
    modulus differ from libm's in the last bit."""
    ends = [_rates(model, r, size_cap) for r in (r1, r2)]
    tau = float(np.maximum(*ends).min(initial=math.inf))
    th = {m: [abs(theta(model, m, r)) for r in (r1, r2)] for m in model.spins}
    sizes, out = record.sizes.tolist(), []
    for q, rho0, ks in zip(record.phases, record.rho0.tolist(), record.dpower.tolist()):
        # theta_q = 0 (at r = 0) empties the row, and theta_m = 0 gives 1
        f = 0.0 if not all(th[q]) else math.prod(
            mollifier_eval(max(tau / 4.0 + math.log(a) - math.log(b) for a, b in zip(th[q], th[m])))[0]
            for m in model.spins if m != q and all(th[m]))
        t = abs(theta(model, q, 1.0))  # |exp(-c_q)|; r = 0 with k < 0 gives inf
        out.append([f and abs(a) * t**-s * (max(r1**k, r2**k) if r2 or k >= 0 else math.inf) * f
                    for a, s, k in zip(rho0, sizes, ks)])
    return np.array(out)


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
    ds_m/dz wherever ``_pressures`` has the derivative; ``activations``
    sums the phases' capped weights."""
    engine = WeightEngine(model, z, cutoffs.size_cap)
    record = _record(model, cutoffs.size_cap, model.orbit_representatives())
    pressures = dict(zip(record.phases, _pressures(engine, record, cutoffs)))
    rows = []
    for m in model.orbit_representatives():
        th, pres = engine.theta[m], pressures[m]
        if th == 0:
            rows.append((m, th, 0j, 0j, math.inf, None, None))
            continue
        zeta_m = th * cmath.exp(pres.value)
        dlog = None if pres.derivative is None else model.ground_pair(m)[1] / z + pres.derivative
        rows.append((m, th, pres.value, zeta_m, -math.log(abs(zeta_m)), pres, dlog))
    fmin = min(f for _, _, _, _, f, _, _ in rows)
    entries = {
        m: PhaseEntry(m, th, s, zeta_m, f, f - fmin if f < math.inf else math.inf, pres, dlog)
        for m, th, s, zeta_m, f, pres, dlog in rows
    }
    stable = tuple(sorted((m for m, e in entries.items() if e.a < STABLE_TOL), key=str))
    activations = sum(e.pressure.activations for e in entries.values() if e.pressure)
    return FreeEnergyTable(z, entries, stable, engine.tau, activations)


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
    record, row = _phase_row(model, m, cutoffs.size_cap)
    n, placements = record.shape.placements(L)
    if not placements:
        return th
    w = _class_weights(engine, record)[row][[ci for ci, _ in placements]].tolist()
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
    sizes = {i: record.shape.sizes[placements[i][0]] for i in ids}
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
