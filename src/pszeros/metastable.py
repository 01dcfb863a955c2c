"""Truncated contour weights and metastable free energies.

For each phase q the contour gas with weights K_q(Y) = rho(Y) theta_q^{-|Y|}
is summed by cluster expansion to a polymer pressure s_q; the metastable
weight is zeta_q = theta_q e^{s_q} and f_q = -log|zeta_q| its free energy.
Where a phase is unstable, large contours are suppressed by a smooth
mollifier phi_q of free-energy differences, and a hard cap exp(-(tau/2)|Y|)
(which must never activate in a consistent run) keeps the weights inside
the certified convergence region.  phi_q is one formula (``_phi``) for a
point, an annulus of |z| and a contour of a finite region.
``WeightEngine`` weighs contours of finite regions, with interiors; the
gases below need no engine.

The gases of a model's phases have no interiors, so each truncated weight
is A_Y z^{n_Y} phi_q and each s_q a Laurent polynomial sum a z^n phi_q^k of
a few terms.  What does not depend on z is kept in two records.  The
shape record holds the class geometry (d, R, per class its support and
volume): the overlap offsets, the certificate geometry, per norm cap the
cluster skeleton as an index matrix, and per torus side the wrapped
placements; a value-keyed cache shares it among the phases and models with
that geometry.  Held on the model (``SpinModel.gas``), the phase-stacked
record of some phases at a support cap (``_record``) is built from their
contour classes and holds, per phase and class, exp(-c), its log-modulus
and the z powers, and one polynomial per (norm cap, phase, capped
classes), built on first use.  A permutation of the spins maps one phase's
classes onto another's with the same supports, so the phases share one
shape record, which the stacked record checks.  A table (``_pressures``) of
the orbit representatives' record takes tau from ``estimate_tau``, per
phase log|theta_q| and phi_q, the capped classes from the real log-moduli
log|rho(Y)| = log|exp(-c)| + p log|z| (the pass that ``estimate_tau``
reads), and the polynomial's terms; ``polymer_pressure`` reads a phase's
own one-phase record, so only that phase's certificate decides;
``finite_volume_zeta`` weighs a ``_phase_row``'s classes on the torus.

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
A verdict next to each certificate (``_Phases.closed``) holds where phi_q =
1 and no class is capped across the annulus; there ``_closed_entries`` reads
the table's entries bit for bit from the uncapped polynomials, per point.

Desk-scale note: tau and the entropy constant c0 are estimated from the
model and reported.  The weights take c0 = 0 and the tau measured on
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
from .models import SpinModel, check_finite, pair_weight, theta, theta_max
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


def _phi(tau: float, logs: dict, q) -> float:
    """phi_q: the product over the phases m != q in ``logs`` of the cutoff
    at tau/4 + l_q - l_m.  ``logs`` holds per phase its log-values l at a
    point, or at both ends of an annulus, and each factor then takes the
    larger end.  A phase absent from ``logs`` (theta_m = 0) gives the
    factor 1; phi_q = 0 when q is absent."""
    if q not in logs:
        return 0.0
    out = 1.0
    for m, ends in logs.items():
        if m != q:
            out *= mollifier_eval(max(tau / 4.0 + a - b for a, b in zip(logs[q], ends)))[0]
    return out


def _log_thetas(model: SpinModel, points) -> dict:
    """Per phase m with theta_m != 0 at every point, log|theta_m| there: the
    ``logs`` of ``_phi`` for contours without interiors."""
    th = {m: [abs(theta(model, m, z)) for z in points] for m in model.spins}
    return {m: [math.log(t) for t in ts] for m, ts in th.items() if all(ts)}


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
    _check_point(model, z)
    return float(_rates(model, abs(z), size_cap).min(initial=math.inf))


def _check_point(model: SpinModel, z: complex) -> None:
    """A ModelError naming z, as the caller passed it, where z is not
    finite or where some theta_m diverges (z = 0 with a negative power)."""
    check_finite(z)
    if z == 0:
        theta_max(model, z)


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

    Its one job is finite regions, whose contours have interiors; the gases
    of tables, ``polymer_pressure`` and ``finite_volume_zeta`` have none and
    are weighed without an engine (``_class_weights``).  The induction over
    region volume is realized by memoized recursion: a
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
        """phi_q (``_phi``) of a q-contour of the given size around the given
        interior, at log|Z'_m(interior)| / size + log|theta_m| per phase m
        (Z'_m = 0 drops m, like theta_m = 0); without interiors it is the
        same for every q-contour."""
        logs = {}
        for m, log_thm in self.log_theta.items():
            zm = self.zprime(interior, m) if interior else 1.0
            if zm:
                logs[m] = (math.log(abs(zm)) / size + log_thm,)
        return _phi(self.tau, logs, q)

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


_CODE_BASE = 2**15  # B of the offset and placement code (see _Shape)


class _Shape:
    """The coupling- and z-free part of a contour gas, fixed by d, R and,
    per class in class order, its sorted support and its sorted volume (see
    the module docstring); each part is built on first use.  Classes enter
    as their (support, volume) coordinate tuples, and no contour, model or
    energy is held.

    Offsets and placements are held as integer codes: code(v) = sum v_k
    B^(d-1-k) with B = _CODE_BASE.  The code is additive (code(v + w) =
    code(v) + code(w)), and on vectors whose coordinates all lie in
    (-B/2, B/2) it is one to one and sorts like the coordinate tuples.  The
    overlap offsets are dropped once the cluster arrays and the geometry
    are built, so another norm cap searches them again."""

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
        """Per pair of classes (i, j), the sorted codes of the offsets a - b
        (a in support i, b in support j) at which class j placed relative to
        class i overlaps it.  A BudgetError is raised where the supports'
        coordinates span B/2 or more along an axis (the code would not be one
        to one) or where the search keys would not fit an int64."""
        if not self.supports:
            return []
        arrays = [np.array(sup) for sup in self.supports]
        every = np.concatenate(arrays)
        lo, extent = every.min(axis=0), np.ptp(every, axis=0)
        # the codes of the supports translated by -lo lie in [0, width], so
        # code(a - b) in [-width, width]; one pass per class i codes (j, a - b)
        # as j span + width + code(a - b), which sorts like (j, a - b)
        width = sum(int(e) * _CODE_BASE ** (self.d - 1 - k) for k, e in enumerate(extent))
        span = 2 * width + 1
        if 2 * int(extent.max()) >= _CODE_BASE or len(arrays) * span >= 2**63:
            raise BudgetError(f"{len(arrays)} classes of coordinate extent {int(extent.max())} "
                              f"in d = {self.d} overflow the offset code")
        radix = _CODE_BASE ** np.arange(self.d - 1, -1, -1)
        codes = [(a - lo) @ radix for a in arrays]
        shifted = np.repeat(np.arange(len(codes)) * span + width, self.sizes) \
            - np.concatenate(codes)
        cuts = np.arange(1, len(codes)) * span
        out = []
        for ci in codes:
            keys = np.sort(ci[:, None] + shifted, axis=None)
            # distinct keys; np.unique would do, but it imports numpy.ma,
            # which costs about 1 MiB of resident memory
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            diffs = keys % span - width
            out.append([part.tolist() for part in np.split(diffs, np.searchsorted(keys, cuts))])
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

        A placement is (class, code of its offset), and a set of them is
        translated by subtracting its least code, which is its least offset;
        two placements overlap when the difference of their codes is one of
        the pair's offset codes.  Two placements of a connected set under the
        norm cap lie at most (norm_cap // min |Y| - 1) overlap offsets
        apart, each coordinate of which is at most the supports' coordinate
        range; where that reach is not below B/2 a code could wrap, and a
        BudgetError is raised instead.
        """
        sizes, offsets = self.sizes, self.offsets
        if sizes:
            coords = [c for sup in self.supports for x in sup for c in x]
            reach = (int(norm_cap // min(sizes)) - 1) * (max(coords) - min(coords))
            if 2 * reach >= _CODE_BASE:
                raise BudgetError(f"norm cap {norm_cap} reaches offsets past the "
                                  f"placement code's bound {_CODE_BASE // 2}")
        # connected placement sets up to translation, each held as its sorted
        # placements translated to least code 0, grown from class i0 at 0;
        # growth ends where every further class would pass the norm cap.  The
        # growths of translates are translates, so each set is grown once
        placement_sets = set()

        def grow(pset, base_norm):
            for cj, size in enumerate(sizes):
                if base_norm + size > norm_cap:
                    continue
                for ci, oi in pset:
                    for rel in offsets[ci][cj]:
                        cand = (cj, oi + rel)
                        if cand in pset:
                            continue
                        if cand[1] < 0:  # the new least code
                            key = tuple(sorted([(c, o - cand[1]) for c, o in pset] + [(cj, 0)]))
                        else:
                            key = tuple(sorted(pset + (cand,)))
                        if key not in placement_sets:
                            placement_sets.add(key)
                            grow(key, base_norm + size)

        for i0, size in enumerate(sizes):
            if size <= norm_cap:
                placement_sets.add(((i0, 0),))
                grow(((i0, 0),), size)

        overlap = {}  # the offset codes of a pair of classes as a set, on first use

        def overlaps(ca, cb, rel):
            if (ca, cb) not in overlap:
                overlap[ca, cb] = frozenset(offsets[ca][cb])
            return rel in overlap[ca, cb]

        entries = []
        for pset in sorted(placement_sets):
            ids = tuple(range(len(pset)))
            # (ca, oa) and (cb, ob) overlap exactly when ob - oa is an offset
            # at which class cb placed relative to class ca overlaps it
            incompat = [
                (a, b)
                for (a, (ca, oa)), (b, (cb, ob)) in itertools.combinations(enumerate(pset), 2)
                if overlaps(ca, cb, ob - oa)
            ]
            part_sizes = {i: sizes[ci] for i, (ci, _) in enumerate(pset)}
            sys_stub = PolymerSystem.build(ids, {i: 0j for i in ids}, incompat, part_sizes)
            for mult, _, u in multi_indices(sys_stub, ids, norm_cap):
                entries.append((tuple((pset[i][0], mult[i]) for i in ids), u))
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


class _Phases:
    """The phase-stacked record of some phases' contour classes at one
    support cap (see the module docstring).  The weights have no interior
    ratios, so a class with interiors is refused (a BudgetError), and the
    phases' class geometries must share one shape record (a RuntimeError
    otherwise).  Only arrays are kept: per phase (row) and class (column),
    exp(-c), its log-modulus and p of the energy pair (rho(Y) = exp(-c)
    z^p), and A_Y = exp(-c_Y) exp(-c_q)^{-|Y|} and n_Y = p_Y - |Y| p_q (K(Y)
    = A_Y z^{n_Y}); per class |Y|; and, made on first use, its annuli's
    certificates, closed-form verdicts and the pressure polynomials."""

    def __init__(self, model: SpinModel, phases: tuple, size_cap: int):
        self.phases = phases
        classes = [contour_classes(model, q, size_cap) for q in phases]
        if any(y.interiors for row in classes for y in row):
            raise BudgetError(f"size cap {size_cap} admits contour classes with interiors")
        shapes = [_shape((model.dimension, model.range, tuple(
            (tuple(sorted(y.support)), tuple(sorted(y.volume))) for y in row
        ))) for row in classes]
        self.shape = shapes[0]
        if any(shape is not self.shape for shape in shapes):
            raise RuntimeError(f"the gases of phases {self.phases} have distinct shape records")
        pairs = [y.energy_pair(model) for row in classes for y in row]
        dims = (len(phases), len(self.shape.sizes))
        self.rho0 = np.array([cmath.exp(-c) for c, _ in pairs], dtype=complex).reshape(dims)
        self.log_rho0 = -np.array([c.real for c, _ in pairs]).reshape(dims)
        self.power = np.array([p for _, p in pairs], dtype=float).reshape(dims)
        self.sizes = np.array(self.shape.sizes, dtype=float)
        c_q, p_q = np.array([model.ground_pair(m) for m in self.phases], complex).T[:, :, None]
        self.coef = self.rho0 * np.exp(c_q * self.sizes)
        self.dpower = self.power - self.sizes * p_q.real
        self._annuli, self._polynomials, self._closed = {}, {}, {}

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

    def closed(self, model: SpinModel, size_cap: int, r: float) -> bool:
        """The verdict on the level-0 annulus of |z| = r > 0, made once: every
        phase certified, and with _CLOSED_MARGIN to spare, phi_q = 1 at tau_lo
        and log|K(Y)| / |Y| + tau_up / 2 < 0 (``_tau_bounds``) at both ends,
        hence across the annulus: each side is linear in log r."""
        ends = _annulus(r, 0)
        if ends not in self._closed:
            if r:  # the level-0 certificates come first; a refusal raises as a table's
                self.certificates(model, size_cap, r)
            ok = bool(r) and all(ok for ok, _ in self._annuli[ends])
            if ok:
                lo, up = _tau_bounds(model, size_cap, *ends)
                logs = _log_thetas(model, ends)
                at = [{m: ls[i:i + 1] for m, ls in logs.items()} for i in (0, 1)]
                ok = all(_phi(lo - 4.0 * _CLOSED_MARGIN, at[i], q) == 1.0 and (
                    self.log_moduli(e)[row] / self.sizes - logs[q][i] < -_CLOSED_MARGIN - up / 2.0
                ).all() for row, q in enumerate(self.phases) for i, e in enumerate(ends))
            self._closed[ends] = ok
        return self._closed[ends]


def _record(model: SpinModel, size_cap: int, phases: tuple) -> _Phases:
    """The phase-stacked record of the given phases at the given support
    cap, built once per model."""
    key = (size_cap, phases)
    if key not in model.gas:
        model.gas[key] = _Phases(model, phases, size_cap)
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
    activations: int = 0  # weights of this phase that the cap zeroed
    derivative: complex | None = None  # ds/dz where exact, else None


def polymer_pressure(
    model: SpinModel, q, z: complex, cutoffs: Cutoffs = Cutoffs()
) -> PressureResult:
    """The contour-gas pressure s_q at z: rooted cluster sum per site of the
    truncated weights, with the certified exponential tail bound;
    ``_pressures`` of phase q's one-phase record."""
    tau = estimate_tau(model, z, cutoffs.size_cap)
    return _pressures(model, _record(model, cutoffs.size_cap, (q,)), z, tau, cutoffs)[0]


def _pressures(model: SpinModel, record: _Phases, z, tau: float, cutoffs: Cutoffs) -> list:
    """``PressureResult`` of the record's phases at z and tau, with their
    annuli's certificates: each phase's polynomial (``_Phases.polynomial``)
    without the classes the cap zeroed (``_caps``; ``activations`` counts
    them) at z and phi_q, and where phi_q = 1 and none is capped, the exact
    ds/dz = sum n a z^n / z.  z^n is Python's complex power: products for
    integer n, e^{n Log z} otherwise, and 1 at z = 0 for n = 0, so z = 0
    takes the same code."""
    phi, capped = _caps(model, record, z, tau)
    etas = record.certificates(model, cutoffs.size_cap, z)
    n_clusters = len(record.shape.cluster_arrays(cutoffs.norm_cap)[1])
    z = complex(z)
    out = []
    for row, (f, cap, eta) in enumerate(zip(phi, capped, etas)):
        # phi_q = 0 zeroes every term: each has a part
        value, slope = _poly_sum(record.polynomial(cutoffs.norm_cap, row, cap) if f else (), z, f)
        derivative = slope / z if f == 1.0 and not cap and z != 0 else None
        bound = math.exp(-eta * cutoffs.norm_cap) if eta > 0 else math.inf
        out.append(PressureResult(value, eta, bound, n_clusters, len(cap), derivative))
    return out


def _poly_sum(poly: tuple, z: complex, f: float) -> tuple:
    """s = sum a z^n f^k and z ds/dz of a pressure polynomial at z and phi_q = f."""
    value = slope = 0j
    for a, n, k in poly:
        term = a * z**n * f**k
        value += term
        slope += n * term
    return value, slope


def _caps(model: SpinModel, record: _Phases, z, tau: float):
    """Per phase of the record, phi_q (``_phi``) at z and tau and the
    classes whose weights the cap zeroes, from real log-moduli: log|rho(Y)|
    - |Y| log|theta_q| + log phi_q > -(tau/2)|Y|."""
    logs = _log_thetas(model, (z,))
    phi = [_phi(tau, logs, q) for q in record.phases]
    # per phase (tau/2 - log|theta_q|, -log phi_q); phi_q = 0 caps nothing
    c = np.array([(tau / 2.0 - logs[q][0], -math.log(f)) if f else (0.0, math.inf)
                  for q, f in zip(record.phases, phi)])
    capped = record.log_moduli(abs(z)) - c[:, 1:] > -c[:, :1] * record.sizes
    if not capped.any():
        return phi, [()] * len(phi)
    return phi, [tuple(np.flatnonzero(row).tolist()) for row in capped]


def _class_weights(model: SpinModel, record: _Phases, z, tau: float) -> np.ndarray:
    """The truncated weights K'(Y) = A_Y z^{n_Y} phi_q of the classes of the
    record's phases at z and tau, one row per phase, with those that
    ``_caps`` names zeroed."""
    phi, capped = _caps(model, record, z, tau)
    w = record.coef * complex(z) ** record.dpower * np.array(phi)[:, None]
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
_CLOSED_MARGIN = 1e-9  # rounding may send a point to a table, never the other way


def _annulus(r: float, level: int) -> tuple:
    """The annulus [e^{bW}, e^{(b+1)W}] that holds |z| = r, b = floor(log r /
    W), on the grid of width W = _ANNULUS_WIDTH / 2^level; [0, 0] at r = 0."""
    if r == 0:
        return 0.0, 0.0
    width = _ANNULUS_WIDTH / 2**level
    b = math.floor(math.log(r) / width)
    return math.exp(b * width), math.exp((b + 1) * width)


def _tau_bounds(model: SpinModel, size_cap: int, r1: float, r2: float) -> tuple:
    """(tau_lo, tau_up), tau_lo <= tau <= tau_up at every r1 <= |z| <= r2.
    A class's rate (``_rates``) is log max|theta_m|, convex and piecewise
    linear in log r, less a linear function: tau_up is the least larger end
    rate, and tau_lo, as tau is a min of linear functions between the kinks
    of log max|theta_m|, the least tau at the ends and the kinks inside."""
    ends = [_rates(model, r, size_cap) for r in (r1, r2)]
    pairs = itertools.combinations([model.ground_pair(m) for m in model.orbit_representatives()], 2)
    kinks = [math.exp((c.real - d.real) / (p - k)) for (c, p), (d, k) in pairs if p != k]
    inner = [_rates(model, r, size_cap) for r in kinks if r1 < r < r2]
    return (min(float(t.min(initial=math.inf)) for t in ends + inner),
            float(np.maximum(*ends).min(initial=math.inf)))


def _annulus_bounds(model: SpinModel, record: _Phases, size_cap: int, r1: float, r2: float):
    """Per phase q and class Y of the record, B_Y = |exp(-c_Y)|
    |exp(-c_q)|^{-|Y|} max(r1^k, r2^k) phi_up >= |K'_q(Y)| at every r1 <=
    |z| <= r2, with k = p_Y - |Y| p_q (a capped weight is 0).  Each factor
    of phi_q (``_phi``) is nondecreasing in tau/4 + log|theta_q / theta_m|,
    linear in log r, so phi_up takes each at tau_up (``_tau_bounds``) and
    its larger end.  Scalar powers: numpy's vector power and modulus
    differ from libm's in the last bit."""
    tau = _tau_bounds(model, size_cap, r1, r2)[1]
    logs = _log_thetas(model, (r1, r2))
    sizes, out = record.sizes.tolist(), []
    for q, rho0, ks in zip(record.phases, record.rho0.tolist(), record.dpower.tolist()):
        f = _phi(tau, logs, q)  # theta_q = 0 (at r = 0) empties the row
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
    """zeta_m, f_m and a_m for every phase at one point, sharing one tau,
    with h'_m = d log zeta_m / dz = p_m / z + ds_m/dz wherever
    ``_pressures`` has the derivative; ``activations`` sums the phases'
    capped weights."""
    tau = estimate_tau(model, z, cutoffs.size_cap)
    record = _record(model, cutoffs.size_cap, model.orbit_representatives())
    pressures = _pressures(model, record, z, tau, cutoffs)
    entries = _phase_entries(model, z, [(p.value, p.derivative, p) for p in pressures])
    stable = tuple(sorted((m for m, e in entries.items() if e.a < STABLE_TOL), key=str))
    activations = sum(e.pressure.activations for e in entries.values() if e.pressure)
    return FreeEnergyTable(z, entries, stable, tau, activations)


def _phase_entries(model: SpinModel, z, sums: list) -> dict:
    """``PhaseEntry`` per orbit representative m at z from its (s_m, ds_m/dz
    or None, pressure), in the order of the representatives."""
    rows = []
    for m, (s, ds, pres) in zip(model.orbit_representatives(), sums):
        th = theta(model, m, z)
        if th == 0:
            rows.append((m, th, 0j, 0j, math.inf, None, None))
            continue
        zeta_m = th * cmath.exp(s)
        dlog = None if ds is None else model.ground_pair(m)[1] / z + ds
        rows.append((m, th, s, zeta_m, -math.log(abs(zeta_m)), pres, dlog))
    fmin = min(f for _, _, _, _, f, _, _ in rows)
    return {
        m: PhaseEntry(m, th, s, zeta_m, f, f - fmin if f < math.inf else math.inf, pres, dlog)
        for m, th, s, zeta_m, f, pres, dlog in rows
    }


def _closed_entries(model: SpinModel, z, cutoffs: Cutoffs = Cutoffs()):
    """``free_energy_table``'s entries at z, bit for bit but with ``pressure``
    None, from the polynomials at phi_q = 1; None where ``_Phases.closed`` refuses."""
    _check_point(model, z)
    record = _record(model, cutoffs.size_cap, model.orbit_representatives())
    if not record.closed(model, cutoffs.size_cap, abs(z)):
        return None
    zc, cap = complex(z), cutoffs.norm_cap
    sums = [_poly_sum(record.polynomial(cap, row), zc, 1.0) for row in range(len(record.phases))]
    return _phase_entries(model, z, [(s, ds / zc, None) for s, ds in sums])


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
    tau = estimate_tau(model, z, cutoffs.size_cap)
    th = theta(model, m, z)
    if th == 0:
        return 0j
    record, row = _phase_row(model, m, cutoffs.size_cap)
    n, placements = record.shape.placements(L)
    if not placements:
        return th
    w = _class_weights(model, record, z, tau)[row][[ci for ci, _ in placements]].tolist()
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
