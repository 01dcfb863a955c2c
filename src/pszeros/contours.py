"""Contours: extraction from configurations, matching, and contour sums.

A configuration on the torus decomposes into connected pieces of its
R-boundary.  Pieces whose vertex set has (wrapped) diameter below L/2 become
contours, each carrying a standardized configuration that keeps only that
piece's deviation; the remaining pieces merge into a single contour network.
Extraction and reconstruction are mutually inverse bijections between
configurations and matching collections, and the induced rewriting of the
Boltzmann weight turns the spin sum into contour sums that this module also
evaluates directly (an independent-set sum over contour volumes, recursing
into interiors) for cross-checks.  Torus contours and networks are held as
site masks, on which extraction, reconstruction, matching and nesting work;
their frozenset and dict views are built on first read.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BudgetError
from .lattice import Torus, chebyshev_ball, torus, zd_neighbors
from .models import (
    SpinModel,
    TorusConfiguration,
    ZdConfiguration,
    _boundary_energy_pair,
    boundary_energy_pairs,
    box_placements,
    pair_weight,
    torus_placements,
)
from .polymer import independent_set_sum
from .torus_exact import _density_of_states

ENUM_CORE_BUDGET = 2**21
IDENTITY_BUDGET = 2**22  # configurations the torus identity check enumerates


# -- objects -------------------------------------------------------------------


class _TorusObject:
    """A support on the torus with its standardized configuration, held as
    masks: ``mask`` (the support), ``by_site`` (the spins by site: its
    configuration's for an extracted object, None off the support for one
    built from the public form) and ``comps``, one (mask, label, sites in
    increasing order) per complement component.  The views ``support`` (a
    frozenset), ``spins`` (a dict by site) and ``labels`` ((frozenset,
    label) pairs) are built on first read."""

    _key = _pair = None  # set on first use

    def __init__(self, geom, support, spins, labels):
        # the public form (frozensets and a dict), held as masks
        self.geom, self.mask = geom, geom.mask(support)
        self.by_site = list(map({s: spins[s] for s in support}.get, range(geom.n_sites)))
        self.comps = tuple((geom.mask(comp), lab, tuple(sorted(comp))) for comp, lab in labels)

    @classmethod
    def _of(cls, geom, mask, by_site, comps):
        obj = cls.__new__(cls)
        obj.geom, obj.mask, obj.by_site, obj.comps = geom, mask, by_site, comps
        return obj

    @cached_property
    def support(self) -> frozenset:
        return frozenset(self.geom.sites(self.mask))

    @cached_property
    def spins(self) -> dict:
        return {s: self.by_site[s] for s in self.geom.sites(self.mask)}

    @cached_property
    def labels(self) -> tuple:
        return tuple((frozenset(sites), lab) for _, lab, sites in self.comps)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def key(self):
        if self._key is None:
            sup = tuple(self.geom.sites(self.mask))
            self._key = (
                sup,
                tuple(map(self.by_site.__getitem__, sup)),
                tuple(sorted((sites[0], lab) for _, lab, sites in self.comps)),
            )
        return self._key

    def value_at(self, x) -> object:
        if self.mask >> x & 1:
            return self.by_site[x]
        for comp, lab, _ in self.comps:
            if comp >> x & 1:
                return lab
        raise KeyError(x)

    def full_config(self) -> TorusConfiguration:
        arr = list(self.by_site)
        for _, lab, sites in self.comps:
            for s in sites:
                arr[s] = lab
        return TorusConfiguration(self.geom.L, self.geom.d, tuple(arr))

    def energy_pair(self, model: SpinModel):
        if self._pair is None:
            self._pair = _boundary_energy_pair(model, self.full_config(), self.support)
        return self._pair


class TorusContour(_TorusObject):
    """A contour on the torus: connected support of wrapped diameter < L/2;
    its exterior component comes first among the labels."""

    def __init__(self, geom, support, spins, ext_component, ext_label, interiors):
        super().__init__(geom, support, spins, ((ext_component, ext_label),) + interiors)

    @property
    def ext_component(self) -> frozenset:
        return self.labels[0][0]

    @property
    def ext_label(self):
        return self.comps[0][1]

    @property
    def interiors(self) -> tuple:
        return self.labels[1:]

    def to_json_dict(self):
        return {
            "kind": "contour",
            "L": self.geom.L,
            "d": self.geom.d,
            "R": self.geom.R,
            "support": sorted(self.geom.coords[s] for s in self.support),
            "spins": [self.spins[s] for s in sorted(self.support)],
            "ext_label": self.ext_label,
            "interiors": [
                {"sites": sorted(self.geom.coords[s] for s in comp), "label": lab}
                for comp, lab in sorted(self.interiors, key=lambda cl: min(cl[0]))
            ],
        }


class TorusNetwork(_TorusObject):
    """The union of the large R-boundary pieces, with its configuration."""


@dataclass(eq=False, slots=True)
class MatchingCollection:
    geom: Torus
    contours: tuple
    network: object  # TorusNetwork or None
    vacuum_label: object  # used only when contours and network are both empty

    def objects(self):
        return [*self.contours, self.network] if self.network is not None else list(self.contours)

    def region_sizes(self) -> dict:
        """|Lambda_m|: number of sites outside all supports carrying label m."""
        counts = {}
        for _, lab, sites in _complement_labels(self)[1]:
            counts[lab] = counts.get(lab, 0) + len(sites)
        return counts


# -- extraction ----------------------------------------------------------------


def contour_graph(config: TorusConfiguration, R: int):
    """Components of the shared-bad-box graph on the R-boundary, classified
    by wrapped diameter: two boundary sites are linked whenever one box of
    diameter 2R+1 contains both and is non-constant.  Returns (geometry,
    small components, large components)."""
    geom = config.torus(R)
    small, large, _, _ = geom.skeleton(geom.boundary(config.spins))
    return (geom, [frozenset(geom.sites(c)) for c, _ in small],
            [frozenset(geom.sites(c)) for c in large])


def _labelled(rings, spins) -> tuple:
    """Each complement component of ``rings`` (``Torus.complement_rings``
    entries) as (mask, the common spin on its ring, its sites); a
    ValueError where a ring is not constant.

    Where the support is the R-boundary of the configuration behind
    ``spins``, every box centred outside it is constant, so each ring site
    carries the value of the component it touches."""
    out = []
    for comp, ring, sites in rings:
        values = {spins[y] for y in ring}
        if len(values) != 1:
            raise ValueError(
                f"label mismatch on the complement component at site {sites[0]}: "
                f"its ring carries {sorted(map(repr, values))}"
            )
        out.append((comp, values.pop(), sites))
    return tuple(out)


def exterior_interior(geom: Torus, support: frozenset):
    """Split the complement of a support into exterior and interior.

    For a connected support of diameter < L/2 the exterior is the unique
    complement component with more than half of all sites; for a union of
    large components the exterior is empty by convention.
    """
    sup = geom.mask(support)
    free = geom.full & ~sup
    if 2 * geom.diameter(sup) >= geom.L:
        return frozenset(), frozenset(geom.sites(free))
    big = [c for c in geom.flood(free, geom.dilate_nn) if 2 * c.bit_count() > geom.n_sites]
    assert len(big) == 1, "no unique exterior; support violates the diameter bound"
    return frozenset(geom.sites(big[0])), frozenset(geom.sites(free & ~big[0]))


def extract(config: TorusConfiguration, R: int) -> MatchingCollection:
    """Decompose a configuration into its unique matching collection."""
    geom, spins = config.torus(R), config.spins
    small, _, union, rings = geom.skeleton(geom.boundary(spins))
    if not small and not union:
        return MatchingCollection(geom, (), None, spins[0])
    contours = tuple([TorusContour._of(geom, sup, spins, _labelled(ext_first, spins))
                      for sup, ext_first in small]) if small else ()
    network = TorusNetwork._of(geom, union, spins, _labelled(rings, spins)) if union else None
    return MatchingCollection(geom, contours, network, None)


def _complement_labels(collection: MatchingCollection):
    """The spins of the collection's objects by site (the first object's
    sequence off the supports) and the complement components of their
    union, labelled (``_labelled``); a ValueError where supports overlap,
    the spins around a component disagree or an empty collection has no
    vacuum label."""
    geom, objects = collection.geom, collection.objects()
    if not objects:
        if collection.vacuum_label is None:
            raise ValueError("label mismatch: empty collection needs a vacuum label")
        (comp, _, sites), = geom.complement_rings(0)
        return [None] * geom.n_sites, ((comp, collection.vacuum_label, sites),)
    union, arr = objects[0].mask, list(objects[0].by_site)
    for o in objects[1:]:
        if union & o.mask:
            raise ValueError("label mismatch: supports overlap")
        union |= o.mask
        for s in geom.sites(o.mask):
            arr[s] = o.by_site[s]
    return arr, _labelled(geom.complement_rings(union), arr)


def reconstruct(collection: MatchingCollection) -> TorusConfiguration:
    """The unique configuration whose extraction is ``collection``."""
    geom = collection.geom
    arr, labels = _complement_labels(collection)
    for _, lab, sites in labels:
        for x in sites:
            arr[x] = lab
    return TorusConfiguration(geom.L, geom.d, tuple(arr))


def is_matching(collection: MatchingCollection):
    """Check the matching conditions; returns (ok, diagnostics)."""
    geom = collection.geom
    objects = collection.objects()
    diagnostics = []
    if not objects:
        ok = collection.vacuum_label is not None
        if not ok:
            diagnostics.append("empty collection without a vacuum label")
        return ok, diagnostics
    union = shrunk = 0
    for o in objects:
        overlap = union & o.mask
        if overlap:
            diagnostics.append(f"supports overlap at sites {geom.sites(overlap)[:4]}")
        union |= o.mask
        shrunk |= geom.shrink(o.mask)
    for comp in geom.flood(geom.full & ~shrunk, geom.dilate_nn):
        touching = [o for o in objects if o.mask & comp]
        for other in touching[1:]:
            for x in geom.sites(comp):
                if touching[0].value_at(x) != other.value_at(x):
                    diagnostics.append(
                        f"objects disagree at site {x}: "
                        f"{touching[0].value_at(x)!r} vs {other.value_at(x)!r}"
                    )
                    break
    return not diagnostics, diagnostics


# -- nesting ---------------------------------------------------------------------


@dataclass(frozen=True)
class NestingForest:
    elements: tuple      # frozensets; elements[0] is the root
    parent: tuple        # parent[i] = index of parent, -1 for the root

    def depth(self, i: int) -> int:
        d = 0
        while self.parent[i] >= 0:
            i = self.parent[i]
            d += 1
        return d


def nesting_order(collection: MatchingCollection) -> NestingForest:
    """Organize supports into the ancestor forest.

    The root is the union of large components (possibly empty, in which case
    its interior is the whole torus).  For every pair of elements exactly one
    holds: one contains the other in its interior, or they are mutually
    external; a violation indicates a bug and raises.
    """
    geom = collection.geom
    root = collection.network.mask if collection.network is not None else 0
    elems = [root] + [y.mask for y in collection.contours]
    exte = [0] + [y.comps[0][0] for y in collection.contours]
    vol = [geom.full & ~e for e in exte]  # a contour's volume is all but its exterior
    inte = [v & ~e for v, e in zip(vol, elems)]
    n = len(elems)
    below = [[False] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(n):
            if i == j:
                continue
            a_in_b = not vol[i] & ~inte[j]
            b_in_a = not vol[j] & ~inte[i]
            mutual = not vol[i] & ~exte[j] and not vol[j] & ~exte[i] if j else False
            if sum((a_in_b, b_in_a, mutual)) != 1:
                raise RuntimeError(
                    "nesting trichotomy violated; contour bookkeeping is broken"
                )
            below[i][j] = a_in_b
    parent = [-1] * n
    for i in range(1, n):
        ancestors = [j for j in range(n) if below[i][j]]
        parent[i] = min(ancestors, key=lambda j: vol[j].bit_count())
    return NestingForest(tuple(frozenset(geom.sites(e)) for e in elems), tuple(parent))


# -- weights ---------------------------------------------------------------------


def contour_weight(model: SpinModel, obj, z: complex) -> complex:
    """rho_z = exp(-E) for a contour or network (torus or embedded)."""
    return pair_weight(obj.energy_pair(model), z)


# -- contours embedded in Z^d -----------------------------------------------------


class ZdContour:
    """A contour on Z^d with exterior label q, stored up to translation."""

    __slots__ = ("q", "support", "spins", "interiors", "_pair", "_key")

    def __init__(self, q, support, spins, interiors, pair=None, key=None):
        self.q = q
        self.support = support          # frozenset of coords
        self.spins = spins              # dict coord -> spin
        self.interiors = interiors      # tuple of (frozenset coords, label)
        self._pair = pair               # energy pair, computed on first use if None
        self._key = key                 # the key, computed on first use if None

    @property
    def size(self) -> int:
        return len(self.support)

    def key(self):
        if self._key is None:
            sup = tuple(sorted(self.support))
            self._key = (
                self.q,
                sup,
                tuple(self.spins[s] for s in sup),
                tuple(sorted((min(c), lab) for c, lab in self.interiors)),
            )
        return self._key

    def config(self) -> ZdConfiguration:
        dev = {}
        for s, v in self.spins.items():
            if v != self.q:
                dev[s] = v
        for comp, lab in self.interiors:
            if lab != self.q:
                for s in comp:
                    dev[s] = lab
        return ZdConfiguration.make(self.q, dev)

    def energy_pair(self, model: SpinModel):
        if self._pair is None:
            self._pair = _boundary_energy_pair(model, self.config(), self.support)
        return self._pair

    def translate(self, shift):
        d = len(shift)

        def mv(c):
            return tuple(c[a] + shift[a] for a in range(d))

        return ZdContour(
            self.q,
            frozenset(mv(c) for c in self.support),
            {mv(c): v for c, v in self.spins.items()},
            tuple((frozenset(mv(c) for c in comp), lab) for comp, lab in self.interiors),
            self._pair,
        )


_BLOCK_CELLS = 2**20  # digits per block of candidate rows


def _spread_min(val, mask, nbrs):
    """The minimum of ``val`` (sites x rows) over each component of ``mask``
    in the graph linking x to ``nbrs[x]`` (x among them), at every site of
    the component; values outside the mask stay, and exceed those inside."""
    while True:
        new = np.where(mask, val[nbrs].min(axis=1), val)
        if np.array_equal(new, val):
            return val
        val = new


def _box_table(shape, offsets):
    """Per site of the open box of the given shape (row-major), the sites at
    ``offsets`` from it, with n = prod(shape) where an offset leaves the
    box; an extra last row n stands for the outside and links only to
    itself."""
    n, ext = math.prod(shape), np.array(shape)[:, None, None]
    at = np.indices(shape).reshape(len(shape), -1, 1) + np.array(offsets).T[:, None, :]
    inside = ((at >= 0) & (at < ext)).all(axis=0)
    table = np.where(inside, np.ravel_multi_index(tuple(at), shape, mode="clip"), n)
    return np.vstack([table, np.full(len(offsets), n)])


def _padded(shape, R):
    """The box that holds every placement meeting a support at least one
    site inside a box of the given shape: each such placement lies in
    bbox(support) inflated by R, so the box padded by R - 1."""
    return tuple(s + 2 * (R - 1) for s in shape)


_Block = namedtuple("_Block", "cells support digits holes volumes")


def _zd_contours(R, bg, lo, shape, blocks, max_support=None, region=None):
    """Batched contour construction on Z^d, free of any model.

    ``blocks`` yields digit arrays (sites x rows; a digit is the index of a
    spin in a model's ``spins``) over the box of the given shape whose
    lowest corner is ``lo``; each row is a configuration with background
    digit ``bg`` and its deviations at least R+1 sites inside the box.  The
    rows kept are those whose R-boundary (its support) has at most
    ``max_support`` sites, lies in ``region`` (a boolean mask of the box)
    together with its holes, and is one component when two support sites
    within Chebyshev distance R are linked.  Yields, per block, a
    ``_Block`` of their contours in row order: the box's cells, the
    supports, digits and volumes (support and holes) as arrays (sites x
    rows) and each row's holes as (cells, digit) in order of least cell
    (``_rows`` reads one row per contour from it); and their digit and
    R-boundary columns over the box ``_padded(shape, R)``, which
    ``boundary_energy_pairs`` reads a model's energy pairs from.

    The box's sites and one more, n, for everything outside it (a digit row
    of bg appended to each block) are linked by two tables built once per
    call: the Chebyshev boxes of radius R, over which the R-boundary is
    read and its components spread, and the nearest neighbours, over which
    the complement's spread.  Components come from ``_spread_min`` of site
    indices, so a component is named by its least site, which is also its
    least coordinate.
    """
    d, n = len(shape), math.prod(shape)
    cells = [tuple(c) for c in (np.indices(shape).reshape(d, -1).T + lo).tolist()]
    origin = (0,) * d
    box = _box_table(shape, chebyshev_ball(origin, R))
    nn = _box_table(shape, [origin, *zd_neighbors(origin)])
    # the site indices and -1 on the outside row, in the least integer type
    # that holds -1 to n
    sites = np.append(np.arange(n), -1).astype(np.min_scalar_type(-n - 1))[:, None]
    outside_region = None if region is None else np.append(~region.ravel(), True)[:, None]
    pad = [(R - 1, R - 1)] * d + [(0, 0)]
    for D in blocks:
        D = np.vstack([D, np.full((1, D.shape[1]), bg, dtype=D.dtype)])
        first = D[box[:, 0]]  # a box is not constant where a site differs from its first
        support = np.zeros(first.shape, dtype=bool)
        for col in box.T[1:]:
            support |= D[col] != first
        keep = np.ones(D.shape[1], dtype=bool)
        if max_support is not None:
            keep &= support.sum(axis=0) <= max_support
        if outside_region is not None:
            keep &= ~(support & outside_region).any(axis=0)
        rows = np.flatnonzero(keep)
        support = support[:, rows]
        # one component: every support site has the least one as its root
        root = _spread_min(np.where(support, sites, n), support, box)
        connected = ((root == root.min(axis=0)) | ~support).all(axis=0)
        rows, support = rows[connected], support[:, connected]
        # each complement component takes its least site, and the outside,
        # linked to the outside row, takes -1: what keeps a site is a hole
        label = _spread_min(np.where(support, n, sites), ~support, nn)
        holes = (label >= 0) & ~support
        if outside_region is not None:
            inside = ~(holes & outside_region).any(axis=0)
            rows, support = rows[inside], support[:, inside]
            holes, label = holes[:, inside], label[:, inside]
        if not rows.size:  # nothing survives: no contours
            continue
        D = D[:, rows]
        if (holes & (np.take_along_axis(D, label, axis=0) != D)).any():
            raise RuntimeError("hole of a contour support is not constant")
        # the holes of each row (hole sites come in increasing order, so
        # each hole first at its label)
        row_holes = [()] * len(rows)
        for j in np.flatnonzero(holes.any(axis=0)).tolist():
            at, interiors = np.flatnonzero(holes[:, j]), {}
            for i, r in zip(at.tolist(), label[at, j].tolist()):
                interiors.setdefault(r, []).append(cells[i])
            row_holes[j] = tuple((frozenset(h), int(D[r, j])) for r, h in interiors.items())
        yield _Block(cells, support[:n], D[:n], row_holes, (support | holes)[:n]), (
            np.pad(D[:n].reshape(shape + (-1,)), pad, constant_values=bg).reshape(-1, len(rows)),
            np.pad(support[:n].reshape(shape + (-1,)), pad).reshape(-1, len(rows)),
        )


def _rows(block):
    """The contours of a block of ``_zd_contours``, one (support cells in
    increasing order, their digits, holes) each."""
    on = np.nonzero(block.support.T)
    cells = [block.cells[i] for i in on[1].tolist()]
    digits = block.digits.T[on].tolist()
    start = 0
    for stop, h in zip(np.cumsum(block.support.sum(axis=0)).tolist(), block.holes):
        yield cells[start:stop], digits[start:stop], h
        start = stop


def _with_pairs(model: SpinModel, q, rows, c, p):
    """The q-contours of a model from (support cells, digits, holes) rows
    and their energy pairs (``c`` and ``p``, one entry per row)."""
    spin = model.spins.__getitem__
    out = []
    for (sup, digits, holes), pair in zip(rows, zip(c, p)):
        sup, spins = tuple(sup), tuple(map(spin, digits))
        holes = tuple((h, spin(k)) for h, k in holes)
        # the cells come in row-major order, which is sorted, and the holes
        # in order of their least cell: the key ``key()`` would compute
        out.append(ZdContour(q, frozenset(sup), dict(zip(sup, spins)), holes, pair,
                             (q, sup, spins, tuple((min(h), lab) for h, lab in holes))))
    return out


def _row_blocks(n_sites: int, n_rows: int, fill):
    """Split ``n_rows`` candidate rows into blocks of bounded size: yields
    (start, stop, digit array) with the array (sites x rows) filled with
    ``fill`` for the caller to set the deviations."""
    step = max(1, _BLOCK_CELLS // n_sites)
    for start in range(0, n_rows, step):
        stop = min(n_rows, start + step)
        yield start, stop, np.full((n_sites, stop - start), fill, dtype=np.int8)


def _region_rows(model: SpinModel, q, region: frozenset):
    """The q-contours whose support and holes fit inside ``region`` (a
    frozenset of Z^d coordinates), as ``_zd_contours`` finds them: yields,
    per block, its ``_Block``, the contours' energy pairs as two lists c
    and p, and their volumes as bitmasks over the region's sites in the
    box, which hold every volume: bit i is the i-th of them in sorted
    order, which is also the box's order."""
    bg = model.digit(q)
    core = sorted(
        x for x in region if all(tuple(y) in region for y in chebyshev_ball(x, model.range))
    )
    others = [s for s in model.spins if s != q]
    total = (len(others) + 1) ** len(core)
    if total > ENUM_CORE_BUDGET:
        raise BudgetError(
            f"contour enumeration over a {len(core)}-site core exceeds budget"
        )
    if not core:
        return
    # the core's box padded by R+1, and every assignment of the core in
    # itertools.product order over (no deviation, *others), the first core
    # site slowest; the all-background row 0 is skipped
    pts = np.array(core)
    lo = pts.min(axis=0) - model.range - 1
    shape = tuple((pts.max(axis=0) + model.range + 2 - lo).tolist())
    inbox = [x for x in region if all(0 <= x[a] - lo[a] < shape[a] for a in range(len(shape)))]
    at = np.sort(np.ravel_multi_index(tuple((np.array(inbox) - lo).T), shape))
    mask = np.zeros(math.prod(shape), dtype=bool)
    mask[at] = True
    flat_core = np.ravel_multi_index(tuple((pts - lo).T), shape)
    choice = np.array([bg] + [model.digit(s) for s in others], dtype=np.int8)
    base = len(choice)
    powers = base ** np.arange(len(core) - 1, -1, -1, dtype=np.int64)

    def blocks():
        for start, stop, D in _row_blocks(math.prod(shape), total - 1, bg):
            r = np.arange(start + 1, stop + 1, dtype=np.int64)
            D[flat_core] = choice[(r // powers[:, None]) % base]
            yield D

    index = box_placements(model, _padded(shape, model.range))
    for block, columns in _zd_contours(
        model.range, bg, tuple(lo.tolist()), shape, blocks(), region=mask.reshape(shape)
    ):
        c, p = boundary_energy_pairs(model, index, *columns)
        packed = np.packbits(block.volumes[at], axis=0, bitorder="little")
        width, data = len(packed), packed.T.tobytes()
        yield block, c.tolist(), p.tolist(), [
            int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def contours_in_region(model: SpinModel, q, region):
    """All q-contours whose support and interior fit inside ``region``
    (a finite set of Z^d coordinates); a ModelError where q is not a spin
    of the model."""
    out = []
    for block, c, p, _ in _region_rows(model, q, frozenset(tuple(x) for x in region)):
        out += _with_pairs(model, q, _rows(block), c, p)
    out.sort(key=lambda y: y.key())
    return out


_ClassGeometry = namedtuple("_ClassGeometry", "classes padded columns")


def _class_key(cells, digits, holes):
    """A class's place in a geometry record: size, cells, digits, holes."""
    return (len(cells), tuple(cells), tuple(digits),
            tuple(sorted((min(h), k) for h, k in holes)))


@lru_cache(maxsize=None)
def _class_geometry(d: int, R: int, n_spins: int, bg: int, max_support: int) -> _ClassGeometry:
    """The translation classes of contours with support size <= max_support
    of every model on Z^d with range R and ``n_spins`` spins, in the phase
    of digit ``bg``: built once per process and holding no model and no
    energy.  ``classes`` are (support cells, their digits, holes) rows with
    least coordinate 0 on each axis, in order of size, cells, digits and
    holes; ``columns`` the digit and R-boundary columns (sites of the box
    ``padded`` x classes) of each class's first candidate row.

    Only digit 0's record is grown (``_grown_class_geometry``).  Digit bg's
    is digit 0's with the digits 0 and bg swapped, the classes sorted again
    and both column arrays permuted to match.  That is exact: the
    candidate rows of bg are those of 0 with the two digits swapped,
    extraction sees only whether two digits are equal, so supports and
    holes stay, and each class comes from exactly one candidate row (its
    configuration, placed in the common box, is the row).
    """
    if not bg:
        return _grown_class_geometry(d, R, n_spins, 0, max_support)
    grown = _class_geometry(d, R, n_spins, 0, max_support)
    swap = np.arange(n_spins, dtype=np.int8)
    swap[[0, bg]] = bg, 0
    to = swap.tolist()
    classes = [(cells, tuple(to[k] for k in digits), tuple((h, to[k]) for h, k in holes))
               for cells, digits, holes in grown.classes]
    order = sorted(range(len(classes)), key=lambda j: _class_key(*classes[j]))
    digits, bad = grown.columns
    digits, bad = swap[digits[:, order]], bad[:, order]
    digits.setflags(write=False)
    bad.setflags(write=False)
    return _ClassGeometry(tuple(classes[j] for j in order), grown.padded, (digits, bad))


def _grown_class_geometry(d: int, R: int, n_spins: int, bg: int,
                          max_support: int) -> _ClassGeometry:
    """``_class_geometry`` grown for any background digit: deviation
    patterns are grown under Chebyshev linkage 2R+1; for the support caps
    used here (a few boxes) this enumerates every class."""
    if max_support > 2 * (2 * R + 1) ** d:
        raise BudgetError("size cap too large for pattern enumeration")
    # deviations further apart than 2R+1 cannot share a non-constant box, and
    # each extra deviation enlarges the boundary by at least one box face
    link = 2 * R + 1
    max_dev = 1 + max(
        0, (max_support - (2 * R + 1) ** d) // ((2 * R + 1) ** (d - 1))
    )

    patterns = {frozenset([(0,) * d])}
    frontier = list(patterns)
    while frontier:
        new = []
        for pat in frontier:
            if len(pat) >= max_dev:
                continue
            for x in pat:
                for off in itertools.product(range(-link, link + 1), repeat=d):
                    y = tuple(x[a] + off[a] for a in range(d))
                    if y in pat:
                        continue
                    cand = frozenset(pat | {y})
                    canon = _canon_sites(cand)
                    if canon not in patterns:
                        patterns.add(canon)
                        new.append(canon)
        frontier = new

    # every labelling of every pattern, one row each, in a common box padded
    # by R+1.  A pattern's least coordinate on each axis is 0 and its
    # support's is -R (the site R below a deviation there sees it and the
    # background), so with the box's corner at -1 every support comes out
    # with least coordinate 0
    side = (max_dev - 1) * link + 1 + 2 * (R + 1)
    shape = (side,) * d
    labels = np.array([k for k in range(n_spins) if k != bg], dtype=np.int8)
    rows = []  # (flat sites of a pattern, digits of one labelling)
    for pat in sorted(patterns, key=sorted):
        sites = np.ravel_multi_index(tuple((np.array(sorted(pat)) + R + 1).T), shape)
        for labs in itertools.product(range(len(labels)), repeat=len(pat)):
            rows.append((sites, labels[list(labs)]))

    def blocks():
        for start, stop, D in _row_blocks(side**d, len(rows), bg):
            for col, (sites, digits) in enumerate(rows[start:stop]):
                D[sites, col] = digits
            yield D

    first = {}  # per class: its first row and that row's two columns
    for block, (digits, bad) in _zd_contours(R, bg, (-1,) * d, shape, blocks(), max_support):
        for j, (cells, digs, holes) in enumerate(_rows(block)):
            key = _class_key(cells, digs, holes)
            if key not in first:
                first[key] = (key[1], key[2], holes), digits[:, j], bad[:, j]
    order = sorted(first)
    padded = _padded(shape, R)
    digits = np.empty((math.prod(padded), len(order)), dtype=np.int8)
    bad = np.empty(digits.shape, dtype=bool)
    for j, key in enumerate(order):
        _, digits[:, j], bad[:, j] = first[key]
    digits.setflags(write=False)
    bad.setflags(write=False)
    return _ClassGeometry(tuple(first[key][0] for key in order), padded, (digits, bad))


def contour_classes(model: SpinModel, q, max_support: int):
    """Translation classes of q-contours with support size <= max_support,
    in order of size, then ``key()``: the geometry record of the model's
    alphabet and q's digit, with the model's spins and energy pairs."""
    geo = _class_geometry(model.dimension, model.range, len(model.spins),
                          model.digit(q), max_support)
    c, p = boundary_energy_pairs(model, box_placements(model, geo.padded), *geo.columns)
    classes = _with_pairs(model, q, geo.classes, c.tolist(), p.tolist())
    classes.sort(key=lambda y: (y.size, y.key()))
    return classes


def _canon_sites(sites: frozenset) -> frozenset:
    d = len(next(iter(sites)))
    lo = [min(p[a] for p in sites) for a in range(d)]
    return frozenset(tuple(p[a] - lo[a] for a in range(d)) for p in sites)


# -- contour partition functions ---------------------------------------------


def region_masks(region, subsets):
    """Bitmasks of subsets of a finite site set (bit i is the i-th site in
    sorted order), together with the mask of the whole set."""
    bit = {x: 1 << i for i, x in enumerate(sorted(region))}
    return [sum(bit[x] for x in s) for s in subsets], (1 << len(bit)) - 1


class ContourSumEngine:
    """Evaluates Z_q(region) = sum over matching collections with external
    q-contours: an independent-set sum over families of volume-disjoint
    contours, each weighted with the sums over its interiors, memoized on
    the translation-canonical region.  Each contour's energy pair, holes
    and volume bitmask come straight from the enumeration rows
    (``_region_rows``); no contour object is built.

    Volume-disjoint contours whose supports are adjacent count as
    compatible, although no configuration produces both; Ising regions from
    3x6 upward therefore miss the spin sum by about 1e-7."""

    def __init__(self, model: SpinModel, z: complex):
        self.model = model
        self.z = z
        self.theta = {
            m: pair_weight(model.ground_pair(m), z) for m in model.spins
        }
        self._memo = {}

    def partition_function(self, region, q) -> complex:
        region = frozenset(tuple(x) for x in region)
        key = (tuple(sorted(_canon_sites(region))) if region else (), q)
        if key in self._memo:
            return self._memo[key]
        spin, masks, weights = self.model.spins.__getitem__, [], []
        for block, c, p, volumes in _region_rows(self.model, q, region):
            for holes, pair in zip(block.holes, zip(c, p)):
                w = pair_weight(pair, self.z)
                for comp, k in holes:
                    w *= self.partition_function(comp, spin(k))
                weights.append(w)
            masks += volumes
        total = independent_set_sum(masks, weights, self.theta[q], (1 << len(region)) - 1)
        self._memo[key] = total
        return total


def contour_partition_function(model: SpinModel, region, q, z: complex) -> complex:
    """Z_q over a finite Z^d region (iterable of coordinate tuples); a
    ModelError where q is not a spin of the model."""
    return ContourSumEngine(model, z).partition_function(region, q)


# -- the torus identity --------------------------------------------------------


_IDENTITY_BLOCK = 1024  # configurations per extraction pass


def _extract_block(geom: Torus, D):
    """``extract`` for a block of configurations, given as digits ``D``
    (sites x rows).  Returns the R-boundaries (sites x rows, boolean), the
    digit that labels each complement site (-1 on the R-boundary) and, per
    row, whether some R-boundary component is a contour; a ValueError where
    the ring of a complement component is not constant."""
    n, L, big = geom.n_sites, geom.L, np.iinfo(np.intp).max
    sites, boxes, D = np.arange(n), np.array(geom.boxes), D.astype(np.intp)
    bad = D[boxes].max(axis=1) != D[boxes].min(axis=1)
    # a contour fits in a cyclic window of (L-1)//2 < L/2 coordinates per axis
    root = _spread_min(np.where(bad, sites[:, None], big), bad, boxes)
    member = root == sites[:, None, None]  # (component, site, row)
    fits = root == sites[:, None]
    for axis in np.array(geom.coords).T:
        outside = (axis[:, None] - np.arange(L)) % L >= (L - 1) // 2
        fits &= (~(member[:, :, None] & outside[:, :, None]).any(axis=1)).any(axis=1)
    # each complement component takes the least digit on its ring (big if
    # it has none: it is the whole, constant torus), which the ring must carry
    nn = np.column_stack([sites, geom.neighbors])
    near = np.where(bad, D, big)[nn].min(axis=1)
    label = _spread_min(np.where(bad, big, near), ~bad, nn)
    clash = ~bad[:, None] & bad[nn] & (D[nn] != label[:, None])
    if clash.any():
        x, k, r = np.argwhere(clash)[0]
        raise ValueError(f"label mismatch on the complement component at site {x}: "
                         f"its ring carries digits {label[x, r]} and {D[nn[x, k], r]}")
    return bad, np.where(bad, -1, np.where(label == big, D, label)), fits.any(axis=0)


def torus_contour_identity_check(model: SpinModel, L: int, zs) -> dict:
    """Evaluate the two contour representations of the torus partition sum
    and compare both with the torus's exact Z.

    The first form sums over all matching collections the product of ground
    state weights and standardized contour/network weights; the second sums
    over contour networks alone, with every label region resummed.
    ``_extract_block`` extracts the configurations in blocks of 1024; each
    network's energy pair comes from the energy kernel on its digits and
    R-boundary, and the sizes of its label regions are counts of labels.
    Each side is summed per z in one numpy reduction over its terms; Z(z)
    is read from the torus's density of states, built once for all z.

    Only tori with L <= 4R+2 and q^(L^d) <= ``IDENTITY_BUDGET`` are admitted;
    the rest raise a BudgetError.  On them a contour support (the R-boundary
    around a deviation, at least 2R+1 sites wide) cannot have diameter
    below L/2, and the check raises a RuntimeError if extraction finds a
    contour or misses a vacuum.  So every term is a vacuum or a network,
    and every label region resums to its ground weight theta_m^|region|,
    which the second form takes directly: the two forms sum the same terms.
    Contours, their interiors and their nesting are checked by the
    extraction tests on larger tori.
    """
    R = model.range
    if L > 4 * R + 2:
        raise BudgetError(f"torus identity check on L={L} > 4R+2={4 * R + 2}: "
                          "its label regions may hold contours, which it does not resum")
    q = len(model.spins)
    n = L**model.dimension
    if q**n > IDENTITY_BUDGET:
        raise BudgetError(f"torus identity check over {q}^{n} states exceeds budget "
                          f"{IDENTITY_BUDGET}")
    states = _density_of_states(model, L)  # the reference Z, for every z

    ground = [model.ground_pair(m) for m in model.spins]
    index = torus_placements(model, L)
    geom = torus(L, model.dimension, R)
    place = q ** np.arange(n - 1, -1, -1)[:, None]  # digits in itertools.product order
    terms = []
    for start in range(0, q**n, _IDENTITY_BLOCK):
        D = (np.arange(start, min(start + _IDENTITY_BLOCK, q**n)) // place % q).astype(np.int8)
        bad, labels, contour = _extract_block(geom, D)
        if contour.any():
            raise RuntimeError("a contour on a torus with L <= 4R+2")
        count = (labels == np.arange(q)[:, None, None]).sum(axis=1)  # region sizes
        c = sum(gc * m for (gc, _), m in zip(ground, count))
        p = sum(gp * m for (_, gp), m in zip(ground, count))
        net = bad.any(axis=0)
        ec, ep = boundary_energy_pairs(model, index, D[:, net], bad[:, net])
        c[net] += ec
        p[net] += ep
        terms.append((c, p, net))
    coll_c, coll_p, net = map(np.concatenate, zip(*terms))
    if np.count_nonzero(~net) != q:  # the constant configurations
        raise RuntimeError("not every vacuum seen")
    # the vacua, then the networks with the ground weights theta^|region| of
    # their label regions in the exponent
    res_c = np.concatenate([[gc * n for gc, _ in ground], coll_c[net]])
    res_p = np.concatenate([[gp * n for _, gp in ground], coll_p[net]])

    report = {"collection_max_rel": 0.0, "resummed_max_rel": 0.0,
              "n_configs": q**n, "n_networks": int(net.sum()), "per_z": []}
    for z in zs:
        logz = cmath.log(z)
        exact = states.sum_with_mass(z)[0]
        collection_sum = complex(np.exp(-coll_c + coll_p.real * logz).sum())
        resummed_sum = complex(np.exp(-res_c + res_p.real * logz).sum())
        r1 = abs(collection_sum - exact) / abs(exact)
        r2 = abs(resummed_sum - exact) / abs(exact)
        report["per_z"].append(
            {"z": [z.real, z.imag], "collection_rel": r1, "resummed_rel": r2}
        )
        report["collection_max_rel"] = max(report["collection_max_rel"], r1)
        report["resummed_max_rel"] = max(report["resummed_max_rel"], r2)
    return report


# -- serialization --------------------------------------------------------------


def contour_to_json(obj) -> str:
    return json.dumps(obj.to_json_dict(), sort_keys=True)


def contour_from_json(text: str) -> TorusContour:
    """The contour written by ``contour_to_json``; a ValueError unless every
    support site has one spin and extracting the decoded contour's
    standardized configuration gives back exactly that contour."""
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("kind") != "contour":
        raise ValueError("malformed contour: not an object of kind 'contour'")
    try:
        geom = torus(data["L"], data["d"], data["R"])
        sites = [geom.index(tuple(c)) for c in data["support"]]
        spins, ext_label = list(data["spins"]), data["ext_label"]
        interiors = tuple(
            (frozenset(geom.index(tuple(c)) for c in item["sites"]), item["label"])
            for item in data["interiors"]
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed contour: {type(err).__name__} {err}") from err
    support = frozenset(sites)
    if len(support) != len(sites) or len(spins) != len(sites):
        raise ValueError("malformed contour: each support site needs exactly one spin")
    ext, _ = exterior_interior(geom, support)
    y = TorusContour(geom, support, dict(zip(sites, spins)), ext, ext_label, interiors)
    config = y.full_config()
    back = extract(config, geom.R) if None not in config.spins else None
    if back is None or back.network is not None or [
        (c.spins, set(c.comps)) for c in back.contours
    ] != [(y.spins, set(y.comps))]:
        raise ValueError("malformed contour: its configuration does not extract to it")
    return y
