"""Abstract polymer systems and the cluster expansion.

A polymer system is a finite set of polymers with a reflexive, symmetric
incompatibility relation and complex weights.  The partition function sums
over collections of pairwise compatible polymers; its logarithm expands over
clusters (multi-indices whose support is connected under incompatibility)
with signed combinatorial coefficients from connected-graph counting.
Convergence is certified by the standard weighted neighbor-sum condition,
which also yields explicit exponential tail bounds for truncations.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BudgetError, ConvergenceError

PARTITION_BUDGET = 24
URSELL_BUDGET = 8


@dataclass(frozen=True, eq=False)
class PolymerSystem:
    polymers: tuple
    weights: dict
    edges: frozenset  # unordered incompatible pairs; self-pairs are implicit
    sizes: dict = field(default_factory=dict)
    a: dict = field(default_factory=dict)

    @staticmethod
    def build(polymers, weights, incompatible_pairs, sizes=None, a=None):
        pairs = set()
        polyset = set(polymers)
        for x, y in incompatible_pairs:
            if x not in polyset or y not in polyset:
                raise ValueError("incompatibility edge names an unknown polymer")
            pairs.add(frozenset((x, y)))
        return PolymerSystem(
            tuple(polymers),
            dict(weights),
            frozenset(pairs),
            dict(sizes or {}),
            dict(a or {}),
        )

    def incompatible(self, x, y) -> bool:
        return x == y or frozenset((x, y)) in self.edges

    def size(self, g) -> float:
        return self.sizes.get(g, 1.0)

    def a_of(self, g) -> float:
        return self.a.get(g, 1.0)

    def neighbors(self, g):
        return [h for h in self.polymers if self.incompatible(g, h)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "polymers": list(self.polymers),
                "weights": {str(g): [self.weights[g].real, self.weights[g].imag]
                            for g in self.polymers},
                "sizes": {str(g): self.size(g) for g in self.polymers},
                "a": {str(g): self.a_of(g) for g in self.polymers},
                "incompatible": sorted(sorted(map(str, e)) for e in self.edges),
            },
            indent=1,
        )

    @staticmethod
    def from_json(text: str) -> "PolymerSystem":
        data = json.loads(text)
        polymers = tuple(data["polymers"])
        key = {str(g): g for g in polymers}
        weights = {key[k]: complex(v[0], v[1]) for k, v in data["weights"].items()}
        sizes = {key[k]: float(v) for k, v in data.get("sizes", {}).items()}
        a = {key[k]: float(v) for k, v in data.get("a", {}).items()}
        edges = [tuple(key[k] for k in e) for e in data.get("incompatible", [])]
        return PolymerSystem.build(polymers, weights, edges, sizes, a)


def independent_set_sum(masks, weights, vacancy=1.0, sites: int = 0) -> complex:
    """Sum over families of pairwise-disjoint bitmasks of the product of
    their weights times ``vacancy`` to the number of bits of
    ``sites | union(masks)`` that the family leaves uncovered.

    The lowest undecided bit is decided first: it stays vacant or it is the
    lowest bit of one chosen mask, so each mask is tried only at its own
    lowest bit.  Partial sums are memoized on the set of undecided bits.
    """
    by_low = {}
    universe = sites
    for m, w in zip(masks, weights):
        by_low.setdefault(m & -m, []).append((m, w))
        universe |= m
    starts = sum(by_low)  # every bit that is the lowest bit of some mask
    memo = {}

    def rec(free):
        if not free & starts:
            return vacancy ** free.bit_count() + 0j
        if free in memo:
            return memo[free]
        low = free & -free
        total = vacancy * rec(free ^ low)
        for m, w in by_low.get(low, ()):
            if m & free == m:
                total += w * rec(free ^ m)
        memo[free] = total
        return total

    return rec(universe)


def polymer_partition_function(system: PolymerSystem, subset=None) -> complex:
    """Sum over collections of pairwise compatible polymers of the product
    of their weights.  Polymer i is bit i of its mask, and each incompatible
    pair adds one bit that both of its masks carry."""
    items = tuple(system.polymers if subset is None else subset)
    if len(items) > PARTITION_BUDGET:
        raise BudgetError(f"polymer subset of {len(items)} exceeds budget")
    masks = [1 << i for i in range(len(items))]
    bit = len(items)
    for i, j in itertools.combinations(range(len(items)), 2):
        if system.incompatible(items[i], items[j]):
            masks[i] |= 1 << bit
            masks[j] |= 1 << bit
            bit += 1
    return independent_set_sum(masks, [system.weights[g] for g in items])


# -- Ursell coefficients -------------------------------------------------------


@lru_cache(maxsize=None)
def _connected_sum(n: int, edges: frozenset) -> int:
    """Sum over connected spanning subgraphs of (-1)^{#edges} on vertex set
    {0..n-1} with the given admissible edges (edge-subset inclusion-exclusion).
    """
    def empty_sum(mask: int) -> int:
        # sum over all subgraphs: (1-1)^{#edges inside mask}
        for (i, j) in edges:
            if (mask >> i) & 1 and (mask >> j) & 1:
                return 0
        return 1

    full = (1 << n) - 1
    conn = {}

    def connected(mask: int) -> int:
        if mask in conn:
            return conn[mask]
        v0 = mask & (-mask)
        total = empty_sum(mask)
        sub = (mask - 1) & mask
        while sub:
            if sub & v0:
                rest = mask ^ sub
                if rest:
                    total -= connected(sub) * empty_sum(rest)
            sub = (sub - 1) & mask
        conn[mask] = total
        return total

    return connected(full)


def ursell_coefficient(system: PolymerSystem, multiplicity: dict) -> float:
    """The signed combinatorial weight of a multi-index: connected-graph
    alternating sum divided by the multiplicity factorials.

    Vanishes unless the support is connected under incompatibility; the
    single-polymer index gives 1, a doubled polymer -1/2, a pair of distinct
    incompatible polymers -1.
    """
    X = {g: k for g, k in multiplicity.items() if k}
    n = sum(X.values())
    if n == 0:
        return 0.0
    if n > URSELL_BUDGET:
        raise BudgetError(f"multi-index of total multiplicity {n} exceeds budget")
    vertices = []
    for g in sorted(X, key=lambda g: str(g)):
        vertices.extend([g] * X[g])
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if system.incompatible(vertices[i], vertices[j])
    )
    total = _connected_sum(n, edges)
    denom = 1
    for k in X.values():
        denom *= math.factorial(k)
    return total / denom


def multi_indices(system: PolymerSystem, support, max_norm: float):
    """Yield (multiplicities, norm, Ursell coefficient) for the multi-indices
    that put every polymer of ``support`` at least once, have norm = sum of
    multiplicity * size at most max_norm and total multiplicity at most
    URSELL_BUDGET, and carry a nonzero coefficient."""
    sizes = [system.size(g) for g in support]
    base = sum(sizes)
    ranges = [range(1, 2 + int((max_norm - base) // s)) for s in sizes]
    for mult in itertools.product(*ranges):
        norm = sum(m * s for m, s in zip(mult, sizes))
        if norm > max_norm or sum(mult) > URSELL_BUDGET:
            continue
        u = ursell_coefficient(system, dict(zip(support, mult)))
        if u != 0.0:
            yield mult, norm, u


# -- cluster enumeration -------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    multiplicity: tuple          # sorted ((polymer, k), ...)
    ursell: float
    weight_product: complex
    norm: float

    @property
    def value(self) -> complex:
        return self.ursell * self.weight_product


def enumerate_clusters(system: PolymerSystem, subset=None, max_norm: float = 8.0):
    """All clusters with norm = sum of multiplicity * size below the cutoff.

    Multi-indices whose support is not connected under incompatibility carry
    a vanishing coefficient and are skipped.
    """
    items = tuple(system.polymers if subset is None else subset)
    out = []

    def connected_supports(root_idx):
        """Connected (under incompatibility) subsets whose least element is
        items[root_idx]: rooted growth, forbidding re-expansion of polymers
        already branched at an outer level so each set appears once.  A
        polymer that would take the summed size past max_norm is skipped:
        sizes are positive, so no set grown from there could be kept."""
        results = []

        def grow(current, candidates, norm):
            results.append(tuple(current))
            branched = set()
            for i, g in enumerate(candidates):
                if norm + system.size(g) > max_norm:
                    continue
                if any(system.incompatible(g, h) for h in current):
                    rest = [
                        h
                        for j, h in enumerate(candidates)
                        if j != i and h not in branched
                    ]
                    grow(current + [g], rest, norm + system.size(g))
                    branched.add(g)

        grow([items[root_idx]], list(items[root_idx + 1:]), system.size(items[root_idx]))
        return results

    for ridx in range(len(items)):
        for sup in connected_supports(ridx):
            for mult, norm, u in multi_indices(system, sup, max_norm):
                w = 1.0 + 0j
                for g, m in zip(sup, mult):
                    w *= system.weights[g] ** m
                multiplicity = tuple(sorted(zip(sup, mult), key=lambda kv: str(kv[0])))
                out.append(Cluster(multiplicity, u, w, norm))
    return out


# -- convergence certificates ---------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    ok: bool
    worst_margin: float
    per_polymer: dict

    def __bool__(self):
        return self.ok


def kp_certificate(system: PolymerSystem, z0=None) -> Certificate:
    """Check the convergence condition: for every polymer g, the weighted
    neighbor sum of majorant weights z0 * e^a stays below a(g)."""
    per = {}
    worst = math.inf
    for g in system.polymers:
        ag = system.a_of(g)
        s = 0.0
        for h in system.neighbors(g):
            z0h = z0[h] if z0 is not None else abs(system.weights[h])
            s += z0h * math.exp(system.a_of(h))
        per[g] = ag - s
        worst = min(worst, ag - s)
    return Certificate(worst >= 0.0, worst, per)


def _best_eta(system: PolymerSystem) -> float:
    """Largest eta in [0, 8] (within 1e-3) for which the boosted weights
    |w| e^{eta * size} still satisfy the convergence condition."""
    def ok(eta):
        boosted = {
            g: abs(system.weights[g]) * math.exp(eta * system.size(g))
            for g in system.polymers
        }
        return kp_certificate(system, boosted).ok

    if not ok(0.0):
        return -1.0
    lo, hi = 0.0, 8.0
    if ok(hi):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class ExpansionResult:
    value: complex
    tail_bound: float
    eta: float
    n_clusters: int


def log_partition_expansion(
    system: PolymerSystem, subset=None, max_norm: float = 8.0
) -> ExpansionResult:
    """Cluster expansion of log Z over the subset, truncated by cluster norm,
    with a rigorous bound on the discarded tail.

    Refuses to run without a convergence certificate, since the series may
    diverge.  The tail bound is exp(-eta * max_norm) times the certified
    root-weight mass, where eta is the largest exponential boost the
    certificate tolerates.
    """
    items = tuple(system.polymers if subset is None else subset)
    cert = kp_certificate(system)
    if not cert.ok:
        raise ConvergenceError(
            f"no convergence certificate (worst margin {cert.worst_margin:.3g})"
        )
    eta = _best_eta(system)
    clusters = enumerate_clusters(system, items, max_norm)
    value = sum(c.value for c in clusters)
    mass = 0.0
    for g in items:
        mass += abs(system.weights[g]) * math.exp(eta * system.size(g) + system.a_of(g))
    tail = math.exp(-eta * max_norm) * mass if eta > 0 else math.inf
    return ExpansionResult(value, tail, eta, len(clusters))


def tail_bounds_check(system: PolymerSystem, gamma, max_norm: float = 8.0) -> dict:
    """Enumerate clusters rooted at one polymer and compare against the two
    certified bounds: the plain rooted sum and the multiplicity-weighted one
    against |w| e^a, and the neighbor-rooted sum against a."""
    clusters = enumerate_clusters(system, None, max_norm)
    s_plain = 0.0
    s_weighted = 0.0
    s_neighbors = 0.0
    for c in clusters:
        X = dict(c.multiplicity)
        v = abs(c.value)
        if X.get(gamma, 0) >= 1:
            s_plain += v
            s_weighted += X[gamma] * v
        if any(system.incompatible(g, gamma) and X.get(g, 0) > 0 for g in X):
            s_neighbors += v
    bound_w = abs(system.weights[gamma]) * math.exp(system.a_of(gamma))
    bound_a = system.a_of(gamma)
    return {
        "rooted_sum": s_plain,
        "weighted_sum": s_weighted,
        "neighbor_sum": s_neighbors,
        "bound_rooted": bound_w,
        "bound_neighbor": bound_a,
        "rooted_ok": s_weighted <= bound_w + 1e-12,
        "neighbor_ok": s_neighbors <= bound_a + 1e-12,
        "truncation_norm": max_norm,
    }


# -- contour entropy constant ---------------------------------------------------


def estimate_c0(d: int, n_spins: int, R: int, size_cap: int) -> dict:
    """Smallest c0 (within 0.1) for which the boundary-rooted contour sum
    sum over contours with volume containing the origin of e^{(2-c0)|Y|}
    stays below one, enumerating contour classes up to the support cap.

    Returns the estimate together with the per-size class counts and a crude
    geometric bound on the truncated remainder.
    """
    if size_cap < (2 * R + 1) ** d:
        return {
            "c0": 0.0,
            "vacuous": True,
            "note": "size cap below the minimum contour size (2R+1)^d",
            "weights": {},
            "remainder": 0.0,
        }
    from .contours import _class_geometry

    # per support size n, the (contour class, translate with volume
    # containing the origin) pairs of any n_spins-state model
    by_size = {}
    for cells, _, holes in _class_geometry(d, R, n_spins, 0, size_cap).classes:
        n = len(cells)
        by_size[n] = by_size.get(n, 0.0) + n + sum(len(h) for h, _ in holes)

    def rooted_sum(c0):
        return sum(w * math.exp((2 - c0) * n) for n, w in by_size.items())

    c0 = 0.0
    while rooted_sum(c0) > 1.0 and c0 < 64.0:
        c0 += 0.1
    # remainder: connected supports of size n through a point grow at most
    # like a d-dependent branching constant; spins multiply per deviation
    growth = (2 * d * math.e) * max(1, n_spins - 1)
    ratio = growth * math.exp(2 - c0)
    if ratio < 1:
        remainder = ratio ** (size_cap + 1) / (1 - ratio)
    else:
        remainder = math.inf
    return {
        "c0": c0,
        "vacuous": False,
        "weights": by_size,
        "remainder": remainder,
        "note": "",
    }
