"""The fast certificate, the Newton zero solver, the block enumeration
kernel, the independent-set kernel, the component search, the
placement-table energy kernel, the batched contour builder and the overlap
offsets against the bisection, Gray-code scan, recursion, union-find,
per-placement loop, per-candidate builder and set comprehension code they
replaced, kept here as oracles."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

import pszeros.contours as contours_module
from pszeros.contours import (
    ContourSumEngine,
    ZdContour,
    _canon_contour,
    _canon_region,
    _canon_sites,
    contour_classes,
    contour_graph,
    contours_in_region,
)
from pszeros.lattice import chebyshev_ball, components, torus, zd_neighbors
from pszeros.metastable import (
    EXACT_PLACEMENT_BUDGET,
    Cutoffs,
    WeightEngine,
    _A_SCALES,
    _Gas,
    _gas,
    _gas_certificate,
    _torus_placements_of_classes,
    finite_volume_zeta,
)
from conftest import free_field_model, random_torus_config, sparse_torus_config
from pszeros.models import (
    InteractionTerm,
    SpinModel,
    TorusConfiguration,
    ZdConfiguration,
    blume_capel,
    excitation_energy_pair,
    hamiltonian_torus_pair,
    ising,
    model_from_config,
    pair_weight,
    perturbed_ising,
    potts,
    r_boundary,
)
from pszeros.polymer import (
    PolymerSystem,
    enumerate_clusters,
    polymer_partition_function,
    ursell_coefficient,
)
from test_polymer import _random_certified_system, two_polymer_system
from pszeros.torus_exact import partition_function_exact, partition_polynomial, transfer_matrix_pf
from pszeros.zeros import (
    PhaseEvaluator,
    PredictedZero,
    ZeroSet,
    _correct,
    _solve_crossing,
    _sort_unique,
    _wrap_pi,
    solve_zero_equations,
    trace_coexistence,
)

ETA_SLACK = 2.0**-13


# -- oracles: the bisection code replaced by the fast paths ---------------------


def oracle_predicate(model, q, weights, size_cap=12):
    """The certificate predicate ok(alpha, eta) for fixed weights."""
    geo = _gas(model, q, size_cap).geometry
    sz, vol, off = geo.sizes, geo.volumes, geo.offsets
    absw = np.array([abs(w) for w in weights])

    def ok(alpha, eta):
        boost = absw * np.exp((alpha + eta) * sz)
        if float(vol @ boost) > 1.0:
            return False
        return bool(np.all(off @ boost <= alpha * sz))

    return ok


def oracle_certificate(model, q, classes, weights, size_cap=12):
    """Bisection over eta for each scale in turn."""
    if not classes:
        return True, 8.0
    ok = oracle_predicate(model, q, weights, size_cap)
    best_eta = -1.0
    for alpha in _A_SCALES:
        # only explore scales that improve on the incumbent eta
        if not ok(alpha, max(best_eta, 0.0)):
            continue
        lo, hi = max(best_eta, 0.0), 8.0
        if ok(alpha, hi):
            best_eta = hi
            break
        for _ in range(16):
            mid = 0.5 * (lo + hi)
            if ok(alpha, mid):
                lo = mid
            else:
                hi = mid
        best_eta = lo
        if best_eta >= 4.0:
            break
    return best_eta >= 0.0, max(best_eta, 0.0)


def oracle_solve(model, curve, L, ev, phase_tol=1e-9):
    """Zeros along a traced curve, each bisected to the requested residual."""
    m, n = curve.phases
    Ld = L**model.dimension
    offset = (math.log(model.orbit_size(m)) - math.log(model.orbit_size(n))) / Ld

    def unwrap(z, ref):
        return ref + _wrap_pi(ev.arg_ratio(m, n, z) - _wrap_pi(ref))

    pts = list(curve.points)
    if offset:
        pts = [_correct(ev, m, n, z, offset)[0] for z in pts]
    deltas = [ev.arg_ratio(m, n, pts[0])]
    for z in pts[1:]:
        deltas.append(unwrap(z, deltas[-1]))

    def refine(z1, d1, z2, d2, depth=0):
        if abs(Ld * (d2 - d1)) <= math.pi / 2 or depth > 24:
            return [(z1, d1)]
        zm, _ = _correct(ev, m, n, 0.5 * (z1 + z2), offset)
        dm = unwrap(zm, d1)
        return refine(z1, d1, zm, dm, depth + 1) + refine(zm, dm, z2, d2, depth + 1)

    fine = []
    for i in range(len(pts) - 1):
        fine.extend(refine(pts[i], deltas[i], pts[i + 1], deltas[i + 1]))
    fine.append((pts[-1], deltas[-1]))
    lo = min(d for _, d in fine)
    hi = max(d for _, d in fine)
    zeros, flagged = [], []
    for j in range(math.floor((Ld * lo - math.pi) / (2 * math.pi)),
                   math.ceil((Ld * hi - math.pi) / (2 * math.pi)) + 1):
        target = (math.pi + 2 * math.pi * j) / Ld
        crossings = [
            i for i in range(len(fine) - 1)
            if (fine[i][1] - target) == 0.0
            or (fine[i][1] - target) * (fine[i + 1][1] - target) < 0
        ]
        if len(crossings) > 1:
            flagged.append((j, len(crossings)))
        for i in crossings:
            (z1, d1), (z2, d2) = fine[i], fine[i + 1]
            for _ in range(80):
                zm, _ = _correct(ev, m, n, 0.5 * (z1 + z2), offset)
                dm = unwrap(zm, d1)
                if (d1 - target) * (dm - target) <= 0:
                    z2, d2 = zm, dm
                else:
                    z1, d1 = zm, dm
                if abs(Ld * (d2 - d1)) < phase_tol and abs(z2 - z1) < 1e-13 * (1 + abs(z1)):
                    break
            zsol, req = _correct(ev, m, n, 0.5 * (z1 + z2), offset)
            dsol = unwrap(zsol, d1)
            zeros.append(PredictedZero(
                zsol, j % Ld, req, abs(Ld * dsol - (math.pi + 2 * math.pi * j))
            ))
    # the solver's phase order, so that zeros on the negative axis line up
    return ZeroSet((m, n), L, _sort_unique(zeros), tuple(flagged))


def oracle_gray_steps(radix, n):
    """Reflected mixed-radix Gray sequence: yields (digit, old, new) steps.

    Every state of {0..radix-1}^n is visited exactly once, each step changing
    one digit by +-1.
    """
    a = [0] * n
    d = [1] * n
    while True:
        i = 0
        while i < n:
            b = a[i] + d[i]
            if 0 <= b < radix:
                yield i, a[i], b
                a[i] = b
                break
            d[i] = -d[i]
            i += 1
        if i == n:
            return


def oracle_torus_placements(model, L):
    """Per-site placement tables on the torus.

    anchored[x]   : placements whose anchor (offset 0) sits at x
    containing[x] : (term_index, sites, 1/|shape|) for every placement whose
                    shape covers x
    """
    geom = torus(L, model.dimension, model.range)
    anchored = [[] for _ in range(geom.n_sites)]
    containing = [[] for _ in range(geom.n_sites)]
    for ti, t in enumerate(model.terms):
        inv = 1.0 / len(t.shape)
        for x in range(geom.n_sites):
            c = geom.coords[x]
            sites = tuple(
                geom.index(tuple(c[a] + off[a] for a in range(model.dimension)))
                for off in t.shape
            )
            anchored[x].append((ti, sites))
            for s in sites:
                containing[s].append((ti, sites, inv))
    return geom, anchored, containing


class OracleRunningEnergy:
    """Total torus energy pair maintained under single-site spin flips."""

    def __init__(self, model, L):
        self.model = model
        geom, anchored, _ = oracle_torus_placements(model, L)
        self.geom = geom
        self.anchored = anchored
        # placements covering each site, with full weight (not 1/|shape|)
        cover = [[] for _ in range(geom.n_sites)]
        for x in range(geom.n_sites):
            for ti, sites in anchored[x]:
                for s in set(sites):
                    cover[s].append((model.terms[ti], sites))
        self.cover = cover

    def full(self, spins):
        c, p = 0j, 0.0
        for x in range(self.geom.n_sites):
            for ti, sites in self.anchored[x]:
                tc, tp = self.model.terms[ti].pair(tuple(spins[s] for s in sites))
                c += tc
                p += tp
        return c, p

    def delta(self, spins, site, new_spin):
        dc, dp = 0j, 0.0
        for term, sites in self.cover[site]:
            before = tuple(spins[s] for s in sites)
            after = tuple(new_spin if s == site else spins[s] for s in sites)
            c1, p1 = term.pair(after)
            c0, p0 = term.pair(before)
            dc += c1 - c0
            dp += p1 - p0
        return dc, dp


def oracle_scan(model, L):
    """Energy pairs (c, p) of every configuration, one list per block: the
    trailing digits are pinned (at least 64 blocks) and each block is walked
    in Gray-code order with per-flip updates, recomputed from scratch every
    4096 steps."""
    q = len(model.spins)
    run = OracleRunningEnergy(model, L)
    n = run.geom.n_sites
    k = 0
    while q**k < 64 and k < n:
        k += 1
    blocks = []
    for pinned in itertools.product(range(q), repeat=k):
        spins = [model.spins[0]] * (n - k) + [model.spins[d] for d in pinned]
        c, p = run.full(spins)
        out = [(c, p)]
        for count, (site, _, new) in enumerate(oracle_gray_steps(q, n - k), 1):
            dc, dp = run.delta(spins, site, model.spins[new])
            spins[site] = model.spins[new]
            c += dc
            p += dp
            if count % 4096 == 0:
                c, p = run.full(spins)
            out.append((c, p))
        blocks.append(out)
    return blocks


# -- certificate -----------------------------------------------------------------


def _certificate_cases(model, n_z, seed):
    rng = random.Random(seed)
    for _ in range(n_z):
        z = rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random())
        engine = WeightEngine(model, z)
        for q in model.orbit_representatives():
            classes = _gas(model, q, 12).classes
            yield q, classes, [engine.weight_truncated(y) for y in classes]


def _check_certificate(model, q, classes, weights):
    cert, eta = _gas_certificate(_gas(model, q, 12), weights)
    cert_old, eta_old = oracle_certificate(model, q, classes, weights)
    assert cert == cert_old
    if cert:
        ok = oracle_predicate(model, q, weights)
        assert any(ok(alpha, eta) for alpha in _A_SCALES)
        assert eta >= eta_old - ETA_SLACK
    else:
        assert eta == 0.0


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3), potts(3, 1.5)],
                         ids=lambda m: m.name)
def test_certificate_matches_bisection_oracle(model):
    cases = list(_certificate_cases(model, 30, f"certificate/{model.name}"))
    assert len(cases) == 30 * len(model.orbit_representatives())
    for q, classes, weights in cases:
        _check_certificate(model, q, classes, weights)


def test_certificate_at_the_convergence_boundary():
    # scale weights across the boundary where the certificate starts to fail,
    # and down to where eta reaches its cap
    model = blume_capel(1.5, 0.3)
    rng = np.random.default_rng(7)
    flags = set()
    for q in model.orbit_representatives():
        classes = _gas(model, q, 12).classes
        for scale in np.logspace(-60, 0, 120):
            w = scale * rng.random(len(classes)) * np.exp(2j * np.pi * rng.random(len(classes)))
            _check_certificate(model, q, classes, list(w))
            flags.add(_gas_certificate(_gas(model, q, 12), list(w)))
    assert {c for c, _ in flags} == {True, False}
    assert (True, 8.0) in flags


# -- cluster supports ----------------------------------------------------------------


def test_pruned_cluster_growth_keeps_every_support():
    # growth stops at the norm cutoff; the supports kept must be exactly the
    # connected sets of summed size <= max_norm, each once
    rng = random.Random(11)
    ids = tuple(range(12))
    sizes = {g: rng.choice((1.0, 2.0, 3.0)) for g in ids}
    edges = [(a, b) for a in ids for b in ids[a + 1:] if rng.random() < 0.3]
    system = PolymerSystem.build(ids, {g: 0.1j for g in ids}, edges, sizes)
    max_norm = 6.0

    def connected(sup):
        seen, stack = {sup[0]}, [sup[0]]
        while stack:
            g = stack.pop()
            for h in sup:
                if h not in seen and system.incompatible(g, h):
                    seen.add(h)
                    stack.append(h)
        return len(seen) == len(sup)

    expected = {
        sup for mask in range(1, 1 << len(ids))
        for sup in [tuple(g for g in ids if mask >> g & 1)]
        if sum(sizes[g] for g in sup) <= max_norm and connected(sup)
    }
    clusters = enumerate_clusters(system, None, max_norm)
    singles = [tuple(sorted(g for g, _ in c.multiplicity)) for c in clusters
               if all(k == 1 for _, k in c.multiplicity)]
    assert len(singles) == len(set(singles))
    assert set(singles) == expected


# -- zero solver -------------------------------------------------------------------


@pytest.fixture(scope="module", params=["ising", "blume-capel"])
def solved_pair(request):
    if request.param == "ising":
        model, phases, seed, step = ising(1.5), (1, -1), 1.04 + 0.06j, 0.06
    else:
        model, phases, seed, step = blume_capel(1.5, 0.3), (1, -1), -1.0 + 0.05j, 0.06
    ev = PhaseEvaluator(model)
    curve = trace_coexistence(model, *phases, seed=seed, step=step,
                              max_points=400, evaluator=ev)
    before = len(ev._cache)
    new = solve_zero_equations(model, curve, 3, evaluator=ev)
    tables = len(ev._cache) - before
    old = oracle_solve(model, curve, 3, PhaseEvaluator(model))
    return model, new, old, tables


def test_newton_matches_bisection_oracle(solved_pair):
    model, new, old, tables = solved_pair
    assert len(new.zeros) == len(old.zeros) > 0
    assert new.windows_flagged == old.windows_flagged
    for a, b in zip(new.zeros, old.zeros):
        assert abs(a.z - b.z) <= 1e-10
        assert a.k == b.k
        assert a.req_residual < 1e-9 and a.imq_residual < 1e-9


def test_newton_solver_table_budget(solved_pair):
    # a few Newton steps of three tables each per zero; one bisection
    # fallback to the bracket tolerance alone would cost some 200 tables
    model, new, old, tables = solved_pair
    assert tables <= 16 * len(new.zeros)


def test_branch_cut_zeros(solved_pair):
    # where Arg(zeta_+/zeta_-) = pi, Im log(zeta_+/zeta_-) crosses the
    # principal branch cut: z = -1 for Ising, arg z = +-pi/2 for Blume-Capel
    # (theta_+/theta_- = z^2).  A derivative from differences of the
    # logarithm jumps by 2 pi i / (2 eps) there and stalls Newton near 1e-9.
    model, new, old, tables = solved_pair
    ev = PhaseEvaluator(model)
    cut = [w for w in new.zeros if abs(abs(ev.arg_ratio(1, -1, w.z)) - math.pi) < 1e-6]
    expected = [-1.0] if model.name.startswith("ising") else [-1j, 1j]
    assert len(cut) == len(expected)
    for w in cut:
        assert min(abs(w.z / abs(w.z) - e) for e in expected) < 0.01
        assert w.req_residual < 1e-12 and w.imq_residual < 1e-12


class _NonHolomorphic:
    """zeta_1 = conj(z), zeta_-1 = 1: the locus is the unit circle and the
    phase equation Arg conj(z) = t has its root at e^{-it}, but the
    real-direction difference is not the derivative, so Newton stalls."""

    def zeta(self, m, z):
        return z.conjugate() if m == 1 else 1.0 + 0j

    def f(self, m, z):
        return -math.log(abs(self.zeta(m, z)))

    def arg_ratio(self, m, n, z):
        return cmath.phase(self.zeta(m, z) / self.zeta(n, z))


class _FlatInX(_NonHolomorphic):
    """zeta_1 = e^{i y^2} (1 + K x) at z = x + iy, zeta_-1 = 1: the locus
    through the bracket is the imaginary axis and the phase root of
    y^2 = t is at i sqrt(t).  The real-direction difference of r is 0 for
    K = 0 and 2 K eps for K = 1e15, where the Newton step is a negligible
    step away from a point that is no root."""

    def __init__(self, K):
        self.K = K

    def zeta(self, m, z):
        return cmath.exp(1j * z.imag**2) * (1.0 + self.K * z.real) if m == 1 else 1.0 + 0j


@pytest.mark.parametrize("ev, target, bracket, root", [
    (_NonHolomorphic(), 0.5, (cmath.exp(-0.4j), 0.4, cmath.exp(-0.55j), 0.55),
     cmath.exp(-0.5j)),
    (_FlatInX(0.0), 0.25, (0.4j, 0.16, 0.8j, 0.64), 0.5j),
    (_FlatInX(1e15), 0.25, (0.4j, 0.16, 0.8j, 0.64), 0.5j),
], ids=["non-holomorphic", "zero-derivative", "huge-derivative"])
def test_newton_falls_back_to_bisection(ev, target, bracket, root):
    z = _solve_crossing(ev, 1, -1, 0.0, target, bracket, 9)
    assert abs(z - root) < 1e-12


# -- enumeration kernel ------------------------------------------------------------

# the plaquette-perturbed Ising model of the benchmark's exact side
PLAQUETTE_ISING = """\
[model]
name = perturbed_ising

[coupling.horizontal]
shape = (0,0);(1,0)
J = 1.5

[coupling.vertical]
shape = (0,0);(0,1)
J = 1.5

[coupling.plaquette]
shape = (0,0);(1,0);(0,1);(1,1)
J = 0.1
"""



def _asymmetric_model():
    """Three states with a bond and a three-site corner term whose energies
    change when the sites are permuted, so the digit order of a placement's
    code matters."""
    spins = (-1, 0, 1)
    site = InteractionTerm(
        ((0, 0),), {(s,): complex(0.2 * s) for s in spins}, {(s,): float(s + 1) for s in spins}
    )
    bond = InteractionTerm(
        ((0, 0), (1, 0)),
        {(a, b): complex(0.5 * a - 0.3 * b + 0.7 * a * b)
         for a, b in itertools.product(spins, repeat=2)},
        {},
    )
    corner = InteractionTerm(
        ((0, 0), (1, 0), (0, 1)),
        {(a, b, c): complex(0.1 * a + 0.4 * a * b - 0.2 * b * c * c)
         for a, b, c in itertools.product(spins, repeat=3)},
        {},
    )
    return SpinModel(spins, 2, 1, (site, bond, corner), tuple((s,) for s in spins),
                     name="asymmetric")


_ENUMERATION_CASES = {
    "ising-L3": (lambda: ising(1.5), 3),
    "ising-L4": (lambda: ising(1.5), 4),
    "plaquette-L3": (lambda: model_from_config(PLAQUETTE_ISING), 3),
    "plaquette-L4": (lambda: model_from_config(PLAQUETTE_ISING), 4),
    "blume-capel-L3": (lambda: blume_capel(1.3, 0.1), 3),
    "potts3-L3": (lambda: potts(3, 1.2), 3),
    "free-field3-L3": (
        lambda: free_field_model(
            spins=(-1, 0, 1), site_energy=lambda s: 0.3 * s, site_zpower=lambda s: s + 1
        ),
        3,
    ),
    "asymmetric3-L3": (_asymmetric_model, 3),
}


@pytest.fixture(scope="module", params=list(_ENUMERATION_CASES))
def scanned(request):
    make, L = _ENUMERATION_CASES[request.param]
    model = make()
    return model, L, oracle_scan(model, L)


def test_coefficients_match_gray_code_oracle(scanned):
    model, L, blocks = scanned
    new = partition_polynomial(model, L).coefficients
    old = np.zeros(len(new), dtype=complex)
    for block in blocks:  # per-block sums added in block order, as the scan did
        co = np.zeros(len(new), dtype=complex)
        for c, p in block:
            co[int(round(p))] += cmath.exp(-c)
        old += co
    assert np.all(old != 0)
    for a, b in zip(new, old):
        assert abs(a - b) <= 1e-13 * abs(b)


def test_partition_function_matches_gray_code_oracle(scanned):
    model, L, blocks = scanned
    rng = random.Random(f"{model.name}/{L}")
    for _ in range(5):
        z = rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random())
        logz = cmath.log(z)
        terms = [[cmath.exp(-c + p * logz) for c, p in block] for block in blocks]
        old = sum(sum(block) for block in terms)
        # relative to the summed moduli: at complex z the terms cancel, and
        # |Z| is known no better than rounding of the largest terms allows
        mass = sum(abs(w) for block in terms for w in block)
        assert abs(partition_function_exact(model, L, z) - old) <= 1e-13 * mass


# -- oracles: the independent-set recursions and component searches replaced
# by polymer.independent_set_sum and lattice.components -----------------------


def oracle_polymer_partition_function(system, subset=None):
    items = tuple(system.polymers if subset is None else subset)

    def rec(i, chosen_weight, banned):
        if i == len(items):
            return chosen_weight
        g = items[i]
        total = rec(i + 1, chosen_weight, banned)
        if g not in banned:
            extra = {h for h in items[i + 1:] if system.incompatible(g, h)}
            total += rec(i + 1, chosen_weight * system.weights[g], banned | extra)
        return total

    return rec(0, 1.0 + 0j, frozenset())


class OracleWeightEngine(WeightEngine):
    def polymer_sum(self, region, q):
        region = frozenset(tuple(x) for x in region)
        contours = contours_in_region(self.model, q, region, self.budget)
        weights = [self.weight_truncated(y) for y in contours]
        supports = [y.support for y in contours]

        def rec(i, free, acc):
            total = acc
            for j in range(i, len(contours)):
                if supports[j] <= free:
                    total += rec(j + 1, free - supports[j], acc * weights[j])
            return total

        return rec(0, region, 1.0 + 0j)


def oracle_independent_set_sum(system, ids):
    neigh = {
        i: frozenset(j for j in ids if j != i and system.incompatible(i, j))
        for i in ids
    }

    def rec(i, banned, acc):
        total = acc
        for j in range(i, len(ids)):
            g = ids[j]
            if g in banned:
                continue
            total += rec(j + 1, banned | neigh[g], acc * system.weights[g])
        return total

    return rec(0, frozenset(), 1.0 + 0j)


def oracle_finite_volume_zeta(model, m, L, z, cutoffs=Cutoffs()):
    """finite_volume_zeta as it was: the polymer system built for both
    branches, the exact one summed by the old recursion."""
    engine = WeightEngine(model, z)
    th = engine.theta[m]
    classes = list(_gas(model, m, cutoffs.size_cap).classes)
    geom, placements = _torus_placements_of_classes(model, classes, L)
    n = geom.n_sites
    if not placements:
        return th
    w = {i: engine.weight_truncated(classes[ci]) for i, (ci, _, _) in enumerate(placements)}
    supports = [sup for (_, _, sup) in placements]
    ids = tuple(range(len(placements)))
    edges = [(i, j) for i in ids for j in ids[i + 1:] if supports[i] & supports[j]]
    sizes = {i: classes[placements[i][0]].size for i in ids}
    system = PolymerSystem.build(ids, w, edges, sizes)
    if len(placements) <= EXACT_PLACEMENT_BUDGET:
        s_L = cmath.log(oracle_independent_set_sum(system, ids)) / n
    else:
        s_L = sum(c.value for c in enumerate_clusters(system, ids, cutoffs.norm_cap)) / n
    return th * cmath.exp(s_L)


class OracleContourSumEngine(ContourSumEngine):
    def partition_function(self, region, q):
        region = frozenset(tuple(x) for x in region)
        key = (_canon_region(region)[0], q)
        if key in self._memo:
            return self._memo[key]
        contours = contours_module.contours_in_region(self.model, q, region, self.budget)
        vols = [y.volume for y in contours]
        weights = []
        for y in contours:
            w = pair_weight(y.energy_pair(self.model), self.z)
            for comp, lab in y.interiors:
                w *= self.partition_function(comp, lab)
            weights.append(w)
        thq = self.theta[q]
        total = 0j

        def rec(i, free, acc):
            nonlocal total
            total += acc * thq ** len(free)
            for j in range(i, len(contours)):
                if vols[j] <= free:
                    rec(j + 1, free - vols[j], acc * weights[j])

        rec(0, region, 1.0 + 0j)
        self._memo[key] = total
        return total


def oracle_zd_components(sites):
    todo = set(sites)
    out = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in zd_neighbors(x):
                if y in todo:
                    todo.remove(y)
                    comp.add(y)
                    stack.append(y)
        out.append(frozenset(comp))
    return out


def oracle_torus_components(geom, sites):
    todo = set(sites)
    out = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in geom.neighbors[x]:
                if y in todo:
                    todo.remove(y)
                    comp.add(y)
                    stack.append(y)
        out.append(frozenset(comp))
    return out


def oracle_torus_union_find(config, R):
    """The bad-box scan and union-find of the old contour_graph, returning
    the components before classification."""
    geom = config.torus(R)
    spins = config.spins
    bad = set()
    for c, box in enumerate(geom.boxes):
        v0 = spins[box[0]]
        if any(spins[i] != v0 for i in box[1:]):
            bad.add(c)
    parent = {x: x for x in bad}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for c in bad:
        ra = find(c)
        for s in geom.boxes[c]:
            if s in parent:
                rb = find(s)
                if rb != ra:
                    parent[rb] = ra
    comps = {}
    for x in parent:
        comps.setdefault(find(x), []).append(x)
    return bad, [frozenset(sites) for sites in comps.values()]


def oracle_zd_union_find(support, R):
    """The union-find of the old _zd_contour_from_deviations."""
    parent = {x: x for x in support}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for c in support:
        ra = find(c)
        for s in chebyshev_ball(c, R):
            if s in parent and s != c:
                rb = find(s)
                if rb != ra:
                    parent[rb] = ra
    comps = {}
    for x in parent:
        comps.setdefault(find(x), []).append(x)
    return [frozenset(sites) for sites in comps.values()]


def oracle_placed_overlap(pa, pb, supports, d):
    (ca, oa), (cb, ob) = pa, pb
    sa = {tuple(x[k] + oa[k] for k in range(d)) for x in supports[ca]}
    return any(
        tuple(x[k] + ob[k] for k in range(d)) in sa for x in supports[cb]
    )


def oracle_overlap_offsets(classes, d):
    """The set comprehension the gas record's offsets replaced."""
    supports = [y.support for y in classes]
    return [
        [sorted({tuple(a[k] - b[k] for k in range(d)) for a in si for b in sj})
         for sj in supports]
        for si in supports
    ]


def oracle_gas_skeleton(model, q, size_cap, norm_cap):
    """The gas record's skeleton with the overlap of two placements tested
    on their translated supports."""
    classes = _gas(model, q, size_cap).classes
    d = model.dimension
    supports = [y.support for y in classes]
    overlap_offsets = oracle_overlap_offsets(classes, d)
    placement_sets = set()
    min_size = min((y.size for y in classes), default=1)
    cap_parts = max(1, int(norm_cap // max(min_size, 1)))

    def canon(pset):
        t = min(pset, key=lambda p: (p[1], p[0]))[1]
        return tuple(sorted(
            (ci, tuple(o[k] - t[k] for k in range(d))) for ci, o in pset
        ))

    def grow(pset, base_norm):
        placement_sets.add(canon(pset))
        if len(pset) >= cap_parts:
            return
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
        sizes = [classes[ci].size for ci, _ in placements]
        incompat = frozenset(
            frozenset((a, b))
            for a in range(len(placements))
            for b in range(a + 1, len(placements))
            if oracle_placed_overlap(placements[a], placements[b], supports, d)
        )
        sys_stub = PolymerSystem.build(
            tuple(range(len(placements))),
            {i: 0j for i in range(len(placements))},
            [tuple(e) for e in incompat],
        )
        base = sum(sizes)
        ranges = [
            range(1, 2 + int((norm_cap - base) // sizes[i]))
            for i in range(len(placements))
        ]
        for mult in itertools.product(*ranges):
            norm = sum(m * s for m, s in zip(mult, sizes))
            if norm > norm_cap or sum(mult) > 8:
                continue
            u = ursell_coefficient(sys_stub, dict(enumerate(mult)))
            if u == 0.0:
                continue
            entries.append(
                (tuple((placements[i][0], mult[i]) for i in range(len(placements))), u)
            )
    return classes, tuple(entries)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _random_polymer_system(rng, n):
    polys = tuple(f"g{i}" for i in range(n))
    edges = [
        (polys[i], polys[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    w = {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in polys}
    return PolymerSystem.build(polys, w, edges)


def test_polymer_partition_function_matches_recursion_oracle():
    rng = random.Random(41)
    systems = [
        two_polymer_system(0.2, 0.5j, incompatible=False),
        two_polymer_system(0.2, 0.3, incompatible=True),
        PolymerSystem.build(("a",), {"a": 0.3 + 0.1j}, []),
        # the cluster-expansion demo's toy system
        PolymerSystem.build(
            ("a", "b", "c"), {"a": 0.05, "b": 0.04 + 0.01j, "c": 0.03},
            [("a", "b"), ("b", "c")],
        ),
    ]
    systems += [_random_certified_system(rng)[0] for _ in range(30)]
    systems += [_random_polymer_system(rng, n) for n in (8, 12, 16, 20)]
    for s in systems:
        assert _rel(polymer_partition_function(s), oracle_polymer_partition_function(s)) <= 1e-13
    s = systems[-1]
    subset = s.polymers[::2]
    assert _rel(polymer_partition_function(s, subset),
                oracle_polymer_partition_function(s, subset)) <= 1e-13


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3)], ids=lambda m: m.name)
def test_zprime_matches_recursion_oracle(model):
    rng = random.Random(42)
    regions = [
        [(i, j) for i in range(a) for j in range(b)] for a, b in ((3, 3), (3, 4), (4, 4))
    ]
    for _ in range(2):
        z = rng.uniform(0.7, 1.3) * cmath.exp(2j * math.pi * rng.random())
        new, old = WeightEngine(model, z), OracleWeightEngine(model, z)
        for region in regions:
            for q in model.spins:
                b = old.zprime(region, q)
                assert _rel(new.zprime(region, q), b) <= 1e-13


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3)], ids=lambda m: m.name)
@pytest.mark.parametrize("L", [3, 4])
def test_finite_volume_zeta_matches_recursion_oracle(model, L):
    rng = random.Random(f"{model.name}/{L}")
    for _ in range(2):
        z = rng.uniform(0.8, 1.2) * cmath.exp(2j * math.pi * rng.random())
        for m in model.orbit_representatives():
            b = oracle_finite_volume_zeta(model, m, L, z)
            assert _rel(finite_volume_zeta(model, m, L, z), b) <= 1e-13


def test_contour_partition_function_matches_recursion_oracle(monkeypatch):
    # both engines read one contour list per region, so the oracle pays for
    # its recursion only
    cache = {}
    enumerate_region = contours_module.contours_in_region

    def cached(model, q, region, budget):
        key = (model.name, q, frozenset(region))
        if key not in cache:
            cache[key] = enumerate_region(model, q, region, budget)
        return cache[key]

    monkeypatch.setattr(contours_module, "contours_in_region", cached)
    rng = random.Random(43)
    cases = [
        (blume_capel(1.4, 0.05), (4, 5), 1),
        (blume_capel(1.4, 0.05), (5, 5), 1),
        (ising(1.1), (3, 6), 1),
        (ising(1.1), (5, 6), 1),
    ]
    for model, (a, b), q in cases:
        region = [(i, j) for i in range(a) for j in range(b)]
        z = rng.uniform(0.6, 1.6) * cmath.exp(2j * math.pi * rng.random())
        new = ContourSumEngine(model, z).partition_function(region, q)
        old = OracleContourSumEngine(model, z).partition_function(region, q)
        assert _rel(new, old) <= 1e-13, (model.name, a, b)


def _random_zd_sites(rng, d, side, density):
    return [p for p in itertools.product(range(side), repeat=d) if rng.random() < density]


def test_components_match_bfs_and_union_find_oracles():
    # same order as the old BFS; the union-finds listed components in
    # another order, which their callers sorted or only counted, so against
    # them the partition is compared
    rng = random.Random(44)
    for _ in range(40):
        d = rng.choice((2, 3))
        sites = frozenset(_random_zd_sites(rng, d, 6 if d == 2 else 4, rng.uniform(0.2, 0.7)))
        assert components(sites, zd_neighbors) == oracle_zd_components(sites)
        R = rng.choice((1, 2))
        linked = components(sites, lambda x: chebyshev_ball(x, R))
        assert sorted(linked, key=min) == sorted(oracle_zd_union_find(sites, R), key=min)

        geom = torus(rng.choice((5, 6, 7)), 2)
        sub = [x for x in range(geom.n_sites) if rng.random() < 0.5]
        assert geom.components(sub) == oracle_torus_components(geom, sub)
        assert geom.components(frozenset(sub)) == oracle_torus_components(geom, frozenset(sub))

        model = rng.choice((ising(1.0), blume_capel(1.0, 0.1)))
        cfg = sparse_torus_config(rng, model, geom.L, rng.randint(0, 6))
        bad, comps = oracle_torus_union_find(cfg, 1)
        assert r_boundary(cfg, 1) == bad
        linked = components(bad, geom.boxes.__getitem__)
        assert sorted(linked, key=min) == sorted(comps, key=min)
        _, small, large = contour_graph(cfg, 1)
        assert sorted(small + large, key=min) == sorted(comps, key=min)


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3), potts(3, 1.5)],
                         ids=lambda m: m.name)
def test_gas_skeleton_matches_placed_overlap_oracle(model):
    for q in model.orbit_representatives():
        gas = _gas(model, q, 12)
        assert (gas.classes, gas.skeleton(18.0)) == oracle_gas_skeleton(model, q, 12, 18.0)


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3), potts(3, 1.5),
                                   potts(4, 1.5)], ids=lambda m: m.name)
def test_overlap_offsets_match_set_oracle(model):
    for q in model.orbit_representatives():
        classes = contour_classes(model, q, 12)
        assert _Gas(model, q, 12).offsets == oracle_overlap_offsets(classes, model.dimension)


# -- oracles: the per-candidate contour builder replaced by the batched one
# (contours._zd_contours) -------------------------------------------------------


def oracle_zd_holes(support) -> list[frozenset]:
    """Finite components of Z^d minus ``support`` (the holes of the set).

    Splits the complement inside the bounding box inflated by one layer into
    components: those holding the lowest or the highest corner of that box
    lie outside, the rest are holes.
    """
    support = set(support)
    if not support:
        return []
    d = len(next(iter(support)))
    lo = tuple(min(p[a] for p in support) - 1 for a in range(d))
    hi = tuple(max(p[a] for p in support) + 1 for a in range(d))
    box = itertools.product(*[range(lo[a], hi[a] + 1) for a in range(d)])
    free = [p for p in box if p not in support]
    return [c for c in components(free, zd_neighbors) if lo not in c and hi not in c]


def oracle_zd_contour_from_deviations(model, q, deviations):
    """Build the contour of a background-q configuration with the given
    deviations, or None if its bad region is not a single component."""
    cfg = ZdConfiguration.make(q, deviations)
    support = r_boundary(cfg, model.range)
    if not support:
        return None
    # two boundary sites are linked when one non-constant box contains both
    if len(components(support, lambda x: chebyshev_ball(x, model.range))) != 1:
        return None
    look = cfg.lookup()
    holes = oracle_zd_holes(support)
    interiors = []
    for comp in sorted(holes, key=min):
        vals = {look(x) for x in comp}
        assert len(vals) == 1, "hole of a contour support is not constant"
        interiors.append((comp, vals.pop()))
    spins = {x: look(x) for x in support}
    return ZdContour(q, support, spins, tuple(interiors))


def oracle_contours_in_region(model, q, region):
    region = frozenset(tuple(x) for x in region)
    core = sorted(
        x for x in region if all(tuple(y) in region for y in chebyshev_ball(x, model.range))
    )
    others = [s for s in model.spins if s != q]
    out = []
    for assignment in itertools.product([None] + others, repeat=len(core)):
        dev = {core[i]: s for i, s in enumerate(assignment) if s is not None}
        if not dev:
            continue
        y = oracle_zd_contour_from_deviations(model, q, dev)
        if y is None:
            continue
        if not (y.support <= region and y.volume <= region):
            continue
        out.append(y)
    out.sort(key=lambda y: y.key())
    return out


def oracle_contour_classes(model, q, max_support):
    R = model.range
    d = model.dimension
    link = 2 * R + 1
    max_dev = 1 + max(
        0, (max_support - (2 * R + 1) ** d) // ((2 * R + 1) ** (d - 1))
    )
    others = [s for s in model.spins if s != q]
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
                    canon = _canon_sites(frozenset(pat | {y}))
                    if canon not in patterns:
                        patterns.add(canon)
                        new.append(canon)
        frontier = new
    classes = []
    seen = set()
    for pat in sorted(patterns, key=sorted):
        # fewer than (2R+1)^d deviations never fill a box, so the support is
        # the union of their R-balls whatever the labels; testing its size
        # first only saves time, the old loop built every candidate and
        # dropped the large ones afterwards
        if len({y for x in pat for y in chebyshev_ball(x, R)}) > max_support:
            continue
        for labs in itertools.product(others, repeat=len(pat)):
            dev = dict(zip(sorted(pat), labs))
            y = oracle_zd_contour_from_deviations(model, q, dev)
            if y is None or y.size > max_support:
                continue
            yc = _canon_contour(y)
            if yc.key() in seen:
                continue
            seen.add(yc.key())
            classes.append(yc)
    classes.sort(key=lambda y: (y.size, y.key()))
    return classes


def _contour_records(model, contours):
    """Everything a contour carries, its energy pair to the last bit."""
    return [
        (y.q, y.key(), y.support, y.spins, y.interiors, repr(y.energy_pair(model)))
        for y in contours
    ]


_CLASS_MODELS = {
    "ising": lambda: ising(1.5),
    "plaquette": lambda: model_from_config(PLAQUETTE_ISING),
    "blume-capel": lambda: blume_capel(1.5, 0.3),
    "potts3": lambda: potts(3, 1.5),
    "potts4": lambda: potts(4, 1.5),
    # the stand-in models of polymer.estimate_c0 (single-site term, zero
    # energies), which enumerate phase 0 only
    "counting2": lambda: free_field_model(spins=(0, 1)),
    "counting3": lambda: free_field_model(spins=(0, 1, 2)),
    "counting4": lambda: free_field_model(spins=(0, 1, 2, 3)),
}


@pytest.mark.parametrize("name", list(_CLASS_MODELS))
def test_contour_classes_match_per_candidate_oracle(name):
    model = _CLASS_MODELS[name]()
    phases = (0,) if name.startswith("counting") else model.spins
    for size_cap in (9, 12, 16):
        for q in phases:
            assert _contour_records(model, contour_classes(model, q, size_cap)) == \
                _contour_records(model, oracle_contour_classes(model, q, size_cap)), (size_cap, q)


def test_range_two_contour_classes_match_per_candidate_oracle():
    model = perturbed_ising({((0, 0), (0, 2)): 0.1, ((0, 0), (0, 1)): 1.0})
    assert model.range == 2
    for size_cap in (25, 30):
        for q in model.spins:
            new = contour_classes(model, q, size_cap)
            assert new
            assert _contour_records(model, new) == \
                _contour_records(model, oracle_contour_classes(model, q, size_cap))


def _box(a, b):
    return [(i, j) for i in range(a) for j in range(b)]


@pytest.mark.parametrize("model, region", [
    (ising(1.1), _box(5, 5)),
    (ising(1.1), _box(3, 6)),
    (blume_capel(1.4, 0.05), _box(4, 5)),
    (potts(3, 1.5), _box(4, 4)),
    (ising(1.1), [x for x in _box(7, 7) if x[0] < 3 or x[1] < 3]),
], ids=["ising-5x5", "ising-3x6", "blume-capel-4x5", "potts3-4x4", "ising-L"])
def test_contours_in_region_match_per_candidate_oracle(model, region):
    for q in model.spins:
        new = contours_in_region(model, q, region)
        assert _contour_records(model, new) == \
            _contour_records(model, oracle_contours_in_region(model, q, region))
    if len(region) == 25:
        # the flipped 3x3 core leaves its centre as a hole
        assert any(y.interiors for y in new)


# -- oracles: the per-placement energy loops replaced by the placement-table
# energy kernel (models.placement_energies) -------------------------------------


def oracle_hamiltonian_torus_pair(model, config):
    geom, anchored, _ = oracle_torus_placements(model, config.side)
    spins = config.spins
    c, p = 0j, 0.0
    for x in range(geom.n_sites):
        for ti, sites in anchored[x]:
            tc, tp = model.terms[ti].pair(tuple(spins[s] for s in sites))
            c += tc
            p += tp
    return (c, p)


def oracle_site_energy_pair(model, containing_entry, value_at):
    """h_x = sum over interaction translates containing x of Phi/|shape|."""
    c, p = 0j, 0.0
    for ti, sites, inv in containing_entry:
        t = model.terms[ti]
        tc, tp = t.pair(tuple(value_at(s) for s in sites))
        c += tc * inv
        p += tp * inv
    return (c, p)


def oracle_excitation_energy_pair(model, config):
    boundary = r_boundary(config, model.range)
    c, p = 0j, 0.0
    if isinstance(config, TorusConfiguration):
        _, _, containing = oracle_torus_placements(model, config.side)
        spins = config.spins
        for x in boundary:
            tc, tp = oracle_site_energy_pair(model, containing[x], lambda s: spins[s])
            c += tc
            p += tp
        return (c, p)
    look = config.lookup()
    for x in boundary:
        for t in model.terms:
            inv = 1.0 / len(t.shape)
            for off in t.shape:
                anchor = tuple(x[a] - off[a] for a in range(model.dimension))
                pat = tuple(
                    look(tuple(anchor[a] + o[a] for a in range(model.dimension)))
                    for o in t.shape
                )
                tc, tp = t.pair(pat)
                c += tc * inv
                p += tp * inv
    return (c, p)


def oracle_transfer_matrix_pf(model, L, z):
    """The per-term-kind transfer matrix; right only for shapes whose
    first-axis offsets are 0 and 1 (it misplaces backward offsets)."""
    d = model.dimension
    q = len(model.spins)
    layer_sites = L ** (d - 1)
    n = q**layer_sites
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
    for t in other_terms:
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


_ENERGY_MODELS = {
    "ising": lambda: ising(1.5),
    "plaquette": lambda: model_from_config(PLAQUETTE_ISING),
    "blume-capel": lambda: blume_capel(1.3, 0.1),
    "potts3": lambda: potts(3, 1.2),
    "free-field3": lambda: free_field_model(
        spins=(-1, 0, 1), site_energy=lambda s: 0.3 * s, site_zpower=lambda s: s + 1
    ),
    "asymmetric3": _asymmetric_model,
}


def _pair_close(new, old):
    return all(abs(a - b) <= 1e-13 * max(abs(b), 1.0) for a, b in zip(new, old))


@pytest.mark.parametrize("name", list(_ENERGY_MODELS))
def test_torus_energies_match_placement_loop_oracles(name):
    model = _ENERGY_MODELS[name]()
    rng = random.Random(f"torus-energies/{name}")
    for L in (3, 4, 5):
        for k in range(12):
            if k % 2:
                cfg = random_torus_config(rng, model, L)
            else:
                cfg = sparse_torus_config(rng, model, L, rng.randint(0, 4))
            assert _pair_close(hamiltonian_torus_pair(model, cfg),
                               oracle_hamiltonian_torus_pair(model, cfg))
            assert _pair_close(excitation_energy_pair(model, cfg),
                               oracle_excitation_energy_pair(model, cfg))


@pytest.mark.parametrize("name", list(_ENERGY_MODELS))
def test_zd_excitation_energies_match_placement_loop_oracle(name):
    model = _ENERGY_MODELS[name]()
    rng = random.Random(f"zd-energies/{name}")
    for _ in range(40):
        bg = rng.choice(model.spins)
        others = [s for s in model.spins if s != bg]
        side = rng.randint(1, 5)
        origin = (rng.randint(-3, 3), rng.randint(-3, 3))
        dev = {
            (origin[0] + i, origin[1] + j): rng.choice(others)
            for i, j in itertools.product(range(side), repeat=2)
            if rng.random() < 0.5
        }
        cfg = ZdConfiguration.make(bg, dev)
        assert _pair_close(excitation_energy_pair(model, cfg),
                           oracle_excitation_energy_pair(model, cfg))


@pytest.mark.parametrize("name", list(_ENERGY_MODELS))
def test_transfer_matrix_matches_per_term_kind_oracle(name):
    # every model here has forward first-axis offsets only, where the old
    # transfer matrix was right
    model = _ENERGY_MODELS[name]()
    rng = random.Random(f"transfer/{name}")
    for L in (3, 4) if len(model.spins) == 2 else (3,):
        for _ in range(3):
            z = rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random())
            new, old = transfer_matrix_pf(model, L, z), oracle_transfer_matrix_pf(model, L, z)
            assert abs(new - old) <= 1e-12 * abs(old), (L, z)
