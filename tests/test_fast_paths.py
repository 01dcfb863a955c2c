"""The fast certificate, the Newton zero solver, the contour-gas pressure
polynomials and their exact derivative, the phase-stacked free-energy table,
the block enumeration kernel, the independent-set kernel, the component
search, the placement-table energy kernel, the batched contour builder,
the overlap offsets, the bitmask torus extraction and the closed forms of
Assumption B against the bisection, scalar weight loop, finite
differences, phase-by-phase table, Gray-code scan, recursion, union-find,
per-placement loop, per-candidate builder and set comprehension code they
replaced, kept here as oracles; and the annulus certificates against
bounds from a loop over classes and the pointwise certificates inside."""

import cmath
import dataclasses
import functools
import itertools
import math
import operator
import random
import re
from collections import Counter, namedtuple

import numpy as np
import pytest

import pszeros.contours as contours
import pszeros.metastable as metastable
import pszeros.zeros as zeros_module
from pszeros.contours import (
    MatchingCollection,
    TorusContour,
    TorusNetwork,
    ZdContour,
    _canon_sites,
    contour_classes,
    contour_graph,
    contours_in_region,
    exterior_interior,
    extract,
    is_matching,
    nesting_order,
    reconstruct,
)
import pszeros.lattice as lattice
from pszeros.lattice import chebyshev_ball, torus, zd_neighbors
from pszeros.metastable import (
    EXACT_PLACEMENT_BUDGET,
    Cutoffs,
    WeightEngine,
    _A_SCALES,
    finite_volume_zeta,
    free_energy_table,
)
from pszeros.errors import BudgetError, ConvergenceError
from conftest import (
    all_configs, free_field_model, random_torus_config, sparse_torus_config, sweep_models,
)
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
    perturbed_ising,
    potts,
    r_boundary,
    theta,
    theta_max,
)
from pszeros.polymer import (
    PolymerSystem,
    enumerate_clusters,
    multi_indices,
    polymer_partition_function,
    ursell_coefficient,
)
from test_contours import nested_ring_config
from test_polymer import _random_certified_system, two_polymer_system
from pszeros.torus_exact import (
    _density_of_states, partition_function_exact, partition_polynomial, transfer_matrix_pf,
)
from pszeros.zeros import (
    PhaseEvaluator,
    PredictedZero,
    ZeroSet,
    _correct,
    _gradient,
    _solve_crossing,
    _sort_unique,
    _wrap_pi,
    solve_zero_equations,
    trace_coexistence,
)

ETA_SLACK = 2.0**-13

Gas = namedtuple("Gas", "q classes shape")


@functools.lru_cache(maxsize=None)
def _gas(model, q, size_cap):
    """Phase q's contour classes at the support cap and their shape record,
    that of q's one-phase record; once per model, so the classes compare
    equal (contours compare by identity)."""
    return Gas(q, tuple(contour_classes(model, q, size_cap)),
               metastable._record(model, size_cap, (q,)).shape)


# -- oracles: the bisection code replaced by the fast paths ---------------------


def oracle_volume(y):
    """The volume of a contour on Z^d: its support and its holes."""
    return y.support.union(*(comp for comp, _ in y.interiors))


def oracle_predicate(model, q, weights, size_cap=12):
    """The certificate predicate ok(alpha, eta) for fixed weights, with the
    volumes |V(Y)| of the mass condition taken from the contour classes."""
    gas = _gas(model, q, size_cap)
    sz, off = gas.shape.geometry.sizes, gas.shape.geometry.offsets
    vol = np.array([len(oracle_volume(y)) for y in gas.classes], dtype=float)
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


def oracle_free_energy_table(model, z, skeletons, cutoffs=Cutoffs()):
    """Per phase (s, zeta, eta), the stable set and the activation count,
    with each class weighed by ``WeightEngine.weight_truncated`` and each
    entry of the phase's skeleton multiplied out in turn, as
    ``polymer_pressure`` did before its array form.  A phase whose
    certificate fails at z raises; eta is ``oracle_annulus_certificate``'s."""
    engine = WeightEngine(model, z)
    out = {}
    for q in model.orbit_representatives():
        th = engine.theta[q]
        if th == 0:
            out[q] = (0j, 0j, None)
            continue
        gas = _gas(model, q, cutoffs.size_cap)
        w = [engine.weight_truncated(y) for y in gas.classes]
        if not gas_certificate(gas, w)[0]:
            raise ConvergenceError("oracle certificate failed")
        eta = covering_annulus_eta(model, q, z, cutoffs.size_cap)
        value = 0j
        for mults, u in skeletons[q]:
            term = u + 0j
            for ci, k in mults:
                term *= w[ci] ** k
            value += term
        out[q] = (value, th * cmath.exp(value), eta)
    f = {q: -math.log(abs(zeta)) if zeta else math.inf for q, (_, zeta, _) in out.items()}
    fmin = min(f.values())
    stable = tuple(sorted((q for q in f if f[q] < math.inf and f[q] - fmin < metastable.STABLE_TOL), key=str))
    return out, stable, len(engine.activation_log)


def oracle_class_arrays(model, gas):
    """A gas record's class arrays as the phase-by-phase path kept them: per
    class exp(-c) and p of its energy pair and its size; the z power of
    theta_q."""
    pairs = [y.energy_pair(model) for y in gas.classes]
    return (
        np.array([cmath.exp(-c) for c, _ in pairs], dtype=complex),
        np.array([p for _, p in pairs], dtype=float),
        np.array(gas.shape.sizes, dtype=float),
        model.ground_pair(gas.q)[1],
    )


def oracle_estimate_tau(model, z, size_cap):
    """estimate_tau as a loop over the phases' gas records."""
    th = theta_max(model, z)
    if th == 0:
        return math.inf
    best = math.inf
    for q in model.orbit_representatives():
        rho0, power, sizes, _ = oracle_class_arrays(model, _gas(model, q, size_cap))
        rho = np.abs(rho0 * complex(z) ** power)
        live = rho != 0
        if live.any():
            s = sizes[live]
            best = min(best, float((-(np.log(rho[live]) - s * math.log(th)) / s).min()))
    return best


def oracle_class_weights(model, engine, gas):
    """One phase's truncated class weights, their exact log-derivatives (or
    None) and the count the cap zeroed."""
    z = engine.z
    rho0, power, sizes, ground_power = oracle_class_arrays(model, gas)
    thq = engine.theta[gas.q]
    if thq == 0:
        return np.zeros(len(gas.classes), dtype=complex), None, 0
    factor = oracle_phase_factor(engine, gas.q)
    w = rho0 * complex(z) ** power * thq**-sizes * factor
    capped = np.abs(w) > np.exp(-(engine.tau / 2.0) * sizes)
    w[capped] = 0
    if factor != 1.0 or z == 0 or capped.any():
        return w, None, int(capped.sum())
    return w, (power - sizes * ground_power) / z, 0


def oracle_gas_certificate(gas, weights):
    """One gas's certificate: searchsorted on each row and a chord per
    cell, confirmed by the predicate."""
    if not np.any(weights):
        return True, 8.0
    geo = gas.shape.geometry
    absw = np.abs(weights)
    rows = geo.rows * absw @ geo.grid_exp
    i = int(np.searchsorted(rows[0, 1:-1], 1.0, side="right"))
    a0, a1 = math.log(rows[0, i]), math.log(rows[0, i + 1])
    t_mass = geo.step * (i - a0 / (a1 - a0))
    nb = rows[1:]
    cell = np.searchsorted(nb.max(axis=0)[1:-1], _A_SCALES, side="right")
    lo, hi = np.log(nb[:, cell]), np.log(nb[:, cell + 1])
    t_nb = geo.step * (cell + ((np.log(_A_SCALES) - lo) / (hi - lo)).min(axis=0))
    etas = np.minimum(t_nb, t_mass) - _A_SCALES
    k = int(etas.argmax())
    eta = min(float(etas[k]) - 1e-9, 8.0)
    if eta < 0.0:
        return any(metastable._certificate_ok(geo, absw, a, 0.0) for a in _A_SCALES), 0.0
    if not metastable._certificate_ok(geo, absw, _A_SCALES[k], eta):
        raise ConvergenceError(f"gas certificate: eta={eta!r} fails its predicate")
    return True, eta


def gas_certificate(gas, weights):
    """The convergence certificate of a gas record at the given class
    weights: ``_certificates`` of one row."""
    return metastable._certificates(gas.shape.geometry, np.abs(weights)[None])[0]


def oracle_rates(model, r, size_cap):
    """The rates -log(|rho(Y)| / theta^{|Y|}) / |Y| at |z| = r of every class
    of the orbit representatives' gases; inf where rho = 0 or theta = 0."""
    th = theta_max(model, r)
    out = []
    for q in model.orbit_representatives():
        rho0, power, sizes, _ = oracle_class_arrays(model, _gas(model, q, size_cap))
        with np.errstate(divide="ignore"):
            log_rho = np.log(np.abs(rho0 * complex(r) ** power))
        out.append(-(log_rho - sizes * math.log(th)) / sizes if th else np.full(len(sizes), math.inf))
    return np.concatenate(out)


def oracle_mollifier_bound(model, q, tau, radii):
    """phi_q over an annulus, bounded factor by factor: the larger of each
    factor of ``phase_factor`` at the two end radii, at the given tau."""
    out = 1.0
    for m in model.spins:
        if m == q:
            continue
        ends = []
        for r in radii:
            thq, thm = abs(theta(model, q, r)), abs(theta(model, m, r))
            if thq == 0:
                return 0.0
            ends.append(metastable.mollifier_eval(tau / 4.0 + math.log(thq) - math.log(thm))[0]
                        if thm else 1.0)
        out *= max(ends)
    return out


def oracle_phase_factor(engine, q, interior=frozenset(), size=1):
    """``WeightEngine.phase_factor`` as its own loop over the phases, with
    Z'_q(interior) first and early exits."""
    if q not in engine.log_theta:  # theta_q = 0
        return 0.0
    zq = engine.zprime(interior, q) if interior else 1.0 + 0j
    if zq == 0:
        return 0.0
    log_num = math.log(abs(zq)) / size + engine.log_theta[q]
    out = 1.0
    for m, log_thm in engine.log_theta.items():  # theta_m = 0: interpreted as chi = 1
        if m == q:
            continue
        zm = engine.zprime(interior, m) if interior else 1.0 + 0j
        if zm == 0:
            continue
        x = engine.tau / 4.0 + log_num - (math.log(abs(zm)) / size + log_thm)
        out *= metastable.mollifier_eval(x)[0]
        if out == 0.0:
            return 0.0
    return out


def oracle_annulus_bounds(model, record, size_cap, r1, r2):
    """``_annulus_bounds`` with phi_up as its own product over the phases."""
    ends = [metastable._rates(model, r, size_cap) for r in (r1, r2)]
    tau = float(np.maximum(*ends).min(initial=math.inf))
    th = {m: [abs(theta(model, m, r)) for r in (r1, r2)] for m in model.spins}
    sizes, out = record.sizes.tolist(), []
    for q, rho0, ks in zip(record.phases, record.rho0.tolist(), record.dpower.tolist()):
        f = 0.0 if not all(th[q]) else math.prod(
            metastable.mollifier_eval(
                max(tau / 4.0 + math.log(a) - math.log(b) for a, b in zip(th[q], th[m])))[0]
            for m in model.spins if m != q and all(th[m]))
        t = abs(theta(model, q, 1.0))
        out.append([f and abs(a) * t**-s * (max(r1**k, r2**k) if r2 or k >= 0 else math.inf) * f
                    for a, s, k in zip(rho0, sizes, ks)])
    return np.array(out)


def oracle_annulus_certificate(model, q, z, size_cap=12):
    """Phase q's certificate over the grid annulus of |z|, halved where it
    fails: per class, B_Y = |exp(-c_Y)| |exp(-c_q)|^{-|Y|} max(r1^k, r2^k)
    phi_up with k = p_Y - |Y| p_q, from a loop over the classes, then
    ``oracle_gas_certificate``.  tau_up is the least over classes of the
    larger end rate.  Returns (eta, (r1, r2)) with the annulus that
    certified, or (None, (r1, r2)) with the finest one, which failed."""
    gas = _gas(model, q, size_cap)
    c_q, p_q = model.ground_pair(q)
    for level in range(metastable._ANNULUS_SPLITS + 1):
        r1 = r2 = 0.0
        if z != 0:
            width = metastable._ANNULUS_WIDTH / 2**level
            b = math.floor(math.log(abs(z)) / width)
            r1, r2 = math.exp(b * width), math.exp((b + 1) * width)
        tau = float(np.maximum(oracle_rates(model, r1, size_cap),
                               oracle_rates(model, r2, size_cap)).min(initial=math.inf))
        phi = oracle_mollifier_bound(model, q, tau, (r1, r2))
        bound = []
        for y in gas.classes:
            c, p = y.energy_pair(model)
            k = p - y.size * p_q
            bound.append(0.0 if phi == 0 else abs(cmath.exp(-c)) * abs(cmath.exp(-c_q)) ** -y.size
                         * max(r1**k, r2**k) * phi)
        ok, eta = oracle_gas_certificate(gas, np.array(bound))
        if ok:
            return eta, (r1, r2)
    return None, (r1, r2)


def covering_annulus_eta(model, q, z, size_cap=12):
    """``oracle_annulus_certificate``'s eta, for a phase whose certificate
    holds at z: its annulus must then hold too, or the z is named."""
    eta, (r1, r2) = oracle_annulus_certificate(model, q, z, size_cap)
    assert eta is not None, f"z={z!r}: certified at z, refused on {r1!r} <= |z| <= {r2!r}"
    return eta


def refused_annulus(exc):
    """The ends of the annulus a refusal names."""
    return tuple(map(float, re.search(r"annulus (\S+) <= \|z\| <= (\S+);", str(exc)).groups()))


def oracle_polymer_pressure(model, q, engine, cutoffs=Cutoffs()):
    """One phase's pressure, certificate and exact derivative on its own;
    eta is its annulus's (``covering_annulus_eta``)."""
    gas = _gas(model, q, cutoffs.size_cap)
    index, ursell = gas.shape.cluster_arrays(cutoffs.norm_cap)
    w, dlog_w, capped = oracle_class_weights(model, engine, gas)
    if not oracle_gas_certificate(gas, w)[0]:
        raise ConvergenceError("contour-gas convergence certificate failed; refuse to expand")
    eta = covering_annulus_eta(model, q, engine.z, cutoffs.size_cap)
    terms = ursell * np.append(w, 1.0)[index].prod(axis=1)
    derivative = None
    if dlog_w is not None:
        derivative = complex(terms @ np.append(dlog_w, 0.0)[index].sum(axis=1))
    bound = math.exp(-eta * cutoffs.norm_cap) if eta > 0 else math.inf
    return complex(terms.sum()), eta, bound, capped, derivative


def oracle_phase_by_phase_table(model, z, cutoffs=Cutoffs(), tau=None):
    """free_energy_table one phase at a time: per phase (zeta, s, dlog, eta,
    error bound), then tau, the activation count and the stable set.  tau
    is ``oracle_estimate_tau`` unless given."""
    engine = WeightEngine(model, z, cutoffs.size_cap)
    engine.tau = oracle_estimate_tau(model, z, cutoffs.size_cap) if tau is None else tau
    phases, f, activations = {}, {}, 0
    for m in model.orbit_representatives():
        th = engine.theta[m]
        if th == 0:
            phases[m], f[m] = (0j, 0j, None, None, None), math.inf
            continue
        s, eta, bound, capped, derivative = oracle_polymer_pressure(model, m, engine, cutoffs)
        zeta_m = th * cmath.exp(s)
        dlog = None if derivative is None else model.ground_pair(m)[1] / z + derivative
        phases[m], f[m] = (zeta_m, s, dlog, eta, bound), -math.log(abs(zeta_m))
        activations += capped
    fmin = min(f.values())
    stable = tuple(sorted((m for m in f if f[m] < math.inf and f[m] - fmin < metastable.STABLE_TOL), key=str))
    return phases, engine.tau, activations, stable


def oracle_theta_derivative(model, m, z):
    """d theta_m / dz by central differences, as ``estimate_M`` and
    ``nondegeneracy_check`` took it before the closed form p_m theta_m / z."""
    eps = 1e-6 * (1.0 + abs(z))
    return (theta(model, m, z + eps) - theta(model, m, z - eps)) / (2 * eps)


def oracle_nondegeneracy(model, z, eps=1e-6):
    """nondegeneracy_check's alphas at one z from central differences: of
    theta_m, and of log zeta_m in ratio form; None where fewer than two
    phases are active."""
    reps = model.orbit_representatives()
    th = {m: abs(theta(model, m, z)) for m in reps}
    active = [m for m in reps if th[m] >= max(th.values()) * math.exp(-1.0)]
    if len(active) < 2:
        return None

    def separations(v):
        pairs = min(abs(v[a] - v[b]) for a, b in itertools.combinations(active, 2))
        if len(active) < 3:
            return pairs, math.inf
        return pairs, min(metastable._hull_distance(v[m], [v[x] for x in active if x != m])
                          for m in active)

    up, dn = free_energy_table(model, z + eps), free_energy_table(model, z - eps)
    v = {m: oracle_theta_derivative(model, m, z) / theta(model, m, z) for m in active}
    vzeta = {m: cmath.log(up[m].zeta / dn[m].zeta) / (2 * eps) for m in active}
    out = dict(zip(("alpha_pairs", "alpha_hull"), separations(v)))
    out.update(zip(("alpha_zeta", "alpha_hull_zeta"), separations(vzeta)))
    return out


def counted_tables(monkeypatch):
    """Route ``metastable``'s own calls of free_energy_table through a
    wrapper; returns the list of the z it is called at."""
    calls = []

    def counted(model, z, *args, **kwargs):
        calls.append(z)
        return free_energy_table(model, z, *args, **kwargs)

    monkeypatch.setattr(metastable, "free_energy_table", counted)
    return calls


def oracle_gradient(ev, m, n, z):
    """Gradient of f_m - f_n as a complex number, by central differences."""
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
    cert, eta = gas_certificate(_gas(model, q, 12), weights)
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
            flags.add(gas_certificate(_gas(model, q, 12), list(w)))
    assert {c for c, _ in flags} == {True, False}
    assert (True, 8.0) in flags


# -- array pressure and its derivative ------------------------------------------------

_PRESSURE_MODELS = [ising(1.5), blume_capel(1.5, 0.3), potts(3, 1.5), potts(4, 1.5)]


def _check_pressure_against_oracle(model, zs):
    """Tables at each z against the scalar oracle; returns how many z both
    refuse with a failed certificate."""
    skeletons = {q: _gas(model, q, 12).shape.skeleton(18.0) for q in model.orbit_representatives()}
    refused = 0
    for z in zs:
        try:
            phases, stable, activations = oracle_free_energy_table(model, z, skeletons)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                free_energy_table(model, z)
            refused += 1
            continue
        table = free_energy_table(model, z)
        assert table.stable == stable
        assert table.activations == activations
        for q, (s_old, zeta_old, eta_old) in phases.items():
            entry = table[q]
            assert abs(entry.s - s_old) <= 1e-15
            assert abs(entry.zeta - zeta_old) <= 1e-13 * abs(zeta_old)
            if eta_old is not None:
                assert abs(entry.pressure.eta - eta_old) <= 1e-12
    return refused


@pytest.mark.parametrize("model", _PRESSURE_MODELS, ids=lambda m: m.name)
def test_array_pressure_matches_scalar_oracle(model):
    rng = random.Random(f"pressure/{model.name}")
    zs = [rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random()) for _ in range(300)]
    assert _check_pressure_against_oracle(model, zs) < 300


def test_array_pressure_at_real_negative_z_with_half_integer_powers():
    # the unshifted Ising field gives theta_+- = e^3 z^{+-1/2}; at a real
    # float z < 0 the powers take the principal branch, as pair_weight does
    assert _check_pressure_against_oracle(ising(1.5, field="plain"), [-1.0, -0.9, -1.3]) == 0


# -- phase-stacked table ----------------------------------------------------------


def stacked_table(model, z, cutoffs=Cutoffs()):
    """free_energy_table in the oracle's layout."""
    table = free_energy_table(model, z, cutoffs)
    phases = {}
    for m, e in table.entries.items():
        p = e.pressure
        phases[m] = (e.zeta, e.s, e.dlog, None, None) if p is None else (
            e.zeta, e.s, e.dlog, p.eta, p.error_bound)
    return phases, table.tau, table.activations, table.stable


REL_VALUES = 1e-13  # s, zeta and dlog of a table against the entries x parts oracle
REL_RATES = 1e-14  # tau and eta


def _close(a, b, rel):
    """Whether a and b agree to rel relative; None only matches None."""
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def assert_matches_phase_by_phase(model, z, cutoffs=Cutoffs(), tau=None):
    """The stacked table against the phase-by-phase oracle, which multiplies
    out every entry of the skeleton: s, zeta and dlog to REL_VALUES, tau and
    eta to REL_RATES, and the activations, the stable set and which dlog are
    None exactly; error_bound is exp(-eta * norm cap) of the table's own eta.
    Where the oracle refuses, the table refuses with an annulus that holds
    |z|.  Returns whether the table exists."""
    try:
        want, tau_want, activations, stable = oracle_phase_by_phase_table(model, z, cutoffs, tau)
    except ConvergenceError:
        with pytest.raises(ConvergenceError) as got:
            free_energy_table(model, z, cutoffs)
        r1, r2 = refused_annulus(got.value)
        assert r1 <= abs(z) <= r2
        return False
    table = free_energy_table(model, z, cutoffs)
    assert (table.activations, table.stable) == (activations, stable), z
    assert _close(table.tau, tau_want, REL_RATES), z
    assert table.entries.keys() == want.keys()
    for m, (zeta_m, s, dlog, eta, _) in want.items():
        e = table[m]
        for got, expected in ((e.zeta, zeta_m), (e.s, s), (e.dlog, dlog)):
            assert _close(got, expected, REL_VALUES), (z, m, got, expected)
        if eta is None:
            assert e.pressure is None, (z, m)
            continue
        assert _close(e.pressure.eta, eta, REL_RATES), (z, m)
        assert e.pressure.error_bound == (
            math.exp(-e.pressure.eta * cutoffs.norm_cap) if e.pressure.eta > 0 else math.inf)
    return True


_STACKED_MODELS = [ising(1.5), blume_capel(1.5, 0.3), blume_capel(1.75, -0.3),
                   potts(3, 2.5), potts(4, 1.5)]


@pytest.mark.parametrize("model", _STACKED_MODELS, ids=lambda m: m.name)
def test_stacked_table_matches_phase_by_phase_oracle(model):
    rng = random.Random(f"stacked/{model.name}")
    zs = [rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random()) for _ in range(30)]
    built = [assert_matches_phase_by_phase(model, z) for z in zs + [0.0]]
    assert sum(built) >= 20 and built[-1]
    # z = 0: theta_q = 0 for a phase with p_q > 0, which gets no pressure
    table = free_energy_table(model, 0.0)
    assert any(e.pressure is None for e in table.entries.values())


def test_table_matches_oracle_in_the_plain_field_at_negative_real_z():
    # theta_+- = e^3 z^{+-1/2}: at a real z < 0 both the oracle's powers
    # and the table's z^n take the principal branch
    model = ising(1.5, field="plain")
    rng = random.Random(f"stacked/{model.name}")
    zs = [rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random()) for _ in range(30)]
    built = [assert_matches_phase_by_phase(model, z) for z in zs + [-1.0, -0.9, -1.3, -0.6]]
    assert sum(built) >= 20 and all(built[-4:])


def test_table_matches_oracle_at_larger_cutoffs():
    # Blume-Capel at Cutoffs(16, 24): 6225 skeleton entries, at most 16
    # polynomial terms per phase
    model, cutoffs = blume_capel(1.5, 0.3), Cutoffs(16, 24.0)
    rng = random.Random(f"stacked/{model.name}/16")
    zs = [rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random()) for _ in range(30)]
    assert sum(assert_matches_phase_by_phase(model, z, cutoffs) for z in zs) >= 20


@pytest.mark.parametrize("model, counts", [
    (ising(1.5), [3, 3]), (blume_capel(1.5, 0.3), [7, 8, 7]),
    (potts(3, 2.5), [3, 6]), (potts(4, 1.5), [3, 6]),
], ids=lambda x: getattr(x, "name", ""))
def test_pressure_polynomial_has_a_few_terms(model, counts):
    group = metastable._record(model, 12, model.orbit_representatives())
    assert [len(group.polynomial(18.0, row)) for row in range(len(group.phases))] == counts
    group = metastable._record(model, 16, model.orbit_representatives())
    assert all(len(group.polynomial(24.0, row)) <= 16 for row in range(len(group.phases)))


def test_pressure_polynomials_are_built_once_per_mask(monkeypatch):
    # one record per (cutoffs, phase row, capped classes), however many
    # tables read it; the capped mask comes from the tau = 16 patch
    builds = []

    class Counted(dict):
        def __setitem__(self, key, value):
            builds.append(key)
            super().__setitem__(key, value)

    def tables(model, cutoffs):
        group = metastable._record(model, cutoffs.size_cap, model.orbit_representatives())
        group._polynomials = Counted()
        for t in np.linspace(0.3, 2.8, 12):
            free_energy_table(model, cmath.exp(1j * t), cutoffs)
        return len(group.phases)

    model = blume_capel(1.5, 0.3)
    for cutoffs in (Cutoffs(), Cutoffs(16, 24.0)):
        builds.clear()
        n = tables(model, cutoffs)
        assert builds == [(cutoffs.norm_cap, row, ()) for row in range(n)]
    monkeypatch.setattr(metastable, "estimate_tau", lambda model, z, size_cap: 16.0)
    builds.clear()
    n = tables(ising(1.5), Cutoffs())
    assert builds == [(18.0, row, (0, 1, 2)) for row in range(n)]


def test_stacked_table_refuses_where_the_oracle_does():
    # Potts q=4 at 0.5 <= |z| <= 0.68: the certificate fails for some phase
    model = potts(4, 1.5)
    rng = random.Random("stacked/refused")
    zs = [rng.uniform(0.5, 0.68) * cmath.exp(2j * math.pi * rng.random()) for _ in range(10)]
    assert not any(assert_matches_phase_by_phase(model, z) for z in zs)


def test_stacked_table_matches_where_dlog_is_none(monkeypatch):
    # mollified: Blume-Capel's phase 1 at z = 0.45 (phi_1 about 0.68)
    model = blume_capel(1.5, 0.3)
    assert assert_matches_phase_by_phase(model, 0.45)
    assert free_energy_table(model, 0.45)[1].dlog is None
    # capped: tau = 16 caps every Ising class on the unit circle
    monkeypatch.setattr(metastable, "estimate_tau", lambda model, z, size_cap: 16.0)
    model, z = ising(1.5), cmath.exp(0.3j)
    assert assert_matches_phase_by_phase(model, z, tau=16.0)
    table = free_energy_table(model, z)
    assert table.activations > 0 and all(e.dlog is None for e in table.entries.values())


@pytest.mark.parametrize("model, cap", [
    (ising(1.5), 12), (ising(1.5), 16), (blume_capel(1.5, 0.3), 12), (blume_capel(1.5, 0.3), 16),
    (potts(3, 2.5), 12), (potts(4, 1.5), 12), (ising(1.5, d=3), 27), (ising(1.5, d=3), 36),
    (perturbed_ising({((0, 0), (0, 2)): 0.1, ((0, 0), (0, 1)): 1.0}), 25),
], ids=lambda x: getattr(x, "name", x))
def test_every_phase_shares_one_shape_record(model, cap):
    # a permutation of the spins maps one phase's classes onto another's
    # with the same supports, representatives or not
    shapes = {_gas(model, q, cap).shape for q in model.spins}
    assert len(shapes) == 1
    assert metastable._record(model, cap, model.orbit_representatives()).shape in shapes


@pytest.mark.parametrize("d, R, n_spins, cap", [
    *((2, 1, n_spins, cap) for n_spins in (2, 3, 4) for cap in (12, 16)),
    (2, 1, 2, 18), (3, 1, 2, 27), (2, 2, 2, 25),
])
def test_every_digit_lists_the_supports_of_digit_zero(d, R, n_spins, cap):
    # what lets every phase share digit 0's shape record (metastable._shape):
    # each background digit's class geometry lists the same supports in the
    # same order
    def supports(bg):
        return [cells for cells, _, _ in contours._class_geometry(d, R, n_spins, bg, cap).classes]

    assert supports(0)
    for bg in range(1, n_spins):
        assert supports(bg) == supports(0), bg


@pytest.mark.parametrize("model", _STACKED_MODELS[:2], ids=lambda m: m.name)
def test_single_phase_rows_match_phase_by_phase_oracle(model):
    # polymer_pressure and finite_volume_zeta read one row of the record
    rng = random.Random(f"single/{model.name}")
    for _ in range(10):
        z = rng.uniform(0.8, 1.4) * cmath.exp(2j * math.pi * rng.random())
        engine = WeightEngine(model, z)
        for q in model.orbit_representatives():
            s, eta, bound, capped, derivative = oracle_polymer_pressure(model, q, engine)
            p = metastable.polymer_pressure(model, q, z)
            assert _close(p.value, s, REL_VALUES) and _close(p.derivative, derivative, REL_VALUES)
            assert _close(p.eta, eta, REL_RATES) and p.activations == capped
            assert p.error_bound == math.exp(-p.eta * Cutoffs().norm_cap)
            w = oracle_class_weights(model, engine, _gas(model, q, 12))[0]
            record, row = metastable._phase_row(model, q, 12)
            got = metastable._class_weights(model, record, z, engine.tau)[row]
            assert got.shape == w.shape
            assert all(_close(a, b, REL_VALUES) for a, b in zip(got.tolist(), w.tolist()))


def test_one_phase_record_is_built_once(monkeypatch):
    # Potts q=3's phase 3 represents no orbit; its record is kept on the
    # model like the representatives' one, and reads as phase 2's does
    built = []

    class Counted(metastable._Phases):
        def __init__(self, model, phases, size_cap):
            built.append(phases)
            super().__init__(model, phases, size_cap)

    monkeypatch.setattr(metastable, "_Phases", Counted)
    model = potts(3, 2.5)
    for t in (0.3, 1.1, 2.0):
        z = 1.02 * cmath.exp(1j * t)
        assert metastable.polymer_pressure(model, 3, z) == metastable.polymer_pressure(model, 2, z)
        assert finite_volume_zeta(model, 3, 3, z) == finite_volume_zeta(model, 2, 3, z)
    assert built.count((3,)) == 1 and built.count((2,)) == 1


def test_phi_matches_the_loops_it_replaced():
    # bit for bit: phase_factor on points and on contours with interiors,
    # _caps, and _annulus_bounds; mollified (Blume-Capel phase 1 at 0.45),
    # theta_m = 0 and theta_q = 0 (z = 0), and seeded z
    rng = random.Random("phi")
    models = [ising(1.5), blume_capel(1.5, 0.3), potts(4, 1.5)]
    plain = ising(1.5, field="plain")  # theta_- = e^3 z^{-1/2}: a pole at z = 0
    cases = [(blume_capel(1.5, 0.3), 0.45)] + [(model, 0.0) for model in models]
    cases += [(model, rng.uniform(0.3, 2.0) * cmath.exp(2j * math.pi * rng.random()))
              for model in models + [plain] for _ in range(8)]
    seen = set()
    for model, z in cases:
        engine = WeightEngine(model, z)
        record = metastable._record(model, 12, model.orbit_representatives())
        want = [oracle_phase_factor(engine, q) for q in model.spins]
        assert [engine.phase_factor(q) for q in model.spins] == want, (model.name, z)
        phi, _ = metastable._caps(model, record, z, engine.tau)
        assert phi == [want[model.spins.index(q)] for q in record.phases], (model.name, z)
        for level in (0, 3):
            r1, r2 = metastable._annulus(abs(z), level)
            got = metastable._annulus_bounds(model, record, 12, r1, r2)
            assert got.tobytes() == oracle_annulus_bounds(model, record, 12, r1, r2).tobytes()
        seen |= {"mollified" if 0 < f < 1 else f for f in want}
        seen |= {"theta_m = 0" for m in model.spins if theta(model, m, z) == 0}
    assert seen >= {"mollified", "theta_m = 0", 0.0, 1.0}
    # contours with interiors
    model, z = blume_capel(1.5, 0.3), 0.45
    engine = WeightEngine(model, z)
    region = [(i, j) for i in range(5) for j in range(5)]
    holed = [y for q in model.spins for y in contours_in_region(model, q, region) if y.interiors]
    assert holed
    for y in holed:
        interior = frozenset().union(*[c for c, _ in y.interiors])
        assert engine.mollifier_factor(y) == oracle_phase_factor(engine, y.q, interior, y.size)


def test_gas_paths_build_no_weight_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a WeightEngine was built")

    monkeypatch.setattr(metastable, "WeightEngine", refuse)
    model = blume_capel(1.5, 0.3)
    for z in (0.45, 1.1 * cmath.exp(0.4j)):
        free_energy_table(model, z)
        for q in model.spins:
            metastable.polymer_pressure(model, q, z)
            finite_volume_zeta(model, q, 3, z)


def test_model_holds_only_stacked_records():
    model = potts(3, 2.5)
    z = 1.02 * cmath.exp(1.1j)
    free_energy_table(model, z)
    finite_volume_zeta(model, 3, 3, z)
    assert set(model.gas) == {(12, model.orbit_representatives()), (12, (3,))}


def test_polymer_pressure_refuses_only_on_its_own_certificate():
    # Potts q=4 at |z| = 0.3: phase 1's certificate fails and phase 2's holds
    model, z = potts(4, 1.5), 0.3 * cmath.exp(0.9j)
    with pytest.raises(ConvergenceError):
        free_energy_table(model, z)
    with pytest.raises(ConvergenceError):
        metastable.polymer_pressure(model, 1, z)
    assert metastable.polymer_pressure(model, 2, z).eta > 0


@pytest.mark.parametrize("model", _PRESSURE_MODELS[:3], ids=lambda m: m.name)
def test_dlog_matches_central_differences(model):
    # h' = d log zeta / dz against a central difference of log zeta along
    # the real axis (of the ratio, so that no branch cut of log interferes)
    rng = random.Random(f"dlog/{model.name}")
    checked = {q: 0 for q in model.orbit_representatives()}
    for _ in range(200):
        if min(checked.values()) >= 30:
            break
        z = rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random())
        eps = 1e-6
        table = free_energy_table(model, z)
        up, dn = free_energy_table(model, z + eps), free_energy_table(model, z - eps)
        for q, n in checked.items():
            if table[q].dlog is None or n >= 30:
                continue
            fd = cmath.log(up[q].zeta / dn[q].zeta) / (2 * eps)
            assert abs(table[q].dlog - fd) <= 1e-8
            checked[q] += 1
    assert min(checked.values()) == 30


def test_dlog_none_where_the_mollifier_acts():
    # Blume-Capel at z = 0.45: phase 1's mollifier factor is about 0.68
    model = blume_capel(1.5, 0.3)
    z = 0.45
    assert 0.0 < WeightEngine(model, z).phase_factor(1) < 1.0
    ev = PhaseEvaluator(model)
    assert ev.dlog(1, z) is None and ev.dlog(-1, z) is not None
    assert _gradient(ev, 1, -1, z) == oracle_gradient(ev, 1, -1, z)
    assert ev.fd_fallbacks == 1


def force_rates(monkeypatch, value):
    """Patch every class rate (``metastable._rates``) to ``value``: the one
    tau source of tables (``estimate_tau``) and of the closed-form verdict
    (``_tau_bounds``), so a forced tau reaches both."""
    rates = metastable._rates
    monkeypatch.setattr(metastable, "_rates",
                        lambda model, r, size_cap: np.full_like(rates(model, r, size_cap), value))


def test_dlog_none_where_a_cap_activates(monkeypatch):
    # tau = 16 caps every class on the unit circle (see
    # test_hard_cap_zeroes_and_logs_weights_above_it)
    force_rates(monkeypatch, 16.0)
    model = ising(1.5)
    z = cmath.exp(0.3j)
    ev = PhaseEvaluator(model)
    assert ev.table(z).activations > 0 and ev.table(z).tau == 16.0
    assert ev.dlog(1, z) is None and ev.dlog(-1, z) is None
    assert _gradient(ev, 1, -1, z) == oracle_gradient(ev, 1, -1, z)
    assert ev.fd_fallbacks == 1
    # the verdict saw tau = 16 too: every point came from a table
    assert ev.closed_points == 0 and ev.tables == len(ev._cache) == 5


# -- annulus certificates ------------------------------------------------------------

ANNULUS_ROUNDING = 1e-12  # room for rounding where B_Y meets |K'(Y)| at an end
ANNULUS_ETA_BUDGET = 1e-3  # eta an annulus may lose to its least pointwise eta


def annulus_and_pointwise_etas(model, q, z, n_radii=9, n_args=3):
    """Phase q's annulus eta at z, from the table, and the pointwise etas
    of ``oracle_gas_certificate`` at n_radii radii across its annulus (ends
    included), each at n_args arguments."""
    eta = free_energy_table(model, z)[q].pressure.eta
    r1, r2 = oracle_annulus_certificate(model, q, z)[1]
    gas = _gas(model, q, 12)
    points = []
    for r in np.linspace(r1, r2, n_radii):
        for arg in np.linspace(0.0, 2 * math.pi, n_args, endpoint=False):
            w = oracle_class_weights(model, WeightEngine(model, r * cmath.exp(1j * arg)), gas)[0]
            points.append(oracle_gas_certificate(gas, w)[1])
    return eta, points


_ANNULUS_MODELS = [ising(1.5), blume_capel(1.5, 0.3), potts(3, 2.5)]


def _annulus_cases(model):
    rng = random.Random(f"annulus/{model.name}")
    zs = [cmath.exp(0.7j), cmath.exp(-2.2j) * (1 - 1e-15)]  # on the traced curves
    zs += [rng.uniform(0.8, 1.25) * cmath.exp(2j * math.pi * rng.random()) for _ in range(4)]
    return [(q, z) for z in zs for q in model.orbit_representatives()]


@pytest.mark.parametrize("model", _ANNULUS_MODELS + [potts(4, 1.5)], ids=lambda m: m.name)
def test_annulus_eta_is_a_lower_bound_inside_its_annulus(model):
    for q, z in _annulus_cases(model):
        eta, points = annulus_and_pointwise_etas(model, q, z)
        assert eta <= min(points) + ANNULUS_ROUNDING, (q, z)


@pytest.mark.parametrize("model", _ANNULUS_MODELS, ids=lambda m: m.name)
def test_annulus_loses_little_eta(model):
    for q, z in _annulus_cases(model):
        eta, points = annulus_and_pointwise_etas(model, q, z)
        assert min(points) - eta <= ANNULUS_ETA_BUDGET, (q, z)


def test_annulus_tables_do_not_depend_on_build_order():
    # Potts q=4 at 0.682 and 0.683 takes annuli halved 5 and 2 times
    zs = [0.682 * cmath.exp(0.4j), 0.683, 0.69j, 0.6, cmath.exp(1.1j), 0.0]

    def built(order):
        model = potts(4, 1.5)
        out = {}
        for z in order:
            try:
                out[z] = repr(stacked_table(model, z))
            except ConvergenceError as exc:
                out[z] = repr(exc)
        return out

    assert built(zs) == built(zs[::-1])


def test_potts4_refused_annuli_cover_its_refused_radii():
    # the chain of refused annuli from |z| = 0.50 on, each starting where the
    # last one ends, reaches past 0.68
    model = potts(4, 1.5)
    r, chain = 0.50, []
    while not chain or chain[-1][1] < 0.68:
        with pytest.raises(ConvergenceError) as got:
            free_energy_table(model, r * cmath.exp(0.9j))
        r1, r2 = refused_annulus(got.value)
        assert r1 <= r <= r2 and (not chain or r1 == chain[-1][1])
        chain.append((r1, r2))
        r = r2 * (1 + 1e-9)
    assert chain[0][0] <= 0.50


def test_predict_zeros_makes_a_few_certificates(monkeypatch):
    # the Ising J=1.5 and Blume-Capel (1.5, 0.3) tasks of the predict-zeros
    # benchmark at L=3, seeded at e^{i}: 295 and 514 evaluated points, which
    # made one certificate each before tables took their annulus's, and
    # every one read in closed form, with no table
    calls = {"certificates": 0, "tables": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metastable, "_certificates", counted("certificates", metastable._certificates))
    monkeypatch.setattr(zeros_module, "free_energy_table", counted("tables", free_energy_table))
    points = []
    for model, phases, step, max_points in [(ising(1.5), (-1, 1), 0.2, 2000),
                                            (blume_capel(1.5, 0.3), (1, -1), 0.1, 400)]:
        ev = PhaseEvaluator(model)
        curve = trace_coexistence(model, *phases, seed=cmath.exp(1j), step=step,
                                  max_points=max_points, evaluator=ev)
        solve_zero_equations(model, curve, 3, evaluator=ev)
        points.append((ev.closed_points, ev.tables))
    assert points == [(295, 0), (514, 0)]
    assert calls["tables"] == 0
    assert calls["certificates"] <= 10


# -- closed-form phase functions -------------------------------------------------------


class TableEvaluator(PhaseEvaluator):
    """The evaluator before closed forms: every entry from a real table."""

    def _entries(self, z):
        return self.table(z).entries


# the two predict-zeros benchmark tasks seeded at e^{i}, the zeros-ising
# preset, Potts q=3 J=2.5 and the three-spin perturbed Ising model, whose
# curve lies off the unit circle near |z| = e^{-2K}, with its kink of
# max|theta| there
_K = 0.3
_CLOSED_FORM_CASES = {
    "ising-bench": (ising(1.5), (-1, 1), cmath.exp(1j), 0.2, 2000, (3,)),
    "blume-capel-bench": (blume_capel(1.5, 0.3), (1, -1), cmath.exp(1j), 0.1, 400, (3,)),
    "zeros-ising": (ising(1.5), (1, -1), 1.04 + 0.06j, 0.05, 2000, (3,)),
    "potts3": (potts(3, 2.5), (1, 2), cmath.exp(1j), 0.05, 2000, (3,)),
    "perturbed-ising": (
        perturbed_ising({((0, 0), (1, 0)): 1.0, ((0, 0), (0, 1)): 1.0,
                         ((0, 0), (1, 0), (0, 1)): _K}),
        (1, -1), math.exp(-2 * _K) * cmath.exp(0.3j), 0.05 * math.exp(-2 * _K), 2000, (3, 4),
    ),
}


@pytest.fixture(scope="module", params=list(_CLOSED_FORM_CASES))
def closed_form_run(request):
    model, phases, seed, step, max_points, Ls = _CLOSED_FORM_CASES[request.param]
    runs = []
    for ev in (PhaseEvaluator(model), TableEvaluator(model)):
        curve = trace_coexistence(model, *phases, seed=seed, step=step,
                                  max_points=max_points, evaluator=ev)
        runs.append((ev, curve, [solve_zero_equations(model, curve, L, evaluator=ev) for L in Ls]))
    return request.param, model, runs


def test_closed_form_matches_tables_bit_for_bit(closed_form_run):
    name, model, ((ev, curve, solved), (_, old_curve, old_solved)) = closed_form_run
    assert curve.closed and all(len(zs.zeros) for zs in solved)
    assert repr(curve) == repr(old_curve) and repr(solved) == repr(old_solved)
    # every point of the run, curve points and zeros included, in closed form
    points = set(curve.points) | {w.z for zs in solved for w in zs.zeros}
    assert points <= set(ev._cache)
    assert ev.tables == 0 and ev.closed_points == len(ev._cache)
    for z, entries in ev._cache.items():
        table = free_energy_table(model, z)
        for m, e in entries.items():
            assert repr((e.zeta, e.f, e.a, e.dlog)) == repr(
                (table[m].zeta, table[m].f, table[m].a, table[m].dlog)), (z, m)


def test_closed_form_verdict_is_sound(closed_form_run):
    # at 100 seeded |z| inside each accepted annulus the real table has
    # phi_q = 1 and no capped class for every phase
    name, model, _ = closed_form_run
    record = metastable._record(model, Cutoffs().size_cap, model.orbit_representatives())
    accepted = [ends for ends, ok in record._closed.items() if ok]
    assert accepted and len(accepted) == len(record._closed)
    if name == "perturbed-ising":
        assert any(r1 <= math.exp(-2 * _K) <= r2 for r1, r2 in accepted)
    rng = random.Random(f"closed-form/{name}")
    for r1, r2 in accepted:
        for _ in range(100):
            z = rng.uniform(r1, r2) * cmath.exp(2j * math.pi * rng.random())
            table = free_energy_table(model, z)
            phi, capped = metastable._caps(model, record, z, table.tau)
            assert phi == [1.0] * len(record.phases) and not any(capped), z
            assert table.activations == 0
            assert all(e.dlog is not None for e in table.entries.values())


def test_tau_bounds_take_the_kink_inside_an_annulus():
    # Ising's max|theta| has its kink at |z| = 1, where tau is least
    model = ising(1.5)
    r1, r2 = math.exp(-0.004), math.exp(0.006)
    lo, up = metastable._tau_bounds(model, 12, r1, r2)
    taus = [metastable.estimate_tau(model, r) for r in np.linspace(r1, r2, 201)]
    assert lo == metastable.estimate_tau(model, 1.0) < min(taus[0], taus[-1])
    assert lo <= min(taus) and max(taus) <= up


def test_closed_form_refused_where_the_mollifier_acts():
    # Blume-Capel at z = 0.45: phase 1's mollifier factor is about 0.68, so
    # the annulus is refused and the point falls back to a table
    model, z = blume_capel(1.5, 0.3), 0.45
    ev = PhaseEvaluator(model)
    assert ev.dlog(1, z) is None and ev.dlog(-1, z) is not None
    assert ev.closed_points == 0 and ev.tables == 1
    record = metastable._record(model, Cutoffs().size_cap, model.orbit_representatives())
    assert record._closed == {metastable._annulus(z, 0): False}
    assert metastable._closed_entries(model, z) is None


# -- Assumption B from closed forms --------------------------------------------------


@pytest.mark.parametrize("model", _PRESSURE_MODELS[:3], ids=lambda m: m.name)
def test_assumption_b_closed_forms_match_differences(model, monkeypatch):
    # theta_m' / theta_m = p_m / z and estimate_M against the central
    # difference of theta_m; nondegeneracy_check's alphas against central
    # differences; one table per z wherever every active phase has dlog
    calls = counted_tables(monkeypatch)
    rng = random.Random(f"assumption-b/{model.name}")
    reps = model.orbit_representatives()
    exact = 0
    for _ in range(30):
        z = rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random())
        th = max(abs(theta(model, m, z)) for m in reps)
        fd = {m: oracle_theta_derivative(model, m, z) for m in reps}
        for m in reps:
            closed = model.ground_pair(m)[1] / z
            assert abs(closed - fd[m] / theta(model, m, z)) <= 1e-8 * max(abs(closed), 1.0)
        M_fd = max(abs(d) for d in fd.values()) / th
        assert metastable.estimate_M(model, [z]) == pytest.approx(M_fd, rel=1e-8, abs=1e-12)

        try:
            table = free_energy_table(model, z)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                metastable.nondegeneracy_check(model, [z])
            continue
        calls.clear()
        rep = metastable.nondegeneracy_check(model, [z])
        oracle = oracle_nondegeneracy(model, z)
        if oracle is None:
            assert rep["vacuous"] and calls == [z]
            continue
        active = [m for m in reps if abs(table[m].theta) >= th * math.exp(-1.0)]
        missing = sum(table[m].dlog is None for m in active)
        assert rep["fd_fallbacks"] == missing
        assert len(calls) == (3 if missing else 1)
        exact += not missing
        assert rep["alpha_pairs"] == pytest.approx(oracle["alpha_pairs"], rel=1e-8)
        assert rep["alpha_hull"] == pytest.approx(oracle["alpha_hull"], abs=1e-8)
        for key in ("alpha_zeta", "alpha_hull_zeta"):
            assert rep[key] == pytest.approx(oracle[key], rel=1e-8, abs=1e-8), key
    assert exact >= 10
    # at z = 0, where p_m / z has a pole, theta_m' is finite
    M_fd = max(abs(oracle_theta_derivative(model, m, 0.0)) for m in reps) / theta_max(model, 0.0)
    assert metastable.estimate_M(model, [0.0]) == pytest.approx(M_fd, rel=1e-8)


def test_assumption_b_falls_back_where_a_cap_activates(monkeypatch):
    # tau = 16 caps every class on the unit circle (see
    # test_dlog_none_where_a_cap_activates): no phase has dlog, so both take
    # the ratio-form difference from two more tables
    monkeypatch.setattr(metastable, "estimate_tau", lambda model, z, size_cap: 16.0)
    model = ising(1.5)
    z = cmath.exp(0.3j)
    assert free_energy_table(model, z)[1].dlog is None
    calls = counted_tables(monkeypatch)
    rep = metastable.nondegeneracy_check(model, [z])
    assert rep["fd_fallbacks"] >= 1 and len(calls) == 3
    eps = 1e-5 * (1.0 + abs(z))
    up, dn = free_energy_table(model, z + eps), free_energy_table(model, z - eps)
    fd = [cmath.log(up[m].zeta / dn[m].zeta) / (2 * eps) for m in (1, -1)]
    assert rep["alpha_zeta"] == pytest.approx(abs(fd[0] - fd[1]), rel=1e-12)


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
def traced_pair(request):
    if request.param == "ising":
        model, phases, seed, step = ising(1.5), (1, -1), 1.04 + 0.06j, 0.06
    else:
        model, phases, seed, step = blume_capel(1.5, 0.3), (1, -1), -1.0 + 0.05j, 0.06
    ev = PhaseEvaluator(model)
    curve = trace_coexistence(model, *phases, seed=seed, step=step,
                              max_points=400, evaluator=ev)
    return model, ev, curve, evaluated_points(ev)


def evaluated_points(ev):
    """The z an evaluator has evaluated, in closed form or by a table."""
    assert ev.closed_points + ev.tables == len(ev._cache)
    return ev.closed_points + ev.tables


@pytest.fixture(scope="module")
def solved_pair(traced_pair):
    model, ev, curve, _ = traced_pair
    before = evaluated_points(ev)
    new = solve_zero_equations(model, curve, 3, evaluator=ev)
    tables = evaluated_points(ev) - before
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
    # about four evaluated points per zero (measured 3.9), one per Newton
    # step and per refinement point, each with its exact derivative; finite
    # differences would add two per Newton step, and one bisection fallback
    # to the bracket tolerance alone would cost some 200 points.  Points
    # read in closed form count as tables do
    model, new, old, points = solved_pair
    assert 0 < points <= 4 * len(new.zeros)


def test_tracer_table_budget(traced_pair):
    # about four evaluated points per curve point (measured 3.96 and 3.95):
    # one per corrector step, each with its exact gradient; central
    # differences would add four per corrector step
    model, ev, curve, points = traced_pair
    assert 0 < points <= 4 * len(curve)


def test_solved_pair_takes_no_finite_differences(traced_pair, solved_pair):
    model, ev, curve, tables = traced_pair
    assert ev.fd_fallbacks == 0


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
    real-direction difference is not the derivative, so Newton stalls.
    Like a ``PhaseEvaluator`` whose tables lack h', it has no ``dlog``."""

    fd_fallbacks = 0

    def dlog(self, m, z):
        return None

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
# half-integer powers of z, so no polynomial: evaluated at z only
_PLAIN_FIELD_CASES = {"plain-field-ising-L3": (lambda: ising(1.0, field="plain"), 3)}


@pytest.fixture(scope="module", params=list(_ENUMERATION_CASES))
def scanned(request):
    make, L = {**_ENUMERATION_CASES, **_PLAIN_FIELD_CASES}[request.param]
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


@pytest.mark.parametrize(
    "scanned", [*_ENUMERATION_CASES, *_PLAIN_FIELD_CASES], indirect=True
)
def test_partition_function_matches_gray_code_oracle(scanned):
    model, L, blocks = scanned
    rng = random.Random(f"{model.name}/{L}")
    zs = [rng.uniform(0.5, 1.8) * cmath.exp(2j * math.pi * rng.random()) for _ in range(5)]
    # a negative real z pins the principal branch of z^p at fractional p
    for z in zs + [-rng.uniform(0.5, 1.8)]:
        logz = cmath.log(z)
        terms = [[cmath.exp(-c + p * logz) for c, p in block] for block in blocks]
        old = sum(sum(block) for block in terms)
        # relative to the summed moduli: at complex z the terms cancel, and
        # |Z| is known no better than rounding of the largest terms allows;
        # fsum, since a running sum of 65536 moduli drifts by more than 1e-13
        mass = math.fsum(abs(w) for block in terms for w in block)
        assert abs(partition_function_exact(model, L, z) - old) <= 1e-13 * mass
        assert abs(_density_of_states(model, L).sum_with_mass(z)[1] - mass) <= 1e-13 * mass


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
        contours = contours_in_region(self.model, q, region)
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


def oracle_wrapped_placements(model, classes, L):
    """Wrapped placements (class, anchor, torus support) of the classes
    whose volume extent is at most L along every axis, placed from each
    contour's coordinates."""
    geom = torus(L, model.dimension, model.range)
    d = model.dimension
    placements = []
    for ci, y in enumerate(classes):
        vol = oracle_volume(y)
        if any(max(p[k] for p in vol) - min(p[k] for p in vol) + 1 > L for k in range(d)):
            continue
        for anchor, base in enumerate(geom.coords):
            sup = frozenset(geom.index(tuple(base[k] + p[k] for k in range(d))) for p in y.support)
            placements.append((ci, anchor, sup))
    return geom, placements


def oracle_finite_volume_zeta(model, m, L, z, cutoffs=Cutoffs()):
    """finite_volume_zeta as it was: the polymer system built for both
    branches, the exact one summed by the old recursion."""
    engine = WeightEngine(model, z)
    th = engine.theta[m]
    classes = list(_gas(model, m, cutoffs.size_cap).classes)
    geom, placements = oracle_wrapped_placements(model, classes, L)
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


def oracle_zd_components(sites, neighbors=zd_neighbors):
    """Components of a finite site set, where ``neighbors(x)`` yields the
    candidate neighbours of x (those outside the set are ignored)."""
    todo = set(sites)
    out = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in neighbors(x):
                if y in todo:
                    todo.remove(y)
                    comp.add(y)
                    stack.append(y)
        out.append(frozenset(comp))
    return out


def oracle_torus_components(geom, sites):
    return oracle_zd_components(sites, geom.neighbors.__getitem__)


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


def oracle_overlap_offsets(supports, d):
    """The set comprehension the gas record's offsets replaced, as sorted
    coordinate tuples."""
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
    overlap_offsets = oracle_overlap_offsets(supports, d)
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


def test_components_match_bfs_and_union_find_oracles():
    # the union-find listed components in another order, which its callers
    # sorted or only counted, so against it the partition is compared
    rng = random.Random(44)
    for _ in range(40):
        geom = torus(rng.choice((5, 6, 7)), 2)
        model = rng.choice((ising(1.0), blume_capel(1.0, 0.1)))
        cfg = sparse_torus_config(rng, model, geom.L, rng.randint(0, 6))
        bad, comps = oracle_torus_union_find(cfg, 1)
        assert r_boundary(cfg, 1) == bad
        _, small, large = contour_graph(cfg, 1)
        assert sorted(small + large, key=min) == sorted(comps, key=min)


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3), potts(3, 1.5)],
                         ids=lambda m: m.name)
def test_gas_skeleton_matches_placed_overlap_oracle(model):
    for q in model.orbit_representatives():
        gas = _gas(model, q, 12)
        assert (gas.classes, gas.shape.skeleton(18.0)) == oracle_gas_skeleton(model, q, 12, 18.0)


def oracle_revisiting_skeleton(shape, norm_cap):
    """The skeleton grown as before, on coordinate tuples: each connected
    placement set is grown again from every set that reaches it, and
    recorded on entry."""
    d, sizes = shape.d, shape.sizes
    overlap_offsets = oracle_overlap_offsets(shape.supports, d)
    placement_sets = set()

    def canon(pset):
        t = min(pset, key=lambda p: (p[1], p[0]))[1]
        return tuple(sorted(
            (ci, tuple(o[k] - t[k] for k in range(d))) for ci, o in pset
        ))

    def grow(pset, base_norm):
        placement_sets.add(canon(pset))
        for cj in range(len(sizes)):
            if base_norm + sizes[cj] > norm_cap:
                continue
            for (ci, oi) in pset:
                for rel in overlap_offsets[ci][cj]:
                    cand = (cj, tuple(oi[k] + rel[k] for k in range(d)))
                    if cand not in pset:
                        grow(pset | {cand}, base_norm + sizes[cj])

    for i0 in range(len(sizes)):
        if sizes[i0] <= norm_cap:
            grow(frozenset([(i0, (0,) * d)]), sizes[i0])

    entries = []
    for pset in sorted(placement_sets):
        placements = list(pset)
        ids = tuple(range(len(placements)))
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
    return tuple(entries)


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3), potts(3, 1.5)],
                         ids=lambda m: m.name)
def test_skeleton_matches_revisiting_growth_oracle(model):
    shapes = {_gas(model, q, 12).shape for q in model.orbit_representatives()}
    for shape in shapes:
        for norm_cap in (18.0, 22.0, 26.0):
            assert shape.skeleton(norm_cap) == oracle_revisiting_skeleton(shape, norm_cap)


@pytest.mark.parametrize("model, norm_cap", [
    (ising(1.5), 24.0), (blume_capel(1.5, 0.3), 24.0), (potts(4, 1.5), 24.0),
    (blume_capel(1.5, 0.3), 30.0),
], ids=lambda v: v.name if hasattr(v, "name") else f"{v:g}")
def test_coded_skeleton_matches_tuple_oracle_at_deeper_caps(model, norm_cap):
    # placements held as (class, code) grow the same sets, in the same
    # order, as the coordinate tuples did
    shape = _gas(model, model.orbit_representatives()[0], 12).shape
    assert shape.skeleton(norm_cap) == oracle_revisiting_skeleton(shape, norm_cap)


def test_norm_cap_past_the_code_bound_raises():
    # two placements of a connected set under norm cap 9 k lie up to
    # (k - 1) 3 apart per coordinate, which from this k on is not below B/2
    shape = _gas(ising(1.5), 1, 12).shape
    k = -(-metastable._CODE_BASE // 6) + 1
    with pytest.raises(BudgetError, match="code"):
        shape.skeleton(9.0 * k)
    assert shape.skeleton(18.0) == oracle_revisiting_skeleton(shape, 18.0)


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3), potts(4, 1.5)],
                         ids=lambda m: m.name)
def test_torus_placements_match_coordinate_oracle(model):
    for q in model.orbit_representatives():
        gas = _gas(model, q, 12)
        for L in (3, 4, 5):
            geom, placements = oracle_wrapped_placements(model, gas.classes, L)
            assert gas.shape.placements(L) == (
                geom.n_sites, tuple((ci, geom.mask(sup)) for ci, _, sup in placements))


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3), potts(3, 1.5),
                                   potts(4, 1.5)], ids=lambda m: m.name)
def test_overlap_offsets_match_set_oracle(model):
    # the codes, decoded pair by pair and in order, are the sorted offsets
    d = model.dimension
    for q in model.orbit_representatives():
        classes = contour_classes(model, q, 12)
        expected = oracle_overlap_offsets([y.support for y in classes], d)
        decoded = [[[_decode(code, d) for code in pair] for pair in row]
                   for row in _gas(model, q, 12).shape.offsets]
        assert decoded == expected


def _decode(code, d):
    """The offset of a code: its signed digits in base _CODE_BASE."""
    base, out = metastable._CODE_BASE, []
    for _ in range(d):
        digit = (code + base // 2) % base - base // 2
        out.append(digit)
        code = (code - digit) // base
    assert code == 0
    return tuple(reversed(out))


def test_offset_codes_in_four_dimensions_match_set_oracle():
    # twelve classes in d = 4: B^4 per class would pass an int64 from the
    # ninth class on, so the search keys are sized by the supports' extent
    rng = random.Random(29)
    cube = list(itertools.product((-1, 0, 1), repeat=4))
    supports = [tuple(sorted(rng.sample(cube, 20))) for _ in range(12)]
    shape = metastable._Shape(4, 1, tuple(supports))
    decoded = [[[_decode(code, 4) for code in pair] for pair in row] for row in shape.offsets]
    assert decoded == oracle_overlap_offsets(supports, 4)


def test_offset_codes_past_an_int64_raise():
    # in d = 5 two classes of extent 2 already need keys of 2^63 and more
    cube = tuple(itertools.product((-1, 0, 1), repeat=5))
    shape = metastable._Shape(5, 1, (cube, cube[1:]))
    with pytest.raises(BudgetError, match="overflow the offset code"):
        shape.offsets


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
    return [c for c in oracle_zd_components(free) if lo not in c and hi not in c]


def oracle_zd_contour_from_deviations(model, q, deviations):
    """Build the contour of a background-q configuration with the given
    deviations, or None if its bad region is not a single component."""
    cfg = ZdConfiguration.make(q, deviations)
    support = r_boundary(cfg, model.range)
    if not support:
        return None
    # two boundary sites are linked when one non-constant box contains both
    if len(oracle_zd_union_find(support, model.range)) != 1:
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


def _canon_contour(y):
    """The translate of a contour whose least coordinate on each axis is 0."""
    d = len(next(iter(y.support)))
    return y.translate(tuple(-min(p[a] for p in y.support) for a in range(d)))


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
        if not oracle_volume(y) <= region:
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
    # free models in phase 0, the class geometry that polymer.estimate_c0
    # counts (single-site term, zero energies)
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


# Ising with its spins listed as 1, -1: digit 0 is spin 1, where in
# ising(J) it is spin -1, so the two share digit records with the spins
# mapped the other way round
REVERSED_ISING = """\
[model]
name = custom
spins = 1,-1

[potential.site]
shape = (0,0)
table = 1 : 0.0 : 0
    -1 : 0.0 : 1

[potential.horizontal]
shape = (0,0);(1,0)
table = 1,1 : -1.5 : 0
    1,-1 : 1.5 : 0
    -1,1 : 1.5 : 0
    -1,-1 : -1.5 : 0

[potential.vertical]
shape = (0,0);(0,1)
table = 1,1 : -1.5 : 0
    1,-1 : 1.5 : 0
    -1,1 : 1.5 : 0
    -1,-1 : -1.5 : 0
"""


def _shared_geometry_models(n_spins):
    """(name, model, phases) of every class-test and model-sweep model with
    n_spins spins; the counting models enumerate phase 0 only."""
    makers = dict(
        _CLASS_MODELS,
        reversed=lambda: model_from_config(REVERSED_ISING),
        # listed 1, 0, -1, Blume-Capel's class order is not its digit order
        reversed3=lambda: dataclasses.replace(
            blume_capel(1.5, 0.3), spins=(1, 0, -1), name="blume-capel, spins 1,0,-1"),
    )
    models = {}  # one entry per model name, for the models both lists hold
    for name, make in makers.items():
        m = make()
        models[name if name.startswith("counting") else m.name] = m
    models.update((m.name, m) for m in sweep_models())
    return [
        (name, m, (0,) if name.startswith("counting") else m.spins)
        for name, m in models.items() if len(m.spins) == n_spins
    ]


@pytest.mark.parametrize("n_spins", [2, 3, 4])
def test_shared_class_geometry_matches_fresh_enumeration(n_spins):
    # every model of an alphabet size reads the geometry records that the
    # first of them built, in one order and in the reverse one, and gets
    # the classes, in order and with energy pairs to the bit, of the
    # per-candidate oracle
    models = _shared_geometry_models(n_spins)
    digits = {m.spins.index(q) for _, m, phases in models for q in phases}
    expected = {}
    for order in (models, models[::-1]):
        contours._class_geometry.cache_clear()
        for name, model, phases in order:
            for q in phases:
                for size_cap in (9, 12, 16):
                    key = (name, q, size_cap)
                    if key not in expected:
                        expected[key] = _contour_records(
                            model, oracle_contour_classes(model, q, size_cap))
                    assert _contour_records(model, contour_classes(model, q, size_cap)) == \
                        expected[key], key
        assert contours._class_geometry.cache_info().misses == 3 * len(digits)


@pytest.mark.parametrize("n_spins, caps", [(2, (9, 12, 16, 18)), (3, (9, 12, 16)),
                                           (4, (9, 12, 16))])
def test_relabelled_class_geometry_matches_fresh_growth(n_spins, caps):
    # every background's record, relabelled from digit 0's (which is grown),
    # is the record a growth in that background gives: classes, box and both
    # column arrays, dtype and bits
    for cap in caps:
        assert contours._class_geometry(2, 1, n_spins, 0, cap).classes
        for bg in range(1, n_spins):
            got = contours._class_geometry(2, 1, n_spins, bg, cap)
            grown = contours._grown_class_geometry(2, 1, n_spins, bg, cap)
            assert (got.classes, got.padded) == (grown.classes, grown.padded), (cap, bg)
            for a, b in zip(got.columns, grown.columns):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert not a.flags.writeable


def oracle_phase_record(model, phases, size_cap):
    """The arrays of the phase-stacked record as built from each phase's
    contour classes (one object per class, sorted by size and key), and per
    phase the classes' sorted supports."""
    classes = [contour_classes(model, q, size_cap) for q in phases]
    assert not any(y.interiors for row in classes for y in row)
    pairs = [[y.energy_pair(model) for y in row] for row in classes]
    rho0 = np.array([[cmath.exp(-c) for c, _ in row] for row in pairs], dtype=complex)
    power = np.array([[p for _, p in row] for row in pairs], dtype=float)
    sizes = np.array([y.size for y in classes[0]], dtype=float)
    c_q, p_q = np.array([model.ground_pair(m) for m in phases], complex).T[:, :, None]
    arrays = dict(
        rho0=rho0, log_rho0=-np.array([[c.real for c, _ in row] for row in pairs]),
        power=power, coef=rho0 * np.exp(c_q * sizes), dpower=power - sizes * p_q.real,
        sizes=sizes,
    )
    return arrays, [[tuple(sorted(y.support)) for y in row] for row in classes]


_RECORD_FIELDS = ("rho0", "log_rho0", "power", "coef", "dpower", "sizes")


def _record_phase_sets(model):
    """The orbit representatives and every one-phase set of a model."""
    return [model.orbit_representatives()] + [(q,) for q in model.spins]


@pytest.mark.parametrize("model, cap", [
    *((m, cap) for m in (ising(1.5), ising(1.5, field="plain"), blume_capel(1.5, 0.3),
                         potts(3, 1.5), potts(4, 1.5)) for cap in (12, 16)),
    (ising(1.5, d=3), 27), (ising(1.5, d=3), 36),
    (perturbed_ising({((0, 0), (0, 2)): 0.1, ((0, 0), (0, 1)): 1.0}), 25),
], ids=lambda x: getattr(x, "name", x))
def test_record_matches_contour_class_oracle(model, cap):
    # the records read from the class geometry rows equal, bit for bit, those
    # built from the contour objects; the shape's supports are every phase's
    for phases in _record_phase_sets(model):
        record = metastable._record(model, cap, phases)
        arrays, supports = oracle_phase_record(model, phases, cap)
        for field in _RECORD_FIELDS:
            got, want = getattr(record, field), arrays[field]
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.tobytes() == want.tobytes(), (phases, field)
        assert all(row == list(record.shape.supports) for row in supports), phases


def _three_state_custom_config():
    """A Blume-Capel-like custom model with its spins listed 1, -1, 0, so
    that its digit order is not the order of its spin values."""
    spins = (1, -1, 0)
    site = "\n    ".join(f"{s} : {-0.3 * s * s} : {s + 1}" for s in spins)
    bond = "\n    ".join(f"{a},{b} : {1.5 * (a - b) ** 2} : 0" for a in spins for b in spins)
    return (f"[model]\nname = custom\nspins = 1,-1,0\n\n"
            f"[potential.site]\nshape = (0,0)\ntable = {site}\n\n"
            f"[potential.horizontal]\nshape = (0,0);(1,0)\ntable = {bond}\n\n"
            f"[potential.vertical]\nshape = (0,0);(0,1)\ntable = {bond}\n")


@pytest.mark.parametrize("config, cap", [
    (_three_state_custom_config(), 12), (_three_state_custom_config(), 16),
    (REVERSED_ISING, 16),
], ids=["spins-1,-1,0-12", "spins-1,-1,0-16", "spins-1,-1-16"])
def test_unsorted_spins_record_matches_contour_class_oracle(config, cap):
    # with spins listed out of order only the order of the classes within
    # one support differs from the oracle's (digit order against spin-value
    # order): each row matches as a multiset, and the tables of a twin model
    # that holds the oracle's arrays agree to rounding
    model, twin = (model_from_config(config) for _ in range(2))
    phases = model.orbit_representatives()
    record = metastable._record(model, cap, phases)
    arrays, supports = oracle_phase_record(model, phases, cap)
    for row in range(len(phases)):
        got = zip(record.shape.supports, *(getattr(record, f)[row].tolist()
                                           for f in _RECORD_FIELDS[:5]))
        want = zip(supports[row], *(arrays[f][row].tolist() for f in _RECORD_FIELDS[:5]))
        assert Counter(got) == Counter(want), phases[row]
    oracle = metastable._Phases(twin, phases, cap)
    for field in _RECORD_FIELDS:
        setattr(oracle, field, arrays[field])
    twin.gas[(cap, phases)] = oracle
    # the orders differ
    assert any(getattr(record, f).tobytes() != arrays[f].tobytes() for f in _RECORD_FIELDS)
    cutoffs = Cutoffs(cap, 18.0)
    for z in (1.0, 0.9 + 0.3j, cmath.exp(2.0j), 1.1 * cmath.exp(0.3j)):
        got, want = free_energy_table(model, z, cutoffs), free_energy_table(twin, z, cutoffs)
        assert got.stable == want.stable and got.activations == want.activations
        for m in phases:
            assert abs(got[m].zeta - want[m].zeta) <= 1e-13 * abs(want[m].zeta), (z, m)


def _box(a, b):
    return [(i, j) for i in range(a) for j in range(b)]


@pytest.mark.parametrize("model, region", [
    (ising(1.1), _box(5, 5)),
    (ising(1.1), _box(3, 6)),
    (blume_capel(1.4, 0.05), _box(4, 5)),
    (potts(3, 1.5), _box(4, 4)),
    (ising(1.1), [x for x in _box(7, 7) if x[0] < 3 or x[1] < 3]),
    (perturbed_ising({((0, 0), (0, 2)): 0.1, ((0, 0), (0, 1)): 1.0}), _box(7, 7)),
], ids=["ising-5x5", "ising-3x6", "blume-capel-4x5", "potts3-4x4", "ising-L", "range2-7x7"])
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


# -- oracles: the set-based torus extraction replaced by the bitmask one
# (Torus.dilate_box, dilate_nn, flood and diameter), and the frozenset
# bookkeeping of the collections replaced by their site masks ----------------


@functools.lru_cache(maxsize=None)
def _box_items(geom):
    return tuple(operator.itemgetter(*box) for box in geom.boxes)


def oracle_torus_r_boundary(config, R):
    spins = config.spins
    return frozenset(c for c, items in enumerate(_box_items(config.torus(R)))
                     if len(set(items(spins))) > 1)


def oracle_torus_diameter(geom, sites):
    sites = list(sites)
    if not sites:
        return 0
    L = geom.L
    worst = 0
    for a in range(geom.d):
        present = sorted({geom.coords[i][a] for i in sites})
        if len(present) == L:
            worst = max(worst, L)
            continue
        gap = max(
            (present[k + 1] - present[k] for k in range(len(present) - 1)),
            default=0,
        )
        gap = max(gap, present[0] + L - present[-1])
        worst = max(worst, L - gap + 1)
    return worst


def oracle_component_labels(geom, support, spins):
    complement = [x for x in range(geom.n_sites) if x not in support]
    out = []
    for comp in sorted(oracle_torus_components(geom, complement), key=min):
        values = {spins[y] for x in comp for y in geom.neighbors[x] if y in support}
        if len(values) != 1:
            raise ValueError(
                f"label mismatch on the complement component at site {min(comp)}: "
                f"its ring carries {sorted(map(repr, values))}"
            )
        out.append((comp, values.pop()))
    return out


def oracle_extract(config, R):
    geom = config.torus(R)
    small, large = [], []
    for c in oracle_zd_components(oracle_torus_r_boundary(config, R), geom.boxes.__getitem__):
        (small if 2 * oracle_torus_diameter(geom, c) < geom.L else large).append(c)
    spins = config.spins
    if not small and not large:
        return MatchingCollection(geom, (), None, spins[0])
    contours = []
    for sup in sorted(small, key=min):
        (ext, ext_label), *interiors = sorted(
            oracle_component_labels(geom, sup, spins),
            key=lambda cl: 2 * len(cl[0]) <= geom.n_sites,
        )
        contours.append(TorusContour(geom, sup, {s: spins[s] for s in sup},
                                     ext, ext_label, tuple(interiors)))
    network = None
    if large:
        sup = frozenset().union(*large)
        network = TorusNetwork(geom, sup, {s: spins[s] for s in sup},
                               tuple(oracle_component_labels(geom, sup, spins)))
    return MatchingCollection(geom, tuple(contours), network, None)


def oracle_complement_labels(collection):
    union, spins = set(), {}
    for o in collection.objects():
        if union & o.support:
            raise ValueError("label mismatch: supports overlap")
        union.update(o.support)
        spins.update(o.spins)
    return oracle_component_labels(collection.geom, union, spins)


def oracle_reconstruct(collection):
    geom = collection.geom
    objects = collection.objects()
    if not objects:
        if collection.vacuum_label is None:
            raise ValueError("label mismatch: empty collection needs a vacuum label")
        return TorusConfiguration(geom.L, geom.d, (collection.vacuum_label,) * geom.n_sites)
    arr = [None] * geom.n_sites
    for o in objects:
        for s in o.support:
            arr[s] = o.spins[s]
    for comp, lab in oracle_complement_labels(collection):
        for x in comp:
            arr[x] = lab
    return TorusConfiguration(geom.L, geom.d, tuple(arr))


def oracle_region_sizes(collection):
    counts = {}
    for comp, lab in oracle_complement_labels(collection):
        counts[lab] = counts.get(lab, 0) + len(comp)
    return counts


def oracle_exterior_interior(geom, support):
    if 2 * oracle_torus_diameter(geom, support) >= geom.L:
        return frozenset(), frozenset(range(geom.n_sites)) - support
    comps = oracle_torus_components(geom, [x for x in range(geom.n_sites) if x not in support])
    big = [c for c in comps if 2 * len(c) > geom.n_sites]
    assert len(big) == 1
    return big[0], frozenset(range(geom.n_sites)) - support - big[0]


def oracle_value_at(o, x):
    if x in o.support:
        return o.spins[x]
    for comp, lab in o.labels:
        if x in comp:
            return lab
    raise KeyError(x)


def oracle_key(o):
    sup = tuple(sorted(o.support))
    return sup, tuple(o.spins[s] for s in sup), tuple(sorted((min(c), lab) for c, lab in o.labels))


def oracle_is_matching(collection):
    geom = collection.geom
    objects = collection.objects()
    diagnostics = []
    union = set()
    for o in objects:
        overlap = union & o.support
        if overlap:
            diagnostics.append(f"supports overlap at sites {sorted(overlap)[:4]}")
        union.update(o.support)
    shrunk = set()
    for o in objects:
        shrunk.update(x for x in o.support if all(y in o.support for y in geom.neighbors[x]))
    complement = [x for x in range(geom.n_sites) if x not in shrunk]
    for comp in sorted(oracle_torus_components(geom, complement), key=min):
        touching = [o for o in objects if o.support & comp]
        if len(touching) < 2:
            continue
        base = touching[0]
        for other in touching[1:]:
            for x in sorted(comp):
                if oracle_value_at(base, x) != oracle_value_at(other, x):
                    diagnostics.append(
                        f"objects disagree at site {x}: "
                        f"{oracle_value_at(base, x)!r} vs {oracle_value_at(other, x)!r}"
                    )
                    break
    return not diagnostics, diagnostics


def oracle_nesting_order(collection):
    root = collection.network.support if collection.network is not None else frozenset()
    elems = [root] + [y.support for y in collection.contours]
    inte = [frozenset(range(collection.geom.n_sites)) - root] + [
        frozenset().union(*(comp for comp, _ in y.interiors)) for y in collection.contours
    ]
    exte = [frozenset()] + [y.ext_component for y in collection.contours]
    vol = [e | inner for e, inner in zip(elems, inte)]
    n = len(elems)
    below = [[False] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(n):
            if i == j:
                continue
            a_in_b = vol[i] <= inte[j]
            b_in_a = vol[j] <= inte[i]
            mutual = vol[i] <= exte[j] and vol[j] <= exte[i] if j else False
            if sum((a_in_b, b_in_a, mutual)) != 1:
                raise RuntimeError("nesting trichotomy violated; contour bookkeeping is broken")
            below[i][j] = a_in_b
    parent = [-1] * n
    for i in range(1, n):
        ancestors = [j for j in range(n) if below[i][j]]
        parent[i] = min(ancestors, key=lambda j: len(vol[j]))
    return contours.NestingForest(tuple(elems), tuple(parent))


def _extraction(coll):
    """Everything a matching collection holds, with the types of its sets."""
    return (
        type(coll), coll.vacuum_label, len(coll.contours),
        [(type(o), type(o.support), o.support, o.spins, o.labels,
          [type(comp) for comp, _ in o.labels]) for o in coll.objects()],
        [(y.ext_component, y.ext_label, y.interiors, y.to_json_dict()) for y in coll.contours],
    )


def _views_unread(coll):
    return not any({"support", "spins", "labels"} & vars(o).keys() for o in coll.objects())


def _check_against_set_oracles(model, L, configs):
    R = model.range
    geom = torus(L, model.dimension, R)
    n_objects = 0
    for cfg in configs:
        new, old = extract(cfg, R), oracle_extract(cfg, R)
        # the mask path first, on objects whose frozenset and dict views
        # were never read, and without reading them
        back, matching, forest = reconstruct(new), is_matching(new), nesting_order(new)
        sizes = new.region_sizes()
        assert _views_unread(new)
        assert back == oracle_reconstruct(old) == cfg
        assert type(back.spins) is tuple
        assert matching == (True, [])
        assert forest == oracle_nesting_order(old)
        if new.objects():
            assert sizes == oracle_region_sizes(old)
        assert _extraction(new) == _extraction(old), cfg.spins
        assert [(o.key(), o.size) for o in new.objects()] == [
            (oracle_key(o), len(o.support)) for o in old.objects()]
        assert r_boundary(cfg, R) == frozenset().union(*(o.support for o in old.objects()))
        for y in new.contours:
            assert exterior_interior(geom, y.support) == oracle_exterior_interior(geom, y.support)
        if new.contours:  # the sets of every configuration hold none, and are large
            for o, o_old in zip(new.objects(), old.objects()):
                assert [o.value_at(x) for x in range(geom.n_sites)] == [
                    oracle_value_at(o_old, x) for x in range(geom.n_sites)]
        n_objects += len(new.objects())
    return n_objects


_EXTRACTION_SETS = {
    "blume-capel-L3": lambda: (blume_capel(1.3, 0.1), 3, list(all_configs(blume_capel(1.3, 0.1), 3))),
    "potts3-L3": lambda: (potts(3, 1.5), 3, list(all_configs(potts(3, 1.5), 3))),
    "ising-L4": lambda: (ising(1.0), 4, list(all_configs(ising(1.0), 4))),
    "free-field-L3": lambda: (free_field_model(), 3, list(all_configs(free_field_model(), 3))),
}


@pytest.mark.parametrize("name", list(_EXTRACTION_SETS))
def test_extract_matches_set_oracle_on_every_configuration(name):
    model, L, configs = _EXTRACTION_SETS[name]()
    assert _check_against_set_oracles(model, L, configs) == len(configs) - len(model.spins)


def test_extract_matches_set_oracle_on_sparse_and_wider_tori():
    rng = random.Random(45)
    bc = blume_capel(1.3, 0.1)
    configs = [sparse_torus_config(rng, bc, 7, rng.randint(0, 8)) for _ in range(2000)]
    _check_against_set_oracles(bc, 7, configs)
    assert sum(bool(extract(cfg, 1).contours) for cfg in configs) > 100
    # range 2: the boxes are 5x5 and the contours need L >= 11
    model = perturbed_ising({((0, 0), (0, 2)): 0.1, ((0, 0), (0, 1)): 1.0})
    for L, k in ((5, 300), (11, 60)):
        configs = [random_torus_config(rng, model, L) for _ in range(k // 3)]
        configs += [sparse_torus_config(rng, model, L, rng.randint(0, 4)) for _ in range(k)]
        _check_against_set_oracles(model, L, configs)
    assert any(extract(cfg, 2).contours for cfg in configs)
    # three dimensions: on L=3 every box is the whole torus, on L=7 single
    # flips are contours
    model = ising(1.0, d=3)
    for L, k in ((3, 300), (7, 30)):
        configs = [random_torus_config(rng, model, L) for _ in range(k // 3)]
        configs += [sparse_torus_config(rng, model, L, rng.randint(0, 3)) for _ in range(k)]
        _check_against_set_oracles(model, L, configs)
    assert any(extract(cfg, 1).contours for cfg in configs)
    # several contours per torus, and a contour with a contour in its
    # interior, for the matching check and the nesting
    rng = random.Random(48)
    configs = [sparse_torus_config(rng, bc, 9, rng.randint(2, 8)) for _ in range(300)]
    _check_against_set_oracles(bc, 9, configs)
    assert sum(len(extract(cfg, 1).contours) >= 2 for cfg in configs) > 10
    assert _check_against_set_oracles(ising(1.0), 23, [nested_ring_config()]) == 2
    # a ring of 0 around a block of -1: an interior labelled unlike the exterior
    geom, spins = torus(23, 2, 1), [1] * 529
    for dr, dc in itertools.product(range(-4, 5), repeat=2):
        spins[geom.index((11 + dr, 11 + dc))] = 0 if max(abs(dr), abs(dc)) == 4 else -1
    assert _check_against_set_oracles(bc, 23, [TorusConfiguration(23, 2, tuple(spins))]) == 1


def _memos(geom):
    """The memoised geometry of a torus, by attribute name."""
    return {name: f for name, f in vars(geom).items() if hasattr(f, "cache_info")}


def oracle_boundary_components(geom, sub):
    comps = sorted(oracle_zd_components(sub, geom.boxes.__getitem__), key=min)
    small = tuple(c for c in comps if 2 * oracle_torus_diameter(geom, c) < geom.L)
    return small, tuple(c for c in comps if c not in small)


def oracle_complement_rings(geom, sub):
    support = set(sub)
    comps = oracle_torus_components(geom, [x for x in range(geom.n_sites) if x not in support])
    return [(c, sorted({y for x in c for y in geom.neighbors[x] if y in support}))
            for c in sorted(comps, key=min)]


def oracle_skeleton(geom, sub):
    """``Torus.skeleton`` from sets: each small box-linked component with its
    complement components and rings, the exterior (more than half of the
    sites) first; the large components; the complement components of their
    union, with their rings."""
    small, large = oracle_boundary_components(geom, sub)
    return (
        [(c, sorted(oracle_complement_rings(geom, c), key=lambda r: 2 * len(r[0]) <= geom.n_sites))
         for c in small],
        list(large),
        oracle_complement_rings(geom, frozenset().union(*large)) if large else None,
    )


def _rings_as_sets(geom, rings):
    """``Torus.complement_rings`` entries as (component set, ring list),
    after checking that each holds its component's sites in order."""
    assert all(sites == tuple(geom.sites(c)) for c, _, sites in rings)
    return [(frozenset(geom.sites(c)), list(ring)) for c, ring, _ in rings]


def test_torus_masks_match_set_oracles():
    rng = random.Random(46)
    for L, d, R in ((3, 2, 1), (5, 2, 2), (6, 2, 1), (7, 2, 1), (3, 3, 1), (4, 3, 1)):
        geom = torus(L, d, R)
        for memo in _memos(geom).values():
            memo.cache_clear()
        # 30 random masks, and the box around site 0 without site 0: on
        # L=7 a contour support whose hole holds the least site, so the
        # exterior must be put first
        subs = [[x for x in range(geom.n_sites) if rng.random() < rng.uniform(0.1, 0.7)]
                for _ in range(30)] + [geom.sites(geom.dilate_box(1) & ~1)]
        for sub in subs:
            mask = geom.mask(sub)
            # the memoised skeleton and rings, cold and then warm
            skeleton = geom.skeleton(mask)
            rings = geom.complement_rings(mask)
            assert geom.skeleton(mask) is skeleton and geom.complement_rings(mask) is rings
            small, large, union, network = skeleton
            assert union == sum(large)
            assert ([(frozenset(geom.sites(c)), _rings_as_sets(geom, ext_first))
                     for c, ext_first in small],
                    [frozenset(geom.sites(c)) for c in large],
                    None if network is None else _rings_as_sets(geom, network),
                    ) == oracle_skeleton(geom, sub)
            assert _rings_as_sets(geom, rings) == oracle_complement_rings(geom, sub)
            assert geom.sites(mask) == sub
            assert [frozenset(geom.sites(c)) for c in geom.flood(mask, geom.dilate_nn)] == sorted(
                oracle_torus_components(geom, sub), key=min)
            assert [frozenset(geom.sites(c)) for c in geom.flood(mask, geom.dilate_box)] == sorted(
                oracle_zd_components(sub, geom.boxes.__getitem__), key=min)
            assert geom.diameter(mask) == oracle_torus_diameter(geom, sub)
            assert set(geom.sites(geom.dilate_box(mask))) == {y for x in sub for y in geom.boxes[x]}
            assert set(geom.sites(geom.shrink(mask))) == {
                x for x in sub if all(y in sub for y in geom.neighbors[x])}
        assert geom.diameter(0) == 0 and geom.flood(0, geom.dilate_nn) == []
        assert geom.boundary([0] * geom.n_sites) == 0 and geom.skeleton(0) == ((), (), 0, None)
        assert geom.complement_rings(geom.full) == ()
        assert geom.complement_rings(0) == ((geom.full, (), tuple(range(geom.n_sites))),)
        assert all(memo.cache_info().hits >= 30 for name, memo in _memos(geom).items()
                   if name != "_value_box")


def test_torus_memos_hold_at_most_their_cap_and_only_tuples():
    # all of Ising L=4 meets more value masks than a memo holds
    geom = torus(4, 2, 1)
    memos = _memos(geom)
    assert sorted(memos) == ["_value_box", "complement_rings", "skeleton"]
    for memo in memos.values():
        memo.cache_clear()
    for cfg in all_configs(ising(1.0), 4):
        extract(cfg, 1)
    for name, memo in memos.items():
        info = memo.cache_info()
        assert info.maxsize == lattice._MEMO_CAP and info.currsize <= info.maxsize, name
    assert memos["_value_box"].cache_info().misses > lattice._MEMO_CAP
    # the values callers share cannot be changed in place
    rng = random.Random(49)

    def frozen_rings(rings):
        return type(rings) is tuple and all(
            type(r) is tuple and type(r[1]) is tuple and type(r[2]) is tuple for r in rings)

    for mask in [0, geom.full] + [rng.getrandbits(geom.n_sites) for _ in range(50)]:
        (small, large, union, network), rings = geom.skeleton(mask), geom.complement_rings(mask)
        assert type(small) is tuple and type(large) is tuple and type(union) is int
        assert all(type(c) is tuple and frozen_rings(c[1]) for c in small)
        assert network is None or frozen_rings(network)
        assert frozen_rings(rings)
        assert type(geom._value_box(mask)) is int


def _raises_alike(new, old, *args):
    with pytest.raises(ValueError) as got:
        new(*args)
    with pytest.raises(ValueError) as want:
        old(*args)
    assert str(got.value) == str(want.value)
    return str(got.value)


def _bend(coll, y, x, value):
    """``coll`` with the spin of object ``y`` at support site ``x`` set to ``value``."""
    spins = {**y.spins, x: value}
    if isinstance(y, TorusNetwork):
        return MatchingCollection(coll.geom, coll.contours,
                                  TorusNetwork(coll.geom, y.support, spins, y.labels), None)
    bent = TorusContour(coll.geom, y.support, spins, y.ext_component, y.ext_label, y.interiors)
    return MatchingCollection(coll.geom, tuple(bent if c is y else c for c in coll.contours),
                              coll.network, None)


def test_tampered_collections_fail_like_the_set_oracle():
    rng = random.Random(47)
    bc = blume_capel(1.3, 0.1)
    colls = [extract(sparse_torus_config(rng, bc, L, rng.randint(2, 8)), 1)
             for L in (9, 11) for _ in range(100)]
    colls = [c for c in colls if len(c.objects()) >= 2]
    assert len(colls) >= 20 and any(c.network is not None for c in colls)
    n_corners = 0
    for coll in colls:
        geom = coll.geom
        assert is_matching(coll) == oracle_is_matching(coll) == (True, [])
        for y in (coll.objects()[0], coll.objects()[-1]):
            twice = MatchingCollection(geom, (y, y), None, None)
            assert (_raises_alike(reconstruct, oracle_reconstruct, twice)
                    == "label mismatch: supports overlap")
            _raises_alike(MatchingCollection.region_sizes, oracle_region_sizes, twice)
            assert is_matching(twice) == oracle_is_matching(twice)
            # a ring site of y takes another value, so its ring is not constant
            x = rng.choice([x for x in sorted(y.support)
                            if any(n not in y.support for n in geom.neighbors[x])])
            bent = _bend(coll, y, x, rng.choice([s for s in bc.spins if s != y.spins[x]]))
            msg = _raises_alike(reconstruct, oracle_reconstruct, bent)
            assert msg.startswith("label mismatch on the complement component at site ")
            _raises_alike(MatchingCollection.region_sizes, oracle_region_sizes, bent)
            ok, diagnostics = is_matching(bent)
            assert (ok, diagnostics) == oracle_is_matching(bent) and not ok
            # a site next to the complement only across a corner is off the
            # ring: its spin leaves the labels as they are
            corners = [x for x in sorted(y.support)
                       if set(geom.neighbors[x]) <= y.support and not set(geom.boxes[x]) <= y.support]
            for x in corners[:1]:
                bent = _bend(coll, y, x, rng.choice([s for s in bc.spins if s != y.spins[x]]))
                assert reconstruct(bent) == oracle_reconstruct(bent)
                n_corners += 1
    assert n_corners >= 5
