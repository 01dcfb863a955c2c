import cmath
import gc
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import pszeros.contours as contours
import pszeros.metastable as metastable
from conftest import random_z, sweep_models
from pszeros.contours import contour_classes, contour_partition_function, contours_in_region
from pszeros.errors import BudgetError, ConvergenceError
from pszeros.metastable import (
    Cutoffs,
    WeightEngine,
    nondegeneracy_check,
    estimate_M,
    estimate_tau,
    estimated_constants,
    finite_volume_zeta,
    free_energy_table,
    mollifier_eval,
    polymer_pressure,
    truncated_partition,
    truncated_weight,
    zeta,
)
from pszeros.models import ModelError, blume_capel, ising, pair_weight, potts, theta
from pszeros.zeros import PhaseEvaluator


# -- mollifier ------------------------------------------------------------------


def test_mollifier_endpoints():
    for x, v in ((-2.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (-5.0, 0.0)):
        val, dv, ddv = mollifier_eval(x)
        assert val == v
        assert dv == 0.0 and ddv == 0.0


def test_mollifier_midpoint():
    assert mollifier_eval(-1.5)[0] == pytest.approx(0.5)


def test_mollifier_c2_continuity():
    h = 1e-6
    for edge in (-2.0, -1.0):
        for f_idx in (0, 1):
            lo = mollifier_eval(edge - h)[f_idx]
            hi = mollifier_eval(edge + h)[f_idx]
            assert abs(hi - lo) < 1e-4


def test_mollifier_monotone_01():
    xs = [-2 + 0.01 * k for k in range(201)]
    vals = [mollifier_eval(x)[0] for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# -- truncated weights -------------------------------------------------------------


def test_truncated_weight_symmetric_point():
    # both phases equally stable: the mollifier is inert and
    # K' = rho theta^{-|Y|}
    m = ising(1.5)
    z = cmath.exp(0.3j)  # on the unit circle
    eng = WeightEngine(m, z)
    for y in contour_classes(m, 1, 12):
        kp = truncated_weight(m, y, z, engine=eng)
        expect = pair_weight(y.energy_pair(m), z) * theta(m, 1, z) ** (-y.size)
        assert kp == pytest.approx(expect, rel=1e-12)
    assert eng.activation_log == []


def test_hard_cap_zeroes_and_logs_weights_above_it(monkeypatch):
    # tau = 16 is the smallest Peierls rate that tau >= 4 c0 + 16 admits;
    # on the unit circle the mollifier stays inert (x = tau/4), so the
    # uncapped weight is rho theta^{-|Y|}, and the cap exp(-8|Y|) lies below it
    monkeypatch.setattr(metastable, "estimate_tau", lambda model, z, size_cap: 16.0)
    m = ising(1.5)
    z = cmath.exp(0.3j)
    eng = WeightEngine(m, z)
    assert eng.tau == 16.0
    capped = 0
    for q in m.orbit_representatives():
        for y in contour_classes(m, q, 12):
            plain = pair_weight(y.energy_pair(m), z) * theta(m, q, z) ** (-y.size)
            cap = math.exp(-8.0 * y.size)
            assert abs(plain) > cap
            assert eng.weight_truncated(y) == 0j
            capped += 1
            entry = eng.activation_log[-1]
            assert entry["contour"] == y.key() and entry["size"] == y.size
            assert entry["weight"] == pytest.approx(abs(plain), rel=1e-12)
            assert entry["cap"] == cap
    assert capped > 0 and len(eng.activation_log) == capped
    assert eng.weight_truncated(y) == 0j  # memoized: logged once
    assert len(eng.activation_log) == capped
    table = free_energy_table(m, z)
    assert table.tau == 16.0 and table.activations == capped


def test_truncated_weight_deep_instability_vanishes():
    # Blume-Capel with a strongly disfavored 0 phase: phi = 0 kills the
    # 0-contours entirely
    m = blume_capel(1.5, 3.0)
    z = 1.0
    eng = WeightEngine(m, z)
    y0 = contour_classes(m, 0, 9)[0]
    assert truncated_weight(m, y0, z, engine=eng) == 0j
    assert eng.mollifier_factor(y0) == 0.0


def test_truncated_weight_stability_equivalence():
    # wherever the phase is stable the truncation is invisible: K' = K
    m = ising(1.4)
    z = cmath.exp(0.5j)
    eng = WeightEngine(m, z)
    for q in (1, -1):
        for y in contour_classes(m, q, 12):
            assert eng.is_stable(y)


def test_truncated_partition_no_room():
    m = ising(1.3)
    z = 0.9 + 0.1j
    region = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert truncated_partition(m, region, 1, z) == pytest.approx(
        theta(m, 1, z) ** 4, rel=1e-12
    )


def test_truncated_partition_equals_plain_when_stable(rng):
    m = ising(1.3)
    region = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(3):
        z = cmath.exp(2j * math.pi * rng.random())  # both phases stable
        eng = WeightEngine(m, z)
        for q in (1, -1):
            zq = contour_partition_function(m, region, q, z)
            zq_p = eng.zprime(region, q)
            assert abs(zq - zq_p) / abs(zq) < 1e-10
    assert eng.activation_log == []


def test_truncated_partition_nonvanishing_bound():
    # |Z'_q| >= e^{-f_q |Lambda| - eps |boundary|} at strong coupling
    m = ising(2.5)
    z = 1.0
    region = [(i, j) for i in range(4) for j in range(4)]
    tab = free_energy_table(m, z)
    zq = truncated_partition(m, region, 1, z)
    eps = math.exp(-estimate_tau(m, z) / 2)
    lower = math.exp(-tab[1].f * 16 - eps * 16)
    assert abs(zq) >= lower


# -- pressures -----------------------------------------------------------------------


def test_pressure_leading_ising_coefficient():
    # the smallest contour reproduces the leading low-temperature term: in
    # bond-cost units a single overturned spin costs 4 d J + 2 h, so
    # s_+ ~ exp(-4 d J) / z with coefficient one
    J, d = 3.0, 2
    m = ising(J)
    for z in (1.0, cmath.exp(0.2), cmath.exp(0.1j)):
        res = polymer_pressure(m, 1, z)
        coeff = res.value * z * math.exp(4 * d * J)
        assert abs(coeff - 1) < 0.01


def test_pressure_bounded_by_peierls_rate():
    m = ising(1.5)
    z = cmath.exp(0.4j)
    tau = estimate_tau(m, z)
    res = polymer_pressure(m, 1, z)
    assert abs(res.value) <= math.exp(-tau / 2)


def test_pressure_zero_budget():
    m = ising(1.5)
    res = polymer_pressure(m, 1, 1.0, Cutoffs(size_cap=0, norm_cap=0.0))
    assert res.value == 0
    assert zeta(m, 1, 1.0, Cutoffs(size_cap=0, norm_cap=0.0)).zeta == theta(m, 1, 1.0)


def test_tau_is_measured_on_the_gas_being_weighed():
    # Ising d=3: the smallest contour has 27 sites, so a tau measured at the
    # default size cap 12 sees no contour (tau = inf) and caps every weight
    # of the cap-36 gas; measured on that gas, no weight is capped
    m = ising(1.5, d=3)
    z = cmath.exp(0.7j)
    table = free_energy_table(m, z, Cutoffs(36, 72.0))
    assert math.isfinite(table.tau) and table.tau == estimate_tau(m, z, 36)
    assert table.activations == 0
    for q in m.orbit_representatives():
        assert table[q].s != 0 and table[q].dlog is not None
        assert table[q].pressure.activations == 0
    # in 2D a raised size cap enters tau too
    m2 = ising(1.5)
    assert free_energy_table(m2, z, Cutoffs(16, 18.0)).tau == estimate_tau(m2, z, 16)


def test_pressure_error_bound_dominates_refinement():
    # enlarging the cluster norm moves the value by less than the tail bound
    m = ising(1.2)
    z = cmath.exp(0.7j)
    lo = polymer_pressure(m, 1, z, Cutoffs(12, 12.0))
    hi = polymer_pressure(m, 1, z, Cutoffs(12, 24.0))
    assert abs(hi.value - lo.value) <= lo.error_bound


# -- zeta -----------------------------------------------------------------------------


def test_zeta_coexistence_at_symmetric_field():
    tab = free_energy_table(ising(1.4), 1.0)
    assert tab.stable == (-1, 1)
    assert tab[1].a == 0.0 and tab[-1].a == 0.0


def test_zeta_flip_symmetry(rng):
    m = ising(1.3)
    z = random_z(rng)
    t1 = free_energy_table(m, z)
    t2 = free_energy_table(m, 1 / z)
    assert t1[1].s == pytest.approx(t2[-1].s, rel=1e-9)


def test_zeta_blume_capel_displayed_coefficients():
    # log zeta series: s_+ ~ z^{-1} e^{-2dJ-lam}, s_0 ~ (z+1/z) e^{-2dJ+lam},
    # second order d z^{-2} e^{-(4d-2)J-2lam}; bond cost J for the 0/+ pair
    d = 2
    lam = 0.05
    cut = Cutoffs(12, 12.0)
    for J in (3.0, 3.5, 4.0):
        m = blume_capel(J, lam)
        for z in (1.0, cmath.exp(0.2j)):
            tab = free_energy_table(m, z, cut)
            c_plus = tab[1].s * z * math.exp(2 * d * J + lam)
            c_zero = tab[0].s / (z + 1 / z) * math.exp(2 * d * J - lam)
            assert abs(c_plus - 1) < 0.01
            assert abs(c_zero - 1) < 0.01
            # second order: subtract the leading term and scale
            second = (tab[1].s - cmath.exp(-2 * d * J - lam) / z) * z**2 * math.exp(
                (4 * d - 2) * J + 2 * lam
            )
            assert abs(second - d) < 0.05 * d


def test_zeta_zero_theta_sentinels():
    from conftest import free_field_model

    m = free_field_model(spins=(0, 1), site_zpower=lambda s: float(s))
    tab = free_energy_table(m, 0.0)  # theta_1(0) = 0
    assert tab[1].f == math.inf and tab[1].a == math.inf
    assert tab[0].a == 0.0


# -- finite volume ---------------------------------------------------------------------


def test_finite_volume_monotone_convergence():
    m = ising(1.2)
    z = cmath.exp(0.1 + 0.2j)
    zinf = free_energy_table(m, z)[1].zeta
    gaps = []
    for L in (3, 4, 5):
        zl = finite_volume_zeta(m, 1, L, z)
        gaps.append(abs(cmath.log(zl / zinf)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_finite_volume_within_wrapping_bound():
    m = ising(1.5)
    z = cmath.exp(0.3j)
    tau = estimate_tau(m, z)
    zinf = free_energy_table(m, z)[1].zeta
    for L in (3, 4, 5):
        gap = abs(cmath.log(finite_volume_zeta(m, 1, L, z) / zinf))
        assert gap <= 2 * L**2 * math.exp(-tau * L / 4)


def test_finite_volume_cluster_branch_three_states():
    # above EXACT_PLACEMENT_BUDGET the torus gas goes through
    # enumerate_clusters; growing supports past the norm cutoff once took
    # this call past 1.8 GB, pruned it takes a fraction of a second
    m = blume_capel(1.5, 0.3)
    z = cmath.exp(0.7j)
    zl = finite_volume_zeta(m, 1, 4, z)
    assert cmath.isfinite(zl) and zl != 0
    assert abs(cmath.log(zl / free_energy_table(m, z)[1].zeta)) < 1e-3


def test_finite_volume_no_contours():
    m = ising(1.5)
    assert finite_volume_zeta(m, 1, 3, 1.0, Cutoffs(0, 0.0)) == theta(m, 1, 1.0)


# -- diagnostics ------------------------------------------------------------------------


def test_nondegeneracy_ising_circle():
    m = ising(1.5)
    rep = nondegeneracy_check(m, [cmath.exp(1j * t) for t in (0.4, 1.3)])
    assert not rep["vacuous"]
    assert rep["alpha_pairs"] == pytest.approx(1.0, rel=1e-6)
    assert rep["alpha_zeta"] == pytest.approx(1.0, rel=1e-2)


def test_nondegeneracy_vacuous_single_phase():
    m = ising(1.5)
    rep = nondegeneracy_check(m, [cmath.exp(2.0)])  # deep in the plus phase
    assert rep["vacuous"]


def test_nondegeneracy_triple_point_convexity():
    # bare log-theta derivatives are collinear for Blume-Capel; the dressed
    # ones pick up the order e^{-2dJ} convexity
    from pszeros.zeros import find_multiple_points

    m = blume_capel(1.5, 0.001)
    mp = find_multiple_points(m, [cmath.exp(1.1j)])
    assert mp
    rep = nondegeneracy_check(m, [mp[0].z])
    assert rep["hulls_checked"] == 1
    assert rep["alpha_hull"] < 1e-8
    assert rep["alpha_hull_zeta"] == pytest.approx(math.exp(-6), rel=0.2)


def test_nondegeneracy_across_the_branch_cut_of_log_zeta():
    # on the unit circle near arg z = pi/2, zeta_1 of Blume-Capel (1.5, 0.3)
    # crosses the negative real axis; a difference of log zeta there jumps
    # by 2 pi i, where the table's h' does not
    m = blume_capel(1.5, 0.3)

    def im_zeta1(t):
        return free_energy_table(m, cmath.exp(1j * t))[1].zeta.imag

    lo, hi = math.pi / 2 - 0.05, math.pi / 2 + 0.05
    assert (im_zeta1(lo) > 0) != (im_zeta1(hi) > 0)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if (im_zeta1(mid) > 0) == (im_zeta1(lo) > 0):
            lo = mid
        else:
            hi = mid
    z = cmath.exp(1j * lo)
    table = free_energy_table(m, z)
    assert table[1].zeta.real < 0
    h = {q: table[q].dlog for q in m.orbit_representatives()}
    assert None not in h.values()
    exact = min(metastable._hull_distance(h[q], [h[x] for x in h if x != q]) for q in h)
    rep = nondegeneracy_check(m, [z])
    assert rep["hulls_checked"] == 1
    assert rep["alpha_hull_zeta"] == pytest.approx(exact, rel=1e-9)
    assert rep["fd_fallbacks"] == 0


def test_hull_distance_of_four_or_more_points():
    square = [0, 2, 2 + 2j, 2j]
    hexagon = [cmath.exp(1j * math.pi * k / 3) for k in range(6)]
    for p in (1 + 0.5j, 1 + 1j, 0.3 + 1.7j):
        assert metastable._hull_distance(p, square) == 0.0
    assert metastable._hull_distance(0.1 - 0.2j, hexagon) == 0.0
    # outside: the distance to the nearest edge
    assert metastable._hull_distance(3 + 1j, square) == pytest.approx(1.0)
    assert metastable._hull_distance(-1 - 1j, square) == pytest.approx(math.sqrt(2))
    assert metastable._hull_distance(2.0, hexagon) == pytest.approx(1.0)
    mid = (hexagon[0] + hexagon[1]) / 2
    assert metastable._hull_distance(2 * mid, hexagon) == pytest.approx(abs(mid))
    # collinear points: no triangle, the hull is their segment
    assert metastable._hull_distance(5.0, [0, 1, 2, 3]) == pytest.approx(2.0)
    assert metastable._hull_distance(1.5, [0, 1, 2, 3]) == 0.0


def test_estimated_constants_flags_desk_scale():
    m = ising(1.5)
    c = estimated_constants(m, [1.0, cmath.exp(0.5j)])
    assert c.tau == pytest.approx(8 * 1.5 / 9, rel=1e-9)
    assert c.M == pytest.approx(1.0, rel=1e-4)
    assert not c.clears_threshold and "finite-certificate" in c.note


def test_cauchy_riemann_on_stable_set(rng):
    m = ising(1.3)
    h = 1e-5
    for t in (0.5, 1.7):
        z = cmath.exp(1j * t)

        def zp(w):
            return free_energy_table(m, w)[1].zeta

        fx = (zp(z + h) - zp(z - h)) / (2 * h)
        fy = (zp(z + 1j * h) - zp(z - 1j * h)) / (2 * h)
        dzbar = 0.5 * (fx + 1j * fy)
        assert abs(dzbar) / abs(zp(z)) < 1e-5


def test_f_lipschitz_bound():
    m = ising(1.3)
    zs = [1.0, cmath.exp(0.2j)]
    M = estimate_M(m, zs)
    M1 = 4 * M + 1
    z0 = cmath.exp(0.15j)
    f0 = free_energy_table(m, z0)[1].f
    for dz in (0.01, 0.02j, -0.015 + 0.01j):
        f1 = min(e.f for e in free_energy_table(m, z0 + dz).entries.values())
        f0min = min(e.f for e in free_energy_table(m, z0).entries.values())
        assert abs(f1 - f0min) <= M1 * abs(dz) * 1.05


def test_pressure_smoothness():
    # first and second finite differences of s_q stay below e^{-tau/2}
    m = ising(1.5)
    z = cmath.exp(0.4j)
    tau = estimate_tau(m, z)
    h = 1e-4

    def s(w):
        return free_energy_table(m, w)[1].s

    d1 = (s(z + h) - s(z - h)) / (2 * h)
    d2 = (s(z + h) - 2 * s(z) + s(z - h)) / h**2
    assert abs(d1) < math.exp(-tau / 2)
    assert abs(d2) < math.exp(-tau / 2)


def test_zeta_all_theta_vanish_no_nan():
    from conftest import free_field_model

    m = free_field_model(spins=(0, 1), site_zpower=lambda s: 1.0 + s)
    tab = free_energy_table(m, 0.0)
    assert all(e.a == math.inf for e in tab.entries.values())
    assert tab.stable == ()


# -- the gas record ------------------------------------------------------------------


@pytest.fixture
def cold_shapes():
    """An empty shape cache, as in a fresh process."""
    metastable._shape.cache_clear()


def test_gas_refuses_classes_with_interiors(monkeypatch):
    # the array weights carry no interior ratios; no class below the support
    # limit has interiors (test_contours), and a gas whose class geometry
    # record holds one refuses it
    m = ising(1.5)
    region = [(i, j) for i in range(5) for j in range(5)]
    holed = [y for y in contours_in_region(m, 1, region) if y.interiors]
    assert len(holed) == 1  # the flipped 3x3 block around its centre
    y, digit = holed[0], m.spins.index
    cells = tuple(sorted(y.support))
    row = (cells, tuple(digit(y.spins[x]) for x in cells),
           tuple((h, digit(lab)) for h, lab in y.interiors))
    monkeypatch.setattr(contours, "_class_geometry",
                        lambda d, R, n_spins, bg, cap: contours._ClassGeometry((row,), None, None))
    with pytest.raises(BudgetError, match="interiors"):
        free_energy_table(m, cmath.exp(0.3j), Cutoffs(24, 48.0))


def test_gas_record_built_once_per_phase(monkeypatch, cold_shapes):
    # whichever entry point asks first, a fresh model weighs each phase's
    # class geometry record with one energy kernel call, and its three
    # phases, which share one shape record, run one offset search
    model = blume_capel(1.5, 0.3)
    pair_calls, offset_calls = [], []
    energy_pairs = metastable.boundary_energy_pairs
    offset_search = metastable._Shape.offsets.func

    def counted_pairs(m, index, digits, bad):
        if m is model:
            pair_calls.append(digits)
        return energy_pairs(m, index, digits, bad)

    def counted_offsets(shape):
        offset_calls.append(shape)
        return offset_search(shape)

    monkeypatch.setattr(metastable, "boundary_energy_pairs", counted_pairs)
    monkeypatch.setattr(metastable._Shape.offsets, "func", counted_offsets)
    for z in (1.0, 0.9 + 0.3j, cmath.exp(2.0j)):
        free_energy_table(model, z)
    estimated_constants(model, [1.0, 0.9 + 0.3j])
    for m in model.orbit_representatives():
        finite_volume_zeta(model, m, 3, 1.1)
    records = [contours._class_geometry(2, 1, 3, bg, Cutoffs().size_cap).columns[0]
               for bg in range(3)]
    assert sorted(map(id, pair_calls)) == sorted(map(id, records))
    assert len(offset_calls) == 1


def test_metastable_and_contour_paths_do_not_import_scipy():
    # scipy.ndimage alone takes about 0.4 s to import; a fresh process
    # running a free-energy table and a region contour sum needs none of it
    code = (
        "import sys\n"
        "import pszeros as P\n"
        "P.free_energy_table(P.blume_capel(1.5, 0.3), 0.9 + 0.3j)\n"
        "P.contour_partition_function(P.blume_capel(1.4, 0.05),\n"
        "    [(i, j) for i in range(3) for j in range(4)], 1, 0.9 + 0.3j)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_gas_record_is_freed_with_its_model():
    model = ising(1.5)
    free_energy_table(model, 1.1)
    record = weakref.ref(model.gas[(Cutoffs().size_cap, model.orbit_representatives())])
    del model
    gc.collect()
    assert record() is None


def _shapes(model):
    return [metastable._record(model, Cutoffs().size_cap, (q,)).shape
            for q in model.orbit_representatives()]


def test_shape_record_shared_by_class_geometry(cold_shapes):
    # couplings and phase labels leave the class geometry alone: both
    # Blume-Capel models and the Potts q=3 model have one shape record
    three_state = _shapes(blume_capel(1.5, 0.3)) + _shapes(blume_capel(1.3, -0.1))
    three_state += _shapes(potts(3, 1.5))
    assert len(three_state) == 8
    assert all(s is three_state[0] for s in three_state)
    q4, two_state = _shapes(potts(4, 1.5)), _shapes(ising(1.5))
    assert q4[0] is q4[1] and two_state[0] is two_state[1]
    assert len({id(three_state[0]), id(q4[0]), id(two_state[0])}) == 3


def _outputs(model, zs=(1.0, 0.9 + 0.3j, cmath.exp(2.0j))):
    """Every table entry's numbers and finite_volume_zeta at L = 3, 4, as
    repr (which tells apart any two floats with different bits)."""
    out = []
    for z in zs:
        tab = free_energy_table(model, z)
        for m, e in sorted(tab.entries.items()):
            p = e.pressure
            out.append((m, e.theta, e.s, e.zeta, e.f, e.a, e.dlog, p.eta, p.error_bound,
                        p.derivative, p.n_clusters, tab.stable, tab.tau))
    out += [finite_volume_zeta(model, m, L, 0.95 + 0.2j)
            for m in model.orbit_representatives() for L in (3, 4)]
    return repr(out)


def test_shared_shape_record_gives_the_same_bits(cold_shapes):
    own = _outputs(blume_capel(1.5, 0.3))
    metastable._shape.cache_clear()
    other = potts(3, 1.5)
    _outputs(other)
    model = blume_capel(1.5, 0.3)
    assert _shapes(model)[0] is _shapes(other)[0]
    assert _outputs(model) == own


def test_model_that_built_a_shared_shape_is_freed(cold_shapes):
    model = blume_capel(1.75, -0.05)
    free_energy_table(model, 0.9 + 0.3j)
    finite_volume_zeta(model, 0, 3, 0.9 + 0.3j)
    shape = _shapes(model)[0]
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None
    assert _shapes(blume_capel(1.5, 0.3))[0] is shape


@pytest.fixture
def cold_geometry():
    """An empty class-geometry cache, as in a fresh process."""
    contours._class_geometry.cache_clear()


def test_sweep_models_build_seven_class_geometries(cold_geometry):
    # the twelve model-sweep models have 32 phases (two-, three- and
    # four-state, two or three each) and three counting geometries for c0;
    # they share seven records: (2 spins, digits 0 and 1), (3 spins, 0 to
    # 2) and (4 spins, 0 and 1)
    for model in sweep_models():
        free_energy_table(model, 0.9 + 0.3j)
        estimated_constants(model, [0.9 + 0.3j])
    info = contours._class_geometry.cache_info()
    assert (info.misses, info.currsize) == (7, 7)


def test_sweep_models_grow_three_class_geometries(cold_geometry, monkeypatch):
    # of those seven records only digit 0's of each alphabet is grown; the
    # other four are relabelled from it
    grown = []
    grow = contours._grown_class_geometry

    def counted(*key):
        grown.append(key)
        return grow(*key)

    monkeypatch.setattr(contours, "_grown_class_geometry", counted)
    for model in sweep_models():
        free_energy_table(model, 0.9 + 0.3j)
        estimated_constants(model, [0.9 + 0.3j])
    assert sorted(grown) == [(2, 1, n_spins, 0, Cutoffs().size_cap) for n_spins in (2, 3, 4)]


def test_model_that_built_a_class_geometry_is_freed(cold_geometry):
    model = blume_capel(1.75, -0.05)
    free_energy_table(model, 0.9 + 0.3j)
    record = contours._class_geometry(2, 1, 3, 0, Cutoffs().size_cap)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None
    other = potts(3, 1.5)
    free_energy_table(other, 0.9 + 0.3j)
    assert contours._class_geometry.cache_info().misses == 3
    assert contours._class_geometry(2, 1, 3, 0, Cutoffs().size_cap) is record


# -- the domain edge z = 0 -------------------------------------------------------


_POINT_ENTRIES = pytest.mark.parametrize("evaluate", [
    lambda model, z: free_energy_table(model, z),
    lambda model, z: polymer_pressure(model, 1, z),
    lambda model, z: finite_volume_zeta(model, -1, 3, z),
    lambda model, z: PhaseEvaluator(model).f(1, z),
], ids=["free_energy_table", "polymer_pressure", "finite_volume_zeta", "PhaseEvaluator.f"])


@pytest.mark.parametrize("model", [ising(1.5, field="plain"), blume_capel(1.5, 0.3, field="plain")],
                         ids=lambda m: m.name)
@_POINT_ENTRIES
@pytest.mark.parametrize("z", [0, 0.0, 0j])
def test_negative_power_at_z_zero_is_a_model_error(model, evaluate, z):
    # the plain field gives theta_- a negative power of z, which diverges
    # at z = 0; the refusal is typed and names z as it was passed
    with pytest.raises(ModelError, match=re.escape(f"z = {z!r}: the power")):
        evaluate(model, z)


@pytest.mark.parametrize("model", [ising(1.5), blume_capel(1.5, 0.3, field="plain")],
                         ids=lambda m: m.name)
@_POINT_ENTRIES
@pytest.mark.parametrize("z", [math.nan, math.inf, complex(math.inf, 0), complex(1, math.nan),
                               complex(-math.inf, 1)], ids=repr)
def test_nonfinite_z_is_a_model_error(model, evaluate, z):
    with pytest.raises(ModelError, match=re.escape(f"z = {z!r}: not a finite point")):
        evaluate(model, z)


@pytest.mark.parametrize("model, m, L", [
    (ising(1.5), 1, 3), (ising(1.5), 1, 4), (ising(1.5), 1, 5), (blume_capel(1.5, 0.3), 0, 4),
], ids=lambda x: getattr(x, "name", x))
def test_phase_with_phi_zero_has_theta_as_finite_volume_zeta(model, m, L):
    # at z = 1e-300 phase m is far from stable, so phi_m = 0 and its gas is
    # empty, while the powers z^{n_Y} of its weights overflow
    z = 1e-300
    assert finite_volume_zeta(model, m, L, z) == theta(model, m, z)
    assert theta(model, m, z) == (2.008553692318767e-299 if m == 1 else 1e-300)


def test_weight_that_is_not_finite_is_a_convergence_error(monkeypatch):
    # with phi_q = 1 and no cap, as no consistent run has there, the
    # overflowing weights reach the guard
    model = ising(1.5)
    monkeypatch.setattr(metastable, "_caps", lambda model, record, z, tau: ([1.0, 1.0], [(), ()]))
    with pytest.raises(ConvergenceError, match=re.escape("z = 1e-300: a truncated contour weight")):
        finite_volume_zeta(model, 1, 4, 1e-300)
