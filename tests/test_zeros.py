import cmath
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pszeros.models import blume_capel, ising, potts
from pszeros.torus_exact import ExactZeroSet, exact_zeros, partition_polynomial
from pszeros.zeros import (
    CurveError,
    PhaseEvaluator,
    PredictedZero,
    ZeroSet,
    _sort_unique,
    density_of_zeros,
    find_multiple_points,
    ising_zero_angle,
    match_predicted_exact,
    solve_zero_equations,
    splitting_residual,
    trace_coexistence,
)


@pytest.fixture(scope="module")
def ising_curve():
    model = ising(1.5)
    ev = PhaseEvaluator(model)
    curve = trace_coexistence(model, 1, -1, seed=1.04 + 0.06j, step=0.06,
                              evaluator=ev)
    return model, ev, curve


def test_trace_ising_circle(ising_curve):
    model, ev, curve = ising_curve
    assert curve.closed and curve.end_reason == "closed"
    assert max(abs(abs(z) - 1) for z in curve.points) < 1e-8
    assert max(curve.residuals) < 1e-9
    assert abs(abs(curve.winding) - 1) < 1e-6
    # phase difference is continuous: no 2 pi jumps after unwrapping
    steps = [abs(b - a) for a, b in zip(curve.delta, curve.delta[1:])]
    assert max(steps) < math.pi / 4 + 1e-12


def test_trace_rejects_bad_seed():
    model = ising(1.5)
    with pytest.raises(CurveError, match="residual"):
        trace_coexistence(model, 1, -1, seed=3.5 + 0.2j, step=0.05)


def test_trace_blume_capel_curves_off_circle():
    # lambda well below the lower critical value: the two curves stay apart
    # from the unit circle (and from each other)
    model = blume_capel(1.5, -0.05)
    ev = PhaseEvaluator(model)
    up = trace_coexistence(model, 1, 0, seed=cmath.exp(0.05), step=0.05,
                           max_points=60, evaluator=ev)
    dn = trace_coexistence(model, 0, -1, seed=cmath.exp(-0.05), step=0.05,
                           max_points=60, evaluator=ev)
    assert min(abs(abs(z) - 1) for z in up.points) > 0.02
    assert min(abs(abs(z) - 1) for z in dn.points) > 0.02
    # the two curves are mirror images under z -> 1/z within truncation error
    mid_up = sorted(abs(z) for z in up.points)[len(up.points) // 2]
    mid_dn = sorted(abs(z) for z in dn.points)[len(dn.points) // 2]
    assert mid_up * mid_dn == pytest.approx(1.0, abs=1e-3)


def test_solve_zero_equations_count_and_residuals(ising_curve):
    model, ev, curve = ising_curve
    zs = solve_zero_equations(model, curve, 3, evaluator=ev)
    assert len(zs.zeros) == 9
    assert zs.windows_flagged == ()
    for w in zs.zeros:
        assert w.req_residual < 1e-9
        assert w.imq_residual < 1e-9
    # winding count matches the number of zeros
    assert round(abs(curve.winding) * 9) == 9
    # closed under conjugation for real couplings
    pos = zs.positions()
    for z in pos:
        assert min(abs(z.conjugate() - w) for w in pos) < 1e-9


def test_predicted_zeros_land_on_exact(ising_curve):
    model, ev, curve = ising_curve
    zs = solve_zero_equations(model, curve, 3, evaluator=ev)
    rep = match_predicted_exact(zs, exact_zeros(partition_polynomial(model, 3)))
    assert not rep.cardinality_mismatch
    assert rep.max_distance < 1e-6
    assert rep.greedy_optimal


def test_zero_angle_formula_values():
    # middle index of an odd L^d grid sits exactly at pi
    assert ising_zero_angle(1.5, 2, 3, 4) == pytest.approx(math.pi)
    t0 = math.pi / 9
    assert ising_zero_angle(1.5, 2, 3, 0) == pytest.approx(
        t0 + 2 * math.exp(-6.0) * math.sin(t0)
    )
    with pytest.raises(ValueError):
        ising_zero_angle(1.0, 2, 3, 9)


def test_zero_angle_spacing_density():
    # spacing ~ (2 pi / L^d)(1 + 2 e^{-2dJ} cos(...)) via finite differences
    J, d, L = 1.25, 2, 3
    Ld = L**d
    for k in range(Ld - 1):
        spacing = ising_zero_angle(J, d, L, k + 1) - ising_zero_angle(J, d, L, k)
        mid = 2 * (k + 1) * math.pi / Ld
        approx = (2 * math.pi / Ld) * (1 + 2 * math.exp(-2 * d * J) * math.cos(mid))
        assert spacing == pytest.approx(approx, rel=2e-2)


def test_zero_angle_matches_exact_argument_trend():
    worst = {}
    for J in (1.0, 1.25, 1.5):
        zs = exact_zeros(partition_polynomial(ising(J), 3))
        args = sorted(cmath.phase(r) % (2 * math.pi) for r in zs.roots)
        ref = sorted(ising_zero_angle(J, 2, 3, k) for k in range(9))
        worst[J] = max(abs(a - b) for a, b in zip(args, ref))
    assert worst[1.0] > worst[1.25] > worst[1.5]
    assert worst[1.5] < 3 * math.exp(-6)


def test_density_profile(ising_curve):
    model, ev, curve = ising_curve
    dens = density_of_zeros(curve, 3)
    assert dens.total == pytest.approx(9.0, abs=0.01)
    # at strong coupling the density approaches uniform L^d / 2 pi
    strong = ising(3.0)
    cs = trace_coexistence(strong, 1, -1, seed=1.02 + 0.03j, step=0.08)
    ds = density_of_zeros(cs, 3)
    interior = ds.density[2:-2]
    uniform = 9 / (2 * math.pi)
    assert all(abs(v - uniform) / uniform < 0.01 for v in interior)
    # at moderate coupling the maximum sits near z = -1
    dens_at = dict(zip(curve.points[:-1], dens.density[:-1]))
    zmax = max(dens_at, key=dens_at.get)
    assert abs(zmax - (-1)) < 0.35


def test_match_identity_is_zero_distance(ising_curve):
    model, ev, curve = ising_curve
    zs = solve_zero_equations(model, curve, 3, evaluator=ev)
    from pszeros.torus_exact import ExactZeroSet

    exact = ExactZeroSet(tuple(zs.positions()), 0.0, 9)
    rep = match_predicted_exact(zs, exact)
    assert rep.max_distance == 0.0 and rep.mean_distance == 0.0


def test_match_distance_decreases_in_coupling():
    out = {}
    for J in (1.0, 1.25, 1.5):
        model = ising(J)
        ev = PhaseEvaluator(model)
        curve = trace_coexistence(model, 1, -1, seed=1.04 + 0.06j, step=0.08,
                                  evaluator=ev)
        zs = solve_zero_equations(model, curve, 3, evaluator=ev)
        rep = match_predicted_exact(zs, exact_zeros(partition_polynomial(model, 3)))
        out[J] = rep.max_distance
    assert out[1.0] > out[1.25] > out[1.5]


def test_match_cardinality_mismatch_reported(ising_curve):
    model, ev, curve = ising_curve
    zs = solve_zero_equations(model, curve, 3, evaluator=ev)
    from pszeros.torus_exact import ExactZeroSet

    exact = ExactZeroSet(tuple(zs.positions()[:5]), 0.0, 5)
    rep = match_predicted_exact(zs, exact)
    assert rep.cardinality_mismatch
    assert rep.n_predicted == 9 and rep.n_exact == 5


def _zero_set(zs):
    return ZeroSet((1, -1), 3, tuple(PredictedZero(z, k, 0.0, 0.0) for k, z in enumerate(zs)))


def test_match_reports_the_assignment_where_greedy_is_beaten():
    # greedy takes the closest pair (1, 0.9) first and is left with (0, 2):
    # 0.1 + 2.0 against the assignment's 0.9 + 1.0
    rep = match_predicted_exact(_zero_set([0.0, 1.0]), ExactZeroSet((0.9, 2.0), 0.0, 2))
    assert not rep.greedy_optimal
    assert rep.pairs == ((0, 0, 0.9), (1, 1, 1.0))
    assert rep.max_distance == 1.0 and rep.mean_distance == pytest.approx(0.95)
    assert [w.nearest_exact for w in rep.zeros.zeros] == [0.9, 2.0]


def test_match_equals_the_assignment_rule():
    # the pairing, with or without the assignment solver, is the one the
    # greedy-then-verify rule gives: greedy unless the assignment beats it
    from scipy.optimize import linear_sum_assignment

    rng = random.Random(5)
    shortcut = 0
    for _ in range(300):
        pred = [complex(rng.random(), rng.random()) for _ in range(rng.randint(1, 6))]
        exa = [complex(rng.random(), rng.random()) for _ in range(rng.randint(1, 6))]
        rep = match_predicted_exact(_zero_set(pred), ExactZeroSet(tuple(exa), 0.0, len(exa)))
        cand = sorted((abs(p - e), i, j) for i, p in enumerate(pred) for j, e in enumerate(exa))
        used_p, used_e, greedy = set(), set(), []
        for dist, i, j in cand:
            if i not in used_p and j not in used_e:
                used_p.add(i)
                used_e.add(j)
                greedy.append((i, j, dist))
        cost = np.array([[abs(p - e) for e in exa] for p in pred])
        rows, cols = linear_sum_assignment(cost)
        opt = [(r, c, float(cost[r, c])) for r, c in zip(rows, cols)]
        ok = sum(d for *_, d in greedy) <= sum(d for *_, d in opt) + 1e-12
        assert rep.greedy_optimal == ok
        assert rep.pairs == tuple(greedy if ok else opt)
        if len(pred) <= len(exa):
            shortcut += all(d == min(abs(pred[i] - e) for e in exa) for i, _, d in greedy)
        else:
            shortcut += all(d == min(abs(p - exa[j]) for p in pred) for _, j, d in greedy)
    assert 0 < shortcut < 300  # both branches are taken


def test_zero_prediction_does_not_import_scipy():
    # scipy.optimize takes about 0.6 s and 47 MiB to import; a fresh process
    # tracing, solving and matching Ising zeros needs none of it
    code = (
        "import sys\n"
        "import pszeros as P\n"
        "model = P.ising(1.5)\n"
        "ev = P.PhaseEvaluator(model)\n"
        "curve = P.trace_coexistence(model, 1, -1, 1.04 + 0.06j, step=0.06, evaluator=ev)\n"
        "zs = P.solve_zero_equations(model, curve, 3, evaluator=ev)\n"
        "rep = P.match_predicted_exact(zs, P.exact_zeros(P.partition_polynomial(model, 3)))\n"
        "assert rep.n_predicted == rep.n_exact == 9 and rep.greedy_optimal\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_splitting_residual_decreases(ising_curve):
    model, ev, curve = ising_curve
    zs = [cmath.exp(0.5j), cmath.exp(1.0j), cmath.exp(2.1j)]
    r3 = max(splitting_residual(model, 3, z, phases=(1, -1)).ratio for z in zs)
    r4 = max(splitting_residual(model, 4, z, phases=(1, -1)).ratio for z in zs)
    assert r4 < r3


def test_splitting_residual_single_phase():
    model = ising(1.5)
    z = cmath.exp(1.2)  # deep in the plus phase
    rep = splitting_residual(model, 3, z, phases=(1,))
    assert rep.ratio < 1e-4
    assert not rep.warnings
    # dropping the stable phase instead must be flagged
    rep2 = splitting_residual(model, 3, z, phases=(-1,))
    assert rep2.warnings


def test_splitting_residual_orbit_factor_matters():
    model = potts(3, 2.5)
    z = cmath.exp(0.02)
    with_q = splitting_residual(model, 3, z, phases=(1, 2))
    without_q = splitting_residual(model, 3, z, phases=(1, 2),
                                   use_orbit_factors=False)
    assert abs(with_q.ratio - without_q.ratio) > 1e-6
    assert with_q.ratio < without_q.ratio


def test_multiple_points_blume_capel():
    model = blume_capel(1.5, 0.001)
    seeds = [cmath.exp(1j * t) for t in (0.9, 1.2, -0.9, -1.2)]
    mp = find_multiple_points(model, seeds)
    assert len(mp) == 2
    z1, z2 = mp[0].z, mp[1].z
    assert abs(z1 - z2.conjugate()) < 1e-8
    assert abs(abs(z1) - 1) < 1e-8  # on the unit circle, its own inversion image
    assert mp[0].phases == (-1, 0, 1)


def test_multiple_points_ising_none():
    model = ising(1.5)
    assert find_multiple_points(model, [cmath.exp(0.5j), 1.0]) == []


def test_trace_stops_at_multiple_point():
    # seed on the shared two-phase arc (beyond the bifurcation angle) and
    # trace the +/- circle: the walk must stop where the zero phase turns
    # stable, i.e. at one of the two multiple points
    model = blume_capel(1.5, 0.001)
    curve = trace_coexistence(model, 1, -1, seed=cmath.exp(2.5j), step=0.05,
                              max_points=300, multiple_tol=1e-7)
    assert curve.end_reason == "multiple point"
    mp = find_multiple_points(model, [cmath.exp(1.1j), cmath.exp(-1.1j)])
    assert mp
    assert min(abs(q.z - curve.points[-1]) for q in mp) < 0.1


def test_zero_set_csv_rows(ising_curve):
    model, ev, curve = ising_curve
    zs = solve_zero_equations(model, curve, 3, evaluator=ev)
    rep = match_predicted_exact(zs, exact_zeros(partition_polynomial(model, 3)))
    rows = rep.zeros.to_csv_rows()
    assert len(rows) == 10
    assert rows[0][0] == "k"


def test_blume_capel_full_circle_prediction():
    # theta_+/theta_- = z^2: the phase difference winds twice, so the pair
    # equation predicts all 18 torus zeros; pushing the third phase away
    # (larger lambda) sharpens the two-phase prediction
    dist = {}
    for lam in (0.02, 0.3):
        model = blume_capel(1.5, lam)
        ev = PhaseEvaluator(model)
        curve = trace_coexistence(model, 1, -1, seed=-1.0 + 0.05j, step=0.06,
                                  max_points=400, evaluator=ev)
        assert curve.closed and abs(abs(curve.winding) - 2) < 1e-6
        zs = solve_zero_equations(model, curve, 3, evaluator=ev)
        rep = match_predicted_exact(
            zs, exact_zeros(partition_polynomial(model, 3))
        )
        assert rep.n_predicted == 18 and rep.n_exact == 18
        dist[lam] = rep.max_distance
    assert dist[0.3] < dist[0.02]
    assert dist[0.3] < 5e-3


def test_match_restricted_to_shared_arc():
    # with three nearly degenerate phases only the traced +/- arc is a fair
    # comparison window; the restriction machinery filters both sides, and
    # the residual offset reflects the nearby zero phase (a_0 L^d << 1)
    model = blume_capel(1.5, 0.001)
    ev = PhaseEvaluator(model)
    curve = trace_coexistence(model, 1, -1, seed=cmath.exp(2.5j), step=0.05,
                              max_points=400, multiple_tol=1e-7, evaluator=ev)
    assert curve.end_reason == "multiple point"
    zs = solve_zero_equations(model, curve, 3, evaluator=ev)
    args = sorted(cmath.phase(z) for z in curve.points)
    window = (args[0] - 0.17, args[-1] + 0.17)

    def on_arc(z):
        return abs(abs(z) - 1) < 0.05 and window[0] <= cmath.phase(z) <= window[1]

    rep = match_predicted_exact(
        zs, exact_zeros(partition_polynomial(model, 3)), restrict=on_arc
    )
    assert rep.n_predicted == len(zs.zeros)
    assert rep.n_exact >= rep.n_predicted
    assert rep.max_distance < 0.1


@pytest.mark.parametrize("eps", [1e-17, -1e-17])
def test_negative_axis_zero_sorts_last(eps):
    # a zero on the negative real axis sorts last (arg +pi) in both kinds of
    # zero set, whatever the sign of a rounding-level imaginary part
    others = [0.6 + 0.8j, 0.6 - 0.8j, -0.8 + 0.6j, -0.8 - 0.6j, 1.0]
    axis = complex(-1.0, eps)
    exact = ExactZeroSet(tuple(others[:2] + [axis] + others[2:]), 0.0, 6)
    rows = exact.to_csv_rows()
    assert len(rows) == 7
    assert (float(rows[-1][0]), float(rows[-1][1])) == (-1.0, eps)
    predicted = _sort_unique(PredictedZero(z, 0, 0.0, 0.0) for z in [axis] + others)
    assert [w.z for w in predicted] == [-0.8 - 0.6j, 0.6 - 0.8j, 1.0, 0.6 + 0.8j, -0.8 + 0.6j, axis]


def test_negative_axis_double_count_is_dropped():
    # the closed-curve double count of a zero at -1 is adjacent in phase order
    # even when its two copies fall on opposite sides of the branch cut
    predicted = _sort_unique(
        PredictedZero(z, 0, 0.0, 0.0) for z in (-1 + 1e-17j, 0.6 + 0.8j, -1 - 1e-17j)
    )
    assert [w.z for w in predicted] == [0.6 + 0.8j, -1 + 1e-17j]
