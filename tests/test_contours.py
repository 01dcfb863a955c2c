import cmath
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import all_configs, random_z, sparse_torus_config
import pszeros.contours
from pszeros.contours import (
    ContourSumEngine,
    MatchingCollection,
    ZdContour,
    _class_geometry,
    _extract_block,
    _padded,
    _region_rows,
    _rows,
    _with_pairs,
    _zd_contours,
    contour_classes,
    contour_from_json,
    contour_graph,
    contour_partition_function,
    contour_to_json,
    contour_weight,
    contours_in_region,
    exterior_interior,
    extract,
    is_matching,
    nesting_order,
    reconstruct,
    torus_contour_identity_check,
)
from pszeros.errors import BudgetError
from pszeros.lattice import chebyshev_ball, torus
from pszeros.metastable import truncated_partition
from pszeros.models import (
    ModelError,
    TorusConfiguration,
    blume_capel,
    boundary_energy_pairs,
    box_placements,
    excitation_energy_pair,
    ground_state_energy,
    hamiltonian_torus,
    ising,
    pair_weight,
    perturbed_ising,
    potts,
    r_boundary,
    theta,
)


def flip_config(L, sites, background=1, value=-1):
    spins = [background] * (L * L)
    for s in sites:
        spins[s] = value
    return TorusConfiguration(L, 2, tuple(spins))


# -- contour graph ---------------------------------------------------------------


def test_contour_graph_single_flip():
    geom, small, large = contour_graph(flip_config(7, [24]), 1)
    assert large == [] and len(small) == 1
    comp = small[0]
    assert len(comp) == 9
    # all pairs share a non-constant box: the box around the flip holds all 9
    assert comp == frozenset(geom.boxes[24])


def test_contour_graph_two_far_flips():
    # Chebyshev distance 4 on T_9: no shared box, two components
    geom, small, large = contour_graph(flip_config(9, [0, 4]), 1)
    assert len(small) == 2 and not large


def test_contour_graph_constant():
    _, small, large = contour_graph(flip_config(5, []), 1)
    assert small == [] and large == []


# -- exterior / interior -----------------------------------------------------------


def test_exterior_interior_full_block():
    geom = torus(7, 2, 1)
    block = frozenset(geom.index((r, c)) for r in range(3) for c in range(3))
    ext, inte = exterior_interior(geom, block)
    assert inte == frozenset()
    assert len(ext) == 40


def test_exterior_interior_ring():
    geom = torus(9, 2, 1)
    ring = frozenset(
        geom.index((r, c)) for r in range(3) for c in range(3) if (r, c) != (1, 1)
    )
    ext, inte = exterior_interior(geom, ring)
    assert inte == frozenset([geom.index((1, 1))])
    assert len(ext) == 81 - 9


def test_exterior_interior_network_support():
    geom = torus(5, 2, 1)
    column = frozenset(geom.index((r, 0)) for r in range(5))
    ext, inte = exterior_interior(geom, column)
    assert ext == frozenset()
    assert len(inte) == 20


# -- extraction and the bijection ----------------------------------------------------


def test_extract_constant_vacuum():
    coll = extract(flip_config(5, [], background=-1), 1)
    assert coll.contours == () and coll.network is None
    assert coll.vacuum_label == -1


def test_extract_single_flip_contour():
    coll = extract(flip_config(7, [24]), 1)
    assert coll.network is None and len(coll.contours) == 1
    y = coll.contours[0]
    assert len(y.support) == 9
    assert y.ext_label == 1 and y.interiors == ()
    assert y.spins[24] == -1


def test_extract_wrapping_network():
    # a full column on T_5 wraps: it must come out as the network
    coll = extract(flip_config(5, [0, 5, 10, 15, 20]), 1)
    assert coll.contours == () and coll.network is not None


def _block_digits(model, configs):
    digit = {s: k for k, s in enumerate(model.spins)}
    return np.array([[digit[s] for s in cfg.spins] for cfg in configs], dtype=np.int8).T


def test_extract_block_matches_extract():
    from conftest import free_field_model

    for model, L in ((blume_capel(1.3, 0.1), 3), (ising(1.0), 3), (ising(1.0), 4),
                     (potts(3, 1.5), 3), (free_field_model(), 3)):
        geom = torus(L, model.dimension, model.range)
        digit = {s: k for k, s in enumerate(model.spins)}
        configs = list(all_configs(model, L))
        want_bad, want_labels = [], []
        for cfg in configs:
            coll = extract(cfg, model.range)
            assert not coll.contours
            bad, labels = [False] * geom.n_sites, [-1] * geom.n_sites
            if coll.network is None:
                labels = [digit[coll.vacuum_label]] * geom.n_sites
            else:
                # the network's digits are the configuration's, and its
                # labels are those that region_sizes counts
                assert coll.network.full_config().spins == cfg.spins
                for x in coll.network.support:
                    bad[x] = True
                for comp, lab in coll.network.labels:
                    for x in comp:
                        labels[x] = digit[lab]
            want_bad.append(bad)
            want_labels.append(labels)
        for start in range(0, len(configs), 4096):
            rows = slice(start, start + 4096)
            D = _block_digits(model, configs[rows])
            bad, labels, contour = _extract_block(geom, D)
            assert not contour.any()
            assert (bad.T == want_bad[rows]).all()
            assert (labels.T == want_labels[rows]).all()
            assert (np.where(bad, D, labels) == D).all()
    # sparse configurations on a torus that holds contours: the flag is
    # set exactly where extraction finds one
    bc = blume_capel(1.3, 0.1)
    sparse = random.Random(23)
    configs = [sparse_torus_config(sparse, bc, 7, sparse.randint(1, 4)) for _ in range(40)]
    _, _, contour = _extract_block(torus(7, 2, 1), _block_digits(bc, configs))
    flags = [bool(extract(cfg, bc.range).contours) for cfg in configs]
    assert contour.tolist() == flags and any(flags) and not all(flags)
    # a single flip is a contour, so the identity check's guard can fire;
    # two flips whose boxes touch at a corner are one network
    configs = [flip_config(7, [24]), flip_config(7, [0, 24])]
    _, _, contour = _extract_block(torus(7, 2, 1), _block_digits(ising(1.0), configs))
    assert contour.tolist() == [bool(extract(cfg, 1).contours) for cfg in configs] == [True, False]


def test_roundtrip_exhaustive_t3_ising():
    m = ising(1.0)
    count = 0
    for cfg in all_configs(m, 3):
        coll = extract(cfg, 1)
        assert reconstruct(coll).spins == cfg.spins
        count += 1
    assert count == 512


def test_roundtrip_random_bc_t5(rng):
    m = blume_capel(1.0, 0.1)
    for _ in range(150):
        cfg = sparse_torus_config(rng, m, 5, rng.randint(0, 6))
        coll = extract(cfg, 1)
        assert reconstruct(coll).spins == cfg.spins
        ok, diag = is_matching(coll)
        assert ok, diag


def test_reconstruct_two_mutually_external(rng):
    cfg = flip_config(9, [0, 4])
    coll = extract(cfg, 1)
    assert len(coll.contours) == 2
    assert reconstruct(coll).spins == cfg.spins


def test_is_matching_label_clash():
    # two one-flip contours whose exterior labels disagree cannot match
    cfg_plus = flip_config(9, [20])
    cfg_minus = flip_config(9, [60], background=-1, value=1)
    y1 = extract(cfg_plus, 1).contours[0]
    y2 = extract(cfg_minus, 1).contours[0]
    from pszeros.contours import MatchingCollection

    coll = MatchingCollection(y1.geom, (y1, y2), None, None)
    ok, diag = is_matching(coll)
    assert not ok and diag
    with pytest.raises(ValueError, match="label mismatch"):
        reconstruct(coll)


def test_is_matching_on_extracted(rng):
    m = blume_capel(1.0, 0.0)
    for _ in range(40):
        coll = extract(sparse_torus_config(rng, m, 5, rng.randint(0, 5)), 1)
        ok, diag = is_matching(coll)
        assert ok, diag


# -- nesting ----------------------------------------------------------------------


def test_nesting_two_external():
    coll = extract(flip_config(9, [0, 4]), 1)
    forest = nesting_order(coll)
    # both contours are children of the (empty) root
    assert forest.parent == (-1, 0, 0)


def nested_ring_config():
    """A ring of flips at Chebyshev radius 4 around a separate center flip
    on the 23x23 torus: two contours, one inside the other."""
    L = 23
    geom = torus(L, 2, 1)
    c = 11
    ring = [
        geom.index((c + dr, c + dc))
        for dr in range(-4, 5)
        for dc in range(-4, 5)
        if max(abs(dr), abs(dc)) == 4
    ]
    return flip_config(L, ring + [geom.index((c, c))])


def test_nesting_chain_depth_two():
    cfg = nested_ring_config()
    coll = extract(cfg, 1)
    assert len(coll.contours) == 2 and coll.network is None
    forest = nesting_order(coll)
    depths = sorted(forest.depth(i) for i in range(len(forest.elements)))
    assert depths == [0, 1, 2]
    assert reconstruct(coll).spins == cfg.spins
    inner = min(coll.contours, key=lambda y: len(y.support))
    outer = max(coll.contours, key=lambda y: len(y.support))
    assert len(inner.support) == 9
    assert dict(outer.interiors)[
        next(comp for comp, _ in outer.interiors)
    ] == 1  # interior label stays the background


def test_contour_exterior_matches_exterior_interior():
    # extract keeps the complement component with more than half of the
    # sites as the exterior; the interiors are the other components
    bc = blume_capel(1.5, 0.3)
    sparse = random.Random(29)
    configs = [sparse_torus_config(sparse, bc, 7, sparse.randint(1, 4)) for _ in range(40)]
    n = 0
    for cfg in configs + [nested_ring_config()]:
        for y in extract(cfg, 1).contours:
            interior = frozenset().union(*(comp for comp, _ in y.interiors))
            assert (y.ext_component, interior) == exterior_interior(y.geom, y.support)
            n += 1
    assert n > 2  # not only the two contours of the ring


def test_nesting_empty_boundary_root():
    coll = extract(flip_config(7, []), 1)
    forest = nesting_order(coll)
    assert forest.elements == (frozenset(),)
    assert forest.parent == (-1,)


# -- weights ------------------------------------------------------------------------


def test_contour_weight_matches_energy_decomposition(rng):
    m = ising(1.3)
    cfg = flip_config(7, [24])
    coll = extract(cfg, 1)
    y = coll.contours[0]
    z = random_z(rng)
    rho = contour_weight(m, y, z)
    bh = hamiltonian_torus(m, cfg, z)
    e_plus = ground_state_energy(m, 1, z)
    assert rho == pytest.approx(cmath.exp(-(bh - 40 * e_plus)), rel=1e-11)


_RANGE_TWO = {((0, 0), (0, 2)): 0.1, ((0, 0), (0, 1)): 1.0}


def test_contour_support_is_its_r_boundary():
    # contours, networks and Z^d contours hand their support to the energy
    # kernel as the R-boundary of their standardized configuration; the
    # sweep that builds Z^d contours sets their energy pairs, on its own
    # padded box and in blocks of rows
    def check(model, obj, config):
        assert r_boundary(config, model.range) == obj.support
        assert obj.energy_pair(model) == excitation_energy_pair(model, config)

    for model, size_cap in ((ising(1.5), 12), (blume_capel(1.5, 0.3), 12),
                            (potts(3, 1.5), 12), (potts(4, 1.5), 12),
                            (perturbed_ising(_RANGE_TWO), 25)):
        for q in model.spins:
            for y in contour_classes(model, q, size_cap):
                assert y._pair is not None
                check(model, y, y.config())
    region_model = blume_capel(1.4, 0.05)
    for shape, phases in (((4, 4), region_model.spins), ((4, 5), (0, 1))):
        region = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
        for q in phases:
            for y in contours_in_region(region_model, q, region):
                assert y._pair is not None
                check(region_model, y, y.config())
    bc = blume_capel(1.5, 0.3)
    kinds = set()
    sparse = random.Random(17)
    configs = [sparse_torus_config(sparse, bc, 7, sparse.randint(1, 4)) for _ in range(40)]
    for cfg in itertools.chain(all_configs(bc, 3), configs):
        for obj in extract(cfg, bc.range).objects():
            check(bc, obj, obj.full_config())
            kinds.add(type(obj).__name__)
    assert kinds == {"TorusContour", "TorusNetwork"}


def _one_row_pair(model, y, pad):
    """The energy pair of contour y, evaluated on bbox(support) padded by pad."""
    pts = np.array(sorted(y.support))
    lo = pts.min(axis=0) - pad
    sides = tuple((pts.max(axis=0) + pad - lo + 1).tolist())
    digits = np.full((math.prod(sides), 1), model.spins.index(y.q), dtype=np.int8)
    bad = np.zeros((math.prod(sides), 1), dtype=bool)
    cfg = y.config()
    if cfg.deviations:
        coords, spins = zip(*cfg.deviations)
        flat = np.ravel_multi_index(tuple((np.array(coords) - lo).T), sides)
        digits[flat, 0] = [model.spins.index(s) for s in spins]
    bad[np.ravel_multi_index(tuple((pts - lo).T), sides), 0] = True
    return boundary_energy_pairs(model, box_placements(model, sides), digits, bad)


def test_boundary_energy_pairs_do_not_depend_on_the_box():
    # placements of a larger box that miss the boundary add exact zeros
    n = 0
    for model, size_cap in ((blume_capel(1.5, 0.3), 12), (potts(3, 1.5), 12),
                            (perturbed_ising(_RANGE_TWO), 25)):
        R = model.range
        for q in model.spins:
            for y in contour_classes(model, q, size_cap):
                c, p = _one_row_pair(model, y, R)
                c2, p2 = _one_row_pair(model, y, R + 2)
                assert (c.tobytes(), p.tobytes()) == (c2.tobytes(), p2.tobytes())
                assert (complex(c[0]), float(p[0])) == excitation_energy_pair(model, y.config())
                n += 1
    assert n > 20


def test_translate_keeps_the_energy_pair():
    model = blume_capel(1.5, 0.3)
    for y in contour_classes(model, 1, 12):
        moved = y.translate((3, -2))
        assert moved._pair is not None
        assert moved.energy_pair(model) == y.energy_pair(model)
        assert moved.energy_pair(model) == excitation_energy_pair(model, moved.config())


def test_contour_weight_orbit_symmetry(rng):
    # Potts spins 2,3 are interchangeable: permuted contours weigh the same
    m = potts(3, 2.0)
    y2 = extract(flip_config(7, [24], background=1, value=2), 1).contours[0]
    y3 = extract(flip_config(7, [24], background=1, value=3), 1).contours[0]
    z = random_z(rng)
    assert contour_weight(m, y2, z) == pytest.approx(
        contour_weight(m, y3, z), rel=1e-12
    )


def test_contour_weight_flip_relation(rng):
    # the spin flip maps the normalized weight K(z) = rho theta^{-|Y|} to K(1/z)
    m = ising(1.0)
    y_plus = extract(flip_config(7, [24]), 1).contours[0]
    y_minus = extract(flip_config(7, [24], background=-1, value=1), 1).contours[0]
    z = random_z(rng)
    k_plus = contour_weight(m, y_plus, 1 / z) * theta(m, 1, 1 / z) ** -9
    k_minus = contour_weight(m, y_minus, z) * theta(m, -1, z) ** -9
    assert k_minus == pytest.approx(k_plus, rel=1e-11)


def test_energy_additivity_random(rng):
    # betaH = sum_m e_m |Lambda_m| + sum E(Y) + E(N), exactly
    m = blume_capel(1.2, 0.1)
    for _ in range(25):
        cfg = sparse_torus_config(rng, m, 5, rng.randint(1, 8))
        z = random_z(rng)
        coll = extract(cfg, 1)
        total = 0j
        for lab, cnt in coll.region_sizes().items():
            total += cnt * ground_state_energy(m, lab, z)
        for obj in coll.objects():
            c, p = obj.energy_pair(m)
            total += c - p * cmath.log(z)
        bh = hamiltonian_torus(m, cfg, z)
        assert total == pytest.approx(bh, rel=1e-10, abs=1e-10)


def test_region_sizes_label_each_region_by_its_own_contour():
    # a flipped spin, then a 3x3 droplet whose centre (7, 7) is a -1 region
    # inside the second contour; tori with L <= 4R+2 hold no contours
    L = 12
    droplet = [r * L + c for r in range(6, 9) for c in range(6, 9)]
    cfg = flip_config(L, [1 * L + 1] + droplet)
    coll = extract(cfg, 1)
    assert [y.size for y in coll.contours] == [9, 24]
    assert coll.region_sizes() == {1: 110, -1: 1}
    m = ising(1.0)
    z = 0.9 + 0.3j
    total = sum(cnt * ground_state_energy(m, lab, z)
                for lab, cnt in coll.region_sizes().items())
    for y in coll.contours:
        c, p = y.energy_pair(m)
        total += c - p * cmath.log(z)
    assert total == pytest.approx(hamiltonian_torus(m, cfg, z), rel=1e-12)


def test_region_sizes_of_an_empty_collection_need_a_vacuum_label():
    # as reconstruct does: without contours, a network or a vacuum label the
    # collection names no configuration
    geom = torus(3, 2, 1)
    empty = MatchingCollection(geom, (), None, None)
    for f in (reconstruct, MatchingCollection.region_sizes):
        with pytest.raises(ValueError) as err:
            f(empty)
        assert str(err.value) == "label mismatch: empty collection needs a vacuum label"
    assert MatchingCollection(geom, (), None, -1).region_sizes() == {-1: 9}


# -- contour partition functions -------------------------------------------------------


def test_zq_single_site():
    m = blume_capel(1.5, 0.1)
    z = 0.9 + 0.2j
    val = contour_partition_function(m, [(0, 0)], 0, z)
    assert val == pytest.approx(theta(m, 0, z), rel=1e-12)


def test_zq_region_too_small_for_contours():
    m = ising(1.2)
    region = [(i, j) for i in range(2) for j in range(4)]
    z = 1.1 + 0.3j
    assert contour_partition_function(m, region, 1, z) == pytest.approx(
        theta(m, 1, z) ** 8, rel=1e-12
    )


_ORACLE_ROWS = 2**12  # core assignments per block of the spin-sum oracle


def _zq_spin_oracle(model, region, q, z):
    """Restricted spin sum: configurations equal to q outside the region with
    every R-boundary site inside it, weighted by the excitation energy of the
    R-boundary plus the ground energies of the other region sites.  Every
    assignment of the core (the region sites whose R-box lies in the region)
    is one row of a digit array over the region's box padded by R, which
    holds every placement that meets the region; the R-boundary of a row is
    where the maximum and minimum over the R-box of a site differ."""
    R, d = model.range, model.dimension
    region = [tuple(r) for r in region]
    rset = set(region)
    core = [x for x in region if all(tuple(y) in rset for y in chebyshev_ball(x, R))]
    pts = np.array(region)
    lo = pts.min(axis=0) - R
    shape = tuple((pts.max(axis=0) + R + 1 - lo).tolist())
    n = math.prod(shape)
    inside = np.zeros(n, dtype=bool)
    inside[np.ravel_multi_index(tuple((pts - lo).T), shape)] = True
    flat_core = np.ravel_multi_index(tuple((np.array(core).reshape(-1, d) - lo).T), shape)
    index = box_placements(model, shape)
    ground = np.array([model.ground_pair(s) for s in model.spins])
    bg, base = model.spins.index(q), len(model.spins)
    powers = base ** np.arange(len(core) - 1, -1, -1)
    logz = cmath.log(z)
    total = 0j
    for start in range(0, base ** len(core), _ORACLE_ROWS):
        r = np.arange(start, min(base ** len(core), start + _ORACLE_ROWS))
        D = np.full((n, len(r)), bg, dtype=np.int8)
        D[flat_core] = (r // powers[:, None]) % base
        box = np.pad(D.reshape(shape + (-1,)), [(R, R)] * d + [(0, 0)], constant_values=bg)
        win = sliding_window_view(box, (2 * R + 1,) * d, axis=tuple(range(d)))
        axes = tuple(range(-d, 0))
        bad = (win.max(axis=axes) != win.min(axis=axes)).reshape(n, -1)
        ok = ~(bad & ~inside[:, None]).any(axis=0)
        D, bad = D[:, ok], bad[:, ok]
        c, p = boundary_energy_pairs(model, index, D, bad)
        rest = inside[:, None] & ~bad
        c += (ground[D, 0] * rest).sum(axis=0)
        p += (ground[D, 1].real * rest).sum(axis=0)
        total += np.exp(-c + p * logz).sum()
    return complex(total)


@pytest.mark.parametrize("builder,q", [(lambda: ising(1.1), 1), (lambda: blume_capel(1.2, 0.08), 0)])
def test_zq_matches_spin_sum_4x4(builder, q, rng):
    model = builder()
    region = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(3):
        z = random_z(rng)
        oracle = _zq_spin_oracle(model, region, q, z)
        val = contour_partition_function(model, region, q, z)
        assert abs(val - oracle) / abs(oracle) < 1e-11


def test_zq_with_interior_recursion(rng):
    # a 5x5 region admits contours with a one-site interior
    model = blume_capel(1.4, 0.05)
    region = [(i, j) for i in range(5) for j in range(5)]
    z = random_z(rng)
    oracle = _zq_spin_oracle(model, region, 1, z)
    val = contour_partition_function(model, region, 1, z)
    assert abs(val - oracle) / abs(oracle) < 1e-10


# Z_q at z = 0.9+0.35j per (model, rectangle, q), as the engine gave them
# when it summed ZdContour objects sorted by key(); the rows' sum differs
# in summation order only
_PINNED_Z = complex(0.9, 0.35)
_PINNED = [
    (lambda: ising(1.1), (3, 6), -1, complex(1.578696973643844e+17, 33863264078671.336)),
    (lambda: ising(1.1), (3, 6), 1, complex(7.776494356309763e+16, 3.2204781126731136e+16)),
    (lambda: ising(1.1), (5, 6), -1, complex(4.614792090635895e+28, 3.01549533770626e+25)),
    (lambda: ising(1.1), (5, 6), 1, complex(2.1046928956716694e+27, -1.6040983523583928e+28)),
    (lambda: blume_capel(1.4, 0.05), (4, 5), -1, complex(2.772898129148275, 0.023032099359041235)),
    (lambda: blume_capel(1.4, 0.05), (4, 5), 0, complex(0.22019522232064478, 0.47147224638166596)),
    (lambda: blume_capel(1.4, 0.05), (4, 5), 1, complex(-0.4366597528915131, 0.5296130980144725)),
]


@pytest.mark.parametrize("builder,shape,q,pinned", _PINNED)
def test_zq_matches_the_pinned_object_sums(builder, shape, q, pinned):
    # the compatibility relation is pinned with the values: Ising 5x6 keeps
    # the ~1e-7 miss of adjacent volume-disjoint contours
    region = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    value = contour_partition_function(builder(), region, q, _PINNED_Z)
    assert abs(value - pinned) <= 1e-14 * abs(pinned)


@pytest.mark.parametrize("builder,shape", [(lambda: ising(1.1), (5, 6)),
                                           (lambda: blume_capel(1.4, 0.05), (4, 5)),
                                           (lambda: blume_capel(1.4, 0.05), (5, 5))])
def test_region_rows_are_the_contours_in_region(builder, shape):
    # the rows the engine sums, against the contours built from them:
    # supports, spins, holes, bit-identical energy pairs and, per row, the
    # volume (support and holes) as a bitmask over the sorted region
    model = builder()
    region = frozenset((i, j) for i in range(shape[0]) for j in range(shape[1]))
    bit = {x: 1 << i for i, x in enumerate(sorted(region))}
    for q in model.spins:
        rows = []
        for block, c, p, volumes in _region_rows(model, q, region):
            rows += [(tuple(cells), tuple(map(model.spins.__getitem__, digits)),
                      tuple((h, model.spins[k]) for h, k in holes), (cc, pp), v)
                     for (cells, digits, holes), cc, pp, v in zip(_rows(block), c, p, volumes)]
        rows.sort()
        contours = sorted(contours_in_region(model, q, region), key=lambda y: tuple(sorted(y.support)))
        assert len(rows) == len(contours) > 0
        for (cells, spins, holes, pair, volume), y in zip(rows, contours):
            assert cells == tuple(sorted(y.support))
            assert spins == tuple(y.spins[x] for x in cells)
            assert holes == y.interiors
            assert repr(pair) == repr(y.energy_pair(model))
            assert volume == sum(bit[x] for x in y.support.union(*(h for h, _ in holes)))
        assert any(y.interiors for y in contours) == (shape[0] == 5)  # one-site holes


@pytest.mark.parametrize("entry", [contours_in_region, contour_partition_function,
                                   truncated_partition])
@pytest.mark.parametrize("shape", [(1, 1), (4, 5)])
def test_unknown_q_is_a_model_error(entry, shape):
    model = blume_capel(1.4, 0.05)
    region = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    args = (model, 2, region) if entry is contours_in_region else (model, region, 2, 0.9 + 0.3j)
    with pytest.raises(ModelError, match="unknown spin 2"):
        entry(*args)


# -- torus identity ---------------------------------------------------------------------


def test_torus_identity_trivial_model(rng):
    from conftest import free_field_model

    m = free_field_model(spins=(-1, 1), site_energy=lambda s: 0.4 * s)
    zs = [random_z(rng)]
    rep = torus_contour_identity_check(m, 3, zs)
    assert rep["collection_max_rel"] < 1e-12 and rep["resummed_max_rel"] < 1e-12


def test_torus_identity_refuses_tori_that_hold_contours(monkeypatch):
    # L = 7 > 4R+2: a label region may hold contours; the guard must fire
    # before 2^49 configurations are enumerated
    monkeypatch.setattr(pszeros.contours, "IDENTITY_BUDGET", 2**60)
    with pytest.raises(BudgetError, match="4R\\+2"):
        torus_contour_identity_check(ising(1.0), 7, [1.0])


def test_torus_identity_ising(rng):
    zs = [random_z(rng) for _ in range(3)]
    rep = torus_contour_identity_check(ising(1.2), 3, zs)
    assert rep["collection_max_rel"] < 1e-10
    assert rep["resummed_max_rel"] < 1e-10


# -- contour classes and serialization ------------------------------------------------


def test_contour_classes_sizes():
    cls = contour_classes(ising(1.0), 1, 12)
    assert [y.size for y in cls] == [9, 12, 12]
    cls16 = contour_classes(ising(1.0), 1, 16)
    assert {y.size for y in cls16} == {9, 12, 14, 15, 16}


def test_contours_in_region_count():
    assert len(contours_in_region(ising(1.0), 1, [(i, j) for i in range(4) for j in range(4)])) == 15


def test_zd_contour_key_with_a_hole_of_two_cells():
    # the builder sets each contour's key from its rows; a ring of flips
    # around a 3x4 block of the background leaves the block's middle 1x2
    # cells with constant boxes, one hole of two cells
    model = ising(1.0)
    bg, shape = model.spins.index(1), (9, 10)
    D = np.full((90, 1), bg, dtype=np.int8)
    D[[10 * i + j for i in range(2, 7) for j in range(2, 8) if i in (2, 6) or j in (2, 7)]] = 1 - bg
    (found, columns), = _zd_contours(1, bg, (0, 0), shape, [D])
    c, p = boundary_energy_pairs(model, box_placements(model, _padded(shape, 1)), *columns)
    y, = _with_pairs(model, 1, list(_rows(found)), c.tolist(), p.tolist())
    assert [(sorted(h), lab) for h, lab in y.interiors] == [([(4, 4), (4, 5)], 1)]
    assert y.key() == ZdContour(y.q, y.support, y.spins, y.interiors).key()


def test_contours_in_region_budget_before_allocating():
    # a 3-state 9x9 region has a 49-site core: 3^49 assignments
    region = [(i, j) for i in range(9) for j in range(9)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="49-site core"):
            contours_in_region(blume_capel(1.4, 0.05), 1, region)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_contour_classes_budget():
    # range 1 in d = 2: at most 2 (2R+1)^d = 18 support sites
    with pytest.raises(BudgetError):
        contour_classes(ising(1.0), 1, 19)


@pytest.mark.parametrize("d, R, n_spins, cap", [
    (2, 1, 2, 12), (2, 1, 3, 12), (2, 1, 4, 12),
    (2, 1, 2, 16), (2, 1, 3, 16), (2, 1, 4, 16),
    (3, 1, 2, 36), (2, 2, 2, 35),
])
def test_contour_classes_have_no_interiors(d, R, n_spins, cap):
    # the gas weighs its classes without interior ratios: below the support
    # limit 2(2R+1)^d no class has a hole (one needs 24 sites for R=1 in 2D)
    classes = _class_geometry(d, R, n_spins, 0, cap).classes
    assert classes and not any(holes for _, _, holes in classes)


def test_contour_json_roundtrip():
    y = extract(flip_config(7, [24]), 1).contours[0]
    text = contour_to_json(y)
    data = json.loads(text)
    assert data["ext_label"] == 1
    y2 = contour_from_json(text)
    assert y2.support == y.support and y2.spins == y.spins
    assert y2.key() == y.key()


def test_contour_json_rejects_malformed_contours():
    y = extract(flip_config(7, [24]), 1).contours[0]
    nested = extract(nested_ring_config(), 1).contours
    assert len(nested) == 2
    for contour in (y, *nested):
        back = contour_from_json(contour_to_json(contour))
        assert back.key() == contour.key()
        assert back.ext_component == contour.ext_component
        assert set(back.interiors) == set(contour.interiors)
    geom = y.geom
    column = [[r, 0] for r in range(7)]
    rest = sorted(c for c in geom.coords if c[1] != 0)
    one_flip = json.loads(contour_to_json(y))
    malformed = [
        # a wrapping column: no exterior
        {"kind": "contour", "L": 7, "d": 2, "R": 1, "support": column,
         "spins": [-1] * 7, "ext_label": 1,
         "interiors": [{"sites": rest, "label": 1}]},
        # a disconnected support
        {"kind": "contour", "L": 7, "d": 2, "R": 1,
         "support": [[0, 0], [0, 1], [3, 3], [3, 4]], "spins": [-1] * 4,
         "ext_label": 1, "interiors": []},
        # one spin for nine support sites
        dict(one_flip, spins=one_flip["spins"][:1]),
        # the exterior label of the other phase
        dict(one_flip, ext_label=-1),
        # missing keys
        {k: v for k, v in one_flip.items() if k != "L"},
        {k: v for k, v in one_flip.items() if k != "interiors"},
        # not an object, or not a contour
        [one_flip],
        "contour",
        dict(one_flip, kind="network"),
        {k: v for k, v in one_flip.items() if k != "kind"},
        # a support of bare site indices, sites off the dimension
        dict(one_flip, support=[geom.index(tuple(c)) for c in one_flip["support"]]),
        dict(one_flip, support=[c[:1] for c in one_flip["support"]]),
        dict(one_flip, interiors=[[1]]),
        dict(one_flip, L=2),
    ]
    for data in malformed:
        with pytest.raises(ValueError, match="malformed contour"):
            contour_from_json(json.dumps(data))
