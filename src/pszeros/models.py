"""Finite-state, finite-range, translation-invariant lattice spin models.

A model is a collection of interaction terms, one canonical representative
per translation class.  Each term assigns to a local spin pattern an energy
of the form  c - p * log(z),  stored as the pair ``(c, p)``; the associated
Boltzmann factor is then  exp(-c) * z**p,  which keeps holomorphy in the
complex parameter z explicit and makes partition functions polynomials in z
whenever all powers p are nonnegative integers.

The four built-in families are the nearest-neighbor Ising model, its
finite-range multi-body perturbations, the Blume-Capel model and the q-state
Potts model in an external field.  By default the field term is shifted so
that the single-site weight is a plain monomial in z (z = e^{2h} for Ising,
z = e^h for Blume-Capel and Potts); the unshifted convention is available
via ``field="plain"``.
"""

from __future__ import annotations

import cmath
import configparser
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lattice import Torus, chebyshev_ball, torus, zd_diameter

Spin = int
Pair = tuple[complex, float]  # (z-independent energy, power of z in exp(-Phi))

ZERO_PAIR: Pair = (0j, 0.0)


def pair_energy(a: Pair, z: complex) -> complex:
    """Evaluate the energy c - p*log(z)."""
    c, p = a
    if p == 0:
        return c
    return c - p * cmath.log(z)


def pair_weight(a: Pair, z: complex) -> complex:
    """Evaluate exp(-c) * z**p, the Boltzmann factor of the energy pair."""
    c, p = a
    w = cmath.exp(-c)
    if p:
        try:
            w *= z**p
        except ZeroDivisionError:
            raise ModelError(f"z = {z!r}: the power {p!r} of z diverges there") from None
    return w


class ModelError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class InteractionTerm:
    """One translation class of the potential.

    ``shape`` is a tuple of lattice offsets containing the origin;
    ``energy`` maps each spin assignment on the shape (a tuple, in shape
    order) to its z-independent energy; ``zpower`` to the power of z in the
    corresponding Boltzmann factor.
    """

    shape: tuple[tuple[int, ...], ...]
    energy: dict
    zpower: dict

    def pair(self, spins: tuple) -> Pair:
        return (self.energy[spins], self.zpower.get(spins, 0.0))


@dataclass(frozen=True, eq=False)
class SpinModel:
    spins: tuple
    dimension: int
    range: int
    terms: tuple[InteractionTerm, ...]
    orbits: tuple[tuple, ...]
    name: str = ""
    zparam: str = "z"
    domain: str = "user-declared; holomorphy is checked numerically, not certified"

    def __post_init__(self):
        if self.dimension < 2:
            raise ModelError("dimension must be >= 2")
        if self.range < 1:
            raise ModelError("interaction range must be >= 1")
        seen = set()
        for t in self.terms:
            if (0,) * self.dimension not in t.shape:
                raise ModelError("every interaction shape must contain the origin")
            if zd_diameter(t.shape) > self.range + 1:
                raise ModelError("interaction shape exceeds the declared range")
            for s in itertools.product(self.spins, repeat=len(t.shape)):
                if s not in t.energy:
                    raise ModelError(f"energy table missing entry for {s}")
        for orb in self.orbits:
            seen.update(orb)
        if seen != set(self.spins):
            raise ModelError("orbits must partition the spin set")

    # -- ground states -------------------------------------------------------

    def ground_pair(self, m: Spin) -> Pair:
        """Energy pair of the dimensionless ground state energy density e_m."""
        return self.ground_pairs[m]

    @cached_property
    def ground_pairs(self) -> dict:
        """Per spin, ``ground_pair``, built once per model."""
        out = {}
        for m in self.spins:
            c, p = 0j, 0.0
            for t in self.terms:
                tc, tp = t.pair((m,) * len(t.shape))
                c += tc
                p += tp
            out[m] = (c, p)
        return out

    def orbit_of(self, m: Spin) -> tuple:
        for orb in self.orbits:
            if m in orb:
                return orb
        raise ModelError(f"unknown spin {m!r}")

    def orbit_representatives(self) -> tuple:
        return tuple(orb[0] for orb in self.orbits)

    def orbit_size(self, m: Spin) -> int:
        return len(self.orbit_of(m))

    @cached_property
    def tables(self) -> tuple:
        """Per term, its pattern table ``(radix, energy, zpower)``, built once
        per model: a pattern's code ``radix @ digits`` reads its digits
        (indices into ``spins``) in base q in shape order, and ``energy`` and
        ``zpower`` hold the term's energy pair per code."""
        q = len(self.spins)
        out = []
        for t in self.terms:
            k = len(t.shape)
            pats = [tuple(self.spins[i] for i in digits)
                    for digits in itertools.product(range(q), repeat=k)]
            out.append((
                q ** np.arange(k - 1, -1, -1),
                np.array([t.energy[s] for s in pats], dtype=complex),
                np.array([t.zpower.get(s, 0.0) for s in pats], dtype=float),
            ))
        return tuple(out)

    @cached_property
    def gas(self) -> dict:
        """The contour-gas records that ``metastable`` builds on first use:
        per (support cap, phases) the phase-stacked record of those phases,
        the orbit representatives or one phase; freed with the model."""
        return {}

    @cached_property
    def density_of_states(self) -> dict:
        """Per torus side L, the density-of-states record that
        ``torus_exact`` builds on first use; freed with the model."""
        return {}


# -- elementary observables ---------------------------------------------------


def ground_state_energy(model: SpinModel, m: Spin, z: complex) -> complex:
    """e_m(z): sum over all interaction translates containing the origin,
    each weighted by 1/|shape|, evaluated in the constant configuration m."""
    return pair_energy(model.ground_pair(m), z)


def theta(model: SpinModel, m: Spin, z: complex) -> complex:
    """Ground-state weight theta_m(z) = exp(-e_m(z))."""
    return pair_weight(model.ground_pair(m), z)


def theta_max(model: SpinModel, z: complex) -> float:
    """max over phases of |theta_m(z)|."""
    return max(abs(theta(model, m, z)) for m in model.orbit_representatives())


# -- configurations -----------------------------------------------------------


@dataclass(frozen=True)
class TorusConfiguration:
    side: int
    dimension: int
    spins: tuple

    def __post_init__(self):
        if len(self.spins) != self.side**self.dimension:
            raise ModelError("spin array does not match torus volume")

    def torus(self, R: int) -> Torus:
        if self.side < 2 * R + 1:
            raise ModelError(
                f"torus side {self.side} is below 2R+1={2 * R + 1}"
            )
        return torus(self.side, self.dimension, R)


@dataclass(frozen=True)
class ZdConfiguration:
    """A configuration on Z^d: a constant background plus finitely many
    deviating sites.  Its R-boundary is always finite."""

    background: Spin
    deviations: tuple  # sorted tuple of (coord, spin) pairs

    @staticmethod
    def make(background: Spin, deviations: dict) -> "ZdConfiguration":
        dev = tuple(
            sorted((c, s) for c, s in deviations.items() if s != background)
        )
        return ZdConfiguration(background, dev)

    def lookup(self):
        table = dict(self.deviations)
        bg = self.background
        return lambda x: table.get(x, bg)


def r_boundary(config, R: int):
    """B_R: the sites whose Chebyshev box of diameter 2R+1 carries a
    non-constant configuration.  A single flipped spin at x therefore has
    the (2R+1)^d-site box around x as its R-boundary.  Returns site indices
    on the torus and coordinate tuples on Z^d."""
    if isinstance(config, TorusConfiguration):
        geom = config.torus(R)
        return frozenset(geom.sites(geom.boundary(config.spins)))
    if isinstance(config, ZdConfiguration):
        look = config.lookup()
        bad = set()
        centers = set()
        for c, _ in config.deviations:
            centers.update(chebyshev_ball(c, R))
        for c in centers:
            box = chebyshev_ball(c, R)
            v0 = look(box[0])
            if any(look(x) != v0 for x in box):
                bad.add(c)
        return frozenset(bad)
    raise ModelError("non-finite boundary: unsupported configuration type")


# -- the placement-table energy kernel ----------------------------------------


@lru_cache(maxsize=None)
def _placement_index(shape, sides, lo, hi):
    """Site indices (placements x |shape|) of ``shape`` anchored at every
    point of the box lo <= a < hi, on the grid with the given sides; sites
    and anchors are numbered row-major (first axis slowest) and coordinates
    wrap around each side."""
    d = len(sides)
    anchors = np.indices([h - l for l, h in zip(lo, hi)]).reshape(d, -1).T + lo
    pos = anchors[:, None, :] + np.array(shape)
    out = np.ravel_multi_index(tuple(np.moveaxis(pos, -1, 0)), sides, mode="wrap")
    out = np.ascontiguousarray(out)  # row-major gathers are the fast ones
    out.setflags(write=False)  # shared by every caller through the cache
    return out


def torus_placements(model: SpinModel, L: int) -> list:
    """Per term, its placements on the torus of side L, one anchored at
    every site."""
    if L < 2 * model.range + 1:
        raise ModelError(f"torus side {L} is below 2R+1={2 * model.range + 1}")
    d = model.dimension
    return [_placement_index(t.shape, (L,) * d, (0,) * d, (L,) * d) for t in model.terms]


def strip_placements(model: SpinModel, L: int) -> list:
    """Per term, its placements on the two-layer strip of a range-1 transfer
    matrix (open along the first axis, the torus of side L across): the
    lowest first-axis offset of the shape sits in the first layer, so each
    torus placement falls in exactly one pair of consecutive layers."""
    rest = (L,) * (model.dimension - 1)
    out = []
    for t in model.terms:
        low = -min(o[0] for o in t.shape)
        lo, hi = (low,) + (0,) * len(rest), (low + 1,) + rest
        out.append(_placement_index(t.shape, (2,) + rest, lo, hi))
    return out


def box_placements(model: SpinModel, sides: tuple) -> list:
    """Per term, every placement that fits inside the open box of the given
    sides."""
    out = []
    for t in model.terms:
        off = np.array(t.shape)
        lo, hi = -off.min(axis=0), np.subtract(sides, off.max(axis=0))
        out.append(_placement_index(t.shape, sides, tuple(lo.tolist()), tuple(hi.tolist())))
    return out


def placement_energies(model: SpinModel, index, blocks):
    """The energy kernel: for each digit array ``D`` (sites x rows; a digit
    is the index of a spin in ``model.spins``) in ``blocks``, yield the
    energies and powers of z of its rows, summed over terms t and their
    placements ``index[t]``.  A generator, so that a sweep keeps its frame
    and the large per-block temporaries reuse the heap, rather than return
    it to the system and fault it back in every block."""
    for D in blocks:
        c = np.zeros(D.shape[1], dtype=complex)
        p = np.zeros(D.shape[1], dtype=float)
        for idx, (radix, energy, zpower) in zip(index, model.tables):
            code = radix @ D[idx]  # (placements, rows)
            c += energy[code].sum(axis=0)
            p += zpower[code].sum(axis=0)
        yield c, p


def boundary_energy_pairs(model: SpinModel, index, digits, bad):
    """The energy pairs of R-boundaries, one per row: ``digits`` (sites x
    rows) holds the configurations and ``bad`` (sites x rows, boolean) their
    R-boundaries B, and every placement A in ``index[t]`` of each term t
    counts with weight |A & B| / |A|.  Per term, placements are added one
    at a time in anchor order (an accumulation, never a pairwise sum), so a
    placement that misses the boundary adds an exact zero, and one that
    misses every row's boundary is skipped: a box larger than bbox(B)
    inflated by R gives the same bits."""
    c = np.zeros(digits.shape[1], dtype=complex)
    p = np.zeros(digits.shape[1], dtype=float)
    for idx, (radix, energy, zpower) in zip(index, model.tables):
        weight = bad[idx].sum(axis=1) / idx.shape[1]  # (placements, rows)
        hit = weight.any(axis=1)
        if not hit.any():
            continue
        idx, weight = idx[hit], weight[hit]
        code = radix @ digits[idx]
        c += np.add.accumulate(weight * energy[code], axis=0)[-1]
        p += np.add.accumulate(weight * zpower[code], axis=0)[-1]
    return c, p


def _digits(model: SpinModel, spins) -> np.ndarray:
    digit = {s: i for i, s in enumerate(model.spins)}
    return np.array([digit[s] for s in spins], dtype=np.intp)


def hamiltonian_torus_pair(model: SpinModel, config: TorusConfiguration) -> Pair:
    index = torus_placements(model, config.side)
    (c, p), = placement_energies(model, index, [_digits(model, config.spins)[:, None]])
    return (complex(c[0]), float(p[0]))


def hamiltonian_torus(model: SpinModel, config: TorusConfiguration, z: complex) -> complex:
    """betaH_L: the sum of all torus-wrapped interaction translates."""
    return pair_energy(hamiltonian_torus_pair(model, config), z)


def excitation_energy_pair(model: SpinModel, config) -> Pair:
    """The energy pair of the R-boundary B: every placement A of a term
    counted with weight |A & B| / |A|.  On Z^d the placements are those in
    the box bbox(B) inflated by R, which holds every placement that meets B."""
    return _boundary_energy_pair(model, config, r_boundary(config, model.range))


def _boundary_energy_pair(model: SpinModel, config, boundary) -> Pair:
    """``excitation_energy_pair`` for a configuration whose R-boundary is
    already known (a contour's is its support): the one-row call of
    ``boundary_energy_pairs``."""
    if not boundary:
        return ZERO_PAIR
    if isinstance(config, TorusConfiguration):
        index = torus_placements(model, config.side)
        digits = _digits(model, config.spins)
        bad = list(boundary)
    else:
        pts = np.array(list(boundary))
        lo = pts.min(axis=0) - model.range
        sides = tuple((pts.max(axis=0) + model.range - lo + 1).tolist())
        index = box_placements(model, sides)
        digits = np.full(math.prod(sides), model.spins.index(config.background), dtype=np.intp)
        if config.deviations:
            coords, spins = zip(*config.deviations)
            flat = np.ravel_multi_index(tuple((np.array(coords) - lo).T), sides)
            digits[flat] = _digits(model, spins)
        bad = np.ravel_multi_index(tuple((pts - lo).T), sides)
    mask = np.zeros((len(digits), 1), dtype=bool)
    mask[bad] = True
    c, p = boundary_energy_pairs(model, index, digits[:, None], mask)
    return (complex(c[0]), float(p[0]))


def excitation_energy(model: SpinModel, config, z: complex) -> complex:
    """E(sigma, z): the energy carried by the R-boundary of sigma."""
    return pair_energy(excitation_energy_pair(model, config), z)


# -- built-in models ----------------------------------------------------------


def _axis_offsets(d: int):
    origin = (0,) * d
    return [
        (origin, origin[:a] + (1,) + origin[a + 1:]) for a in range(d)
    ]


def _site_term(spins, energy, zpower, d):
    shape = ((0,) * d,)
    return InteractionTerm(
        shape,
        {(s,): complex(energy(s)) for s in spins},
        {(s,): float(zpower(s)) for s in spins},
    )


def ising(J: float, d: int = 2, field: str = "shifted") -> SpinModel:
    """Nearest-neighbor Ising model, pair energy -J s s', complex field
    parameter z = e^{2h}.  ``field="shifted"`` replaces -h s by -h(s+1) so
    each site carries weight z^{(s+1)/2}."""
    if J <= 0:
        raise ModelError("Ising coupling must be positive")
    if field not in ("shifted", "plain"):
        raise ModelError("field must be 'shifted' or 'plain'")
    spins = (-1, 1)
    zp = (lambda s: (s + 1) / 2) if field == "shifted" else (lambda s: s / 2)
    terms = [_site_term(spins, lambda s: 0.0, zp, d)]
    for shape in _axis_offsets(d):
        terms.append(
            InteractionTerm(
                shape,
                {(a, b): complex(-J * a * b) for a in spins for b in spins},
                {},
            )
        )
    return SpinModel(
        spins, d, 1, tuple(terms), ((-1,), (1,)),
        name=f"ising(J={J},{field})", zparam="z=e^{2h}",
    )


def perturbed_ising(
    couplings: dict, d: int = 2, field: str = "shifted"
) -> SpinModel:
    """Ising spins with arbitrary finite-range product couplings.

    ``couplings`` maps offset tuples (each containing the origin) to the
    coupling J of the term -J * prod(s_x).  Nearest-neighbor entries must be
    ferromagnetic.
    """
    if field not in ("shifted", "plain"):
        raise ModelError("field must be 'shifted' or 'plain'")
    spins = (-1, 1)
    zp = (lambda s: (s + 1) / 2) if field == "shifted" else (lambda s: s / 2)
    terms = [_site_term(spins, lambda s: 0.0, zp, d)]
    R = 1
    for shape, J in sorted(couplings.items()):
        shape = tuple(tuple(o) for o in shape)
        if len(shape) < 2:
            raise ModelError("multi-body coupling shapes need at least 2 sites")
        if len(shape) == 2 and zd_diameter(shape) == 2 and J <= 0:
            raise ModelError("nearest-neighbor couplings must be ferromagnetic")
        R = max(R, zd_diameter(shape) - 1)
        terms.append(
            InteractionTerm(
                shape,
                {
                    pat: complex(-J) * _prod(pat)
                    for pat in itertools.product(spins, repeat=len(shape))
                },
                {},
            )
        )
    return SpinModel(
        spins, d, R, tuple(terms), ((-1,), (1,)),
        name="perturbed_ising", zparam="z=e^{2h}",
    )


def _prod(pat):
    out = 1
    for s in pat:
        out *= s
    return out


def blume_capel(J: float, lam: float, d: int = 2, field: str = "shifted") -> SpinModel:
    """Blume-Capel model: spins {-1,0,1}, pair energy J(s-s')^2, site energy
    -lam s^2 - h(s+1), complex parameter z = e^h."""
    if J <= 0:
        raise ModelError("Blume-Capel coupling must be positive")
    if field not in ("shifted", "plain"):
        raise ModelError("field must be 'shifted' or 'plain'")
    spins = (-1, 0, 1)
    zp = (lambda s: s + 1) if field == "shifted" else (lambda s: s)
    terms = [_site_term(spins, lambda s: -lam * s * s, zp, d)]
    for shape in _axis_offsets(d):
        terms.append(
            InteractionTerm(
                shape,
                {(a, b): complex(J * (a - b) ** 2) for a in spins for b in spins},
                {},
            )
        )
    return SpinModel(
        spins, d, 1, tuple(terms), ((-1,), (0,), (1,)),
        name=f"blume_capel(J={J},lam={lam})", zparam="z=e^h",
    )


def potts(q: int, J: float, d: int = 2) -> SpinModel:
    """q-state Potts model with a field favoring spin value 1; z = e^h.
    Valid in the strongly ordered regime J >> log q."""
    if q < 2:
        raise ModelError("Potts needs q >= 2")
    if J <= 0:
        raise ModelError("Potts coupling must be positive")
    spins = tuple(range(1, q + 1))
    terms = [_site_term(spins, lambda s: 0.0, lambda s: 1.0 if s == 1 else 0.0, d)]
    for shape in _axis_offsets(d):
        terms.append(
            InteractionTerm(
                shape,
                {
                    (a, b): complex(-J if a == b else 0.0)
                    for a in spins
                    for b in spins
                },
                {},
            )
        )
    orbits = ((1,), tuple(range(2, q + 1))) if q > 2 else ((1,), (2,))
    return SpinModel(
        spins, d, 1, tuple(terms), orbits, name=f"potts(q={q},J={J})", zparam="z=e^h",
    )


# -- measured constants -------------------------------------------------------


@dataclass(frozen=True)
class EstimatedConstants:
    """Constants measured from an actual model at desk scale.  These are
    reported, not assumed; ``clears_threshold`` records whether the measured
    Peierls rate reaches the certified regime 4*c0 + 16."""

    tau: float
    M: float
    c0: float
    clears_threshold: bool
    note: str = ""


# -- model configuration files ------------------------------------------------

_CONFIG_DOC = """
Model config schema (INI):

[model]
name = ising | perturbed_ising | blume_capel | potts | custom
d = 2
J = 1.5            ; ising / blume_capel / potts
lambda = 0.05      ; blume_capel
q = 3              ; potts
field = shifted    ; or plain (ising / blume_capel)

custom models additionally declare:
[model] spins = -1,1  and  R = 1
[potential.NAME]                 ; one section per interaction class
shape = (0,0);(0,1)              ; offsets, origin included
table = -1,-1 : 1.0 : 0          ; spins : energy : zpower   (one per line)
"""


def model_from_config(text: str) -> SpinModel:
    """Build a model from the documented key-value schema; a missing value,
    or one that does not parse, raises ModelError."""
    try:
        return _model_from_config(text)
    except ModelError:
        raise
    except KeyError as exc:
        raise ModelError(f"missing model value {exc}" + _CONFIG_DOC) from exc
    except ValueError as exc:
        raise ModelError(f"malformed model value: {exc}") from exc


def _model_from_config(text: str) -> SpinModel:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if "model" not in cp:
        raise ModelError("config needs a [model] section" + _CONFIG_DOC)
    sec = cp["model"]
    name = sec.get("name", "").strip()
    d = sec.getint("d", 2)
    if name == "ising":
        return ising(float(sec["J"]), d, sec.get("field", "shifted"))
    if name == "blume_capel":
        return blume_capel(
            float(sec["J"]), float(sec["lambda"]), d, sec.get("field", "shifted")
        )
    if name == "potts":
        return potts(int(sec["q"]), float(sec["J"]), d)
    if name == "perturbed_ising":
        couplings = {}
        for s in cp.sections():
            if s.startswith("coupling"):
                shape = _parse_shape(cp[s]["shape"])
                couplings[shape] = float(cp[s]["J"])
        return perturbed_ising(couplings, d, sec.get("field", "shifted"))
    if name == "custom":
        spins = tuple(int(v) for v in sec["spins"].split(","))
        R = sec.getint("R", 1)
        terms = []
        for s in cp.sections():
            if s.startswith("potential"):
                shape = _parse_shape(cp[s]["shape"])
                energy, zpower = {}, {}
                for line in cp[s]["table"].strip().splitlines():
                    pat_s, e_s, p_s = (tok.strip() for tok in line.split(":"))
                    pat = tuple(int(v) for v in pat_s.split(","))
                    energy[pat] = complex(e_s)
                    zpower[pat] = float(p_s)
                terms.append(InteractionTerm(shape, energy, zpower))
        orbits = tuple((s,) for s in spins)
        return SpinModel(spins, d, R, tuple(terms), orbits, name="custom")
    raise ModelError(f"unknown model name {name!r}" + _CONFIG_DOC)


def _parse_shape(text: str):
    out = []
    for part in text.split(";"):
        part = part.strip().strip("()")
        out.append(tuple(int(v) for v in part.split(",")))
    return tuple(out)
