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
from dataclasses import dataclass, field
from functools import lru_cache

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
        w *= z**p
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
        c, p = 0j, 0.0
        for t in self.terms:
            tc, tp = t.pair((m,) * len(t.shape))
            c += tc
            p += tp
        return (c, p)

    def orbit_of(self, m: Spin) -> tuple:
        for orb in self.orbits:
            if m in orb:
                return orb
        raise ModelError(f"unknown spin {m!r}")

    def orbit_representatives(self) -> tuple:
        return tuple(orb[0] for orb in self.orbits)

    def orbit_size(self, m: Spin) -> int:
        return len(self.orbit_of(m))


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

    def value(self, x) -> Spin:
        for c, s in self.deviations:
            if c == x:
                return s
        return self.background

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
        spins = config.spins
        bad = set()
        for c, box in enumerate(geom.boxes):
            v0 = spins[box[0]]
            if any(spins[i] != v0 for i in box):
                bad.add(c)
        return frozenset(bad)
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


# -- placement tables ---------------------------------------------------------


@lru_cache(maxsize=None)
def _torus_placements(model: SpinModel, L: int):
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
            sites = tuple(geom.translate(x, off) for off in t.shape)
            anchored[x].append((ti, sites))
            for s in sites:
                containing[s].append((ti, sites, inv))
    return geom, anchored, containing


def _site_energy_pair(model, containing_entry, value_at) -> Pair:
    """h_x = sum over interaction translates containing x of Phi/|shape|."""
    c, p = 0j, 0.0
    for ti, sites, inv in containing_entry:
        t = model.terms[ti]
        tc, tp = t.pair(tuple(value_at(s) for s in sites))
        c += tc * inv
        p += tp * inv
    return (c, p)


def hamiltonian_torus_pair(model: SpinModel, config: TorusConfiguration) -> Pair:
    geom, anchored, _ = _torus_placements(model, config.side)
    spins = config.spins
    c, p = 0j, 0.0
    for x in range(geom.n_sites):
        for ti, sites in anchored[x]:
            tc, tp = model.terms[ti].pair(tuple(spins[s] for s in sites))
            c += tc
            p += tp
    return (c, p)


def hamiltonian_torus(model: SpinModel, config: TorusConfiguration, z: complex) -> complex:
    """betaH_L: the sum of all torus-wrapped interaction translates."""
    return pair_energy(hamiltonian_torus_pair(model, config), z)


def excitation_energy_pair(model: SpinModel, config) -> Pair:
    boundary = r_boundary(config, model.range)
    c, p = 0j, 0.0
    if isinstance(config, TorusConfiguration):
        _, _, containing = _torus_placements(model, config.side)
        spins = config.spins
        for x in boundary:
            tc, tp = _site_energy_pair(model, containing[x], lambda s: spins[s])
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


# -- regime constants ---------------------------------------------------------


@dataclass(frozen=True)
class Regime:
    """Certified constants for the contour analysis.  The bound
    tau >= 4 c0 + 16 is what the truncation and stability arguments assume."""

    tau: float
    M: float
    alpha: float
    c0: float

    def __post_init__(self):
        if min(self.tau, self.M, self.alpha) <= 0 or self.c0 < 0:
            raise ModelError("regime constants must be positive")
        if self.tau < 4 * self.c0 + 16:
            raise ModelError("regime requires tau >= 4*c0 + 16")

    @property
    def eps(self) -> float:
        return float(cmath.exp(-self.tau / 2).real)


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
    """Build a model from the documented key-value schema; a value that does
    not parse raises ModelError."""
    try:
        return _model_from_config(text)
    except ModelError:
        raise
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
        return ising(sec.getfloat("J"), d, sec.get("field", "shifted"))
    if name == "blume_capel":
        return blume_capel(
            sec.getfloat("J"), sec.getfloat("lambda"), d, sec.get("field", "shifted")
        )
    if name == "potts":
        return potts(sec.getint("q"), sec.getfloat("J"), d)
    if name == "perturbed_ising":
        couplings = {}
        for s in cp.sections():
            if s.startswith("coupling"):
                shape = _parse_shape(cp[s]["shape"])
                couplings[shape] = cp[s].getfloat("J")
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
