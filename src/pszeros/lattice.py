"""Lattice geometry on Z^d and on the d-dimensional torus of side L.

Site addressing: torus sites are flat row-major indices (first axis slowest),
Z^d sites are integer coordinate tuples.  The diameter of a finite set is the
side of the smallest enclosing axis-aligned cubic box measured in sites, so a
box of k x ... x k sites has diameter k and a single site has diameter 1.  On
the torus the enclosing box may wrap.  Site sets on the torus are integer
bitmasks (bit i is site i), whose components ``Torus.flood`` grows by
dilation; the torus contours and networks of ``contours`` hold their
supports and complement components as such masks.  Components of whole
blocks of configurations, on the torus and in an open box of Z^d (the
R-boundary's components, the holes of a contour support), are found on
digit arrays by ``contours._spread_min``.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

Coord = tuple


def chebyshev_ball(center: Coord, radius: int) -> list[Coord]:
    """All Z^d sites within Chebyshev distance ``radius`` of ``center``."""
    axes = [range(c - radius, c + radius + 1) for c in center]
    return [tuple(p) for p in itertools.product(*axes)]


def zd_neighbors(x: Coord):
    for a in range(len(x)):
        for s in (-1, 1):
            yield x[:a] + (x[a] + s,) + x[a + 1:]


def zd_diameter(sites) -> int:
    """Side of the smallest enclosing cubic box (in sites)."""
    sites = list(sites)
    if not sites:
        return 0
    d = len(sites[0])
    return max(
        max(p[a] for p in sites) - min(p[a] for p in sites) + 1 for a in range(d)
    )


class Torus:
    """Geometry tables for the torus of side L in dimension d.

    Precomputes neighbor lists, the Chebyshev boxes of diameter 2R+1 and,
    per axis, the bitmask (bit i is site i) of each coordinate value, from
    which site masks are shifted, dilated and measured.  Requires
    L >= 2R+1 so that a box never wraps onto itself.
    """

    def __init__(self, L: int, d: int, R: int = 1):
        if d < 2:
            raise ValueError("dimension must be at least 2")
        if L < 2 * R + 1:
            raise ValueError(f"torus side L={L} must be at least 2R+1={2 * R + 1}")
        self.L = L
        self.d = d
        self.R = R
        self.n_sites = L**d
        self.full = (1 << self.n_sites) - 1
        self.coords = [tuple(p) for p in itertools.product(range(L), repeat=d)]
        self._index = {c: i for i, c in enumerate(self.coords)}
        self.neighbors = tuple(
            tuple(self.index(y) for y in zd_neighbors(c)) for c in self.coords
        )
        self.boxes = tuple(
            tuple(sorted(self.index(y) for y in chebyshev_ball(c, R)))
            for c in self.coords
        )
        self._coord_masks = [[self.mask(i for i, c in enumerate(self.coords) if c[a] == v)
                              for v in range(L)] for a in range(d)]
        # per axis, one cyclic step up and down: (stride, wrap, sites that step
        # up without wrapping, top layer, the same two for a step down)
        self._steps = [(L ** (d - 1 - a), (L - 1) * L ** (d - 1 - a), self.full ^ m[-1], m[-1],
                        self.full ^ m[0], m[0]) for a, m in enumerate(self._coord_masks)]
        self._box_steps = self._steps * R  # dilations along the axes commute

    def index(self, coord: Coord) -> int:
        return self._index[tuple(c % self.L for c in coord)]

    # -- set geometry -------------------------------------------------------

    def mask(self, sites) -> int:
        """The bitmask of a set of distinct site indices."""
        return sum(map((1).__lshift__, sites))

    def sites(self, mask: int) -> list:
        """The sites of a bitmask, in increasing order."""
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    def dilate_nn(self, mask: int) -> int:
        """The mask together with the nearest neighbours of its sites."""
        out = mask
        for s, w, up, top, down, bottom in self._steps:
            out |= (mask & up) << s | (mask & top) >> w | (mask & down) >> s | (mask & bottom) << w
        return out

    def dilate_box(self, mask: int) -> int:
        """Every site within Chebyshev distance R of the mask."""
        for s, w, up, top, down, bottom in self._box_steps:
            mask |= (mask & up) << s | (mask & top) >> w | (mask & down) >> s | (mask & bottom) << w
        return mask

    def flood(self, mask: int, dilate) -> list:
        """The components of a mask under the linking ``dilate``, each a
        mask, in order of their smallest site."""
        out = []
        while mask:
            comp, grown = 0, mask & -mask
            while grown != comp and grown != mask:
                comp, grown = grown, dilate(grown) & mask
            out.append(grown)
            mask ^= grown
        return out

    def diameter(self, mask: int) -> int:
        """Diameter of a site mask, allowing the enclosing box to wrap."""
        if not mask:
            return 0
        worst = 0
        for values in self._coord_masks:
            p = [v for v, m in enumerate(values) if mask & m]  # the coordinates present
            if len(p) == self.L:
                return self.L
            gap = max(map(operator.sub, p[1:] + [p[0] + self.L], p))  # the widest cyclic gap
            worst = max(worst, self.L + 1 - gap)
        return worst

    def boundary(self, spins) -> int:
        """The mask of the R-boundary of a configuration (``spins`` by site):
        the sites that the box dilations of two or more value masks cover."""
        values = {}
        for i, s in enumerate(spins):
            values[s] = values.get(s, 0) | 1 << i
        seen = bad = 0
        for m in map(self.dilate_box, values.values()):
            bad, seen = bad | seen & m, seen | m
        return bad

    def shrink(self, mask: int) -> int:
        """Remove from a site mask the layer adjacent to its complement."""
        return mask & ~self.dilate_nn(self.full & ~mask)


@lru_cache(maxsize=None)
def torus(L: int, d: int, R: int = 1) -> Torus:
    return Torus(L, d, R)
