"""Lattice geometry on Z^d and on the d-dimensional torus of side L.

Site addressing: torus sites are flat row-major indices (first axis slowest),
Z^d sites are integer coordinate tuples.  The diameter of a finite set is the
side of the smallest enclosing axis-aligned cubic box measured in sites, so a
box of k x ... x k sites has diameter k and a single site has diameter 1.  On
the torus the enclosing box may wrap.  The holes of a Z^d contour support
are found by the batched contour builder in ``contours``, on digit arrays.
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


def components(sites, neighbors) -> list[frozenset]:
    """Connected components of a finite site set, where ``neighbors(x)``
    yields the candidate neighbors of x (those outside the set are ignored)."""
    todo = set(sites)
    out = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            for y in neighbors(stack.pop()):
                if y in todo:
                    todo.remove(y)
                    comp.add(y)
                    stack.append(y)
        out.append(frozenset(comp))
    return out


class Torus:
    """Geometry tables for the torus of side L in dimension d.

    Precomputes neighbor lists and the Chebyshev boxes of diameter 2R+1 used
    to detect where a configuration deviates from a ground state, with one
    ``itemgetter`` per box that reads its values.  Requires
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
        self.coords = [tuple(p) for p in itertools.product(range(L), repeat=d)]
        self._index = {c: i for i, c in enumerate(self.coords)}
        self.neighbors = tuple(
            tuple(self.index(y) for y in zd_neighbors(c)) for c in self.coords
        )
        self.boxes = tuple(
            tuple(sorted(self.index(y) for y in chebyshev_ball(c, R)))
            for c in self.coords
        )
        self.box_items = tuple(operator.itemgetter(*box) for box in self.boxes)

    def index(self, coord: Coord) -> int:
        return self._index[tuple(c % self.L for c in coord)]

    # -- set geometry -------------------------------------------------------

    def diameter(self, sites) -> int:
        """Diameter of a site set, allowing the enclosing box to wrap."""
        sites = list(sites)
        if not sites:
            return 0
        L = self.L
        worst = 0
        for a in range(self.d):
            present = sorted({self.coords[i][a] for i in sites})
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

    def components(self, sites) -> list[frozenset]:
        """Nearest-neighbor components of a subset (given as indices)."""
        return components(sites, self.neighbors.__getitem__)

    def shrink(self, sites: frozenset) -> frozenset:
        """Remove from ``sites`` the layer adjacent to its complement."""
        return frozenset(
            x for x in sites if all(y in sites for y in self.neighbors[x])
        )


@lru_cache(maxsize=None)
def torus(L: int, d: int, R: int = 1) -> Torus:
    return Torus(L, d, R)
