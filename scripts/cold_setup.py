"""Cold set-up at cutoffs and tori larger than the defaults.

Prints five timings (wall time, one run each, in a fresh process):
- every background digit's class geometry at size cap 16, for 2, 3 and 4
  spins on Z^2 with range 1;
- the cluster skeleton at norm cap 30 of Blume-Capel (1.5, 0.3) and Potts
  q=4 at size cap 12, with its overlap-offset search;
- the exact density-of-states record (graded transfer matrix) of Ising
  J=1.5 at L = 6, 7 and 8 and of Blume-Capel (1.5, 0.3) at L = 4 and 5,
  each on a fresh model, strip table included;
- the extract -> reconstruct round trip over all 65,536 configurations of
  Ising J=1.5 at L = 4, torus memos included;
- the contour partition function Z_1 of Blume-Capel (1.5, 0.3) over a 5x5
  region at one z, on a fresh model.

Run from the repository root:
    PYTHONPATH=src python scripts/cold_setup.py
"""

import itertools
import time

from pszeros import blume_capel, contours, ising, metastable, potts, torus_exact
from pszeros.models import TorusConfiguration

SIZE_CAP = 16
NORM_CAP = 30.0


def main():
    for n_spins in (2, 3, 4):
        contours._class_geometry.cache_clear()
        start = time.perf_counter()
        counts = [len(contours._class_geometry(2, 1, n_spins, bg, SIZE_CAP).classes)
                  for bg in range(n_spins)]
        print(f"class geometry, size cap {SIZE_CAP}, {n_spins} spins, backgrounds "
              f"0-{n_spins - 1}: {time.perf_counter() - start:.3f} s "
              f"({counts[0]} classes each)")
    for model in (blume_capel(1.5, 0.3), potts(4, 1.5)):
        record = metastable._record(model, 12, model.orbit_representatives())
        start = time.perf_counter()
        entries = record.shape.skeleton(NORM_CAP)
        print(f"skeleton, norm cap {NORM_CAP:g}, {model.name}: "
              f"{time.perf_counter() - start:.3f} s ({len(entries)} entries)")
    for make, sides in ((lambda: ising(1.5), (6, 7, 8)), (lambda: blume_capel(1.5, 0.3), (4, 5))):
        for L in sides:
            model = make()
            start = time.perf_counter()
            poly = torus_exact.partition_polynomial(model, L)
            print(f"exact record, {model.name} L={L}: "
                  f"{time.perf_counter() - start:.3f} s (degree {poly.degree})")
    model = ising(1.5)
    configs = [TorusConfiguration(4, 2, spins) for spins in itertools.product(model.spins, repeat=16)]
    start = time.perf_counter()
    failures = sum(contours.reconstruct(contours.extract(cfg, model.range)).spins != cfg.spins
                   for cfg in configs)
    print(f"round trip, {model.name} L=4: {time.perf_counter() - start:.3f} s "
          f"({len(configs)} configurations, {failures} failures)")
    model = blume_capel(1.5, 0.3)
    region = [(i, j) for i in range(5) for j in range(5)]
    start = time.perf_counter()
    value = contours.contour_partition_function(model, region, 1, complex(0.9, 0.35))
    print(f"region sum, {model.name} 5x5 q=1: {time.perf_counter() - start:.3f} s "
          f"(Z = {value:.6g})")


if __name__ == "__main__":
    main()
