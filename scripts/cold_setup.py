"""Cold contour-gas set-up at cutoffs larger than the defaults.

Prints two timings (wall time, one run each, in a fresh process):
- every background digit's class geometry at size cap 16, for 2, 3 and 4
  spins on Z^2 with range 1;
- the cluster skeleton at norm cap 30 of Blume-Capel (1.5, 0.3) and Potts
  q=4 at size cap 12, with its overlap-offset search.

Run from the repository root:
    PYTHONPATH=src python scripts/cold_setup.py
"""

import time

from pszeros import blume_capel, contours, metastable, potts

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


if __name__ == "__main__":
    main()
