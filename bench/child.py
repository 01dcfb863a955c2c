"""One measured pass of a workload, in a fresh interpreter.

Started by run.py with ``--t0``, the parent's CLOCK_MONOTONIC reading just
before the spawn (the clock is shared by all processes on Linux).  Set-up
lasts from there until ``pszeros`` is imported and the task list is built.
Then, unless ``--setup-only``, every task runs once (the timed pass), the
peak RSS is read, and the outputs are checked.  The last line of standard
output is one JSON object with the measurements.

Host-speed scaling: the shared host's speed drifts by tens of per cent over
seconds to minutes, in much the same way for this package and for a fixed
kernel of the same kind of work (small numpy calls, complex arithmetic,
dicts and frozensets).  So the child times that reference kernel right after
set-up, around every task and, from a SIGALRM handler, every SAMPLE_PERIOD
seconds inside a task.  It reports each time t also as t * REF_NOMINAL / ref,
with ref the reference time measured at that moment (averaged as speed over
a task).  The kernel does not depend on the package, so a change to the
package moves scaled and raw times alike.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy

MEMORY_LIMIT = 2 * 1024**3   # address space; a runaway task fails with MemoryError
TASK_TIMEOUT = 60.0          # seconds per task
REF_NOMINAL = 0.007          # reference kernel seconds at nominal host speed; never change
SAMPLE_PERIOD = 0.5          # seconds between reference timings inside a task


class TaskTimeout(Exception):
    pass


def _reference_kernel():
    a = numpy.linspace(0.1, 1.0, 8)
    m = numpy.outer(a, a)
    acc = 0j
    seen = {}
    for i in range(1500):
        x = a * numpy.exp(-0.1 * (i % 7) * a)
        acc += complex(float(m @ x @ x), 0.5) ** 2 / (1 + i)
        key = frozenset((i % 13, (i * 7) % 11, (i * 3) % 17))
        seen[key] = seen.get(key, 0) + 1
        acc += len(tuple(sorted(key)))
    return acc, len(seen)


def reference_seconds(reps: int = 5) -> float:
    """Median wall time of the reference kernel over ``reps`` calls."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t)
    return sorted(times)[reps // 2]


class _Sampler:
    """SIGALRM handler during a task: enforces the task's deadline and, when
    sampling, times the reference kernel every SAMPLE_PERIOD seconds."""

    def __init__(self, sample: bool):
        self.sample = sample

    def start(self):
        self.deadline = time.monotonic() + TASK_TIMEOUT
        self.factors = []
        self.spent = 0.0

    def __call__(self, signum, frame):
        if time.monotonic() > self.deadline:
            raise TaskTimeout(f"task exceeded {TASK_TIMEOUT:g} s")
        if self.sample:
            t = time.perf_counter()
            self.factors.append(REF_NOMINAL / reference_seconds(3))
            self.spent += time.perf_counter() - t


def run_pass(tasks, tracer=None):
    """Run each task once.  Per task: (output, error text or None, wall
    seconds, host-speed-scaled seconds); a task that raises yields error text.
    Reference timings inside a task are left out of its wall time; a traced
    pass takes none, so that they do not land in some span's self time."""
    sampler = _Sampler(sample=tracer is None)
    signal.signal(signal.SIGALRM, sampler)
    results = []
    reference_seconds(1)  # warm-up
    factor = REF_NOMINAL / reference_seconds()
    for i, task in enumerate(tasks):
        sampler.start()
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            out = task.run() if tracer is None else tracer.run_task(i, task.run)
            err = None
        except Exception as exc:  # any failure of the program is a recorded task failure
            out, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t - sampler.spent
        factor_after = REF_NOMINAL / reference_seconds()
        factors = [factor, *sampler.factors, factor_after]
        results.append((out, err, wall, wall * sum(factors) / len(factors)))
        factor = factor_after
    return results


def check_all(tasks, results):
    """Per task: None when its output is correct, else the reason."""
    reasons = []
    for task, (out, err, _, _) in zip(tasks, results):
        if err is None:
            try:
                err = task.check(out)
            except Exception as exc:  # a check that cannot run counts against the task
                err = f"check raised {type(exc).__name__}: {exc}"
        reasons.append(err)
    return reasons


def measure(tasks, trace=False, spans=None) -> dict:
    """The timed pass, the peak RSS after it, and the untimed checks.  A
    traced pass adds the per-layer summary and writes its spans to ``spans``."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        results = run_pass(tasks, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reasons = check_all(tasks, results)
    wall = sum(r[2] for r in results)
    record = {
        "run_s": sum(r[3] for r in results),
        "wall_run_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "tasks": [
            {"name": t.name, "seconds": r[2], "error": why}
            for t, r, why in zip(tasks, results, reasons)
        ],
    }
    if tracer is not None:
        record["layers"] = tracer.summary(wall)
        if spans:
            tracer.dump(spans)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the spans of a traced pass")
    args = ap.parse_args(argv)

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import pszeros

    if Path(pszeros.__file__).resolve().parent != src / "pszeros":
        print(f"pszeros imported from {pszeros.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tasks = workloads.build(args.workload, args.seed, args.smoke)
    wall_setup = time.monotonic() - args.t0
    import scipy

    reference_seconds(1)  # warm-up
    record = {
        "setup_s": wall_setup * REF_NOMINAL / reference_seconds(),
        "wall_setup_s": wall_setup,
        "n_tasks": len(tasks),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.setup_only:
        record.update(measure(tasks, args.trace, args.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
