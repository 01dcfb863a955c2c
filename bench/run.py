"""Benchmark of the pszeros chain, timed from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured pass runs in a fresh interpreter (bench/child.py), one at a
time, with BLAS pinned to one thread: the value-keyed caches of the package
would otherwise carry over between passes, and a CLI user pays a fresh
interpreter too.  A run first starts a few set-up-only children, then passes
until S seconds are used (at least one pass).  With ``--trace 1`` the passes
alternate untraced and traced; the traced ones wrap the layer functions.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the tasks of every pass, and ``metrics``
holds the end-to-end metrics (medians over the run's children) or, traced,
the per-layer metrics of the traced pass with the median wall time.  A fuller
record of the run goes to bench/_out/.  Workloads and metrics are explained
in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

WORKLOADS = ("predict-zeros", "exact-side", "contour-sums", "model-sweep", "known-defect")
SETUP_PROBES = 6          # set-up-only children per run, besides the passes
HARD_LIMIT = 165.0        # seconds; no child starts or runs past this
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
         "wall_run_s": "s", "wall_setup_s": "s"}
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")  # raw wall times are recorded, not reported


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _child(args, deadline, *, trace=False, setup_only=False, spans=None):
    """Run one child; returns its record, or a failure record."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace))]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    load_before = os.getloadavg()
    start = time.monotonic()
    try:
        res = subprocess.run(cmd + ["--t0", repr(start)], capture_output=True,
                             text=True, timeout=max(1.0, deadline - start))
        out, err, code = res.stdout, res.stderr, res.returncode
    except subprocess.TimeoutExpired as exc:
        out, err, code = "", f"child killed after {exc.timeout:.0f} s", None
    rec = {"trace": trace, "setup_only": setup_only, "wall_s": time.monotonic() - start,
           "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
           "exit_code": code}
    lines = (out or "").strip().splitlines()
    if code == 0 and lines:
        rec.update(json.loads(lines[-1]))
    else:
        rec["failure"] = (err or "").strip()[-2000:]
    return rec


def _measure(args, start):
    """All children of one run, in order."""
    deadline = start + HARD_LIMIT
    window = start + args.seconds
    children = [_child(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        now = time.monotonic()
        longest = max((c["wall_s"] for c in passes), default=0.0)
        need_trace = args.trace and not any(c["trace"] for c in passes)
        if passes and not need_trace and now + longest > window:
            break
        if passes and now + longest > deadline:
            break
        trace = bool(args.trace) and len(passes) % 2 == 1
        spans = OUT / f"spans-{args.workload}-{len(passes)}.jsonl" if trace else None
        passes.append(_child(args, deadline, trace=trace, spans=spans))
        if "failure" in passes[-1]:
            break
    return children + passes


def _summarise(args, children, n_tasks):
    passes = [c for c in children if not c["setup_only"]]
    attempted = n_tasks * len(passes)
    failed = 0
    for c in passes:
        failed += n_tasks if "failure" in c else sum(t["error"] is not None for t in c["tasks"])
    ok = [c for c in children if "failure" not in c]
    plain = [c for c in ok if not c["setup_only"] and not c["trace"]]
    stats = {}
    for name in UNITS:
        pool = ok if "setup" in name else plain
        values = [c[name] for c in pool]
        if values:
            q1, med, q3 = quartiles(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                           "unit": UNITS[name]}
    metrics = {}
    if args.trace:
        traced = sorted((c for c in ok if c["trace"]), key=lambda c: c["run_s"])
        if traced and "run_s" in stats:
            mid = traced[(len(traced) - 1) // 2]
            layers = dict(mid["layers"], trace_overhead=mid["run_s"] / stats["run_s"]["median"] - 1.0)
            from tracer import metric_units

            metrics = {k: {"value": layers[k], "unit": u}
                       for k, (u, _) in metric_units().items()}
    elif all(k in stats for k in END_TO_END):
        metrics = {k: {"value": stats[k]["median"], "unit": UNITS[k]} for k in END_TO_END}
    correct = bool(metrics) and failed == 0 and len(ok) == len(children)
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "metrics": metrics}, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one cheap task per workload (self-tests)")
    args = ap.parse_args(argv)
    start = time.monotonic()
    os.environ.update(CHILD_ENV)
    if not (SRC / "pszeros" / "__init__.py").is_file():
        print(f"no pszeros sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    children = _measure(args, start)
    n_tasks = next((c["n_tasks"] for c in children if "n_tasks" in c), 1)
    result, stats = _summarise(args, children, n_tasks)

    versions = next((c["versions"] for c in children if "versions" in c), None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": _git_sha(),
        "src_sha256": _src_digest(), "versions": versions,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "stats": stats, "result": result, "children": children,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    for c in children:
        if "failure" in c:
            print(f"child failed (exit {c['exit_code']}): {c['failure']}", file=sys.stderr)
        for t in c.get("tasks", ()):
            if t["error"] is not None:
                print(f"task {t['name']} failed: {t['error']}", file=sys.stderr)
    fail_frac = result["failed"] / result["attempted"]
    print(f"{args.workload} seed {args.seed}: {len(children)} children, "
          f"fail_frac {fail_frac:g} ({result['failed']}/{result['attempted']} tasks)")
    for k, s in stats.items():
        print(f"  {k}: median {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
