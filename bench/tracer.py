"""Layer-boundary tracer for the benchmark.

``Tracer.install`` wraps the public functions and methods listed in
``LAYERS`` and rebinds every ``pszeros.*`` module attribute that refers to
the same function object, so cross-module calls (``zeros`` calling
``free_energy_table``, ``contours`` calling ``excitation_energy_pair``) are
seen too.  Each call opens a span: name, start, end, parent span and task id,
kept in flat arrays and written out by ``dump``.  A span's self time is its
duration minus the durations of its direct children, accumulated when the
span closes.  Every task runs inside a ``harness`` span, so the self times of
all names add up to the traced pass.

The untraced run never imports this module's wrappers: ``install`` is the
only thing that touches ``pszeros``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

LAYERS = {
    "models": ("excitation_energy_pair", "hamiltonian_torus_pair"),
    "torus_exact": (
        "partition_polynomial", "partition_function_exact",
        "transfer_matrix_pf", "exact_zeros",
    ),
    "contours": (
        "contours_in_region", "contour_classes", "extract", "reconstruct",
        "torus_contour_identity_check", "ContourSumEngine.partition_function",
    ),
    "polymer": ("ursell_coefficient", "estimate_c0", "enumerate_clusters"),
    "metastable": (
        "free_energy_table", "polymer_pressure", "estimate_tau",
        "WeightEngine.weight_truncated", "nondegeneracy_check", "finite_volume_zeta",
    ),
    "zeros": (
        "trace_coexistence", "solve_zero_equations", "match_predicted_exact",
        "PhaseEvaluator.table",
    ),
    "cli": ("run", "Scenario.from_text"),
}

HARNESS = "harness"
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# derived per-layer metrics: name -> (unit, better)
DERIVED = {
    "torus_exact.configs": ("count", "higher"),
    "torus_exact.configs_per_s": ("1/s", "higher"),
    "contours.contours_built": ("count", "lower"),
    "contours.engine_memo_hit_ratio": ("ratio", "higher"),
    "metastable.cap_activations": ("count", "lower"),
    "metastable.eta_min": ("1", "higher"),
    "zeros.table_hit_ratio": ("ratio", "higher"),
    "zeros.tables_per_zero": ("count", "lower"),
    "zeros.curve_points": ("count", "lower"),
    "zeros.predicted": ("count", "higher"),
    "zeros.match_dist_max": ("1", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.run_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def metric_units() -> dict:
    """Every per-layer metric name with its (unit, better)."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(DERIVED)
    return out


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.names = [HARNESS, *SPAN_NAMES]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # one entry per span, in opening order
        self.span_name = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.counters = {
            "configs": 0, "contours_built": 0, "engine_misses": 0,
            "tables_computed": 0, "cap_activations": 0, "eta_min": None,
            "curve_points": 0, "predicted": 0, "match_dist_max": 0.0,
        }
        self._stack = []  # [span index, time covered by children]
        self._task = -1
        self._patches = []
        self._hooks = {
            "torus_exact.partition_polynomial": self._count_configs,
            "torus_exact.partition_function_exact": self._count_configs,
            "contours.contours_in_region": self._count_region_contours,
            "contours.contour_classes": self._count_contours,
            "metastable.free_energy_table": self._count_table,
            "metastable.polymer_pressure": self._count_eta,
            "zeros.trace_coexistence": self._count_curve,
            "zeros.solve_zero_equations": self._count_predicted,
            "zeros.match_predicted_exact": self._count_match,
        }

    # -- spans ------------------------------------------------------------------

    def _open(self, sid):
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_t0.append(0.0)
        self.span_t1.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_task.append(self._task)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, sid, frame, t0, t1):
        self._stack.pop()
        idx, covered = frame
        self.span_t0[idx] = t0
        self.span_t1[idx] = t1
        dur = t1 - t0
        self.calls[sid] += 1
        self.self_s[sid] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def _parent_name(self):
        return self.names[self.span_name[self._stack[-1][0]]] if self._stack else None

    def _wrap(self, name, fn):
        sid = self._ids[name]
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(sid, frame, t0, t1)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def run_task(self, task_id, fn):
        """Run ``fn()`` inside the harness span of one task."""
        self._task = task_id
        frame = self._open(0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._close(0, frame, t0, perf_counter())
            self._task = -1

    # -- counters read at the layer boundaries ------------------------------------

    def _count_configs(self, args, kwargs, result):
        model, L = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "L")
        self.counters["configs"] += len(model.spins) ** (L**model.dimension)

    def _count_contours(self, args, kwargs, result):
        self.counters["contours_built"] += len(result)

    def _count_region_contours(self, args, kwargs, result):
        self._count_contours(args, kwargs, result)
        if self._parent_name() == "contours.ContourSumEngine.partition_function":
            self.counters["engine_misses"] += 1

    def _count_table(self, args, kwargs, result):
        self.counters["cap_activations"] += result.activations
        if self._parent_name() == "zeros.PhaseEvaluator.table":
            self.counters["tables_computed"] += 1

    def _count_eta(self, args, kwargs, result):
        eta = self.counters["eta_min"]
        self.counters["eta_min"] = result.eta if eta is None else min(eta, result.eta)

    def _count_curve(self, args, kwargs, result):
        self.counters["curve_points"] += len(result)

    def _count_predicted(self, args, kwargs, result):
        self.counters["predicted"] += len(result.zeros)

    def _count_match(self, args, kwargs, result):
        if result.max_distance == result.max_distance:
            self.counters["match_dist_max"] = max(
                self.counters["match_dist_max"], result.max_distance
            )

    # -- patching -----------------------------------------------------------------

    def install(self):
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"pszeros.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[meth]
                    if isinstance(original, staticmethod):
                        wrapper = staticmethod(self._wrap(name, original.__func__))
                    else:
                        wrapper = self._wrap(name, original)
                    self._patch(owner, meth, wrapper)
                    continue
                original = getattr(module, fn)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "pszeros" and not mod_name.startswith("pszeros."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------------

    def summary(self, run_s: float) -> dict:
        """Per-layer metrics of one traced pass whose wall time was ``run_s``."""
        out = {}
        for name in SPAN_NAMES:
            sid = self._ids[name]
            out[f"{name}.calls"] = self.calls[sid]
            out[f"{name}.self_s"] = self.self_s[sid]
        c = self.counters
        ids = self._ids
        enum_s = (self.self_s[ids["torus_exact.partition_polynomial"]]
                  + self.self_s[ids["torus_exact.partition_function_exact"]])
        engine_calls = self.calls[ids["contours.ContourSumEngine.partition_function"]]
        table_calls = self.calls[ids["zeros.PhaseEvaluator.table"]]
        out.update({
            "torus_exact.configs": c["configs"],
            "torus_exact.configs_per_s": c["configs"] / enum_s if enum_s > 0 else 0.0,
            "contours.contours_built": c["contours_built"],
            "contours.engine_memo_hit_ratio":
                1.0 - c["engine_misses"] / engine_calls if engine_calls else 0.0,
            "metastable.cap_activations": c["cap_activations"],
            "metastable.eta_min": c["eta_min"] if c["eta_min"] is not None else 0.0,
            "zeros.table_hit_ratio":
                1.0 - c["tables_computed"] / table_calls if table_calls else 0.0,
            "zeros.tables_per_zero":
                c["tables_computed"] / c["predicted"] if c["predicted"] else 0.0,
            "zeros.curve_points": c["curve_points"],
            "zeros.predicted": c["predicted"],
            "zeros.match_dist_max": c["match_dist_max"],
            "harness.self_s": self.self_s[0],
            "harness.run_s": run_s,
        })
        return out

    def dump(self, path):
        """Write every span as one JSON line [name, start, end, parent, task];
        parent is the line number of the parent span, counting from 0."""
        names = self.names
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([
                    names[self.span_name[i]], self.span_t0[i], self.span_t1[i],
                    self.span_parent[i], self.span_task[i],
                ]) + "\n")
