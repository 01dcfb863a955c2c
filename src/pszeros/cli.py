"""Scenario runner: pipelines over models, deterministic artifact emission.

A scenario is an INI file with one section per pipeline stage; presets ship
common scenarios by name.  Outputs (CSV, JSON, SVG) are byte-deterministic
for a fixed scenario and seed: floats are printed to 17 significant digits,
reductions run in a fixed order, and every produced file is listed with its
checksum in a manifest.  ``--workers`` and the scenario key ``workers`` are
accepted and have no effect; every run is single-process.

Exit codes: 0 success, 1 check failure, 2 configuration error or a refused
computation (no convergence certificate, no coexistence curve), 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BudgetError, ConvergenceError
from .metastable import Cutoffs, nondegeneracy_check, estimated_constants, free_energy_table
from .models import ModelError, SpinModel, blume_capel, model_from_config
from .torus_exact import _density_of_states, exact_zeros, partition_polynomial, transfer_matrix_pf
from .zeros import (
    CurveError,
    PhaseEvaluator,
    density_of_zeros,
    match_predicted_exact,
    solve_zero_equations,
    splitting_residual,
    trace_coexistence,
)

USAGE = """\
pszeros --preset NAME --out DIR [--workers N] [--seed S]
pszeros --scenario FILE --out DIR [--workers N] [--seed S]

presets: """


def fmt(x: float) -> str:
    return format(x, ".17g")


# -- scenario ------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    pipelines: tuple
    model_text: str
    seed: int = 0
    cutoffs: Cutoffs = field(default_factory=Cutoffs)
    options: dict = field(default_factory=dict)

    @staticmethod
    def from_text(text: str) -> "Scenario":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ModelError(f"config parse error: {exc}") from exc
        if "scenario" not in cp:
            raise ModelError("missing [scenario] section")
        sec = cp["scenario"]
        pipelines = tuple(
            p.strip() for p in sec.get("pipelines", "").split(",") if p.strip()
        )
        for p in pipelines:
            if p not in _PIPELINES:
                raise ModelError(f"unknown pipeline {p!r} (known: {sorted(_PIPELINES)})")
        if not pipelines:
            raise ModelError("scenario declares no pipelines")
        if "model" not in cp and not (set(pipelines) <= {"lambda-sweep"}):
            raise ModelError("missing [model] section")
        model_text = ""
        if "model" in cp:
            buf = io.StringIO()
            sub = configparser.ConfigParser()
            for s in cp.sections():
                if s == "model" or s.startswith(("potential", "coupling")):
                    sub[s] = dict(cp[s])
            sub.write(buf)
            model_text = buf.getvalue()
        seed = _opt(sec, "seed", 0, int)
        caps = cp["cutoffs"] if "cutoffs" in cp else {}
        cut = Cutoffs(_opt(caps, "size_cap", Cutoffs.size_cap, int),
                      _opt(caps, "norm_cap", Cutoffs.norm_cap))
        options = {
            s: dict(cp[s])
            for s in cp.sections()
            if s not in ("scenario", "model", "cutoffs")
        }
        return Scenario(
            sec.get("name", "scenario"), pipelines, model_text, seed, cut, options
        )

    def model(self) -> SpinModel:
        return model_from_config(self.model_text)


# -- emission -------------------------------------------------------------------


class Emitter:
    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.files = {}

    def write_bytes(self, name: str, data: bytes):
        path = self.outdir / name
        path.write_bytes(data)
        self.files[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    def write_text(self, name: str, text: str):
        self.write_bytes(name, text.encode())

    def write_csv(self, name: str, rows):
        out = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
        self.write_text(name, out)

    def write_json(self, name: str, obj):
        self.write_text(name, json.dumps(obj, indent=1, sort_keys=True) + "\n")

    def manifest(self, scenario: Scenario):
        self.write_text(
            "manifest.json",
            json.dumps(
                {
                    "scenario": scenario.name,
                    "seed": scenario.seed,
                    "files": dict(sorted(self.files.items())),
                },
                indent=1,
                sort_keys=True,
            )
            + "\n",
        )


def emit_plot(hollow=(), filled=(), curves=(), title: str = "") -> str:
    """Deterministic SVG scatter: predicted zeros hollow, exact filled, with
    a unit-circle guide and curve polylines."""
    size = 600.0
    rmax = 1.45
    for group in (hollow, filled):
        for z in group:
            rmax = max(rmax, abs(z) * 1.15)

    def X(z):
        return format(size / 2 + z.real / rmax * size / 2, ".2f")

    def Y(z):
        return format(size / 2 - z.imag / rmax * size / 2, ".2f")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(size)}" '
        f'height="{int(size)}" viewBox="0 0 {int(size)} {int(size)}">',
        f'<rect width="{int(size)}" height="{int(size)}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="10" y="20" font-family="monospace" font-size="14">{title}</text>'
        )
    r = format(size / 2 / rmax, ".2f")
    parts.append(
        f'<circle cx="{int(size/2)}" cy="{int(size/2)}" r="{r}" fill="none" '
        f'stroke="#bbbbbb" stroke-width="1"/>'
    )
    for curve in curves:
        pts = " ".join(f"{X(z)},{Y(z)}" for z in curve)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#4477cc" stroke-width="1"/>'
        )
    for z in filled:
        parts.append(
            f'<circle cx="{X(z)}" cy="{Y(z)}" r="3.5" fill="black"/>'
        )
    for z in hollow:
        parts.append(
            f'<circle cx="{X(z)}" cy="{Y(z)}" r="6" fill="none" stroke="black" '
            f'stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- pipelines ------------------------------------------------------------------


def _parse_complex_list(text: str):
    return [complex(tok.strip().replace(" ", "")) for tok in text.split(";") if tok.strip()]


def _parse_list(conv):
    return lambda text: [conv(v) for v in text.split(",")]


def _opt(opts, key: str, default, conv=float):
    """Scenario value ``key`` (or ``default``) read by ``conv``; a value
    that does not parse is a configuration error."""
    text = opts.get(key, default)
    try:
        return conv(text)
    except ValueError as exc:
        raise ModelError(f"malformed option {key} = {text!r}: {exc}") from exc


def _pipeline_exact(scn: Scenario, em: Emitter) -> int:
    model = scn.model()
    opts = scn.options.get("exact", {})
    L = _opt(opts, "l", 3, int)
    states = _density_of_states(model, L)
    poly = states.polynomial(model, L)
    zs = exact_zeros(poly)
    em.write_text(f"exact_polynomial_L{L}.json", poly.to_json() + "\n")
    em.write_text(f"exact_zeros_L{L}.json", zs.to_json() + "\n")
    em.write_csv(f"exact_zeros_L{L}.csv", zs.to_csv_rows())
    spots = _opt(opts, "z_values", "", _parse_complex_list)
    rows = [("re_z", "im_z", "enum_re", "enum_im", "tm_re", "tm_im", "rel_dev")]
    worst = 0.0
    for z in spots:
        # near a zero of Z the terms cancel: compare against their moduli
        ze, mass = states.sum_with_mass(z)
        try:
            zt = transfer_matrix_pf(model, L, z)
        except BudgetError:  # refused (range > 1, or past its budget): a nan row
            zt, dev = complex("nan"), float("nan")
        else:
            dev = abs(ze - zt) / mass
            worst = max(worst, dev)
        rows.append(tuple(map(fmt, (z.real, z.imag, ze.real, ze.imag, zt.real, zt.imag, dev))))
    if spots:
        em.write_csv(f"exact_spot_checks_L{L}.csv", rows)
        if worst > _opt(opts, "tolerance", 1e-10):
            return 1
    return 0


def _pipeline_contour_check(scn: Scenario, em: Emitter) -> int:
    from .contours import extract, reconstruct, torus_contour_identity_check
    from .models import TorusConfiguration
    import itertools as it

    model = scn.model()
    opts = scn.options.get("contour-check", {})
    L = _opt(opts, "l", 3, int)
    tol = _opt(opts, "tolerance", 1e-10)
    rng = random.Random(scn.seed)
    n_z = _opt(opts, "n_random_z", 10, int)
    radii = _opt(opts, "radii", "0.6, 1.6", _parse_list(float))
    zs = [rng.choice(radii) * cmath.exp(2j * math.pi * rng.random()) for _ in range(n_z)]
    report = torus_contour_identity_check(model, L, zs)  # a BudgetError past its budget
    failures = 0
    for assignment in it.product(model.spins, repeat=L**model.dimension):
        cfg = TorusConfiguration(L, model.dimension, assignment)
        failures += reconstruct(extract(cfg, model.range)).spins != cfg.spins
    report["bijection_total"] = report["n_configs"]
    report["bijection_failures"] = failures
    em.write_json(f"contour_check_L{L}.json", _jsonable(report))
    if failures or report["collection_max_rel"] > tol or report["resummed_max_rel"] > tol:
        return 1
    return 0


def _pipeline_free_energy(scn: Scenario, em: Emitter) -> int:
    model = scn.model()
    opts = scn.options.get("free-energy", {})
    kind = opts.get("grid", "circle")
    npts = _opt(opts, "n", 16, int)
    if kind == "circle":
        radius = _opt(opts, "radius", 1.0)
        grid = [
            radius * cmath.exp(2j * math.pi * k / npts) for k in range(npts)
        ]
    else:
        grid = _opt(opts, "z_values", "1.0", _parse_complex_list)
    if not grid:
        raise ModelError("the free-energy grid is empty")
    reps = model.orbit_representatives()
    entries = []
    activations = 0
    for z in grid:
        tab = free_energy_table(model, z, scn.cutoffs)
        activations += tab.activations
        entries.append(
            {
                "re": z.real,
                "im": z.imag,
                "stable": [str(s) for s in tab.stable],
                "f": {str(m): tab[m].f for m in reps},
                "a": {str(m): tab[m].a for m in reps},
            }
        )
    diag = nondegeneracy_check(model, grid[: min(len(grid), 6)], cutoffs=scn.cutoffs)
    consts = estimated_constants(model, grid[: min(len(grid), 4)], scn.cutoffs.size_cap)
    em.write_json(
        "free_energy.json",
        {
            "grid": entries,
            "nondegeneracy_checks": _jsonable(diag),
            "estimated_constants": {
                "tau": consts.tau,
                "M": consts.M,
                "c0": consts.c0,
                "clears_threshold": consts.clears_threshold,
                "note": consts.note,
            },
            "cap_activations": activations,
        },
    )
    return 1 if activations else 0


def _pipeline_zeros(scn: Scenario, em: Emitter) -> int:
    model = scn.model()
    opts = scn.options.get("zeros", {})
    L = _opt(opts, "l", 3, int)
    phases = opts.get("phases")
    reps = model.orbit_representatives()
    if phases:
        want = {p.strip() for p in phases.split(",")}
        pair = tuple(m for m in reps if str(m) in want)
        if len(want) != 2 or len(pair) != 2:
            raise ModelError(f"phases = {phases!r} must name two distinct phases of {model.name}")
    else:
        pair = tuple(reps[:2])
    seed_pt = _opt(opts, "seed_point", "1.05+0.05j", lambda t: complex(t.replace(" ", "")))
    step = _opt(opts, "step", 0.05)
    if not 0.0 < step < math.inf:
        raise ModelError(f"step = {step!r} must be positive and finite")
    ev = PhaseEvaluator(model, scn.cutoffs)
    curve = trace_coexistence(
        model, pair[0], pair[1], seed_pt, step=step, cutoffs=scn.cutoffs,
        evaluator=ev,
    )
    predicted = solve_zero_equations(model, curve, L, scn.cutoffs, evaluator=ev)
    exact = exact_zeros(partition_polynomial(model, L))
    rep = match_predicted_exact(predicted, exact)
    dens = density_of_zeros(curve, L, model.dimension)
    em.write_json(f"curve_{pair[0]}_{pair[1]}.json", curve.to_json_dict())
    em.write_csv(f"zeros_L{L}.csv", rep.zeros.to_csv_rows())
    em.write_json(
        f"zeros_L{L}.json",
        {
            "n_predicted": rep.n_predicted,
            "n_exact": rep.n_exact,
            "max_distance": rep.max_distance,
            "mean_distance": rep.mean_distance,
            "greedy_optimal": rep.greedy_optimal,
            "density_total": dens.total,
            "windows_flagged": list(rep.zeros.windows_flagged),
        },
    )
    em.write_text(
        f"zeros_L{L}.svg",
        emit_plot(
            hollow=rep.zeros.positions(),
            filled=list(exact.roots),
            curves=[curve.points],
            title=f"{model.name} L={L}: predicted (hollow) vs exact (filled)",
        ),
    )
    tol = _opt(opts, "tolerance_match", 1e-4)
    if rep.cardinality_mismatch or rep.max_distance > tol:
        return 1
    return 0


def _pipeline_compare(scn: Scenario, em: Emitter) -> int:
    model = scn.model()
    opts = scn.options.get("compare", {})
    Ls = _opt(opts, "l_values", "3, 4", _parse_list(int))
    zs = _opt(opts, "z_values", "", _parse_complex_list) or [
        cmath.exp(1j * t) for t in (0.5, 1.0, 2.0)
    ]
    rows = [("L", "re_z", "im_z", "ratio", "warnings")]
    ratios = {}
    for L in Ls:
        worst = 0.0
        for z in zs:
            r = splitting_residual(model, L, z, cutoffs=scn.cutoffs)
            worst = max(worst, r.ratio)
            rows.append((str(L), fmt(z.real), fmt(z.imag), fmt(r.ratio),
                         ";".join(r.warnings)))
        ratios[L] = worst
    em.write_csv("residual_trend.csv", rows)
    em.write_json("residual_trend.json", {str(L): ratios[L] for L in Ls})
    ok = all(ratios[Ls[i + 1]] < ratios[Ls[i]] for i in range(len(Ls) - 1))
    return 0 if ok else 1


def _pipeline_lambda_sweep(scn: Scenario, em: Emitter) -> int:
    opts = scn.options.get("lambda-sweep", {})
    J = _opt(opts, "j", 1.3)
    L = _opt(opts, "l", 3, int)
    lams = _opt(opts, "lambda_values", "-0.3,-0.1,0.0,0.1,0.3", _parse_list(float))
    circle_tol = _opt(opts, "circle_tolerance", 1e-6)
    rows = [("lambda", "fraction_on_circle", "inversion_symmetry_error")]
    fractions = []
    all_roots = {}
    for lam in lams:
        model = blume_capel(J, lam)
        zs = exact_zeros(partition_polynomial(model, L))
        on = sum(1 for r in zs.roots if abs(abs(r) - 1) < circle_tol)
        frac = on / len(zs.roots)
        inv = max(
            min(abs(r - 1 / w.conjugate()) for w in zs.roots) for r in zs.roots
        )
        fractions.append(frac)
        all_roots[lam] = zs.roots
        rows.append((fmt(lam), fmt(frac), fmt(inv)))
    em.write_csv("lambda_sweep.csv", rows)
    mid = lams[len(lams) // 2]
    em.write_text(
        "lambda_sweep.svg",
        emit_plot(
            filled=list(all_roots[mid]),
            title=f"blume_capel(J={J}) zeros at lambda={mid}",
        ),
    )
    monotone = all(fractions[i + 1] >= fractions[i] for i in range(len(fractions) - 1))
    return 0 if monotone and fractions[-1] == 1.0 else 1


_PIPELINES = {
    "exact": _pipeline_exact,
    "contour-check": _pipeline_contour_check,
    "free-energy": _pipeline_free_energy,
    "zeros": _pipeline_zeros,
    "compare": _pipeline_compare,
    "lambda-sweep": _pipeline_lambda_sweep,
}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def run(scenario: Scenario, outdir) -> int:
    """Run every pipeline of the scenario; emit artifacts plus a manifest.
    Returns the process exit code."""
    em = Emitter(Path(outdir))
    status = 0
    try:
        for name in scenario.pipelines:
            status = max(status, _PIPELINES[name](scenario, em))
    except BudgetError as exc:
        em.write_json("error.json", {"stage": name, "budget_error": str(exc)})
        em.manifest(scenario)
        return 3
    except (ModelError, ConvergenceError, CurveError) as exc:
        if isinstance(exc, ModelError):
            print(f"config error: {exc}", file=sys.stderr)
        em.write_json("error.json", {"stage": name, "error": str(exc)})
        em.manifest(scenario)
        return 2
    em.manifest(scenario)
    return status


# -- presets -------------------------------------------------------------------


PRESETS = {
    "zeros-ising": """\
[scenario]
name = zeros-ising
pipelines = zeros
seed = 7

[model]
name = ising
J = 1.5

[zeros]
L = 3
seed_point = 1.04+0.06j
step = 0.05
""",
    "bijection-check": """\
[scenario]
name = bijection-check
pipelines = contour-check
seed = 11

[model]
name = ising
J = 1.2

[contour-check]
L = 3
n_random_z = 10
""",
    "contour-check-bc": """\
[scenario]
name = contour-check-bc
pipelines = contour-check
seed = 13

[model]
name = blume_capel
J = 1.3
lambda = 0.1

[contour-check]
L = 3
n_random_z = 10
""",
    "free-energy-ising": """\
[scenario]
name = free-energy-ising
pipelines = free-energy
seed = 3

[model]
name = ising
J = 1.5

[free-energy]
grid = circle
n = 12
""",
    "residual-ising": """\
[scenario]
name = residual-ising
pipelines = compare
seed = 5

[model]
name = ising
J = 1.5

[compare]
l_values = 3, 4
z_values = 0.54+0.84j; 0.41-0.91j; 0.99+0.14j
""",
    "bc-lambda-sweep": """\
[scenario]
name = bc-lambda-sweep
pipelines = lambda-sweep
seed = 2

[lambda-sweep]
J = 1.3
L = 3
lambda_values = -0.3, -0.15, -0.05, 0.0, 0.05, 0.1, 0.2, 0.4
""",
    "exact-ising": """\
[scenario]
name = exact-ising
pipelines = exact
seed = 17

[model]
name = ising
J = 1.5

[exact]
L = 4
z_values = 0.6+0.8j; -1.1+0.2j
""",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pszeros", add_help=True)
    ap.add_argument("--scenario", help="scenario config file")
    ap.add_argument("--preset", help="named built-in scenario")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--workers", type=int, default=None, help="accepted; has no effect")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    if not args.scenario and not args.preset:
        print(USAGE + ", ".join(sorted(PRESETS)), file=sys.stderr)
        return 2
    if args.scenario and args.preset:
        print("give either --scenario or --preset, not both", file=sys.stderr)
        return 2
    try:
        text = (
            PRESETS[args.preset]
            if args.preset
            else Path(args.scenario).read_text()
        )
    except (KeyError, OSError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scn = Scenario.from_text(text)
        if scn.model_text:
            scn.model()
    except ModelError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scn.seed = args.seed
    out = args.out or f"pszeros-out-{scn.name}"
    code = run(scn, out)
    print(f"{scn.name}: exit {code}, artifacts in {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
