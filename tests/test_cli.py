import hashlib
import json

import pytest

from pszeros.cli import PRESETS, Scenario, emit_plot, main, run
from pszeros.models import ising
from pszeros.torus_exact import exact_zeros, partition_polynomial


def test_usage_without_arguments(capsys):
    assert main([]) == 2
    assert "presets" in capsys.readouterr().err


def test_unknown_preset():
    assert main(["--preset", "nope", "--out", "/tmp/x"]) == 2


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = x\npipelines = teleport\n")
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("scenario, model", [
    ("seed = abc\n", "J = 1.5\n"),
    ("\n[cutoffs]\nnorm_cap = x\n", "J = 1.5\n"),
    ("", "J = abc\n"),
    ("", ""),
    ("\n[free-energy]\nn = three\n", "J = 1.5\n"),
])
def test_malformed_number_is_a_config_error(tmp_path, capsys, scenario, model):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "[scenario]\nname = x\npipelines = free-energy\n" + scenario
        + "\n[model]\nname = ising\n" + model
    )
    assert main(["--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline, section", [
    ("exact", "[exact]\nL = three\n"),
    ("zeros", "[zeros]\nseed_point = abc\n"),
    ("compare", "[compare]\nl_values = 3, x\n"),
    ("lambda-sweep", "[lambda-sweep]\nlambda_values = 0.1, y\n"),
    ("zeros", "[zeros]\nphases = 1, 7\n"),
    ("zeros", "[zeros]\nphases = 1, 1\n"),
    ("free-energy", "[free-energy]\nn = 0\n"),
    ("zeros", "[zeros]\nstep = 0\n"),
    ("zeros", "[zeros]\nstep = -0.05\n"),
])
def test_malformed_pipeline_option_is_a_config_error(tmp_path, capsys, pipeline, section):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        f"[scenario]\nname = x\npipelines = {pipeline}\n\n"
        f"[model]\nname = ising\nJ = 1.5\n\n{section}"
    )
    assert main(["--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_exact_spot_check_next_to_a_zero(tmp_path):
    # |Z| is tiny next to a root, and enumeration and transfer matrix agree
    # only relative to the summed moduli of the terms
    root = exact_zeros(partition_polynomial(ising(1.5), 3)).roots[0]
    z = root * (1 + 1e-9)
    cfg = tmp_path / "spot.cfg"
    cfg.write_text(
        "[scenario]\nname = spot\npipelines = exact\n\n"
        "[model]\nname = ising\nJ = 1.5\n\n"
        f"[exact]\nL = 3\nz_values = {z.real!r}{z.imag:+.17g}j\n"
    )
    out = tmp_path / "o"
    assert main(["--scenario", str(cfg), "--out", str(out)]) == 0
    rows = (out / "exact_spot_checks_L3.csv").read_text().splitlines()
    assert float(rows[1].split(",")[-1]) < 1e-13


def test_exact_preset(tmp_path):
    out = tmp_path / "exact"
    assert main(["--preset", "exact-ising", "--out", str(out)]) == 0
    assert json.loads((out / "exact_polynomial_L4.json").read_text())["degree"] == 16
    rows = (out / "exact_spot_checks_L4.csv").read_text().splitlines()
    assert len(rows) == 3
    assert all(float(row.split(",")[-1]) < 1e-13 for row in rows[1:])


def test_budget_exit_code(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "[scenario]\nname = big\npipelines = contour-check\n\n"
        "[model]\nname = ising\nJ = 1.0\n\n[contour-check]\nL = 6\n"
    )
    assert main(["--scenario", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert (tmp_path / "o" / "error.json").exists()


def test_curve_error_exit_code(tmp_path):
    # far from the coexistence curve the tracer refuses its seed: a refused
    # computation, reported like a failed certificate
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        "[scenario]\nname = far\npipelines = zeros\n\n"
        "[model]\nname = ising\nJ = 1.5\n\n[zeros]\nseed_point = 3.5+0.2j\n"
    )
    out = tmp_path / "o"
    assert main(["--scenario", str(cfg), "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["stage"] == "zeros"
    assert "error.json" in json.loads((out / "manifest.json").read_text())["files"]


def test_plain_field_at_z_zero_is_a_model_error(tmp_path, capsys):
    # theta_- = e^{2J} z^{-1/2} diverges at z = 0: a typed refusal that
    # names z, not a traceback
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        "[scenario]\nname = zero\npipelines = free-energy\n\n"
        "[model]\nname = ising\nJ = 1.5\nfield = plain\n\n"
        "[free-energy]\ngrid = list\nz_values = 0\n"
    )
    out = tmp_path / "o"
    assert main(["--scenario", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["stage"] == "free-energy" and "z = 0" in err["error"]
    assert "error.json" in json.loads((out / "manifest.json").read_text())["files"]
    assert "config error" in capsys.readouterr().err


def test_nonfinite_z_is_a_model_error(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "[scenario]\nname = nan\npipelines = free-energy\n\n"
        "[model]\nname = ising\nJ = 1.5\n\n"
        "[free-energy]\ngrid = list\nz_values = nan\n"
    )
    out = tmp_path / "o"
    assert main(["--scenario", str(cfg), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["stage"] == "free-energy" and "z = (nan+0j): not a finite point" in err["error"]
    assert "error.json" in json.loads((out / "manifest.json").read_text())["files"]
    assert "config error" in capsys.readouterr().err


def test_scenario_parsing_options():
    scn = Scenario.from_text(PRESETS["zeros-ising"])
    assert scn.pipelines == ("zeros",)
    assert scn.model().name.startswith("ising")
    assert scn.seed == 7


def test_bijection_preset(tmp_path):
    out = tmp_path / "bij"
    assert main(["--preset", "bijection-check", "--out", str(out)]) == 0
    rep = json.loads((out / "contour_check_L3.json").read_text())
    assert rep["bijection_total"] == 512
    assert rep["bijection_failures"] == 0
    assert rep["collection_max_rel"] <= 2e-15 and rep["resummed_max_rel"] <= 2e-15


def test_contour_check_bc_preset(tmp_path):
    # both sides of the torus identity sum their terms as the enumeration
    # does, so they meet it to rounding
    out = tmp_path / "bc"
    assert main(["--preset", "contour-check-bc", "--out", str(out)]) == 0
    rep = json.loads((out / "contour_check_L3.json").read_text())
    assert rep["bijection_total"] == 3**9 and rep["bijection_failures"] == 0
    assert rep["collection_max_rel"] <= 2e-15 and rep["resummed_max_rel"] <= 2e-15


def test_manifest_checksums(tmp_path):
    out = tmp_path / "fe"
    assert main(["--preset", "free-energy-ising", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, meta in manifest["files"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == meta["sha256"]
        assert len(data) == meta["bytes"]
    assert "manifest.json" not in manifest["files"]


def test_free_energy_preset_reports_constants(tmp_path):
    out = tmp_path / "fe2"
    assert main(["--preset", "free-energy-ising", "--out", str(out)]) == 0
    data = json.loads((out / "free_energy.json").read_text())
    assert data["cap_activations"] == 0
    assert data["estimated_constants"]["clears_threshold"] is False
    assert len(data["grid"]) == 12


def test_lambda_sweep_preset(tmp_path):
    out = tmp_path / "bc"
    assert main(["--preset", "bc-lambda-sweep", "--out", str(out)]) == 0
    rows = (out / "lambda_sweep.csv").read_text().strip().splitlines()
    fracs = [float(r.split(",")[1]) for r in rows[1:]]
    assert fracs == sorted(fracs) and fracs[-1] == 1.0


def test_emit_plot_deterministic_and_empty():
    svg = emit_plot(title="empty")
    assert svg == emit_plot(title="empty")
    assert "circle" in svg  # the unit-circle guide survives an empty zero set
    svg2 = emit_plot(hollow=[1 + 0j], filled=[0.5j], curves=[[1 + 0j, 0.5j]])
    assert 'fill="none" stroke="black"' in svg2
    assert 'r="3.5" fill="black"' in svg2
    assert "polyline" in svg2


def test_custom_scenario_runs(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(
        "[scenario]\nname = mini\npipelines = exact\nseed = 1\n\n"
        "[model]\nname = blume_capel\nJ = 1.2\nlambda = 0.05\n\n"
        "[exact]\nL = 3\nz_values = 1.0+0j; 0.5+0.2j\n"
    )
    out = tmp_path / "o"
    assert main(["--scenario", str(cfg), "--out", str(out)]) == 0
    zs = json.loads((out / "exact_zeros_L3.json").read_text())
    assert zs["degree"] == 18
