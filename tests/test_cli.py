import csv
import errno
import io
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from superrad import cli, errors, optics
from superrad.cli import (
    _HANDLERS,
    _ROWS_PER_CHUNK,
    _Axis,
    _csv_text,
    _float_texts,
    _json_result_text,
    main,
    run,
)
from superrad.config import COMMANDS, parse_config
from superrad.errors import ConfigError, ConfigFileUnreadable
from superrad.exact import (
    FLUX_CUTOFF_RTOL,
    VACUUM_THRESHOLD,
    HilbertConfig,
    build_symmetric_liouvillian,
    expectation,
    photon_flux_exact,
    steady_state_exact,
)
from superrad.optics import OpticalParams, compute_reflectance_map
from superrad.params import SystemParams

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))

CUMULANT_DOC = """
command: cumulant
params:
  n_emitters: 2
  delta: 2350.0
  delta_c: 2350.0
  g: 5.0
  kappa: 50.0
  omega: {omega}
  gamma_minus: 0.1
  gamma_z: 1.0
"""

SWEEP_DOC = """
command: sweep
params:
  n_emitters: 1
  delta: 2350.0
  delta_c: 2350.0
  g: 0.11
  kappa: 134.0
  omega: 0.0003
  gamma_minus: 0.3
  gamma_z: 0.5
sweep:
  n_values: [100, 1000, 10000]
  drive_rule: scaled
  gamma_r: 0.001
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_cumulant_zero_pump_writes_zero_flux(tmp_path):
    doc = CUMULANT_DOC.format(omega="0.0")
    cfg = _write(tmp_path, "c.yaml", doc)
    out = tmp_path / "out"
    assert main(["cumulant", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "cumulant_result.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["flux_mev"]) == 0.0
    assert (out / "run_manifest.json").exists()


def test_sweep_csv_and_summary(tmp_path):
    cfg = _write(tmp_path, "s.yaml", SWEEP_DOC)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "sweep_result.csv").read_text().strip().splitlines()
    assert lines[0] == "n,omega_mev,l_cavity_mev,l_control_mev,ratio"
    assert len(lines) == 4
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == sorted(ns) == [100, 1000, 10000]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary) == {"alpha", "prefactor", "rmsd"}
    assert -0.05 <= summary["alpha"] <= 1.05


def test_sweep_determinism_byte_identical(tmp_path):
    cfg = _write(tmp_path, "s.yaml", SWEEP_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
    assert (out_a / "sweep_result.csv").read_bytes() == (out_b / "sweep_result.csv").read_bytes()
    assert (out_a / "sweep_summary.json").read_bytes() == (out_b / "sweep_summary.json").read_bytes()


def test_exact_dimension_cap_error_record(tmp_path, capsys):
    doc = """
command: exact
params: {{n_emitters: {n_em}, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: 1.0, gamma_minus: 0.1, gamma_z: 1.0}}
hilbert: {hilbert}
"""
    # N = 10000, as in configs/cumulant_collective.yaml, is counted without a grid
    for n_em, hilbert, count in [(6, "{n_max: 10, cap: 512}", 764), (10000, "{}", 400060004)]:
        cfg = _write(tmp_path, "e.yaml", doc.format(n_em=n_em, hilbert=hilbert))
        out = tmp_path / "out"
        code = main(["exact", "--config", str(cfg), "--out-dir", str(out)])
        assert code != 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["error"] == "DimensionCap"
        assert record["message"].startswith(f"{count} permutation-symmetric unknowns")
        assert not out.exists() or not any(out.glob("*_result.*"))


def test_exact_out_of_memory_error_record(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("superrad.exact._DENSE_MAX", 0)  # a system this small goes to SuperLU
    monkeypatch.setattr("scipy.sparse.linalg.splu", exhausted)
    doc = """
command: exact
params: {n_emitters: 2, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: 1.0, gamma_minus: 0.1, gamma_z: 1.0}
hilbert: {n_max: 3}
"""
    cfg = _write(tmp_path, "e.yaml", doc)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "DimensionCap"
    assert "sector unknowns" in record["message"]
    assert not out.exists() or not any(out.glob("*"))


def test_an_oversized_reflectance_grid_is_a_dimension_cap_record(tmp_path, capsys, monkeypatch):
    # the grid's allocation is refused as numpy refuses 320 GB, without making it
    denominator = optics._denominator

    def refusing(e_c, energies, *args):
        if e_c.size * energies.size > 10**9:
            raise MemoryError(f"Unable to allocate {8 * e_c.size * energies.size} bytes")
        return denominator(e_c, energies, *args)

    monkeypatch.setattr(optics, "_denominator", refusing)
    doc = REFLECTANCE_DOC.replace("n_theta: 5", "n_theta: 200000").replace("n_energy: 11",
                                                                           "n_energy: 200000")
    cfg = _write(tmp_path, "r.yaml", doc)
    out = tmp_path / "out"
    assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "DimensionCap"
    assert "200000 x 200000" in record["message"]
    assert "320000000000 bytes" in record["message"]
    assert not out.exists()


def test_error_leaves_no_partial_result(tmp_path, capsys):
    # sweep with an impossible params section (negative rate) fails validation
    doc = SWEEP_DOC.replace("kappa: 134.0", "kappa: -134.0")
    cfg = _write(tmp_path, "bad.yaml", doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) != 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "NegativeRate"
    assert not out.exists() or not any(out.glob("*"))


@pytest.mark.parametrize("old, new", [("v_on: 2.0", "v_on: .nan"), ("v_on: 2.0", "v_on: .inf"),
                                      ("slope_mu: 0.5", "slope_mu: -.inf")])
def test_a_non_finite_drive_is_an_invalid_value_record(tmp_path, capfd, old, new):
    # unchecked, max(0.0, v - nan) read 0.0: a run with omega = 0 and zero flux
    shipped = next(c for c in CONFIGS if c.name == "cumulant_collective.yaml").read_text()
    assert old in shipped
    cfg = _write(tmp_path, "bad.yaml", shipped.replace(old, new))
    out = tmp_path / "out"
    record = _error_record(capfd, ["cumulant", "--config", str(cfg), "--out-dir", str(out)], out)
    assert record["error"] == "InvalidValue" and "must be finite" in record["message"]


@pytest.mark.parametrize("command, section, message", [
    ("fit", "optics: {e_c0: 2300.0, n_eff: 0.9, delta: 2350.0, g_coll: 11.0, kappa: 134.0, "
            "gamma_perp: 331.0}\n", "n_eff must be > 1"),
    ("validate", "sweep: {n_values: [100, 10], drive_rule: scaled, gamma_r: 0.001}\n",
     "n_values must be strictly increasing"),
    ("reflectance", "sweep: {n_values: [-5, 10], drive_rule: scaled, gamma_r: 1.0e-3}\n",
     "all n_values must be >= 1"),
], ids=["fit_with_bad_optics", "validate_with_bad_sweep", "reflectance_with_bad_sweep_no_params"])
def test_a_section_the_command_does_not_read_is_still_checked(tmp_path, capfd, command, section,
                                                              message):
    # an optics or sweep section was checked only by the command that reads
    # it, and a sweep section beside no params section by no command but sweep
    base = {"fit": "command: fit\nfit: {points: [[10, 1.0], [100, 2.0]]}\n",
            "validate": CUMULANT_DOC.format(omega="1.0").replace("cumulant", "validate"),
            "reflectance": REFLECTANCE_DOC}
    cfg = _write(tmp_path, "c.yaml", base[command] + section)
    out = tmp_path / "out"
    record = _error_record(capfd, [command, "--config", str(cfg), "--out-dir", str(out)], out)
    assert record == {"error": "InvalidValue", "message": message}
    assert main([command, "--config", str(_write(tmp_path, "ok.yaml", base[command])),
                 "--out-dir", str(out)]) == 0


def test_command_mismatch_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", CUMULANT_DOC.format(omega="1.0"))
    assert main(["exact", "--config", str(cfg)]) != 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "ConfigError"


def _error_record(capfd, argv, out):
    """The one-line JSON record main prints for argv, checking it exits 1 and writes nothing."""
    assert main(argv) == 1
    captured = capfd.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert not out.exists()
    return json.loads(captured.out)


def test_flags_are_checked_by_the_config_schema(tmp_path, capfd):
    doc = CUMULANT_DOC.format(omega="1.0")
    cfg, bad = _write(tmp_path, "c.yaml", doc), _write(tmp_path, "bad.yaml", "seed: -1\n" + doc)
    out = tmp_path / "out"
    from_flag = _error_record(capfd, ["cumulant", "--config", str(cfg), "--out-dir", str(out),
                                      "--seed", "-1"], out)
    from_doc = _error_record(capfd, ["cumulant", "--config", str(bad), "--out-dir", str(out)], out)
    assert from_flag == from_doc == {
        "error": "TypeMismatch", "message": "key 'seed' expects a value >= 0, got -1"}
    record = _error_record(capfd, ["cumulant", "--config", str(cfg), "--out-dir", str(out),
                                   "--format", "xml"], out)
    assert record == {"error": "TypeMismatch",
                      "message": "key 'format' expects one of ('csv', 'json'), got 'xml'"}


def test_a_seed_flag_that_is_not_an_integer_is_a_type_mismatch_record(tmp_path, capfd):
    cfg, out = _write(tmp_path, "c.yaml", CUMULANT_DOC.format(omega="1.0")), tmp_path / "out"
    for text in ("abc", "7.0", ""):
        record = _error_record(capfd, ["cumulant", "--config", str(cfg), "--out-dir", str(out),
                                       "--seed", text], out)
        assert record == {"error": "TypeMismatch",
                          "message": f"key 'seed' expects an integer, got {text!r}"}
    assert main(["cumulant", "--config", str(cfg), "--out-dir", str(out), "--seed", "7"]) == 0


def test_a_config_that_is_not_utf8_is_a_config_file_unreadable_record(tmp_path, capfd):
    cfg, out = tmp_path / "c.yaml", tmp_path / "out"
    cfg.write_bytes(b"\xff\xfe" + CUMULANT_DOC.format(omega="1.0").encode())
    record = _error_record(capfd, ["cumulant", "--config", str(cfg), "--out-dir", str(out)], out)
    assert record == {"error": "ConfigFileUnreadable", "message": "'utf-8' codec can't decode "
                      "byte 0xff in position 0: invalid start byte"}


def test_a_missing_config_is_a_typed_config_file_unreadable_record(tmp_path, capfd):
    assert issubclass(ConfigFileUnreadable, ConfigError)
    cfg, out = tmp_path / "absent.yaml", tmp_path / "out"
    record = _error_record(capfd, ["cumulant", "--config", str(cfg), "--out-dir", str(out)], out)
    assert record == {"error": "ConfigFileUnreadable",
                      "message": f"[Errno 2] No such file or directory: {str(cfg)!r}"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["file", "under_file", "result_is_a_directory",
                                    "manifest_is_a_directory"])
def test_an_unwritable_output_is_an_output_unwritable_record(tmp_path, capfd, target):
    # an existing file as --out-dir, a path under one, a result path that is
    # a directory, so that the file write itself fails, and a manifest path
    # that is one, so that its rename fails after the result's
    config = next(c for c in CONFIGS if c.stem == "exact_small")
    blocker = _write(tmp_path, "taken", "kept\n")
    out = {"file": blocker, "under_file": blocker / "out", "result_is_a_directory": tmp_path,
           "manifest_is_a_directory": tmp_path / "other"}[target]
    (tmp_path / "exact_result.csv").mkdir()
    (tmp_path / "other" / "run_manifest.json").mkdir(parents=True)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert main(["exact", "--config", str(config), "--out-dir", str(out), "--format", "csv"]) == 1
    captured = capfd.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == "OutputUnwritable"
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("failing", ["sweep_summary.json", "run_manifest.json"])
def test_no_space_for_any_file_writes_nothing(tmp_path, capfd, monkeypatch, failing):
    # the data file is written before either fails, and the run removes the
    # output directory, and the parents of it, that it made
    def full(file, mode="r", *args, **kwargs):
        if mode == "x" and Path(file).name.startswith(f".{failing}."):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", full, raising=False)
    config = next(c for c in CONFIGS if c.stem == "sweep_scaled")
    for out in (tmp_path / "out", tmp_path / "a" / "b" / "out"):
        argv = ["sweep", "--config", str(config), "--out-dir", str(out), "--format", "csv"]
        assert main(argv) == 1
        captured = capfd.readouterr()
        assert captured.err == "" and captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "OutputUnwritable"
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


def test_written_files_take_their_mode_from_the_umask(tmp_path):
    config = next(c for c in CONFIGS if c.stem == "exact_small")
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["exact", "--config", str(config), "--out-dir", str(out),
                     "--format", "csv"]) == 0
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
    assert modes == {"exact_result.csv": 0o644, "run_manifest.json": 0o644}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_reflectance_run_never_holds_its_whole_table_as_text(tmp_path, fmt):
    # the bound of 64 traced bytes per grid cell was fixed before the run
    # (measured: 24 in csv, 30 in json; 210 and 285 with each cell's text,
    # the file text and its bytes all held at once)
    config = next(c for c in CONFIGS if c.stem == "reflectance_d4")
    doc = config.read_text(encoding="utf-8")
    doc = doc.replace("n_theta: 65", "n_theta: 100").replace("n_energy: 301", "n_energy: 1000")
    run(parse_config(doc, {"output_dir": str(tmp_path / "warm"), "format": fmt}))
    config = parse_config(doc, {"output_dir": str(tmp_path / "out"), "format": fmt})
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 100 * 1000


def test_exact_command_observables(tmp_path):
    doc = """
command: exact
format: json
params: {n_emitters: 1, delta: 2350.0, delta_c: 2350.0, g: 0.0, kappa: 1.0,
         omega: 1.0, gamma_minus: 3.0, gamma_z: 0.0}
hilbert: {n_max: 2}
"""
    cfg = _write(tmp_path, "e.yaml", doc)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(cfg), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "exact_result.json").read_text())
    row = payload["rows"][0]
    assert (1.0 + row["sigma_z"]) / 2 == pytest.approx(0.25, abs=1e-9)
    assert row["flux_mev"] == pytest.approx(0.0, abs=1e-12)


def test_exact_writes_an_antibunched_g2_zero(tmp_path):
    doc = """
command: exact
params: {n_emitters: 1, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: 0.01, gamma_minus: 0.1, gamma_z: 1.0}
hilbert: {n_max: 3}
"""
    cfg = _write(tmp_path, "g.yaml", doc)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "exact_result.csv").read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["g2_zero"]) < 0.5


def _exact_row(tmp_path, doc, fmt):
    """The one row `superrad exact` writes for a config document, read back from its file."""
    cfg = _write(tmp_path, "e.yaml", doc)
    out = tmp_path / f"out_{fmt}"
    assert main(["exact", "--config", str(cfg), "--out-dir", str(out), "--format", fmt]) == 0
    text = (out / f"exact_result.{fmt}").read_text()
    if fmt == "json":
        (row,) = json.loads(text)["rows"]
        return row
    return {k: float(v) for k, v in next(csv.DictReader(io.StringIO(text))).items()}


def test_exact_converges_from_any_starting_cutoff(tmp_path):
    # a single rung at n_max=1 is 1.39% low in flux; the ladder from there is not
    shipped = next(c for c in CONFIGS if c.stem == "exact_small").read_text(encoding="utf-8")
    assert "  n_max: 4 " in shipped
    rows = [_exact_row(tmp_path, shipped.replace("  n_max: 4 ", f"  n_max: {n} "), "json")
            for n in (1, 4)]
    assert [row["n_max_converged"] for row in rows] == [7, 6]
    for name in ("photon_number", "flux_mev", "sigma_z", "cross_pm", "g2_zero"):
        assert rows[0][name] == pytest.approx(rows[1][name], rel=FLUX_CUTOFF_RTOL, abs=0.0)
    p = parse_config(shipped).params
    one_rung = steady_state_exact(build_symmetric_liouvillian(p, HilbertConfig(1, 2)))
    flux = p.kappa * expectation(one_rung, "photon_number").real
    assert 1 - flux / rows[1]["flux_mev"] == pytest.approx(0.0139, abs=5e-5)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_writes_nan_for_undefined_values(tmp_path, fmt):
    # g2(0) of a dark cavity and cross_pm of one emitter stay out of the ladder
    doc = """
command: exact
params: {{n_emitters: {n_em}, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: {omega}, gamma_minus: 0.1, gamma_z: 1.0}}
hilbert: {{n_max: 2}}
"""
    dark = _exact_row(tmp_path, doc.format(n_em=1, omega=0.0), fmt)
    assert math.isnan(dark["g2_zero"]) and math.isnan(dark["cross_pm"])
    assert dark["photon_number"] <= VACUUM_THRESHOLD and dark["n_max_converged"] == 4
    pair = _exact_row(tmp_path, doc.format(n_em=2, omega=1.0), fmt)
    assert math.isfinite(pair["g2_zero"]) and math.isfinite(pair["cross_pm"])


def test_reflectance_long_form_and_sidecar(tmp_path):
    doc = """
command: reflectance
optics:
  e_c0: 2300.0
  n_eff: 1.8
  delta: 2350.0
  g_coll: 11.0
  kappa: 134.0
  gamma_perp: 331.0
  n_theta: 5
  n_energy: 11
"""
    cfg = _write(tmp_path, "r.yaml", doc)
    out = tmp_path / "out"
    assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "reflectance_result.csv").read_text().strip().splitlines()
    assert lines[0] == "theta_deg,energy_mev,reflectance"
    assert len(lines) == 1 + 5 * 11
    refl = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(0.0 <= r <= 1.0 for r in refl)
    branches = json.loads((out / "reflectance_branches.json").read_text())
    assert len(branches["theta_deg"]) == 5
    assert all(lo <= hi for lo, hi in zip(branches["lp_re_mev"], branches["up_re_mev"]))


def test_fit_command_with_noise_seeded(tmp_path):
    doc = """
command: fit
seed: 5
fit:
  noise_sigma: 0.12
  points:
""" + "\n".join(f"    - [{n}, {1.0 * n**0.25}]" for n in (100, 316, 1000, 3162, 10000))
    cfg = _write(tmp_path, "f.yaml", doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
    assert main(["fit", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
    assert (out_a / "fit_result.csv").read_bytes() == (out_b / "fit_result.csv").read_bytes()
    summary = json.loads((out_a / "fit_summary.json").read_text())
    assert abs(summary["alpha"] - 0.25) < 0.2
    # a different seed moves the noised data
    out_c = tmp_path / "c"
    assert main(["fit", "--config", str(cfg), "--out-dir", str(out_c), "--seed", "6"]) == 0
    assert (out_a / "fit_result.csv").read_bytes() != (out_c / "fit_result.csv").read_bytes()


@pytest.mark.parametrize("points, error", [
    ("[[10, 1.0], [10, 2.0]]", "InsufficientPoints"),
    ("[[10, .inf], [100, 2.0]]", "InvalidValue"),
    ("[[.inf, 1.0], [100, 2.0]]", "InvalidValue"),
], ids=["one_n", "inf_ratio", "inf_n"])
def test_fit_without_a_slope_is_a_typed_error_record(tmp_path, capfd, points, error):
    cfg = _write(tmp_path, "bad.yaml", f"command: fit\nfit:\n  points: {points}\n")
    out = tmp_path / "out"
    assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == 1
    captured = capfd.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == error
    assert not out.exists() or not any(out.glob("*"))


def test_validate_command_round_trip_config(tmp_path):
    doc = "command: validate\nformat: json\n" + """
params: {n_emitters: 10000, delta: 2350.0, delta_c: 2350.0, g: 0.11, kappa: 134.0,
         omega: 1.0, gamma_minus: 1.0, gamma_z: 10.0}
"""
    cfg = _write(tmp_path, "v.yaml", doc)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "validate_result.json").read_text())
    assert payload["summary"]["valid"] is True
    assert payload["summary"]["time_unit_ps"] == pytest.approx(0.6582, abs=1e-4)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert manifest["config"]["params"]["g"] == pytest.approx(0.11)


@pytest.mark.parametrize("config, section, resolved", [
    ("cumulant_collective.yaml", "params", {"omega": 2.0}),
    ("reflectance_d4.yaml", "optics", {"kappa_ext": 67.0, "e_min": 1900.0, "e_max": 2800.0}),
])
def test_the_manifest_echoes_the_config_as_run(tmp_path, config, section, resolved):
    # the drive's omega and the optics defaults, not the document's placeholders
    path = next(p for p in CONFIGS if p.name == config)
    command = parse_config(path.read_text(encoding="utf-8")).command
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    echoed = json.loads((tmp_path / "run_manifest.json").read_text())["config"][section]
    assert {key: echoed[key] for key in resolved} == resolved


def test_run_config_objects_directly(tmp_path):
    config = parse_config(CUMULANT_DOC.format(omega="1.0"))
    from dataclasses import replace

    config = replace(config, output_dir=str(tmp_path / "direct"))
    paths = run(config)
    names = sorted(p.name for p in paths)
    assert names == ["cumulant_result.csv", "run_manifest.json"]


def test_exact_solves_each_ladder_rung_once(tmp_path, monkeypatch):
    import superrad.exact

    solved = []
    original = superrad.exact.steady_state_exact

    def counting(liou):
        solved.append(liou.hilbert.n_max)
        return original(liou)

    monkeypatch.setattr(superrad.exact, "steady_state_exact", counting)
    doc = """
command: exact
params: {n_emitters: 1, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: 0.01, gamma_minus: 0.1, gamma_z: 1.0}
hilbert: {n_max: 3}
"""
    cfg = _write(tmp_path, "g.yaml", doc)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "exact_result.csv").read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert solved == list(range(3, int(row["n_max_converged"]) + 1, 2))


@pytest.mark.parametrize("n_em, omega", [(1, 0.01), (2, 1.0), (3, 4.0)])
def test_g2_flux_agrees_with_the_flux_ladder(tmp_path, n_em, omega):
    # the exact command converges <a'a> together with g2(0) and the rest, so
    # its flux is a converged value too; the two ladders may stop on different rungs
    doc = f"""
command: exact
params: {{n_emitters: {n_em}, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: {omega}, gamma_minus: 0.1, gamma_z: 1.0}}
hilbert: {{n_max: 3}}
"""
    cfg = _write(tmp_path, "g.yaml", doc)
    out = tmp_path / "out"
    assert main(["exact", "--config", str(cfg), "--out-dir", str(out)]) == 0
    row = next(csv.DictReader(io.StringIO((out / "exact_result.csv").read_text())))
    p = SystemParams(n_em, 2350.0, 2350.0, 5.0, 50.0, omega, 0.1, 1.0)
    flux = photon_flux_exact(p, HilbertConfig(3, n_em))
    assert float(row["flux_mev"]) == pytest.approx(flux, rel=FLUX_CUTOFF_RTOL)
    assert float(row["flux_mev"]) == 50.0 * float(row["photon_number"])


@pytest.mark.parametrize("argv, message", [
    (["frob", "--config", "x.yaml"], "argument command: invalid choice: 'frob'"),
    (["g2", "--config", "x.yaml"], "argument command: invalid choice: 'g2'"),
    (["exact"], "the following arguments are required: --config"),
    ([], "the following arguments are required: command, --config"),
    (["exact", "--config", "x.yaml", "--frob", "1"], "unrecognized arguments: --frob 1"),
], ids=["unknown_command", "g2", "no_config", "nothing", "unknown_flag"])
def test_a_usage_error_is_a_usage_error_record(tmp_path, capfd, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    record = _error_record(capfd, argv, tmp_path / "out")
    assert record["error"] == "UsageError" and record["message"].startswith(message)
    assert list(tmp_path.iterdir()) == []


def test_help_still_prints_usage_and_exits_0(capfd):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    captured = capfd.readouterr()
    assert captured.out.startswith("usage: superrad") and captured.err == ""


def test_a_g2_document_is_a_config_error_record(tmp_path, capfd):
    shipped = next(c for c in CONFIGS if c.stem == "g2_antibunching").read_text(encoding="utf-8")
    assert "\ncommand: exact\n" in shipped
    cfg = _write(tmp_path, "g.yaml", shipped.replace("\ncommand: exact\n", "\ncommand: g2\n"))
    out = tmp_path / "out"
    record = _error_record(capfd, ["exact", "--config", str(cfg), "--out-dir", str(out)], out)
    assert issubclass(getattr(errors, record["error"]), ConfigError)
    assert "'command'" in record["message"] and "'g2'" in record["message"]


def test_main_builds_no_parser_of_its_own(tmp_path, monkeypatch):
    # the argument parser is built once, when the module is imported
    def unbuildable(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", unbuildable)
    cfg = _write(tmp_path, "c.yaml", CUMULANT_DOC.format(omega=1.0).replace("cumulant", "validate"))
    assert main(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0


def test_every_command_has_one_handler():
    assert set(_HANDLERS) == set(COMMANDS)


REFLECTANCE_DOC = """
command: reflectance
optics:
  e_c0: 2300.0
  n_eff: 1.8
  delta: 2350.0
  g_coll: 11.0
  kappa: 134.0
  gamma_perp: 331.0
  n_theta: 5
  n_energy: 11
"""


@pytest.mark.parametrize("command, doc", [
    ("reflectance", REFLECTANCE_DOC.replace("n_eff: 1.8", "n_eff: 0.9")),
    ("reflectance", REFLECTANCE_DOC + "  kappa_ext: 200.0\n"),
    ("sweep", SWEEP_DOC.replace("[100, 1000, 10000]", "[10000, 1000, 100]")),
], ids=["n_eff_below_1", "kappa_ext_above_kappa", "descending_n_values"])
def test_invalid_value_error_record(tmp_path, capsys, command, doc):
    cfg = _write(tmp_path, "bad.yaml", doc)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "InvalidValue"
    assert not out.exists() or not any(out.glob("*"))


def test_emitter_pole_on_the_grid_is_a_zero_linewidth_record(tmp_path, capsys):
    # gamma_perp = 0 with g_coll != 0, and the default grid delta +- 500 meV in
    # 11 steps has a point at delta = 2350 meV, where g^2 / (gamma_perp/2 - i(E - delta)) has its pole
    cfg = _write(tmp_path, "bad.yaml", REFLECTANCE_DOC.replace("gamma_perp: 331.0", "gamma_perp: 0.0"))
    out = tmp_path / "out"
    assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "ZeroLinewidth"
    assert "gamma_perp = 0" in record["message"] and "2350.0 meV" in record["message"]
    assert not out.exists() or not any(out.glob("*"))


def test_coupling_without_a_finite_square_is_an_invalid_value_record(tmp_path, capsys):
    # the optics square g_coll as a float, which overflows past about 1.3e154 meV
    cfg = _write(tmp_path, "bad.yaml", REFLECTANCE_DOC.replace("g_coll: 11.0", "g_coll: 1.0e+200"))
    out = tmp_path / "out"
    assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "InvalidValue"
    assert "g_coll" in record["message"]
    assert not out.exists() or not any(out.glob("*"))


@pytest.mark.parametrize("old, new, named", [
    ("g_coll: 11.0", "g_coll: 1.0e+154", "'g_coll' = 1e+154 meV"),
    ("n_energy: 11", "n_energy: 11\n  e_max: 1.0e+200", "the energy 1e+200 meV"),
], ids=["emitter_term", "energy"])
def test_reflectance_past_the_float_range_is_an_invalid_value_record(tmp_path, capsys, old, new, named):
    # g_coll^2 and the energies are finite, but R squares the emitter term and E_c - E
    cfg = _write(tmp_path, "bad.yaml", REFLECTANCE_DOC.replace(old, new))
    out = tmp_path / "out"
    assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "InvalidValue"
    assert named in record["message"]
    assert not out.exists() or not any(out.glob("*"))


def test_strong_finite_coupling_keeps_the_reflectance_in_range(tmp_path):
    cfg = _write(tmp_path, "r.yaml", REFLECTANCE_DOC.replace("g_coll: 11.0", "g_coll: 1.0e+70"))
    out = tmp_path / "out"
    assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "reflectance_result.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 5 * 11
    assert all(0.0 <= float(line.split(",")[2]) <= 1.0 for line in lines[1:])


def test_negative_grid_size_is_a_type_mismatch_record(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.yaml", REFLECTANCE_DOC.replace("n_theta: 5", "n_theta: -3"))
    out = tmp_path / "out"
    assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "TypeMismatch"
    assert "optics.n_theta" in record["message"]
    assert not out.exists()


def test_zero_cutoff_is_a_type_mismatch_record(tmp_path, capsys):
    # the schema's bound refuses n_max: 0 before a HilbertConfig is made
    doc = CUMULANT_DOC.format(omega="1.0").replace("command: cumulant", "command: exact")
    cfg = _write(tmp_path, "bad.yaml", doc + "hilbert: {n_max: 0}\n")
    out = tmp_path / "out"
    assert main(["exact", "--config", str(cfg), "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "TypeMismatch"
    assert "hilbert.n_max" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("config", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_shipped_configs_write_plain_numbers(tmp_path, config, fmt):
    # a numpy scalar's repr, such as np.float64(4.03), is not a number a reader can parse
    command = parse_config(config.read_text(encoding="utf-8")).command
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out-dir", str(out), "--format", fmt]
    assert main(argv) == 0
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"))
        else:
            header, *lines = path.read_text(encoding="utf-8").splitlines()
            assert lines
            for line in lines:
                cells = line.split(",")
                assert len(cells) == len(header.split(","))
                for cell in cells:
                    float(cell)


def _reference_csv(rows):
    """The per-row writer the column writer replaced: csv.writer over repr cells."""
    def fmt(value):
        return repr(float(value)) if isinstance(value, float) else str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([fmt(v) for v in row.values()])
    return buf.getvalue()


SPECIAL = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 0.1, 0.1, -0.0, 1e300,
           5e-324, -2.5, float("nan"), 0.0, float("inf")]
TABLES = {
    "mixed": {
        "z_special": np.array(SPECIAL),
        "a_count": list(range(len(SPECIAL))),
        "m_cells": [np.float64(v) if k % 2 else v for k, v in enumerate(SPECIAL)],
        "b_axis": np.repeat(np.array([-0.0, 0.0, 1.25, 1.25, 3.0, -7.5, 2.0]), 2),
    },
    "one_row": {"n_emitters": [3], "g2_zero": [np.float64(0.026468058264284194)],
                "cross_pm": [float("nan")], "flux_mev": [-0.0]},
    "one_column": {"ratio": np.array([-float("inf"), 1.0, 1.0])},
    "grid": {
        "theta": _Axis(np.array([-0.0, 0.0, float("nan"), float("inf"), 0.1]), 3, 2),
        "energy": _Axis(np.array([2.5, -float("inf"), -0.0, float("nan"), 1e300, 0.0]), 5, 1),
        "count": list(range(30)),
        "r": np.linspace(-1.0, 1.0, 30),
    },
    "one_chunk": {
        "n": list(range(_ROWS_PER_CHUNK)),
        "x": np.linspace(-3.0, 3.0, _ROWS_PER_CHUNK),
        "y": [k / 7 for k in range(_ROWS_PER_CHUNK)],
    },
    "one_chunk_and_a_row": {
        "n": list(range(_ROWS_PER_CHUNK + 1)),
        "x": np.append(np.linspace(0.0, 1.0, _ROWS_PER_CHUNK), float("nan")),
        "y": [k / 7 for k in range(_ROWS_PER_CHUNK)] + [-float("inf")],
    },
    # 10000 rows, so three chunks; every nan and infinity is in the last
    "grid_over_three_chunks": {
        "theta": _Axis(np.append(np.linspace(0.0, 60.0, 99), float("inf")), 100, 1),
        "energy": _Axis(np.linspace(1900.0, 2800.0, 100), 1, 100),
        "r": np.concatenate([np.linspace(0.0, 1.0, 9997),
                             [float("nan"), float("inf"), -float("inf")]]),
    },
}


def _expanded(column):
    """The cells of a column, an axis repeated as the grid's rows see it."""
    if isinstance(column, _Axis):
        return [v for v in column.values.tolist() for _ in range(column.each)] * column.times
    return list(column)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_column_writers_match_the_stdlib_writers(name):
    columns = TABLES[name]
    rows = [dict(zip(columns, cells))
            for cells in zip(*map(_expanded, columns.values()), strict=True)]
    # the rows come in chunks of at most _ROWS_PER_CHUNK, then the tail
    chunks = -(-len(rows) // _ROWS_PER_CHUNK) + 1
    csv_chunks = list(_csv_text(columns))
    assert len(csv_chunks) == chunks
    assert "".join(csv_chunks) == _reference_csv(rows)
    rest = {"summary": {"alpha": 0.25, "rmsd": float("nan")},
            "reflectance_branches": {"theta_deg": [0.0, -0.0, float("inf")]}}
    for payload in (rest, {"summary": None}):
        expected = json.dumps({**payload, "rows": rows}, indent=2, sort_keys=True) + "\n"
        json_chunks = list(_json_result_text(columns, payload))
        assert len(json_chunks) == chunks
        assert "".join(json_chunks) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reflectance_files_match_the_stdlib_writers_over_the_map(tmp_path, fmt):
    # a small grid, then the shipped one, whose whole-number energies (1903.0)
    # and 12 cells below 1e-4 take the float text's other paths
    optics = dict(e_c0=2300.0, n_eff=1.8, delta=2350.0, g_coll=11.0, kappa=134.0,
                  kappa_ext=67.0, gamma_perp=331.0)
    small = "command: reflectance\noptics:\n" + "".join(f"  {k}: {v}\n" for k, v in optics.items())
    small += "  theta_min: 0.0\n  theta_max: 48.0\n  n_theta: 4\n"
    small += "  e_min: 2100.0\n  e_max: 2600.0\n  n_energy: 5\n"
    shipped = next(c for c in CONFIGS if c.stem == "reflectance_d4").read_text(encoding="utf-8")
    for name, doc, cells in (("small", small, 20), ("shipped", shipped, 65 * 301)):
        out = tmp_path / name
        cfg = _write(tmp_path, f"{name}.yaml", doc)
        assert main(["reflectance", "--config", str(cfg), "--out-dir", str(out),
                     "--format", fmt]) == 0
        o = parse_config(doc).optics
        rmap = compute_reflectance_map(o.optical_params(),
                                       np.linspace(o.theta_min, o.theta_max, o.n_theta),
                                       np.linspace(o.e_min, o.e_max, o.n_energy))
        rows = [{"theta_deg": theta, "energy_mev": energy, "reflectance": r}
                for theta, line in zip(rmap.thetas.tolist(), rmap.r_values.tolist())
                for energy, r in zip(rmap.energies.tolist(), line)]
        assert len(rows) == cells and rows[0]["theta_deg"] == 0.0
        branches = {"theta_deg": rmap.thetas.tolist(),
                    "lp_re_mev": rmap.lp_branch.real.tolist(),
                    "lp_im_mev": rmap.lp_branch.imag.tolist(),
                    "up_re_mev": rmap.up_branch.real.tolist(),
                    "up_im_mev": rmap.up_branch.imag.tolist()}
        if fmt == "csv":
            text = (out / "reflectance_result.csv").read_text(encoding="utf-8")
            assert text == _reference_csv(rows)
            expected = {"reflectance_branches.json": branches}
        else:
            expected = {"reflectance_result.json": {"summary": None,
                                                    "reflectance_branches": branches,
                                                    "rows": rows}}
        for file, obj in expected.items():
            text = (out / file).read_text(encoding="utf-8")
            assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert sum(r["reflectance"] < 1e-4 for r in rows) == 12
    assert rows[1]["energy_mev"] == 1903.0


def _float_corpus(rng):
    """Seeded doubles for the float text, about 1.2 million, every kind of value."""
    n = 200_000
    anything = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    # exponent fields 1009..1076 hold |v| from 6.1e-5 to 3.6e16, the kernel's domain and its edges
    domain = ((rng.integers(1009, 1077, n, dtype=np.uint64) << np.uint64(52))
              | rng.integers(0, 2**52, n, dtype=np.uint64)
              | (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))).view(np.float64)
    scales = 10.0 ** rng.integers(-5, 17, (17, 15_000))
    decimals = np.concatenate([np.round(rng.random(15_000) * scales[p], p) for p in range(17)])
    decimals *= rng.choice([-1.0, 1.0], len(decimals))
    # exact binary fractions, many with a tie between two nearest 17-digit decimals
    dyadic = np.ldexp(rng.integers(1, 2**53, n).astype(np.float64), -rng.integers(0, 64, n))
    whole = rng.integers(1, 10**16, n).astype(np.float64)
    edges = np.array([float(2.0**e) for e in range(-1074, 1024)]
                     + [float(f"1e{e}") for e in range(-323, 309)] + [1e-4, 1e16])
    for _ in range(3):
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    special = np.array([0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf,
                        123456789012345.625, 0.3, 2.0**-14, 9999999999999998.0])
    return np.concatenate([anything[np.isfinite(anything)], domain, decimals, dyadic, whole,
                           edges, -edges, special])


def test_float_texts_are_float_repr_on_a_corpus():
    values = _float_corpus(np.random.default_rng(36))
    assert len(values) > 10**6
    for start in range(0, len(values), _ROWS_PER_CHUNK):
        part = values[start:start + _ROWS_PER_CHUNK]
        texts = _float_texts(part)
        expected = list(map(float.__repr__, part.tolist()))
        if texts != expected:
            bad = next(k for k, (t, e) in enumerate(zip(texts, expected)) if t != e)
            pytest.fail(f"{part[bad].tobytes().hex()}: {texts[bad]!r}, repr {expected[bad]!r}")
