import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from superrad.cli import _HANDLERS, _csv_text, _json_result_text, main, run
from superrad.config import COMMANDS, parse_config
from superrad.exact import HilbertConfig, photon_flux_exact
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
params: {n_emitters: 6, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: 1.0, gamma_minus: 0.1, gamma_z: 1.0}
hilbert: {n_max: 10, cap: 512}
"""
    cfg = _write(tmp_path, "e.yaml", doc)
    out = tmp_path / "out"
    code = main(["exact", "--config", str(cfg), "--out-dir", str(out)])
    assert code != 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "DimensionCap"
    assert not out.exists() or not any(out.glob("*_result.*"))


def test_exact_out_of_memory_error_record(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

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


def test_error_leaves_no_partial_result(tmp_path, capsys):
    # sweep with an impossible params section (negative rate) fails validation
    doc = SWEEP_DOC.replace("kappa: 134.0", "kappa: -134.0")
    cfg = _write(tmp_path, "bad.yaml", doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) != 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "NegativeRate"
    assert not out.exists() or not any(out.glob("*"))


def test_command_mismatch_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", CUMULANT_DOC.format(omega="1.0"))
    assert main(["exact", "--config", str(cfg)]) != 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["error"] == "ConfigError"


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


def test_g2_command(tmp_path):
    doc = """
command: g2
params: {n_emitters: 1, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: 0.01, gamma_minus: 0.1, gamma_z: 1.0}
hilbert: {n_max: 3}
"""
    cfg = _write(tmp_path, "g.yaml", doc)
    out = tmp_path / "out"
    assert main(["g2", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "g2_result.csv").read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["g2_zero"]) < 0.5


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


def test_run_config_objects_directly(tmp_path):
    config = parse_config(CUMULANT_DOC.format(omega="1.0"))
    from dataclasses import replace

    config = replace(config, output_dir=str(tmp_path / "direct"))
    paths = run(config)
    names = sorted(p.name for p in paths)
    assert names == ["cumulant_result.csv", "run_manifest.json"]


def test_g2_solves_each_ladder_rung_once(tmp_path, monkeypatch):
    import superrad.cli
    import superrad.exact

    solved = []
    original = superrad.exact.steady_state_exact

    def counting(liou):
        solved.append(liou.hilbert.n_max)
        return original(liou)

    monkeypatch.setattr(superrad.exact, "steady_state_exact", counting)
    monkeypatch.setattr(superrad.cli, "steady_state_exact", counting, raising=False)
    doc = """
command: g2
params: {n_emitters: 1, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: 0.01, gamma_minus: 0.1, gamma_z: 1.0}
hilbert: {n_max: 3}
"""
    cfg = _write(tmp_path, "g.yaml", doc)
    out = tmp_path / "out"
    assert main(["g2", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "g2_result.csv").read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert solved == list(range(3, int(row["n_max_converged"]) + 1, 2))


@pytest.mark.parametrize("n_em, omega", [(1, 0.01), (2, 1.0), (3, 4.0)])
def test_g2_flux_agrees_with_the_flux_ladder(tmp_path, n_em, omega):
    # the g2 ladder converges <a'a> together with g2(0), so its flux is a
    # converged value too; the two ladders may stop on different rungs
    doc = f"""
command: g2
params: {{n_emitters: {n_em}, delta: 2350.0, delta_c: 2350.0, g: 5.0, kappa: 50.0,
         omega: {omega}, gamma_minus: 0.1, gamma_z: 1.0}}
hilbert: {{n_max: 3}}
"""
    cfg = _write(tmp_path, "g.yaml", doc)
    out = tmp_path / "out"
    assert main(["g2", "--config", str(cfg), "--out-dir", str(out)]) == 0
    row = next(csv.DictReader(io.StringIO((out / "g2_result.csv").read_text())))
    p = SystemParams(n_em, 2350.0, 2350.0, 5.0, 50.0, omega, 0.1, 1.0)
    flux = photon_flux_exact(p, HilbertConfig(3, n_em))
    assert float(row["flux_mev"]) == pytest.approx(flux, rel=1e-5)
    assert float(row["flux_mev"]) == 50.0 * float(row["photon_number"])


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
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_column_writers_match_the_stdlib_writers(name):
    columns = TABLES[name]
    rows = [dict(zip(columns, cells)) for cells in zip(*(list(c) for c in columns.values()))]
    assert _csv_text(columns) == _reference_csv(rows)
    rest = {"summary": {"alpha": 0.25, "rmsd": float("nan")},
            "reflectance_branches": {"theta_deg": [0.0, -0.0, float("inf")]}}
    for payload in (rest, {"summary": None}):
        expected = json.dumps({**payload, "rows": rows}, indent=2, sort_keys=True) + "\n"
        assert _json_result_text(columns, payload) == expected
