"""Command-line front end: parse config, dispatch to solvers, write artifacts.

Usage:
    superrad <command> --config <path> [--out-dir <path>] [--format csv|json] [--seed <u64>]

Each run writes `<command>_result.(csv|json)` plus `run_manifest.json`; some
commands add JSON sidecars (fit summary, polariton branches).  Data files are
byte-identical across runs with the same config and seed.  On failure nothing
is written and a machine-readable error record goes to stdout.

Each command handler returns its result table as columns: one mapping from
column name to a list, or to a float64 array for the large tables.  Each
column is turned into text once, a float array with each distinct value
(by bit pattern, so -0.0 and 0.0 stay apart) encoded once, and the table is
written from that text: CSV as comma-joined lines, and the JSON "rows" array
from one per-row template that is spliced into the payload.  The text is the
same as `csv.writer` over `repr` cells and `json.dumps(indent=2,
sort_keys=True)` would write, with nan and infinities spelled `nan`/`inf` in
CSV and `NaN`/`Infinity` in JSON.  The stdlib encoder still writes the small
objects: summary, sidecars and manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import HilbertSection, RunConfig, _to_plain, parse_config
from .cumulant import integrate_to_steady_state
from .errors import ConfigError, SuperradError
from .exact import (
    HilbertConfig,
    _number_and_g2,
    build_symmetric_liouvillian,
    converge_in_cutoff,
    expectation,
    steady_state_exact,
)
from .optics import OpticalParams, compute_reflectance_map
from .params import validate_params
from .sweep import SweepSpec, fit_power_law, run_concentration_sweep
from .units import TIME_UNIT_PS


_CSV_NONFINITE = {}  # keeps repr's nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cell_text(value) -> str:
    """Shortest round-trip text of a float, plain for numpy floats too; str of an int."""
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _column_text(column, nonfinite) -> list[str]:
    """The text of each cell of one column, with nan and the infinities respelled.

    A float64 array, as the large tables give, is deduplicated on its bit
    pattern, never on ==, so that -0.0 and 0.0 keep their own spellings, and
    each distinct value is encoded once.  A list, as the one-row tables give,
    is mapped cell by cell.
    """
    if isinstance(column, np.ndarray):
        distinct, index = np.unique(column.view(np.int64), return_inverse=True)
        floats = distinct.view(np.float64).tolist()
        texts = [nonfinite.get(t, t) for t in map(float.__repr__, floats)]
        return [texts[i] for i in index.tolist()]
    return [nonfinite.get(t, t) for t in map(_cell_text, column)]


def _atomic_write(path: Path, data: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows) -> str:
    """CSV of a column table, with its column names as the header."""
    cells = zip(*(_column_text(column, _CSV_NONFINITE) for column in rows.values()))
    return ",".join(rows) + "\n" + "\n".join(map(",".join, cells)) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_result_text(rows, payload) -> str:
    """`_json_text` of `payload` with the column table `rows` as its "rows" list of objects."""
    names = sorted(rows)
    fields = ",\n".join(f"      {json.dumps(name)}: %s" for name in names)
    template = "    {\n" + fields + "\n    }"
    cells = zip(*(_column_text(rows[name], _JSON_NONFINITE) for name in names))
    table = "[\n" + ",\n".join(map(template.__mod__, cells)) + "\n  ]"
    # a newline inside a JSON string is escaped, so this matches only the top-level key
    text = _json_text({**payload, "rows": None})
    return text.replace('\n  "rows": null', '\n  "rows": ' + table, 1)


def _one_row(**cells):
    return {name: [value] for name, value in cells.items()}


# --- command handlers: each returns (columns, summary, sidecars) ---------------

def _cmd_validate(config: RunConfig, _rng):
    p = validate_params(config.effective_params())
    rows = _one_row(
        n_emitters=p.n_emitters, delta_mev=p.delta, delta_c_mev=p.delta_c,
        g_mev=p.g, kappa_mev=p.kappa, omega_mev=p.omega,
        gamma_minus_mev=p.gamma_minus, gamma_z_mev=p.gamma_z,
    )
    return rows, {"valid": True, "time_unit_ps": TIME_UNIT_PS}, {}


def _hilbert_config(config: RunConfig) -> HilbertConfig:
    section = config.hilbert or HilbertSection()
    return HilbertConfig(n_max=section.n_max, n_emitters=config.effective_params().n_emitters,
                         cap=section.cap)


def _cmd_exact(config: RunConfig, _rng):
    p = validate_params(config.effective_params())
    h = _hilbert_config(config)
    rho = steady_state_exact(build_symmetric_liouvillian(p, h))
    n_phot = expectation(rho, "photon_number", h).real
    s_z = expectation(rho, "sigma_z", h, 0).real
    x_pm = expectation(rho, "cross_pm", h, 0, 1).real if p.n_emitters >= 2 else float("nan")
    rows = _one_row(
        n_emitters=p.n_emitters, n_max=h.n_max, photon_number=n_phot,
        flux_mev=p.kappa * n_phot, sigma_z=s_z, cross_pm=x_pm,
    )
    return rows, None, {}


def _cmd_cumulant(config: RunConfig, _rng):
    p = validate_params(config.effective_params())
    m = integrate_to_steady_state(p)
    rows = _one_row(
        n_emitters=p.n_emitters, omega_mev=p.omega, n_photon=m.n_photon,
        s_z=m.s_z, coh_re=m.coh.real, coh_im=m.coh.imag,
        x_pm_re=m.x_pm.real, x_pm_im=m.x_pm.imag, z_zz=m.z_zz,
        flux_mev=p.kappa * m.n_photon,
    )
    return rows, None, {}


def _cmd_sweep(config: RunConfig, _rng):
    p = validate_params(config.effective_params())
    spec = SweepSpec(
        n_values=config.sweep.n_values,
        drive_rule=config.sweep.drive_rule,
        base_params=p,
        gamma_r=config.sweep.gamma_r,
    )
    sweep_rows = run_concentration_sweep(spec)
    fit = fit_power_law([(r.n, r.ratio) for r in sweep_rows])
    rows = {
        "n": [r.n for r in sweep_rows], "omega_mev": [r.omega for r in sweep_rows],
        "l_cavity_mev": [r.l_cavity for r in sweep_rows],
        "l_control_mev": [r.l_control for r in sweep_rows],
        "ratio": [r.ratio for r in sweep_rows],
    }
    summary = {"alpha": fit.alpha, "prefactor": fit.prefactor, "rmsd": fit.rmsd}
    return rows, summary, {}


def _cmd_reflectance(config: RunConfig, _rng):
    o = config.optics
    params = OpticalParams(
        e_c0=o.e_c0, n_eff=o.n_eff, delta=o.delta, g_coll=o.g_coll, kappa=o.kappa,
        kappa_ext=o.kappa_ext if o.kappa_ext is not None else o.kappa / 2,
        gamma_perp=o.gamma_perp,
    )
    thetas = np.linspace(o.theta_min, o.theta_max, o.n_theta)
    e_lo = o.e_min if o.e_min is not None else o.delta - 500.0
    e_hi = o.e_max if o.e_max is not None else o.delta + 500.0
    energies = np.linspace(e_lo, e_hi, o.n_energy)
    rmap = compute_reflectance_map(params, thetas, energies)
    nt, ne = rmap.r_values.shape
    rows = {
        "theta_deg": np.repeat(rmap.thetas, ne),
        "energy_mev": np.tile(rmap.energies, nt),
        "reflectance": rmap.r_values.ravel(),
    }
    branches = {
        "theta_deg": rmap.thetas.tolist(),
        "lp_re_mev": rmap.lp_branch.real.tolist(),
        "lp_im_mev": rmap.lp_branch.imag.tolist(),
        "up_re_mev": rmap.up_branch.real.tolist(),
        "up_im_mev": rmap.up_branch.imag.tolist(),
    }
    return rows, None, {"reflectance_branches.json": branches}


def _cmd_fit(config: RunConfig, rng):
    points = [(n, r) for n, r in config.fit.points]
    if config.fit.noise_sigma > 0:
        noise = np.exp(rng.normal(0.0, config.fit.noise_sigma, len(points)))
        points = [(n, r * w) for (n, r), w in zip(points, noise)]
    fit = fit_power_law(points)
    rows = {"n": [n for n, _ in points], "ratio": [r for _, r in points]}
    summary = {"alpha": fit.alpha, "prefactor": fit.prefactor, "rmsd": fit.rmsd}
    return rows, summary, {}


def _cmd_g2(config: RunConfig, _rng):
    p = validate_params(config.effective_params())
    (n_phot, g2), h, _ = converge_in_cutoff(p, _hilbert_config(config), _number_and_g2)
    rows = _one_row(
        n_emitters=p.n_emitters, n_max_converged=h.n_max,
        photon_number=n_phot, flux_mev=p.kappa * n_phot, g2_zero=g2,
    )
    return rows, None, {}


_HANDLERS = {
    "validate": _cmd_validate,
    "exact": _cmd_exact,
    "cumulant": _cmd_cumulant,
    "sweep": _cmd_sweep,
    "reflectance": _cmd_reflectance,
    "fit": _cmd_fit,
    "g2": _cmd_g2,
}


def run(config: RunConfig) -> list[Path]:
    """Execute a parsed configuration and write its artifacts.

    All payloads are computed before anything is written, and each file is
    written atomically, so a failing run leaves no partial result files.
    Returns the written paths.
    """
    started = time.monotonic()
    rng = np.random.default_rng(config.seed)
    rows, summary, sidecars = _HANDLERS[config.command](config, rng)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: list[tuple[Path, str]] = []
    if config.format == "csv":
        artifacts.append((out_dir / f"{config.command}_result.csv", _csv_text(rows)))
        if summary is not None:
            artifacts.append((out_dir / f"{config.command}_summary.json", _json_text(summary)))
        for name, obj in sidecars.items():
            artifacts.append((out_dir / name, _json_text(obj)))
    else:
        payload = {"summary": summary}
        for name, obj in sidecars.items():
            payload[Path(name).stem] = obj
        artifacts.append((out_dir / f"{config.command}_result.json",
                          _json_result_text(rows, payload)))

    manifest = {
        "command": config.command,
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
        "config": _to_plain(config),
        "artifacts": [p.name for p, _ in artifacts],
    }
    artifacts.append((out_dir / "run_manifest.json", _json_text(manifest)))

    written = []
    for path, text in artifacts:
        _atomic_write(path, text)
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superrad",
        description="Steady-state collective emission toolkit.",
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--config", required=True, help="path to the YAML configuration")
    parser.add_argument("--out-dir", default=None, help="override config output_dir")
    parser.add_argument("--format", default=None, choices=["csv", "json"],
                        help="override config format")
    parser.add_argument("--seed", default=None, type=int, help="override config seed")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        print(json.dumps({"error": "ConfigFileUnreadable", "message": str(e)}))
        return 1

    try:
        config = parse_config(text)
        if config.command != args.command:
            raise ConfigError(
                f"config document is for command '{config.command}', "
                f"but '{args.command}' was requested"
            )
        if args.out_dir is not None:
            config = replace(config, output_dir=args.out_dir)
        if args.format is not None:
            config = replace(config, format=args.format)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be non-negative")
            config = replace(config, seed=args.seed)
        written = run(config)
    except SuperradError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        return 1

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
