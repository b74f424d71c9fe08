"""Command-line front end: parse config, dispatch to solvers, write artifacts.

Usage:
    superrad <command> --config <path> [--out-dir <path>] [--format csv|json] [--seed <u64>]

Each run writes `<command>_result.(csv|json)` plus `run_manifest.json`, which
echoes the config as run; some commands add JSON sidecars (fit summary,
polariton branches).  Data files are byte-identical across runs with the same
config and seed.  Every failure, a command line that names no command or
lacks --config, an unreadable config file or an I/O error included, is a
SuperradError: nothing is written and its record goes to stdout as one JSON
line.  Every file goes to a temp file first, and all are renamed
into place only once each is written.

Each command handler returns its result table as columns: one mapping from
column name to a list, to a float64 array, or to an `_Axis` of a grid.  A
data file is written in chunks of at most `_ROWS_PER_CHUNK` rows, each one
join over its cells and the separators between them, with the CSV header or
the head of the JSON payload before the first and the rest of the payload
after the last.  A float column becomes text a chunk at a time, and a grid
axis formats its distinct values once, so no run holds the text of a whole
table.  The text is the same as `csv.writer` over `repr` cells and
`json.dumps(indent=2, sort_keys=True)` would write, with nan and infinities
spelled `nan`/`inf` in CSV and `NaN`/`Infinity` in JSON.  The stdlib encoder
still writes the small objects: summary, sidecars and manifest.

A float array becomes text through `_float_texts`, which finds the digits
that `float.__repr__` prints for a whole array at once: for |v| in
[1e-4, 1e16), where repr writes fixed notation, the shortest decimal that
reads back as v (the nearest one of that length, ties to even), found
exactly with float arithmetic on a * 10^k held as a sum of two doubles.
Every other value (0, -0.0, subnormals, |v| < 1e-4, |v| >= 1e16, nan and
the infinities) is written by `float.__repr__` itself, one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import secrets
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import HilbertSection, RunConfig, _to_plain, parse_config
from .cumulant import integrate_to_steady_state
from .errors import (
    ConfigError,
    ConfigFileUnreadable,
    OutputUnwritable,
    SuperradError,
    UsageError,
)
from .exact import HilbertConfig, _steady_values, converge_in_cutoff
from .optics import compute_reflectance_map
from .sweep import fit_power_law, run_concentration_sweep
from .units import TIME_UNIT_PS


_CSV_NONFINITE = {}  # keeps repr's nan, inf, -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ROWS_PER_CHUNK = 4096  # rows turned into text and written at a time


def _cell_text(value) -> str:
    """Shortest round-trip text of a float, plain for numpy floats too; str of an int."""
    return float.__repr__(value) if isinstance(value, float) else str(value)


# --- float text: the digits of float.__repr__ for a whole array -----------------

_POW10 = np.array([float(10**k) for k in range(23)])  # 10^k, exact up to 10^22
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")


def _quads() -> np.ndarray:
    """The ASCII digits of 0000..9999, four bytes in each uint32, then the same with
    their trailing zeros as NUL, which a `U` array drops from the end of a text."""
    chars = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(_ZERO)
    trailing = np.logical_and.accumulate(chars[:, ::-1] == _ZERO, axis=1)[:, ::-1]
    table = np.vstack([chars, np.where(trailing, 0, chars)])
    return np.ascontiguousarray(table).view(np.uint32).ravel()


_QUADS = _quads()


def _shortest_digits(a: np.ndarray):
    """The decimal `float.__repr__` prints for each a in [1e-4, 1e16): (top, low, point).

    That decimal is 0.d1...d17 x 10^point, with d1..d9 the whole float top
    (1e8 <= top < 1e9) and d10..d17 the whole float low (< 1e8), trailing
    zeros included: the shortest that reads back as a, the nearest to a of
    that length, and of two as near the even one.
    """
    # V = a 10^k in [1e16, 1e17) is exactly hi + lo (Dekker's product); log10
    # can miss k by one next to a power of ten, which the exact compare mends
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    sa = a * _SPLIT
    a_hi = sa - (sa - a)
    a_lo = a - a_hi

    def scaled(k):
        hi = a * _POW10[k]
        p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
        return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo

    hi, lo = scaled(k)
    over = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    under = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if over.any() or under.any():
        k = k - over + under
        hi, lo = scaled(k)
    # a decimal reads back as a within half an ulp of it (10^k times a power of
    # two when scaled: exact).  The interval's ends never decide in this range,
    # so they count as inside, as does all the half ulp below a power of two,
    # where only a quarter reads back: a decimal of at most 17 digits at an end
    # needs a >= 2^52, a whole number as short and nearer, and a power of two
    # here is a decimal of at most 16 digits with no shorter one that near
    bits = a.view(np.int64)
    half = _POW10[k] * (((bits >> 52) - 53) << 52).view(np.float64)
    # V = top 1e8 + low + lo with top and low whole: hi / 1e8 never rounds up to
    # a whole number, as hi falls short of one by its ulp or more, which is more
    # than the quotient's half ulp
    top = np.floor(hi / 1e8)
    low = hi - top * 1e8
    # the nearest 17-digit decimal, unless the nearest 16-digit one is inside,
    # unless the nearest 15-digit one is; of two as near, the even one.  Each
    # distance is a multiple of 2^-46 under 2^7, so exact in a double
    for step in (1.0, 10.0, 100.0):
        base = np.floor(low / step) * step
        t = (low - base) + lo  # V - top 1e8 - base
        shift = np.floor(t / step) * step
        below = t - shift  # V's distance above the decimal below it
        above = step - below
        up = above < below
        tie = above == below
        if tie.any():
            up |= tie & (np.remainder((base + shift) / step, 2.0) == 1.0)
        nearest = base + shift + up * step
        chosen = nearest if step == 1.0 else np.where(np.minimum(below, above) <= half,
                                                      nearest, chosen)
    # a carry past 10^8, or a borrow below 0, moves to top.  None reaches 10^17,
    # which needs a power of ten within half an ulp above a, and from 1e-4 up
    # each power of ten is a double or rounds up to one
    carry = np.floor(chosen / 1e8)
    return top + carry, chosen - carry * 1e8, 17 - k


def _digit_chars(top: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The 17 digits of top 1e8 + low as ASCII, one row each, trailing zeros as NUL."""
    lead = np.floor(top / 1e8)
    rest = top - lead * 1e8
    q1 = np.floor(rest / 1e4)
    q2 = rest - q1 * 1e4
    q3 = np.floor(low / 1e4)
    q4 = low - q3 * 1e4
    # "000" and the lead digit, then four groups of four; a group after which
    # all are zero is spelled from the second half of _QUADS
    quads = np.empty((len(top), 5), dtype=np.intp)
    quads[:, 0] = lead
    quads[:, 1] = q1 + ((low == 0) & (q2 == 0)) * 1e4
    quads[:, 2] = q2 + (low == 0) * 1e4
    quads[:, 3] = q3 + (q4 == 0) * 1e4
    quads[:, 4] = q4 + 1e4
    return _QUADS.take(quads).view(np.uint8).reshape(-1, 20)[:, 3:]


def _text_width(kind: int) -> int:
    """The characters of the longest text of a kind: its sign, then digits and point."""
    point = kind // 2 - 3
    return kind % 2 + (18 if point >= 1 else 19 - point)


def _lay_out(out: np.ndarray, chars: np.ndarray, kind: int) -> np.ndarray:
    """Write each row of digits into out as the text of a kind, NUL-padded; returns out.

    A kind is (point + 3) * 2 + negative for the decimal point at -3..16: a
    point >= 1 writes its digits before the decimal point and the rest after
    it (at least one, so a whole number ends in ".0"), and a point <= 0
    writes "0." and -point zeros first.
    """
    point, sign = kind // 2 - 3, kind % 2
    if sign:
        out[:, 0] = _MINUS
    if point >= 1:
        np.maximum(chars[:, :point + 1], _ZERO, out=out[:, sign:sign + point + 1])
        out[:, sign + point + 1] = out[:, sign + point]
        out[:, sign + point] = _DOT
        out[:, sign + point + 2:sign + 18] = chars[:, point + 1:]
    else:
        out[:, sign:sign + 2 - point] = _ZERO
        out[:, sign + 1] = _DOT
        out[:, sign + 2 - point:sign + 19 - point] = chars
    out[:, _text_width(kind):] = 0
    return out


def _float_texts(values: np.ndarray) -> list[str]:
    """[float.__repr__(v) for v in values] for a 1-D float64 array.

    The kernel writes |v| in [1e-4, 1e16); `float.__repr__` writes every
    other value, one at a time.  The texts of the most common kind of a
    chunk (decimal point and sign) are laid out by slicing all rows at once,
    and each other kind then overwrites its own rows.
    """
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e16)  # where repr writes fixed notation
    top, low, point = _shortest_digits(np.where(fixed, a, 1.0))
    chars = _digit_chars(top, low)
    kind = (point + 3) * 2 + (values < 0)
    counts = np.bincount(kind, minlength=40)
    kinds = np.flatnonzero(counts).tolist()
    width = max(map(_text_width, kinds))
    main = int(counts.argmax())
    out = _lay_out(np.empty((len(values), width), dtype=np.uint32), chars, main)
    for other in kinds:
        if other != main:
            rows = np.flatnonzero(kind == other)
            out[rows] = _lay_out(np.empty((len(rows), width), dtype=np.uint32), chars[rows],
                                 other)
    texts = out.view(f"<U{width}").ravel().tolist()
    for i in np.flatnonzero(~fixed).tolist():
        texts[i] = float.__repr__(values[i])
    return texts


@dataclass(frozen=True)
class _Axis:
    """A grid table's column: each of `values` repeated `each` times, the whole `times` times."""
    values: np.ndarray
    each: int
    times: int


def _column_chunks(column, nonfinite):
    """The text of each `_ROWS_PER_CHUNK` cells in turn, nan and infinities respelled.

    A grid axis formats each of its values once.
    """
    if isinstance(column, _Axis):
        texts = np.array([t for part in _column_chunks(column.values, nonfinite) for t in part],
                         dtype=object)
        rows = len(texts) * column.each * column.times
        for start in range(0, rows, _ROWS_PER_CHUNK):
            at = np.arange(start, min(start + _ROWS_PER_CHUNK, rows)) // column.each
            yield texts[at % len(texts)].tolist()
    elif isinstance(column, np.ndarray):
        for start in range(0, len(column), _ROWS_PER_CHUNK):
            part = column[start:start + _ROWS_PER_CHUNK]
            texts = _float_texts(part)
            yield texts if np.isfinite(part).all() else [nonfinite.get(t, t) for t in texts]
    else:
        for start in range(0, len(column), _ROWS_PER_CHUNK):
            cells = column[start:start + _ROWS_PER_CHUNK]
            yield [nonfinite.get(t, t) for t in map(_cell_text, cells)]


def _joined(columns, seps, lead, tail, nonfinite):
    """`lead`, each cell after its column's separator (the lead replaces the first), `tail`.

    Yields the text a chunk of rows at a time, then `tail`.  A table has at
    least one row: the config schema refuses empty lists and grids.
    """
    for texts in zip(*(_column_chunks(column, nonfinite) for column in columns), strict=True):
        n, width = len(texts[0]), 2 * len(texts)
        flat = [""] * (n * width)
        for k, (sep, part) in enumerate(zip(seps, texts)):
            flat[2 * k::width] = [sep] * n
            flat[2 * k + 1::width] = part
        flat[0], lead = lead, seps[0]
        yield "".join(flat)
    yield tail


def _stage(path: Path, chunks) -> Path:
    """Write the text chunks to a new temp file beside `path` and return its path.

    The temp file is created under a random dot-name, and only if no file
    has that name, with the mode that the umask gives any new file.  On an
    error it is removed.
    """
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _csv_text(rows):
    """CSV of a column table, with its column names as the header, in chunks of text."""
    seps = ["\n"] + [","] * (len(rows) - 1)
    return _joined(rows.values(), seps, ",".join(rows) + "\n", "\n", _CSV_NONFINITE)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_result_text(rows, payload):
    """`_json_text` of `payload` with the column table `rows` as its "rows" list of objects.

    The text comes in chunks, as from `_joined`.
    """
    names = sorted(rows)
    keys = [f"\n      {json.dumps(name)}: " for name in names]
    seps = ["\n    },\n    {" + keys[0]] + ["," + key for key in keys[1:]]
    # a newline inside a JSON string is escaped, so this matches only the top-level key
    head, _, rest = _json_text({**payload, "rows": None}).partition('\n  "rows": null')
    return _joined([rows[name] for name in names], seps, head + '\n  "rows": [\n    {' + keys[0],
                   "\n    }\n  ]" + rest, _JSON_NONFINITE)


def _one_row(**cells):
    return {name: [value] for name, value in cells.items()}


# --- command handlers: each returns (columns, summary, sidecars) ---------------

def _cmd_validate(config: RunConfig):
    p = config.params
    rows = _one_row(
        n_emitters=p.n_emitters, delta_mev=p.delta, delta_c_mev=p.delta_c,
        g_mev=p.g, kappa_mev=p.kappa, omega_mev=p.omega,
        gamma_minus_mev=p.gamma_minus, gamma_z_mev=p.gamma_z,
    )
    return rows, {"valid": True, "time_unit_ps": TIME_UNIT_PS}, {}


def _hilbert_config(config: RunConfig) -> HilbertConfig:
    section = config.hilbert or HilbertSection()
    return HilbertConfig(n_max=section.n_max, n_emitters=config.params.n_emitters, cap=section.cap)


def _cmd_exact(config: RunConfig):
    p = config.params
    values, rho = converge_in_cutoff(p, _hilbert_config(config), _steady_values)
    # the ladder compared only the defined values; an undefined one is written as nan
    n_phot, s_z, *rest = values
    x_pm = rest.pop(0) if p.n_emitters >= 2 else float("nan")
    g2 = rest.pop(0) if rest else float("nan")
    rows = _one_row(
        n_emitters=p.n_emitters, n_max_converged=rho.hilbert.n_max, photon_number=n_phot,
        flux_mev=p.kappa * n_phot, sigma_z=s_z, cross_pm=x_pm, g2_zero=g2,
    )
    return rows, None, {}


def _cmd_cumulant(config: RunConfig):
    p = config.params
    m = integrate_to_steady_state(p)
    rows = _one_row(
        n_emitters=p.n_emitters, omega_mev=p.omega, n_photon=m.n_photon,
        s_z=m.s_z, coh_re=m.coh.real, coh_im=m.coh.imag,
        x_pm_re=m.x_pm.real, x_pm_im=m.x_pm.imag, z_zz=m.z_zz,
        flux_mev=p.kappa * m.n_photon,
    )
    return rows, None, {}


def _cmd_sweep(config: RunConfig):
    sweep_rows = run_concentration_sweep(config.sweep_spec())
    fit = fit_power_law([(r.n, r.ratio) for r in sweep_rows])
    rows = {
        "n": [r.n for r in sweep_rows], "omega_mev": [r.omega for r in sweep_rows],
        "l_cavity_mev": [r.l_cavity for r in sweep_rows],
        "l_control_mev": [r.l_control for r in sweep_rows],
        "ratio": [r.ratio for r in sweep_rows],
    }
    return rows, asdict(fit), {}


def _cmd_reflectance(config: RunConfig):
    o = config.optics
    params = o.optical_params()
    thetas = np.linspace(o.theta_min, o.theta_max, o.n_theta)
    energies = np.linspace(o.e_min, o.e_max, o.n_energy)
    rmap = compute_reflectance_map(params, thetas, energies)
    nt, ne = rmap.r_values.shape
    rows = {
        "theta_deg": _Axis(rmap.thetas, ne, 1),
        "energy_mev": _Axis(rmap.energies, 1, nt),
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


def _cmd_fit(config: RunConfig):
    points = [(n, r) for n, r in config.fit.points]
    if config.fit.noise_sigma > 0:
        rng = np.random.default_rng(config.seed)
        noise = np.exp(rng.normal(0.0, config.fit.noise_sigma, len(points)))
        points = [(n, r * w) for (n, r), w in zip(points, noise)]
    fit = fit_power_law(points)
    rows = {"n": [n for n, _ in points], "ratio": [r for _, r in points]}
    return rows, asdict(fit), {}


_HANDLERS = {
    "validate": _cmd_validate,
    "exact": _cmd_exact,
    "cumulant": _cmd_cumulant,
    "sweep": _cmd_sweep,
    "reflectance": _cmd_reflectance,
    "fit": _cmd_fit,
}


def run(config: RunConfig) -> list[Path]:
    """Execute a parsed configuration and write its artifacts.

    The results are computed before anything is written.  Each artifact is
    written to a temp file in the output directory, the data file first and
    the manifest last, and only then are they all renamed into place; on any
    error every temp file, every artifact already renamed and every directory
    the run made are removed, so a failing run leaves the tree as it found
    it.  An output directory that cannot be made, such as an existing file
    or a path under one, or a file that cannot be written raises
    OutputUnwritable.  Returns the written paths.
    """
    started = time.monotonic()
    rows, summary, sidecars = _HANDLERS[config.command](config)

    out_dir = Path(config.output_dir)
    artifacts = []  # (path, text chunks) of each data file and sidecar
    if config.format == "csv":
        artifacts.append((out_dir / f"{config.command}_result.csv", _csv_text(rows)))
        if summary is not None:
            artifacts.append((out_dir / f"{config.command}_summary.json", [_json_text(summary)]))
        for name, obj in sidecars.items():
            artifacts.append((out_dir / name, [_json_text(obj)]))
    else:
        payload = {"summary": summary}
        for name, obj in sidecars.items():
            payload[Path(name).stem] = obj
        artifacts.append((out_dir / f"{config.command}_result.json",
                          _json_result_text(rows, payload)))

    staged = {}  # each artifact's path and its temp file, in the order written
    placed = []
    # deepest first; every ancestor of a directory that exists exists too
    made = list(itertools.takewhile(lambda d: not os.path.exists(d), (out_dir, *out_dir.parents)))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, chunks in artifacts:
            staged[path] = _stage(path, chunks)
        manifest = {
            "command": config.command,
            "tool_version": __version__,
            "wall_time_s": time.monotonic() - started,
            "config": _to_plain(config),
            "artifacts": [path.name for path, _ in artifacts],
        }
        path = out_dir / "run_manifest.json"
        staged[path] = _stage(path, [_json_text(manifest)])
        for path, tmp in staged.items():
            os.replace(tmp, path)
            placed.append(path)
    except BaseException as e:
        for path, tmp in staged.items():
            with contextlib.suppress(OSError):
                os.unlink(path if path in placed else tmp)
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        if isinstance(e, OSError):
            raise OutputUnwritable(f"cannot write the results to {str(out_dir)!r}: {e}") from e
        raise
    return placed


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError, not print usage and exit 2."""

    def error(self, message):
        raise UsageError(message)


_PARSER = _Parser(
    prog="superrad",
    description="Steady-state collective emission toolkit.",
)
_PARSER.add_argument("command", choices=sorted(_HANDLERS))
_PARSER.add_argument("--config", required=True, help="path to the YAML configuration")
_PARSER.add_argument("--out-dir", help="override config output_dir")
_PARSER.add_argument("--format", help="override config format")
_PARSER.add_argument("--seed", help="override config seed")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        flags = {"output_dir": args.out_dir, "format": args.format, "seed": args.seed}
        if args.seed is not None:
            with contextlib.suppress(ValueError):  # other text goes on, for the schema to refuse
                flags["seed"] = int(args.seed)
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigFileUnreadable(str(e)) from e
        # the flags are top-level keys of the document, checked by its schema
        config = parse_config(text, {k: v for k, v in flags.items() if v is not None})
        if config.command != args.command:
            raise ConfigError(
                f"config document is for command '{config.command}', "
                f"but '{args.command}' was requested"
            )
        written = run(config)
    except SuperradError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        return 1

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
