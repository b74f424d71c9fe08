"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

Each workload hands out passes of work items drawn from its seed.  `run`
makes the timed calls into superrad's public API; `check` then verifies
the result and whatever the capture wrappers saw, outside the timed region.
An item of kind "op" is one operation in the latency percentiles and the
failure count; an item of kind "step" (the power-law fit) only adds to the
pass's wall time.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import superrad
from superrad import cumulant, exact, optics, sweep
from superrad.units import MEV_NM

STEADY_RESIDUAL_MAX = 1e-10   # ||L vec(rho)||_inf, as the oracle promises
FLUX_REL_ERR_MAX = 0.10       # cumulant vs oracle, acceptance criterion 4
ALPHA_SCALED_RANGE = (-0.05, 1.05)  # acceptance criterion 5
REFLECTANCE_SLACK = 1e-12     # rounding the program allows above R = 1


@dataclass
class Item:
    kind: str     # "op" or "step"
    what: object  # the workload's own description of the call


def check_steady_states(captured) -> tuple[list[str], dict]:
    """Recompute ||L vec(rho)||_inf for every steady state the program returned."""
    problems, worst = [], 0.0
    for args, kwargs, rho in captured["steady"]:
        liou = kwargs["liou"] if "liou" in kwargs else args[0]
        vec_rho = np.asarray(rho.mat).reshape(-1, order="F")
        residual = float(np.abs(liou.matrix @ vec_rho).max())
        worst = max(worst, residual)
        if not residual <= STEADY_RESIDUAL_MAX:
            problems.append(f"steady residual {residual:.3e}")
    return problems, {"residual_max": worst}


def check_moment_states(captured, signature) -> tuple[list[str], dict]:
    """||moment_rhs||_inf at every returned moment state, against the solve tolerance."""
    problems, worst = [], 0.0
    for args, kwargs, m in captured["moments"]:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        p, tol = bound.arguments["p"], bound.arguments["tol"]
        norm = float(np.abs(cumulant.moment_rhs(p, m).to_vector()).max())
        worst = max(worst, norm)
        if not norm <= tol:
            problems.append(f"moment derivative norm {norm:.3e} > tol {tol:.0e}")
    return problems, {"deriv_norm_max": worst}


def reflectance_excess(captured) -> float:
    """How far any returned reflectance lies outside [0, 1]."""
    worst = 0.0
    for _, _, rmap in captured["maps"]:
        r = rmap.r_values
        if not np.all(np.isfinite(r)):
            return math.inf
        worst = max(worst, float(r.max()) - 1.0, -float(r.min()))
    return worst


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path, work_dir: Path, signatures: dict | None = None):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.work_dir = work_dir
        self.signatures = signatures or {}

    def make_pass(self) -> list[Item]:
        """The next pass's items, drawn from the workload's seeded stream."""
        raise NotImplementedError

    def begin_pass(self):
        """Reset per-pass state before the items of a pass run."""

    def run(self, what):
        raise NotImplementedError

    def check(self, what, out, captured) -> tuple[list[str], dict]:
        raise NotImplementedError

    def end_pass(self) -> list[str]:
        """Checks over a whole pass; a problem here fails every op of the pass."""
        return []

    def warm_up(self):
        """The first call a user would make; setup_s times the import plus this."""
        raise NotImplementedError

    def prime(self):
        """Untimed calls that finish lazy set-up before measuring; by default
        the warm-up call alone."""
        self.warm_up()

    def close(self):
        """Remove anything the workload wrote."""


class Oracle(Workload):
    """Certified oracle points: exact flux and g2 ladders against the cumulant flux."""

    name = "oracle"
    # Emitters per draw -> draws per pass.  The one N=4 point takes about
    # half of a pass (about 3 s).  Four passes pool the 100 operations that
    # p90 needs, and their median damps the noise of the long N=4 calls.
    MIX = {1: 10, 2: 9, 3: 6, 4: 1}

    def draw(self, n_em: int) -> superrad.SystemParams:
        # N=6 at n_max=3 passed 4 GB of memory; N=5 is affordable only at n_max=3.
        if n_em >= 5:
            raise ValueError("oracle draws stop at N=4")
        rng = self.rng
        g = rng.uniform(0.8, 2.0)
        kappa = g * math.sqrt(n_em) * 10.0 * rng.uniform(1.0, 1.6)  # leaky: kappa >= 10 g sqrt(N)
        delta = rng.uniform(500.0, 2500.0)
        return superrad.SystemParams(n_em, delta, delta, g, kappa, rng.uniform(0.05, 0.3),
                                     rng.uniform(0.05, 0.3), rng.uniform(0.0, 1.0))

    def make_pass(self):
        items = [Item("op", self.draw(n)) for n, count in self.MIX.items() for _ in range(count)]
        return [items[k] for k in self.rng.permutation(len(items))]

    def run(self, p):
        h = exact.HilbertConfig(3, p.n_emitters)
        flux_e = exact.photon_flux_exact(p, h, frame="rotating")
        g2, _ = exact.g2_zero_converged(p, h, frame="rotating")
        flux_c = cumulant.photon_flux_cumulant(p)
        return flux_e, g2, flux_c

    def check(self, p, out, captured):
        problems, stats = check_steady_states(captured)
        more, moment_stats = check_moment_states(captured, self.signatures["moments"])
        problems += more
        stats.update(moment_stats)
        flux_e, g2, flux_c = out
        rel = abs(flux_c - flux_e) / flux_e if flux_e > 0 else math.inf
        stats["flux_rel_err"] = rel
        if not rel <= FLUX_REL_ERR_MAX:
            problems.append(f"cumulant vs oracle flux rel err {rel:.3g} at N={p.n_emitters}")
        if not (math.isfinite(g2) and g2 >= 0):
            problems.append(f"g2(0) = {g2}")
        return problems, stats

    def warm_up(self):
        self.run(superrad.SystemParams(1, 2000.0, 2000.0, 1.0, 13.0, 0.1, 0.1, 0.5))


class ClosureSweep(Workload):
    """The paper's concentration sweep with both drive rules, then the fit.

    Each sweep point is one `run_concentration_sweep` call, so that a point
    is one operation with its own latency.  A scaled sweep at N=1e5
    (omega = 30 meV) raises NoConvergence after about 26 s, so N stops at
    3e4; see README.md.
    """

    name = "closure_sweep"
    # The integrator's cost jumps 2-6x between nearby inputs, where it
    # tightens its tolerances, and about a tenth of the points are such
    # jumps.  Drawn N or pump values would make p90 depend on how many jumps
    # the seed happened to draw, so the grid and the pump stay fixed at the
    # paper point.  The seed draws the order of the points and the control's
    # radiative rate, which changes every ratio but not the solver's work.
    N_VALUES = tuple(int(n) for n in np.round(3.0e4 ** (np.arange(12) / 11)))
    OMEGA1 = 3e-4  # per-emitter pump at N=1, meV, as in configs/sweep_scaled.yaml

    def base(self) -> superrad.SystemParams:
        return superrad.SystemParams(1, 2350.0, 2350.0, 0.11, 134.0, self.OMEGA1, 0.3, 0.5)

    def make_pass(self):
        gamma_r = self.rng.uniform(5e-4, 2e-3)
        points = [("point", rule, n, gamma_r) for rule in sweep.DRIVE_RULES for n in self.N_VALUES]
        items = [Item("op", points[k]) for k in self.rng.permutation(len(points))]
        return items + [Item("step", ("fit", rule)) for rule in sweep.DRIVE_RULES]

    def begin_pass(self):
        self.rows = {rule: [] for rule in sweep.DRIVE_RULES}
        self.fits = {}

    def run(self, what):
        if what[0] == "fit":
            rows = sorted(self.rows[what[1]], key=lambda r: r.n)
            return sweep.fit_power_law([(r.n, r.ratio) for r in rows])
        _, rule, n, gamma_r = what
        spec = sweep.SweepSpec(n_values=(n,), drive_rule=rule, base_params=self.base(),
                               gamma_r=gamma_r)
        return sweep.run_concentration_sweep(spec)

    def check(self, what, out, captured):
        if what[0] == "fit":
            self.fits[what[1]] = out
            return [], {}
        problems, stats = check_moment_states(captured, self.signatures["moments"])
        (row,) = out
        self.rows[what[1]].append(row)
        if not (math.isfinite(row.ratio) and row.l_cavity > 0 and row.ratio > 0):
            problems.append(f"sweep row {row}")
        return problems, stats

    def end_pass(self):
        if set(self.fits) != set(sweep.DRIVE_RULES):
            return ["a power-law fit is missing"]
        a_s, a_f = self.fits["scaled"].alpha, self.fits["fixed"].alpha
        lo, hi = ALPHA_SCALED_RANGE
        if lo <= a_s <= hi and a_s > a_f:
            return []
        return [f"alpha scaled {a_s:.4f}, fixed {a_f:.4f}"]

    def warm_up(self):
        self.begin_pass()
        self.run(("point", "scaled", 1, 1e-3))


class CliConfigs(Workload):
    """Every command on each shipped config, through superrad.cli.main.

    Each config runs with its own command in csv, and every config with a
    params section also runs `validate`.  The commands whose json payload
    differs from their csv, by merging a summary or a sidecar into it, also
    run in json.  That makes 13 calls a pass; an odd count keeps the median
    call inside one command's samples instead of on the step between two.
    Each call writes to a fresh directory; its data files must be
    byte-identical in every pass.
    """

    name = "cli_configs"
    JSON_TOO = ("sweep", "fit", "reflectance")

    def __init__(self, seed, root, work_dir, signatures=None):
        super().__init__(seed, root, work_dir, signatures)
        import yaml
        import superrad.cli  # noqa: F401  (the entry point under test)

        self.cli = superrad.cli
        configs = sorted((root / "configs").glob("*.yaml"))
        if not configs:
            raise FileNotFoundError(f"no configs under {root / 'configs'}")
        self.calls = []
        gen_dir = work_dir / "configs"
        gen_dir.mkdir(parents=True, exist_ok=True)
        for path in configs:
            doc = yaml.safe_load(path.read_text(encoding="utf-8"))
            self.calls.append((doc["command"], path, "csv"))
            if doc["command"] in self.JSON_TOO:
                self.calls.append((doc["command"], path, "json"))
            if "params" in doc:
                doc["command"] = "validate"
                derived = gen_dir / f"validate_{path.name}"
                derived.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
                self.calls.append(("validate", derived, "csv"))
        self.reference: dict[tuple, bytes] = {}
        self.count = 0

    def make_pass(self):
        return [Item("op", self.calls[k]) for k in self.rng.permutation(len(self.calls))]

    def _out_dir(self) -> Path:
        self.count += 1
        return self.work_dir / f"run{self.count}"

    def _main(self, call, out_dir):
        command, path, fmt = call
        argv = [command, "--config", str(path), "--out-dir", str(out_dir),
                "--format", fmt, "--seed", str(self.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def run(self, call):
        out_dir = self._out_dir()
        code, printed = self._main(call, out_dir)
        return code, printed, out_dir

    def check(self, call, out, captured):
        code, printed, out_dir = out
        problems = [] if code == 0 else [f"{call[0]} {call[1].name} exited {code}: {printed}"]
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        listed = sorted(Path(line) for line in printed.splitlines() if line)
        if code == 0 and listed != files:
            problems.append(f"printed paths {listed} differ from files {files}")
        if code == 0 and not (out_dir / "run_manifest.json").is_file():
            problems.append("run_manifest.json missing")
        written = 0
        for path in files:
            data = path.read_bytes()
            written += len(data)
            if path.name == "run_manifest.json":
                continue  # carries the wall time, so it differs between runs
            key = (call[0], call[1].name, call[2], path.name)
            if self.reference.setdefault(key, data) != data:
                problems.append(f"{path.name} of {call[1].name} differs between passes")
        shutil.rmtree(out_dir, ignore_errors=True)
        problems_s, stats = check_steady_states(captured)
        problems_m, moment_stats = check_moment_states(captured, self.signatures["moments"])
        problems += problems_s + problems_m
        stats.update(moment_stats)
        excess = reflectance_excess(captured)
        if excess > REFLECTANCE_SLACK:
            problems.append(f"reflectance outside [0, 1] by {excess:.3e}")
        stats.update(bytes_written=written, files_written=len(files), refl_excess=excess)
        return problems, stats

    def _call_once(self, call):
        out_dir = self._out_dir()
        try:
            self._main(call, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def warm_up(self):
        self._call_once(next(c for c in self.calls if c[0] == "validate"))

    def prime(self):
        for call in self.calls:
            self._call_once(call)

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


class OpticsScan(Workload):
    """Seeded cavity draws: a dense reflectance map, branch splitting,
    emission widths over angles and the coherence length from each width."""

    name = "optics_scan"
    DRAWS = 20
    THETAS = np.linspace(0.0, 64.0, 129)
    # Up to 30 degrees the cavity filter stays within 10 combined widths of
    # the emitter for every draw, so emission_fwhm always finds its peak.
    FWHM_ANGLES = np.linspace(0.0, 30.0, 7)

    def draw(self) -> superrad.OpticalParams:
        rng = self.rng
        kappa = rng.uniform(20.0, 150.0)
        return superrad.OpticalParams(
            e_c0=rng.uniform(2200.0, 2400.0), n_eff=rng.uniform(1.5, 2.2),
            delta=rng.uniform(2250.0, 2450.0), g_coll=rng.uniform(5.0, 40.0),
            kappa=kappa, kappa_ext=kappa * rng.uniform(0.2, 1.0),
            gamma_perp=rng.uniform(20.0, 350.0))

    def make_pass(self):
        return [Item("op", self.draw()) for _ in range(self.DRAWS)]

    def run(self, p):
        energies = np.linspace(p.delta - 600.0, p.delta + 600.0, 1201)
        rmap = optics.compute_reflectance_map(p, self.THETAS, energies)
        split = optics.minimum_branch_splitting(p)
        widths = []
        for theta in self.FWHM_ANGLES:
            e_peak, fwhm = optics.emission_fwhm(p, float(theta))
            lam = MEV_NM / e_peak
            widths.append((fwhm, optics.coherence_length(lam, lam**2 * fwhm / MEV_NM)))
        return rmap, split, widths

    def check(self, p, out, captured):
        rmap, split, widths = out
        excess = reflectance_excess(captured)
        problems = [] if excess <= REFLECTANCE_SLACK else [f"reflectance outside [0, 1] by {excess:.3e}"]
        if rmap.r_values.shape != (len(self.THETAS), 1201):
            problems.append(f"map shape {rmap.r_values.shape}")
        if not (math.isfinite(split) and split >= 0):
            problems.append(f"branch splitting {split}")
        if not all(fwhm > 0 and l_coh > 0 for fwhm, l_coh in widths):
            problems.append(f"emission widths {widths}")
        return problems, {"refl_excess": excess}

    def warm_up(self):
        self.run(superrad.OpticalParams(2300.0, 1.8, 2350.0, 11.0, 134.0, 67.0, 331.0))


WORKLOADS = {w.name: w for w in (Oracle, ClosureSweep, CliConfigs, OpticsScan)}
