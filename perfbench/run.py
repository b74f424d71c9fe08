"""superrad benchmark: time to a checked steady state on four workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
src/ directory.  With --trace 0 the last line of output is a JSON object
with every end-to-end metric; with --trace 1 it carries the per-layer
metrics of the traced passes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("oracle", "closure_sweep", "cli_configs", "optics_scan")
SETUP_PROBES = 3
# Percentiles need samples beyond them (harness.MIN_BEYOND): p90 needs 100
# operations, so an untraced run measures past --seconds until it has them,
# but never past MAX_MEASURE_S.
MIN_OPS = 100
MAX_MEASURE_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS/OpenMP threads per process: one.  The solvers are sparse or tiny
# dense kernels that gain nothing from a second thread, and one thread
# keeps the timings steady on a shared 2-core machine.
BLAS_THREADS = 1


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed, "nproc": _nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "caches": _cache_sizes(), "machine": platform.machine(),
    }


def _checkout_error() -> str | None:
    if not (SRC / "superrad" / "__init__.py").is_file():
        return f"no superrad package under {SRC}; run from a superrad source checkout"
    if not (ROOT / "configs").is_dir():
        return f"no configs directory under {ROOT}"
    return None


def _import_superrad():
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import superrad

    if not Path(superrad.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"superrad imported from {superrad.__file__}, not {SRC}")


def probe_setup(workload: str) -> dict:
    """Import superrad and make the workload's first warm-up call, in a fresh
    process; the seconds taken, and the calibration kernel's time after."""
    started = time.perf_counter()
    _import_superrad()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](0, ROOT, OUT / f"probe-{os.getpid()}")
    try:
        wl.warm_up()
    finally:
        wl.close()
    raw = time.perf_counter() - started
    from calibration import Calibration
    from harness import median

    cal = Calibration()
    return {"raw": raw, "calib": median([cal.sample() for _ in range(3)])}


def measure_setup(workload: str) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--probe-setup", workload],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Execution:
    """One pass of a workload's items, traced or not."""

    def __init__(self, index: int, traced: bool):
        self.index, self.traced = index, traced
        self.top: list[int] = []  # indices of its top-level spans
        self.ops = 0
        self.complete = False


def run_items(wl, inst, rec, cal, items, execution, cut) -> bool:
    """Run a pass's items; False if cut() stopped it before the last one."""
    inst.set_tracing(execution.traced)
    wl.begin_pass()
    inst.drain()
    for item in items:
        before = cal.sample()
        idx = rec.open(item.kind, pass_index=execution.index, traced=execution.traced)
        error = None
        try:
            out = wl.run(item.what)
        except Exception as e:  # the failure is counted, the run goes on
            error = f"{type(e).__name__}: {e}"
        span = rec.close(idx)
        span.attrs["calib"] = 0.5 * (before + cal.sample())
        execution.top.append(idx)
        execution.ops += item.kind == "op"
        captured = inst.drain()
        problems, stats = ([error], {}) if error else wl.check(item.what, out, captured)
        span.attrs.update(stats, problems=problems, failed=item.kind == "op" and bool(problems))
        if item is not items[-1] and cut():
            return False
    inst.set_tracing(False)
    pass_problems = wl.end_pass()
    for idx in execution.top:
        span = rec.spans[idx]
        span.attrs["problems"] += pass_problems
        span.attrs["failed"] = span.name == "op" and bool(span.attrs["problems"])
    execution.complete = True
    return True


def measure(wl, inst, rec, cal, seconds: float, trace: bool) -> list[Execution]:
    """Run passes for `seconds`, with at least one complete pass per side.

    Untraced runs time each pass once and stop only at the end of a pass,
    once MIN_OPS operations are pooled too, so that every input of a pass
    weighs the same in the percentiles; MAX_MEASURE_S cuts them short.
    Traced runs time each pass twice, traced and untraced, alternating which
    goes first, so the tracing overhead is a paired difference on identical
    inputs; they stop at `seconds`.
    """
    executions: list[Execution] = []
    started = time.perf_counter()

    def cut(traced: bool) -> bool:
        if not any(e.complete and e.traced == traced for e in executions):
            return False
        return time.perf_counter() - started >= (seconds if trace else MAX_MEASURE_S)

    index = 0
    while True:
        items = wl.make_pass()
        sides = [False] if not trace else ([False, True] if index % 2 == 0 else [True, False])
        for traced in sides:
            execution = Execution(index, traced)
            executions.append(execution)
            if not run_items(wl, inst, rec, cal, items, execution, lambda: cut(traced)):
                return executions
        index += 1
        ops = sum(e.ops for e in executions)
        if time.perf_counter() - started >= seconds and (trace or ops >= MIN_OPS):
            return executions


def end_to_end(rec, executions, setup) -> tuple[dict, dict]:
    """The end-to-end metrics, each time scaled to the calibration's REF_S."""
    from calibration import REF_S
    from harness import MIN_BEYOND, median, percentile

    done = [e for e in executions if e.complete]
    walls = [sum(scaled(rec.spans[i]) for i in e.top) for e in done]
    op_spans = [rec.spans[i] for e in executions for i in e.top if rec.spans[i].name == "op"]
    ops = [scaled(s) for s in op_spans]
    p50, beyond50 = percentile(ops, 50)
    p90, beyond90 = percentile(ops, 90)
    metrics = {
        "setup_s": (median([p["raw"] * REF_S / p["calib"] for p in setup]), "s"),
        "wall_s": (median(walls), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_s": len(setup), "wall_s": len(walls), "op_p50_ms": len(ops),
        "op_p90_ms": len(ops), "op_p50_beyond": beyond50, "op_p90_beyond": beyond90,
        "min_beyond": MIN_BEYOND,
        "unscaled": {
            "setup_s": median([p["raw"] for p in setup]),
            "wall_s": median([sum(rec.spans[i].duration for i in e.top) for e in done]),
            "op_p50_ms": percentile([s.duration for s in op_spans], 50)[0] * 1e3,
            "op_p90_ms": percentile([s.duration for s in op_spans], 90)[0] * 1e3,
            "calibration_ms": median([s.attrs["calib"] for s in op_spans]) * 1e3,
        },
    }
    return metrics, samples


def scaled(span) -> float:
    """A top-level span's duration in seconds of the calibration's REF_S machine."""
    from calibration import REF_S

    return span.duration * REF_S / span.attrs["calib"]


def per_layer(rec, executions) -> tuple[dict, dict]:
    """Per-layer metrics over the complete traced passes, per pass."""
    from harness import median, op_index, self_times

    traced = [e for e in executions if e.complete and e.traced]
    passes = max(len(traced), 1)
    wanted = {i for e in traced for i in e.top}
    owner = op_index(rec.spans)
    selfs = self_times(rec.spans)
    spans = [(s, selfs[i]) for i, s in enumerate(rec.spans) if owner[i] in wanted]
    ops = [rec.spans[i] for i in sorted(wanted) if rec.spans[i].name == "op"]

    def self_ms(*names):
        return sum(t for s, t in spans if s.name in names) * 1e3 / passes

    def calls(name):
        return sum(1 for s, _ in spans if s.name == name) / passes

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s, _ in spans if s.name == name) / passes

    def op_max(key):
        return max((s.attrs.get(key, 0.0) for s in ops), default=0.0)

    def op_sum(key):
        return sum(s.attrs.get(key, 0) for s in ops) / passes

    solves: dict[int, list] = {}
    for i, s in enumerate(rec.spans):
        if s.name == "exact.steady_state" and owner[i] in wanted:
            solves.setdefault(rec.spans[owner[i]].attrs["pass_index"], []).append(s.attrs["key"])
    ratios = [len(set(keys)) / len(keys) for keys in solves.values()]

    # Both sides of the overhead pairs are scaled by the calibration, as
    # wall_s is; the layer shares below are ratios of unscaled times.
    walls = {(e.index, e.traced): sum(scaled(rec.spans[i]) for i in e.top)
             for e in executions if e.complete}
    pairs = [(walls[(i, False)], walls[(i, True)]) for i, t in walls if t and (i, False) in walls]
    traced_wall = median([t for _, t in pairs]) if pairs else 0.0
    untraced_wall = median([u for u, _ in pairs]) if pairs else 0.0
    overhead = median([t - u for u, t in pairs]) if pairs else 0.0
    traced_raw = sum(rec.spans[i].duration for e in traced for i in e.top) / passes
    layer_self: dict[str, float] = {}
    for s, t in spans:
        layer = "bench" if s.parent is None else s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
    program_self = sum(t for layer, t in layer_self.items() if layer != "bench")

    m = {
        "exact.build_liouvillian.ms": (self_ms("exact.build_liouvillian"), "ms"),
        "exact.build_liouvillian.calls": (calls("exact.build_liouvillian"), "count"),
        "exact.liouvillian.nnz": (attr_sum("exact.build_liouvillian", "nnz"), "count"),
        "exact.steady_state.ms": (self_ms("exact.steady_state"), "ms"),
        "exact.steady_state.calls": (calls("exact.steady_state"), "count"),
        "exact.steady_state.unknowns": (attr_sum("exact.steady_state", "unknowns"), "count"),
        "exact.steady_state.distinct_ratio": (sum(ratios) / len(ratios) if ratios else 0.0,
                                              "ratio"),
        "exact.steady_state.residual_max": (op_max("residual_max"), "meV"),
        "exact.expectation.ms": (self_ms("exact.expectation"), "ms"),
        "exact.expectation.calls": (calls("exact.expectation"), "count"),
        "exact.cutoff_ladder.ms": (self_ms("exact.flux_ladder", "exact.g2_ladder",
                                           "exact.g2_zero"), "ms"),
        "cumulant.integrate.ms": (self_ms("cumulant.integrate"), "ms"),
        "cumulant.integrate.calls": (calls("cumulant.integrate"), "count"),
        "cumulant.deriv_norm_max": (op_max("deriv_norm_max"), "meV"),
        "cumulant.flux_rel_err_max": (op_max("flux_rel_err"), "ratio"),
        "sweep.run.ms": (self_ms("sweep.run"), "ms"),
        "sweep.points": (attr_sum("sweep.run", "points"), "count"),
        "sweep.fit.ms": (self_ms("sweep.fit"), "ms"),
        "optics.reflectance_map.ms": (self_ms("optics.reflectance_map"), "ms"),
        "optics.map_cells": (attr_sum("optics.reflectance_map", "cells"), "count"),
        "optics.branch_splitting.ms": (self_ms("optics.branch_splitting"), "ms"),
        "optics.emission_fwhm.ms": (self_ms("optics.emission_fwhm"), "ms"),
        "optics.refl_bound_excess": (max(op_max("refl_excess"), 0.0), "ratio"),
        "cli.main.ms": (sum(s.duration for s, _ in spans if s.name == "cli.main") * 1e3
                        / passes, "ms"),
        "cli.self_ms": (self_ms("cli.main"), "ms"),
        "cli.parse_config.ms": (self_ms("cli.parse_config"), "ms"),
        "cli.bytes_written": (op_sum("bytes_written"), "bytes"),
        "cli.files_written": (op_sum("files_written"), "count"),
        "params.validate_params.calls": (calls("params.validate_params"), "count"),
        **{f"layer.{layer}.self_ms": (layer_self.get(layer, 0.0) * 1e3 / passes, "ms")
           for layer in ("exact", "cumulant", "sweep", "optics", "cli", "params")},
        "trace.wall_ms": (traced_wall * 1e3, "ms"),
        "trace.untraced_wall_ms": (untraced_wall * 1e3, "ms"),
        "trace.overhead_ms": (overhead * 1e3, "ms"),
        "trace.layer_self_frac": (program_self / passes / traced_raw if traced_raw else 0.0,
                                  "ratio"),
        "trace.bench_self_ms": (layer_self.get("bench", 0.0) * 1e3 / passes, "ms"),
        "trace.spans": (len(spans) / passes, "count"),
    }
    info = {"traced_passes": len(traced), "overhead_pairs": len(pairs)}
    return m, info


def write_trace(path: Path, env, rec, summary):
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [[s.name, s.start, s.end, s.parent] for s in rec.spans]
    path.write_text(json.dumps({"env": env, "summary": summary, "spans": spans}) + "\n")


def run_workload(args) -> int:
    setup = measure_setup(args.workload)
    _import_superrad()
    from calibration import Calibration
    from harness import Recorder, failure_count
    from layers import Instrument
    from workloads import WORKLOADS

    rec = Recorder()
    inst = Instrument(rec)
    cal = Calibration()
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, ROOT, work_dir, inst.signatures)
    try:
        wl.prime()
        inst.drain()
        for _ in range(3):
            cal.sample()
        executions = measure(wl, inst, rec, cal, args.seconds, bool(args.trace))
    finally:
        wl.close()
        inst.close()
    failed, attempted = failure_count(rec.spans)
    env = environment(args.seed)
    if args.trace:
        metrics, info = per_layer(rec, executions)
    else:
        metrics, info = end_to_end(rec, executions, setup)
    if inst.missing:
        info["missing_functions"] = inst.missing
    problems = sorted({p for s in rec.spans if s.parent is None
                       for p in s.attrs.get("problems", ())})
    summary = {"workload": args.workload, "trace": args.trace, "samples": info,
               "failed_frac": failed / max(attempted, 1), "setup_probes": setup,
               "problems": problems[:20]}
    write_trace(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", env, rec,
                summary)
    print(json.dumps({"env": env}))
    print(json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, then a table."""
    rows = []
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        summary, result = json.loads(lines[1]), json.loads(lines[-1])
        rows.append((name, summary, result))
    for name, summary, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={summary['failed_frac']:.3g} "
              f"samples={json.dumps(summary['samples'])}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    error = _checkout_error()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.probe_setup:
        print(json.dumps(probe_setup(args.probe_setup)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
