"""The layer boundaries of superrad, as seen from outside the package.

Capture wrappers keep each steady state, moment state and reflectance map
that the program returns, so the benchmark can check them after the timed
call.  They are installed in every run.  Trace wrappers record a span per
call of each layer's public functions; they are switched on only for the
traced passes.  Both are patched into every superrad module that holds the
function, because `from .exact import build_liouvillian` gives the importing
module its own reference.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

from harness import Patcher, Recorder

SUBMODULES = ("params", "exact", "cumulant", "sweep", "optics", "config", "cli")


def _liouvillian_attrs(args, kwargs, out):
    return {"nnz": int(out.matrix.nnz)}


def _steady_attrs(args, kwargs, out):
    liou = kwargs["liou"] if "liou" in kwargs else args[0]
    return {"unknowns": liou.dim ** 2,
            "key": (liou.params, liou.hilbert.n_max, liou.frame)}


def _map_attrs(args, kwargs, out):
    return {"cells": int(out.r_values.size)}


def _sweep_attrs(args, kwargs, out):
    return {"points": len(out)}


# (module, function, span name, span attributes from the call and its result)
TRACED = (
    ("params", "validate_params", "params.validate_params", None),
    ("exact", "build_liouvillian", "exact.build_liouvillian", _liouvillian_attrs),
    ("exact", "steady_state_exact", "exact.steady_state", _steady_attrs),
    ("exact", "expectation", "exact.expectation", None),
    ("exact", "photon_flux_exact", "exact.flux_ladder", None),
    ("exact", "g2_zero_converged", "exact.g2_ladder", None),
    ("exact", "g2_zero_exact", "exact.g2_zero", None),
    ("cumulant", "integrate_to_steady_state", "cumulant.integrate", None),
    ("cumulant", "photon_flux_cumulant", "cumulant.flux", None),
    ("sweep", "run_concentration_sweep", "sweep.run", _sweep_attrs),
    ("sweep", "fit_power_law", "sweep.fit", None),
    ("optics", "compute_reflectance_map", "optics.reflectance_map", _map_attrs),
    ("optics", "minimum_branch_splitting", "optics.branch_splitting", None),
    ("optics", "emission_fwhm", "optics.emission_fwhm", None),
    ("optics", "coherence_length", "optics.coherence_length", None),
    ("config", "parse_config", "cli.parse_config", None),
    ("cli", "main", "cli.main", None),
)

# (module, function, capture key)
CAPTURED = (
    ("exact", "steady_state_exact", "steady"),
    ("cumulant", "integrate_to_steady_state", "moments"),
    ("optics", "compute_reflectance_map", "maps"),
)


def _capturing(fn, sink):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append((args, kwargs, out))
        return out
    return wrapper


def _tracing(fn, name, rec: Recorder, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span = rec.close(idx)
            if span is not None:
                span.attrs["raised"] = True
            raise
        span = rec.close(idx)
        if span is not None and attrs_of is not None:
            span.attrs.update(attrs_of(args, kwargs, out))
        return out
    return wrapper


class Instrument:
    """Installs the capture wrappers at once and the trace wrappers on demand."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        mods = {name: importlib.import_module(f"superrad.{name}") for name in SUBMODULES}
        self.mods = mods
        holders = [m for n, m in sys.modules.items() if n == "superrad" or n.startswith("superrad.")]
        self.captured: dict[str, list] = {key: [] for _, _, key in CAPTURED}
        self.signatures = {}
        self._captures = Patcher(holders)
        self._trace = Patcher(holders)
        self.missing = [f"{m}.{f}" for m, f, _, _ in TRACED if not hasattr(mods[m], f)]
        for mod, fn, key in CAPTURED:
            orig = getattr(mods[mod], fn, None)
            if orig is not None:
                self.signatures[key] = inspect.signature(orig)
                self._captures.swap(orig, _capturing(orig, self.captured[key]))
        self.tracing = False

    def set_tracing(self, on: bool):
        if on == self.tracing:
            return
        if on:
            for mod, fn, name, attrs_of in TRACED:
                current = getattr(self.mods[mod], fn, None)
                if current is not None:
                    self._trace.swap(current, _tracing(current, name, self.rec, attrs_of))
        else:
            self._trace.restore()
        self.tracing = on

    def drain(self) -> dict[str, list]:
        """Everything captured since the last drain."""
        out = {key: list(items) for key, items in self.captured.items()}
        for items in self.captured.values():
            items.clear()
        return out

    def close(self):
        self.set_tracing(False)
        self._captures.restore()
