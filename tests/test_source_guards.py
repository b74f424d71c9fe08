"""Static checks on the package source: typed errors only, no dead error class, no
cache keyed by a HilbertConfig, no numpy polynomial helper in the optics, parameter
records checked only where they are made, a consistent export list, every function
the benchmark captures, and a light import."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import superrad

SOURCES = sorted(Path(superrad.__file__).parent.glob("*.py"))


def _untyped_failures(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield node.lineno, "raise ValueError"


def test_guard_flags_untyped_failures():
    source = "assert x\nraise ValueError('bad')\nraise ValueError\nraise InvalidValue('ok')"
    assert list(_untyped_failures(ast.parse(source))) == [
        (1, "assert"),
        (2, "raise ValueError"),
        (3, "raise ValueError"),
    ]


def test_package_raises_only_typed_errors():
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _untyped_failures(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _dead_error_classes(errors_tree: ast.AST, source_trees) -> list[str]:
    """Error classes that no source constructs or raises and no other error class extends."""
    classes = [node for node in ast.walk(errors_tree) if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    used = set()
    for tree in source_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = node.func
            elif isinstance(node, ast.Raise):
                target = node.exc
            else:
                continue
            if isinstance(target, ast.Name):
                used.add(target.id)
            elif isinstance(target, ast.Attribute):
                used.add(target.attr)
    return [node.name for node in classes if node.name not in bases | used]


def test_guard_flags_dead_error_classes():
    errors = ast.parse(
        "class Base(Exception): pass\n"
        "class Raised(Base): pass\n"
        "class Built(Base): pass\n"
        "class Qualified(Base): pass\n"
        "class Dead(Base): pass\n"
    )
    sources = [
        ast.parse("raise Raised\nproblems.append(Built('x'))\nraise errors.Qualified('y')"),
        ast.parse("Dead.__doc__"),
    ]
    assert _dead_error_classes(errors, sources) == ["Dead"]


def test_every_error_class_is_raised_or_extended():
    errors_path = Path(superrad.__file__).parent / "errors.py"
    sources = [ast.parse(path.read_text(), filename=str(path))
               for path in SOURCES if path != errors_path]
    assert _dead_error_classes(ast.parse(errors_path.read_text()), sources) == []


def _caches_keyed_by_hilbert_config(tree: ast.AST):
    """Functions cached by functools.lru_cache or functools.cache that take a HilbertConfig.

    Such a cache is keyed by the whole configuration, cap included, so one
    (n_max, N) under two caps builds and holds two copies of what it caches.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        names = {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)
                 for d in decorators}
        if not names & {"lru_cache", "cache"}:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if any(arg is not None and arg.annotation is not None
               and "HilbertConfig" in ast.unparse(arg.annotation) for arg in params):
            yield node.name


def test_guard_flags_caches_keyed_by_a_hilbert_config():
    source = (
        "@functools.lru_cache(maxsize=8)\ndef a(h: HilbertConfig): pass\n"
        "@functools.cache\ndef b(x, *, h: 'HilbertConfig | None' = None): pass\n"
        "@lru_cache\ndef c(n_max: int, n_em: int): pass\n"
        "def d(h: HilbertConfig): pass\n"
        "class E:\n    @functools.cache\n    def e(self, *hs: HilbertConfig): pass\n"
    )
    assert list(_caches_keyed_by_hilbert_config(ast.parse(source))) == ["a", "b", "e"]


def test_no_cache_is_keyed_by_a_hilbert_config():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    found = [f"{name}: {fn}" for name, tree in trees.items()
             for fn in _caches_keyed_by_hilbert_config(tree)]
    assert found == []


POLYNOMIAL_HELPERS = {"roots", "polyder", "polyval", "convolve"}


def _numpy_polynomial_calls(tree: ast.AST):
    """Calls of np.roots, np.polyder, np.polyval or np.convolve, by line."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in POLYNOMIAL_HELPERS
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            yield node.lineno, node.func.attr


def test_guard_flags_numpy_polynomial_helpers():
    source = "np.roots(p)\nnp.linalg.eigvals(m)\nx = np.polyval(np.polyder(p), 0.0)\nnp.convolve(a, b)"
    assert sorted(_numpy_polynomial_calls(ast.parse(source))) == [
        (1, "roots"), (3, "polyder"), (3, "polyval"), (4, "convolve"),
    ]


def test_optics_calls_no_numpy_polynomial_helper():
    # emission_fwhm works on Python floats and two companion-matrix eigvals
    # calls; each helper costs more than the 3x3 and 4x4 eigenproblems it wraps
    path = Path(superrad.__file__).parent / "optics.py"
    assert list(_numpy_polynomial_calls(ast.parse(path.read_text(), filename=str(path)))) == []


def _calls_of(tree: ast.AST, name: str):
    """Lines that call name, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                yield node.lineno


def test_guard_flags_calls_of_a_name():
    source = ("validate_params(p)\nparams.validate_params(q)\nf = validate_params\n"
              "validate_params_of(p)\nx.validate(p)")
    assert list(_calls_of(ast.parse(source), "validate_params")) == [1, 2]


def test_only_params_calls_validate_params():
    # a SystemParams checks itself when it is made, so a solver that checked it
    # again would only repeat the rule
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _calls_of(ast.parse(path.read_text(), filename=str(path)),
                                   "validate_params")]
    assert found and all(where.startswith("params.py:") for where in found)


def test_public_names_exist_once():
    assert len(superrad.__all__) == len(set(superrad.__all__))
    assert [name for name in superrad.__all__ if not hasattr(superrad, name)] == []


def test_every_function_the_benchmark_captures_exists():
    # the benchmark checks the steady states, moment states and maps that these
    # functions return; a missing one leaves its checks without a signature
    layers = Path(superrad.__file__).parent.parent.parent / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text(), filename=str(layers))
    captured = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [ast.unparse(t) for t in node.targets] == ["CAPTURED"])
    assert captured
    assert [f"{module}.{fn}" for module, fn, _ in captured
            if not hasattr(importlib.import_module(f"superrad.{module}"), fn)] == []


def test_import_loads_no_scipy_optimize_or_integrate():
    # importing the package and its CLI should not pay for solvers it does not use
    probe = (
        "import sys, superrad, superrad.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(superrad.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


_NO_SCIPY_PROBE = r"""
import json, re, sys
from pathlib import Path
import superrad, superrad.cli
from superrad.cli import main
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
ran = []
for path in sorted(configs.glob("*.yaml")):
    text = path.read_text()
    command = re.search(r"^command: *(\w+)", text, re.M).group(1)
    runs = [(command, path)] if command in ("cumulant", "sweep", "fit", "reflectance") else []
    if re.search(r"^params:", text, re.M):
        derived = out / f"validate_{path.name}"
        derived.write_text(re.sub(r"^command: *\w+", "command: validate", text, flags=re.M))
        runs.append(("validate", derived))
    for name, config in runs:
        code = main([name, "--config", str(config), "--out-dir", str(out / name / path.stem)])
        ran.append([name, path.name, code])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from superrad.exact import HilbertConfig, photon_flux_exact
from superrad.params import SystemParams
photon_flux_exact(SystemParams(1, 2350.0, 2350.0, 5.0, 50.0, 1.0, 0.1, 1.0), HilbertConfig(2, 1))
print(json.dumps({"ran": ran, "loaded": loaded, "after_exact": "scipy" in sys.modules}))
"""


def test_commands_off_the_exact_route_load_no_scipy(tmp_path):
    # scipy is the largest import of the package, and only the exact route uses it:
    # a subprocess runs every other command on the shipped configs, then one exact point
    root = Path(superrad.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root)}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, str(root.parent / "configs"),
                          str(tmp_path)], capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert {name for name, _, _ in probe["ran"]} == {
        "cumulant", "sweep", "fit", "reflectance", "validate"}
    assert [run for run in probe["ran"] if run[2] != 0] == []
    assert probe["loaded"] == []
    # the exact route does load it, so the check above is not vacuous
    assert probe["after_exact"] is True
