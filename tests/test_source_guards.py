"""Static checks on the package source: typed errors only, and a consistent export list."""

import ast
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


def test_public_names_exist_once():
    assert len(superrad.__all__) == len(set(superrad.__all__))
    assert [name for name in superrad.__all__ if not hasattr(superrad, name)] == []
