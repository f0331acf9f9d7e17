"""Module layering: every library import sits at the top of its module, and
no module relies on ``assert``, which ``python -O`` strips."""

import ast
import pathlib

import hgdilute

ALLOWED = []


def _modules():
    for path in sorted(pathlib.Path(hgdilute.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _function_imports():
    found = []
    for path, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found += [(path.stem, fn.name, a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((path.stem, fn.name, node.module))
    return found


def test_imports_only_at_module_top():
    assert _function_imports() == ALLOWED


def test_no_assert_statements():
    found = [
        (path.stem, node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []
