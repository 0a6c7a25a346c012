"""Every backticked `module.name` or `module.name(...)` in README.md and in
the docstrings of the package names an attribute of gekeler.<module>, so a
deleted or renamed definition leaves no stale reference behind."""

import ast
import importlib
import re
from pathlib import Path

import gekeler

PACKAGE = Path(gekeler.__file__).resolve().parent
REFERENCE = re.compile(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`")


def _texts():
    """(where, text) for README.md and every docstring of the package."""
    readme = PACKAGE.parents[1] / "README.md"
    yield "README.md", readme.read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield path.name, doc


def _resolves(dotted):
    obj = importlib.import_module(f"gekeler.{dotted[0]}")
    for name in dotted[1:]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_module_references_in_docs_resolve():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    checked, stale = 0, []
    for where, text in _texts():
        for match in REFERENCE.finditer(text):
            dotted = match.group(1).split(".")
            if dotted[0] in modules:
                checked += 1
                if not _resolves(dotted):
                    stale.append(f"{where}: {match.group(0)}")
    assert stale == []
    assert checked >= 15
