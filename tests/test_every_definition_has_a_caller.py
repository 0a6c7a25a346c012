"""Every function and class of the package is named somewhere besides its
own definition: in the package, its tests or its benchmark.  Code that
no caller uses is deleted, not kept."""

import ast
import re
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_every_definition_has_a_caller():
    names = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (_ROOT / folder).rglob("*.py"):
            names.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    uncalled = []
    for path in sorted((_ROOT / "src" / "gekeler").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) \
                        and names[name] < 2:
                    uncalled.append(f"{path.name}: {name}")
    assert uncalled == []
