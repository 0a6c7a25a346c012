"""Every parameter with a default, in a def of the package, is set by some
call in the package, its tests or its benchmark: by keyword, or by
position.  A parameter that only its default ever reaches is a constant,
and is written as one.  Names starting with '_' (a closure's captured
defaults, say) are exempt."""

import ast
from collections import defaultdict
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _defaulted(fn, is_method):
    """(position among the positional arguments a call passes, name) of
    each defaulted parameter of fn; keyword-only ones get no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list) else 0
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return [(i, name) for i, name in out if not name.startswith("_")]


def _definitions():
    """(file, callee name, position, parameter) for every defaulted
    parameter; a class's __init__ is called by the class's name."""
    out = []
    for path in sorted((_ROOT / "src" / "gekeler").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body
                   if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner = methods.get(id(node))
                callee = owner if node.name == "__init__" else node.name
                for pos, name in _defaulted(node, owner is not None):
                    out.append((path.name, callee, pos, name))
    return out


def _calls():
    """Per callee name: the keywords and the most positional arguments any
    call passes; a call with *args or **kwargs may set anything."""
    keywords, widest = defaultdict(set), defaultdict(int)
    for folder in ("src", "tests", "perfbench"):
        for path in (_ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name is None:
                    continue
                star = any(isinstance(a, ast.Starred) for a in node.args)
                widest[name] = max(widest[name],
                                   10 ** 6 if star else len(node.args))
                for kw in node.keywords:
                    keywords[name].add(kw.arg or "**")
    return keywords, widest


def test_every_defaulted_parameter_is_set_somewhere():
    keywords, widest = _calls()
    unset = [f"{path}: {callee}({name})"
             for path, callee, pos, name in _definitions()
             if name not in keywords[callee] and "**" not in keywords[callee]
             and (pos is None or widest[callee] <= pos)]
    assert unset == []
