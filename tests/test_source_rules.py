"""Robustness rules that every module of the package keeps.

No ``assert`` statement: ``python -O`` strips them, so a check written as
one vanishes in optimised runs. No call that changes interpreter-global
state (the recursion limit, the garbage collector): a library solver
must not change them under its caller.

No function of ``fullcover.py`` or ``lspc.py`` calls itself: the depth
of those two searches grows with the input (a level per kept resource, a
row per range), so recursion there would be bounded by the interpreter's
recursion limit instead of by the input. ``reductions.smfc_solve_exact``'s
``walk`` may recurse: ``MAX_CANDIDATES`` keeps it at most 16 deep.
"""

import ast
from pathlib import Path

import pytest

import intervalcover

_GLOBAL_STATE = {("sys", "setrecursionlimit"), ("gc", "disable"), ("gc", "set_threshold")}
_PACKAGE = Path(intervalcover.__file__).parent
_MODULES = sorted(_PACKAGE.glob("*.py"))
assert _MODULES  # an empty glob would parametrize no test and pass silently
_DEEP_SEARCHES = [_PACKAGE / "fullcover.py", _PACKAGE / "lspc.py"]


def violations(source: str) -> list[str]:
    """Each ``assert`` and each call or import of a ``_GLOBAL_STATE``
    function in ``source``, as "line N: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module, alias.name) in _GLOBAL_STATE:
                    found.append(f"line {node.lineno}: imports {node.module}.{alias.name}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and (node.func.value.id, node.func.attr) in _GLOBAL_STATE:
            found.append(f"line {node.lineno}: calls {node.func.value.id}.{node.func.attr}")
    return found


def test_the_scan_finds_every_kind_of_violation():
    source = ("import gc, sys\nfrom gc import set_threshold\n"
              "def f(x):\n    assert x\n    sys.setrecursionlimit(10)\n    gc.disable()\n")
    assert violations(source) == [
        "line 2: imports gc.set_threshold", "line 4: assert statement",
        "line 5: calls sys.setrecursionlimit", "line 6: calls gc.disable"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_keeps_the_robustness_rules(path):
    assert violations(path.read_text(encoding="utf-8")) == [], path


def self_calls(source: str) -> list[str]:
    """Each call in ``source`` of a function from within its own body, by
    its name or as ``self.<name>``, as "line N: name calls itself"."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            by_name = isinstance(f, ast.Name) and f.id == fn.name
            as_method = (isinstance(f, ast.Attribute) and f.attr == fn.name
                         and isinstance(f.value, ast.Name) and f.value.id == "self")
            if by_name or as_method:
                found.append(f"line {node.lineno}: {fn.name} calls itself")
    return found


def test_the_scan_finds_every_self_call():
    source = ("def f(n):\n    return f(n - 1)\n"
              "class A:\n    def g(self):\n        def h():\n            return self.g()\n"
              "        return h\n    def f(self):\n        return g(self)\n")
    assert self_calls(source) == ["line 2: f calls itself", "line 6: g calls itself"]


@pytest.mark.parametrize("path", _DEEP_SEARCHES, ids=lambda p: p.name)
def test_deep_search_does_not_recurse(path):
    assert self_calls(path.read_text(encoding="utf-8")) == [], path
