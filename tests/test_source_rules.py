"""Robustness rules that every module of the package keeps.

No ``assert`` statement: ``python -O`` strips them, so a check written as
one vanishes in optimised runs. No call that changes interpreter-global
state (the recursion limit, the garbage collector): a library solver
must not change them under its caller.
"""

import ast
from pathlib import Path

import pytest

import intervalcover

_GLOBAL_STATE = {("sys", "setrecursionlimit"), ("gc", "disable"), ("gc", "set_threshold")}
_MODULES = sorted(Path(intervalcover.__file__).parent.glob("*.py"))
assert _MODULES  # an empty glob would parametrize no test and pass silently


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
