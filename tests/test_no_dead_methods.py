"""A ratchet against dead methods: every method of a ``src/repro`` class
is named somewhere else.

The check parses ``src/``, ``tests/``, ``perf/``, ``benchmarks/`` and
``examples/`` once and collects every attribute name (``obj.name``), bare
name, keyword-argument name and string constant (``getattr(obj, "name")``).
A non-dunder method defined in a ``src/repro`` class whose name is in none
of them has no caller anywhere, and the test fails naming it.

It matches by name only, so it misses a dead method whose name some other
use shares: ``Network.restore``, ``Node.count`` and ``MetricsRegistry.meter``
each had no caller while a local function or a method of the same name
elsewhere did.  A pass means no method *name* is unused, not that every
method is called.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perf", "benchmarks", "examples")
PACKAGE = ROOT / "src" / "repro"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_method_name_is_used_somewhere():
    used = set()
    methods = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"), str(path))
            ours = path.is_relative_to(PACKAGE)
            for node in ast.walk(module):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.keyword):
                    used.add(node.arg)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    used.add(node.value)
                elif ours and isinstance(node, ast.ClassDef):
                    methods.extend(
                        (item.name, f"{path.relative_to(ROOT)}:{item.lineno} "
                                    f"{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and not _dunder(item.name))
    dead = [where for name, where in methods if name not in used]
    assert not dead, "methods nothing names:\n" + "\n".join(dead)
