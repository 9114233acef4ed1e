"""A ratchet against dead methods and fields: every method of a
``src/repro`` class is named somewhere else, and every ``self.<name>``
field ``src/repro`` assigns is read somewhere.

The check parses ``src/``, ``tests/``, ``perf/``, ``benchmarks/`` and
``examples/`` once and collects every attribute name (``obj.name``), bare
name, keyword-argument name and string constant (``getattr(obj, "name")``).
A non-dunder method defined in a ``src/repro`` class whose name is in none
of them has no caller anywhere, and the test fails naming it.  A field
is dead when its name is never read: not loaded as an attribute (a store
or an augmented assignment to ``obj.name`` does not count), not a bare
name, keyword or string.

It matches by name only, so it misses a dead method whose name some other
use shares: ``Network.restore``, ``Node.count`` and ``MetricsRegistry.meter``
each had no caller while a local function or a method of the same name
elsewhere did.  A pass means no method or field *name* is unused, not
that every method is called or every field read.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perf", "benchmarks", "examples")
PACKAGE = ROOT / "src" / "repro"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@functools.cache
def _walk():
    """One pass over every tree: the attribute, bare, keyword and string
    names used anywhere, the subset of those that are *read* (an attribute
    stored to is not), the ``src/repro`` methods and the ``self.<name>``
    fields ``src/repro`` stores to, each method and field with its place."""
    used, read = set(), set()
    methods, fields = [], []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"), str(path))
            ours = path.is_relative_to(PACKAGE)
            where = path.relative_to(ROOT)
            for node in ast.walk(module):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    if not isinstance(node.ctx, ast.Store):
                        read.add(node.attr)
                    elif (ours and isinstance(node.value, ast.Name)
                          and node.value.id == "self"):
                        fields.append((node.attr, f"{where}:{node.lineno} "
                                                  f"self.{node.attr}"))
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                    read.add(node.id)
                elif isinstance(node, ast.keyword):
                    used.add(node.arg)
                    read.add(node.arg)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    used.add(node.value)
                    read.add(node.value)
                elif ours and isinstance(node, ast.ClassDef):
                    methods.extend(
                        (item.name, f"{where}:{item.lineno} "
                                    f"{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and not _dunder(item.name))
    return used, read, methods, fields


def test_every_method_name_is_used_somewhere():
    used, _read, methods, _fields = _walk()
    dead = [where for name, where in methods if name not in used]
    assert not dead, "methods nothing names:\n" + "\n".join(dead)


def test_every_field_is_read_somewhere():
    _used, read, _methods, fields = _walk()
    dead = [where for name, where in fields if name not in read]
    assert not dead, "fields nothing reads:\n" + "\n".join(dead)
