"""The instrument seam: an absent instrument is ``None``, everywhere.

``Observability`` holds each of its four instruments or ``None``; no
do-nothing stand-in exists in ``src/repro``, so a recording site that
forgets its ``is not None`` guard fails in the first uninstrumented test
instead of silently recording nothing.
"""

import ast
import pathlib
import re

import repro
from repro.obs import HistoryRecorder, Observability, Tracer

INSTRUMENTS = ("tracer", "history", "locality", "profiler")
SRC = pathlib.Path(repro.__file__).parent


def test_observability_defaults_to_four_nones():
    obs = Observability()
    assert [getattr(obs, name) for name in INSTRUMENTS] == [None] * 4


def test_replace_keeps_absent_instruments_absent():
    tracer = Tracer()
    obs = Observability().replace(tracer=tracer)
    assert obs.tracer is tracer
    assert (obs.history, obs.locality, obs.profiler) == (None, None, None)
    again = obs.replace(tracer=None)
    assert [getattr(again, name) for name in INSTRUMENTS] == [None] * 4
    assert again.registry is obs.registry


def test_empty_history_recorder_is_truthy():
    # perf/ tests ``cluster.obs.history`` for truthiness before its first
    # transaction; ``__len__`` alone would make the empty recorder falsy.
    recorder = HistoryRecorder()
    assert len(recorder) == 0 and recorder


def test_no_sentinel_and_no_enabled_flag_in_src():
    sentinel = re.compile(r"^Null[A-Z]|^NULL_")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
                # The one ``enabled`` left is ``DiskParams.enabled``, always
                # read through an attribute or local named ``disk``.
                owner = getattr(node.value, "attr",
                                getattr(node.value, "id", None))
                if name == "enabled" and owner != "disk":
                    offenders.append(f"{path}:{node.lineno}: .enabled")
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                name = node.name
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            if sentinel.match(name):
                offenders.append(f"{path}:{node.lineno}: {name}")
    assert offenders == []


def test_hot_modules_emit_positionally():
    """A trace record is written by the writer of a declared emit point
    (``tracer.point(name, cat, is_span, arg=type, ...)``), called
    positionally: no module under ``src/repro`` calls ``begin`` / ``end`` /
    ``instant`` or passes keywords to any other tracer method."""
    offenders, sites = [], 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            owner = getattr(owner, "attr", getattr(owner, "id", ""))
            if owner.lstrip("_") != "tracer":
                continue
            sites += 1
            if node.func.attr in ("begin", "end", "instant") or (
                    node.keywords and node.func.attr != "point"):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}: "
                                 f"tracer.{node.func.attr}(...)")
    assert offenders == [] and sites >= 50  # the walk still finds them
