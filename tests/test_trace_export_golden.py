"""Golden trace exports: the bytes ``repro trace`` / ``repro analyze`` write.

One short fixed-seed traced Smallbank window must export, byte for byte, what
the commit *before* the tracer's list of ``Span`` objects became a row store
produced: the Chrome trace-event JSON, the span JSONL and the critical-path
breakdown table computed from that JSONL.  The golden file was recorded from
that parent commit (b01be22) with::

    PYTHONPATH=src python tests/test_trace_export_golden.py --record

and must only ever be re-recorded by a change that means to alter what a
trace says — never by one that changes how records are stored or exported.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.harness.runner import main
from repro.obs import analyze, load_jsonl

GOLDEN = Path(__file__).with_name("golden_trace_export.json")
#: 3 nodes, 20 % remote: txn, execute, own_acquire, commit_replicate and the
#: service spans all appear, with flow arrows across nodes.
TRACE_ARGS = ["--nodes", "3", "--remote", "0.2", "--duration", "1200",
              "--seed", "5"]


def export_digests(out_dir: Path) -> dict:
    """Trace one window through the CLI; sha256 of everything it exports."""
    chrome, jsonl = out_dir / "trace.json", out_dir / "trace.jsonl"
    code = main(["trace", *TRACE_ARGS, "--out", str(chrome),
                 "--jsonl", str(jsonl)])
    records = load_jsonl(str(jsonl))
    table = analyze(records).breakdown_table()
    return {"exit": code,
            "records": len(records),
            "chrome": hashlib.sha256(chrome.read_bytes()).hexdigest(),
            "jsonl": hashlib.sha256(jsonl.read_bytes()).hexdigest(),
            "analyze": hashlib.sha256(table.encode("utf-8")).hexdigest()}


def test_trace_exports_match_parent_golden(tmp_path, capsys):
    got = export_digests(tmp_path)
    capsys.readouterr()
    assert got == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_export_golden.py --record")
    with tempfile.TemporaryDirectory() as _tmp:
        _golden = export_digests(Path(_tmp))
    assert _golden["exit"] == 0 and _golden["records"] > 10_000, _golden
    GOLDEN.write_text(json.dumps(_golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
