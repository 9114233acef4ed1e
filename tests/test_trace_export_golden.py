"""Golden trace exports: the bytes ``repro trace`` / ``repro analyze`` write.

One short fixed-seed traced Smallbank window must export, byte for byte, what
the commit *before* the tracer's list of ``Span`` objects became a row store
produced: the Chrome trace-event JSON, the span JSONL and the critical-path
breakdown table computed from that JSONL.  That entry was recorded from that
parent commit (b01be22).

Four more traced windows pin the records of the cold emit points — faults,
recovery, rebalance, the movers, the reliable transport's probes and
retransmits and Hermes writes — by the sha256 of their span JSONL; between
them every one of those points fires.  They were recorded while those sites
still went through the keyword ``begin`` / ``end`` / ``instant`` calls, the
commit before that API was deleted.  Record with::

    PYTHONPATH=src python tests/test_trace_export_golden.py --record

and only ever re-record for a change that means to alter what a trace says —
never for one that changes how records are declared, stored or exported.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.chaos.campaign import (CampaignConfig, Recipe, campaign_schedule,
                                  run_cell)
from repro.harness.rig import Rig, counter_catalog
from repro.harness.runner import main
from repro.harness.scenarios import SCENARIOS
from repro.obs import (Observability, Tracer, analyze, load_jsonl,
                       write_trace_jsonl)
from repro.sim.params import DiskParams

GOLDEN = Path(__file__).with_name("golden_trace_export.json")
#: 3 nodes, 20 % remote: txn, execute, own_acquire, commit_replicate and the
#: service spans all appear, with flow arrows across nodes.
TRACE_ARGS = ["--nodes", "3", "--remote", "0.2", "--duration", "1200",
              "--seed", "5"]


def export_digests(out_dir: Path) -> dict:
    """Trace one window through the CLI; sha256 of everything it exports."""
    chrome, jsonl = out_dir / "trace.json", out_dir / "trace.jsonl"
    code = main(["trace", *TRACE_ARGS, "--trace", str(chrome),
                 "--jsonl", str(jsonl)])
    records = load_jsonl(str(jsonl))
    table = analyze(records).breakdown_table()
    return {"exit": code,
            "records": len(records),
            "chrome": hashlib.sha256(chrome.read_bytes()).hexdigest(),
            "jsonl": hashlib.sha256(jsonl.read_bytes()).hexdigest(),
            "analyze": hashlib.sha256(table.encode("utf-8")).hexdigest()}


def _power_loss(obs: Observability) -> None:
    """A WAL-on cell that powers the cluster off and cold-starts it."""
    cfg = CampaignConfig(cell=Recipe(duration_us=8_000.0, quiesce_us=6_000.0,
                                     disk=DiskParams(enabled=True)),
                         power_loss=True)
    run_cell(cfg.cell.of(campaign_schedule(cfg, 0), 1), obs)


def _lb_scale_out(obs: Observability) -> None:
    """An LB-routed rig (Hermes writes pin the keys) that adds one node."""
    rig = Rig(counter_catalog(3, 12), 1, obs)
    rig.cluster.start_membership()
    rig.add_lb((i, i % 3) for i in range(12))
    rig.start(rig.routed_spec(0.1), 6_000.0)
    rig.cluster.sim.call_at(2_000.0, rig.cluster.add_nodes, 1)
    rig.cluster.run(until=8_000.0)


#: name -> ``run(obs)``: chaos2 (slow, crash, recover, a fault window, probes
#: and retransmits, quarantine / transfer / repair), elastic (add_nodes,
#: drain, partition / heal, the rebalancer's drain and movers), a power loss
#: (the cold-restart points) and an LB-routed scale-out (``hermes_write``).
COLD_WINDOWS = {
    "chaos2": lambda obs: SCENARIOS["chaos2"](1, obs),
    "elastic": lambda obs: SCENARIOS["elastic"](1, obs),
    "power_loss": _power_loss,
    "lb_scale_out": _lb_scale_out,
}


def cold_digest(name: str, out_dir: Path) -> dict:
    obs = Observability(tracer=Tracer())
    COLD_WINDOWS[name](obs)
    jsonl = Path(write_trace_jsonl(obs.tracer, str(out_dir / f"{name}.jsonl")))
    return {"records": len(obs.tracer.spans) + len(obs.tracer.instants),
            "jsonl": hashlib.sha256(jsonl.read_bytes()).hexdigest()}


def test_trace_exports_match_parent_golden(tmp_path, capsys):
    got = export_digests(tmp_path)
    capsys.readouterr()
    assert got == json.loads(GOLDEN.read_text())["smallbank"]


@pytest.mark.parametrize("name", list(COLD_WINDOWS))
def test_cold_site_exports_match_parent_golden(name, tmp_path):
    assert cold_digest(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_export_golden.py --record")
    with tempfile.TemporaryDirectory() as _tmp:
        _golden = {"smallbank": export_digests(Path(_tmp))}
        _golden.update((name, cold_digest(name, Path(_tmp)))
                       for name in COLD_WINDOWS)
    assert _golden["smallbank"]["exit"] == 0, _golden
    GOLDEN.write_text(json.dumps(_golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
