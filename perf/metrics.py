"""Every metric the benchmark reports, declared once.

``BENCHMARK.json`` at the repository root repeats these declarations for
the driver; ``perf/tests/test_perf_smoke.py`` asserts the two agree.

Two clocks, never mixed: ``clock="host"`` numbers are what the simulator
costs on this machine (noisy; medians over repeats); ``clock="sim"``
numbers are what modelled Zeus does (pure functions of seed, seconds and
code; exact).  Simulated time carries the unit ``sim-us`` so it is never
mistaken for a measured host time.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["END_TO_END", "PER_LAYER", "declaration"]


def _m(name: str, unit: str, better: str, clock: str, what: str,
       bound: float = None, same_seed: float = None) -> Dict[str, object]:
    doc = {"name": name, "unit": unit, "better": better, "clock": clock,
           "what": what}
    if bound is not None:
        doc["bound"] = bound
        doc["same_seed_bound"] = same_seed
    return doc


#: What a user of the system sees.  Each carries two regression bounds,
#: both a share of the parent's median by which the metric may worsen:
#:
#: ``same_seed_bound`` — the issue's: host metrics 10%, ``setup_s`` 25%,
#: simulated metrics 2%, for two reports of one (seed, seconds), which is
#: how ``compare.py`` is used.  Two runs of the *same code* must agree
#: exactly on every simulated number (``compare.py --same-code``).
#:
#: ``bound`` — what ``BENCHMARK.json`` carries for the driver, which
#: compares medians over ten *different* seeds, wants the quartile spread
#: of those ten within the bound and calls a third of it steady.  The
#: rule: the issue's bound where the widest spread in ``perf/spread.json``
#: (ten seeds x six workloads, twice) is below a third of it; otherwise
#: three times that spread, rounded up to the next 5%, at most 25%.  That
#: moves four of the eight.  Host time on the reference box spreads up to
#: 13% and its median moved 20% between the two sets (``tatp_1node``);
#: of the simulated numbers only ``chaos_faults`` varies with the seed
#: (throughput 3.1%, events/op 4.2%, p99 5.1%).
END_TO_END: List[Dict[str, object]] = [
    _m("ops_per_host_s", "op/s", "higher", "host",
       "ops / wall seconds of the timed window (median over repeats)",
       0.25, 0.10),
    _m("peak_rss_mb", "MiB", "lower", "host",
       "child-process high-water RSS at the end of the window (median "
       "over repeats)", 0.10, 0.10),
    _m("setup_s", "s", "lower", "host",
       "workload generation + ZeusCluster(...) + load(): median of 3 "
       "set-ups inside each child, median over repeats", 0.25, 0.25),
    _m("sim_ops_per_s", "op/sim-s", "higher", "sim",
       "ops / simulated seconds (per destination server for moves)",
       0.10, 0.02),
    _m("sim_lat_p50_us", "sim-us", "lower", "sim",
       "median simulated op latency incl. retries", 0.02, 0.02),
    _m("sim_lat_p99_us", "sim-us", "lower", "sim",
       "p99 of the same samples", 0.20, 0.02),
    _m("events_per_op", "events/op", "lower", "sim",
       "simulator events executed in the window / ops", 0.15, 0.02),
    _m("committed_share", "ratio", "higher", "sim",
       "1 - failed_share = ops / (ops + failed); 0 when any correctness "
       "gate fails", 0.02, 0.02),
]

_SHARE = "share of the traced window's wall time"
_MICRO = "micro rig, median of batches"

#: Single-layer numbers; layers are the ``src/repro`` package names.
PER_LAYER: List[Dict[str, object]] = [
    # ---- (a) from the traced run
    _m("sim.kernel_share", "ratio", "lower", "host",
       _SHARE + " in no event callback (heap, dispatch loop)"),
    _m("sim.events_per_host_s", "events/s", "higher", "host",
       "events executed / untraced wall seconds"),
    _m("sim.heap_pushes_per_op", "count", "lower", "sim",
       "events scheduled / ops"),
    _m("sim.cancelled_share", "ratio", "lower", "sim",
       "cancelled pops / pops (wasted heap work)"),
    _m("txn.share", "ratio", "lower", "host",
       _SHARE + " in repro.sim.process steps minus the spec_fn shim"),
    _m("txn.retries_per_op", "count", "lower", "sim",
       "aborted attempts (moves: refused acquires) / ops"),
    _m("workloads.share", "ratio", "lower", "host",
       _SHARE + " inside spec_fn"),
    _m("net.share", "ratio", "lower", "host", _SHARE + " in repro.net"),
    _m("net.msgs_per_op", "count", "lower", "sim", "wire messages / ops"),
    _m("net.bytes_per_op", "count", "lower", "sim", "wire bytes / ops"),
    _m("net.retransmit_share", "ratio", "lower", "sim",
       "retransmissions / wire messages"),
    _m("net.acks_per_msg", "ratio", "lower", "sim",
       "standalone acks / wire messages"),
    _m("net.dropped_share", "ratio", "lower", "sim",
       "messages dropped (faults, partitions, dead endpoints) / sent"),
    _m("cluster.share", "ratio", "lower", "host",
       _SHARE + " in repro.cluster minus protocol handler bodies"),
    _m("cluster.pool_util", "ratio", "lower", "sim",
       "worker-pool simulated busy / elapsed, mean over nodes"),
    _m("cluster.app_cpu_util", "ratio", "lower", "sim",
       "app-thread CpuServer simulated busy / elapsed, mean"),
    _m("commit.share", "ratio", "lower", "host",
       _SHARE + " in repro.commit incl. rc.* handler bodies"),
    _m("commit.msgs_per_commit", "count", "lower", "sim",
       "rc.* wire messages / reliable commits"),
    _m("commit.sim_lat_p50_us", "sim-us", "lower", "sim",
       "median submit-to-validated latency"),
    _m("commit.sim_lat_p99_us", "sim-us", "lower", "sim",
       "p99 submit-to-validated latency"),
    _m("ownership.share", "ratio", "lower", "host",
       _SHARE + " in repro.ownership incl. own.* handler bodies"),
    _m("ownership.reqs_per_op", "count", "lower", "sim",
       "ownership requests / ops"),
    _m("ownership.grant_share", "ratio", "higher", "sim",
       "granted / requested (useful outcomes per attempt)"),
    _m("ownership.msgs_per_req", "count", "lower", "sim",
       "own.* wire messages / ownership requests"),
    _m("ownership.sim_lat_p50_us", "sim-us", "lower", "sim",
       "median granted-acquire latency"),
    _m("ownership.sim_lat_p99_us", "sim-us", "lower", "sim",
       "p99 granted-acquire latency"),
    _m("recovery.share", "ratio", "lower", "host",
       _SHARE + " in repro.recovery incl. rec.* handler bodies"),
    _m("recovery.mttr_p50_us", "sim-us", "lower", "sim",
       "median crash-to-rejoined time"),
    _m("store.load_us_per_obj", "us", "lower", "host",
       "cluster.load() wall / catalog objects"),
    _m("store.rss_kb_per_kobj", "KiB", "lower", "host",
       "RSS growth over set-up per 1000 catalog objects"),
    _m("obs.profiler_overhead_pct", "%", "lower", "host",
       "traced wall / untraced wall - 1"),
    _m("obs.trace_overhead_pct", "%", "lower", "host",
       "smallbank_obs wall / smallbank_remote wall - 1 (0 elsewhere)"),
    _m("obs.rss_overhead_pct", "%", "lower", "host",
       "smallbank_obs peak RSS / smallbank_remote - 1 (0 elsewhere)"),
    _m("obs.events_overhead_pct", "%", "lower", "sim",
       "smallbank_obs events / smallbank_remote - 1 (0 elsewhere)"),
    _m("unattributed.share", "ratio", "lower", "host",
       _SHARE + " in callbacks of any other package"),
    # ---- (b) from perf/micro.py
    _m("sim.kernel.event_ns", "ns", "lower", "host",
       "call_after + dispatch of a no-op; " + _MICRO),
    _m("sim.process.switch_ns", "ns", "lower", "host",
       "one generator yield/resume; " + _MICRO),
    _m("sim.resources.charge_ns", "ns", "lower", "host",
       "CpuPool.charge; " + _MICRO),
    _m("net.send_deliver_ns", "ns", "lower", "host",
       "Network.send to endpoint; " + _MICRO),
    _m("net.reliable_msg_ns", "ns", "lower", "host",
       "ReliableTransport.send to in-order delivery; " + _MICRO),
    _m("net.reliable_events_per_msg", "count", "lower", "sim",
       "events per reliable message incl. its ack"),
    _m("cluster.node_msg_ns", "ns", "lower", "host",
       "Node.send until the remote handler ran; " + _MICRO),
    _m("cluster.node_events_per_msg", "count", "lower", "sim",
       "events per Node message"),
    _m("commit.submit_ns", "ns", "lower", "host",
       "one 1-object commit to 2 followers, submit to validated; " + _MICRO),
    _m("commit.events_per_commit", "count", "lower", "sim",
       "events per idle reliable commit"),
    _m("commit.msgs_per_commit_idle", "count", "lower", "sim",
       "wire messages per idle reliable commit"),
    _m("ownership.acquire_ns", "ns", "lower", "host",
       "one remote acquire on an idle cluster; " + _MICRO),
    _m("ownership.events_per_acquire", "count", "lower", "sim",
       "events per idle acquire"),
    _m("ownership.msgs_per_acquire", "count", "lower", "sim",
       "wire messages per idle acquire"),
    _m("ownership.sim_lat_idle_us", "sim-us", "lower", "sim",
       "simulated latency of an idle acquire"),
    _m("txn.local_write_ns", "ns", "lower", "host",
       "fast-path local write txn on 1 node; " + _MICRO),
    _m("txn.local_read_ns", "ns", "lower", "host",
       "fast-path local read txn on 1 node; " + _MICRO),
    _m("workloads.spec_ns.smallbank", "ns", "lower", "host",
       "SmallbankWorkload.spec_for; " + _MICRO),
    _m("workloads.spec_ns.tatp", "ns", "lower", "host",
       "TatpWorkload.spec_for; " + _MICRO),
    _m("workloads.spec_ns.voter", "ns", "lower", "host",
       "VoterWorkload.spec_for; " + _MICRO),
    _m("obs.tracer_span_ns", "ns", "lower", "host",
       "Tracer.begin + end; " + _MICRO),
    _m("obs.history_op_ns", "ns", "lower", "host",
       "HistoryRecorder begin/read/write/respond; " + _MICRO),
    _m("obs.locality_txn_ns", "ns", "lower", "host",
       "LocalityRecorder begin + commit_txn; " + _MICRO),
]


def declaration(metric: Dict[str, object]) -> Dict[str, object]:
    """The subset of a metric's fields BENCHMARK.json carries."""
    keys = ("name", "unit", "better") + (("bound",) if "bound" in metric else ())
    return {key: metric[key] for key in keys}
