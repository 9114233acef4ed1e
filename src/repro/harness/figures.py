"""The paper's evaluation (§8) as one table: every table, figure and
ablation is a :class:`Figure` row of :data:`FIGURES` (ids: DESIGN.md §3).

``run(**row.sizes)`` simulates the experiment at the sizes the committed
``results/`` were recorded at and returns its payload (each ``run``
docstring has the paper's claim and why the scaled-down run still shows
it), ``table(payload)`` renders what the paper's artefact reports, and
``bands(payload)`` judges the *shape* the reproduction targets — who wins,
by roughly what factor, where the crossovers fall — as a ``(gate,
problem)`` list, so a band is callable on a stored or hand-built payload
without simulating anything.  A payload's ``detail`` entry (display-only
series, per-scenario verdicts) is the one part ``results/<result>.json``
does not carry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple

from ..apps import (CellularGateway, NginxServer, OpenLoopSource,
                    RemoteKvClient, RemoteKvServer, RequestQueue,
                    SctpEndpoint, build_gateway_catalog, build_nginx_catalog,
                    build_sctp_catalog, serve_queue)
from ..apps.gateway import PARSE_US
from ..apps.nginx import REQUEST_US
from ..baselines import DRTM, FARM, FASST
from ..chaos import explore
from ..obs import LatencyRecorder, ThroughputMeter, cdf_points
from ..store.catalog import Catalog
from ..verify import SCENARIOS, check_protocol
from ..workloads import (SMALLBANK_MIX, TATP_MIX, HandoverWorkload,
                         MobilityModel, SmallbankWorkload, TatpWorkload,
                         TpccAnalysis, VenmoGraph, VoterWorkload,
                         migrate_objects)
from .rig import loaded_cluster, steady_state
from .tables import ascii_series, format_table, save_result

__all__ = ["Figure", "FIGURES"]

#: Failed gates as ``(gate, problem)``; empty means passed.
Problems = List[Tuple[str, str]]


@dataclass(frozen=True)
class Figure:
    """One gated experiment: an artefact of the paper's evaluation, or a
    CLI command's row (``result`` ``None``: it saves nothing)."""

    id: str
    title: str
    result: Optional[str]
    run: Callable[..., dict]
    table: Callable[[dict], str]
    bands: Callable[[dict], Problems]
    #: The ``run`` keywords ``results/`` was recorded at.
    sizes: dict = field(default_factory=dict)

    def save(self, payload: dict) -> str:
        """Write ``payload`` minus its ``detail`` to ``results/``."""
        return save_result(self.result, {k: v for k, v in payload.items()
                                         if k != "detail"})


def _bands(*checks) -> Problems:
    """``(gate, holds, measured)`` checks -> the failed ones, what was
    measured as the problem text."""
    return [(gate, str(measured)) for gate, holds, measured in checks
            if not holds]


def _mtps(tps: float) -> str:
    return f"{tps/1e6:.2f}M"


# ------------------------------------------------------------- Table 2

#: benchmark -> (characteristic, the paper's read-only share).
_T2_PAPER = {"Handovers": ("large contexts", 0.00),
             "Smallbank": ("write-intensive", 0.15),
             "TATP": ("read-intensive", 0.80),
             "Voter": ("popularity skew", 0.00)}


def _t2_run(users_per_node, stations_per_node, accounts_per_node,
            subscribers_per_node, voters, samples):
    """Table 2 — summary of the evaluated benchmarks.

    Checks that our workload implementations have the static properties the
    paper tabulates: table counts, transaction-type counts, and read-only
    transaction shares (Handovers 0%, Smallbank 15%, TATP 80%, Voter 0%).
    """
    def read_share(wl) -> float:
        rng = random.Random(99)
        reads = total = 0
        for _ in range(samples):
            spec = wl.spec_for(rng.randrange(3), 0, rng)
            if spec is None:
                continue
            total += 1
            reads += spec.read_only
        return reads / total if total else 0.0

    workloads = {
        "Handovers": (HandoverWorkload(3, users_per_node=users_per_node,
                                       stations_per_node=stations_per_node),
                      4),
        "Smallbank": (SmallbankWorkload(3, accounts_per_node=accounts_per_node),
                      len(SMALLBANK_MIX)),
        "TATP": (TatpWorkload(3, subscribers_per_node=subscribers_per_node),
                 len(TATP_MIX)),
        "Voter": (VoterWorkload(3, voters=voters), 1),
    }
    return {name: {"tables": len(wl.catalog.tables), "txs": txs,
                   "read_share": read_share(wl)}
            for name, (wl, txs) in workloads.items()}


def _t2_table(out):
    return format_table(
        ["benchmark", "characteristic", "tables", "txs",
         "read txs (measured)", "paper"],
        [(name, _T2_PAPER[name][0], r["tables"], r["txs"],
          f"{100*r['read_share']:.1f}%", f"{100*_T2_PAPER[name][1]:.0f}%")
         for name, r in out.items()],
        title="Table 2 — benchmark summary")


def _t2_bands(out):
    tables = {name: r["tables"] for name, r in out.items()}
    return _bands(
        *((f"read_share[{name}]",
           abs(out[name]["read_share"] - paper) < 0.03,
           {"measured": out[name]["read_share"], "paper": paper})
          for name, (_char, paper) in _T2_PAPER.items()),
        # Paper's table counts: Handovers 5, Smallbank 3 (acct split into
        # checking/savings here: 2 + conceptual account = paper counts 3),
        # TATP 4, Voter 3 (contestant/history + conceptual area codes: 2
        # here).
        ("tables[Handovers]", tables["Handovers"] == 5, tables),
        ("tables[TATP]", tables["TATP"] == 4, tables),
        ("tables[Smallbank]", tables["Smallbank"] >= 2, tables),
        ("tables[Voter]", tables["Voter"] >= 2, tables))


# --------------------------------- §8 "Locality in workloads" (L1 x 3)
#
# Paper numbers:
# * Boston cellular handovers: remote handovers grow with node count, up to
#   6.2% on six nodes; with 5% handovers that is 0.31% remote transactions;
# * Venmo: 0.7% remote transactions on 3 nodes, 1.2% on 6;
# * TPC-C: 2.45% of transactions are remote.


def _boston_run():
    """Boston mobility model: remote-handover fraction by node count."""
    return {str(n): MobilityModel(n).measure_remote_fraction()
            for n in (2, 3, 4, 6)}


def _boston_table(out):
    return format_table(
        ["nodes", "analytic remote HO", "measured remote HO"],
        [(n, f"{100*MobilityModel(int(n)).analytic_remote_fraction():.1f}%",
          f"{100*measured:.1f}%") for n, measured in out.items()],
        title="Boston mobility — remote handover fraction (paper: 6.2% @6)")


def _boston_bands(out):
    remote_txns = 0.05 * out["6"]
    return _bands(
        # Monotone in node count; six-node value near the paper's 6.2%.
        ("monotone", out["2"] < out["3"] < out["6"], out),
        ("six_node_remote", 0.04 < out["6"] < 0.09, out["6"]),
        # Overall remote-transaction rate at 5% handovers: ~0.3%.
        ("remote_txns", 0.002 < remote_txns < 0.005, remote_txns))


def _venmo_run():
    """Venmo payment graph: remote transactions at 3 and 6 nodes."""
    graph = VenmoGraph()
    return {"remote_3n": graph.measure_remote_fraction(3),
            "remote_6n": graph.measure_remote_fraction(6),
            "clustering": graph.clustering_ratio()}


def _venmo_table(out):
    return format_table(
        ["nodes", "remote txns", "paper"],
        [(3, f"{100*out['remote_3n']:.2f}%", "0.7%"),
         (6, f"{100*out['remote_6n']:.2f}%", "1.2%")],
        title="Venmo payment graph — remote transactions")


def _venmo_bands(out):
    # Sub-2% remote at both scales, increasing with node count, and the
    # graph is strongly clustered (the studies' core observation).
    return _bands(
        ("remote_3n", 0.004 < out["remote_3n"] < 0.012, out),
        ("remote_6n", out["remote_3n"] < out["remote_6n"] < 0.02, out),
        ("clustering", out["clustering"] > 0.95, out))


def _tpcc_run():
    """TPC-C: the analytic remote fraction."""
    return TpccAnalysis().summary()


def _tpcc_table(out):
    return format_table(
        ["metric", "value"],
        [(k, f"{100*v:.2f}%" if isinstance(v, float) else v)
         for k, v in out.items()],
        title="TPC-C analytic remote fraction (paper: 2.45%)")


def _tpcc_bands(out):
    # The per-line convention with geography-aware sharding reproduces the
    # paper's 2.45% within a few tenths.
    per_line = out["remote_fraction_per_line"]
    return _bands(("per_line", 0.015 < per_line < 0.035, per_line))


# ------------------------------------------------------------ Figure 7


def _f7_run(users_per_node, stations_per_node, threads, duration_us,
            warmup_us):
    """Figure 7 — Handovers: all-local ideal vs. Zeus, 2.5% / 5% handovers.

    Paper claims: Zeus with dynamic sharding is within 4-9% of the ideal of
    all-local accesses, scales linearly with node count, and issues <0.5%
    ownership requests.

    Scaling vs. paper: 2M users / 1000 base stations scaled to a few
    thousand users and 40 stations per node; throughput is therefore lower
    in absolute terms but the ideal-vs-Zeus *ratio* — the figure's claim —
    is scale-free.
    """
    def point(nodes, handover_frac, remote_frac):
        wl = HandoverWorkload(nodes, users_per_node=users_per_node,
                              stations_per_node=stations_per_node,
                              handover_frac=handover_frac,
                              remote_handover_frac=remote_frac)
        _, stats = steady_state(wl, 0, threads, duration_us, warmup_us)
        return (stats.throughput_tps(duration_us),
                stats.ownership_requests / max(1, stats.committed))

    series = {}
    for nodes in (3, 6):
        ideal, _own = point(nodes, 0.025, 0.0)
        for ho_frac, label in ((0.025, "2.5% handovers"),
                               (0.05, "5% handovers")):
            tps, own_frac = point(nodes, ho_frac, None)
            series[f"{nodes}n_{label}"] = {
                "ideal_tps": ideal, "zeus_tps": tps,
                "gap_pct": 100.0 * (1.0 - tps / ideal) if ideal else 0.0,
                "ownership_frac": own_frac,
            }
    return series


def _f7_table(series):
    return format_table(
        ["nodes", "mobility", "all-local (ideal)", "zeus", "gap",
         "own req/txn"],
        [(*key.split("n_", 1), _mtps(e["ideal_tps"]), _mtps(e["zeus_tps"]),
          f"{e['gap_pct']:.1f}%", f"{100*e['ownership_frac']:.2f}%")
         for key, e in series.items()],
        title="Figure 7 — Handovers: ideal vs Zeus")


def _f7_bands(series):
    # Zeus within a modest gap of ideal; more handovers or more nodes never
    # *improve* on ideal; ownership traffic is sparse.
    checks = []
    for key, e in series.items():
        checks += [
            (f"not_above_ideal[{key}]",
             e["zeus_tps"] <= e["ideal_tps"] * 1.05, e),
            (f"gap[{key}]", e["gap_pct"] < 15.0, e),
            (f"ownership_frac[{key}]", e["ownership_frac"] < 0.02, e),
        ]
    # Linear-ish scaling: 6 nodes beats 3 nodes substantially.
    three = series["3n_2.5% handovers"]["zeus_tps"]
    six = series["6n_2.5% handovers"]["zeus_tps"]
    return _bands(*checks, ("scaling", six > 1.5 * three,
                            {"3 nodes": three, "6 nodes": six}))


# ------------------------------------------------------- Figures 8 & 9


def _remote_sweep(workload, init_value, fracs, baselines, fracs6, threads,
                  duration_us, warmup_us):
    """Zeus and each baseline profile on 3 nodes over the remote-write
    fractions ``fracs``, plus Zeus on 6 nodes over ``fracs6``.  The
    baselines shard statically, so their workload does not track
    migrations."""
    def tps(nodes, frac, profile=None):
        wl = workload(nodes, remote_frac=frac,
                      track_migration=profile is None)
        _, stats = steady_state(wl, init_value, threads, duration_us,
                                warmup_us, profile=profile)
        return stats.throughput_tps(duration_us)

    out = {"fracs": list(fracs), "zeus3": [],
           **{name: [] for name in baselines}, "zeus6": []}
    for frac in fracs:
        out["zeus3"].append(tps(3, frac))
        for name, profile in baselines.items():
            out[name].append(tps(3, frac, profile))
    for frac in fracs6:
        out["zeus6"].append((frac, tps(6, frac)))
    return out


def _sweep_table(out, title, columns):
    rows = [(f"{100*frac:.0f}%", *(_mtps(out[key][i]) for key in columns))
            for i, frac in enumerate(out["fracs"])]
    six = [(frac, _mtps(tps)) for frac, tps in out["zeus6"]]
    return (format_table(["remote writes", *columns.values()], rows,
                         title=title)
            + f"\n6-node Zeus: {six}")


def _f8_run(accounts_per_node, threads, duration_us, warmup_us):
    """Figure 8 — Smallbank throughput vs. % of remote write transactions.

    Paper claims: at Venmo-level remote fractions (~1%), Zeus beats FaSST
    by ~35% and DrTM by ~100%; Zeus's throughput falls as the remote-write
    fraction grows, breaking even with FaSST around 5% and with DrTM around
    20%; the 3-node and 6-node trends match.

    We run the baselines on the same simulated hardware instead of quoting
    their papers' numbers (see DESIGN.md), so the crossover *positions* are
    model outputs — the banded shape is: Zeus wins at high locality, decays
    with remote fraction, and the baselines are nearly flat.
    """
    return _remote_sweep(
        lambda nodes, **kw: SmallbankWorkload(nodes, accounts_per_node, **kw),
        1_000, (0.0, 0.01, 0.05, 0.10, 0.20, 0.40),
        {"fasst3": FASST, "drtm3": DRTM}, (0.01, 0.10),
        threads, duration_us, warmup_us)


_f8_table = partial(
    _sweep_table, title="Figure 8 — Smallbank vs remote-write fraction",
    columns={"zeus3": "Zeus (3n)", "fasst3": "FaSST-like (3n)",
             "drtm3": "DrTM-like (3n)"})


def _f8_bands(out):
    zeus, fasst, drtm = out["zeus3"], out["fasst3"], out["drtm3"]
    (_, six_lo), (_, six_hi) = out["zeus6"]
    at_1pct = {"zeus": zeus[1], "fasst": fasst[1], "drtm": drtm[1]}
    at_40pct = {"zeus": zeus[-1], "fasst": fasst[-1], "drtm": drtm[-1]}
    return _bands(
        # Venmo-level locality (~1% remote): Zeus clearly ahead of both.
        # (The paper quotes DrTM's published numbers from weaker absolute
        # baselines; on equal simulated hardware DrTM-like lands near
        # FaSST-like — see EXPERIMENTS.md.)
        ("leads_fasst_at_1pct", zeus[1] > 1.2 * fasst[1], at_1pct),
        ("leads_drtm_at_1pct", zeus[1] > 1.2 * drtm[1], at_1pct),
        # Zeus decays with remote fraction; the crossover exists.
        ("decays", zeus[-1] < zeus[0], zeus),
        ("gap_closes", zeus[-1] < max(fasst[-1], drtm[-1]) * 1.3, at_40pct),
        # Baselines are comparatively flat (static sharding, remote forever).
        ("fasst_flat", fasst[-1] > 0.4 * fasst[0], fasst),
        # 6-node trend mirrors 3-node: higher total, same ordering.
        ("six_node_decays", six_lo > six_hi, out["zeus6"]),
        ("six_node_scales", six_lo > zeus[1],
         {"3 nodes": zeus[1], "6 nodes": six_lo}))


def _f9_run(subscribers_per_node, threads, duration_us, warmup_us):
    """Figure 9 — TATP throughput vs. % of remote write transactions.

    Paper claims: with small remote fractions Zeus beats FaSST by up to 2x
    and FaRM by up to 3.5x; because TATP is read-dominant (80% reads, which
    Zeus serves locally from any replica with no commit traffic), the
    break-even points move out to ~20% (FaSST) and ~40% (FaRM) of *write*
    transactions requiring ownership changes; 3- and 6-node trends match
    Smallbank's.
    """
    return _remote_sweep(
        lambda nodes, **kw: TatpWorkload(nodes, subscribers_per_node, **kw),
        0, (0.0, 0.05, 0.20, 0.40, 0.80),
        {"fasst3": FASST, "farm3": FARM}, (0.05, 0.40),
        threads, duration_us, warmup_us)


_f9_table = partial(
    _sweep_table, title="Figure 9 — TATP vs remote-write fraction",
    columns={"zeus3": "Zeus (3n)", "fasst3": "FaSST-like (3n)",
             "farm3": "FaRM-like (3n)"})


def _f9_bands(out):
    zeus, fasst, farm = out["zeus3"], out["fasst3"], out["farm3"]
    six_lo = out["zeus6"][0][1]
    at = lambda i: {"zeus": zeus[i], "fasst": fasst[i], "farm": farm[i]}
    return _bands(
        # High locality: Zeus well ahead (reads are local + no commit
        # traffic).
        ("leads_fasst_at_0pct", zeus[0] > 1.3 * fasst[0], at(0)),
        ("leads_farm_at_0pct", zeus[0] > 1.3 * farm[0], at(0)),
        # Read-dominance slows the decay vs Smallbank: at 5% remote writes
        # Zeus still leads FaSST clearly; the crossover lands near the
        # paper's ~20%.
        ("leads_fasst_at_5pct", zeus[1] > 1.15 * fasst[1], at(1)),
        ("crossover_near_20pct", zeus[2] < 1.25 * fasst[2], at(2)),
        # Decay with remote fraction exists and the gap closes at the tail.
        ("decays", zeus[-1] < zeus[0], zeus),
        ("gap_closes", zeus[-1] < max(fasst[-1], farm[-1]) * 1.4, at(-1)),
        # 6-node trend: same ordering, higher totals.
        ("six_node_scales", six_lo > zeus[1],
         {"3 nodes": zeus[1], "6 nodes": six_lo}))


# ------------------------------------------------- Figures 10, 11 & 12


def _spawn_voters(cluster, wl, threads, horizon, on_commit=None):
    """Closed-loop voting on every node until ``horizon``; each thread
    serves the voters whose contestant is currently routed to its node (the
    LB keeps same-contestant votes on the contestant's node, so when the
    contestants move, the vote load follows them)."""
    sim = cluster.sim

    def voter_thread(node_id, thread):
        api = cluster.handles[node_id].api
        rng = cluster.rng.stream(f"vote.{node_id}.{thread}")
        while sim.now < horizon:
            spec = wl.spec_for(node_id, thread, rng)
            if spec is None:
                yield 50.0
                continue
            r = yield from api.execute_write(thread, spec.write_set,
                                             exec_us=spec.exec_us)
            if r.committed and on_commit is not None:
                on_commit(spec)

    for node_id in range(3):
        for t in range(threads):
            cluster.spawn_app(node_id, t, voter_thread(node_id, t))


def _move_all(cluster, wl, target, threads, progress=None, latencies=None):
    """Re-pin every contestant to ``target`` (votes now route there) and
    let ``threads`` movers drag all voter and contestant rows over."""
    for c in range(wl.num_contestants):
        wl.move_contestant(c, target)
    migrate_objects(cluster, target,
                    list(wl.history_oids) + list(wl.contestant_oids),
                    threads=threads, latencies=latencies, progress=progress)


def _move_hot(cluster, wl, threads, progress=None, latencies=None):
    """Move the hot contestant, and its voters' rows, to the next node."""
    target = (wl.contestant_node[0] + 1) % 3
    migrate_objects(cluster, target, wl.move_contestant(0, target),
                    threads=threads, latencies=latencies, progress=progress)


def _f10_run(voters, mover_threads, vote_threads, move1_at, horizon):
    """Figure 10 — Voter: bulk-moving all voter objects across nodes.

    Paper setup: 1M voters voting at ~4 Mtps, all objects on node 1; at
    t=2s everything moves to node 2, at t=7s to node 3; the full move takes
    ~4s, i.e. ~25k objects/s per mover thread and ~250k/s per server with
    10 threads, while voting continues.

    Scaling: 12k voter objects and 4 mover threads (1/83 of the paper's
    objects, ~2/5 of its mover threads); the *per-thread* migration rate —
    the figure's headline number — is scale-free, and the throughput
    timeline shows the same shape: voting continues throughout both moves.
    """
    wl = VoterWorkload(3, voters=voters, single_node_setup=True)
    cluster = loaded_cluster(wl.catalog, 6)
    sim = cluster.sim
    meter = ThroughputMeter(bin_us=10_000.0)
    _spawn_voters(cluster, wl, vote_threads, horizon,
                  lambda _spec: meter.record(sim.now))

    objects = len(wl.history_oids) + len(wl.contestant_oids)
    progress1, progress2 = [], []
    sim.call_at(move1_at, _move_all, cluster, wl, 1, mover_threads, progress1)
    # Advance until the first move completes, then schedule the second.
    while (len(progress1) < objects and sim.now < horizon
           and sim.peek_time() is not None):
        cluster.run(until=sim.now + 5_000.0)
    move2_at = sim.now + 10_000.0
    sim.call_at(move2_at, _move_all, cluster, wl, 2, mover_threads, progress2)
    cluster.run(until=horizon)

    per_thread = (objects / (progress1[-1] - move1_at) * 1e6
                  / mover_threads) if progress1 else 0.0
    return {
        "objects": objects,
        "mover_threads": mover_threads,
        "move1_seconds": ((progress1[-1] - move1_at) / 1e6
                          if progress1 else None),
        "move2_seconds": ((progress2[-1] - move2_at) / 1e6
                          if len(progress2) == objects else None),
        "objects_per_s_per_thread": per_thread,
        "objects_per_s_per_server": per_thread * mover_threads,
        "votes_total": meter.total,
        "detail": {"timeline": meter.timeline()},
    }


def _f10_table(out):
    seconds = lambda s: f"{s:.3f}" if s else "-"
    return (format_table(
        ["objects", "movers", "move1 (s)", "move2 (s)",
         "obj/s/thread", "obj/s/server"],
        [(out["objects"], out["mover_threads"],
          seconds(out["move1_seconds"]), seconds(out["move2_seconds"]),
          f"{out['objects_per_s_per_thread']:,.0f}",
          f"{out['objects_per_s_per_server']:,.0f}")],
        title="Figure 10 — Voter bulk migration (paper: ~25k obj/s/thread)")
        + "\n" + ascii_series(out["detail"]["timeline"],
                              label="votes/s timeline"))


def _f10_bands(out):
    # The per-thread rate is ~1/(ownership latency + issue gap); our
    # simulated latency is lower than the paper's loaded testbed, so the
    # band is wide (paper: 25k/s/thread; see EXPERIMENTS.md).
    rate = out["objects_per_s_per_thread"]
    return _bands(
        ("rate_per_thread", 10_000 < rate < 300_000, rate),
        ("move1_completes", out["move1_seconds"] is not None,
         "the first bulk move never finished"),
        ("voting_continues", out["votes_total"] > 10_000, out["votes_total"]))


def _f11_run(voters, hot_voters, vote_threads, horizon, moves_at):
    """Figure 11 — Voter: migrating a hot contestant under full voting load.

    Paper setup: one hot contestant with 100k voters (~0.7 Mtps from one
    worker thread) plus ~5.3 Mtps of background votes; at t=2s, 6s and 10s
    the hot contestant (and its 100k voter objects) moves to another node.
    The mover still sustains ~25k objects/s per thread and the rest of the
    system keeps its ~5.3 Mtps — "the performance of ownership is not
    impacted by concurrent transactions".

    Scaling: 15k voters of which 3k belong to the hot contestant; one mover
    thread, as in the paper's single-worker setup.
    """
    wl = VoterWorkload(3, voters=voters, hot_contestant_voters=hot_voters)
    cluster = loaded_cluster(wl.catalog, 6)
    sim = cluster.sim
    total_meter = ThroughputMeter(bin_us=10_000.0)
    hot_meter = ThroughputMeter(bin_us=10_000.0)
    hot_oid = wl.contestant_oids[0]

    def on_commit(spec):
        total_meter.record(sim.now)
        if spec.write_set[0] == hot_oid:
            hot_meter.record(sim.now)

    _spawn_voters(cluster, wl, vote_threads, horizon, on_commit)
    progress = []
    for at in moves_at:
        sim.call_at(at, _move_hot, cluster, wl, 1, progress)
    cluster.run(until=horizon)
    return {
        "total_tps": total_meter.rate_tps(horizon),
        "hot_tps": hot_meter.rate_tps(horizon),
        "objects_moved": len(progress),
        "mover_objects_per_s": (
            len(progress) / ((progress[-1] - moves_at[0]) / 1e6)
            if progress else 0.0),
        "detail": {"timeline": total_meter.timeline()},
    }


def _f11_table(out):
    return (format_table(
        ["total votes/s", "hot votes/s", "objects moved", "mover obj/s"],
        [(f"{out['total_tps']:,.0f}", f"{out['hot_tps']:,.0f}",
          out["objects_moved"], f"{out['mover_objects_per_s']:,.0f}")],
        title="Figure 11 — Voting + concurrent hot-contestant migration")
        + "\n" + ascii_series(out["detail"]["timeline"],
                              label="total votes/s"))


def _f11_bands(out):
    return _bands(
        # The mover completes all three moves of the hot contestant's 3k
        # voter rows and its own (paper-scale sizes), ...
        ("moves_complete", out["objects_moved"] >= 0.9 * 3 * 3_001, out),
        # ...the hot contestant is a visible share of load, and the system
        # keeps voting throughout.
        ("hot_share", out["hot_tps"] > 0.05 * out["total_tps"], out),
        ("voting_continues", out["total_tps"] > 500_000, out),
        # Migration under load is not starved by concurrent transactions.
        ("mover_rate", out["mover_objects_per_s"] > 10_000, out))


_F12_CASES = (("bulk move (fig10)", False, "17 / 36"),
              ("hot move under load (fig11)", True, "29 / 83"))


def _f12_run(voters, hot_voters, horizon):
    """Figure 12 — CDF of ownership-request latency.

    Paper: during the bulk-move experiment (Fig. 10) mean latency is 17µs
    and p99.9 is 36µs; while moving hot objects under full load (Fig. 11)
    the mean rises to 29µs and p99.9 to 83µs — 3x faster than Rocksteady's
    p99.9.

    Our simulated fabric is somewhat faster than their loaded testbed, so
    the absolute numbers sit lower; the banded shape is the paper's:
    single-digit microsecond scale, a modest mean-to-tail spread, and
    *higher* latency when moving hot objects under load than in the idle
    bulk move.
    """
    def move_latencies(with_load: bool) -> LatencyRecorder:
        wl = VoterWorkload(3, voters=voters,
                           hot_contestant_voters=hot_voters if with_load else 0,
                           single_node_setup=not with_load)
        cluster = loaded_cluster(wl.catalog, 6)
        if with_load:
            _spawn_voters(cluster, wl, 2, horizon)
        rec = LatencyRecorder()
        move = (partial(_move_hot, cluster, wl) if with_load
                else partial(_move_all, cluster, wl, 1))
        cluster.sim.call_at(10_000.0,
                            partial(move, 2, latencies=rec.samples))
        cluster.run(until=horizon)
        return rec

    out = {}
    for label, with_load, _paper in _F12_CASES:
        rec = move_latencies(with_load)
        out[label] = rec.summary()
        out[label + "_cdf"] = cdf_points(rec.samples, points=20)
    return out


def _f12_table(out):
    return format_table(
        ["experiment", "n", "mean µs", "p50 µs", "p99 µs", "p99.9 µs",
         "paper mean/p99.9 µs"],
        [(label, out[label]["count"],
          *(f"{out[label][key]:.1f}"
            for key in ("mean_us", "p50_us", "p99_us", "p999_us")), paper)
         for label, _load, paper in _F12_CASES],
        title="Figure 12 — ownership latency distribution")


def _f12_bands(out):
    # Microsecond scale, tail within ~12x of mean, ...
    checks = []
    for label, _load, _paper in _F12_CASES:
        s = out[label]
        checks += [
            (f"samples[{label}]", s["count"] > 1_000, s),
            (f"mean[{label}]", s["mean_us"] < 100.0, s),
            (f"tail[{label}]", s["p999_us"] < 12 * s["mean_us"], s),
        ]
    # ...and load + hot objects stretch the tail (the mean can dip because
    # vote transactions pre-acquire some objects, turning the mover's
    # request into a fast no-op grant).
    idle, loaded = (out[label]["p999_us"] for label, _l, _p in _F12_CASES)
    return _bands(*checks, ("load_stretches_tail", loaded > idle * 0.9,
                            {"idle p99.9": idle, "loaded p99.9": loaded}))


# ----------------------------------------------------------- Figure 13

#: OpenEPC's control plane is effectively single-threaded: one gateway
#: core saturates at ~1/PARSE_US, and the paper's signal generator tops
#: out below two nodes' capacity.
_GENERATOR_TPS = 1.6 * (1e6 / PARSE_US)


def _f13_run(users, horizon):
    """Figure 13 — cellular packet-gateway control-plane performance.

    Paper claims: with Redis (remote, unreplicated, blocking per access)
    the gateway stays below 10 Ktps; Zeus on a single active node matches
    the no-datastore/local-memory gateway (parsing is the bottleneck, and
    Zeus's pipelined commits keep the datastore off the critical path)
    while being replicated; two active Zeus nodes give ~60% more — limited
    by the signal generator, which cannot saturate two nodes (modeled as a
    capped open-loop source).
    """
    def tps(mode: str, active_nodes: int) -> float:
        catalog = build_gateway_catalog(max(2, active_nodes + 1), users)
        cluster = loaded_cluster(catalog, 4)
        sim = cluster.sim
        meter = ThroughputMeter(bin_us=50_000.0)

        redis_client = None
        if mode == "redis":
            # Redis runs unreplicated on the last node, over kernel
            # networking.
            server_node = cluster.nodes[-1]
            RemoteKvServer(server_node)
            redis_client = RemoteKvClient(cluster.nodes[0],
                                          server_node.node_id)

        queues = [RequestQueue(sim) for _ in range(active_nodes)]
        OpenLoopSource(sim, _GENERATOR_TPS, queues,
                       lambda r: r.randrange(users),
                       rng=cluster.rng.stream("gateway.arrivals")).start()
        for idx in range(active_nodes):
            gw = CellularGateway(mode, users, zeus=cluster.handles[idx],
                                 catalog=catalog, redis=redis_client,
                                 thread=idx)
            cluster.spawn_app(idx, idx % cluster.params.app_threads,
                              serve_queue(sim, queues[idx],
                                          gw.process_request, meter=meter,
                                          stop_at=horizon))
        cluster.run(until=horizon)
        return meter.rate_tps(horizon)

    return {"local_1n": tps("local", 1), "redis_1n": tps("redis", 1),
            "zeus_1n": tps("zeus", 1), "zeus_2n": tps("zeus", 2)}


def _f13_table(out):
    return format_table(
        ["configuration", "Ktps"],
        [("no datastore (local memory)", f"{out['local_1n']/1e3:.1f}"),
         ("Redis, unreplicated, blocking", f"{out['redis_1n']/1e3:.1f}"),
         ("Zeus, 1 active node (+1 replica)", f"{out['zeus_1n']/1e3:.1f}"),
         ("Zeus, 2 active nodes", f"{out['zeus_2n']/1e3:.1f}")],
        title="Figure 13 — packet gateway control plane")


def _f13_bands(out):
    # Paper's shape: Redis collapses (blocking, kernel networking); Zeus
    # 1-node ~= local memory; 2 nodes ~+60% (generator-limited).
    ratio = out["zeus_2n"] / out["zeus_1n"]
    return _bands(
        ("redis_collapses", out["redis_1n"] < 10_000, out),
        ("zeus_matches_local", out["zeus_1n"] > 0.85 * out["local_1n"], out),
        ("two_node_gain", 1.35 < ratio < 1.85, ratio))


# ----------------------------------------------------------- Figure 14

_PACKET_SIZES = (512, 1024, 2048, 4096, 8192, 16384)


def _f14_run(duration_us):
    """Figure 14 — SCTP single-flow throughput vs. packet size.

    Paper claims: for large packets, SCTP over Zeus is ~40% slower than
    vanilla usrsctp (6.8 KB of connection state is replicated per packet,
    with no attempt to optimize state access), and the relative gap widens
    for small packets because the replication cost is per-packet and mostly
    size-independent.  Pipelined commits matter: consecutive packets of one
    flow hit the same state object and never wait for the previous packet's
    replication.
    """
    def mbps(replicated: bool, payload: int) -> float:
        catalog = build_sctp_catalog(2, flows=1)
        cluster = loaded_cluster(catalog, 2)
        endpoint = SctpEndpoint(
            0, zeus=cluster.handles[0] if replicated else None,
            catalog=catalog)
        sim = cluster.sim

        def tx_loop():
            while sim.now < duration_us:
                yield from endpoint.send_packet(payload)

        cluster.spawn_app(0, 0, tx_loop())
        cluster.run(until=duration_us)
        return endpoint.bytes_tx * 8 / duration_us  # bits/µs == Mbps

    out = {"sizes": list(_PACKET_SIZES), "vanilla": [], "zeus": []}
    for size in _PACKET_SIZES:
        out["vanilla"].append(mbps(False, size))
        out["zeus"].append(mbps(True, size))
    return out


def _f14_gaps(out):
    return [100.0 * (1 - z / v) for v, z in zip(out["vanilla"], out["zeus"])]


def _f14_table(out):
    return format_table(
        ["packet B", "vanilla Mbps", "Zeus Mbps", "slowdown"],
        [(size, f"{v:,.0f}", f"{z:,.0f}", f"{gap:.0f}%")
         for size, v, z, gap in zip(out["sizes"], out["vanilla"],
                                    out["zeus"], _f14_gaps(out))],
        title="Figure 14 — SCTP single flow (paper: ~40% at large pkts)")


def _f14_bands(out):
    # Zeus is slower everywhere; the gap at the largest packet is
    # paper-scale (~25-50%), and the *relative* gap grows as packets shrink
    # (fixed per-packet replication cost).
    gaps = _f14_gaps(out)
    return _bands(
        ("zeus_slower", all(z < v for z, v in zip(out["zeus"],
                                                  out["vanilla"])), gaps),
        ("large_packet_gap", 20.0 < gaps[-1] < 55.0, gaps),
        ("gap_grows_as_packets_shrink", gaps[0] > gaps[-1] * 1.5, gaps))


# ----------------------------------------------------------- Figure 15

#: Offered load: ~1.5x one instance's capacity.
_OFFERED_TPS = 1.5 * 1e6 / REQUEST_US


def _f15_run(sessions, horizon):
    """Figure 15 — Nginx session persistence in a scale-out / scale-in run.

    Paper claims: Nginx with Zeus-backed session persistence performs the
    same as Nginx without it (the datastore is not the bottleneck), and the
    tier scales out and in seamlessly because session state lives in the
    replicated datastore rather than in the Nginx processes.

    Timeline: one Nginx node serves an offered load above single-node
    capacity; a second node is added a third of the way in (total
    throughput rises to meet the offer) and removed at two thirds (back to
    one node's capacity).
    """
    scale_out_at, scale_in_at = horizon / 3, 2 * horizon / 3
    bin_us = 20_000.0

    def serve(mode: str):
        catalog = build_nginx_catalog(2, sessions)
        cluster = loaded_cluster(catalog, 2)
        sim = cluster.sim
        meter = ThroughputMeter(bin_us=bin_us)
        queues = [RequestQueue(sim), RequestQueue(sim)]
        source = OpenLoopSource(sim, _OFFERED_TPS, [queues[0]],
                                lambda r: r.randrange(sessions),
                                rng=cluster.rng.stream("nginx.arrivals"))
        source.start()
        for idx in range(2):
            server = NginxServer(mode, backends=4, zeus=cluster.handles[idx],
                                 catalog=catalog, thread=0)
            cluster.spawn_app(idx, 0, serve_queue(sim, queues[idx],
                                                  server.handle_request,
                                                  meter=meter,
                                                  stop_at=horizon))
        sim.call_at(scale_out_at, source.set_queues, queues)      # add node 2
        sim.call_at(scale_in_at, source.set_queues, [queues[0]])  # remove it
        cluster.run(until=horizon)

        timeline = meter.timeline()

        def phase_mean(lo, hi):
            xs = [tps for t, tps in timeline if lo <= t * 1e6 < hi and tps > 0]
            return sum(xs) / len(xs) if xs else 0.0

        return timeline, {
            "one_node_tps": phase_mean(bin_us, scale_out_at),
            "two_node_tps": phase_mean(scale_out_at + bin_us, scale_in_at),
            "back_to_one_tps": phase_mean(scale_in_at + bin_us, horizon),
        }

    timeline, zeus = serve("zeus")
    _, memory = serve("memory")
    return {"zeus": zeus, "memory": memory, "detail": {"timeline": timeline}}


def _f15_table(out):
    return (format_table(
        ["backend", "1 node Ktps", "2 nodes Ktps", "back to 1 Ktps"],
        [(mode, *(f"{out[mode][key]/1e3:.1f}" for key in
                  ("one_node_tps", "two_node_tps", "back_to_one_tps")))
         for mode in ("memory", "zeus")],
        title="Figure 15 — Nginx session persistence, scale-out/in")
        + "\n" + ascii_series(out["detail"]["timeline"],
                              label="zeus requests/s"))


def _f15_bands(out):
    zeus, memory = out["zeus"], out["memory"]
    return _bands(
        # Zeus-backed persistence is within ~10% of in-process state (the
        # paper reports parity; our per-transaction accounting charges the
        # lookup explicitly).
        *((f"parity[{key}]", zeus[key] > 0.85 * memory[key],
           {"zeus": zeus[key], "memory": memory[key]})
          for key in ("one_node_tps", "two_node_tps")),
        # Scale-out raises throughput substantially; scale-in restores it.
        ("scale_out", zeus["two_node_tps"] > 1.3 * zeus["one_node_tps"],
         zeus),
        ("scale_in", abs(zeus["back_to_one_tps"] - zeus["one_node_tps"])
         < 0.25 * zeus["one_node_tps"], zeus))


# -------------------------------------------- §8 "Formal verification"


def _v1_run(seeds):
    """Section 8, "Formal verification" — the model-checked invariants.

    The paper specifies the ownership and reliable-commit protocols in TLA+
    and model-checks them under crash-stop failures, message reordering and
    duplication.  Here the implementation itself is what gets checked:

    * the real ownership and commit managers are explored **exhaustively**
      by the explicit-state checker (every interleaving of deliveries,
      timers, one crash and its view change on the small adversarial
      scenarios of ``repro.verify.exhaustive``), and
    * the full stack runs a randomized sweep of audited fault cells
      (``repro.chaos.explore``: constant loss/duplication/reordering plus a
      seeded crash-stop draw), checking the same invariants every 200 us
      mid-flight and every audit, the history check included, after the
      drain.
    """
    checked = {name: check_protocol(scenario)
               for name, scenario in SCENARIOS.items()}
    swept = explore(seeds=seeds)
    return {
        "states": {name: r.states_explored for name, r in checked.items()},
        "explorer_histories": len(swept.runs),
        "explorer_violations": swept.problems(),
        "detail": {"checked": checked, "sweep": swept.summary()},
    }


def _v1_table(out):
    return (format_table(
        ["scenario", "states", "transitions", "result"],
        [(name, r.states_explored, r.transitions,
          "OK" if r.ok and not r.truncated else r.violation or "truncated")
         for name, r in out["detail"]["checked"].items()],
        title="Exhaustive check of the real managers (paper: TLA+/TLC)")
        + f"\nimplementation sweep — {out['detail']['sweep']}")


def _v1_bands(out):
    return _bands(
        *((f"exhaustive[{name}]", r.ok and not r.truncated, r)
          for name, r in out["detail"]["checked"].items()),
        ("sweep", not out["explorer_violations"], out["explorer_violations"]))


# ----------------------------------------------------------- Ablations


def _a1_run(accounts_per_node, threads, duration_us, warmup_us):
    """Ablation A1 — transaction pipelining on/off (Section 5.2).

    Zeus's non-blocking pipelined reliable commit is the design feature
    that lets legacy applications run unchanged; with the pipeline depth
    forced to 1 the application thread stalls for the full replication
    round-trip after every write, which is exactly the blocking behaviour
    of the systems the paper contrasts against.  The ablation quantifies
    the win.
    """
    out = {}
    for depth in (1, 2, 4, 8, 32):
        wl = SmallbankWorkload(3, accounts_per_node, remote_frac=0.0)
        _, stats = steady_state(wl, 1_000, threads, duration_us, warmup_us,
                                max_pipeline_depth=depth)
        out[str(depth)] = stats.throughput_tps(duration_us)
    return out


def _a1_table(out):
    return format_table(
        ["pipeline depth", "Smallbank Mtps (3 nodes)"],
        [(d, f"{t/1e6:.2f}") for d, t in out.items()],
        title="Ablation A1 — pipelined vs blocking reliable commit")


def _a1_bands(out):
    # Blocking commit (depth 1) loses badly; gains saturate with depth.
    return _bands(
        ("pipelining_wins", out["32"] > 1.5 * out["1"], out),
        ("saturates", out["8"] > 0.9 * out["32"], out),
        ("monotone_start", out["2"] > out["1"], out))


def _a2_run(accounts_per_node, threads, duration_us, warmup_us):
    """Ablation A2 — replication degree (Section 3.1).

    "The replication degree is configurable; however, the higher the degree
    of replication, the greater the CPU and network overhead, and the lower
    is the throughput of transactions that modify the state."
    """
    out = {}
    for degree in (1, 2, 3, 5):
        wl = SmallbankWorkload(6, accounts_per_node, remote_frac=0.0)
        # Rebuild the catalog with the requested degree.
        wl.catalog.replication_degree = degree
        cluster, stats = steady_state(wl, 1_000, threads, duration_us,
                                      warmup_us)
        out[str(degree)] = {"tps": stats.throughput_tps(duration_us),
                            "bytes": cluster.network.total_bytes}
    return out


def _a2_table(out):
    return format_table(
        ["replication degree", "Mtps (6 nodes)", "network MB"],
        [(int(d), f"{r['tps']/1e6:.2f}", f"{r['bytes']/1e6:.1f}")
         for d, r in out.items()],
        title="Ablation A2 — replication degree vs throughput")


def _a2_bands(out):
    one, three, five = out["1"], out["3"], out["5"]
    return _bands(
        # Monotone: more replicas, less write throughput, more traffic.
        ("throughput_falls", one["tps"] > three["tps"] > five["tps"], out),
        ("traffic_grows", one["bytes"] < three["bytes"] < five["bytes"], out),
        # Unreplicated is substantially faster than 3-way (no commit
        # traffic).
        ("unreplicated_wins", one["tps"] > 1.15 * three["tps"], out))


def _a3_run(objects, threads, duration_us):
    """Ablation A3 — local read-only transactions from all replicas (§5.3).

    Zeus lets any replica serve strictly-serializable read-only
    transactions locally.  The ablation contrasts a read-heavy,
    popularity-skewed workload when (a) reads run on whichever replica
    receives them vs. (b) every read is routed to the object's owner — the
    owner becomes the bottleneck, which is the scheme's whole point (e.g.
    the control-plane/data-plane split).
    """
    nodes = 3
    write_frac = 0.02     # occasional control-plane updates at the owner

    def tps(reads_from_replicas: bool) -> float:
        # Hot configuration records, all owned by node 0.
        catalog = Catalog(nodes, replication_degree=3)
        catalog.add_table("config", 128)
        oids = [catalog.create_object("config", i, owner=0)
                for i in range(objects)]
        cluster = loaded_cluster(catalog, threads)
        sim = cluster.sim
        meter = ThroughputMeter()

        def reader(node_id, thread):
            api = cluster.handles[node_id].api
            rng = random.Random(f"{node_id}.{thread}")
            while sim.now < duration_us:
                oid = oids[rng.randrange(objects)]
                if node_id == 0 and rng.random() < write_frac * nodes:
                    r = yield from api.execute_write(thread, [oid],
                                                     exec_us=0.4)
                else:
                    r = yield from api.execute_read(thread, [oid],
                                                    exec_us=0.4)
                if r.committed:
                    meter.record(sim.now)

        for node_id in (range(nodes) if reads_from_replicas else [0]):
            for t in range(threads):
                cluster.spawn_app(node_id, t, reader(node_id, t))
        cluster.run(until=duration_us)
        return meter.rate_tps(duration_us)

    return {"reads_on_all_replicas": tps(True),
            "reads_on_owner_only": tps(False)}


def _a3_table(out):
    return format_table(
        ["read placement", "Mtps"],
        [(k, f"{v/1e6:.2f}") for k, v in out.items()],
        title="Ablation A3 — read-only transactions from replicas")


def _a3_bands(out):
    # Serving reads from all replicas multiplies read capacity ~Nx.
    return _bands(("replica_reads_scale", out["reads_on_all_replicas"]
                   > 2.0 * out["reads_on_owner_only"], out))


def _a4_run(per_case):
    """Ablation A4 — ownership latency by requester role (Section 4.2).

    The protocol's hop count depends on who asks:

    * a requester co-located with a directory replica drives its own
      request — 2 hops (one round-trip to the other arbiters);
    * a reader acquires ownership without the value — 3 hops, small
      messages;
    * a non-replica must also receive the object's value — 3 hops, with the
      data riding the owner's ACK (the size-dependence of Section 6.2).
    """
    def measure(requester: int) -> dict:
        # 2-way replication leaves node 5 a true non-replica, non-directory
        # node: owner 3, reader 4, directory 0-2.
        catalog = Catalog(6, replication_degree=2)
        catalog.add_table("t", 256)
        oids = [catalog.create_object("t", i, owner=3)
                for i in range(per_case)]
        cluster = loaded_cluster(catalog, 2)
        handle = cluster.handles[requester]
        rec = LatencyRecorder()

        def mover():
            for oid in oids:
                outcome = yield from handle.ownership.acquire(oid)
                if outcome.granted:
                    rec.record(outcome.latency_us)
                yield 2.0

        handle.node.spawn(mover(), name="mover")
        cluster.run(until=1_000_000.0)
        return rec.summary()

    return {"directory_colocated": measure(0), "reader": measure(4),
            "non_replica": measure(5)}


def _a4_table(out):
    return format_table(
        ["requester role", "n", "mean µs", "p99 µs"],
        [(case, s["count"], f"{s['mean_us']:.2f}", f"{s['p99_us']:.2f}")
         for case, s in out.items()],
        title="Ablation A4 — ownership latency by requester role")


def _a4_bands(out):
    mean = {case: s["mean_us"] for case, s in out.items()}
    return _bands(
        # Nearly all of the 400 acquisitions per role (paper-scale size)
        # are granted.
        *((f"granted[{case}]", s["count"] >= 392, s["count"])
          for case, s in out.items()),
        # 2 hops beats 3 hops; the non-replica (data transfer + third hop)
        # is the slowest, as Section 4.2 argues.
        ("two_hops_beat_reader",
         mean["directory_colocated"] < mean["reader"], mean),
        ("two_hops_beat_non_replica",
         mean["directory_colocated"] < mean["non_replica"], mean),
        ("non_replica_slowest", mean["non_replica"] >= mean["reader"] * 0.95,
         mean))


def _a5_run(subscribers_per_node, threads, duration_us):
    """Ablation A5 — single replicated directory vs distributed directory.

    Section 6.2: "a single replicated directory may become a scalability
    bottleneck at large deployment sizes or when locality is limited.  In
    such cases, a distributed directory scheme (i.e., using consistent
    hashing on an object to determine its directory nodes) should be used
    instead."

    We stress the directory with a low-locality workload (every write needs
    an ownership change) on six nodes and compare the fixed
    first-three-node directory against rendezvous-hashed per-object
    directory triplets.
    """
    out = {}
    for mode in ("single", "hashed"):
        wl = TatpWorkload(6, subscribers_per_node=subscribers_per_node,
                          remote_frac=0.6)
        # Rebuild the workload catalog in the requested directory mode.
        wl.catalog.directory_mode = mode
        cluster, stats = steady_state(wl, 0, threads, duration_us)
        # Directory-duty worker-pool utilization (arbitration CPU) on the
        # busiest node vs the idlest: the single directory concentrates it.
        busy = [h.node.pool.busy_time for h in cluster.handles]
        out[mode] = {
            "tps": stats.throughput_tps(duration_us),
            "ownership_requests": stats.ownership_requests,
            "pool_busy_max": max(busy),
            "pool_busy_min": min(busy),
            "pool_imbalance": max(busy) / max(1e-9, min(busy)),
        }
    return out


def _a5_table(out):
    return format_table(
        ["directory", "Mtps", "own reqs", "pool busy max/min (ms)",
         "imbalance"],
        [(mode, f"{r['tps']/1e6:.2f}", r["ownership_requests"],
          f"{r['pool_busy_max']/1e3:.1f}/{r['pool_busy_min']/1e3:.1f}",
          f"{r['pool_imbalance']:.2f}x")
         for mode, r in out.items()],
        title="Ablation A5 — single vs distributed (hashed) directory")


def _a5_bands(out):
    single, hashed = out["single"], out["hashed"]
    return _bands(
        # Hashing spreads arbitration CPU across all nodes...
        ("hashing_balances",
         hashed["pool_imbalance"] < single["pool_imbalance"], out),
        # ...without costing throughput under directory pressure.
        ("throughput_kept", hashed["tps"] > 0.9 * single["tps"], out))


#: Closed-loop steady-state window of every throughput point (µs).
_WINDOW = dict(threads=4, duration_us=8_000.0, warmup_us=1_500.0)

#: Every artefact, in DESIGN.md §3 order, at the sizes ``results/`` was
#: recorded at (the L1 rows are sized by their models).  ``repro list``
#: prints this table; ``benchmarks/`` runs it; ``tests/test_figures.py``
#: keeps it one-to-one with ``results/`` and reaches every band.
FIGURES = (
    Figure("T2", "benchmark summary", "table2", _t2_run, _t2_table, _t2_bands,
           dict(users_per_node=500, stations_per_node=10,
                accounts_per_node=500, subscribers_per_node=500,
                voters=2_000, samples=20_000)),
    Figure("L1-boston", "locality analysis: Boston handovers",
           "locality_boston", _boston_run, _boston_table, _boston_bands),
    Figure("L1-venmo", "locality analysis: Venmo payment graph",
           "locality_venmo", _venmo_run, _venmo_table, _venmo_bands),
    Figure("L1-tpcc", "locality analysis: TPC-C",
           "locality_tpcc", _tpcc_run, _tpcc_table, _tpcc_bands),
    Figure("F7", "handovers vs ideal", "fig7_handovers",
           _f7_run, _f7_table, _f7_bands,
           dict(users_per_node=2_500, stations_per_node=40, **_WINDOW)),
    Figure("F8", "smallbank sweep", "fig8_smallbank",
           _f8_run, _f8_table, _f8_bands,
           dict(accounts_per_node=2_000, **_WINDOW)),
    Figure("F9", "tatp sweep", "fig9_tatp", _f9_run, _f9_table, _f9_bands,
           dict(subscribers_per_node=4_000, **_WINDOW)),
    Figure("F10", "bulk migration", "fig10_voter_migration",
           _f10_run, _f10_table, _f10_bands,
           dict(voters=12_000, mover_threads=4, vote_threads=2,
                move1_at=20_000.0, horizon=220_000.0)),
    Figure("F11", "migration under load", "fig11_voter_concurrent",
           _f11_run, _f11_table, _f11_bands,
           dict(voters=15_000, hot_voters=3_000, vote_threads=2,
                horizon=180_000.0, moves_at=(20_000.0, 75_000.0, 130_000.0))),
    Figure("F12", "latency CDF", "fig12_ownership_latency",
           _f12_run, _f12_table, _f12_bands,
           dict(voters=8_000, hot_voters=2_000, horizon=120_000.0)),
    Figure("F13", "packet gateway", "fig13_gateway",
           _f13_run, _f13_table, _f13_bands,
           dict(users=2_000, horizon=400_000.0)),
    Figure("F14", "SCTP throughput", "fig14_sctp",
           _f14_run, _f14_table, _f14_bands, dict(duration_us=30_000.0)),
    Figure("F15", "nginx scale-out", "fig15_nginx",
           _f15_run, _f15_table, _f15_bands,
           dict(sessions=3_000, horizon=300_000.0)),
    Figure("V1", "model checking", "verification",
           _v1_run, _v1_table, _v1_bands, dict(seeds=12)),
    Figure("A1", "pipelining", "ablation_pipelining",
           _a1_run, _a1_table, _a1_bands,
           dict(accounts_per_node=2_000, **_WINDOW)),
    Figure("A2", "replication", "ablation_replication",
           _a2_run, _a2_table, _a2_bands,
           dict(accounts_per_node=1_500, **_WINDOW)),
    Figure("A3", "reads on replicas", "ablation_readonly",
           _a3_run, _a3_table, _a3_bands,
           dict(objects=60, threads=4, duration_us=8_000.0)),
    Figure("A4", "hops", "ablation_ownership_hops",
           _a4_run, _a4_table, _a4_bands, dict(per_case=400)),
    Figure("A5", "directory modes", "ablation_directory",
           _a5_run, _a5_table, _a5_bands,
           dict(subscribers_per_node=1_500, threads=4, duration_us=6_000.0)),
)
