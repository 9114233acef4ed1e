"""Adaptive placement: the policy, the controller, and the differential
harness behind ``repro place``.

Four concerns, each with its own section:

* **Differential gates** — same-seed static-vs-adaptive pairs must show a
  remote-fraction reduction on the locality workloads (mobility, venmo),
  must *not* claim one on the uniform/inherent-remote controls
  (smallbank, tpcc), and the adaptive run's decision log must be
  byte-identical across repeats.
* **Policy purity** (hypothesis) — ``decide`` is a pure function of its
  ``(snapshot, view, now)`` arguments: deterministic, JSON-round-trip
  stable, mutation-free; and degree adaptation never asks for a degree
  outside ``[min_degree, max_degree]`` under random report sequences.
* **Chaos coverage** — the controller stays live through crash→recover,
  elastic, and power-loss campaigns with every audit (and the strict
  serializability history checker) green; and the ping-pong guard is
  load-bearing: removing it via the test hook makes the migration
  ledger's ping-pong detections rise, restoring it drops them to zero.


The ``place_outcome`` fixture (``tests/conftest.py``) memoizes
``run_pair(name, seed=1)`` so these gates and the golden pins in
``tests/test_rig_golden.py`` judge the same four paired runs.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (CampaignConfig, Recipe, generate_schedule,
                         run_campaign, run_cell)
from repro.harness.rig import Rig, counter_catalog
from repro.harness.runner import main
from repro.obs import LocalityRecorder, Observability
from repro.placement import (
    DIFF_WORKLOADS,
    PlacementController,
    PlacementPolicy,
    run_pair,
)
from repro.sim.params import DiskParams
from repro.workloads.base import TxnSpec

# ======================================================================
# Differential gates (static vs adaptive, same seed)
# ======================================================================


@pytest.fixture(scope="module")
def mobility_outcome(place_outcome):
    return place_outcome("mobility")


@pytest.fixture(scope="module")
def venmo_outcome(place_outcome):
    return place_outcome("venmo")


def test_mobility_adaptive_beats_static(mobility_outcome):
    out = mobility_outcome
    assert out.static.audit.ok and out.adaptive.audit.ok
    # The handover workload leaves a meaningful static remote fraction
    # and the controller, fed the same seed, must reduce it: the LB
    # re-pin leads the traffic, so migrating inside the gap pays off.
    assert out.claimed, out.row()
    assert out.adaptive.remote < out.static.remote
    assert out.adaptive.migrations > 0
    assert out.ok, out.row()


def test_venmo_consolidation_beats_static(venmo_outcome):
    out = venmo_outcome
    assert out.static.audit.ok and out.adaptive.audit.ok
    # No single user has a dominant accessor — the win comes from
    # consolidating co-access communities through LB re-pins: once the
    # routing converges, the workers' own writes acquire ownership
    # locally and the controller needs no migrate actuations.
    assert out.claimed, out.row()
    assert out.adaptive.repins > 0
    assert out.ok, out.row()


@pytest.mark.parametrize("name", ["smallbank", "tpcc"])
def test_uniform_workloads_make_no_claim(name, place_outcome):
    out = place_outcome(name)
    assert out.static.audit.ok and out.adaptive.audit.ok
    assert not out.must_win
    # Placement is already right (smallbank) or the remoteness is
    # inherent (tpcc): the policy's thresholds must keep the controller
    # from claiming — or manufacturing — a win here.
    assert not out.claimed, out.row()
    assert out.adaptive.remote <= out.static.remote + out.tolerance
    assert out.replay_ok
    assert out.ok, out.row()


def test_decision_logs_byte_identical_across_runs(mobility_outcome,
                                                  venmo_outcome):
    # run_pair repeats the adaptive run under the same seed and compares
    # the canonical-JSON decision logs byte for byte.
    assert mobility_outcome.deterministic
    assert venmo_outcome.deterministic
    assert len(mobility_outcome.decision_digest) == 64
    assert mobility_outcome.decision_digest != venmo_outcome.decision_digest


def test_recorded_decisions_replay_offline(mobility_outcome, venmo_outcome):
    # Every live cycle's (snapshot, view, now) record, replayed through
    # a fresh policy, reproduced the live actuation list (checked inside
    # run_pair against the JSON-round-tripped record).
    assert mobility_outcome.replay_ok
    assert venmo_outcome.replay_ok


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown differential workload"):
        run_pair("nope")


def test_place_cli_gates_on_exit_code(capsys):
    assert main(["place", "--workload", "smallbank", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "smallbank" in out
    assert "no claim" in out
    assert "verdict" in out and ": OK" in out


# ======================================================================
# Policy purity (hypothesis)
# ======================================================================

_counts = st.floats(min_value=0.0, max_value=64.0)
_times = st.floats(min_value=0.0, max_value=60_000.0)


@st.composite
def _scenarios(draw):
    """A random (snapshot, view, now) triple with coherent ids."""
    live = sorted(draw(st.sets(st.integers(0, 3), min_size=2, max_size=4)))
    oid_pool = sorted(draw(st.sets(st.integers(0, 9), min_size=1,
                                   max_size=6)))
    entries, objects = [], {}
    for oid in oid_pool:
        accessors = draw(st.sets(st.sampled_from(live), max_size=len(live)))
        entries.append({
            "oid": oid,
            "per_node": {str(n): draw(_counts) for n in sorted(accessors)},
            "reads": draw(_counts),
            "writes": draw(_counts),
        })
        owner = draw(st.sampled_from(live))
        extra = draw(st.sets(st.sampled_from(live), max_size=len(live)))
        objects[str(oid)] = {
            "owner": owner,
            "replicas": sorted({owner} | extra),
            "pin": draw(st.one_of(st.none(), st.sampled_from(live))),
            "override": draw(st.one_of(st.none(), st.integers(1, 4))),
        }
    snapshot = {
        "objects": entries,
        "repins": [[oid, draw(st.sampled_from(live)), draw(_times)]
                   for oid in draw(st.lists(st.sampled_from(oid_pool),
                                            max_size=3, unique=True))],
        "recent_handovers": [[oid, draw(_times)]
                             for oid in draw(st.lists(
                                 st.sampled_from(oid_pool),
                                 max_size=3, unique=True))],
        "ping_pong_oids": sorted(draw(st.sets(st.sampled_from(oid_pool),
                                              max_size=2))),
        "coaccess": [{"pair": [draw(st.sampled_from(oid_pool)),
                               draw(st.sampled_from(oid_pool))],
                      "count": draw(_counts)}
                     for _ in range(draw(st.integers(0, 6)))],
    }
    view = {"objects": objects, "live": live,
            "base_degree": draw(st.integers(1, 3))}
    return snapshot, view, draw(_times)


@given(_scenarios())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_policy_decisions_are_pure(scenario):
    snapshot, view, now = scenario
    snap_before = copy.deepcopy(snapshot)
    view_before = copy.deepcopy(view)
    policy = PlacementPolicy()
    live = policy.decide(snapshot, view, now)
    # No mutation of the inputs...
    assert snapshot == snap_before and view == view_before
    # ...the same call repeats to the same answer...
    assert policy.decide(snapshot, view, now) == live
    # ...and a JSON round-trip of the inputs (what the decision log
    # stores) replays to the identical actuation list.
    replayed = PlacementPolicy().decide(json.loads(json.dumps(snapshot)),
                                        json.loads(json.dumps(view)), now)
    assert replayed == live


@given(st.lists(_scenarios(), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_degree_adaptation_stays_inside_bounds(scenario_seq):
    """Under arbitrary report sequences, every ``set_degree`` stays in
    ``[min_degree, max_degree]`` and reader adds/removes never push a
    replica set past those bounds (the durability audits assume the
    floor; the actuator assumes the ceiling)."""
    policy = PlacementPolicy()
    for snapshot, view, now in scenario_seq:
        live = view["live"]
        base = view["base_degree"]
        min_deg = base
        max_deg = max(min_deg, len(live))
        acts = policy.decide(snapshot, view, now)
        adds, removes = {}, {}
        for act in acts:
            if act["kind"] == "set_degree":
                assert min_deg <= act["degree"] <= max_deg
                # Feed the override back so later cycles see it (the
                # controller pops overrides equal to the base degree).
                vo = view["objects"][str(act["oid"])]
                vo["override"] = (None if act["degree"] == base
                                  else act["degree"])
            elif act["kind"] == "add_reader":
                assert act["dst"] in live
                adds[act["oid"]] = adds.get(act["oid"], 0) + 1
            elif act["kind"] == "remove_reader":
                vo = view["objects"][str(act["oid"])]
                assert act["victim"] != vo["owner"]
                removes[act["oid"]] = removes.get(act["oid"], 0) + 1
        for oid, n in adds.items():
            assert len(view["objects"][str(oid)]["replicas"]) + n <= max_deg
        for oid, n in removes.items():
            assert len(view["objects"][str(oid)]["replicas"]) - n >= min_deg


# ======================================================================
# Chaos coverage: controller live under faults
# ======================================================================


def _chaos_cell(**overrides):
    kw = dict(duration_us=20_000.0, quiesce_us=25_000.0,
              placement=True, check_history=True)
    kw.update(overrides)
    return Recipe(**kw)


@pytest.mark.parametrize("mode", ["faults", "elastic", "power_loss"])
def test_chaos_campaign_with_controller_live(mode):
    cell = _chaos_cell()
    if mode == "power_loss":
        cell = _chaos_cell(disk=DiskParams(enabled=True),
                           duration_us=12_000.0, quiesce_us=12_000.0)
    result = run_campaign(CampaignConfig(
        cell=cell, num_schedules=1, seeds=(0,), difficulty=2,
        elastic=mode == "elastic", power_loss=mode == "power_loss"))
    assert result.ok, result.problems()
    # The controller actually ran (it is a raw sim process, so crashes
    # and power loss do not kill it — it waits the faults out).
    assert result.registry.counter_total("placement.cycles") > 0


def test_chaos_run_with_controller_is_deterministic():
    cell = _chaos_cell(check_history=False)
    recipe = cell.of(generate_schedule(cell.num_nodes, cell.duration_us,
                                       seed=101, difficulty=2,
                                       require_crash=True), 0)
    r1 = run_cell(recipe)
    r2 = run_cell(recipe)
    assert r1.ok, list(r1.audit.problems())
    assert r1.digest() == r2.digest()
    assert any("crash" in e for e in r1.timeline)


# ----------------------------------------------------------------------
# The ping-pong guard is load-bearing
# ----------------------------------------------------------------------


def _run_contested_object(guard: bool):
    """One write-home object read-dominated from the other node.

    Node 0 writes object 0 at a trickle (so ownership's natural home is
    node 0 — every write acquires it back); node 1 reads it constantly,
    so the access telemetry always says node 1 dominates.  A guarded
    policy migrates at most once per cooldown window; with the guard
    removed the controller chases the dominance signal every cycle and
    the object ping-pongs between the writer and the reader."""
    loc = LocalityRecorder()
    rig = Rig(counter_catalog(2, 2, lambda i: 0), seed=7,
              obs=Observability(locality=loc), threads=1)
    cluster = rig.cluster
    cluster.start_membership()

    # Same knobs both ways: the arms differ only in the guard flag.
    policy = PlacementPolicy()
    policy.pingpong_guard, policy.cooldown_us = guard, 12_000.0
    controller = PlacementController(cluster, policy=policy,
                                     period_us=400.0)
    controller.start()

    def spec_fn(node_id, thread, rng):
        if rng.random() < 0.7:
            return None
        if node_id == 0:
            if rng.random() < 0.1:
                return TxnSpec(write_set=[0], exec_us=0.3)
            return None
        return TxnSpec(read_set=[0], read_only=True, exec_us=0.3)

    rig.start(spec_fn, 22_000.0)
    cluster.run(until=22_000.0)
    controller.stop()
    rig.settle(6_000.0, converge=False)
    audit = rig.audit()
    assert audit.ok, list(audit.problems())
    return loc.migration_summary()


def test_removing_pingpong_guard_thrashes_ownership():
    unguarded = _run_contested_object(guard=False)
    guarded = _run_contested_object(guard=True)
    # Without the guard the ledger detects the thrash...
    assert unguarded["ping_pong_objects"] >= 1
    assert unguarded["handovers"] > 3 * guarded["handovers"]
    # ...and restoring it silences the detector completely (safety never
    # depended on the guard — both arms already passed the audits).
    assert guarded["ping_pong_objects"] == 0


def test_workload_names_exported():
    assert set(DIFF_WORKLOADS) == {"smallbank", "tpcc", "venmo", "mobility"}
