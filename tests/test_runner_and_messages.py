"""CLI runner and wire-message size accounting."""

import json
from pathlib import Path

import pytest

import repro.chaos as chaos
from repro.commit.messages import RAck, RInv, RVal
from repro.harness.runner import main
from repro.harness.scenarios import SCENARIOS
from repro.net.network import Network
from repro.obs import Observability, Tracer, load_jsonl, write_chrome_trace
from repro.sim.params import FaultParams
from repro.ownership.messages import (
    OwnAbort,
    OwnAck,
    OwnData,
    OwnFetch,
    OwnInv,
    OwnNack,
    OwnReq,
    OwnResp,
    OwnVal,
    ReqType,
)
from repro.store.meta import Ots, ReplicaSet
from repro.workloads.base import TxnSpec, run_zeus_workload
from tests.conftest import make_cluster


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8_smallbank" in out
    assert "A5" in out


def test_cli_list_runs_the_named_rows(capsys):
    assert main(["list", "L1-venmo"]) == 0
    out = capsys.readouterr().out
    assert "Venmo payment graph" in out
    assert "Boston" not in out and "Experiment catalog" not in out


def test_cli_list_rejects_an_unknown_row(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["list", "NOPE"])
    assert exc.value.code == 2
    assert "unknown row id: NOPE" in capsys.readouterr().err


def test_cli_verify_small(capsys):
    assert main(["verify", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict         : OK" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------- output flags


@pytest.mark.parametrize("flag", [None, "--trace", "--jsonl", "--metrics-out",
                                  "--locality-out"])
def test_each_output_flag_writes_its_file_only_when_asked(
        flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["trace", "--duration", "300"] + ([flag, "out"] if flag else [])
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["out"] if flag else [])
    assert ("wrote " in capsys.readouterr().out) == bool(flag)
    if flag == "--jsonl":
        assert load_jsonl("out")
    elif flag:
        assert json.loads((tmp_path / "out").read_text())


def test_chaos_trace_reruns_the_cell_the_worst_key_selects(
        tmp_path, monkeypatch, capsys):
    campaigns, real_campaign = [], chaos.run_campaign

    def campaign_with_a_bad_middle_cell(*args, **kwargs):
        result = real_campaign(*args, **kwargs)
        assert [run.aborted for run in result.runs] == [0, 0, 0]
        result.runs[1].aborted = 1  # the audits all pass: most aborts wins
        campaigns.append(result)
        return result

    monkeypatch.setattr(chaos, "run_campaign", campaign_with_a_bad_middle_cell)
    path = tmp_path / "worst.json"
    main(["chaos", "--difficulty", "1", "--schedules", "1", "--seeds", "3",
          "--duration", "5000", "--quiesce", "5000", "--trace", str(path)])
    worst = campaigns[0].runs[1]
    assert (f"re-ran worst cell {worst.schedule_name} seed 1 "
            f"(audit ok, 1 aborted)") in capsys.readouterr().out
    obs = Observability(tracer=Tracer())
    chaos.run_cell(worst.recipe, obs)
    again = write_chrome_trace(obs.tracer, str(tmp_path / "again.json"))
    assert path.read_bytes() == Path(again).read_bytes()


# ------------------------------------------------------------ wire sizes


def test_rinv_size_includes_payload_bytes():
    small = RInv((0, 0), 0, (1, 2), ((5, 1, "x", 100),), True)
    large = RInv((0, 0), 0, (1, 2), ((5, 1, "x", 10_000),), True)
    assert large.size - small.size == 9_900
    assert small.data_bytes == 100
    assert small.size == (5 + 2 + 2) * 8 + 100
    replayed = small._replace(replay=True)  # a follower's replay
    assert replayed.replay and replayed[:5] == small[:5]
    assert (replayed.data_bytes, replayed.size) == (100, small.size)


def test_rinv_size_grows_with_updates_and_followers():
    one = RInv((0, 0), 0, (1,), ((5, 1, None, 0),), False)
    two = RInv((0, 0), 0, (1, 2), ((5, 1, None, 0), (6, 1, None, 0)), False)
    assert two.size > one.size


def test_rack_rval_sizes_scale_with_entries():
    assert RAck((((0, 0), 1),)).size == RVal((((0, 0), 1, True),)).size == 32
    assert RAck((((0, 0), 1),)).size < RAck((((0, 0), 1), ((0, 1), 2))).size
    assert RVal((((0, 0), 1, True),)).size \
        < RVal((((0, 0), 1, True), ((0, 1), 2, False))).size


def test_own_ack_size_with_and_without_data():
    replicas = ReplicaSet(0, (1, 2))
    bare = OwnAck((0, 1), 5, Ots(1, 0), (0, 1, 2), replicas)
    loaded = OwnAck((0, 1), 5, Ots(1, 0), (0, 1, 2), replicas,
                    data="v", data_version=3)
    assert loaded.size_with(400) - bare.size_with(400) == 400


def test_own_inv_replay_preserves_identity():
    inv = OwnInv((0, 1), 5, Ots(2, 0), ReplicaSet(3, (0,)), 3,
                 ReqType.ACQUIRE_OWNER, (0, 1, 2), None,
                 ReplicaSet(0, (1,)), Ots(1, 0))
    replayed = inv._replace(arbiters=(0, 1), replay=True)
    assert replayed.o_ts == inv.o_ts
    assert replayed.req_id == inv.req_id
    assert replayed.replay and not inv.replay
    assert replayed.arbiters == (0, 1) and inv.arbiters == (0, 1, 2)


def test_own_req_and_val_fixed_sizes():
    """The declared sizes count the epoch word, which rides on the
    envelope, not in the payload."""
    assert (OwnReq.size, OwnVal.size, OwnNack.size) == (40, 32, 40)
    assert (OwnResp.size, OwnAbort.size, OwnFetch.size) == (64, 32, 24)
    assert OwnData((0, 1), 5, None, None).size_with(100) == 132


def _mutable_parts(value):
    """Whatever in ``value`` is neither a scalar nor a tuple (NamedTuples
    included), searched through nested tuples."""
    if value is None or isinstance(value, (int, float, str)):
        return []
    if isinstance(value, tuple):
        return [part for v in value for part in _mutable_parts(v)]
    return [value]


@pytest.fixture
def sent(monkeypatch):
    """Every message that reaches ``Network.send`` (a retransmit again),
    with the epoch it carried then."""
    seen = []
    real_send = Network.send

    def send(network, msg):
        seen.append((msg, msg.epoch))
        real_send(network, msg)

    monkeypatch.setattr(Network, "send", send)
    return seen


def _assert_values(sent):
    """No payload holds a mutable container, and no message's epoch
    changed after it was sent."""
    for msg, epoch in sent:
        assert not _mutable_parts(msg.payload), (msg.kind, msg.payload)
        assert msg.epoch == epoch, (msg, msg.epoch, epoch)


def _rinv_resent_in_a_later_epoch(sent) -> bool:
    """Some slot's R-INV went out again (re-broadcast or replay) in a
    higher epoch than its first send."""
    first = {}
    for msg, epoch in sent:
        if isinstance(msg.payload, RInv):
            key = msg.payload[:2]  # (pipeline, slot)
            if epoch > first.setdefault(key, epoch):
                return True
    return False


def test_elastic_cell_sends_only_values(sent):
    """Ownership replays and recovery snapshot chunks, beside every
    steady-state payload: each is fixed when it is sent."""
    SCENARIOS["elastic"](1, Observability())
    assert any(isinstance(msg.payload, OwnInv) and msg.payload.replay
               for msg, _epoch in sent)
    assert any(msg.kind == "rec.snap_chunk" for msg, _epoch in sent)
    assert _rinv_resent_in_a_later_epoch(sent)
    _assert_values(sent)


def test_commit_replay_sends_only_values(sent):
    """A coordinator crash mid-pipeline on a lossy network: followers
    replay its slots and ack the replays (as in ``test_chaos``)."""
    cluster = make_cluster(4, objects=12, fast_failover=True, seed=3,
                           faults=FaultParams(loss_prob=0.03,
                                              duplicate_prob=0.03,
                                              reorder_max_us=4.0))
    cluster.start_membership()
    cluster.crash(3, at=5_000.0)
    run_zeus_workload(
        cluster, lambda node_id, thread, rng: TxnSpec(
            write_set=rng.sample(range(12), 2), exec_us=0.3),
        duration_us=20_000.0, threads=2, seed=3)
    cluster.run(until=200_000.0)
    assert any(isinstance(msg.payload, RInv) and msg.payload.replay
               for msg, _epoch in sent)
    assert any(isinstance(msg.payload, RAck) for msg, _epoch in sent)
    assert _rinv_resent_in_a_later_epoch(sent)
    _assert_values(sent)
