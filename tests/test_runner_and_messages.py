"""CLI runner and wire-message size accounting."""

import json
from pathlib import Path

import pytest

import repro.chaos as chaos
from repro.commit.messages import RAck, RInv, RVal
from repro.harness.runner import main
from repro.obs import Observability, Tracer, load_jsonl, write_chrome_trace
from repro.ownership.messages import (
    OwnAck,
    OwnInv,
    OwnReq,
    OwnVal,
    ReqType,
)
from repro.store.meta import Ots, ReplicaSet


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
    small = RInv((0, 0), 0, 1, (1, 2), [(5, 1, "x", 100)], prev_val=True)
    large = RInv((0, 0), 0, 1, (1, 2), [(5, 1, "x", 10_000)], prev_val=True)
    assert large.size - small.size == 9_900
    assert small.data_bytes == 100


def test_rinv_size_grows_with_updates_and_followers():
    one = RInv((0, 0), 0, 1, (1,), [(5, 1, None, 0)], prev_val=False)
    two = RInv((0, 0), 0, 1, (1, 2), [(5, 1, None, 0), (6, 1, None, 0)],
               prev_val=False)
    assert two.size > one.size


def test_rack_rval_sizes_scale_with_entries():
    assert RAck([((0, 0), 1)], 1).size < RAck([((0, 0), 1), ((0, 1), 2)], 1).size
    assert RVal([((0, 0), 1, True)], 1).size \
        < RVal([((0, 0), 1, True), ((0, 1), 2, False)], 1).size


def test_own_ack_size_with_and_without_data():
    replicas = ReplicaSet(0, (1, 2))
    bare = OwnAck((0, 1), 5, Ots(1, 0), 1, (0, 1, 2), replicas)
    loaded = OwnAck((0, 1), 5, Ots(1, 0), 1, (0, 1, 2), replicas,
                    data="v", data_version=3)
    assert loaded.size_with(400) - bare.size_with(400) == 400


def test_own_inv_replay_preserves_identity():
    inv = OwnInv((0, 1), 5, Ots(2, 0), ReplicaSet(3, (0,)), 3,
                 ReqType.ACQUIRE_OWNER, 1, (0, 1, 2), None,
                 ReplicaSet(0, (1,)), Ots(1, 0))
    replayed = inv.replayed_by(driver=1, epoch=2, arbiters=(0, 1))
    assert replayed.o_ts == inv.o_ts
    assert replayed.req_id == inv.req_id
    assert replayed.replay and not inv.replay
    assert replayed.epoch == 2


def test_own_req_and_val_fixed_sizes():
    assert OwnReq.size > 0
    assert OwnVal.size > 0
