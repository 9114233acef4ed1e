"""CLI runner and wire-message size accounting."""

import pytest

from repro.commit.messages import RAck, RInv, RVal
from repro.harness.runner import main
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


def test_cli_locality(capsys):
    assert main(["locality"]) == 0
    out = capsys.readouterr().out
    assert "Boston" in out
    assert "TPC-C" in out


def test_cli_verify_small(capsys):
    assert main(["verify", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "verdict         : OK" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


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
