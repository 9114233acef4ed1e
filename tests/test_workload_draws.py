"""Generator draw compatibility: same seeds, same specs, same RNG use.

Every workload generator must hand each (node, thread) the spec stream it
handed out before the mix tables were precomputed: the digests below were
recorded from the parent commit (8c4f344) with::

    PYTHONPATH=src python tests/test_workload_draws.py --record

``tatp``, ``smallbank``, ``voter`` and ``handovers`` are the generators in
``repro.workloads``; ``tpcc``, ``venmo`` and ``mobility`` are the access
patterns of the ``repro place`` differential.  The property test pins the
primitives that changed underneath them: a ``base.MixTable`` pick is
``random.Random.choices(population, weights=w)[0]``, draw for draw, and
the bounded draw the TATP and Smallbank generators spell out is
``random.Random.randrange(n)`` (CPython's algorithm, so CI runs the
properties in depth on the newest interpreter of the matrix).
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.placement import differential
from repro.workloads import (HandoverWorkload, SmallbankWorkload,
                             TatpWorkload, VoterWorkload, base)

GOLDEN = Path(__file__).with_name("golden_workload_draws.json")
#: Examples per property: 200, or the loaded profile's count when that is
#: more (2,000 under ``--hypothesis-profile=ci``).
EXAMPLES = max(200, settings.default.max_examples)
SPECS = 5_000
THREADS = 2


def _spec_fns():
    """name -> (spec_fn, nodes, set-up state worth pinning)."""
    tatp = TatpWorkload(3, subscribers_per_node=400, remote_frac=0.1, seed=11)
    smallbank = SmallbankWorkload(3, accounts_per_node=400, remote_frac=0.2,
                                  seed=7)
    voter = VoterWorkload(3, voters=3_000, seed=17)
    handovers = HandoverWorkload(3, users_per_node=300, seed=13)
    fns = {
        "tatp": (tatp.spec_for, 3, ()),
        "smallbank": (smallbank.spec_for, 3, ()),
        # The voters' contestants are weighted draws made at set-up.
        "voter": (voter.spec_for, 3, voter.voter_choice),
        "handovers": (handovers.spec_for, 3, ()),
    }
    for name in ("tpcc", "venmo", "mobility"):
        row = differential._ROWS[name]
        rig = differential._build(row, 1, Observability())
        script = row.events(rig) if row.events is not None else None
        rig.cluster.run(until=400.0)  # the LB pins settle; no handover yet
        fns[name] = (row.spec(rig, script), row.nodes, ())
    return fns


def draw_digests() -> dict:
    out = {}
    for name, (spec_fn, nodes, setup) in _spec_fns().items():
        streams = {}
        for node in range(nodes):
            for thread in range(THREADS):
                rng = random.Random(f"{name}.{node}.{thread}")
                digest = hashlib.sha256()
                for _ in range(SPECS):
                    spec = spec_fn(node, thread, rng)
                    digest.update(repr(spec and (
                        spec.write_set, spec.read_set, spec.exec_us,
                        spec.read_only, spec.tag)).encode())
                # What the generator took from the RNG, not only what it
                # made of it: one draw more or fewer moves the next value.
                digest.update(repr(rng.random()).encode())
                streams[f"n{node}.t{thread}"] = digest.hexdigest()[:20]
        if setup:
            streams["setup"] = hashlib.sha256(
                repr(list(setup)).encode()).hexdigest()[:20]
        out[name] = streams
    return out


@pytest.fixture(scope="module")
def drawn():
    return draw_digests()


@pytest.mark.parametrize("name", ["tatp", "smallbank", "voter", "handovers",
                                  "tpcc", "venmo", "mobility"])
def test_spec_streams_match_parent_golden(name, drawn):
    assert drawn[name] == json.loads(GOLDEN.read_text())[name]


@settings(max_examples=EXAMPLES, deadline=None)
@given(weights=st.lists(st.one_of(st.integers(1, 1_000),
                                  st.floats(1e-6, 1e6)),
                        min_size=1, max_size=12),
       seed=st.integers(0, 2**32), draws=st.integers(1, 20))
def test_mix_table_pick_is_random_choices(weights, seed, draws):
    population = [f"item{i}" for i in range(len(weights))]
    table = base.MixTable(population, weights)
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert table.pick(ours) == theirs.choices(population,
                                                  weights=weights)[0]
        assert ours.getstate() == theirs.getstate()  # one draw, no more


@settings(max_examples=EXAMPLES, deadline=None)
@given(n=st.integers(1, 2**24), seed=st.integers(0, 2**32),
       draws=st.integers(1, 20))
def test_inline_bounded_draw_is_randrange(n, seed, draws):
    """The rejection loop ``TatpWorkload.spec_for`` and Smallbank's
    account draw run in their own frame, with the width precomputed."""
    ours, theirs = random.Random(seed), random.Random(seed)
    getrandbits, k = ours.getrandbits, n.bit_length()
    for _ in range(draws):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        assert r == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


def test_mix_table_rejects_what_choices_rejects():
    for population, weights in (([], []), (["a"], [1, 2]), (["a"], [0]),
                                (["a", "b"], [1.0, float("inf")])):
        with pytest.raises(ValueError):
            base.MixTable(population, weights)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_workload_draws.py --record")
    GOLDEN.write_text(json.dumps(draw_digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
