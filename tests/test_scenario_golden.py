"""Golden pins for the five scenario cells of ``repro.harness.scenarios``.

Each cell's outcome digest (seed 1) must equal the committed
``golden_scenario_digests.json`` — with nothing attached (in fresh
interpreters, under several ``PYTHONHASHSEED`` settings), and with tracer,
history and locality recorders all attached: instruments may cost host
time (``perf/``'s ``smallbank_obs`` prices that), never an outcome.  CI
runs this on every supported interpreter, so the file is also the
cross-version determinism check.

The rule: only a change that *means* to alter an outcome re-records, with::

    PYTHONPATH=src python tests/test_scenario_golden.py --record

and explains the diff.  The values were recorded at commit 0c5b58f, the
last one to carry a second benchmark: they are the ``sim.digest`` fields of
its five per-scenario baseline files.  Fault-path changes have re-recorded
``elastic`` since (the R-INV epoch on the envelope, then a live RESP that
finishes its request once, ROADMAP item 1(a)).  The read rule
(``StoredObject``: a read needs ``o_state`` not Invalid as well as
``t_state`` Valid, on the transaction lane too) re-recorded ``smallbank``,
``chaos2`` and ``elastic``: in each, read-only transactions that used to
read a mid-arbitration copy now retry.  ``tatp`` and ``voter_migration``
have not moved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.scenarios import SCENARIOS
from repro.obs import HistoryRecorder, LocalityRecorder, Observability, Tracer

GOLDEN = Path(__file__).with_name("golden_scenario_digests.json")
SRC = Path(__file__).resolve().parent.parent / "src"
_PLAIN_SNIPPET = (
    "import json, sys; from repro.harness.scenarios import SCENARIOS; "
    "from repro.obs import Observability; "
    "print(json.dumps({name: SCENARIOS[name](1, Observability())"
    ".digest() for name in sys.argv[1:]}))")
#: The plain leg runs in fresh interpreters, one per string-hash setting:
#: every scenario under the benchmark's own PYTHONHASHSEED=0, the two
#: cheapest multi-node cells under two more randomisations.
PLAIN_RUNS = {"0": list(SCENARIOS), "1": ["smallbank", "chaos2"],
              "random": ["smallbank", "chaos2"]}


@pytest.fixture(scope="module", autouse=True)
def plain_children():
    """Started before the in-process instrumented runs so the two legs
    compute side by side; ``test_plain_digest_...`` collects them."""
    children = {
        hash_seed: subprocess.Popen(
            [sys.executable, "-c", _PLAIN_SNIPPET, *names],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC),
                 "PYTHONHASHSEED": hash_seed})
        for hash_seed, names in PLAIN_RUNS.items()}
    yield children
    for child in children.values():
        child.kill()
        child.wait()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_instrumented_digest_matches_golden(name):
    obs = Observability(tracer=Tracer(), history=HistoryRecorder(),
                        locality=LocalityRecorder())
    want = json.loads(GOLDEN.read_text())[name]
    assert SCENARIOS[name](1, obs).digest() == want


@pytest.mark.parametrize("hash_seed", list(PLAIN_RUNS))
def test_plain_digest_matches_golden_under_hash_seed(hash_seed,
                                                     plain_children):
    """A run is a pure function of (seed, parameters): the committed
    digest must come out of a fresh interpreter under any string-hash
    randomisation."""
    golden = json.loads(GOLDEN.read_text())
    out, _ = plain_children[hash_seed].communicate(timeout=300)
    assert plain_children[hash_seed].returncode == 0
    assert json.loads(out) == {name: golden[name]
                               for name in PLAIN_RUNS[hash_seed]}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_scenario_golden.py --record")
    golden = {name: run(1, Observability()).digest()
              for name, run in SCENARIOS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
