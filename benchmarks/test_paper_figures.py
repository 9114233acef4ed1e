"""The paper's evaluation at reproduction scale: the sizes the committed
``results/`` and EXPERIMENTS.md were produced at (populations scaled down
from the paper's — see each ``run`` docstring in
``repro.harness.figures``) and the one test that runs a row at them::

    pytest benchmarks --benchmark-only -s              # everything (~5 min)
    pytest benchmarks --benchmark-only -s -k F8        # one row
"""

import pytest

from repro.harness.figures import FIGURES

#: Closed-loop steady-state window of every throughput point (µs).
_WINDOW = dict(threads=4, duration_us=8_000.0, warmup_us=1_500.0)

PAPER_SCALE = {
    "T2": dict(users_per_node=500, stations_per_node=10,
               accounts_per_node=500, subscribers_per_node=500,
               voters=2_000, samples=20_000),
    "L1-boston": {}, "L1-venmo": {}, "L1-tpcc": {},  # sized by their models
    "F7": dict(users_per_node=2_500, stations_per_node=40, **_WINDOW),
    "F8": dict(accounts_per_node=2_000, **_WINDOW),
    "F9": dict(subscribers_per_node=4_000, **_WINDOW),
    "F10": dict(voters=12_000, mover_threads=4, vote_threads=2,
                move1_at=20_000.0, horizon=220_000.0),
    "F11": dict(voters=15_000, hot_voters=3_000, vote_threads=2,
                horizon=180_000.0, moves_at=(20_000.0, 75_000.0, 130_000.0)),
    "F12": dict(voters=8_000, hot_voters=2_000, horizon=120_000.0),
    "F13": dict(users=2_000, horizon=400_000.0),
    "F14": dict(duration_us=30_000.0),
    "F15": dict(sessions=3_000, horizon=300_000.0),
    "V1": dict(seeds=12),
    "A1": dict(accounts_per_node=2_000, **_WINDOW),
    "A2": dict(accounts_per_node=1_500, **_WINDOW),
    "A3": dict(objects=60, threads=4, duration_us=8_000.0),
    "A4": dict(per_case=400),
    "A5": dict(subscribers_per_node=1_500, threads=4, duration_us=6_000.0),
}


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.id)
def test_figure(benchmark, row):
    """Run the row once (a simulation experiment, not a micro-benchmark:
    variance across repeats is zero by determinism), print its table, save
    it under ``results/`` and fail on its band problems."""
    payload = benchmark.pedantic(row.run, kwargs=PAPER_SCALE[row.id],
                                 rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(row.table(payload))
    row.save(payload)
    problems = row.bands(payload)
    assert not problems, problems
