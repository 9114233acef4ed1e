"""The paper's evaluation at reproduction scale: the one test that runs a
row of ``repro.harness.figures.FIGURES`` at its ``sizes`` — the sizes the
committed ``results/`` and EXPERIMENTS.md were produced at (populations
scaled down from the paper's — see each ``run`` docstring)::

    pytest benchmarks --benchmark-only -s              # everything (~5 min)
    pytest benchmarks --benchmark-only -s -k F8        # one row
"""

import pytest

from repro.harness.figures import FIGURES


@pytest.mark.parametrize("row", FIGURES, ids=lambda row: row.id)
def test_figure(benchmark, row):
    """Run the row once (a simulation experiment, not a micro-benchmark:
    variance across repeats is zero by determinism), print its table, save
    it under ``results/`` and fail on its band problems."""
    payload = benchmark.pedantic(row.run, kwargs=row.sizes,
                                 rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(row.table(payload))
    row.save(payload)
    problems = row.bands(payload)
    assert not problems, problems
