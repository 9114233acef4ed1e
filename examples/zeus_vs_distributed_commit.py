#!/usr/bin/env python
"""Zeus vs. a FaSST-like distributed-commit baseline on Smallbank.

Sweeps the fraction of write transactions whose accounts live on another
node (a locality shift).  Zeus migrates them once and runs locally; the
static-sharding baseline executes them remotely with a multi-round-trip
atomic commit forever.  Prints the Figure 8-style crossover.

Run:  python examples/zeus_vs_distributed_commit.py
"""

from repro.baselines import FASST
from repro.harness.rig import steady_state
from repro.workloads import SmallbankWorkload

NODES = 3
DURATION_US = 6_000.0
FRACS = (0.0, 0.02, 0.1, 0.3)


def tps(frac: float, profile=None) -> float:
    """Zeus — or, given a baseline ``profile``, static sharding — at one
    remote-write fraction: four threads per node, closed loop."""
    wl = SmallbankWorkload(NODES, accounts_per_node=1_500, remote_frac=frac,
                           track_migration=profile is None)
    _cluster, stats = steady_state(wl, 1_000, 4, DURATION_US, profile=profile)
    return stats.throughput_tps(DURATION_US)


def main() -> None:
    print("Smallbank: Zeus vs FaSST-like distributed commit "
          f"({NODES} nodes, 3-way replication)")
    print("=" * 66)
    print(f"{'remote writes':>14}  {'Zeus':>10}  {'FaSST-like':>10}  winner")
    print("-" * 66)
    for frac in FRACS:
        z = tps(frac)
        b = tps(frac, FASST)
        winner = "Zeus" if z > b else "baseline"
        print(f"{frac:>13.0%}  {z/1e6:>9.2f}M  {b/1e6:>9.2f}M  "
              f"{winner} ({max(z, b)/min(z, b):.2f}x)")
    print("-" * 66)
    print("With locality Zeus wins by skipping the distributed commit;")
    print("past the crossover the cost of constant ownership migration")
    print("exceeds the cost of remote execution (Section 6.2).")


if __name__ == "__main__":
    main()
