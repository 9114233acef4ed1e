"""Boston-metro mobility model (Section 2.2 / Section 8 "Locality").

The paper derives its handover statistics from Calabrese et al.'s Boston
mobility study: ~5 one-way trips/person/day, ~100 km/day for drivers,
base stations 1 km apart (≈1000 cells for the 2M-user scaled metro), cells
sharded **geographically contiguously** across nodes.  A handover is
*remote* when the user crosses a cell boundary that is also a shard
boundary; the paper reports up to 6.2% remote handovers on six nodes.

We model the metro as a ``rows × cols`` grid of cells partitioned into
horizontal stripes (one per node) and commuters as straight-ish random
walks.  Both an analytic estimate and a Monte-Carlo measurement are
provided; the default geometry (40 rows × 25 cols = 1000 cells) lands the
six-node remote-handover fraction at the paper's ~6%.
"""

from __future__ import annotations

import random
from typing import List, Tuple

__all__ = ["MobilityModel"]


class MobilityModel:
    """Grid-of-cells metro with striped geographic sharding."""

    def __init__(self, num_nodes: int, rows: int = 40, cols: int = 25,
                 seed: int = 5):
        if num_nodes < 1 or num_nodes > rows:
            raise ValueError("need 1 <= num_nodes <= rows")
        self.num_nodes = num_nodes
        self.rows = rows
        self.cols = cols
        self.rng = random.Random(seed)

    def cell_node(self, row: int, col: int) -> int:
        """Shard of a cell: contiguous horizontal stripes."""
        return min(self.num_nodes - 1, row * self.num_nodes // self.rows)

    # ------------------------------------------------------------- analytic

    def analytic_remote_fraction(self) -> float:
        """Expected fraction of cell crossings that cross a shard boundary.

        Random-direction movement splits crossings evenly between the two
        axes; only vertical crossings can change stripes, and of the
        ``rows - 1`` vertical boundaries ``num_nodes - 1`` are shard edges.
        """
        if self.num_nodes == 1:
            return 0.0
        vertical_share = 0.5
        return vertical_share * (self.num_nodes - 1) / (self.rows - 1)

    # ---------------------------------------------------------- Monte-Carlo

    def commute_path(self, length: int, rng: random.Random) -> List[Tuple[int, int]]:
        """A commute: mostly straight with occasional turns (drivers follow
        roads; pure random walks under-count boundary crossings)."""
        row = rng.randrange(self.rows)
        col = rng.randrange(self.cols)
        dr, dc = rng.choice([(-1, 0), (1, 0), (0, -1), (0, 1)])
        path = [(row, col)]
        for _ in range(length):
            if rng.random() < 0.2:  # turn
                dr, dc = rng.choice([(-1, 0), (1, 0), (0, -1), (0, 1)])
            nr, nc = row + dr, col + dc
            if not (0 <= nr < self.rows):
                dr = -dr
                nr = row + dr
            if not (0 <= nc < self.cols):
                dc = -dc
                nc = col + dc
            row, col = nr, nc
            path.append((row, col))
        return path

    def measure_remote_fraction(self, trips: int = 2_000,
                                trip_cells: int = 50) -> float:
        """Fraction of handovers (cell crossings) that are remote."""
        remote = 0
        total = 0
        for _ in range(trips):
            path = self.commute_path(trip_cells, self.rng)
            for (r1, c1), (r2, c2) in zip(path, path[1:]):
                if (r1, c1) == (r2, c2):
                    continue
                total += 1
                if self.cell_node(r1, c1) != self.cell_node(r2, c2):
                    remote += 1
        return remote / total if total else 0.0
