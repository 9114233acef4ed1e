"""Network fault injection: message loss, duplication, reordering.

Zeus assumes a partially synchronous network where messages can be lost,
duplicated and reordered (Section 3.1).  The injector sits *below* the
reliable messaging layer, so experiments can verify that the reliable layer
(and, independently, the idempotent protocol design) masks these faults.

The injector's :class:`FaultParams` may be swapped at any simulated time
(``injector.params = ...``): the chaos layer uses this to run *windowed*
fault bursts — a clean baseline with high-loss or high-reorder intervals —
rather than a single static rate for the whole run.  When a
:class:`~repro.obs.MetricsRegistry` is supplied, every decision is mirrored
into ``faults.*`` counters.
"""

from __future__ import annotations

import random
from typing import Optional

from ..sim.params import FaultParams

__all__ = ["FaultInjector", "FaultDecision"]


class FaultDecision:
    """What the injector decided for one message."""

    __slots__ = ("drop", "duplicates", "extra_delay_us")

    def __init__(self, drop: bool = False, duplicates: int = 0, extra_delay_us: float = 0.0):
        self.drop = drop
        self.duplicates = duplicates
        self.extra_delay_us = extra_delay_us


_CLEAN = FaultDecision()


class FaultInjector:
    """Applies :class:`FaultParams` to each message using a dedicated RNG."""

    def __init__(self, params: FaultParams, rng: Optional[random.Random] = None,
                 registry=None):
        self.params = params  # also sets self.active
        self.rng = rng or random.Random(0)
        self._c_dropped = registry.counter("faults.dropped") if registry else None
        self._c_duplicated = registry.counter("faults.duplicated") if registry else None
        self._c_reordered = registry.counter("faults.reordered") if registry else None
        self.dropped = 0

    @property
    def params(self) -> FaultParams:
        return self._params

    @params.setter
    def params(self, p: FaultParams) -> None:
        self._params = p
        #: Whether any fault can fire under the current (frozen) params;
        #: worked out once per swap, read by the network on every message.
        self.active = (p.loss_prob > 0 or p.duplicate_prob > 0
                       or p.reorder_max_us > 0)

    def decide(self) -> FaultDecision:
        if not self.active:
            return _CLEAN
        p = self.params
        rng = self.rng
        drop = p.loss_prob > 0 and rng.random() < p.loss_prob
        duplicates = 0
        if p.duplicate_prob > 0 and rng.random() < p.duplicate_prob:
            duplicates = 1
        extra = 0.0
        if p.reorder_max_us > 0 and rng.random() < p.reorder_prob:
            extra = rng.random() * p.reorder_max_us
        if drop:
            self.dropped += 1
            if self._c_dropped is not None:
                self._c_dropped.inc()
        if duplicates and self._c_duplicated is not None:
            self._c_duplicated.inc()
        if extra > 0 and self._c_reordered is not None:
            self._c_reordered.inc()
        return FaultDecision(drop, duplicates, extra)
