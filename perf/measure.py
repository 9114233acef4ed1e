"""One measured run of one workload, inside a fresh child process.

``run.py`` starts this once per repeat (``python perf/measure.py NAME SEED
SECONDS MODE``) and reads one JSON object from its stdout.  Modes:

* ``timed``   — instruments as the workload defines them (off, except on
  ``smallbank_obs``).
* ``traced``  — the same run with a :class:`~layers.LayerRecorder`
  installed as host profiler and the ``spec_fn`` shim in place.
* ``checked`` — the same run with a history recorder attached, for
  workloads whose strict-serializability gate needs one (``chaos_faults``).

**Two clocks, never mixed.**  ``sim`` holds what modelled Zeus did — pure
functions of (seed, seconds, code) that must repeat exactly; ``host`` holds
what the simulator cost on this machine.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import (HistoryRecorder, LocalityRecorder,  # noqa: E402
                       Observability, Tracer)
from repro.obs import peak_rss_kb as ru_maxrss_kb  # noqa: E402

from layers import LayerRecorder, quantile, sim_counts  # noqa: E402
from workloads import WORKLOADS, Rig  # noqa: E402

__all__ = ["measure", "peak_rss_kb", "SETUP_BUILDS"]

#: Set-ups timed per child; ``setup_s`` is their median.
SETUP_BUILDS = 3


def peak_rss_kb() -> int:
    """High-water resident set of this process in KiB.

    ``ru_maxrss`` survives ``exec``: a child starts with its parent's
    resident size at the fork as a floor, so a workload smaller than
    ``run.py`` itself would report ``run.py``.  The kernel's ``VmHWM``
    belongs to the address space and starts afresh at ``exec``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return ru_maxrss_kb()


def measure(name: str, seed: int, seconds: float, mode: str) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    recorder = LayerRecorder() if mode == "traced" else None

    def build(profiler=None) -> Tuple[Rig, float, float]:
        """One set-up: workload generation, ``ZeusCluster(...)``, load()."""
        instruments = {}
        if workload.instrumented:
            instruments = {"tracer": Tracer(), "history": HistoryRecorder(),
                           "locality": LocalityRecorder()}
        elif mode == "checked":
            instruments = {"history": HistoryRecorder()}
        t0 = perf_counter()
        rig = workload.build(seed, seconds,
                             Observability(profiler=profiler, **instruments))
        t1 = perf_counter()
        rig.load()
        t2 = perf_counter()
        return rig, t2 - t0, t2 - t1

    rss_before = peak_rss_kb()
    rig, setup_s, load_s = build(recorder)
    setups = [setup_s]
    rss_loaded = peak_rss_kb()
    objects = rig.cluster.catalog.num_objects

    gc.collect()
    cpu0 = process_time()
    if recorder:
        recorder.start()
    t0 = perf_counter()
    rig.run_window(recorder.wrap_spec if recorder else None)
    wall_s = perf_counter() - t0
    if recorder:
        recorder.stop()
    cpu_s = process_time() - cpu0

    sim = rig.cluster.sim
    outcome = rig.outcome()
    ops = outcome["ops"]
    samples = sorted(rig.samples)
    counts = sim_counts(rig, outcome)
    doc: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "mode": mode,
        "sim": {
            "ops": ops,
            "failed": outcome["failed"],
            "sim_elapsed_us": outcome["sim_elapsed_us"],
            "events": sim.events_executed,
            "sim_ops_per_s": ops / (outcome["sim_elapsed_us"] / 1e6),
            "sim_lat_p50_us": quantile(samples, 0.50),
            "sim_lat_p99_us": quantile(samples, 0.99),
            "lat_samples": len(samples),
            "lat_digest": hashlib.sha256(
                repr(rig.samples).encode()).hexdigest()[:16],
            "events_per_op": sim.events_executed / max(1, ops),
            "counts": counts,
        },
        "host": {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "load_s": load_s,
            "peak_rss_kb": peak_rss_kb(),
            "load_rss_kb": rss_loaded - rss_before,
            "objects": objects,
        },
    }
    if recorder:
        doc["host"]["shares"] = recorder.shares()
        doc["host"]["handler_ns"] = dict(sorted(recorder.handler_ns.items()))
        doc["sim"]["messages"] = dict(sorted(recorder.message_counts.items()))

    # Correctness gates: after a drain, outside the timed window and after
    # the RSS reading (the checkers allocate).
    rig.drain()
    doc["problems"] = rig.gates()

    # The remaining set-ups (timed runs only), last of all so that neither
    # the window nor the RSS reading sees their garbage; each starts from a
    # collected heap.
    del rig, sim
    while mode == "timed" and len(setups) < SETUP_BUILDS:
        gc.collect()
        setups.append(build()[1])
    doc["host"]["setups_s"] = setups
    doc["host"]["setup_s"] = statistics.median(setups)
    return doc


if __name__ == "__main__":
    _name, _seed, _seconds, _mode = sys.argv[1:5]
    json.dump(measure(_name, int(_seed), float(_seconds), _mode), sys.stdout)
