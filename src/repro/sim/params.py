"""Performance-model parameters (the simulator's "hardware").

Defaults model the paper's testbed (Section 8): dual-socket Skylake nodes,
DPDK kernel-bypass networking over 40 Gbps links through a single switch,
10 application threads + 10 datastore worker threads per node.

All times are microseconds, sizes are bytes.  The constants are deliberately
few and global — every experiment's shape must emerge from protocol
structure (round-trip counts, blocking vs pipelining, fan-out), not from
per-figure tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["SimParams", "NetParams", "FaultParams", "DiskParams"]


@dataclass(frozen=True)
class NetParams:
    """Network model: a single switch, full bisection bandwidth."""

    #: One-way wire+switch latency between any two nodes (µs).
    wire_latency_us: float = 2.0
    #: Uniform jitter added to each message's latency (µs, max).
    jitter_us: float = 0.3
    #: Link bandwidth in bytes/µs (40 Gbps ≈ 5000 B/µs).
    bandwidth_bytes_per_us: float = 5000.0
    #: Fixed per-message header bytes (Ethernet+IP+UDP+protocol header).
    header_bytes: int = 64
    #: CPU cost to send or receive one message via DPDK (µs).
    msg_cpu_us: float = 0.25
    #: Extra CPU per message for the reliable-messaging layer
    #: (sequence bookkeeping, ack piggybacking, retransmit timers).
    reliable_overhead_us: float = 0.10
    #: Retransmission timeout for the reliable messaging layer (µs).
    retransmit_timeout_us: float = 40.0
    #: Maximum retransmissions before the link layer gives up and lets the
    #: failure detector take over.
    max_retransmits: int = 50
    #: After giving up, the channel probes the peer at this interval so a
    #: healed partition (unlike a crash) resumes delivery; state is only
    #: discarded when membership actually removes the peer.
    probe_interval_us: float = 400.0


@dataclass(frozen=True)
class FaultParams:
    """Network fault injection (applied below the reliable layer)."""

    loss_prob: float = 0.0
    duplicate_prob: float = 0.0
    #: Max extra delay for reordering (µs); 0 disables.
    reorder_max_us: float = 0.0
    #: Probability a message is delayed (by up to ``reorder_max_us``) when
    #: reordering is enabled.
    reorder_prob: float = 0.5


@dataclass(frozen=True)
class DiskParams:
    """Per-node durable-storage model (write-ahead log + snapshots).

    Disabled by default: the seed system is the paper's in-memory design,
    where "durable" means replicated (Section 5.2's early commit ack).
    Enabling the WAL adds a second durability point — the local disk — whose
    cost/latency is modelled by the constants below (NVMe-flash-ish
    defaults: ~10 µs fsync, ~2 GB/s sequential writes).
    """

    #: Master switch: when False no log is kept and recovery falls back to
    #: live-donor state transfer only (pre-durability semantics).
    enabled: bool = False
    #: Latency of one flush/fsync barrier (µs).
    fsync_us: float = 10.0
    #: Sequential write throughput (bytes/µs; 2000 ≈ 2 GB/s).
    write_bytes_per_us: float = 2000.0
    #: Fixed per-write positioning/submission overhead (µs).
    seek_us: float = 1.0
    #: ``"group"`` batches appends and fsyncs at most once per
    #: ``group_window_us``; ``"always"`` fsyncs every record immediately.
    fsync_policy: str = "group"
    #: Group-commit window: max time a record waits volatile before the
    #: batched fsync is issued (µs).
    group_window_us: float = 15.0
    #: ``"replication"`` acks commits at the paper's replication point
    #: (disk persistence is asynchronous); ``"persist"`` holds the commit
    #: ack until the coordinator's COMMIT record is fsynced.
    ack_policy: str = "replication"
    #: Interval between crash-consistent snapshots (µs); 0 disables
    #: snapshotting (the log then grows without truncation).
    snapshot_interval_us: float = 20_000.0
    #: Fixed byte overhead per WAL record (header/framing).
    record_header_bytes: int = 32

    def with_(self, **kwargs) -> "DiskParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SimParams:
    """Full performance model for a Zeus deployment."""

    net: NetParams = field(default_factory=NetParams)
    faults: FaultParams = field(default_factory=FaultParams)
    disk: DiskParams = field(default_factory=DiskParams)

    #: Application threads per node (paper: up to 10).
    app_threads: int = 10
    #: Datastore worker threads per node (paper: up to 10).
    worker_threads: int = 10

    # ----------------------------------------------------------- CPU costs
    #: Base CPU to set up / tear down a transaction context (µs).
    txn_setup_us: float = 0.15
    #: CPU per object opened for read (version read + buffer) (µs).
    open_read_us: float = 0.05
    #: CPU per object opened for write (private copy) (µs).
    open_write_us: float = 0.10
    #: Private-copy cost per byte of object size (µs/B).
    copy_us_per_byte: float = 0.0002
    #: Local-commit fixed cost (serialization point) (µs).
    local_commit_us: float = 0.20
    #: Local-commit per modified object (µs).
    local_commit_per_obj_us: float = 0.05
    #: Reliable-commit coordinator bookkeeping per transaction (µs).
    rcommit_coord_us: float = 0.15
    #: Follower cost to apply one R-INV object update, excl. data copy (µs).
    rcommit_apply_us: float = 0.20
    #: Data-copy cost per byte when applying updates (µs/B).
    apply_us_per_byte: float = 0.0002

    # ------------------------------------------------------ ownership costs
    #: CPU for a directory/driver to arbitrate one request (µs).
    own_arbitrate_us: float = 0.30
    #: Deadlock avoidance: initial retry back-off after a NACK (µs).
    own_backoff_us: float = 10.0
    #: Exponential back-off cap (µs).
    own_backoff_max_us: float = 640.0

    # --------------------------------------------------------- membership
    #: Node lease duration (µs).  Real deployments use ~10ms; tests shrink.
    lease_us: float = 10_000.0
    #: Failure-detector heartbeat interval (µs).
    heartbeat_us: float = 1_000.0

    def with_(self, **kwargs) -> "SimParams":
        """A copy with selected fields replaced (frozen-dataclass helper)."""
        return replace(self, **kwargs)

    def scaled_threads(self, app: Optional[int] = None, worker: Optional[int] = None) -> "SimParams":
        return replace(
            self,
            app_threads=app if app is not None else self.app_threads,
            worker_threads=worker if worker is not None else self.worker_threads,
        )
