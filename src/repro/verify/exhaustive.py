"""Exhaustive exploration of the *real* ownership and commit managers.

The paper model-checks its protocols in TLA+ (Section 8); this does the
same to the code that runs.  Each node hosts the real store, directory,
``OwnershipManager`` and ``CommitManager``, wired by the same
``wire_protocol`` as a cluster node, on a fake of what they use of a
node.  :func:`check_protocol` enumerates through ``bfs_check`` every
interleaving of deliveries, armed timers, client calls, one crash and the
view change after it; ``check_invariants`` must hold in every state and
``quiescence_problems`` be empty in every state nothing leaves.  What
stands in for network and membership, and why, is in DESIGN.md ("What the
protocol managers may assume of a node").

A handler touches only its own node, so a node's next state and output
are a function of its state and input.  The real code runs once per
distinct (node state, input) — on a node rebuilt by replaying its inputs,
as a blocked ``acquire`` generator cannot be copied — and global states
are composed from those memoized steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Tuple

from ..harness.rig import counter_catalog
from ..harness.zeus_cluster import wire_protocol
from ..net.message import Message
from ..obs import Observability
from ..sim.kernel import EventHandle
from ..sim.params import SimParams
from ..sim.process import Process
from ..store.meta import OState, TState
from .checker import CheckResult, bfs_check
from .invariants import (InvariantViolation, check_invariants,
                         quiescence_problems)

__all__ = ["Scenario", "SCENARIOS", "check_protocol"]

OID = 0
#: The R-ACK/R-VAL batching timers (2-3 µs) may always fire; the request
#: watchdog (milliseconds) only where a scenario asks for it.
_SHORT_TIMER_US = 100.0
_STATE_MODULES = ("repro.ownership.", "repro.commit.", "repro.store.")


@dataclass(frozen=True)
class Scenario:
    """One object, replicated three ways from ``owner`` on.  Each of
    ``acquirers`` requests ownership once; ``owner`` pipelines ``writes``
    writes (local commit, then ``CommitManager.submit``); at most one of
    ``crashable`` crashes, at any point, and a view change follows; with
    ``watchdog`` the request watchdog may fire at any point; under the
    ``adversary`` any message ever sent between two nodes may arrive late
    and repeatedly (a grow-only pool) instead of FIFO exactly once."""

    nodes: int = 3
    owner: int = 0
    acquirers: Tuple[int, ...] = ()
    writes: int = 0
    crashable: Tuple[int, ...] = ()
    watchdog: bool = False
    adversary: bool = False


#: Three nodes, all directory replicas, node 0 owns.  The watchdog, a crashing
#: requester and two contenders racing a write are in tests/regressions/.
SCENARIOS: Dict[str, Scenario] = {
    "ownership": Scenario(acquirers=(1, 2)),
    "ownership+dup": Scenario(acquirers=(1, 2), adversary=True),
    "ownership+crash": Scenario(acquirers=(1,), crashable=(0, 2)),
    "ownership+write": Scenario(acquirers=(1,), writes=2),
    "commit+crash": Scenario(writes=2, crashable=(0, 1, 2)),
}


def _canon(x):
    """``x`` as a hashable value, every set and dict sorted.  A tuple
    branch covers the ``NamedTuple`` wire payloads (and ``Ots`` /
    ``ReplicaSet``); beyond those only the ``__slots__`` classes of the
    protocol packages are descended into: futures, timer handles, metrics
    and back-references are not state."""
    if x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple([_canon(v) for v in x])
    if isinstance(x, dict):
        return tuple(sorted([(_canon(k), _canon(v)) for k, v in x.items()]))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted([_canon(v) for v in x]))
    slots = getattr(type(x), "__slots__", None)
    if slots is None or not type(x).__module__.startswith(_STATE_MODULES):
        return None
    return tuple([_canon(getattr(x, name)) for name in slots])


class _Node:
    """The real store, directory and managers of one node on a fake of
    what they use of ``cluster.node.Node``.  The node is its own ``sim``
    (the clock stands still, continuations run before the step ends,
    timers fire when the explorer says so) and its own ``ZeusHandle``."""

    alive = True  # a crashed node leaves the global state instead
    durability = None
    now = 0.0
    pool = SimpleNamespace(charge=lambda cost: 0.0)

    def __init__(self, explorer: "_Explorer", node_id: int):
        scenario, catalog = explorer.scenario, explorer.catalog
        self.sim = self.node = self
        self.node_id = node_id
        self.params, self.obs = explorer.params, explorer.obs
        self.watchdog = scenario.watchdog
        self.epoch = 1
        self.live_nodes = frozenset(range(scenario.nodes))
        self.handlers, self.view_listeners = {}, []
        self.soon, self.timers, self.outbox = [], {}, []
        # Wired as ZeusCluster._build_handle wires a node, then loaded as
        # ZeusCluster.load loads it.
        self.store, self.directory, self.ownership, self.commit = (
            wire_protocol(self, catalog))
        replicas = catalog.initial_replicas(OID)
        if self.directory is not None:
            self.directory.create(OID, replicas)
        if node_id in replicas.all_nodes():
            self.store.create(
                OID, 0, replicas if node_id == replicas.owner else None)
        #: Client calls still to make.
        self.script = (["acquire"] * (node_id in scenario.acquirers) + [
            "write"] * scenario.writes * (node_id == scenario.owner))

    def register_handler(self, kind, fn, cost=0.0, span_name=None) -> None:
        self.handlers[kind] = fn

    def add_view_listener(self, fn) -> None:
        self.view_listeners.append(fn)

    def spawn(self, gen, name: str = "proc") -> Process:
        return Process(self, gen, name)

    def send(self, dst, kind, payload, size_bytes, ctx=None) -> None:
        self.outbox.append((self.node_id, dst, kind, payload, self.epoch))

    def post_soon(self, fn, *args) -> None:
        self.soon.append((fn, args))

    def call_after(self, delay: float, fn, *args) -> EventHandle:
        handle = EventHandle()
        if delay <= _SHORT_TIMER_US or self.watchdog:
            self.timers[(fn.__name__, args)] = (handle, fn)
        return handle

    def apply(self, inp: tuple, messages: List[tuple]) -> List[tuple]:
        """Feed one input to the real code; return what it sent."""
        self.outbox = []
        tag = inp[0]
        if tag == "deliver":
            src, dst, kind, payload, epoch = messages[inp[1]]
            msg = Message(src, dst, kind, payload, 0)
            msg.epoch = epoch
            self.handlers[kind](msg)
        elif tag == "timer":
            _handle, fn = self.timers.pop(inp[1:])
            fn(*inp[2])
        elif tag == "view":
            self.epoch, self.live_nodes = inp[1], frozenset(inp[2])
            for listener in self.view_listeners:
                listener(self.epoch, self.live_nodes)
        elif self.script.pop(0) == "acquire":
            self.spawn(self.ownership.acquire(OID))
        else:  # Transaction.commit: install locally, then hand off
            obj = self.store.get(OID)
            obj.t_data = obj.t_version = obj.t_version + 1
            obj.t_state = TState.WRITE
            self.commit.submit(0, [(OID, obj.t_version, obj.t_data, 64)],
                               set(obj.o_replicas.readers))
        while self.soon:
            fn, args = self.soon.pop(0)
            fn(*args)
        return self.outbox

    def free_inputs(self) -> List[tuple]:
        """Inputs no message brings: armed timers, the next client call."""
        free = sorted(("timer",) + key
                      for key, (handle, _fn) in self.timers.items()
                      if not handle.cancelled)
        obj = self.store.get(OID)  # a write needs what ZeusAPI.execute needs
        if self.script[:1] == ["acquire"] or self.script and (
                obj.o_state == OState.VALID and obj.o_replicas is not None
                and obj.o_replicas.owner == self.node_id):
            free.append((self.script[0],))
        return free

    def key(self) -> tuple:
        return (self.node_id, self.epoch, tuple(sorted(self.live_nodes)),
                tuple(self.script), tuple(self.free_inputs()),
                _canon(self.store._objects),
                (None if self.directory is None
                 else _canon(self.directory._entries)),
                tuple([_canon(v) for manager in (self.ownership, self.commit)
                       for _name, v in sorted(vars(manager).items())]))


def _intern(ids: Dict[tuple, int], items: list, key: tuple, item) -> int:
    found = ids.get(key)
    if found is None:
        found = ids[key] = len(items)
        items.append(item)
    return found


class _Explorer:
    """Global states ``(nodes, network, epoch, exposed)`` over interned
    node states (``None`` once crashed) and messages.  ``network``: one
    queue per (src, dst), a sorted, never-emptied pool under the adversary;
    ``exposed``: the newest version any node ever showed Valid."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.params, self.obs = SimParams(), Observability()
        self.catalog = counter_catalog(scenario.nodes, 1,
                                       owner_of=lambda _i: scenario.owner)
        #: Node states: key -> id -> (frozen node, the inputs that built it).
        self.node_ids, self.nodes = {}, []
        #: Messages: canonical form -> id -> (src, dst, kind, payload, epoch).
        self.message_ids, self.messages = {}, []
        #: (node state, input) -> (node state, ids of the messages sent).
        self.steps: Dict[tuple, tuple] = {}

    def _step(self, sid: int, inp: tuple) -> tuple:
        """The real code's answer to ``inp`` in node state ``sid``."""
        hit = self.steps.get((sid, inp))
        if hit is None:
            frozen, inputs = self.nodes[sid]
            node = _Node(self, frozen.node_id)
            for past in inputs + (inp,):
                sent = node.apply(past, self.messages)
            hit = self.steps[(sid, inp)] = (
                _intern(self.node_ids, self.nodes, node.key(),
                        (node, inputs + (inp,))),
                tuple([_intern(self.message_ids, self.messages,
                               _canon(message), message)
                       for message in sent]))
        return hit

    def initial(self) -> tuple:
        n = self.scenario.nodes
        nodes = [_Node(self, node_id) for node_id in range(n)]
        return (tuple([_intern(self.node_ids, self.nodes, node.key(),
                               (node, ())) for node in nodes]),
                ((),) * (n * n), 1, 0)

    def _after(self, state: tuple, node_id: int, inp: tuple) -> tuple:
        """``state`` once ``node_id`` consumed ``inp`` and sent its output."""
        sids, network, epoch, exposed = state
        sid, sent = self._step(sids[node_id], inp)
        if sent:
            n, queues = self.scenario.nodes, list(network)
            for mid in sent:
                dst = self.messages[mid][1]
                if sids[dst] is None:
                    continue
                queue = queues[node_id * n + dst]
                queues[node_id * n + dst] = (
                    tuple(sorted({mid, *queue}))
                    if self.scenario.adversary and dst != node_id
                    else queue + (mid,))
            network = tuple(queues)
        obj = self.nodes[sid][0].store.get(OID)
        if obj is not None and obj.t_state == TState.VALID:
            exposed = max(exposed, obj.t_version)
        return (sids[:node_id] + (sid,) + sids[node_id + 1:], network,
                epoch, exposed)

    def successors(self, state: tuple) -> List[Tuple[str, tuple]]:
        sids, network, epoch, exposed = state
        n = self.scenario.nodes
        live = tuple([i for i in range(n) if sids[i] is not None])
        out = [(f"n{node_id} " + " ".join(map(str, inp)),
                self._after(state, node_id, inp))
               for node_id in live
               for inp in self.nodes[sids[node_id]][0].free_inputs()]
        # No queue leads to a crashed node (emptied here, then in _after).
        for i, queue in enumerate(network):
            pool = self.scenario.adversary and i // n != i % n
            for mid in queue if pool else queue[:1]:
                src, dst, kind, _payload, _epoch = self.messages[mid]
                rest = network[:i] + (queue if pool else queue[1:],)
                out.append((f"deliver {src}->{dst} {kind}", self._after(
                    (sids, rest + network[i + 1:], epoch, exposed), dst,
                    ("deliver", mid))))
        if len(live) == n:
            for victim in self.scenario.crashable:
                out.append((f"crash n{victim}", (
                    sids[:victim] + (None,) + sids[victim + 1:],
                    tuple([() if i % n == victim else queue
                           for i, queue in enumerate(network)]),
                    epoch, exposed)))
        elif epoch == 1:
            nxt = (sids, tuple([() if sids[i // n] is None else queue
                                for i, queue in enumerate(network)]),
                   2, exposed)
            for node_id in live:
                nxt = self._after(nxt, node_id, ("view", 2, live))
            out.append(("view change", nxt))
        return out

    def holds(self, state: tuple) -> bool:
        self.failure = self.problem(state)
        return not self.failure

    def problem(self, state: tuple) -> str:
        """What is wrong with ``state``, if anything: ``verify/invariants``
        on the real stores and directories; an exposed version lost, or
        exposed before every live replica has it; no quiescence where
        every action leads back to ``state``."""
        world = SimpleNamespace(
            catalog=self.catalog,
            handles=[self.nodes[sid][0] for sid in state[0]
                     if sid is not None])
        try:
            check_invariants(world)
        except InvariantViolation as err:
            return str(err)
        copies = [obj for node in world.handles for obj in node.store]
        stored = [obj.t_version for obj in copies]
        valid = [obj.t_version for obj in copies
                 if obj.t_state == TState.VALID]
        if state[3] > max(stored, default=0) or (
                valid and max(valid) > min(stored)):
            return (f"replication: v{state[3]} was exposed, live nodes "
                    f"store {stored} and expose {valid}")
        if all(nxt == state for _label, nxt in self.successors(state)):
            problems = quiescence_problems(world)
            if problems:
                return f"wedged terminal state: {problems}"
        return ""


def check_protocol(scenario: Scenario) -> CheckResult:
    """Explore ``scenario`` exhaustively over the real managers.  A
    violation comes with a shortest trace of actions leading to it."""
    explorer = _Explorer(scenario)
    result = bfs_check([explorer.initial()], explorer.successors,
                       [("invariant", explorer.holds)])
    if not result.ok:
        result.violation = explorer.failure
    return result
