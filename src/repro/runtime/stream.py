"""RuntimeStream — a deployed stream application (section 6.3).

Built by the Coordination Manager from a compiled configuration table, a
RuntimeStream owns:

* the stream's wiring as a **value** (:class:`~repro.runtime.topology.Topology`)
  and the live objects that realise it — one executable
  :class:`~repro.runtime.streamlet.Streamlet` per instance (drawn from
  the Streamlet Manager, pooled when stateless) and one
  :class:`~repro.runtime.channel.Channel` per channel of the value,
  ingress/egress carriers on the exposed ports included,
* the **composition primitives** of Figure 6-4 — ``connect``,
  ``disconnect``, ``insert``, ``remove``, ``replace`` — each of them one
  :func:`~repro.runtime.topology.apply` step on a capture of the value,
  then :meth:`RuntimeStream._realise`: the one routine that touches
  streamlets, channels and queues, used alike by the initial deployment
  (from the empty topology), by a primitive, by a committed transaction
  and by a probation rollback,
* the Equation 7-1 reconfiguration timing:
  ``T = Σ suspend + n·channel-ops + Σ activate``.

Message loss avoidance (section 6.6): the Figure 6-8 prerequisites are
checked before a streamlet is detached — its input channels drained —
unless the caller forces.  Because a step is decided on the value before
anything live changes, a refused primitive leaves the stream untouched.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import (
    CompositionError,
    ReconfigAbortedError,
    ReconfigValidationError,
)
from repro.events import ContextEvent
from repro.mcl import astnodes as ast
from repro.mcl.config import ConfigurationTable
from repro.mime.message import MimeMessage
from repro.mime.registry import TypeRegistry, default_registry
from repro.runtime.channel import Channel
from repro.runtime.message_pool import MessagePool, PassMode
from repro.runtime.streamlet import Streamlet, StreamletContext, StreamletState
from repro.runtime.streamlet_manager import StreamletManager
from repro.runtime.topology import EDGE_CHANNEL_DEF, INGRESS, Topology, apply
from repro.semantics.fusion import fusable_chains
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.clock import Clock, WallClock


@dataclass
class _Node:
    """One deployed streamlet instance plus its port wiring."""

    streamlet: Streamlet
    definition: ast.StreamletDef
    ctx: StreamletContext
    inputs: dict[str, Channel] = field(default_factory=dict)
    outputs: dict[str, Channel] = field(default_factory=dict)
    #: hop-latency histogram pre-bound at creation (None when telemetry off)
    hop_hist: object | None = None
    #: queue-wait histogram pre-bound at creation (None when telemetry off)
    queue_wait_hist: object | None = None


@dataclass
class ReconfigTiming:
    """The Equation 7-1 terms, in seconds."""

    suspend: float = 0.0
    channel_ops: float = 0.0
    activate: float = 0.0
    actions: int = 0

    @property
    def total(self) -> float:
        return self.suspend + self.channel_ops + self.activate


@dataclass
class StreamStats:
    messages_in: int = 0
    messages_out: int = 0
    processed: int = 0
    queue_drops: int = 0
    open_circuit_drops: int = 0
    processing_failures: int = 0
    events_handled: int = 0
    #: messages a streamlet consumed without emitting (cache hit, filter)
    absorbed: int = 0
    #: failed messages released because no fault handler retained them
    failure_drops: int = 0
    #: pool entries drained from channels when the stream ended
    end_drops: int = 0
    #: failed messages re-posted by a recovery supervisor
    retries: int = 0
    #: messages parked in a dead-letter pool after exhausting recovery
    dead_letters: int = 0

    def __post_init__(self) -> None:
        # not a dataclass field: excluded from fields()/repr/JSON export
        self._lock = threading.Lock()

    def inc(self, name: str, n: int = 1) -> None:
        """Atomically bump one counter.

        Scheduler workers read the topology lock-free, so counters shared
        across instances (processed, drops, ...) can no longer rely on the
        topology lock serialising their ``+=``; a bare read-modify-write
        loses increments under thread preemption.
        """
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def inc_many(self, counts: dict[str, int]) -> None:
        """Atomically apply a batch of counter bumps under one lock.

        The schedulers' batched steps accumulate their per-message bumps
        in a plain dict and flush here once per dispatch, amortising the
        lock from per-message to per-batch.
        """
        with self._lock:
            for name, n in counts.items():
                setattr(self, name, getattr(self, name) + n)


class _ReadGate:
    """Tracks threads mid-step on a published topology snapshot (RCU read side).

    ``enter``/``exit`` are plain dict stores/deletes keyed by thread ident —
    each a single bytecode-atomic operation under the GIL, so the reader
    hot path takes no lock.  Writers are rare (reconfiguration): they
    retire the snapshot pointer first, then :meth:`wait_idle` sleep-polls
    until every *other* thread has left the gate.

    The one protocol rule that prevents deadlock: a registered reader must
    never block on the topology lock.  A worker that needs to mutate the
    stream mid-step (e.g. a supervisor bypassing a failing streamlet from
    inside the fault handler) leaves the gate first
    (:meth:`leave_current`), takes the write side, and re-registers while
    still holding the lock — so no writer can slip a mutation into the
    remainder of its step.
    """

    __slots__ = ("_readers",)

    def __init__(self) -> None:
        self._readers: dict[int, int] = {}  # thread ident -> reentrancy depth

    def enter(self) -> None:
        ident = threading.get_ident()
        readers = self._readers
        readers[ident] = readers.get(ident, 0) + 1

    def exit(self) -> None:
        ident = threading.get_ident()
        readers = self._readers
        depth = readers.get(ident)
        if depth is None:
            return  # tolerate an exit after leave_current
        if depth <= 1:
            del readers[ident]
        else:
            readers[ident] = depth - 1

    def leave_current(self) -> int:
        """Deregister the calling thread entirely; returns its prior depth."""
        return self._readers.pop(threading.get_ident(), 0) or 0

    def restore(self, depth: int) -> None:
        """Re-register the calling thread at ``depth`` (after a write)."""
        if depth:
            self._readers[threading.get_ident()] = depth

    def wait_idle(self) -> None:
        """Block until no *other* thread is registered in the gate.

        Readers never block while registered, so this converges as fast as
        the slowest in-flight step; the 0.2 ms poll bounds writer latency
        without putting any synchronisation on the reader path.
        """
        ident = threading.get_ident()
        readers = self._readers
        while any(other != ident for other in tuple(readers)):
            time.sleep(0.0002)


class _NodeView:
    """One node's frozen wiring and hop plan, as published in a snapshot.

    References the *live* ``Streamlet``/``Channel``/context objects (so
    fault-injection wrappers that shadow ``process``/``fetch`` as instance
    attributes keep intercepting), but the port tables are immutable
    copies: workers iterate them without taking the topology lock and
    without the per-step ``list(dict.items())`` allocation.

    The **hop plan** is what the scheduler's hop kernel needs for every
    message and that cannot change while this snapshot is published,
    resolved here once instead of per hop: the context, the two
    histograms, the peer id to push and, inside a fused chain,
    ``next_port`` — the input port of the member after this one.
    ``process`` and the histograms' ``observe`` are deliberately *not*
    pre-bound: CPython calls a method through its object faster than it
    calls a stored bound method (46–54 ns against 56–64 ns, three runs of
    two million calls), so binding would buy nothing and would stop
    honouring a ``process`` shadowed after publication.

    Every view is a chain of ``members`` joined by ``interior`` channels;
    an ordinary node is the chain of itself, so the scheduler has one
    way of stepping.
    """

    #: class attribute, not a slot: only :class:`_FusedView` overrides it
    fused = False

    __slots__ = (
        "name", "streamlet", "ctx", "inputs", "outputs", "consumers",
        "hop_hist", "queue_wait_hist", "members", "interior", "peer", "next_port",
    )

    def __init__(self, name: str, node: "_Node", consumers: tuple[str, ...]):
        self.name = name
        self.streamlet = node.streamlet
        self.ctx = node.ctx
        self.inputs: tuple[tuple[str, Channel], ...] = tuple(node.inputs.items())
        self.outputs: dict[str, Channel] = dict(node.outputs)
        #: downstream instance names (for worklist seeding)
        self.consumers = consumers
        self.hop_hist = node.hop_hist
        self.queue_wait_hist = node.queue_wait_hist
        self.members: tuple[_NodeView, ...] = (self,)
        self.interior: tuple[Channel, ...] = ()
        self.peer = node.streamlet.peer_id
        self.next_port: str | None = None


class _FusedView:
    """A fused chain of synchronously-coupled members, stepped as one node.

    Published in the snapshot under the *head* member's name; the other
    members get parked :class:`_NodeView`s (no inputs, no consumers) so
    their scheduler workers stay alive idling and re-acquire real wiring
    if a reconfiguration splits the chain.  ``inputs`` is the head's
    external inputs plus the interior (elided) channels — so worklist
    seeding and worker wakeup registration notice residual units parked
    mid-chain — but the fused step claims new traffic only at the head.
    Fusion lives entirely at the snapshot level: the structural graph
    (``_Node`` wiring, channel instances) is untouched, which is what
    lets every composition primitive split a fused region for free and
    the next snapshot rebuild re-fuse whatever is still legal.
    """

    fused = True

    __slots__ = ("name", "streamlet", "members", "interior", "inputs", "consumers")

    def __init__(self, members: tuple[_NodeView, ...], interior: tuple[Channel, ...]):
        head = members[0]
        self.name = head.name
        self.streamlet = head.streamlet
        self.members = members
        #: the elided channels, in hop order (len(members) - 1 of them)
        self.interior = interior
        self.inputs: tuple[tuple[str, Channel], ...] = head.inputs + tuple(
            (f"__fused{i}", channel) for i, channel in enumerate(interior)
        )
        self.consumers = members[-1].consumers
        for member, successor in zip(members, members[1:]):
            member.next_port = successor.inputs[0][0]


class TopologySnapshot:
    """An immutable, versioned view of a stream's wiring (RCU published).

    Workers read the current snapshot lock-free; reconfiguration retires
    it under the write lock, mutates, and the next reader rebuilds.  The
    version is monotonically increasing across rebuilds.
    """

    __slots__ = ("version", "epoch", "order", "nodes", "steps", "input_queues")

    def __init__(self, version: int, epoch: int, order: tuple[str, ...],
                 nodes: dict[str, "_NodeView | _FusedView"], input_queues: tuple):
        self.version = version
        self.epoch = epoch
        self.order = order
        self.nodes = nodes
        #: the views that can ever claim a message (those with an input),
        #: in processing order: what the inline pump walks, so the parked
        #: members of a fused chain cost it nothing per round
        self.steps = tuple(nodes[name] for name in order if nodes[name].inputs)
        #: every distinct input queue (for quiescence checks)
        self.input_queues = input_queues


class RuntimeStream:
    """A live composition of streamlets connected by channels."""

    def __init__(
        self,
        table: ConfigurationTable,
        manager: StreamletManager,
        *,
        pool: MessagePool | None = None,
        registry: TypeRegistry | None = None,
        clock: Clock | None = None,
        session: str | None = None,
        drop_timeout: float = 0.0,
        telemetry: Telemetry | None = None,
        fuse: bool = True,
    ):
        self.table = table
        self.name = table.stream_name
        self._manager = manager
        self.pool = pool if pool is not None else MessagePool(PassMode.REFERENCE)
        self._registry = registry if registry is not None else default_registry()
        self._clock = clock if clock is not None else WallClock()
        self.session = session
        self._drop_timeout = drop_timeout
        self.stats = StreamStats()
        #: per-stream telemetry hooks; the schedulers and channels key off
        #: ``tm.enabled`` so the null twin costs one attribute read
        self.tm = (telemetry if telemetry is not None else NULL_TELEMETRY).bind_stream(
            table.stream_name
        )
        self.tm.attach_stats(self.stats)
        #: egress pickup-delay histogram (None when telemetry is off)
        self._egress_wait_hist = self.tm.egress_wait_histogram()
        self.topology_lock = threading.RLock()

        #: the wiring as a value; the live objects below always realise it
        self._topology = Topology(table, self._registry)
        self._nodes: dict[str, _Node] = {}
        #: every live channel by name, the edge carriers included
        self._channels: dict[str, Channel] = {}
        self._started = False
        self._ended = False
        self._order_dirty = True
        self._order: list[str] = []
        #: the RCU-published topology view; None while retired (a writer is
        #: active or a mutation happened since the last publication).  Read
        #: and written as a single attribute reference — atomic under the
        #: GIL (see docs/performance.md for the memory-ordering argument)
        self._snapshot: TopologySnapshot | None = None
        self._snapshot_version = 0
        #: collapse synchronous chains into fused nodes at snapshot build
        #: time (the repro.mcl.optimize execution model); off = one node
        #: per instance, the pre-optimizer behaviour
        self._fuse = fuse
        #: the chains the last snapshot fused, for change detection
        self._fusion_sig: tuple[tuple[str, ...], ...] = ()
        self._read_gate = _ReadGate()
        self._write_depth = 0
        #: callbacks fired after a write section closes (and on resume):
        #: schedulers register here so sleeping workers re-examine the world
        self._wakeup_listeners: list = []

        self.ingress: dict[str, Channel] = {}   # "inst.port" -> channel
        self.egress: list[tuple[ast.PortRef, Channel]] = []
        self.last_reconfig: ReconfigTiming | None = None
        #: the composition version: 0 until the first committed transaction,
        #: bumped by every commit *and* every probation rollback (a rollback
        #: is itself a transition).  Rides in-band on ``Content-Session`` so
        #: the MobiGATE client swaps peers at the right message boundary.
        self.epoch = 0
        #: the ReconfigTransaction currently committing, if any: the
        #: one-transaction-at-a-time guard
        self._txn = None
        #: called as (event_name, exception) when an event-handler batch is
        #: rejected by validation or refused at commit; the Coordination
        #: Manager wires this to the Event Manager so the failure surfaces
        #: as a RECONFIG_* context event instead of unwinding the monitor
        self.escalation_hook = None
        #: called as (txn) after a successful commit; a ProbationMonitor
        #: sets this to adopt the previous topology value and the nodes the
        #: commit retired as the last-known-good record.  When unset, the
        #: retired nodes are finalised at commit time.
        self.lkg_adopter = None
        #: called as (instance_id, exception) when a streamlet's process()
        #: raises; the Coordination Manager wires this to the Event Manager
        #: ("events may be caused ... by exceptions in streamlet executions")
        self.failure_hook = None
        #: called as (instance_id, port, msg_id, exception) before the failed
        #: message is released; returning True means the handler took
        #: ownership of the pool id (e.g. a repro.faults.Supervisor retaining
        #: it for retry) and the scheduler must not release it
        self.fault_handler = None
        #: called as (msg_id, message) after a dropped message leaves the
        #: pool — the per-channel drop signal a Supervisor subscribes to so
        #: drops become inspectable instead of silent releases
        self.drop_hook = None

        # deployment is the first transition: the table's value, realised
        # from the empty topology
        self._realise(Topology.from_table(table, self._registry), ReconfigTiming())

    # -- value → live objects --------------------------------------------------------

    def _capture(self) -> Topology:
        """A private copy of the topology, stamped with what the queues hold now.

        Exact when taken inside a write section (no step is in flight);
        under the bare lock it is a best-effort reading, good for a
        validation dry-run.
        """
        working = self._topology.copy()
        for name, state in working.channels.items():
            queue = self._channels[name].queue
            working.counts[name] = len(queue)
            state.closed = queue.closed
        return working

    def _instantiate(self, name: str, definition: ast.StreamletDef, built: list) -> _Node:
        node = _Node(
            streamlet=self._manager.acquire(name, definition),
            definition=definition,
            ctx=StreamletContext(instance_id=name, session=self.session),
            hop_hist=self.tm.hop_histogram(name),
            queue_wait_hist=self.tm.queue_wait_histogram(name),
        )
        built.append(node)  # before on_start: a failed start still gets finalised
        if self._started:
            node.streamlet.activate()
            node.streamlet.on_start(node.ctx)
        return node

    def _finalize_node(self, node: _Node) -> None:
        """End and release a node that is permanently out of the topology."""
        if node.streamlet.state is not StreamletState.ENDED:
            node.streamlet.end()
            node.streamlet.on_end(node.ctx)
        self._manager.release(node.streamlet)

    def _realise(
        self, new: Topology, timing: ReconfigTiming, revive: dict[str, _Node] | None = None
    ) -> list[_Node]:
        """Make the live objects realise ``new``; returns the nodes it retired.

        The only code that touches streamlets, channels and queues for a
        change of wiring.  Caller holds a write section (the constructor
        excepted: nothing reads yet) and owns the retired nodes — finalise
        them, or keep them for a rollback.  ``revive`` offers retired node
        objects by name (a probation rollback) to use instead of new
        instances.  Instances are created first and that is the one step
        that can fail (``acquire``/``on_start``): whatever it built is
        finalised and the error propagates with nothing else changed.
        After it, in order: quiesce; create channels and bind every
        channel's ends; move queued ids to where ``contents`` says they
        now live (an original referenced nowhere is dropped *with
        accounting*, as is a re-post a full queue refuses); close retired
        channels; rebuild every node's port maps and the ingress/egress
        maps from the channel table; reactivate.  The Equation 7-1 terms are added to ``timing``.
        """
        clock = self._clock
        revive = revive if revive is not None else {}
        swapped = new.fresh | revive.keys()  # live names that get another object
        t0 = clock.now()
        arrivals: dict[str, _Node] = {}
        built: list[_Node] = []
        try:
            for name, definition in new.instances.items():
                if name in swapped or name not in self._nodes:
                    arrivals[name] = (
                        revive.get(name) or self._instantiate(name, definition, built)
                    )
        except Exception:
            for node in built:
                self._finalize_node(node)
            raise
        timing.channel_ops += clock.now() - t0

        t0 = clock.now()
        # paused by someone else while in the flow (a test, PAUSE): stay so
        held = set()
        for node in self._nodes.values():
            if node.streamlet.is_active:
                node.streamlet.pause()
            elif node.inputs or node.outputs:
                held.add(id(node))
        timing.suspend += clock.now() - t0

        t0 = clock.now()
        live = self._channels
        channels: dict[str, Channel] = {}
        ingress: dict[str, Channel] = {}
        egress: list[tuple[ast.PortRef, Channel]] = []
        for name, state in new.channels.items():
            channel = None if name in new.fresh else live.get(name)
            if channel is None:
                channel = Channel(
                    name, state.definition, drop_timeout=self._drop_timeout, telemetry=self.tm
                )
            channels[name] = channel
            channel.bind(state.source, state.sink)
            if state.definition is EDGE_CHANNEL_DEF:
                if state.source.instance == INGRESS:
                    ingress[str(state.sink)] = channel
                else:
                    egress.append((state.source, channel))
        # a live channel keeps its own ids in place only while it survives
        # with them at the head of its contents; every other original is
        # drained, and lands once, behind what its new holder kept
        dropped: list[str] = []
        in_place = {
            name for name, channel in live.items()
            if channels.get(name) is channel and new.channels[name].contents[:1] == [name]
        }
        displaced = {
            name: channel.queue.drain() for name, channel in live.items()
            if name not in in_place
        }
        for name, state in new.channels.items():
            kept = 1 if name in in_place else 0  # its own ids were never drained
            for origin in state.contents[kept:]:
                for msg_id in displaced.pop(origin, ()):
                    if not channels[name].post(msg_id, self.pool.size_of(msg_id)):
                        dropped.append(msg_id)  # refused by a full queue
        for orphaned in displaced.values():  # referenced nowhere in the new value
            dropped += orphaned
        for name, channel in live.items():
            if channels.get(name) is not channel:
                channel.bind(None, None)
                channel.queue.close()
        nodes = {name: arrivals.get(name) or self._nodes[name] for name in new.instances}
        retired = [node for name, node in self._nodes.items() if nodes.get(name) is not node]
        for name, node in nodes.items():
            node.inputs = {port: channels[c] for port, c in new.inputs[name].items()}
            node.outputs = {port: channels[c] for port, c in new.outputs[name].items()}
        # other threads read these maps lock-free: replace, never mutate
        self._nodes, self._channels = nodes, channels
        self.ingress, self.egress = ingress, egress
        new.settle()
        self._topology = new
        self._order_dirty = True
        # released last, so a drop hook sees the stream already consistent
        self._release_dropped(dropped)
        timing.channel_ops += clock.now() - t0

        t0 = clock.now()
        for node in nodes.values():
            if (
                node.streamlet.state is StreamletState.PAUSED
                and id(node) not in held
                and (node.inputs or node.outputs)
            ):
                node.streamlet.activate()
        timing.activate += clock.now() - t0
        return retired

    # -- RCU topology snapshots (see docs/performance.md) ------------------------------

    def _build_snapshot(self) -> TopologySnapshot:
        # caller holds the topology lock
        order = tuple(self.processing_order())
        views: dict[str, _NodeView] = {}
        queues: dict[int, object] = {}
        for name, node in self._nodes.items():
            consumers: dict[str, None] = {}
            for channel in node.outputs.values():
                sink = channel.sink
                if sink is not None and sink.instance in self._nodes:
                    consumers[sink.instance] = None
            views[name] = _NodeView(name, node, tuple(consumers))
            for channel in node.inputs.values():
                queues[id(channel.queue)] = channel.queue
        # legality is decided on the value, by the rule the compile-time
        # planner uses: the two can never disagree
        fusing = self._fuse and len(self._nodes) >= 2
        chains = tuple(fusable_chains(self._topology.to_table())) if fusing else ()
        for chain in chains:
            member_views = tuple(views[m] for m in chain)
            interior = tuple(
                next(iter(self._nodes[m].outputs.values())) for m in chain[:-1]
            )
            views[chain[0]] = _FusedView(member_views, interior)
            for m in chain[1:]:
                # parked: the member's worker idles (no inputs to claim, no
                # waiters to register) until a split hands its wiring back
                parked = _NodeView(m, self._nodes[m], ())
                parked.inputs = ()
                views[m] = parked
        if chains != self._fusion_sig:
            # fuse/split transitions are reconfiguration-relevant history:
            # make them visible in the flight recorder
            if self.tm.enabled:
                self.tm.recorder.record(
                    "fusion", stream=self.name,
                    groups=["+".join(c) for c in chains],
                )
            self._fusion_sig = chains
        self._snapshot_version += 1
        return TopologySnapshot(
            self._snapshot_version, self.epoch, order, views, tuple(queues.values())
        )

    def topology_snapshot(self) -> TopologySnapshot:
        """The current published view, rebuilding (under the lock) if retired.

        Mid-write callers get a fresh transient view that is *not*
        published — publication waits until the write section closes.
        """
        snap = self._snapshot
        if snap is not None:
            return snap
        with self.topology_lock:
            snap = self._snapshot
            if snap is None:
                snap = self._build_snapshot()
                if self._write_depth == 0:
                    self._snapshot = snap
        return snap

    @contextmanager
    def _write_access(self):
        """The write side of the RCU protocol.

        Retires the published snapshot, then waits for every in-flight
        reader step to finish (grace period) before yielding — so a
        mutation never races a worker mid-step, and the queue counts a
        transaction captures inside this section are exact.  Reentrant:
        nested sections only pay the grace period once.  A worker thread
        calling in from inside its own step leaves the read gate first
        (readers must not block on the topology lock) and re-registers
        before the lock is released.
        """
        gate = self._read_gate
        reader_depth = gate.leave_current()
        self.topology_lock.acquire()
        try:
            self._write_depth += 1
            if self._write_depth == 1:
                self._snapshot = None
                gate.wait_idle()
            try:
                yield
            finally:
                self._write_depth -= 1
                self._snapshot = None
        finally:
            outermost = self._write_depth == 0
            if reader_depth:
                # re-register while still holding the lock: the next writer
                # will wait for the remainder of this worker's step
                gate.restore(reader_depth)
            self.topology_lock.release()
            if outermost:
                self._notify_wakeup()

    def add_wakeup_listener(self, callback) -> None:
        """Register a callback fired after writes/resumes (scheduler wakeups)."""
        if callback not in self._wakeup_listeners:
            self._wakeup_listeners.append(callback)

    def remove_wakeup_listener(self, callback) -> None:
        """Deregister a wakeup callback (idempotent)."""
        try:
            self._wakeup_listeners.remove(callback)
        except ValueError:
            pass

    def _notify_wakeup(self) -> None:
        for callback in tuple(self._wakeup_listeners):
            callback()

    # -- lifecycle -------------------------------------------------------------------------

    def start(self) -> None:
        """Activate every streamlet and fire their on_start hooks."""
        if self._started:
            raise CompositionError(f"stream {self.name} already started")
        for node in self._nodes.values():
            node.streamlet.activate()
            node.streamlet.on_start(node.ctx)
        self._started = True

    def end(self) -> None:
        """End every streamlet, close channels, release instances (idempotent).

        Every channel — internal, ingress, *and* the egress carriers — is
        drained before it closes: ids still parked there are released from
        the pool and counted as ``end_drops``, so an ended stream holds no
        pool entries (the conservation invariant of :mod:`repro.faults`).
        """
        if self._ended:
            return
        with self._write_access():
            if self._ended:
                return
            for node in self._nodes.values():
                if node.streamlet.state is not StreamletState.ENDED:
                    node.streamlet.end()
                    node.streamlet.on_end(node.ctx)
                self._manager.release(node.streamlet)
            undelivered: list[str] = []
            for channel in self._channels.values():
                undelivered += channel.queue.drain()
                channel.queue.close()
            for msg_id in undelivered:
                if msg_id in self.pool:
                    self.pool.release(msg_id)
                    self.stats.end_drops += 1
                if self.tm.enabled:
                    self.tm.forget(msg_id)
            self._ended = True

    @property
    def started(self) -> bool:
        return self._started

    @property
    def ended(self) -> bool:
        return self._ended

    # -- node/channel accessors --------------------------------------------------------------

    def node(self, name: str) -> _Node:
        """The live node for ``name``; CompositionError if absent."""
        try:
            return self._nodes[name]
        except KeyError:
            raise CompositionError(f"no streamlet instance {name!r} in {self.name}") from None

    def channel(self, name: str) -> Channel:
        """The channel instance named ``name``; CompositionError if absent."""
        try:
            return self._channels[name]
        except KeyError:
            raise CompositionError(f"no channel instance {name!r} in {self.name}") from None

    def instance_names(self) -> list[str]:
        """Names of the live streamlet instances."""
        return list(self._nodes)

    def set_param(self, instance: str, key: str, value: object) -> None:
        """Set a streamlet operation parameter (the §8.2.1 control interface).

        "Each streamlet will have two methods to communicate with the
        external world: data ports ... and control interfaces to receive
        parameter setting information from the coordinator."  Parameters
        land in the instance's :class:`StreamletContext` and take effect
        on the next message.
        """
        self.node(instance).ctx.params[key] = value

    def get_param(self, instance: str, key: str, default: object = None) -> object:
        """Read a streamlet operation parameter (control interface)."""
        return self.node(instance).ctx.params.get(key, default)

    # -- runtime re-verification (chapter 5 "also during runtime") ---------------------

    def snapshot_table(self) -> ConfigurationTable:
        """A configuration table describing the *current* live wiring.

        Reconfigurations mutate the topology away from the compiled table;
        this snapshot lets the chapter-5 analyses re-run against reality.
        """
        with self.topology_lock:
            return self._topology.to_table()

    def verify_topology(self, *, terminal_definitions=frozenset()) -> None:
        """Re-run the chapter-5 analyses on the live topology.

        Raises the matching :class:`~repro.errors.SemanticError` if a
        reconfiguration has driven the stream into an inconsistent shape
        (feedback loop, open circuit, relation violations).
        """
        from repro.semantics import verify as _verify

        _verify(self.snapshot_table(), terminal_definitions=terminal_definitions)

    def channel_names(self) -> list[str]:
        """Names of the live channel instances (edge carriers excluded)."""
        return [
            name for name, channel in self._channels.items()
            if channel.definition is not EDGE_CHANNEL_DEF
        ]

    @property
    def snapshot_version(self) -> int:
        """The RCU topology snapshot version (bumped on every rebuild)."""
        return self._snapshot_version

    def fusion_groups(self) -> tuple[tuple[str, ...], ...]:
        """The chains the current snapshot runs fused, head first.

        Empty when fusion is disabled or no chain qualifies.  Because
        fusion is recomputed on every snapshot rebuild, this reflects any
        committed reconfiguration: splicing into a fused region splits it
        here immediately, and re-fusing shows up as soon as the spliced
        shape is legal again.
        """
        snap = self.topology_snapshot()
        groups: list[tuple[str, ...]] = []
        for name in snap.order:
            view = snap.nodes.get(name)
            if view is not None and view.fused and view.name == name:
                groups.append(tuple(m.name for m in view.members))
        return tuple(groups)

    def queue_introspect(self) -> list[dict]:
        """Depth/watermark/counters for every live channel queue.

        Covers internal channels plus the ingress/egress edge carriers, so
        the control plane's ``introspect`` verb sees the whole buffering
        picture.
        """
        rows: list[dict] = []
        with self.topology_lock:
            named = [(name, self._channels[name]) for name in self.channel_names()]
            named += [(f"ingress:{key}", ch) for key, ch in self.ingress.items()]
            named += [(f"egress:{ref}", ch) for ref, ch in self.egress]
            for name, channel in named:
                queue = channel.queue
                rows.append({
                    "channel": name,
                    "depth": len(queue),
                    "watermark": queue.watermark,
                    "capacity_bytes": queue.capacity_bytes,
                    "pending_bytes": queue.pending_bytes,
                    "posted": queue.posted,
                    "fetched": queue.fetched,
                    "dropped": queue.dropped,
                    "closed": queue.closed,
                })
        return rows

    def processing_order(self) -> list[str]:
        """Topological-ish order for the inline scheduler (cached)."""
        if not self._order_dirty:
            return self._order
        # Kahn over the current wiring; cycles fall back to insertion order
        succ: dict[str, set[str]] = {name: set() for name in self._nodes}
        indeg: dict[str, int] = dict.fromkeys(self._nodes, 0)
        for name, node in self._nodes.items():
            for channel in node.outputs.values():
                if channel.sink is not None and channel.sink.instance in self._nodes:
                    if channel.sink.instance not in succ[name]:
                        succ[name].add(channel.sink.instance)
                        indeg[channel.sink.instance] += 1
        ready = [n for n in self._nodes if indeg[n] == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for nxt in succ[name]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._nodes):  # cyclic wiring: stable fallback
            order = list(self._nodes)
        self._order = order
        self._order_dirty = False
        return order

    # -- ingress / egress ----------------------------------------------------------------------

    def post(self, message: MimeMessage, port: ast.PortRef | str | int = 0) -> str:
        """Admit a message and enqueue it on an exposed input port."""
        if isinstance(port, int):
            try:
                ref = self.table.exposed_in[port]
            except IndexError:
                raise CompositionError(
                    f"stream {self.name} has {len(self.table.exposed_in)} ingress "
                    f"port(s); index {port} is out of range"
                ) from None
            key = str(ref)
        elif isinstance(port, ast.PortRef):
            key = str(port)
        else:
            key = port
        try:
            channel = self.ingress[key]
        except KeyError:
            raise CompositionError(f"no ingress port {key!r} on stream {self.name}") from None
        msg_id, size = self.admit(message)
        if channel.post(msg_id, size):
            self.stats.inc("messages_in")
        else:
            # mirror _release_dropped: the traced-id / enqueued maps must
            # shed the id too, or sustained ingress pressure leaks them
            self._release_dropped([msg_id])
        return msg_id

    def admit(self, message: MimeMessage) -> tuple[str, int]:
        """Take a message into the stream's custody; returns ``(msg_id, size)``.

        The one admission routine — :meth:`post`, :meth:`shed` and the
        gateway's non-blocking offer all come through here: stamp the
        session if the message names none, stamp the epoch it is admitted
        under, sample it into a trace, size it (after the last stamp, so
        the size is the one every later post of an untouched envelope
        reads back off the header memo) and pool it.  Queueing the id is
        the caller's business.
        """
        headers = message.headers
        if self.session is not None and headers.session is None:
            headers.session = self.session
        if self.epoch:
            # stamp the composition version the message is admitted under;
            # pre-reconfiguration streams (epoch 0) keep the legacy wire form
            headers.set_epoch(self.epoch)
        traced = self.tm.enabled and self.tm.admit(message)  # sampled trace
        size = message.total_size()
        msg_id = self.pool.admit(message)
        if traced:
            self.tm.mark_traced(msg_id)  # before any post: channels probe this
        return msg_id, size

    def shed(self, message: MimeMessage) -> str:
        """Admit-and-drop: book a refused message into the ledger as a drop.

        The gateway's backpressure path needs a way to reject a message
        *after* it arrived (its park budget expired) without unbalancing
        the conservation invariant: the id is admitted to the pool (so
        ``admitted`` counts it) and immediately released through the
        normal drop path (so it lands in ``queue_drops``, fires the
        ``drop_hook``, and leaves no residue).  Returns the short-lived
        pool id.
        """
        msg_id, _size = self.admit(message)
        if self.tm.enabled:
            self.tm.recorder.record("shed", stream=self.name, msg_id=msg_id)
        self._release_dropped([msg_id])
        return msg_id

    def collect(self) -> list[MimeMessage]:
        """Drain every egress channel; returns delivered messages in order."""
        out: list[MimeMessage] = []
        tm = self.tm if self.tm.enabled else None
        egress_hist = self._egress_wait_hist
        try:
            for _ref, channel in self.egress:
                while True:
                    msg_id = channel.fetch(0.0)
                    if msg_id is None:
                        break
                    if egress_hist is not None:
                        # how long the finished message sat on the egress
                        # carrier before this drain picked it up
                        posted_at = channel.queue.last_post_at
                        if posted_at is not None:
                            egress_hist.observe(time.perf_counter() - posted_at)
                    out.append(self.pool.release(msg_id))
                    if tm is not None:
                        tm.forget(msg_id)
        finally:
            if out:  # one stats lock per drain, whatever ended it
                self.stats.inc("messages_out", len(out))
        return out

    # -- composition primitives (Figure 6-4) ---------------------------------------------------------

    def _step(self, action, **how) -> ReconfigTiming:
        """One primitive: fold ``action`` over a capture, then realise the result.

        The fold decides; a refusal raises with the live stream untouched.
        Nodes the step retires are finalised at once (a bare primitive has
        no rollback to keep them for).
        """
        with self._write_access():
            timing = ReconfigTiming(actions=1)
            t0 = self._clock.now()
            new = self._capture()
            apply(new, action, **how)
            timing.channel_ops += self._clock.now() - t0
            for node in self._realise(new, timing):
                self._finalize_node(node)
            return timing

    def new_streamlet(self, name: str, definition_name: str) -> None:
        """Instantiate a (dormant) streamlet from a known definition."""
        self._step(ast.NewInstances("streamlet", (name,), definition_name))

    def new_channel(self, name: str, definition_name: str) -> None:
        """Instantiate a channel from a definition known to the table."""
        self._step(ast.NewInstances("channel", (name,), definition_name))

    def connect(
        self,
        source: ast.PortRef | str,
        sink: ast.PortRef | str,
        channel_name: str | None = None,
    ) -> None:
        """Wire source → (channel) → sink, with 4.4.1 type checks."""
        self._step(ast.Connect(_as_ref(source), _as_ref(sink), channel_name))

    def disconnect(self, source: ast.PortRef | str, sink: ast.PortRef | str) -> None:
        """Break one link; category semantics decide pending units' fate."""
        self._step(ast.Disconnect(_as_ref(source), _as_ref(sink)))

    def disconnect_all(self, instance: str) -> None:
        """Break every non-edge link of an instance."""
        self._step(ast.DisconnectAll(instance))

    def insert(
        self,
        source: ast.PortRef | str,
        sink: ast.PortRef | str,
        instance: str,
    ) -> ReconfigTiming:
        """Splice ``instance`` into the link source→sink (Figure 7-4).

        The inserted streamlet must be dormant and have exactly one input
        and one output port.  The existing channel keeps feeding the sink
        (its pending units survive, as BK semantics promise); a fresh
        channel joins the source to the newcomer.
        """
        return self._step(ast.Insert(_as_ref(source), _as_ref(sink), instance))

    def remove_streamlet(self, name: str, *, heal: bool = True, force: bool = False) -> None:
        """Remove an instance, honouring the Figure 6-8 prerequisites.

        With ``heal`` (default), a single-in/single-out streamlet's
        neighbours are re-joined through the downstream channel so the
        flow survives.  Without ``force``, pending input traffic aborts
        the removal (message loss avoidance, section 6.6); with it, what
        an edge carrier of the instance still holds is dropped with
        accounting.
        """
        self._step(ast.RemoveInstance("streamlet", name), heal=heal, force=force)

    def extract_streamlet(self, name: str, *, force: bool = False) -> None:
        """Detach an instance from the topology but keep it dormant.

        The MCL ``remove`` primitive: the streamlet is unwired (healing
        single-in/single-out chains like :meth:`remove_streamlet`) and
        left paused, ready to be spliced back by a later ``insert``.
        """
        self._step(ast.RemoveInstance("extract", name), force=force)

    def replace(self, old: str, new: str) -> None:
        """Swap ``old`` for the dormant instance ``new``, keeping the wiring.

        Port names must match; ``old`` is removed.
        """
        self._step(ast.Replace(old, new))

    def remove_channel(self, name: str) -> None:
        """Destroy an unused channel instance."""
        self._step(ast.RemoveInstance("channel", name))

    def _release_dropped(self, msg_ids: list[str]) -> None:
        for msg_id in msg_ids:
            if msg_id in self.pool:
                message = self.pool.release(msg_id)
                if self.drop_hook is not None:
                    self.drop_hook(msg_id, message)
            if self.tm.enabled:
                self.tm.forget(msg_id)
                self.tm.recorder.record("drop", stream=self.name, msg_id=msg_id)
            self.stats.inc("queue_drops")

    # -- event-driven reconfiguration (section 6.4 / 7.4) ---------------------------------------------------

    def on_event(self, event: ContextEvent) -> ReconfigTiming | None:
        """React to a context event.

        System Command events (Table 6-1) get built-in behaviour — PAUSE
        suspends every streamlet, RESUME reactivates them, END tears the
        stream down — *after* any custom handler the script declares for
        them.  Other events only run their compiled ``when`` handler.
        """
        timing: ReconfigTiming | None = None
        actions = self.table.handlers.get(event.event_id)
        if actions is not None:
            timing = self._handle_actions(event.event_id, actions)
            if timing is not None:
                self.stats.events_handled += 1
                self.last_reconfig = timing
        if event.event_id == "PAUSE":
            self.pause_all()
        elif event.event_id == "RESUME":
            self.resume_all()
        elif event.event_id == "END":
            self.end()
        return timing

    def pause_all(self) -> None:
        """Suspend every active streamlet (the PAUSE system command).

        Runs in a write section so the pause lands at a step boundary for
        every worker (no streamlet observes PAUSED mid-process).
        """
        with self._write_access():
            for node in self._nodes.values():
                if node.streamlet.is_active:
                    node.streamlet.pause()

    def resume_all(self) -> None:
        """Reactivate every paused streamlet (the RESUME system command)."""
        with self.topology_lock:
            for node in self._nodes.values():
                if node.streamlet.state is StreamletState.PAUSED:
                    node.streamlet.activate()
        # sleeping workers have no queue post to wake them: tell schedulers
        self._notify_wakeup()

    def _handle_actions(self, event_id: str, actions) -> ReconfigTiming | None:
        """Run a ``when`` handler's action batch as one transaction.

        The batch is folded over a capture of the topology value and the
        result analysed before anything live changes, so a batch that
        cannot be applied leaves the stream as it was.  When an
        ``escalation_hook`` is wired (the Coordination Manager routes it
        into the Event Manager) a rejected or rolled-back batch surfaces
        as a ``RECONFIG_REJECTED`` / ``RECONFIG_ROLLED_BACK`` context
        event and this method returns None; without a hook the error
        propagates to the caller.
        """
        from repro.runtime.reconfig import ReconfigTransaction  # lazy: cyclic import

        txn = ReconfigTransaction(self, actions, label=event_id)
        span = self.tm.reconfig_begin(event_id) if self.tm.enabled else None
        try:
            timing = txn.execute()
        except ReconfigValidationError as exc:
            if self.escalation_hook is not None:
                self.escalation_hook("RECONFIG_REJECTED", exc)
                return None
            raise
        except ReconfigAbortedError as exc:
            if self.escalation_hook is not None:
                self.escalation_hook("RECONFIG_ROLLED_BACK", exc)
                return None
            raise
        if span is not None:
            self.tm.reconfig_end(span, event_id, timing)
        return timing


def _as_ref(ref: ast.PortRef | str) -> ast.PortRef:
    if isinstance(ref, ast.PortRef):
        return ref
    instance, _, port = ref.partition(".")
    if not port:
        raise CompositionError(f"bad port reference {ref!r}; expected 'instance.port'")
    return ast.PortRef(instance, port)
