"""RuntimeStream — a deployed stream application (section 6.3).

Built by the Coordination Manager from a compiled configuration table, a
RuntimeStream owns:

* one executable :class:`~repro.runtime.streamlet.Streamlet` per instance
  (drawn from the Streamlet Manager, pooled when stateless),
* one :class:`~repro.runtime.channel.Channel` per link, plus ingress/
  egress channels on the exposed ports,
* the **composition primitives** of Figure 6-4 — ``connect``,
  ``disconnect``, ``insert``, ``remove``, ``replace`` — used both by the
  initial deployment and by ``on_event`` reconfiguration handlers,
* the Equation 7-1 reconfiguration timing:
  ``T = Σ suspend + n·channel-ops + Σ activate``.

Message loss avoidance (section 6.6): the Figure 6-8 prerequisites are
checked before a streamlet is detached — it must be paused, its input
channels drained, and no message mid-flight — unless the caller forces.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import (
    CompositionError,
    ReconfigAbortedError,
    ReconfigurationError,
    ReconfigValidationError,
)
from repro.events import ContextEvent
from repro.mcl import astnodes as ast
from repro.mcl.compiler import DEFAULT_CHANNEL_DEF
from repro.mcl.config import ConfigurationTable
from repro.mcl.typecheck import check_connection
from repro.mime.message import MimeMessage
from repro.mime.registry import TypeRegistry, default_registry
from repro.runtime.channel import Channel
from repro.runtime.message_pool import MessagePool, PassMode
from repro.runtime.streamlet import Streamlet, StreamletContext, StreamletState
from repro.runtime.streamlet_manager import StreamletManager
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.clock import Clock, WallClock

_INGRESS = "__ingress__"
_EGRESS = "__egress__"

#: ingress/egress carriers: effectively unbounded so the harness never drops
_EDGE_CHANNEL_DEF = ast.ChannelDef(
    name="__edge",
    in_port=ast.PortDecl(ast.PortDirection.IN, "cin", DEFAULT_CHANNEL_DEF.in_port.mediatype),
    out_port=ast.PortDecl(ast.PortDirection.OUT, "cout", DEFAULT_CHANNEL_DEF.out_port.mediatype),
    sync=ast.ChannelSync.ASYNC,
    category=ast.ChannelCategory.BK,
    buffer_kb=1 << 20,
    description="runtime edge channel",
)


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

    def merge(self, other: "ReconfigTiming") -> None:
        """Accumulate another timing into this one."""
        self.suspend += other.suspend
        self.channel_ops += other.channel_ops
        self.activate += other.activate
        self.actions += other.actions


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

        self._nodes: dict[str, _Node] = {}
        self._channels: dict[str, Channel] = {}
        self._auto_counter = 0
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
        #: the ReconfigTransaction currently in its apply phase, if any;
        #: primitives consult it to defer irreversible effects (message
        #: drops, instance finalisation) until the commit is decided
        self._txn = None
        #: called as (event_name, exception) when an event-handler batch is
        #: rejected by validation or rolled back mid-apply; the Coordination
        #: Manager wires this to the Event Manager so the failure surfaces
        #: as a RECONFIG_* context event instead of unwinding the monitor
        self.escalation_hook = None
        #: called as (txn) after a successful commit; a ProbationMonitor
        #: sets this to adopt the undo log as the last-known-good record.
        #: When unset, deferred removals are finalised at commit time.
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

        self._deploy()

    # -- deployment -------------------------------------------------------------------

    def _deploy(self) -> None:
        for name, definition in self.table.instances.items():
            self._create_node(name, definition)
        for name, entry in self.table.channels.items():
            self._channels[name] = Channel(
                name, entry.definition, drop_timeout=self._drop_timeout, telemetry=self.tm
            )
        for link in self.table.links:
            self._wire(link.source, link.sink, self._channels[link.channel])
        for index, ref in enumerate(self.table.exposed_in):
            channel = Channel(
                f"__in{index}", _EDGE_CHANNEL_DEF,
                drop_timeout=self._drop_timeout, telemetry=self.tm,
            )
            channel.attach_source(ast.PortRef(_INGRESS, f"i{index}"))
            channel.attach_sink(ref)
            self._nodes[ref.instance].inputs[ref.port] = channel
            self.ingress[str(ref)] = channel
        for index, ref in enumerate(self.table.exposed_out):
            channel = Channel(
                f"__out{index}", _EDGE_CHANNEL_DEF,
                drop_timeout=self._drop_timeout, telemetry=self.tm,
            )
            channel.attach_source(ref)
            channel.attach_sink(ast.PortRef(_EGRESS, f"o{index}"))
            self._nodes[ref.instance].outputs[ref.port] = channel
            self.egress.append((ref, channel))

    def _create_node(self, name: str, definition: ast.StreamletDef) -> _Node:
        streamlet = self._manager.acquire(name, definition)
        ctx = StreamletContext(instance_id=name, session=self.session)
        node = _Node(
            streamlet=streamlet,
            definition=definition,
            ctx=ctx,
            hop_hist=self.tm.hop_histogram(name),
            queue_wait_hist=self.tm.queue_wait_histogram(name),
        )
        self._nodes[name] = node
        self._invalidate_topology()
        return node

    def _wire(self, source: ast.PortRef, sink: ast.PortRef, channel: Channel) -> None:
        channel.attach_source(source)
        channel.attach_sink(sink)
        self._nodes[source.instance].outputs[source.port] = channel
        self._nodes[sink.instance].inputs[sink.port] = channel
        self._invalidate_topology()

    # -- RCU topology snapshots (see docs/performance.md) ------------------------------

    def _invalidate_topology(self) -> None:
        """Mark the wiring changed: retire the snapshot, dirty the order."""
        self._order_dirty = True
        self._snapshot = None

    def _fusion_chains(self) -> list[tuple[str, ...]]:
        """Maximal fusable chains of the *live* wiring (caller holds the lock).

        The same legality as :func:`repro.semantics.fusion.fusable_chains`,
        read off the runtime graph instead of the compiled table: an edge
        fuses when its channel is synchronous, the producer's only output
        feeds it, the consumer's only input is it, neither endpoint is an
        optional (extractable) member, no feedback loop closes through it,
        and no mutual exclusion holds inside the resulting chain.
        """
        from repro.semantics import fusion

        if not self._fuse or len(self._nodes) < 2:
            return []
        barred = fusion.optional_instances(self.table.handlers)
        successors: dict[str, str] = {}
        for name, node in self._nodes.items():
            if name in barred or len(node.outputs) != 1:
                continue
            channel = next(iter(node.outputs.values()))
            if not fusion.is_synchronous(channel.definition):
                continue
            sink = channel.sink
            if sink is None or sink.instance not in self._nodes or sink.instance in barred:
                continue
            if len(self._nodes[sink.instance].inputs) != 1:
                continue
            successors[name] = sink.instance
        if not successors:
            return []
        definitions = {name: node.definition for name, node in self._nodes.items()}
        chains: list[tuple[str, ...]] = []
        for chain in fusion.chain_edges(successors, self._nodes):
            accepted: list[str] = []
            for member in chain:
                if accepted and fusion.exclusion_conflict(definitions, accepted, member):
                    if len(accepted) >= 2:
                        chains.append(tuple(accepted))
                    accepted = []
                accepted.append(member)
            if len(accepted) >= 2:
                chains.append(tuple(accepted))
        return chains

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
        chains = tuple(self._fusion_chains())
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

        Mid-write callers (a primitive nested inside a transaction) get a
        fresh transient view that is *not* published — publication waits
        until the write section closes.
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
        mutation never races a worker mid-step, and the undo log a
        transaction captures inside this section is exact.  Reentrant:
        nested sections (a transaction applying primitives) only pay the
        grace period once.  A worker thread calling in from inside its own
        step leaves the read gate first (readers must not block on the
        topology lock) and re-registers before the lock is released.
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

        Every channel — internal, ingress, *and* the egress carriers built
        by :meth:`_deploy` — is drained before it closes: ids still parked
        there are released from the pool and counted as ``end_drops``, so
        an ended stream holds no pool entries (the conservation invariant
        of :mod:`repro.faults`).
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
            for channel in self.ingress.values():
                undelivered += channel.queue.drain()
                channel.queue.close()
            for _ref, channel in self.egress:
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
        from repro.mcl.config import ChannelEntry, Link

        channels: dict[str, ChannelEntry] = {}
        links: list[Link] = []
        exposed_in: list[ast.PortRef] = []
        exposed_out: list[ast.PortRef] = []
        with self.topology_lock:
            for name, node in self._nodes.items():
                for port, channel in node.outputs.items():
                    if channel.sink is None:
                        continue
                    if channel.sink.instance == _EGRESS:
                        exposed_out.append(ast.PortRef(name, port))
                        continue
                    channels[channel.name] = ChannelEntry(
                        name=channel.name, definition=channel.definition,
                        auto=channel.name.startswith("__"),
                    )
                    decl = node.definition.port(port)
                    links.append(Link(
                        source=ast.PortRef(name, port),
                        sink=channel.sink,
                        channel=channel.name,
                        mediatype=decl.mediatype if decl else None,  # type: ignore[arg-type]
                    ))
                for port, channel in node.inputs.items():
                    if channel.source is not None and channel.source.instance == _INGRESS:
                        exposed_in.append(ast.PortRef(name, port))
            return ConfigurationTable(
                stream_name=self.name,
                instances={name: node.definition for name, node in self._nodes.items()},
                channels=channels,
                links=links,
                handlers=dict(self.table.handlers),
                exposed_in=tuple(exposed_in),
                exposed_out=tuple(exposed_out),
                streamlet_defs=dict(self.table.streamlet_defs),
                channel_defs=dict(self.table.channel_defs),
            )

    def verify_topology(self, *, terminal_definitions=frozenset()) -> None:
        """Re-run the chapter-5 analyses on the live topology.

        Raises the matching :class:`~repro.errors.SemanticError` if a
        reconfiguration has driven the stream into an inconsistent shape
        (feedback loop, open circuit, relation violations).
        """
        from repro.semantics import verify as _verify

        _verify(self.snapshot_table(), terminal_definitions=terminal_definitions)

    def channel_names(self) -> list[str]:
        """Names of the live channel instances."""
        return list(self._channels)

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

        Covers internal channels plus the ingress/egress edge carriers
        (deduplicated by queue identity), so the control plane's
        ``introspect`` verb sees the whole buffering picture.
        """
        rows: list[dict] = []
        with self.topology_lock:
            named: list[tuple[str, Channel]] = list(self._channels.items())
            named += [(f"ingress:{key}", ch) for key, ch in self.ingress.items()]
            named += [(f"egress:{ref}", ch) for ref, ch in self.egress]
            seen: set[int] = set()
            for name, channel in named:
                queue = channel.queue
                if id(queue) in seen:
                    continue
                seen.add(id(queue))
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

    def new_streamlet(self, name: str, definition_name: str) -> None:
        """Instantiate a (dormant) streamlet from a known definition."""
        with self._write_access():
            if name in self._nodes or name in self._channels:
                raise CompositionError(f"instance name {name!r} already in use")
            definition = self.table.streamlet_defs.get(definition_name)
            if definition is None:
                raise CompositionError(f"unknown streamlet definition {definition_name!r}")
            node = self._create_node(name, definition)
            if self._started:
                node.streamlet.activate()
                node.streamlet.on_start(node.ctx)

    def new_channel(self, name: str, definition_name: str) -> None:
        """Instantiate a channel from a definition known to the table."""
        with self._write_access():
            if name in self._channels or name in self._nodes:
                raise CompositionError(f"instance name {name!r} already in use")
            definition = self.table.channel_defs.get(definition_name)
            if definition is None:
                raise CompositionError(f"unknown channel definition {definition_name!r}")
            self._channels[name] = Channel(
                name, definition, drop_timeout=self._drop_timeout, telemetry=self.tm
            )

    def _auto_channel(self) -> Channel:
        name = f"__rt_auto{self._auto_counter}"
        self._auto_counter += 1
        channel = Channel(
            name, DEFAULT_CHANNEL_DEF, drop_timeout=self._drop_timeout, telemetry=self.tm
        )
        self._channels[name] = channel
        return channel

    def connect(
        self,
        source: ast.PortRef | str,
        sink: ast.PortRef | str,
        channel_name: str | None = None,
    ) -> None:
        """Wire source → (channel) → sink, with 4.4.1 type checks."""
        with self._write_access():
            source = _as_ref(source)
            sink = _as_ref(sink)
            src_node = self.node(source.instance)
            dst_node = self.node(sink.instance)
            if channel_name is not None:
                channel = self.channel(channel_name)
                if channel.source is not None or channel.sink is not None:
                    raise CompositionError(
                        f"channel {channel_name!r} already carries a connection"
                    )
            else:
                channel = self._auto_channel()
            check_connection(
                self._registry,
                src_node.definition,
                source,
                dst_node.definition,
                sink,
                channel.definition,
            )
            if source.port in src_node.outputs:
                raise CompositionError(f"port {source} is already connected")
            if sink.port in dst_node.inputs:
                raise CompositionError(f"port {sink} is already connected")
            self._wire(source, sink, channel)

    def disconnect(self, source: ast.PortRef | str, sink: ast.PortRef | str) -> None:
        """Break one link; category semantics decide pending units' fate."""
        with self._write_access():
            source = _as_ref(source)
            sink = _as_ref(sink)
            src_node = self.node(source.instance)
            dst_node = self.node(sink.instance)
            channel = src_node.outputs.get(source.port)
            if channel is None or channel.sink != sink:
                raise CompositionError(f"no connection between {source} and {sink}")
            dropped = channel.detach_source()
            if channel.sink is not None:
                dropped += channel.detach_sink()
            self._release_dropped(dropped)
            del src_node.outputs[source.port]
            dst_node.inputs.pop(sink.port, None)
            self._forget_channel(channel)
            self._invalidate_topology()

    def disconnect_all(self, instance: str) -> None:
        """Break every non-edge link of an instance."""
        with self._write_access():
            node = self.node(instance)
            for port, channel in list(node.outputs.items()):
                if channel.sink is not None and channel.sink.instance != _EGRESS:
                    self.disconnect(ast.PortRef(instance, port), channel.sink)
            for port, channel in list(node.inputs.items()):
                if channel.source is not None and channel.source.instance != _INGRESS:
                    self.disconnect(channel.source, ast.PortRef(instance, port))

    def insert(
        self,
        source: ast.PortRef | str,
        sink: ast.PortRef | str,
        instance: str,
    ) -> ReconfigTiming:
        """Splice ``instance`` into the link source→sink (Figure 7-4).

        The inserted streamlet must have exactly one input and one output
        port.  The existing channel keeps feeding the sink (its pending
        units survive, as BK semantics promise); a fresh channel joins the
        source to the newcomer.
        """
        with self._write_access():
            source = _as_ref(source)
            sink = _as_ref(sink)
            timing = ReconfigTiming(actions=1)
            src_node = self.node(source.instance)
            dst_node = self.node(sink.instance)
            new_node = self.node(instance)
            ins = new_node.definition.inputs()
            outs = new_node.definition.outputs()
            if len(ins) != 1 or len(outs) != 1:
                raise ReconfigurationError(
                    f"insert target {instance} must have exactly one in and one out port"
                )
            channel = src_node.outputs.get(source.port)
            if channel is None or channel.sink != sink:
                raise ReconfigurationError(f"no connection between {source} and {sink}")

            # 1-2) suspend the producer and detach it from channel m
            t0 = self._clock.now()
            was_active = src_node.streamlet.is_active
            if was_active:
                src_node.streamlet.pause()
            timing.suspend += self._clock.now() - t0

            t0 = self._clock.now()
            dropped = channel.detach_source()
            if channel.sink is None:  # BB/KB semantics broke the sink side too
                channel.attach_sink(sink)
            self._release_dropped(dropped)
            del src_node.outputs[source.port]
            # 3) attach the newcomer's output to channel m
            new_out = ast.PortRef(instance, outs[0].name)
            check_connection(
                self._registry, new_node.definition, new_out,
                dst_node.definition, sink, channel.definition,
            )
            channel.attach_source(new_out)
            new_node.outputs[outs[0].name] = channel
            # 4) create channel n between the producer and the newcomer
            new_in = ast.PortRef(instance, ins[0].name)
            fresh = self._auto_channel()
            check_connection(
                self._registry, src_node.definition, source,
                new_node.definition, new_in, fresh.definition,
            )
            fresh.attach_source(source)
            fresh.attach_sink(new_in)
            src_node.outputs[source.port] = fresh
            new_node.inputs[ins[0].name] = fresh
            timing.channel_ops += self._clock.now() - t0

            # 5) make sure the newcomer runs, 6) resume the producer
            t0 = self._clock.now()
            if self._started:
                if new_node.streamlet.state is StreamletState.CREATED:
                    new_node.streamlet.activate()
                    new_node.streamlet.on_start(new_node.ctx)
                elif new_node.streamlet.state is StreamletState.PAUSED:
                    new_node.streamlet.activate()  # re-inserted after an extract
            if was_active:
                src_node.streamlet.activate()
            timing.activate += self._clock.now() - t0
            self._invalidate_topology()
            return timing

    def remove_streamlet(self, name: str, *, heal: bool = True, force: bool = False) -> None:
        """Remove an instance, honouring the Figure 6-8 prerequisites.

        With ``heal`` (default), a single-in/single-out streamlet's
        neighbours are re-joined through the upstream channel so the flow
        survives.  Without ``force``, pending input traffic aborts the
        removal (message loss avoidance, section 6.6).
        """
        with self._write_access():
            node = self.node(name)
            if not force:
                waiting = [
                    ch.name for ch in node.inputs.values() if not ch.queue.is_empty()
                ]
                if waiting:
                    raise ReconfigurationError(
                        f"cannot remove {name}: input channel(s) {waiting} still hold "
                        "messages (drain the stream first or pass force=True)"
                    )
            if not (heal and self._heal_around(node)):
                self.disconnect_all(name)
            # drop edge (ingress/egress) attachments, releasing stuck messages
            for channel in list(node.inputs.values()) + list(node.outputs.values()):
                self._release_dropped(channel.queue.drain())
                channel.queue.close()
            if self._txn is not None:
                # end()/release() cannot be undone; park the node in the
                # transaction's limbo list until the commit is decided
                self._txn.defer_removal(node)
            else:
                if node.streamlet.state is not StreamletState.ENDED:
                    node.streamlet.end()
                    node.streamlet.on_end(node.ctx)
                self._manager.release(node.streamlet)
            del self._nodes[name]
            self.ingress = {k: v for k, v in self.ingress.items() if not k.startswith(name + ".")}
            self.egress = [(r, c) for r, c in self.egress if r.instance != name]
            self._invalidate_topology()

    def extract_streamlet(self, name: str, *, force: bool = False) -> None:
        """Detach an instance from the topology but keep it dormant.

        The MCL ``remove`` primitive: the streamlet is paused and unwired
        (healing single-in/single-out chains like :meth:`remove_streamlet`),
        ready to be spliced back by a later ``insert``.
        """
        with self._write_access():
            node = self.node(name)
            if not force:
                waiting = [ch.name for ch in node.inputs.values() if not ch.queue.is_empty()]
                if waiting:
                    raise ReconfigurationError(
                        f"cannot extract {name}: input channel(s) {waiting} still hold "
                        "messages (drain the stream first or pass force=True)"
                    )
            if not self._heal_around(node):
                self.disconnect_all(name)
            if node.streamlet.is_active:
                node.streamlet.pause()
            self._invalidate_topology()

    def _heal_around(self, node: _Node) -> bool:
        """Join a single-in/single-out node's neighbours around it.

        The predecessor inherits the *downstream* channel so messages the
        node already emitted stay ahead of messages it never saw (message-
        loss avoidance); the upstream channel's pending units are re-posted
        behind them.  Returns False when the wiring shape does not allow a
        heal (caller falls back to plain disconnection).
        """
        in_links = [
            (port, ch) for port, ch in node.inputs.items()
            if ch.source is not None and ch.source.instance != _INGRESS
        ]
        out_links = [
            (port, ch) for port, ch in node.outputs.items()
            if ch.sink is not None and ch.sink.instance != _EGRESS
        ]
        if len(in_links) != 1 or len(out_links) != 1:
            return False
        (_, upstream), (_, downstream) = in_links[0], out_links[0]
        predecessor = upstream.source
        pred_node = self.node(predecessor.instance)
        pending = upstream.queue.drain()
        upstream.queue.close()
        self._forget_channel(upstream)
        downstream.reattach_source(predecessor)
        pred_node.outputs[predecessor.port] = downstream
        for msg_id in pending:
            if not downstream.post(msg_id, self.pool.size_of(msg_id)):
                self._release_dropped([msg_id])
        node.inputs.clear()
        node.outputs.clear()
        return True

    def replace(self, old: str, new: str) -> None:
        """Swap ``old`` for the dormant instance ``new``, keeping the wiring.

        Port names must match; types are re-checked against each attached
        channel's counterpart.
        """
        with self._write_access():
            old_node = self.node(old)
            new_node = self.node(new)
            if new_node.inputs or new_node.outputs:
                raise ReconfigurationError(f"replacement {new!r} is already wired")
            for port, channel in old_node.inputs.items():
                decl = new_node.definition.port(port)
                if decl is None or decl.direction is not ast.PortDirection.IN:
                    raise ReconfigurationError(
                        f"replacement {new!r} lacks input port {port!r} of {old!r}"
                    )
            for port, channel in old_node.outputs.items():
                decl = new_node.definition.port(port)
                if decl is None or decl.direction is not ast.PortDirection.OUT:
                    raise ReconfigurationError(
                        f"replacement {new!r} lacks output port {port!r} of {old!r}"
                    )
            for port, channel in list(old_node.inputs.items()):
                channel.reattach_sink(ast.PortRef(new, port))
                new_node.inputs[port] = channel
                if channel.source is not None and channel.source.instance == _INGRESS:
                    # keep the ingress map addressing the new instance
                    for key, chan in list(self.ingress.items()):
                        if chan is channel:
                            del self.ingress[key]
                            self.ingress[str(ast.PortRef(new, port))] = channel
            for port, channel in list(old_node.outputs.items()):
                channel.reattach_source(ast.PortRef(new, port))
                new_node.outputs[port] = channel
                if channel.sink is not None and channel.sink.instance == _EGRESS:
                    self.egress = [
                        (ast.PortRef(new, port), c) if c is channel else (r, c)
                        for r, c in self.egress
                    ]
            old_node.inputs.clear()
            old_node.outputs.clear()
            if self._started and new_node.streamlet.state is StreamletState.CREATED:
                new_node.streamlet.activate()
                new_node.streamlet.on_start(new_node.ctx)
            self.remove_streamlet(old, heal=False, force=True)

    def remove_channel(self, name: str) -> None:
        """Destroy an unused channel instance."""
        with self._write_access():
            channel = self.channel(name)
            if channel.source is not None or channel.sink is not None:
                raise CompositionError(f"channel {name!r} still carries a connection")
            del self._channels[name]

    def _forget_channel(self, channel: Channel) -> None:
        if channel.name in self._channels and channel.name.startswith("__"):
            del self._channels[channel.name]

    def _release_dropped(self, msg_ids: list[str]) -> None:
        if self._txn is not None:
            # mid-transaction drops are provisional: a rollback puts the ids
            # back on their queues, so releasing (and counting) them now
            # would lose messages the undo log is about to resurrect
            self._txn.defer_drops(msg_ids)
            return
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

        The batch is dry-run against a shadow topology, then committed
        under quiescence with automatic rollback — a failure mid-apply no
        longer leaves the stream half-rewired.  When an
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

    def _execute_actions(self, actions) -> ReconfigTiming:
        timing = ReconfigTiming()
        for action in actions:
            if isinstance(action, ast.NewInstances):
                t0 = self._clock.now()
                for name in action.names:
                    if action.kind == "channel":
                        self.new_channel(name, action.definition)
                    else:
                        self.new_streamlet(name, action.definition)
                timing.channel_ops += self._clock.now() - t0
                timing.actions += 1
            elif isinstance(action, ast.Connect):
                timing.merge(self._timed_rewire(
                    lambda a=action: self.connect(a.source, a.sink, a.channel),
                    suspend=[action.source.instance],
                ))
            elif isinstance(action, ast.Disconnect):
                timing.merge(self._timed_rewire(
                    lambda a=action: self.disconnect(a.source, a.sink),
                    suspend=[action.source.instance],
                ))
            elif isinstance(action, ast.DisconnectAll):
                timing.merge(self._timed_rewire(
                    lambda a=action: self.disconnect_all(a.instance),
                    suspend=[action.instance],
                ))
            elif isinstance(action, ast.Insert):
                timing.merge(self.insert(action.source, action.sink, action.instance))
            elif isinstance(action, ast.Replace):
                timing.merge(self._timed_rewire(
                    lambda a=action: self.replace(a.old, a.new), suspend=[],
                ))
            elif isinstance(action, ast.RemoveInstance):
                if action.kind == "channel":
                    operation = lambda a=action: self.remove_channel(a.name)  # noqa: E731
                elif action.kind == "extract":
                    operation = lambda a=action: self.extract_streamlet(a.name)  # noqa: E731
                else:
                    operation = lambda a=action: self.remove_streamlet(a.name)  # noqa: E731
                timing.merge(self._timed_rewire(operation, suspend=[]))
            else:  # pragma: no cover - compiler validates handler content
                raise ReconfigurationError(f"illegal handler action {action!r}")
        return timing

    def _timed_rewire(self, operation, suspend: list[str]) -> ReconfigTiming:
        """Suspend affected producers, run the wiring op, resume (Eq 7-1)."""
        timing = ReconfigTiming(actions=1)
        resumable: list[_Node] = []
        t0 = self._clock.now()
        for name in suspend:
            node = self._nodes.get(name)
            if node is not None and node.streamlet.is_active:
                node.streamlet.pause()
                resumable.append(node)
        timing.suspend += self._clock.now() - t0
        t0 = self._clock.now()
        try:
            operation()
        except BaseException:
            # do NOT resume: the wiring op failed, so traffic must stay
            # suspended until the enclosing transaction finishes rolling
            # the topology back (the undo log restores streamlet states)
            timing.channel_ops += self._clock.now() - t0
            raise
        timing.channel_ops += self._clock.now() - t0
        t0 = self._clock.now()
        for node in resumable:
            if node.streamlet.state is StreamletState.PAUSED:
                node.streamlet.activate()
        timing.activate += self._clock.now() - t0
        return timing


def _as_ref(ref: ast.PortRef | str) -> ast.PortRef:
    if isinstance(ref, ast.PortRef):
        return ref
    instance, _, port = ref.partition(".")
    if not port:
        raise CompositionError(f"bad port reference {ref!r}; expected 'instance.port'")
    return ast.PortRef(instance, port)
