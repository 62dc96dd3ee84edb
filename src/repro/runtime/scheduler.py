"""The execution engine of the Streamlet Execution Plane (section 3.3.4).

:class:`InlineScheduler` drives a :class:`~repro.runtime.stream.RuntimeStream`
deterministically: a dirty-node worklist walked in (topological)
processing order, moving up to one batch per input port per visit.  It
is the reference interpreter and the only engine.  The gateway runs it
on the egress pump: a composition of cooperative streamlets is stepped
on the event loop, any other on the pump's executor, one share at a
time per session (``docs/gateway.md``, "Engine selection").  Only the
thread that runs the pump changes; the paper's thread per streamlet
(section 7.4) is replaced by that executor (DESIGN.md, Substitutions).

The engine is claim, dispatch and wake policy around one message step
(:func:`_step_node` claims, :func:`_run_hops` is the hop): fetch an id,
check the message out of the pool, call ``process``, push the peer id
when the streamlet has one, and send the results on — dropping (and
counting) any emission aimed at an unconnected port, which is exactly the
open-circuit hazard the chapter-5 analysis exists to prevent.  An
ordinary node and a fused chain are the same thing to it: a chain of one
member or of several.
"""

from __future__ import annotations

import time

from repro.errors import QueueClosedError
from repro.mime.headers import CONTENT_TRACE
from repro.runtime.channel import Channel
from repro.runtime.message_pool import PassMode
from repro.runtime.stream import RuntimeStream, TopologySnapshot, _FusedView, _NodeView
from repro.runtime.streamlet import StreamletState

#: canonical HeaderMap key for Content-Trace — probed directly against the
#: header dict on the hot path, sparing a method call + lower() per hop
_TRACE_KEY = CONTENT_TRACE.lower()


def _count(acc: dict[str, int], name: str, n: int = 1) -> None:
    """Count into the step accumulator.

    Steps collect their counter bumps in a plain dict that the engine
    flushes through :meth:`StreamStats.inc_many` once per dispatch, so a
    batch of N messages pays one stats lock instead of N.
    """
    acc[name] = acc.get(name, 0) + n


def _has_headroom(outlets: tuple[Channel, ...]) -> bool:
    """True while every queue a claim may post to can absorb another emission.

    The batching stop rule: a rendezvous queue (capacity 0) holding any
    pending unit vetoes further claims — its single slot is the
    synchronisation point, and racing past it would turn backpressure
    into drops — and a bounded queue stops the batch at half capacity so
    a concurrent producer still fits.  The *first* claim of a visit never
    consults this, preserving the one-message-per-visit contract exactly.
    """
    for channel in outlets:
        queue = channel.queue
        capacity = queue.capacity_bytes
        if capacity == 0:
            if len(queue):
                return False
        elif queue.pending_bytes * 2 > capacity:
            return False
    return True


def _claim(channel: Channel, wait_hist) -> tuple[str | None, float | None]:
    """Fetch one id off an input channel; ``(None, None)`` when it has none.

    With telemetry on, one clock sample is both the claim stamp — the
    queue kept the raw post time, so the post-to-claim delay is observed
    here — and the service start of the hop that follows.
    """
    try:
        msg_id = channel.fetch(0.0)
    except QueueClosedError:
        return None, None
    if msg_id is None or wait_hist is None:
        return msg_id, None
    claimed_at = time.perf_counter()
    posted_at = channel.queue.last_post_at
    if posted_at is not None:
        wait_hist.observe(claimed_at - posted_at)
    return msg_id, claimed_at


def _active(view: _NodeView | _FusedView) -> bool:
    """True while every member of ``view`` is active: one paused member parks it."""
    for member in view.members:
        if member.streamlet.state is not StreamletState.ACTIVE:
            return False
    return True


def _step_node(
    stream: RuntimeStream, snap: TopologySnapshot, view: _NodeView | _FusedView,
    batch: int, acc: dict[str, int], dirty: set[str] | None,
) -> int:
    """Claim up to ``batch`` messages per input port and run each through the view.

    The claim policy; every claimed id goes through :func:`_run_hops`.
    The first claim per port is unconditional (the historical one-message
    step); further claims in the same visit happen only while every queue
    a claim may post to keeps headroom, so batching can never convert a
    backpressure signal into drops.  Returns the claims made, hand-offs included.

    A fused view claims new traffic at its head only.  Residual units
    parked on an interior channel — traffic admitted before the chain
    fused, or re-posted by a supervisor retry — drain first,
    downstream-first, so end-to-end FIFO order survives fuse/split
    transitions (listed only when the snapshot found some).  A single
    paused member parks the whole chain: one dispatch cannot honour a
    suspension boundary mid-run, so messages wait at the head until
    every member is active again.
    """
    if not _active(view):
        return 0
    members = view.members
    moved = hops = 0
    interior = view.interior
    for idx in range(len(interior) - 1, -1, -1):
        channel = interior[idx]
        while not channel.queue.is_empty():
            msg_id, t0 = _claim(channel, members[idx + 1].queue_wait_hist)
            if msg_id is None:
                break
            done, handed = _run_hops(stream, snap, view, idx + 1,
                                     members[idx + 1].inputs[0][0], msg_id, t0,
                                     acc, dirty)
            moved, hops = moved + 1 + handed, hops + done
    head = members[0]
    outlets = view.outlets
    for port, channel in head.inputs:  # frozen tuple: no per-step copy
        for claim in range(batch):
            # extra claims first probe the queue lock-free: a fetch miss
            # costs a mutex round-trip, and on latency-bound traffic
            # (one message in flight) every claim after the first misses
            if claim and (channel.queue.is_empty() or not _has_headroom(outlets)):
                break
            msg_id, t0 = _claim(channel, head.queue_wait_hist)
            if msg_id is None:
                break
            done, handed = _run_hops(stream, snap, view, 0, port, msg_id, t0, acc, dirty)
            moved, hops = moved + 1 + handed, hops + done
    if hops:
        _count(acc, "processed", hops)
    return moved


def _run_hops(
    stream: RuntimeStream, snap: TopologySnapshot, view: _NodeView | _FusedView,
    index: int, port: str, msg_id: str, t0: float | None,
    acc: dict[str, int], dirty: set[str] | None,
) -> tuple[int, int]:
    """The hop kernel: one claimed message through ``view.members[index:]`` and on.

    One transition, for every shape of node: check the message out,
    ``process`` it, account for it, give each emission an id (the first
    keeps the claimed one) and send it on — into the member's
    continuation for that port (``_NodeView.onward``: the next fused
    member, its channel elided, or a hand-off to a later view, planned
    for owned streams only — taken only from the published snapshot,
    into an active view, across an open, empty channel whose ``fetch`` is
    not shadowed (a stall parks), and seen as a zero queue wait), else
    posted (a full queue drops), naming the consumer in ``dirty``.  Each
    member gets its own service-time observation and failure containment
    — a supervisor that retains a failed id can re-post it to the
    member's still-wired input channel.  Between stepped members a
    ``PassMode.REFERENCE`` pool is not consulted again; ``PassMode.VALUE``
    checks out (deep-copies) at every hop.  With telemetry on, the clock
    read that ends hop *i* is the start of hop *i + 1*.  Returns
    ``(process calls that succeeded, hand-offs)``.

    Emissions run breadth-first, in emission order.  The one that would
    head an empty worklist is stepped into directly; the rest of a
    fan-out queue behind it, on the worklist inside a fused chain and on
    their channel past its tail.
    """
    pool = stream.pool
    tm = stream.tm
    timed = tm is not None
    clock = time.perf_counter
    carry = pool.mode is PassMode.REFERENCE
    if timed and t0 is None:
        t0 = clock()
    processed = handed = 0
    members = view.members
    message = None  # handed on by the previous member, or checked out below
    #: (member index, port, id, message) still to run in this view, in order
    pending: list = []
    while True:
        hop = members[index]
        if message is None:
            message = pool.checkout(msg_id)
        ctx = hop.ctx
        headers = message.headers
        memo = headers._memo  # a routed message carries its session view
        ctx.session = memo["session"] if "session" in memo else headers.session
        failure = None
        try:
            emissions = hop.streamlet.process(port, message, ctx)
        except Exception as exc:  # fault containment: one bad message must not
            emissions, failure = None, exc  # take the stream down (3.3.5)
        if timed:
            # span before any routing: once an emission is enqueued (or
            # handed to the next member) a concurrent consumer may read its
            # headers, so the trace context (the parent advance) must be
            # in place first
            now = clock()
            hop.hop_hist.observe(now - t0)
            fields = message.headers._fields
            if _TRACE_KEY in fields:
                tm.hop_span(hop.name, fields[_TRACE_KEY][1], message, emissions,
                            now - t0, failure is not None)
            t0 = now
        if failure is not None:
            _hop_failed(stream, hop, port, msg_id, failure, acc)
        else:
            hop.streamlet.processed += 1
            processed += 1
            if not emissions:
                pool.release(msg_id)  # absorbed (cache hit, filter, ...)
                _count(acc, "absorbed")
                if timed:
                    tm.forget(msg_id)
            else:
                peer, outputs, onward = hop.peer, hop.outputs, hop.onward
                out_id = msg_id  # the first emission keeps the claimed id
                step_id = None  # an emission the loop continues with directly
                for out_port, out_msg in emissions:
                    if peer is not None:
                        out_msg.headers.push_peer(peer)
                    if out_id is None:
                        out_id = pool.admit(out_msg)
                    elif out_msg is not message:
                        pool.rebind(out_id, out_msg)
                    if out_port not in outputs:
                        # open circuit at runtime: the message has nowhere to go
                        pool.release(out_id)
                        _count(acc, "open_circuit_drops")
                        if timed:
                            tm.forget(out_id)
                    elif out_port not in onward:
                        _post(stream, outputs[out_port], out_id, out_msg, dirty)
                    else:
                        step = onward[out_port]
                        channel = step[0]
                        # a hand-off is a consumer infinitely fast, taken where
                        # nothing tells it from a post and a claim (FIFO: empty)
                        if step_id is None and not pending and (channel is None or (
                            "fetch" not in channel.__dict__ and stream._snapshot is snap
                            and _active(step[1]) and channel.queue.pass_through()
                        )):
                            # first in line: it would be the worklist's head
                            step_id, step_msg, step_to = out_id, out_msg, step
                        elif channel is None:
                            pending.append(
                                (step[2], step[3], out_id, out_msg if carry else None)
                            )
                        else:
                            _post(stream, channel, out_id, out_msg, dirty)
                    out_id = None
                if step_id is not None:
                    channel, view, index, port = step_to
                    members = view.members
                    if channel is not None:  # handed off: claimed off an empty queue
                        handed += 1
                        if members[0].queue_wait_hist is not None:
                            members[0].queue_wait_hist.observe(0.0)
                    msg_id = step_id
                    message = step_msg if carry else None
                    continue
        if not pending:
            return processed, handed
        index, port, msg_id, message = pending.pop(0)


def _hop_failed(
    stream: RuntimeStream, hop: _NodeView, port: str, msg_id: str,
    exc: Exception, acc: dict[str, int],
) -> None:
    """Settle a message whose ``process`` raised: retained, or released and counted."""
    _count(acc, "processing_failures")
    handler = stream.fault_handler
    if handler is None or not handler(hop.name, port, msg_id, exc):
        # no supervisor claimed the id: release and count
        stream.pool.release(msg_id)
        _count(acc, "failure_drops")
        if stream.tm is not None:
            stream.tm.forget(msg_id)
    if stream.failure_hook is not None:
        stream.failure_hook(hop.name, exc)


def _post(
    stream: RuntimeStream, channel: Channel, out_id: str, out_msg, dirty: set[str] | None,
) -> None:
    """Post one emission to its output channel, never waiting; a full queue drops.

    A waiting producer would starve the consumer that could free the
    space: the one thread that steps the stream is both.
    """
    try:
        if channel.post(out_id, out_msg.total_size(), timeout=0):
            if dirty is not None and channel.sink is not None:
                dirty.add(channel.sink.instance)
            return
    except QueueClosedError:
        pass  # a closed channel can never accept
    _drop(stream, out_id)


def _drop(stream: RuntimeStream, msg_id: str) -> None:
    """Release a dropped id, fire the drop signal, count, forget the trace."""
    if msg_id in stream.pool:
        message = stream.pool.release(msg_id)
        if stream.drop_hook is not None:
            stream.drop_hook(msg_id, message)
    stream.stats.inc("queue_drops")
    if stream.tm is not None:
        stream.tm.forget(msg_id)


class InlineScheduler:
    """Deterministic cooperative pump driven by a dirty-node worklist.

    Rather than re-walking every instance per round, each round visits
    only nodes with a reason to run — seeded from pending input traffic,
    extended by the consumer of every post the hop kernel made — always
    in the snapshot's deterministic processing order.  A hand-off
    (:func:`_run_hops`) counts as a move.

    Constructing one binds the stream's channels, ingress carriers
    excepted, single-owner (:meth:`RuntimeStream.bind_engine`): one
    thread pumps, collects and re-posts retries; others only post to the
    ingress or go through the write section.
    """

    #: messages claimed per input port per visit; the headroom rule in
    #: :func:`_step_node` keeps batching invisible to bounded channels
    def __init__(self, stream: RuntimeStream, *, batch: int = 8):
        self._stream = stream
        self._batch = max(1, batch)
        stream.bind_engine()

    def _seed(self, snap: TopologySnapshot) -> set[str]:
        """Nodes worth visiting: active with pending input traffic."""
        dirty: set[str] = set()
        for view in snap.steps:
            if view.streamlet.state is not StreamletState.ACTIVE:
                continue
            for _port, channel in view.inputs:
                if not channel.queue.is_empty():
                    dirty.add(view.name)
                    break
        return dirty

    def pump(self, *, max_rounds: int | None = None) -> int:
        """Process until quiescent (or ``max_rounds``); returns moves made."""
        stream = self._stream
        gate = stream._read_gate
        batch = self._batch
        acc: dict[str, int] = {}  # flushed once per round (one stats lock)
        total = 0
        rounds = 0
        snap = stream.topology_snapshot()
        dirty = self._seed(snap)
        while True:
            moved_round = 0
            restart = False
            for view in snap.steps:
                name = view.name
                if name not in dirty:
                    continue
                gate.enter()
                current = stream._snapshot
                if current is not snap:
                    # a concurrent (or in-step) reconfiguration republished
                    # the topology: re-resolve and reseed the worklist
                    gate.exit()
                    snap = stream.topology_snapshot()
                    dirty = self._seed(snap)
                    restart = True
                    break
                dirty.discard(name)
                try:
                    moved = _step_node(stream, snap, view, batch, acc, dirty)
                finally:
                    gate.exit()
                if moved:
                    moved_round += moved
                    for _port, channel in view.inputs:
                        if not channel.queue.is_empty():
                            dirty.add(name)
                            break
            if acc:
                stream.stats.inc_many(acc)
                acc.clear()
            if restart:
                continue  # an interrupted walk is not a round
            total += moved_round
            rounds += 1
            if moved_round == 0:
                return total
            if max_rounds is not None and rounds >= max_rounds:
                return total

    def run_to_completion(self, messages, port=0) -> list:
        """Post each message, pump, and return everything collected."""
        out = []
        for message in messages:
            self._stream.post(message, port)
            self.pump()
            out.extend(self._stream.collect())
        self.pump()
        out.extend(self._stream.collect())
        return out
