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
Whichever thread it is owns the stream while it steps, so the pump
takes no lock; before each view visit it reads the stream's
:attr:`~repro.runtime.stream.RuntimeStream.recalled` flag and returns
if the owner wants a lent stream back, so a control verb waits out at
most the visit in flight.

The engine is claim, dispatch and wake policy around one message step
(:func:`_step_node` claims, :func:`_run_hops` is the hop): fetch an id,
check the message out of the pool, call ``process``, push the peer id
when the streamlet has one, and send the results on — dropping (and
counting) any emission aimed at an unconnected port, which is exactly the
open-circuit hazard the chapter-5 analysis exists to prevent.  Every
channel hop is crossed by one rule: handed straight to its consumer where
nothing could tell that from a post and a claim, else posted.  A
synchronous (MCL ``SYNC``) channel is only a coupling attribute to it: a
rendezvous queue of capacity 0, crossed like any other.
"""

from __future__ import annotations

import time
from itertools import compress

from repro.errors import QueueClosedError
from repro.mime.headers import CONTENT_TRACE
from repro.runtime.channel import Channel
from repro.runtime.message_pool import PassMode
from repro.runtime.stream import RuntimeStream, TopologySnapshot, _NodeView
from repro.runtime.streamlet import StreamletState
from repro.runtime.topology import EGRESS

#: canonical HeaderMap key for Content-Trace — probed directly against the
#: header dict on the hot path, sparing a method call + lower() per hop
_TRACE_KEY = CONTENT_TRACE.lower()


def _has_headroom(held: tuple, bounded: tuple) -> bool:
    """True while every queue a claim may post to can absorb another emission.

    The batching stop rule over a view's outlets (``_NodeView.held`` and
    ``.bounded``): a rendezvous queue (capacity 0) holding any pending
    unit vetoes further claims — its single slot is the synchronisation
    point, and racing past it would turn backpressure into drops — and a
    bounded queue stops the batch at half capacity so a concurrent
    producer still fits.  The *first* claim of a visit consults only the
    rendezvous veto (:func:`_step_node`).
    """
    if any(held):
        return False
    for queue, capacity in bounded:
        if queue.pending_bytes * 2 > capacity:
            return False
    return True


def _claim(channel: Channel, wait_hist) -> tuple[str | None, float | None]:
    """Fetch one id off an input channel; ``(None, None)`` when it has none.

    With telemetry on, one clock sample is both the claim stamp — the
    queue kept the raw post time, so the post-to-claim delay is observed
    here — and the service start of the hop that follows.
    """
    try:
        msg_id = channel.fetch()
    except QueueClosedError:
        return None, None
    if msg_id is None or wait_hist is None:
        return msg_id, None
    claimed_at = time.perf_counter()
    posted_at = channel.queue.last_post_at
    if posted_at is not None:
        wait_hist.observe(claimed_at - posted_at)
    return msg_id, claimed_at


def _step_node(
    stream: RuntimeStream, snap: TopologySnapshot, view: _NodeView,
    batch: int, dirty: set[str],
) -> int:
    """Claim up to ``batch`` messages per input port and run each through the view.

    The claim policy; every claimed id goes through :func:`_run_hops`.
    The first claim per port is the historical one-message step, refused
    only while a rendezvous queue the claim may post to holds a unit (a
    post behind that unit would be refused: the claim waits, as a
    producer on a synchronous channel blocks).  Further claims in the
    same visit happen only while every queue a claim may post to keeps
    headroom, so batching can never convert a backpressure signal into
    drops.  A paused streamlet claims nothing.  Returns the claims made,
    hand-offs included.
    """
    held = view.held
    if view.streamlet.state is not StreamletState.ACTIVE or (held and any(held)):
        return 0
    bounded = view.bounded
    moved = hops = 0
    for port, channel in view.inputs:  # frozen tuple: no per-step copy
        entries = channel.queue.entries
        for claim in range(batch):
            # extra claims first probe the queue: a fetch miss costs two
            # calls, and on latency-bound traffic (one message in flight)
            # every claim after the first misses
            if claim and (not entries or not _has_headroom(held, bounded)):
                break
            msg_id, t0 = _claim(channel, view.queue_wait_hist)
            if msg_id is None:
                break
            done, handed = _run_hops(stream, snap, view, port, msg_id, t0, dirty)
            moved, hops = moved + 1 + handed, hops + done
    stream.stats.processed += hops
    return moved


def _run_hops(
    stream: RuntimeStream, snap: TopologySnapshot, view: _NodeView,
    port: str, msg_id: str, t0: float | None, dirty: set[str],
) -> tuple[int, int]:
    """The hop kernel: one claimed message through ``view`` and on.

    One transition, for every hop: check the message out, ``process``
    it, account for it, give each emission an id (the first keeps the
    claimed one) and send it on — handed to the view its port continues
    into (``_NodeView.onward``), else posted (a full queue drops), naming
    the consumer in ``dirty``.  A hand-off is a consumer infinitely fast,
    taken where nothing tells it from a post and a claim: only from the
    published snapshot, into an active view, across an open, empty
    channel whose ``fetch`` is not shadowed (a stall parks), whatever the
    channel's coupling.  It counts on the queue as posted and fetched
    (:attr:`~repro.runtime.message_queue.MessageQueue.handed`); its zero
    queue wait is not sampled here, the queue-wait histogram
    takes it at its next fold (:attr:`~repro.telemetry.metrics.Histogram.floor`).
    Each hop gets its own service-time observation and failure
    containment — a supervisor that retains a failed id can re-post it
    to the streamlet's input channel.  Between stepped views a
    ``PassMode.REFERENCE`` pool is not consulted again;
    ``PassMode.VALUE`` checks out (deep-copies) at every hop.  With
    telemetry on, the clock read that ends hop *i* is the start of hop
    *i + 1*, and the post stamp of every emission hop *i* posts: the
    routing after a hop's end is waiting, not service, so no interval
    between claim and pickup belongs to no component.  Returns
    ``(process calls that succeeded, hand-offs)``.

    Only the first emission that may be handed off is; the rest of a
    fan-out are posted behind it, in emission order.
    """
    pool = stream.pool
    tm = stream.tm
    timed = tm is not None
    clock = time.perf_counter
    carry = pool.mode is PassMode.REFERENCE
    active = StreamletState.ACTIVE
    if timed and t0 is None:
        t0 = clock()
    processed = handed = 0
    message = None  # handed on by the previous view, or checked out below
    while True:
        if message is None:
            message = pool.checkout(msg_id)
        ctx = view.ctx
        headers = message.headers
        memo = headers._memo  # a routed message carries its session view
        ctx.session = memo["session"] if "session" in memo else headers.session
        failure = None
        try:
            emissions = view.streamlet.process(port, message, ctx)
        except Exception as exc:  # fault containment: one bad message must not
            emissions, failure = None, exc  # take the stream down (3.3.5)
        if timed:
            # span before any routing: once an emission is enqueued (or
            # handed on) its consumer reads its headers, so the trace
            # context (the parent advance) must be in place first
            now = clock()
            view.hop_hist.observe(now - t0)
            fields = message.headers._fields
            if _TRACE_KEY in fields:
                tm.hop_span(view.name, fields[_TRACE_KEY][1], message, emissions,
                            now - t0, failure is not None)
            t0 = now
        if failure is not None:
            _hop_failed(stream, view, port, msg_id, failure)
            return processed, handed
        view.streamlet.processed += 1
        processed += 1
        if not emissions:
            pool.release(msg_id)  # absorbed (cache hit, filter, ...)
            stream.stats.absorbed += 1
            if timed:
                tm.forget(msg_id)
            return processed, handed
        peer, outputs, onward = view.peer, view.outputs, view.onward
        out_id = msg_id  # the first emission keeps the claimed id
        handing = None  # the emission handed on: the loop continues with it
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
                stream.stats.open_circuit_drops += 1
                if timed:
                    tm.forget(out_id)
            elif handing is None and out_port in onward:
                channel, queue, target, in_port = onward[out_port]
                if (
                    "fetch" not in channel.__dict__ and stream._snapshot is snap
                    and target.streamlet.state is active
                    and not queue.entries and not queue.closed
                ):
                    queue.handed += 1
                    handing = out_msg
                    # the rest of the loop reads only its locals above
                    view, port, msg_id = target, in_port, out_id
                else:
                    _post(stream, channel, out_id, out_msg, dirty, t0)
            else:
                _post(stream, outputs[out_port], out_id, out_msg, dirty, t0)
            out_id = None
        if handing is None:
            return processed, handed
        handed += 1
        message = handing if carry else None


def _hop_failed(
    stream: RuntimeStream, hop: _NodeView, port: str, msg_id: str,
    exc: Exception,
) -> None:
    """Settle a message whose ``process`` raised: retained, or released and counted."""
    stream.stats.processing_failures += 1
    handler = stream.fault_handler
    if handler is None or not handler(hop.name, port, msg_id, exc):
        # no supervisor claimed the id: release and count
        stream.pool.release(msg_id)
        stream.stats.failure_drops += 1
        if stream.tm is not None:
            stream.tm.forget(msg_id)
    if stream.failure_hook is not None:
        stream.failure_hook(hop.name, exc)


def _post(
    stream: RuntimeStream, channel: Channel, out_id: str, out_msg, dirty: set[str],
    at: float | None,
) -> None:
    """Post one emission to its output channel, never waiting; a full queue drops.

    A waiting producer would starve the consumer that could free the
    space: the one thread that steps the stream is both.  ``at`` (the
    hop's end, with telemetry on) is the post stamp the queue keeps.
    """
    try:
        if channel.post(out_id, out_msg.total_size(), probe=True, at=at):
            sink = channel.sink
            if sink is not None and sink.instance != EGRESS:  # egress: collect() drains
                dirty.add(sink.instance)
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
    stream.stats.queue_drops += 1
    if stream.tm is not None:
        stream.tm.forget(msg_id)


class InlineScheduler:
    """Deterministic cooperative pump driven by a dirty-node worklist.

    Rather than re-walking every instance per round, each round visits
    only nodes with a reason to run — seeded from pending input traffic,
    extended by the consumer of every post the hop kernel made — always
    in the snapshot's deterministic processing order.  A hand-off
    (:func:`_run_hops`) counts as a move.  A visit that finds the
    snapshot retired (a rewrite inside the previous visit: a fault
    handler's bypass, an event raised mid-step) re-seeds instead.
    """

    #: messages claimed per input port per visit; the headroom rule in
    #: :func:`_step_node` keeps batching invisible to bounded channels
    def __init__(self, stream: RuntimeStream, *, batch: int = 8):
        self._stream = stream
        self._batch = max(1, batch)

    def _seed(self, snap: TopologySnapshot) -> set[str]:
        """Nodes worth visiting: those with pending input traffic (filtered in C)."""
        return set(compress(snap.feed_names, snap.feeds))

    def pump(self, *, max_rounds: int | None = None) -> int:
        """Process until quiescent (or ``max_rounds``); returns moves made.

        Returns early, before a view visit, once the stream is
        :attr:`~repro.runtime.stream.RuntimeStream.recalled`.
        """
        stream = self._stream
        batch = self._batch
        total = 0
        rounds = 0
        snap = stream.topology_snapshot()
        dirty = self._seed(snap)
        while True:
            moved_round = 0
            restart = False
            for view in snap.steps:
                if not dirty:
                    break  # nothing later in the order has a reason to run
                name = view.name
                if name not in dirty:
                    continue
                if stream.recalled:  # the owner wants the stream back
                    return total + moved_round
                if stream._snapshot is not snap:
                    # a rewrite inside the last visit retired the topology:
                    # re-resolve and reseed the worklist
                    restart = True
                    break
                dirty.discard(name)
                moved_round += _step_node(stream, snap, view, batch, dirty)
                # still fed (a batch cut short, or a claim a held rendezvous
                # refused): visit again next round
                for _port, channel in view.inputs:
                    if channel.queue.entries:
                        dirty.add(name)
                        break
            if restart:  # an interrupted walk is not a round
                snap = stream.topology_snapshot()
                dirty = self._seed(snap)
                continue
            total += moved_round
            rounds += 1
            if moved_round == 0 or not dirty:
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
