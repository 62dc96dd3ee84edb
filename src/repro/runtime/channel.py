"""Runtime channels: a MessageQueue plus the section 4.2.2 semantics.

A channel is a reliable, directed, optionally buffered carrier between one
producer port and one consumer port.  Its *category* governs what happens
when an end is detached while units are pending:

=====  ==========================================================
S      never holds pending units (detach requires an empty queue)
BB     detaching either end breaks both; pending units are dropped
BK     detaching the source keeps the sink side (pending drain);
       detaching the sink breaks both and drops pending
KB     mirror image of BK
KK     cannot be detached at either end
=====  ==========================================================

The live stream applies this table through :func:`detach_breaks` when a
reconfiguration steps its topology value; :meth:`Channel.bind` then sets
the ends the stepped value names.

Synchronous channels (``SYNC``) are zero-length buffers; in the inline
scheduler they behave as a one-slot rendezvous (post must be consumed
before the next post), which preserves the ordering guarantee without
real blocking.

A channel takes no lock: like every part of its stream, it is touched
only by the stream's owner (:mod:`repro.runtime.stream`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import ChannelError
from repro.mcl import astnodes as ast
from repro.runtime.message_queue import MessageQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import StreamTelemetry

#: the table above: per category, the ends whose detachment breaks the other
_BREAKS_BOTH = {
    ast.ChannelCategory.S: (),
    ast.ChannelCategory.BB: ("source", "sink"),
    ast.ChannelCategory.BK: ("sink",),
    ast.ChannelCategory.KB: ("source",),
}


def detach_breaks(name: str, category: ast.ChannelCategory, end: str, pending: int) -> bool:
    """Whether detaching ``end`` breaks the other end too, losing what is pending.

    The one statement of the section 4.2.2 detach rule, asked by the
    topology value's step function.  Raises :class:`ChannelError` where
    the category forbids the detach outright (KK always, S while it holds
    a unit).
    """
    if category is ast.ChannelCategory.KK:
        raise ChannelError(f"channel {name} is KK: ends cannot be detached")
    if category is ast.ChannelCategory.S and pending:
        raise ChannelError(f"channel {name} is S-category but holds a pending unit")
    return end in _BREAKS_BOTH[category]


class Channel:
    """One producer-port → consumer-port carrier."""

    def __init__(
        self,
        name: str,
        definition: ast.ChannelDef,
        *,
        telemetry: "StreamTelemetry | None" = None,
    ):
        self.name = name
        self.definition = definition
        if definition.sync is ast.ChannelSync.SYNC or definition.category is ast.ChannelCategory.S:
            # zero-length buffer, realised as a single rendezvous slot; the
            # S category *guarantees* no pending units, so it gets the same
            # treatment even when declared ASYNC
            capacity = 0
        else:
            capacity = definition.buffer_kb * 1024
        self.queue = MessageQueue(capacity)
        # queue-wait observation: observed streams bind their telemetry so
        # post/fetch can sample how long ids sit in this queue, and the
        # queue itself records every message's wait + depth/watermark
        self._tm = telemetry
        if telemetry is not None:
            self._wait_hist = telemetry.channel_wait_histogram(name)
            self.queue.record_waits = True
            self.queue.depth_gauge = telemetry.queue_depth_gauge(name)
            self.queue.watermark_gauge = telemetry.queue_watermark_gauge(name)
        else:
            self._wait_hist = None
        self.source: ast.PortRef | None = None
        self.sink: ast.PortRef | None = None

    # -- wiring -----------------------------------------------------------------

    @property
    def category(self) -> ast.ChannelCategory:
        return self.definition.category

    def attach_source(self, ref: ast.PortRef) -> None:
        """Bind the producer port (one per channel)."""
        if self.source is not None:
            raise ChannelError(f"channel {self.name} already has source {self.source}")
        self.bind(ref, self.sink)

    def attach_sink(self, ref: ast.PortRef) -> None:
        """Bind the consumer port (one per channel)."""
        if self.sink is not None:
            raise ChannelError(f"channel {self.name} already has sink {self.sink}")
        self.bind(self.source, ref)

    def bind(self, source: ast.PortRef | None, sink: ast.PortRef | None) -> None:
        """Set both ends outright (``None`` = unattached), keeping pending units.

        Coordinator-internal: the realise step of a reconfiguration calls
        this with what the topology value says, the category semantics
        (which govern user-visible disconnects) having been applied when
        the value was stepped.  The queue's producer/consumer counts
        follow the ends.
        """
        queue = self.queue
        if source is None and self.source is not None:
            queue.decr_producers()
        elif source is not None and self.source is None:
            queue.incr_producers()
        if sink is None and self.sink is not None:
            queue.decr_consumers()
        elif sink is not None and self.sink is None:
            queue.incr_consumers()
        self.source = source
        self.sink = sink

    # -- transfer ------------------------------------------------------------------

    def post(self, msg_id: str, size: int, *, probe: bool = False, at: float | None = None) -> bool:
        """Enqueue a message id; False if dropped (Figure 6-9 policy, drop-on-full).

        ``at`` is the post stamp the queue keeps for its queue wait (now,
        if None).  Queue-wait sampling is inlined (no telemetry method
        call): only ids the stream marked as traced get a timestamp, so
        untraced traffic pays a single set lookup here.
        """
        posted = self.queue.post_message(msg_id, size, probe=probe, at=at)
        if posted:
            tm = self._tm
            if tm is not None and msg_id in tm.traced_ids:
                tm.enqueued[msg_id] = time.perf_counter()
        return posted

    def fetch(self) -> str | None:
        """Dequeue the oldest message id, or None."""
        msg_id = self.queue.fetch_message()
        if msg_id is not None:
            tm = self._tm
            if tm is not None and tm.enqueued:
                started = tm.enqueued.pop(msg_id, None)
                if started is not None:
                    self._wait_hist.observe(time.perf_counter() - started)
        return msg_id

    def pending(self) -> int:
        """Messages currently queued."""
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Channel({self.name}, {self.definition.sync.value}/"
            f"{self.category.value}, {self.source} -> {self.sink}, "
            f"{self.pending()} pending)"
        )
