"""The MessageQueue base class (section 6.2, Figures 6-3 and 6-9).

A bounded FIFO of ``(message_id, size)`` entries.  Capacity is accounted
in **bytes** (the MCL ``buffer`` attribute is in KB); an empty queue
always admits one message so a single oversized message cannot
deadlock a stream.

No queue ever waits, and no queue takes a lock.  The paper's queue
blocks a producer until there is room (``synchronized`` +
``wait``/``notify``) because every streamlet has its own thread; here
every queue of a stream, its ingress carriers included, is touched only
by the one thread that owns the stream at the time
(:mod:`repro.runtime.stream`, "One owner per stream"), so a wait for
room could only run out.  Figure 6-9 is therefore drop-on-full, and a
post or fetch is a deque operation plus a byte count.

``post_message`` drops what does not fit.  An ordinary post counts the
drop in ``dropped``; a *probe* (``probe=True``: a scheduler mid-step, a
supervisor retry) never does — the caller books the drop once.  A
consumer watching a queue (a gateway session on its ingress) registers a
waiter via :meth:`add_waiter`, whose ``set()`` every post calls.  The
gateway's admission posts a whole run with :meth:`post_run`.  A waiter's
``set()`` never blocks (a gateway session's is a ``call_soon`` or
``call_soon_threadsafe``).
"""

from __future__ import annotations

import time
from collections import deque

from repro.errors import QueueClosedError


class MessageQueue:
    """Bounded producer/consumer queue of message ids."""

    def __init__(self, capacity_bytes: int = 100 * 1024):
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self._capacity = capacity_bytes
        #: the queued ``(msg_id, size)`` entries, oldest first, and their
        #: bytes; the engine reads both directly and changes them only
        #: through the methods below
        self.entries: deque[tuple[str, int]] = deque()
        self.pending_bytes = 0
        #: consumer wakeups, anything with a ``set()`` (see :meth:`add_waiter`)
        self._waiters: list = []
        #: set by :meth:`close`; never cleared
        self.closed = False
        # attachment counters (pCount / cCount of Figure 6-3)
        self.producer_count = 0
        self.consumer_count = 0
        # observability
        self._posted = 0
        self._fetched = 0
        #: messages a hand-off carried past this queue, never entering it;
        #: they count in :attr:`posted` and :attr:`fetched` alike
        self.handed = 0
        self.dropped = 0
        #: deepest the queue has ever been, in entries
        self.watermark = 0
        #: when True, post times ride in a parallel deque so every fetch
        #: can report its queue wait (the entry tuples stay ``(msg_id, size)``)
        self.record_waits = False
        self._post_times: deque[float] = deque()
        #: raw ``perf_counter`` post time of the most recent fetch (None
        #: when waits are not recorded); the consumer subtracts it from its
        #: own clock sample, so the queue pays no second clock read
        self.last_post_at: float | None = None
        #: optional pre-bound gauges
        self.depth_gauge = None
        self.watermark_gauge = None

    # -- attachment (setIn / setOut of Figure 6-2) ------------------------------------

    def incr_producers(self) -> None:
        """Attach one producer (pCount of Figure 6-3)."""
        self.producer_count += 1

    def decr_producers(self) -> None:
        """Detach one producer (pCount of Figure 6-3)."""
        if self.producer_count <= 0:
            raise ValueError("producer count underflow")
        self.producer_count -= 1

    def incr_consumers(self) -> None:
        """Attach one consumer (cCount of Figure 6-3)."""
        self.consumer_count += 1

    def decr_consumers(self) -> None:
        """Detach one consumer (cCount of Figure 6-3)."""
        if self.consumer_count <= 0:
            raise ValueError("consumer count underflow")
        self.consumer_count -= 1

    # -- queue state ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def posted(self) -> int:
        """Messages enqueued, and handed past, over the queue's life."""
        return self._posted + self.handed

    @property
    def fetched(self) -> int:
        """Messages dequeued, and handed past, over the queue's life."""
        return self._fetched + self.handed

    def __len__(self) -> int:
        return len(self.entries)

    def is_empty(self) -> bool:
        """True when nothing is queued."""
        return not self.entries

    # -- consumer wakeup events --------------------------------------------------------

    def add_waiter(self, event) -> None:
        """Register a consumer wakeup, any object with a non-blocking
        ``set()``: set on every post (and on close).

        If the queue already holds entries (or is closed) the event is set
        immediately, so a consumer registering after traffic arrived never
        sleeps through it.
        """
        if event not in self._waiters:
            self._waiters.append(event)
        if self.entries or self.closed:
            event.set()

    # -- the paper's postMessage / fetchMessage ----------------------------------------------

    def _put(self, run: list[tuple[str, int]], size: int, probe: bool, at: float | None) -> bool:
        """Enqueue a run of ``size`` bytes if it fits (an empty queue takes it
        whole), and wake the consumers.  ``at`` is the post stamp a
        recording queue keeps (now, if None)."""
        if self.closed:
            raise QueueClosedError("post on closed queue")
        entries = self.entries
        if entries and self.pending_bytes + size > self._capacity:
            if not probe:
                self.dropped += 1
            return False
        entries.extend(run)
        self.pending_bytes += size
        self._posted += len(run)
        depth = len(entries)
        if depth > self.watermark:
            self.watermark = depth
            if self.watermark_gauge is not None:
                self.watermark_gauge.value = float(depth)
        if self.record_waits:
            self._post_times.extend([time.perf_counter() if at is None else at] * len(run))
        if self.depth_gauge is not None:
            self.depth_gauge.value = float(depth)
        for event in self._waiters:
            event.set()
        return True

    def post_message(
        self, msg_id: str, size: int, *, probe: bool = False, at: float | None = None
    ) -> bool:
        """Enqueue; False if the message did not fit and was dropped (Figure 6-9).

        A probe's refusal is not counted in ``dropped`` (module docstring).
        """
        return self._put([(msg_id, size)], size, probe, at)

    def post_run(self, entries: list[tuple[str, int]], at: float | None = None) -> bool:
        """Post a run of ``(msg_id, size)`` entries whole, never waiting for room.

        The gateway's admission.  ``True``: enqueued in order (an empty
        queue takes the run whole).  ``False``: no room, ``dropped`` not
        counted (the probe contract).  Raises :class:`QueueClosedError`
        on a closed queue.
        """
        return self._put(entries, sum([entry[1] for entry in entries]), True, at)

    def fetch_message(self) -> str | None:
        """Dequeue the oldest id; None when the queue is empty."""
        if not self.entries:
            if self.closed:
                raise QueueClosedError("fetch on closed, drained queue")
            return None
        msg_id, size = self.entries.popleft()
        self.pending_bytes -= size
        self._fetched += 1
        if self.record_waits:
            times = self._post_times
            self.last_post_at = times.popleft() if times else None
        if self.depth_gauge is not None:
            self.depth_gauge.value = float(len(self.entries))
        return msg_id

    def drain(self) -> list[str]:
        """Remove and return every queued id (used by BB/KB teardown)."""
        ids = [msg_id for msg_id, _ in self.entries]
        self.entries.clear()
        self.pending_bytes = 0
        self._post_times.clear()
        if self.depth_gauge is not None:
            self.depth_gauge.value = 0.0
        return ids

    def close(self) -> None:
        """No further posts; fetch drains what remains, then raises."""
        self.closed = True
        for event in self._waiters:
            event.set()

    # -- state reading ---------------------------------------------------------------

    def snapshot_state(self) -> tuple[tuple[tuple[str, int], ...], bool, int, int]:
        """Freeze ``(entries, closed, producers, consumers)``, comparably.

        What the reconfiguration tests compare before and after a refused
        batch.  Counters (posted/fetched/dropped) are observability, not
        state, and are deliberately left out.
        """
        return (
            tuple(self.entries),
            self.closed,
            self.producer_count,
            self.consumer_count,
        )
