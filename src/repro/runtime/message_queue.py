"""The MessageQueue base class (section 6.2, Figures 6-3 and 6-9).

A bounded FIFO of ``(message_id, size)`` entries.  Capacity is accounted
in **bytes** (the MCL ``buffer`` attribute is in KB); an empty queue
always admits one message so a single oversized message cannot
deadlock a stream.

One class, two regimes, decided when an engine binds the stream
(:meth:`~repro.runtime.stream.RuntimeStream.bind_engine`):

**shared** (``owned=False``, the default)
    The Java ``synchronized`` + ``wait``/``notify`` design: one lock and a
    pair of conditions (posts signal ``not_empty``, fetches ``not_full``),
    each notified only while a thread is blocked on it — a post or fetch
    nobody waits for costs one lock round.  Every ingress is shared, since
    other threads post to it, and so is every queue of a stream no engine
    has bound.
**owned** (``owned=True``)
    One thread at a time is both ends — the interior and egress channels
    of an :class:`~repro.runtime.scheduler.InlineScheduler`-stepped
    stream.  A
    post or fetch is a deque operation plus a byte count, with no lock:
    nobody else can make room or bring a message, so nothing ever waits.
    Its thread touches it only inside the stream's read gate, any other
    thread only inside the write section after the grace period (reading
    a counter is one GIL-atomic load and needs neither).

Both keep the same semantics and counters.  ``post_message`` implements
the Figure 6-9 policy under an explicit timeout contract:

``timeout=None``
    Wait up to the configured ``drop_timeout`` for room, then drop: slow
    downstream streamlets must not stall the whole stream (section 6.7).
    A failed post counts in ``dropped``.  (Owned: drop at once.)
``timeout > 0``
    Same, with an explicit budget overriding the configured one.
``timeout=0``
    A non-blocking *probe*: never waits, never counts ``dropped`` — the
    caller (a scheduler mid-step, a supervisor retry) books the drop once.

A consumer watching a queue (a gateway session on its ingress) registers
a waiter via :meth:`add_waiter`, whose ``set()`` every post calls.  The
gateway's admission posts a whole run with :meth:`post_run`, which waits
for the lock but never for room.  Waiting for a shared queue's lock is
always short: no method holds it across a wait (a condition wait releases
it), and the only call made under it is a waiter's ``set()``, which never
blocks (a gateway session's is a ``call_soon`` or ``call_soon_threadsafe``).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import QueueClosedError


class MessageQueue:
    """Bounded producer/consumer queue of message ids."""

    def __init__(
        self, capacity_bytes: int = 100 * 1024, *, drop_timeout: float = 0.0, owned: bool = False
    ):
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        if drop_timeout < 0:
            raise ValueError(f"drop_timeout must be >= 0, got {drop_timeout}")
        self._capacity = capacity_bytes
        self._drop_timeout = drop_timeout
        self._entries: deque[tuple[str, int]] = deque()
        self._bytes = 0
        #: the regime (module docstring); switched only before traffic flows
        self.owned = owned
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        #: threads blocked on each condition: nobody blocked, no notify
        self._blocked_consumers = 0
        self._blocked_producers = 0
        #: consumer-side wakeup events (see :meth:`add_waiter`)
        self._waiters: list[threading.Event] = []
        self._closed = False
        # attachment counters (pCount / cCount of Figure 6-3)
        self.producer_count = 0
        self.consumer_count = 0
        # observability
        self.posted = 0
        self.fetched = 0
        self.dropped = 0
        #: :meth:`post_run` calls that found the lock held and waited for it
        self.lock_waits = 0
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

    # -- attachment (setIn / setOut of Figure 6-2) ---------------------------------

    def incr_producers(self) -> None:
        """Attach one producer (pCount of Figure 6-3)."""
        with self._lock:
            self.producer_count += 1

    def decr_producers(self) -> None:
        """Detach one producer (pCount of Figure 6-3)."""
        with self._lock:
            if self.producer_count <= 0:
                raise ValueError("producer count underflow")
            self.producer_count -= 1
            self._not_empty.notify_all()

    def incr_consumers(self) -> None:
        """Attach one consumer (cCount of Figure 6-3)."""
        with self._lock:
            self.consumer_count += 1

    def decr_consumers(self) -> None:
        """Detach one consumer (cCount of Figure 6-3)."""
        with self._lock:
            if self.consumer_count <= 0:
                raise ValueError("consumer count underflow")
            self.consumer_count -= 1

    # -- queue state (lock-free: each a single GIL-atomic read) ----------------------

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def drop_timeout(self) -> float:
        """The configured Figure 6-9 wait-before-drop budget, seconds."""
        return self._drop_timeout

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    def is_empty(self) -> bool:
        """True when nothing is queued (a shared queue's may be stale by one post)."""
        return not self._entries

    def _has_room(self, size: int) -> bool:
        return not self._entries or self._bytes + size <= self._capacity

    # -- consumer wakeup events --------------------------------------------------------

    def add_waiter(self, event: threading.Event) -> None:
        """Register a consumer wakeup: set on every post (and on close).

        If the queue already holds entries (or is closed) the event is set
        immediately, so a consumer registering after traffic arrived never
        sleeps through it.
        """
        with self._lock:
            if event not in self._waiters:
                self._waiters.append(event)
            if self._entries or self._closed:
                event.set()

    # -- the paper's postMessage / fetchMessage ----------------------------------------------

    def _put(self, run: list[tuple[str, int]], size: int, probe: bool) -> bool:
        """Enqueue a run of ``size`` bytes if it fits (an empty queue takes it
        whole); the regimes' common core, which never waits."""
        if self._closed:
            raise QueueClosedError("post on closed queue")
        entries = self._entries
        if entries and self._bytes + size > self._capacity:
            if not probe:
                self.dropped += 1
            return False
        entries.extend(run)
        self._bytes += size
        self.posted += len(run)
        depth = len(entries)
        if depth > self.watermark:
            self.watermark = depth
            if self.watermark_gauge is not None:
                self.watermark_gauge.value = float(depth)
        if self.record_waits:
            self._post_times.extend([time.perf_counter()] * len(run))
        if self.depth_gauge is not None:
            self.depth_gauge.value = float(depth)
        return True

    def _wake_consumers(self) -> None:
        # caller holds the lock of a shared queue
        if self._blocked_consumers:
            self._not_empty.notify()  # one consumer per channel end
        for event in self._waiters:
            event.set()

    def post_message(self, msg_id: str, size: int, *, timeout: float | None = None) -> bool:
        """Enqueue; returns False if the message had to be dropped.

        Implements Figure 6-9 under the module-level timeout contract.
        """
        probe = timeout is not None and timeout <= 0
        if self.owned:
            return self._put([(msg_id, size)], size, probe)
        wait_for = self._drop_timeout if timeout is None else timeout
        with self._lock:
            if wait_for > 0 and not self._closed and not self._has_room(size):
                # a monotonic deadline: a notify that freed too little room
                # (or a spurious wakeup) must not burn the whole budget
                deadline = time.monotonic() + wait_for
                self._blocked_producers += 1
                try:
                    while not self._has_room(size) and not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._not_full.wait(remaining)
                finally:
                    self._blocked_producers -= 1
            posted = self._put([(msg_id, size)], size, probe)
            if posted:
                self._wake_consumers()
            return posted

    def post_run(self, entries: list[tuple[str, int]]) -> bool:
        """Post a run of ``(msg_id, size)`` entries whole, never waiting for room.

        For a shared queue (the ingress carriers).  ``True``: enqueued in
        order (an empty queue takes the run whole).  ``False``: no room,
        ``dropped`` not counted (the probe contract).  A post that found
        the lock held counts in :attr:`lock_waits`.  Raises
        :class:`QueueClosedError` on a closed queue.
        """
        lock = self._lock
        if not lock.acquire(blocking=False):
            lock.acquire()
            self.lock_waits += 1
        try:
            posted = self._put(entries, sum([entry[1] for entry in entries]), True)
            if posted:
                self._wake_consumers()
            return posted
        finally:
            lock.release()

    def _take(self) -> str | None:
        """Dequeue the oldest id, or None; the regimes' common core."""
        if not self._entries:
            if self._closed:
                raise QueueClosedError("fetch on closed, drained queue")
            return None
        msg_id, size = self._entries.popleft()
        self._bytes -= size
        self.fetched += 1
        if self.record_waits:
            times = self._post_times
            self.last_post_at = times.popleft() if times else None
        if self.depth_gauge is not None:
            self.depth_gauge.value = float(len(self._entries))
        return msg_id

    def pass_through(self) -> bool:
        """Count a message handed past this queue as posted and fetched.

        False, counting nothing, unless the queue is open and empty.
        """
        if self._entries or self._closed:
            return False
        self.posted += 1
        self.fetched += 1
        return True

    def fetch_message(self, timeout: float | None = 0.0) -> str | None:
        """Dequeue the oldest id; None on timeout/empty.

        ``timeout=None`` blocks until a message arrives or the queue
        closes; ``0.0`` polls.  An owned queue never waits: only its own
        thread could bring the message.
        """
        if self.owned:
            return self._take()
        with self._lock:
            if (timeout is None or timeout > 0) and not self._entries and not self._closed:
                self._blocked_consumers += 1
                try:
                    if timeout is None:
                        while not self._entries and not self._closed:
                            self._not_empty.wait()
                    else:
                        self._not_empty.wait(timeout)
                finally:
                    self._blocked_consumers -= 1
            msg_id = self._take()
            if msg_id is not None and self._blocked_producers:
                # sizes vary: the room one producer cannot use may fit another's
                self._not_full.notify_all()
            return msg_id

    def drain(self) -> list[str]:
        """Remove and return every queued id (used by BB/KB teardown)."""
        with self._lock:
            ids = [msg_id for msg_id, _ in self._entries]
            self._entries.clear()
            self._bytes = 0
            self._post_times.clear()
            if self.depth_gauge is not None:
                self.depth_gauge.value = 0.0
            self._not_full.notify_all()
            return ids

    def close(self) -> None:
        """No further posts; fetch drains what remains, then raises."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
            for event in self._waiters:
                event.set()

    # -- state reading ---------------------------------------------------------------

    def snapshot_state(self) -> tuple[tuple[tuple[str, int], ...], bool, int, int]:
        """Freeze ``(entries, closed, producers, consumers)``, comparably.

        What the reconfiguration tests compare before and after a refused
        batch.  Counters (posted/fetched/dropped) are observability, not
        state, and are deliberately left out.
        """
        with self._lock:
            return (
                tuple(self._entries),
                self._closed,
                self.producer_count,
                self.consumer_count,
            )
