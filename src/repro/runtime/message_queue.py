"""The MessageQueue base class (section 6.2, Figures 6-3 and 6-9).

A bounded FIFO of ``(message_id, size)`` entries guarded by a pair of
condition variables over one lock — the Python rendering of the Java
``synchronized`` + ``wait``/``notify`` design, split so producers and
consumers stop waking each other: posts signal ``not_empty`` (consumer
side), fetches signal ``not_full`` (producer side).  Capacity is
accounted in **bytes** (the MCL ``buffer`` attribute is in KB); an empty
queue always admits one message so a single oversized message cannot
deadlock a stream.

``post_message`` implements the Figure 6-9 policy.  The timeout contract
is explicit:

``timeout=None``
    Wait up to the queue's configured ``drop_timeout`` for room, then
    drop: slow downstream streamlets must not stall the whole stream
    (section 6.7).  A failed post counts in ``dropped``.
``timeout > 0``
    Same, with an explicit budget overriding the configured one.  A
    failed post counts in ``dropped``.
``timeout=0``
    A pure non-blocking *probe*: never waits and never counts
    ``dropped`` — the caller owns the message's accounting.  This is the
    form schedulers use mid-step and mid-stall-retry, where the retry
    loop (not the queue) decides when the Figure 6-9 budget is spent and
    books the drop exactly once.

Consumers that cannot block on a single queue (a scheduler worker
multiplexing several input channels) register a ``threading.Event`` via
:meth:`add_waiter`; every successful post sets it, giving the worker an
edge-triggered "one of your inputs has traffic" signal without polling.

Producers that must never block at all — an asyncio event loop posting
from the gateway's data plane while scheduler workers hold the lock —
use :meth:`try_post`, which acquires the lock non-blockingly, posts a
whole run of ids at once and reports contention as a distinct outcome
instead of waiting it out.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import QueueClosedError


class MessageQueue:
    """Bounded producer/consumer queue of message ids."""

    def __init__(self, capacity_bytes: int = 100 * 1024, *, drop_timeout: float = 0.0):
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        if drop_timeout < 0:
            raise ValueError(f"drop_timeout must be >= 0, got {drop_timeout}")
        self._capacity = capacity_bytes
        self._drop_timeout = drop_timeout
        self._entries: deque[tuple[str, int]] = deque()
        self._bytes = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        #: compat alias: blocked *producers* wait here (tools and tests
        #: that poke the queue wake them through this name)
        self._cond = self._not_full
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
        #: deepest the queue has ever been, in entries (always maintained;
        #: an int compare per post is within the no-telemetry budget)
        self.watermark = 0
        #: when True, post times ride in a parallel deque so every fetch
        #: can report its queue wait (set by observed channels;
        #: the entry tuples stay ``(msg_id, size)`` for snapshot/restore)
        self.record_waits = False
        self._post_times: deque[float] = deque()
        #: raw ``perf_counter`` post time of the most recent fetch (None
        #: when waits are not recorded); single-consumer channels read it
        #: post-fetch and subtract it from their own clock sample, so the
        #: queue never pays a second ``perf_counter`` call on the claim
        self.last_post_at: float | None = None
        #: optional pre-bound gauges (plain stores under the queue lock)
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

    # -- queue state -------------------------------------------------------------------

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
        with self._lock:
            return len(self._entries)

    @property
    def pending_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def is_empty(self) -> bool:
        """True when nothing is queued.

        Deliberately lock-free (a deque truthiness read is atomic under
        the GIL), so it may be stale by one racing post/fetch.  Callers
        use it only to *skip optional work* — the schedulers probe it
        before paying the mutex round-trip of a speculative batched
        claim — never as a correctness guarantee.
        """
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

    def remove_waiter(self, event: threading.Event) -> None:
        """Deregister a consumer wakeup event (idempotent)."""
        with self._lock:
            try:
                self._waiters.remove(event)
            except ValueError:
                pass

    def _signal_waiters(self) -> None:
        # caller holds self._lock
        for event in self._waiters:
            event.set()

    # -- the paper's postMessage / fetchMessage ----------------------------------------------

    def post_message(self, msg_id: str, size: int, *, timeout: float | None = None) -> bool:
        """Enqueue; returns False if the message had to be dropped.

        Implements Figure 6-9 under the module-level timeout contract:
        ``None`` waits the configured ``drop_timeout``, a positive value
        waits that long instead, and ``0`` is a non-blocking probe that
        leaves the ``dropped`` counter to the caller.
        """
        probe = timeout is not None and timeout <= 0
        wait_for = self._drop_timeout if timeout is None else timeout
        with self._lock:
            if self._closed:
                raise QueueClosedError("post on closed queue")
            if not self._has_room(size):
                # wait on a monotonic deadline: a notify that freed too
                # little room (or a spurious wakeup) must not burn the
                # whole budget, so keep waiting for the time that remains
                if wait_for > 0:
                    deadline = time.monotonic() + wait_for
                    while not self._has_room(size) and not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._not_full.wait(remaining)
                if self._closed:
                    raise QueueClosedError("queue closed while waiting to post")
                if not self._has_room(size):
                    if not probe:
                        self.dropped += 1
                    return False
            self._entries.append((msg_id, size))
            self._bytes += size
            self.posted += 1
            # attribution bookkeeping, inlined: this is the hottest lock
            # region in the runtime, so no helper-call overhead
            depth = len(self._entries)
            if depth > self.watermark:
                self.watermark = depth
                if self.watermark_gauge is not None:
                    self.watermark_gauge.value = float(depth)
            if self.record_waits:
                self._post_times.append(time.perf_counter())
            if self.depth_gauge is not None:
                self.depth_gauge.value = float(depth)
            # one consumer per channel end: a targeted notify suffices
            self._not_empty.notify()
            self._signal_waiters()
            return True

    def try_post(self, entries: list[tuple[str, int]]) -> bool | None:
        """Lock-contention-free probe post of a run, for event-loop callers.

        ``post_message(timeout=0)`` never waits on a *condition*, but it
        does block on the queue lock — and a scheduler worker holds that
        lock across notify storms on the wakeup conditions, which is an
        unbounded stall from an asyncio event loop's point of view.  This
        fast path refuses to block at all; a run of ``(msg_id, size)``
        entries is one post (one notify; an empty queue takes it whole):

        * ``True`` — enqueued, in order (waiters signalled as usual);
        * ``False`` — no room; ``dropped`` is **not** counted (the probe
          contract: the caller owns the messages' accounting);
        * ``None`` — the lock was contended; the caller should retry on a
          later loop tick.  Nothing happened.

        Raises :class:`QueueClosedError` on a closed queue, like
        ``post_message``.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            if self._closed:
                raise QueueClosedError("post on closed queue")
            size = sum([entry[1] for entry in entries])
            if not self._has_room(size):
                return False
            self._entries.extend(entries)
            self._bytes += size
            self.posted += len(entries)
            depth = len(self._entries)
            if depth > self.watermark:
                self.watermark = depth
                if self.watermark_gauge is not None:
                    self.watermark_gauge.value = float(depth)
            if self.record_waits:
                self._post_times.extend([time.perf_counter()] * len(entries))
            if self.depth_gauge is not None:
                self.depth_gauge.value = float(depth)
            self._not_empty.notify()
            self._signal_waiters()
            return True
        finally:
            self._lock.release()

    def fetch_message(self, timeout: float | None = 0.0) -> str | None:
        """Dequeue the oldest id; None on timeout/empty.

        ``timeout=None`` blocks until a message arrives or the queue
        closes; ``0.0`` polls.
        """
        with self._lock:
            if timeout is None:
                while not self._entries and not self._closed:
                    self._not_empty.wait()
            elif timeout > 0 and not self._entries and not self._closed:
                self._not_empty.wait(timeout)
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
            # room freed: wake every blocked producer — sizes vary, so the
            # space one post cannot use may fit another's message
            self._not_full.notify_all()
            return msg_id

    def wait_for_room(self, size: int, timeout: float) -> bool:
        """Block until a ``size``-byte post *might* succeed (or timeout).

        One bounded wait on the producer condition; returns True when room
        is available at wakeup.  Purely advisory — the caller must still
        post (room can vanish between the wakeup and the post), which is
        why the stall-retry loop pairs this with ``timeout=0`` probes.
        """
        with self._lock:
            if self._closed:
                return False
            if self._has_room(size):
                return True
            self._not_full.wait(timeout)
            return not self._closed and self._has_room(size)

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
            self._signal_waiters()

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
