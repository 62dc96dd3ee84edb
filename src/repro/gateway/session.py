"""One gateway session: a deployed stream plus its admission and egress glue.

A :class:`GatewaySession` binds a ``Content-Session`` routing key to a
deployed :class:`~repro.runtime.stream.RuntimeStream` and owns the two
boundary crossings the data plane needs:

* **admission** (event-loop thread → runtime): :meth:`offer` admits a
  *run* of parsed messages (consecutive frames of this session in a read)
  with one room check, one
  :meth:`~repro.runtime.message_queue.MessageQueue.post_run` of all
  their ids and one pump wake.  Each message's ``HeaderMap.origin``
  names its connection and admission stamp; no header field does.
  The session is *bounded*: a run that would take its pool past
  ``ingress_limit`` resident messages reports ``FULL`` and the
  caller parks — which, because the caller is the connection the frame
  came in on, pauses its socket reads and pushes the backpressure onto
  the client's TCP window.  A park that outlives its budget is **shed**
  (:meth:`shed`), so the refusal lands in the drop statistics and the
  conservation ledger stays balanced.  A held ingress lock refuses
  nothing: the post waits it out, and nobody holds it for long.
* **egress** (runtime → event-loop thread): whatever may bring the
  session work — an admission, a commit, a supervisor retry coming due
  — marks it *ready* on the gateway's :class:`EgressPump`, whose cycles
  run on the event loop.

Every session is stepped by the pump with an
:class:`~repro.runtime.scheduler.InlineScheduler`: its **share** of a
cycle is ``pump_retries`` and ``InlineScheduler.pump`` for at most
:data:`PUMP_QUANTUM` worklist rounds; the cycle then collects.  Every
channel of its stream but the ingress is single-owner
(:mod:`repro.runtime.message_queue`), touched only under the stream's
one lock, which the pump takes per view visit and ``collect`` and
``pump_retries`` for their whole call.  *Where* the share runs is the composition's property, not the
caller's.  A composition that can only hold cooperative streamlets (see
:attr:`~repro.runtime.streamlet.Streamlet.cooperative`) runs its share
on the loop, inside the cycle.  Any other runs it on the pump's
executor, one share in flight per session, because a step that waits
on the event loop would silence every session; the cycle that follows
its landing collects, syncs the ledger and sends, all on the loop, as
for any other session.

Admission (``offer`` / ``shed``) and the pump's cycles run on one
thread, the gateway's event loop, so an on-loop message goes from read
to write without a thread switch.  Until :meth:`EgressPump.bind` hands
it that loop, the pump cycles on a private loop of its own and
admissions come from other threads; a cycle touches the stream only
through ``pump_retries``, ``pump`` and ``collect``, each of which takes
the stream's lock.  Admission never does: it posts under the ingress
queue's own lock, so the loop never waits behind an off-loop share.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from types import SimpleNamespace

from repro.errors import QueueClosedError
from repro.faults.invariant import ConservationReport, check_conservation
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_parts
from repro.runtime.stream import RuntimeStream

#: offer outcomes
ADMITTED = "admitted"
FULL = "full"          # nothing admitted; session at its ingress bound
SHED = "shed"          # admitted and immediately dropped into the ledger

#: worklist rounds a session's share may run per cycle (each round moves
#: up to one scheduler batch per input port); what is left re-marks the
#: session, so a flooded session delays the others' deliveries by one
#: quantum, not by a whole ``ingress_limit`` of backlog
PUMP_QUANTUM = 4


@dataclass
class SessionStats:
    """Gateway-boundary counters for one session (runtime stats live on the stream)."""

    frames_in: int = 0
    frames_out: int = 0
    parked: int = 0
    shed: int = 0
    #: runs whose ingress post found the queue's lock held and waited
    contended: int = 0
    #: egress frames with no live connection to deliver to
    orphans: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def inc(self, name: str, n: int = 1) -> None:
        """Atomically bump one counter."""
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def snapshot(self) -> dict[str, int]:
        """A consistent copy of every counter."""
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "_lock"}


def serve_forever(loop: asyncio.AbstractEventLoop) -> None:
    """Run ``loop`` until it is stopped, then close it: a loop thread's body."""
    try:
        loop.run_forever()
    finally:
        loop.close()


class EgressPump:
    """The egress stage: cycles on one event loop, for every attached session.

    :meth:`mark_ready` adds a session to the ready set, which only the
    loop's thread touches (other threads go through
    ``call_soon_threadsafe``); the first mark of a loop iteration
    schedules one drain, which runs a **cycle** over the set:

    1. per ready session — run its share (pump supervisor retries, step
       the stream for its quantum, re-hook the waiter), ``collect()``,
       arm a ``call_at`` for the earliest retry the supervisor still
       holds, and mirror the counter deltas into the session's ledger if
       anything was delivered.  An off-loop session's share goes to the
       executor instead: the cycle collects what its last share moved
       and submits the next one.  A mark that arrives while a share runs
       is remembered, and the landing of a share that moved something
       or missed a mark marks the session again;
    2. **one** ``ledger.flush()`` for the whole cycle (group commit):
       every delivered count is on disk, per the fsync policy, before
       any frame of the cycle leaves;
    3. serialise, then hand every frame to :attr:`bridge` in one call
       (frames count as ``orphans`` while no bridge is installed).

    Work is O(ready sessions); an idle stage runs nothing.  Until
    :meth:`bind` hands it the gateway's loop, the pump runs a private one
    in a thread (``gw-egress``) from the first :meth:`attach` to the last
    :meth:`detach`.  The executor lives as long as an off-loop session
    is attached.  It has no ceiling of its own: a thread starts only when
    no started one is idle, so with one share in flight per session its
    threads stay near the number of off-loop sessions, and no session
    that may block ever waits behind another one's share.
    """

    def __init__(self):
        #: ``bridge(frames)`` with ``frames`` a list of ``(session,
        #: conn_id | None, (head, payload))``; called on the loop's thread
        self.bridge = None
        #: exceptions contained inside cycles (see ``egress_fault`` events)
        self.faults = 0
        self._sessions: set[GatewaySession] = set()
        # (loop, ident of its thread), None before an attach
        self._on: tuple[asyncio.AbstractEventLoop, int] | None = None
        self._private: threading.Thread | None = None  # a private loop's thread
        self._executor: ThreadPoolExecutor | None = None
        # the loop's thread only: sessions to cycle, and retry wakeups
        self._ready: set[GatewaySession] = set()
        self._timers: dict[GatewaySession, asyncio.TimerHandle] = {}
        # guards membership and the switch of loops; never held while
        # waiting on a loop (only while joining a private loop's thread)
        self._membership = threading.Lock()
        self._cycles = 0
        self._delivering_cycles = 0
        self._sessions_delivered = 0
        self._frames = 0
        self._busy_seconds = 0.0
        # how long the stage has had sessions: closed spells, and the open one's start
        self._served_seconds = 0.0
        self._served_since = 0.0

    # -- membership (any thread) -------------------------------------------------------

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Run every later cycle on ``loop``; call from the thread running it.

        A private loop hands its sessions over: it is stopped, its thread
        joined, and every session is marked ready on ``loop``.
        """
        with self._membership:
            if self._private is not None:
                self._end_private()
            self._switch(loop, threading.get_ident())
            for session in self._sessions:
                self._mark(session)

    def attach(self, session: GatewaySession) -> None:
        """Start serving ``session``; starts a private loop if none is bound."""
        with self._membership:
            if self._on is None:
                loop = asyncio.new_event_loop()
                self._private = threading.Thread(
                    target=serve_forever, args=(loop,), name="gw-egress", daemon=True
                )
                self._private.start()
                self._switch(loop, self._private.ident)
            if session.stepped_by == "executor" and self._executor is None:
                self._executor = ThreadPoolExecutor(sys.maxsize, "gw-step")
            if not self._sessions:
                self._served_since = time.monotonic()
            self._sessions.add(session)
        self.mark_ready(session)

    def detach(self, session: GatewaySession) -> None:
        """Stop serving ``session``.

        Returns once no cycle can touch the session or submit a share of
        it — at once on the loop's thread, where no cycle is running;
        after one turn of the loop from any other.  The last detach ends
        a private loop.  The last off-loop session's detach then shuts
        the executor down, which waits out a share in flight; the lock
        is not held for that wait, and no cycle submits to the executor
        any more.
        """
        executor = None
        with self._membership:
            if session not in self._sessions:
                return
            self._sessions.remove(session)
            if self._executor is not None and not any(
                other.stepped_by == "executor" for other in self._sessions
            ):
                executor, self._executor = self._executor, None
            if not self._sessions:
                self._served_seconds += time.monotonic() - self._served_since
                if self._private is not None:
                    self._end_private()
            on = self._on
        if on is not None and threading.get_ident() != on[1]:
            self._turn(on[0])
        if executor is not None:
            executor.shutdown()

    @staticmethod
    def _turn(loop: asyncio.AbstractEventLoop) -> None:
        """Wait until ``loop`` has finished the callback it is running."""
        turn: concurrent.futures.Future = concurrent.futures.Future()
        try:
            loop.call_soon_threadsafe(turn.set_result, None)
        except RuntimeError:  # the loop is closed: nothing cycles on it
            return
        while not turn.done() and loop.is_running():
            concurrent.futures.wait((turn,), 0.05)

    def mark_ready(self, session: GatewaySession) -> None:
        """Queue ``session`` for the next cycle (any thread)."""
        on = self._on
        if on is None:
            return  # nothing attached
        if threading.get_ident() == on[1]:
            self._mark(session)
        else:
            with contextlib.suppress(RuntimeError):  # a private loop ended with its last session
                on[0].call_soon_threadsafe(self._mark, session)

    def _switch(self, loop: asyncio.AbstractEventLoop, owner: int) -> None:
        """Cycle on ``loop``; the last loop's ready set and timers never run again.

        A share in flight lands on the new loop: its landing marks the
        session there.
        """
        self._on, self._ready, self._timers = (loop, owner), set(), {}

    def _end_private(self) -> None:
        """Stop the private loop and join its thread (under the membership lock)."""
        loop, _owner = self._on
        loop.call_soon_threadsafe(loop.stop)
        self._private.join()
        self._on = self._private = None

    # -- the loop's thread ---------------------------------------------------------------

    def _mark(self, session: GatewaySession) -> None:
        if session in self._sessions:
            ready = self._ready
            if not ready:
                self._on[0].call_soon(self._drain)
            ready.add(session)

    def _retry_due(self, session: GatewaySession) -> None:
        self._timers.pop(session, None)
        self._mark(session)

    def _arm(self, session: GatewaySession) -> None:
        """Mark ``session`` again when its supervisor's next retry is due."""
        due = session.supervisor.next_due()
        if due is None:
            return
        loop = self._on[0]
        when = loop.time() + due - session.stream._clock.now()
        timer = self._timers.get(session)
        if timer is not None:
            if timer.when() <= when:
                return
            timer.cancel()
        self._timers[session] = loop.call_at(when, self._retry_due, session)

    def _drain(self) -> None:
        ready, self._ready = self._ready, set()
        started = time.monotonic()
        try:
            self._cycle(ready)
        except Exception as exc:  # the commit or the bridge failed
            self._fault(ready, exc)
        finally:
            self._busy_seconds += time.monotonic() - started
            self._cycles += 1

    def _off_loop(self, session: GatewaySession) -> list[MimeMessage]:
        """An off-loop session's part of a cycle: collect, then submit a share.

        The loop collects, never a share: the single-owner egress has one
        thread at a time, and whatever is collected leaves in this
        cycle.  While a share runs the cycle only remembers the mark.
        """
        share = session._share
        failure = None
        if share is not None:
            if not share.done():
                session._again = True
                if not share.done():  # else its landing may have read no mark
                    return []
            session._share = None
            failure = share.exception()
            if failure is not None:
                self._fault((session,), failure)  # no share until the next mark
        delivered = session.stream.collect()
        executor = self._executor
        if failure is None and executor is not None:
            session._again = False
            session._share = share = executor.submit(session._step)
            share.add_done_callback(partial(self._landed, session))
        return delivered

    def _landed(self, session: GatewaySession, share: concurrent.futures.Future) -> None:
        """A share finished: mark its session if the next cycle has work to do."""
        if session._again or share.exception() is not None or share.result():
            self.mark_ready(session)

    def _cycle(self, ready: set[GatewaySession]) -> None:
        batches = []
        ledgers = set()
        sessions = self._sessions
        for session in ready:
            if session not in sessions:
                continue  # detached since it was marked
            try:
                if session.stepped_by == "executor":
                    delivered = self._off_loop(session)
                else:
                    session._step()
                    delivered = session.stream.collect()
                if session.supervisor is not None:
                    self._arm(session)
                if not delivered:
                    continue
                # one pickup stamp per session and cycle, taken before the
                # ledger commit: each message's delivery component covers
                # the commit and its wait behind earlier frames of the cycle
                picked = time.perf_counter()
                if session.ledger is not None:
                    session.sync_ledger()
                    ledgers.add(session.ledger)
            except QueueClosedError:
                continue  # the stream ended under us: nothing left to deliver
            except Exception as exc:
                self._fault((session,), exc)
                continue
            batches.append((session, delivered, picked))
        # ack durability: the delivered counts are in the ledger — and on
        # disk, per the fsync policy — *before* any echo frame leaves, so
        # an acked message is never unaccounted
        for ledger in ledgers:
            ledger.flush()
        frames: list[tuple[GatewaySession, str | None, tuple[bytes, bytes]]] = []
        for session, delivered, picked in batches:
            try:
                session._serialise(delivered, picked, frames)
            except Exception as exc:
                self._fault((session,), exc)
        if not frames:
            return
        self._delivering_cycles += 1
        self._sessions_delivered += len(batches)
        self._frames += len(frames)
        bridge = self.bridge
        if bridge is None:
            for session, _conn_id, _frame in frames:
                session.stats.inc("orphans")
        else:
            bridge(frames)

    def stats(self) -> dict:
        """The pump's own figures, for ``introspect``.

        ``sessions_per_cycle`` / ``frames_per_cycle`` average over the
        cycles that delivered something — how many sessions and frames
        shared one ledger commit and one bridge call; ``busy_share`` is
        cycle time over the time the stage has had sessions.
        """
        delivering = self._delivering_cycles
        served = self._served_seconds
        if self._sessions:
            served += time.monotonic() - self._served_since
        return {
            "cycles": self._cycles,
            "delivering_cycles": delivering,
            "sessions_per_cycle": self._sessions_delivered / delivering if delivering else 0.0,
            "frames_per_cycle": self._frames / delivering if delivering else 0.0,
            "busy_share": min(1.0, self._busy_seconds / served) if served > 0 else 0.0,
            "egress_faults": self.faults,
        }

    def _fault(self, sessions, exc: Exception) -> None:
        """Contain one failure: the pump keeps serving everyone else."""
        self.faults += 1
        for session in sessions:
            tm = session.stream.tm
            if tm is not None:
                tm.recorder.record(
                    "egress_fault", stream=session.stream.name,
                    session=session.key, error=repr(exc),
                )


class GatewaySession:
    """Routes one ``Content-Session`` key into one deployed stream.

    ``scheduler`` is the :class:`~repro.runtime.scheduler.InlineScheduler`
    that steps the stream, inside the session's share of a pump cycle:
    on the loop, or with ``off_loop=True`` on the pump's executor
    (``stepped_by`` reads ``"pump"`` or ``"executor"``).  ``requested``
    is the scheduler name the deployer asked for — what ``describe``
    reports as ``scheduler`` and what the ledger records.
    """

    def __init__(
        self,
        key: str,
        stream: RuntimeStream,
        scheduler,
        *,
        ingress_limit: int = 256,
        off_loop: bool = False,
        requested: str = "inline",
        telemetry=None,
        ledger=None,
        pump: EgressPump | None = None,
    ):
        self.key = key
        self.stream = stream
        self.scheduler = scheduler
        #: who runs the share: the loop (``"pump"``) or the pump's executor
        self.stepped_by = "executor" if off_loop else "pump"
        #: the engine flavour that was asked for (the ledger's value)
        self.scheduler_kind = requested
        self.ingress_limit = ingress_limit
        self.stats = SessionStats()
        #: durable state plane: counter deltas mirror here per pump cycle
        #: (None without a store)
        self.ledger = ledger
        #: a recovery Supervisor, when the gateway runs with supervision
        self.supervisor = None
        self._mirror_lock = threading.Lock()
        #: the report the ledger holds so far: the last sync's read
        self._last_sync = ConservationReport()
        #: end-to-end latency histogram (None disables the ingress stamp)
        self._e2e_hist = (
            telemetry.gateway_e2e_histogram() if telemetry is not None else None
        )
        self._delivery_hist = (
            telemetry.gateway_delivery_histogram() if telemetry is not None else None
        )
        self._closed = False
        #: an off-loop share on the executor, and whether the session was
        #: marked while it ran (the pump's loop thread writes both; the
        #: share's landing reads the mark)
        self._share: concurrent.futures.Future | None = None
        self._again = False
        #: the egress stage serving this session: the gateway's shared
        #: pump, or a private one for a standalone session
        self.pump = pump if pump is not None else EgressPump()
        #: what the session hooks onto its queues: a waiter whose ``set()``
        #: marks it ready
        self._waiter = SimpleNamespace(set=partial(self.pump.mark_ready, self))
        # a RESUME, a committed reconfiguration or a supervisor retry
        # scheduled by a fault handler posts nothing: without this a
        # message parked behind a paused streamlet, an egress channel the
        # commit swapped, or a retry's clock would never be looked at again
        stream.add_wakeup_listener(self._waiter.set)
        self.pump.attach(self)

    # -- admission (event-loop thread only) -----------------------------------------

    @property
    def resident(self) -> int:
        """Messages of this session currently alive in the pool."""
        return len(self.stream.pool)

    @property
    def room(self) -> int:
        """How many more messages the session admits before its ingress bound."""
        return self.ingress_limit - len(self.stream.pool)

    def offer(self, *messages: MimeMessage, conn_id: str | None = None) -> str:
        """Admit a run of messages, never waiting for room; see module docstring.

        One room check: a run that does not fit admits nothing (``FULL``).
        Otherwise every message is pooled, then given one origin —
        ``conn_id`` and an admission stamp taken just before the post —
        and the ids are posted in one :meth:`~repro.runtime.message_queue.
        MessageQueue.post_run`: ``ADMITTED``, or ``SHED`` if the edge
        queue is full.
        """
        if self._closed:
            raise QueueClosedError(f"session {self.key} is closed")
        if len(messages) > self.room:
            return FULL
        admit = self.stream.admit
        entries = [admit(message) for message in messages]
        origin = (conn_id, time.perf_counter() if self._e2e_hist is not None else None)
        for message in messages:
            message.headers.origin = origin
        queue = self._ingress_channel().queue
        waits = queue.lock_waits
        posted = queue.post_run(entries)
        if queue.lock_waits != waits:  # or, rarely, another poster's wait
            self.stats.inc("contended")
        if not posted:  # the effectively-unbounded edge queue is full — treat as a shed
            self.stream._release_dropped([msg_id for msg_id, _ in entries])
            self.stats.inc("shed", len(entries))
            return SHED
        self.stream.stats.inc("messages_in", len(entries))
        self.stats.inc("frames_in", len(entries))
        self._waiter.set()  # the pump drives the stream
        return ADMITTED

    def shed(self, *messages: MimeMessage) -> None:
        """Give up on a ``FULL`` run: shed it into the conservation ledger."""
        for message in messages:
            self.stream.shed(message)
        self.stats.inc("shed", len(messages))

    def _ingress_channel(self):
        for channel in self.stream.ingress.values():
            return channel
        raise QueueClosedError(f"stream {self.stream.name} exposes no ingress port")

    # -- the durable mirror -----------------------------------------------------------

    def attach_supervisor(self, supervisor) -> None:
        """Adopt a recovery supervisor; its retries pump with the egress pump."""
        self.supervisor = supervisor

    def sync_ledger(self) -> None:
        """Mirror the stream's conservation terms into the ledger as deltas.

        Writes ``current - last sync``, both read by
        :func:`~repro.faults.invariant.check_conservation`, whose read
        order keeps the folded in-flight tally non-negative.  Callable
        from any thread.
        """
        if self.ledger is None:
            return
        with self._mirror_lock:
            current = check_conservation(self.stream)
            delta = current - self._last_sync
            self.ledger.counters(
                self.key,
                admitted=delta.admitted,
                delivered=delta.delivered,
                absorbed=delta.absorbed,
                dead_letters=delta.dead_letters,
                dropped=delta.dropped,
            )
            self._last_sync = current

    # -- egress (the pump's loop) ------------------------------------------------------------

    def _step(self) -> int:
        """This session's share of a pump cycle; returns the moves made.

        Steps the stream for :data:`PUMP_QUANTUM` rounds; the cycle then
        collects, so the exits need no waiter.  After a step that moved
        something it hooks the ready waiter on the ingress queues
        (reconfiguration may swap them; ``add_waiter`` is idempotent),
        where a queue still holding input sets it at once — how what a
        spent quantum left behind gets its next cycle.  Input a paused
        stream cannot take would re-mark it every cycle and spin the
        loop; RESUME wakes it through the wakeup listener.
        """
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.pump_retries()  # first: the step below moves them on
        moved = self.scheduler.pump(max_rounds=PUMP_QUANTUM)
        if moved:
            for channel in self.stream.ingress.values():
                channel.queue.add_waiter(self._waiter)
        return moved

    def _serialise(self, delivered: list[MimeMessage], picked: float, out: list) -> None:
        """Read each message's origin, observe latency, append wire frames to ``out``.

        A frame leaves as its ``(head, payload)`` pair: whether the two
        are worth joining is the writer's call, which sees the whole batch.
        """
        e2e_hist, delivery_hist = self._e2e_hist, self._delivery_hist
        for message in delivered:
            conn_id, admitted_at = message.headers.origin or (None, None)
            if admitted_at is not None and e2e_hist is not None:
                now = time.perf_counter()
                e2e_hist.observe(now - admitted_at)
                if delivery_hist is not None:
                    # same instant as the e2e observation, so the
                    # component set sums to what e2e measures
                    delivery_hist.observe(now - picked)
            out.append((self, conn_id, serialize_parts(message)))
        self.stats.inc("frames_out", len(delivered))

    # -- lifecycle ----------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def describe(self) -> dict:
        """A JSON-ready summary for the control plane."""
        return {
            "session": self.key,
            "stream": self.stream.name,
            "epoch": self.stream.epoch,
            "resident": self.resident,
            "ingress_limit": self.ingress_limit,
            "scheduler": self.scheduler_kind,
            "stepped_by": self.stepped_by,
            **self.stats.snapshot(),
        }

    def close(self) -> None:
        """Leave the pump, wait out a share in flight, end the stream (idempotent).

        A close is *not* an undeploy in the ledger's eyes: the final
        counter sync lands, but no ``undeployed`` record — a session
        that merely stopped (or whose process died right after) is
        still recoverable.
        """
        if self._closed:
            return
        self._closed = True
        self.pump.detach(self)  # after this no cycle collects or submits a share
        share = self._share
        if share is not None:
            # wait it out: what it moved to egress, no cycle collects, and
            # the stream's end counts it among the end drops
            failure = share.exception()
            if failure is not None:
                self.pump._fault((self,), failure)
        self.stream.remove_wakeup_listener(self._waiter.set)
        self.stream.end()
        if self.ledger is not None:
            self.sync_ledger()  # capture the end_drops the stream just took
            self.ledger.flush()
