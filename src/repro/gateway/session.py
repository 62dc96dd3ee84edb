"""One gateway session: a deployed stream plus its admission and egress glue.

A :class:`GatewaySession` binds a ``Content-Session`` routing key to a
deployed :class:`~repro.runtime.stream.RuntimeStream` and owns the two
boundary crossings the data plane needs:

* **admission** (the event loop → runtime): :meth:`offer` admits a
  *run* of parsed messages (consecutive frames of this session in a read)
  with one room check, one
  :meth:`~repro.runtime.message_queue.MessageQueue.post_run` of all
  their ids and one pump wake.  Each message's ``HeaderMap.origin``
  names its connection and admission stamp.  A run that would take the
  session past ``ingress_limit`` resident messages reports ``FULL`` and
  the caller parks, pausing its socket reads; a park that outlives its
  budget is **shed** (:meth:`shed`) into the drop statistics.
* **egress** (runtime → the event loop): whatever may bring the
  session work — an admission, a commit, a supervisor retry coming due
  — marks it *ready* on the gateway's :class:`EgressPump`.

Every session is stepped by the pump with an
:class:`~repro.runtime.scheduler.InlineScheduler`: its **share** of a
cycle is ``pump_retries`` and ``InlineScheduler.pump`` for at most
:data:`PUMP_QUANTUM` worklist rounds; the cycle then collects.

**One owner per stream.**  The stream takes no lock: only the pump's
loop touches it, except while the whole stream is *lent* to its one
share in flight.  A composition that can only hold cooperative
streamlets (:attr:`~repro.runtime.streamlet.Streamlet.cooperative`)
runs its share on the loop, inside the cycle, and is never lent; any
other runs it on the pump's executor, since a step that waits on the
loop would silence every session.

* **The loan.**  Before a cycle submits the next share it does all it
  does with the stream: ``collect``, arm the next retry, mirror the
  ledger, admit what was staged.  Until the share lands the loop
  touches nothing of the stream; an :meth:`offer` or :meth:`shed`
  meanwhile is stamped and staged in a loop-side list that counts
  against the room.
* **The recall.**  A caller that needs a lent stream makes an *owner
  call* (:meth:`EgressPump.call`, over some sessions or every one): it
  sets the stream's
  :attr:`~repro.runtime.stream.RuntimeStream.recalled` flag, the share
  returns before its next view visit, and the call runs on the loop in
  the cycle that takes the stream back.  For a session that is not lent
  it runs at once.

Until :meth:`EgressPump.bind` hands it the gateway's loop, the pump
cycles on a private loop of its own, which owns the streams until then.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
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
    #: always 0: an admission waits for nothing (the ``stats`` reply keeps it)
    contended: int = 0
    #: egress frames with no live connection to deliver to
    orphans: int = 0

    def snapshot(self) -> dict[str, int]:
        """A copy of every counter."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def serve_forever(loop: asyncio.AbstractEventLoop) -> None:
    """Run ``loop`` until it is stopped, then close it: a loop thread's body."""
    try:
        loop.run_forever()
    finally:
        loop.close()


def _settle(future: concurrent.futures.Future, fn) -> None:
    """Run ``fn`` and settle ``future`` with what it returned or raised."""
    try:
        result = fn()
    except Exception as exc:
        future.set_exception(exc)
    else:
        future.set_result(result)


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
       anything was delivered.  An off-loop session's share is lent the
       stream on the executor instead (:meth:`_off_loop`); the landing
       of a share that moved something or missed a mark marks the
       session again;
    2. **one** ``ledger.flush()`` for the whole cycle (group commit):
       every delivered count is on disk, per the fsync policy, before
       any frame of the cycle leaves;
    3. serialise, then hand every frame to :attr:`bridge` in one call
       (frames count as ``orphans`` while no bridge is installed).

    Work is O(ready sessions); an idle stage runs nothing.  Until
    :meth:`bind` hands it the gateway's loop, the
    pump runs a private one in a thread (``gw-egress``) from the first
    :meth:`attach` to the last :meth:`detach`.  The executor lives as
    long as an off-loop session is attached.  It has no ceiling of its
    own: a thread starts only when no started one is idle, so with one
    share in flight per session its threads stay near the number of
    off-loop sessions, and no session that may block ever waits behind
    another one's share.
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
        # the loop's thread only: sessions to cycle, retry wakeups, and the
        # owner calls waiting for lent sessions, as (those sessions, over
        # every session?, fn, future); a session such a call covers is not
        # lent again until it has run
        self._ready: set[GatewaySession] = set()
        self._timers: dict[GatewaySession, asyncio.TimerHandle] = {}
        self._calls: list[tuple[frozenset, bool, object, concurrent.futures.Future]] = []
        self._cycles = 0
        self._delivering_cycles = 0
        self._sessions_delivered = 0
        self._frames = 0
        self._busy_seconds = 0.0
        # how long the stage has had sessions: closed spells, and the open one's start
        self._served_seconds = 0.0
        self._served_since = 0.0

    # -- owner calls (any thread) ------------------------------------------------------

    def call(self, fn, *sessions: GatewaySession, every: bool = False) -> concurrent.futures.Future:
        """The owner call: run ``fn()`` on the loop once none of ``sessions`` is lent.

        At once if none is; else each lent one is recalled, and ``fn``
        runs in the cycle that takes the last of them back (the others
        are not lent again until then).  With ``every``, ``sessions`` are
        every attached session, worked out on the loop, and none is lent
        again until ``fn`` has run, one joining meanwhile included.  With
        no loop, ``fn`` runs here.  Returns a future of ``fn``'s result
        (on the loop, await it).
        """
        future: concurrent.futures.Future = concurrent.futures.Future()
        on = self._on
        if on is None:
            _settle(future, fn)
        elif threading.get_ident() == on[1]:
            self._call(fn, sessions, every, future)
        else:
            try:
                on[0].call_soon_threadsafe(self._call, fn, sessions, every, future)
            except RuntimeError:  # a private loop ended with its last session
                _settle(future, fn)
        return future

    def run(self, fn, *sessions: GatewaySession, every: bool = False):
        """:meth:`call`, waiting for ``fn``'s result (on the loop, for none lent).

        A private loop that ``fn`` ended is joined before this returns.
        """
        private, on = self._private, self._on
        future = self.call(fn, *sessions, every=every)
        if not future.done() and on is not None and threading.get_ident() == on[1]:
            raise RuntimeError("an owner call on the loop's thread must be awaited")
        try:
            return future.result()
        finally:
            if private is not None and self._private is not private:
                if private is not threading.current_thread():
                    private.join()

    def _call(self, fn, sessions, every: bool, future: concurrent.futures.Future) -> None:
        covered = frozenset(self._sessions if every else sessions)
        lent = [session for session in covered if session._share is not None]
        if not lent:
            _settle(future, fn)
            return
        for session in lent:
            session.stream.recalled = True
            self._mark(session)  # whichever cycle sees the landing answers
        self._calls.append((covered, every, fn, future))

    def _answer(self, session: GatewaySession) -> None:
        """``session`` is back: run every owner call whose sessions all are."""
        calls, self._calls = self._calls, []
        for call in calls:
            covered, every, fn, future = call
            if any(other._share is not None for other in covered):
                self._calls.append(call)
                continue
            _settle(future, fn)
            # their shares resume with the next cycle
            for other in list(self._sessions) if every else covered:
                if other is not session:
                    self._mark(other)

    # -- membership (any thread; changed on the loop's) ---------------------------------

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Run every later cycle on ``loop``; call from the thread running it.

        A private loop hands its sessions over: it is stopped, its thread
        joined, and every session is marked ready on ``loop``.
        """
        if self._private is not None:
            loop_, _owner = self._on
            loop_.call_soon_threadsafe(loop_.stop)
            self._private.join()
            self._private = None
        # cycle on ``loop``: the private loop's ready set and timers never
        # run again, and a share in flight lands here, marking its session
        self._on, self._ready, self._timers = (loop, threading.get_ident()), set(), {}
        for session in self._sessions:
            self._mark(session)

    def attach(self, session: GatewaySession) -> None:
        """Start serving ``session``; starts a private loop if none is bound."""
        if self._on is None:
            loop = asyncio.new_event_loop()
            self._private = threading.Thread(
                target=serve_forever, args=(loop,), name="gw-egress", daemon=True
            )
            self._private.start()
            self._on, self._ready, self._timers = (loop, self._private.ident), set(), {}
        self.run(partial(self._join, session))

    def _join(self, session: GatewaySession) -> None:
        if session.stepped_by == "executor" and self._executor is None:
            self._executor = ThreadPoolExecutor(sys.maxsize, "gw-step")
        if not self._sessions:
            self._served_since = time.monotonic()
        self._sessions.add(session)
        self._mark(session)

    def detach(self, session: GatewaySession, end=None) -> None:
        """Stop serving ``session``, then run ``end()``: one owner call.

        A share in flight is recalled and lands first, so once this
        returns no cycle touches the session or submits a share of it.
        The last off-loop session's detach shuts the executor down, and
        the last detach ends a private loop; the caller waits for both.
        """
        executor = self.run(partial(self._leave, session, end), session)
        if executor is not None:
            executor.shutdown()

    def _leave(self, session: GatewaySession, end):
        self._sessions.discard(session)
        self._ready.discard(session)
        timer = self._timers.pop(session, None)
        if timer is not None:
            timer.cancel()
        if end is not None:
            end()
        executor = None
        if self._executor is not None and not any(
            other.stepped_by == "executor" for other in self._sessions
        ):
            executor, self._executor = self._executor, None
        if not self._sessions:
            self._served_seconds += time.monotonic() - self._served_since
            if self._private is not None:
                self._on[0].stop()
                self._on = self._private = None
        return executor

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

    def _collect(self, session: GatewaySession) -> tuple[list[MimeMessage], float]:
        """What the loop does with a stream after each step: collect, arm, mirror.

        Returns the delivered messages and their pickup stamp, taken as
        the drain returns, before the arming and the ledger commit: each
        message's delivery component covers both and its wait behind
        earlier frames of the cycle.
        """
        delivered = session.stream.collect()
        picked = time.perf_counter() if delivered else 0.0
        if session.supervisor is not None:
            self._arm(session)
        if delivered and session.ledger is not None:
            session.sync_ledger()
        return delivered, picked

    def _off_loop(self, session: GatewaySession) -> tuple[list[MimeMessage], float]:
        """An off-loop session's part of a cycle: take the stream back, lend it again.

        While a share runs the cycle only remembers the mark.  Once it
        has landed: :meth:`_collect`, admit what was staged, answer the
        owner calls that waited (they see every run offered before them),
        and submit the next share — last, so that until it lands the loop
        has nothing left to do with the stream.
        """
        share = session._share
        failure = None
        if share is not None:
            if not share.done():
                session._again = True
                if not share.done():  # else its landing may have read no mark
                    return [], 0.0
            session._share = None
            failure = share.exception()
            if failure is not None:
                self._fault((session,), failure)  # no share until the next mark
        try:
            delivered, picked = self._collect(session)
            session._unstage()
        finally:
            if self._calls:
                self._answer(session)
        executor = self._executor
        if (
            failure is None and executor is not None and session in self._sessions
            and not any(every or session in covered for covered, every, _f, _r in self._calls)
        ):
            session.stream.recalled = False
            session._again = False
            session._lent_resident = len(session.stream.pool)
            session._share = share = executor.submit(session._step)
            share.add_done_callback(partial(self._landed, session))
        return delivered, picked

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
                    delivered, picked = self._off_loop(session)
                else:
                    session._step()
                    delivered, picked = self._collect(session)
            except QueueClosedError:
                continue  # the stream ended under us: nothing left to deliver
            except Exception as exc:
                self._fault((session,), exc)
                continue
            if not delivered:
                continue
            if session.ledger is not None:
                ledgers.add(session.ledger)
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
                session.stats.orphans += 1
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
    on the loop, or with ``off_loop=True`` on the pump's executor, the
    stream lent to it (``stepped_by`` reads ``"pump"`` or ``"executor"``).
    ``requested`` is the scheduler name the deployer asked for — what
    ``describe`` reports as ``scheduler`` and what the ledger records.
    Everything runs on the pump's loop: :meth:`offer` and :meth:`shed`
    hand themselves to it from another thread, and :meth:`close` is an
    owner call.
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
        #: the share the stream is lent to, in flight on the executor, and
        #: whether the session was marked while it ran (the pump's loop
        #: writes both; the share's landing reads the mark)
        self._share: concurrent.futures.Future | None = None
        self._again = False
        #: ``(run, conn_id, admission stamp, shed)`` offered or shed while
        #: the stream is lent, in order: the cycle that takes the stream
        #: back admits them
        self._staged: list[tuple[tuple[MimeMessage, ...], str | None, float | None, bool]] = []
        #: while lent: the pool's size at the loan, plus the offers staged
        self._lent_resident = 0
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

    # -- admission (the pump's loop) ------------------------------------------------

    @property
    def resident(self) -> int:
        """Messages of this session in the pool (its size at the loan, while
        lent), or staged for it."""
        return len(self.stream.pool) if self._share is None else self._lent_resident

    @property
    def room(self) -> int:
        """How many more messages the session admits before its ingress bound."""
        return self.ingress_limit - self.resident

    def offer(self, *messages: MimeMessage, conn_id: str | None = None) -> str:
        """Admit a run of messages, never waiting for room; see module docstring.

        One room check: a run that does not fit admits nothing (``FULL``).
        Otherwise the run is stamped — the end-to-end clock's start, and
        the post's stamp, so the first queue wait starts there too —
        every message is pooled and given one origin, ``conn_id`` and the
        stamp, and the ids are posted in one ``post_run``: ``ADMITTED``,
        or ``SHED`` if the edge queue is full.  A run offered to a lent
        stream is staged (``ADMITTED``) instead, and admitted so, under
        its stamp, when the stream is back.  Only the pump's loop admits:
        an offer from another thread is handed to it, and waits.
        """
        if self._closed:
            raise QueueClosedError(f"session {self.key} is closed")
        on = self.pump._on
        if on is not None and on[1] != threading.get_ident():  # only the loop admits
            return self.pump.run(partial(self.offer, *messages, conn_id=conn_id))
        if len(messages) > self.room:
            return FULL
        stamp = time.perf_counter() if self._e2e_hist is not None else None
        if self._share is not None:
            self._staged.append((messages, conn_id, stamp, False))
            self._lent_resident += len(messages)
            status = ADMITTED
            self._waiter.set()  # the landing must find its mark
        else:
            status = self._admit(messages, conn_id, stamp)
        if status is ADMITTED:
            self.stats.frames_in += len(messages)
        return status

    def _admit(self, messages, conn_id: str | None, stamp: float | None) -> str:
        """Pool a run, give it one origin and post it."""
        stream = self.stream
        admit = stream.admit
        entries = [admit(message) for message in messages]
        origin = (conn_id, stamp)
        for message in messages:
            message.headers.origin = origin
        if not self._ingress_channel().queue.post_run(entries, stamp):
            # the effectively-unbounded edge queue is full — treat as a shed
            stream._release_dropped([msg_id for msg_id, _ in entries])
            self.stats.shed += len(entries)
            return SHED
        stream.stats.messages_in += len(entries)
        self._waiter.set()  # the pump drives the stream
        return ADMITTED

    def shed(self, *messages: MimeMessage) -> None:
        """Give up on a ``FULL`` run: shed it into the conservation ledger (on the loop)."""
        on = self.pump._on
        if on is not None and on[1] != threading.get_ident():  # only the loop sheds
            return self.pump.run(partial(self.shed, *messages))
        if self._share is not None:
            self._staged.append((messages, None, None, True))
            self._waiter.set()
        else:
            for message in messages:
                self.stream.shed(message)
        self.stats.shed += len(messages)

    def _unstage(self, *, end: bool = False) -> None:
        """The stream is back from its loan: admit and shed what was staged, in order.

        With ``end`` every staged run is shed, the ones offered as well.
        """
        staged, self._staged = self._staged, []
        for messages, conn_id, stamp, shed in staged:
            if shed or end:
                for message in messages:
                    self.stream.shed(message)
                if not shed:
                    self.stats.shed += len(messages)
            else:
                self._admit(messages, conn_id, stamp)

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
        order keeps the folded in-flight tally non-negative.  Called by
        the stream's owner.
        """
        if self.ledger is None:
            return
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

    # -- egress (the pump's loop, or the executor for a lent stream) ---------------------------

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
        self.stats.frames_out += len(delivered)

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
        """Leave the pump once a share in flight has landed, end the stream (idempotent).

        Any thread: an owner call (:meth:`EgressPump.detach`).  A close
        is *not* an undeploy in the ledger's eyes: the final counter sync
        lands, but no ``undeployed`` record — a session that merely
        stopped (or whose process died right after) is still recoverable.
        """
        if self._closed:
            return
        self._closed = True
        self.pump.detach(self, self._end)

    def _end(self) -> None:
        """On the loop, the stream back: shed what is staged, end it, mirror the ledger."""
        self._unstage(end=True)
        self.stream.remove_wakeup_listener(self._waiter.set)
        self.stream.end()
        if self.ledger is not None:
            self.sync_ledger()  # capture the end_drops the stream just took
            self.ledger.flush()
