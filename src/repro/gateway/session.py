"""One gateway session: a deployed stream plus its admission and egress glue.

A :class:`GatewaySession` binds a ``Content-Session`` routing key to a
deployed :class:`~repro.runtime.stream.RuntimeStream` and owns the two
boundary crossings the data plane needs:

* **admission** (event-loop thread → runtime): :meth:`offer` admits a
  parsed message into the stream through the non-blocking
  :meth:`~repro.runtime.message_queue.MessageQueue.try_post` fast path.
  The session is *bounded*: when its pool holds
  ``ingress_limit`` resident messages, offers report ``FULL`` and the
  caller parks — which, because the caller is the connection the frame
  came in on, pauses its socket reads and pushes the backpressure onto
  the client's TCP window.  A park that outlives its budget is **shed**
  through :meth:`~repro.runtime.stream.RuntimeStream.shed`, so the refusal
  lands in the drop statistics and the conservation ledger stays balanced.
* **egress** (runtime → event-loop thread): the session hooks a
  waiter onto its egress queues whose ``set()`` marks it *ready* on an
  :class:`EgressPump` — one thread for every session of a gateway.  A
  pump cycle collects every ready session, commits their counter deltas
  to the ledger with **one** flush, serialises off the event loop, and
  hands the whole batch of ``(session, conn_id, (head, payload))`` to
  the pump's ``bridge`` in one call.

Who *steps* the stream is the composition's property, not the caller's.
A **pump-stepped** session (``inline=True``) has no scheduler threads:
its share of a cycle first turns the stream over with
``InlineScheduler.pump`` for at most :data:`PUMP_QUANTUM` worklist
rounds, run to completion on the pump thread, then collects.  The
gateway drives every composition of cooperative streamlets this way
(see :attr:`~repro.runtime.streamlet.Streamlet.cooperative`); any other
keeps a worker thread per streamlet, because a step that waits on the
shared pump would silence every session.

All admission methods (``offer`` / ``retry`` / ``abandon``) must be
called from a single thread (the gateway's event loop); the pump runs on
its own thread and touches only thread-safe runtime surfaces
(``pump``, ``collect``, queue waiters).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import QueueClosedError
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_parts
from repro.runtime.stream import RuntimeStream

#: gateway-internal header naming the data-plane connection a message
#: arrived on; stamped at admission, stripped before the echo leaves
CONNECTION_HEADER = "X-MobiGATE-Connection"

#: gateway-internal header carrying the admission perf_counter timestamp;
#: stamped/stripped like :data:`CONNECTION_HEADER`, it survives the whole
#: streamlet chain (redirectors included) so delivery can observe the
#: gateway-internal end-to-end latency — the attribution ground truth
INGRESS_HEADER = "X-MobiGATE-Ingress"

#: offer outcomes
ADMITTED = "admitted"
FULL = "full"          # nothing admitted; session at its ingress bound
RETRY = "retry"        # pool id admitted; queue lock contended, repost later
SHED = "shed"          # admitted and immediately dropped into the ledger

#: worklist rounds a pump-stepped session may run per cycle (each round
#: moves up to one scheduler batch per input port); what is left re-marks
#: the session, so a flooded session delays the others' deliveries by one
#: quantum, not by a whole ``ingress_limit`` of backlog
PUMP_QUANTUM = 4


@dataclass
class OfferTicket:
    """The state of one in-flight admission attempt."""

    status: str
    msg_id: str | None = None
    size: int = 0


@dataclass
class SessionStats:
    """Gateway-boundary counters for one session (runtime stats live on the stream)."""

    frames_in: int = 0
    frames_out: int = 0
    parked: int = 0
    shed: int = 0
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
            return {
                "frames_in": self.frames_in,
                "frames_out": self.frames_out,
                "parked": self.parked,
                "shed": self.shed,
                "contended": self.contended,
                "orphans": self.orphans,
            }


class _ReadyWaiter:
    """What a session hooks onto its queues: ``set()`` marks it ready."""

    __slots__ = ("_pump", "_session")

    def __init__(self, pump: EgressPump, session: GatewaySession):
        self._pump = pump
        self._session = session

    def set(self) -> None:
        """The queue-waiter protocol (a ``threading.Event`` look-alike)."""
        self._pump.mark_ready(self._session)


class EgressPump:
    """The egress stage: one thread serving every attached session.

    A session's queue waiter calls :meth:`mark_ready`; the pump thread
    wakes, takes the ready set and runs one **cycle** over it:

    1. per ready session — pump supervisor retries, step a pump-stepped
       stream for its quantum, ``collect()``, re-hook the waiters, and
       mirror the counter deltas into the session's ledger if anything
       was delivered;
    2. **one** ``ledger.flush()`` for the whole cycle (group commit):
       every delivered count is on disk, per the fsync policy, before
       any frame of the cycle leaves;
    3. serialise, then hand every frame to :attr:`bridge` in one call
       (frames count as ``orphans`` while no bridge is installed).

    Work is O(ready sessions); every ``wake_timeout`` seconds a cycle
    sweeps *all* attached sessions, the backstop for a waiter lost to a
    reconfiguration that swapped an egress channel.  The thread starts
    with the first :meth:`attach` and exits with the last
    :meth:`detach`, so an idle or never-started gateway holds none.
    """

    def __init__(self, *, wake_timeout: float = 0.05):
        #: ``bridge(frames)`` with ``frames`` a list of ``(session,
        #: conn_id | None, (head, payload))``; called from the pump thread
        self.bridge = None
        #: exceptions contained inside cycles (see ``egress_fault`` events)
        self.faults = 0
        self._wake_timeout = wake_timeout
        self._wake = threading.Event()
        # guards the sets and the cycle state below; a leaf lock, because
        # mark_ready runs under a queue's own lock
        self._lock = threading.Lock()
        self._cycle_ended = threading.Condition(self._lock)
        self._sessions: set[GatewaySession] = set()
        self._ready: set[GatewaySession] = set()
        self._cycling = False
        self._cycles = 0
        # what stats() reports; written by the pump thread only
        self._delivering_cycles = 0
        self._sessions_delivered = 0
        self._frames = 0
        self._busy_seconds = 0.0
        self._started_at = 0.0
        # serialises attach/detach, so the thread is started and joined
        # by one caller at a time
        self._lifecycle = threading.Lock()
        self._thread: threading.Thread | None = None

    # -- membership (any thread) -------------------------------------------------------

    def attach(self, session: GatewaySession) -> None:
        """Start serving ``session``; starts the thread if it is the first."""
        with self._lifecycle:
            with self._lock:
                self._sessions.add(session)
            if self._thread is None:
                self._started_at = time.monotonic()
                self._busy_seconds = 0.0
                self._thread = threading.Thread(
                    target=self._run, name="gw-egress", daemon=True
                )
                self._thread.start()
        self.mark_ready(session)

    def detach(self, session: GatewaySession) -> None:
        """Stop serving ``session``.

        Returns only after a cycle that may have picked the session up
        has ended, so the caller can end the stream and take its final
        ledger sync knowing the pump no longer touches either.  The
        last detach also ends the thread.
        """
        with self._lifecycle:
            with self._lock:
                self._sessions.discard(session)
                self._ready.discard(session)
                last = not self._sessions
                if self._cycling:
                    running = self._cycles
                    self._cycle_ended.wait_for(lambda: self._cycles > running)
            if last and self._thread is not None:
                self._wake.set()
                self._thread.join()
                self._thread = None

    def mark_ready(self, session: GatewaySession) -> None:
        """Queue ``session`` for the next cycle and wake the pump."""
        with self._lock:
            if session in self._ready or session not in self._sessions:
                return  # whoever added it is waking the pump
            self._ready.add(session)
        self._wake.set()

    # -- the pump thread -------------------------------------------------------------------

    def _run(self) -> None:
        sweep_at = 0.0
        while True:
            self._wake.wait(self._wake_timeout)
            self._wake.clear()
            with self._lock:
                if not self._sessions:
                    return
                now = time.monotonic()
                if now >= sweep_at:
                    ready = set(self._sessions)
                    sweep_at = now + self._wake_timeout
                else:
                    ready = self._ready
                self._ready = set()
                self._cycling = True
            try:
                self._cycle(ready)
            except Exception as exc:  # the commit or the bridge failed
                self._fault(ready, exc)
            finally:
                self._busy_seconds += time.monotonic() - now
                with self._lock:
                    self._cycling = False
                    self._cycles += 1
                    self._cycle_ended.notify_all()

    def _cycle(self, ready: set[GatewaySession]) -> None:
        batches = []
        ledgers = set()
        for session in ready:
            try:
                delivered = session._collect()
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
        cycle time over the running thread's lifetime.
        """
        delivering = self._delivering_cycles
        alive = time.monotonic() - self._started_at if self._thread is not None else 0.0
        return {
            "cycles": self._cycles,
            "delivering_cycles": delivering,
            "sessions_per_cycle": self._sessions_delivered / delivering if delivering else 0.0,
            "frames_per_cycle": self._frames / delivering if delivering else 0.0,
            "busy_share": min(1.0, self._busy_seconds / alive) if alive > 0 else 0.0,
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

    ``scheduler`` is the engine that steps the stream.  With
    ``inline=True`` it is an :class:`~repro.runtime.scheduler.
    InlineScheduler` and the session is **pump-stepped**: no thread of
    its own, the egress pump runs it to completion inside the session's
    share of a cycle.  Otherwise the engine owns its threads and the
    pump only collects what they deliver.
    ``requested`` is the scheduler name the deployer asked for, when it
    differs from the engine built — it is what ``describe`` reports as
    ``scheduler`` and what the ledger records, while ``stepped_by`` says
    who actually steps.
    """

    def __init__(
        self,
        key: str,
        stream: RuntimeStream,
        scheduler,
        *,
        ingress_limit: int = 256,
        inline: bool = False,
        requested: str | None = None,
        telemetry=None,
        ledger=None,
        pump: EgressPump | None = None,
    ):
        self.key = key
        self.stream = stream
        self.scheduler = scheduler
        if inline:
            built, self.stepped_by = "inline", "pump"
        else:
            built, self.stepped_by = "threaded", "workers"
        #: the engine flavour that was asked for (the ledger's value)
        self.scheduler_kind = requested if requested is not None else built
        self.ingress_limit = ingress_limit
        self.stats = SessionStats()
        #: durable state plane: counter deltas mirror here per pump cycle
        #: (None without a store)
        self.ledger = ledger
        #: a recovery Supervisor, when the gateway runs with supervision
        self.supervisor = None
        self._mirror_lock = threading.Lock()
        self._mirrored = {
            "admitted": 0, "delivered": 0, "absorbed": 0,
            "dead_letters": 0, "dropped": 0,
        }
        #: end-to-end latency histogram (None disables the ingress stamp)
        self._e2e_hist = (
            telemetry.gateway_e2e_histogram() if telemetry is not None else None
        )
        self._delivery_hist = (
            telemetry.gateway_delivery_histogram() if telemetry is not None else None
        )
        self._inline = inline
        self._closed = False
        #: the egress stage serving this session: the gateway's shared
        #: pump, or a private one for a standalone session
        self.pump = pump if pump is not None else EgressPump()
        self._waiter = _ReadyWaiter(self.pump, self)
        # a RESUME or a committed reconfiguration posts nothing: without
        # this a message parked behind a paused streamlet (or an egress
        # channel the commit swapped) would wait for the heartbeat
        stream.add_wakeup_listener(self._waiter.set)
        self.pump.attach(self)

    # -- admission (event-loop thread only) -----------------------------------------

    @property
    def resident(self) -> int:
        """Messages of this session currently alive in the pool."""
        return len(self.stream.pool)

    def has_room(self) -> bool:
        """Whether the session is below its ingress bound."""
        return self.resident < self.ingress_limit

    def offer(self, message: MimeMessage) -> OfferTicket:
        """Try to admit one message without blocking; see module docstring."""
        if self._closed:
            raise QueueClosedError(f"session {self.key} is closed")
        if not self.has_room():
            return OfferTicket(FULL)
        return self._admit_and_post(message)

    def retry(self, ticket: OfferTicket, message: MimeMessage) -> OfferTicket:
        """Advance a parked admission attempt one step."""
        if ticket.status == RETRY:
            return self._post(ticket.msg_id, ticket.size)
        if ticket.status == FULL:
            return self.offer(message)
        return ticket

    def abandon(self, ticket: OfferTicket, message: MimeMessage) -> OfferTicket:
        """Give up on a parked attempt: shed it into the conservation ledger."""
        if ticket.status == RETRY and ticket.msg_id is not None:
            # the id is already admitted; route it through the drop path
            self.stream._release_dropped([ticket.msg_id])
        elif ticket.status == FULL:
            self.stream.shed(message)
        self.stats.inc("shed")
        return OfferTicket(SHED, ticket.msg_id, ticket.size)

    def _admit_and_post(self, message: MimeMessage) -> OfferTicket:
        if self._e2e_hist is not None:
            # the gateway's own stamp goes on before the stream sizes the
            # message, so the size the ticket carries includes it
            message.headers.set(INGRESS_HEADER, repr(time.perf_counter()))
        return self._post(*self.stream.admit(message))

    def _post(self, msg_id: str, size: int) -> OfferTicket:
        channel = self._ingress_channel()
        outcome = channel.queue.try_post(msg_id, size)
        if outcome is True:
            self.stream.stats.inc("messages_in")
            self.stats.inc("frames_in")
            if self._inline:
                self._waiter.set()  # no workers: the pump drives the stream
            return OfferTicket(ADMITTED, msg_id, size)
        if outcome is None:
            self.stats.inc("contended")
            return OfferTicket(RETRY, msg_id, size)
        # the effectively-unbounded edge queue is full — treat as a shed
        self.stream._release_dropped([msg_id])
        self.stats.inc("shed")
        return OfferTicket(SHED, msg_id, size)

    def _ingress_channel(self):
        stream = self.stream
        try:
            return next(iter(stream.ingress.values()))
        except StopIteration:
            raise QueueClosedError(
                f"stream {stream.name} exposes no ingress port"
            ) from None

    # -- the durable mirror -----------------------------------------------------------

    def attach_supervisor(self, supervisor) -> None:
        """Adopt a recovery supervisor; its retries pump with the egress pump."""
        self.supervisor = supervisor

    def sync_ledger(self) -> None:
        """Mirror counter *deltas* since the previous sync into the ledger.

        Read order matters: the terminal counters (delivered, absorbed,
        dead letters, drops) are read **before** the admission counter.
        A message that reaches a terminal between the two reads has its
        admission counted but not its fate — it folds as in-flight and
        corrects on the next sync — whereas the opposite order could
        fold a fate whose admission was missed, driving the running
        in-flight tally negative.  Callable from any thread.
        """
        if self.ledger is None:
            return
        stats = self.stream.stats
        with self._mirror_lock:
            delivered = stats.messages_out
            absorbed = stats.absorbed
            dead_letters = stats.dead_letters
            dropped = (
                stats.queue_drops + stats.open_circuit_drops
                + stats.failure_drops + stats.end_drops
            )
            admitted = self.stream.pool.admitted
            m = self._mirrored
            self.ledger.counters(
                self.key,
                admitted=admitted - m["admitted"],
                delivered=delivered - m["delivered"],
                absorbed=absorbed - m["absorbed"],
                dead_letters=dead_letters - m["dead_letters"],
                dropped=dropped - m["dropped"],
            )
            m["admitted"] = admitted
            m["delivered"] = delivered
            m["absorbed"] = absorbed
            m["dead_letters"] = dead_letters
            m["dropped"] = dropped

    # -- egress (pump thread) ------------------------------------------------------------

    def _collect(self) -> list[MimeMessage]:
        """This session's share of a pump cycle: whatever reached egress."""
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.pump_retries()  # first: the step below moves them on
        moved = self.scheduler.pump(max_rounds=PUMP_QUANTUM) if self._inline else 0
        delivered = self.stream.collect()
        # after the drain: a queue that still held what was just taken
        # would set the waiter at once and buy an empty cycle
        self._hook_waiters(ingress=moved > 0)
        return delivered

    def _hook_waiters(self, *, ingress: bool) -> None:
        """(Re-)hook the ready waiter onto the current egress queues.

        Re-run every time the session is served because reconfiguration
        may swap egress channels; ``add_waiter`` is idempotent, so steady
        state costs one lock round per queue per cycle.  Pump-stepped
        sessions also watch the ingress queues, and ``add_waiter`` sets
        the waiter at once on a queue that holds something: that is how
        the input a spent quantum left behind re-marks the session.
        Only after a step that moved something, though (``ingress``) —
        input a paused stream cannot take would re-mark it every cycle
        and spin the pump; RESUME wakes it through the wakeup listener.
        """
        waiter = self._waiter
        try:
            for _ref, channel in self.stream.egress:
                channel.queue.add_waiter(waiter)
            if ingress and self._inline:
                for channel in self.stream.ingress.values():
                    channel.queue.add_waiter(waiter)
        except QueueClosedError:  # pragma: no cover - teardown race
            pass

    def _serialise(self, delivered: list[MimeMessage], picked: float, out: list) -> None:
        """Strip the gateway stamps, observe latency, append wire frames to ``out``.

        A frame leaves as its ``(head, payload)`` pair: whether the two
        are worth joining is the writer's call, which sees the whole batch.
        """
        e2e_hist, delivery_hist = self._e2e_hist, self._delivery_hist
        for message in delivered:
            headers = message.headers
            conn_id = headers.get(CONNECTION_HEADER)
            headers.remove(CONNECTION_HEADER)
            stamped = headers.get(INGRESS_HEADER)
            if stamped is not None:
                headers.remove(INGRESS_HEADER)
                if e2e_hist is not None:
                    try:
                        admitted_at = float(stamped)
                    except ValueError:
                        pass  # a corrupted stamp just goes unattributed
                    else:
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
        """Stop the scheduler, leave the pump, end the stream (idempotent).

        A close is *not* an undeploy in the ledger's eyes: the final
        counter sync lands, but no ``undeployed`` record — a session
        that merely stopped (or whose process died right after) is
        still recoverable.
        """
        if self._closed:
            return
        self._closed = True
        if not self._inline:
            self.scheduler.stop()
        self.pump.detach(self)
        self.stream.remove_wakeup_listener(self._waiter.set)
        self.stream.end()
        if self.ledger is not None:
            self.sync_ledger()  # capture the end_drops the stream just took
            self.ledger.flush()
