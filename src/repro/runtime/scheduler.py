"""Execution engines for the Streamlet Execution Plane (section 3.3.4).

Two engines drive the same :class:`~repro.runtime.stream.RuntimeStream`:

* :class:`InlineScheduler` — deterministic, single-threaded: drives a
  dirty-node worklist in (topological) processing order, moving one
  message per input port per visit.  The reference interpreter — and the
  gateway's hot path: a composition of cooperative streamlets is stepped
  with it, run to completion, on the egress pump's thread
  (``docs/gateway.md``, "Engine selection").
* :class:`ThreadedScheduler` — one worker thread per streamlet instance,
  faithful to the Java design ("extensive use of multi-threading",
  section 7.4), and the engine for any streamlet that may wait or run
  long.  Workers read an immutable RCU-style
  :class:`~repro.runtime.stream.TopologySnapshot` lock-free and block on
  per-worker wakeup events signalled by their input queues, so steps on
  distinct streamlets genuinely overlap and an idle stream costs no CPU.
  Reconfiguration retires the snapshot under the stream's write section
  (:meth:`RuntimeStream._write_access`), waits out in-flight steps, and
  workers pick up the republished view at their next step — see
  ``docs/performance.md`` for the full protocol.

Both engines are claim, dispatch and wake policy around one message step
(:func:`_step_node` claims, :func:`_run_hops` is the hop): fetch an id,
check the message out of the pool, call ``process``, push the peer id
when the streamlet has one, and send the results on — dropping (and
counting) any emission aimed at an unconnected port, which is exactly the
open-circuit hazard the chapter-5 analysis exists to prevent.  An
ordinary node and a fused chain are the same thing to it: a chain of one
member or of several.
"""

from __future__ import annotations

import threading
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


#: a post that found its queue full mid-step; retried after the step (and
#: outside the read gate's critical work) so consumers can drain meanwhile.
#: The size rides along so stalled retries never recompute total_size().
_Stalled = tuple["Channel", str, int]


def _count(acc: dict[str, int], name: str, n: int = 1) -> None:
    """Count into the step accumulator.

    Steps collect their counter bumps in a plain dict that the engine
    flushes through :meth:`StreamStats.inc_many` once per dispatch, so a
    batch of N messages pays one stats lock instead of N.
    """
    acc[name] = acc.get(name, 0) + n


def _has_headroom(outputs: dict[str, Channel]) -> bool:
    """True while every output queue can absorb another batched emission.

    The batching stop rule: a rendezvous queue (capacity 0) holding any
    pending unit vetoes further claims — its single slot is the
    synchronisation point, and racing past it would turn backpressure
    into drops — and a bounded queue stops the batch at half capacity so
    a concurrent producer still fits.  The *first* claim of a visit never
    consults this, preserving the one-message-per-visit contract exactly.
    """
    for channel in outputs.values():
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


def _step_node(
    stream: RuntimeStream, view: _NodeView | _FusedView,
    stalled: list[_Stalled] | None, batch: int, acc: dict[str, int],
) -> int:
    """Claim up to ``batch`` messages per input port and run each through the view.

    The claim policy, shared by both engines; every claimed id goes
    through :func:`_run_hops`.  The first claim per port is unconditional
    (the historical one-message step); further claims in the same visit
    happen only while no emission has stalled and every output queue
    keeps headroom, so batching can never convert a backpressure signal
    into drops.

    A fused view claims new traffic at its head only.  Residual units
    parked on an interior channel — traffic admitted before the chain
    fused, or re-posted by a supervisor retry — drain first,
    downstream-first, so end-to-end FIFO order survives fuse/split
    transitions.  A single paused member parks the whole chain: one
    dispatch cannot honour a suspension boundary mid-run, so messages
    wait at the head until every member is active again.
    """
    members = view.members
    for member in members:
        if member.streamlet.state is not StreamletState.ACTIVE:
            return 0
    moved = hops = 0
    interior = view.interior
    for idx in range(len(interior) - 1, -1, -1):
        channel = interior[idx]
        # lock-free probe: interior queues hold traffic only across a
        # fuse/split transition, so skip the fetch-miss mutex cost
        while not stalled and not channel.queue.is_empty():
            msg_id, t0 = _claim(channel, members[idx + 1].queue_wait_hist)
            if msg_id is None:
                break
            moved += 1
            hops += _run_hops(stream, members, idx + 1, members[idx].next_port,
                              msg_id, t0, stalled, acc)
    head = members[0]
    tail_outputs = members[-1].outputs
    for port, channel in head.inputs:  # frozen tuple: no per-step copy
        for claim in range(batch):
            # extra claims first probe the queue lock-free: a fetch miss
            # costs a mutex round-trip, and on latency-bound traffic
            # (one message in flight) every claim after the first misses
            if claim and (
                stalled or channel.queue.is_empty()
                or not _has_headroom(tail_outputs)
            ):
                break
            msg_id, t0 = _claim(channel, head.queue_wait_hist)
            if msg_id is None:
                break
            moved += 1
            hops += _run_hops(stream, members, 0, port, msg_id, t0, stalled, acc)
    if hops:
        _count(acc, "processed", hops)
    return moved


def _run_hops(
    stream: RuntimeStream, members: tuple[_NodeView, ...], index: int,
    port: str, msg_id: str, t0: float | None,
    stalled: list[_Stalled] | None, acc: dict[str, int],
) -> int:
    """The hop kernel: one claimed message through ``members[index:]``.

    One transition, for every engine and every shape of node: check the
    message out, ``process`` it, account for it, give each emission an id
    (the first keeps the claimed one) and send it on — to the next member
    in memory when there is one (the elided channels are never posted),
    else to the output channels with the stalled-retry machinery.  Each
    member gets its own service-time observation and failure containment
    — a supervisor that retains a failed id can re-post it to the
    member's still-wired input channel, where the residual drain picks it
    up.  What a member needs per message and no message can change was
    resolved when the snapshot was published
    (:class:`~repro.runtime.stream._NodeView`).

    Between fused members a ``PassMode.REFERENCE`` pool is not consulted
    again: the next member is handed the object the previous one emitted,
    which is what the pool holds under the id.  ``PassMode.VALUE`` checks
    out (deep-copies) at every hop, fused or not.  With telemetry on, the
    clock read that ends hop *i* is the start of hop *i + 1* (``t0`` is
    the claim stamp when the caller took one).  Returns the number of
    ``process`` calls that succeeded, for the caller's ``processed`` bump.
    """
    pool = stream.pool
    tm = stream.tm
    timed = tm is not None
    carry = pool.mode is PassMode.REFERENCE
    if timed and t0 is None:
        t0 = time.perf_counter()
    processed = 0
    message = None  # handed on by the previous member, or checked out below
    #: (member index, port, id, message) still to run, in emission order
    pending: list = []
    while True:
        hop = members[index]
        if message is None:
            message = pool.checkout(msg_id)
        ctx = hop.ctx
        ctx.session = message.headers.session
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
            now = time.perf_counter()
            hop.hop_hist.observe(now - t0)
            entry = message.headers._fields.get(_TRACE_KEY)
            if entry is not None:
                tm.hop_span(hop.name, entry[1], message, emissions, now - t0,
                            failure is not None)
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
                peer, outputs, next_port = hop.peer, hop.outputs, hop.next_port
                out_id = msg_id  # the first emission keeps the claimed id
                for out_port, out_msg in emissions:
                    if peer is not None:
                        out_msg.headers.push_peer(peer)
                    if out_id is None:
                        out_id = pool.admit(out_msg)
                    elif out_msg is not message:
                        pool.rebind(out_id, out_msg)
                    channel = outputs.get(out_port)
                    if channel is None:
                        # open circuit at runtime: the message has nowhere to go
                        pool.release(out_id)
                        _count(acc, "open_circuit_drops")
                        if timed:
                            tm.forget(out_id)
                    elif next_port is None:
                        _post(stream, channel, out_id, out_msg, stalled)
                    else:
                        pending.append(
                            (index + 1, next_port, out_id, out_msg if carry else None)
                        )
                    out_id = None
        if not pending:
            return processed
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
    stream: RuntimeStream, channel: Channel, out_id: str, out_msg,
    stalled: list[_Stalled] | None,
) -> None:
    """Post one emission to its output channel, never blocking mid-step.

    A waiting producer would starve the consumer that could free the
    space, so a full queue parks the id on ``stalled`` for the engine to
    retry after the step (an engine without one drops).  Once a channel
    has a stalled message, later emissions to it queue behind: FIFO order
    must survive the retry path.
    """
    size = out_msg.total_size()  # computed once: retries reuse it
    if not (stalled and any(ch is channel for ch, _, _ in stalled)):
        try:
            if channel.post(out_id, size, timeout=0):
                return
        except QueueClosedError:
            # a closed channel can never accept — drop now, never retry
            _drop(stream, out_id)
            return
    if stalled is not None:
        stalled.append((channel, out_id, size))
    else:
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


def _retry_stalled(
    stream: RuntimeStream, stalled: list[_Stalled],
    abort: tuple[threading.Event, ...] = (),
) -> None:
    """Re-post full-queue emissions under the Figure 6-9 budget, then drop.

    The retry is a non-blocking probe plus a bounded wait on the queue's
    producer condition (``wait_for_room``) — no topology lock, no polling
    slices — and the budget is the *channel's* configured ``drop_timeout``,
    so a stall-retry honours the same contract an ordinary blocking post
    would.  Exactly one drop is booked per abandoned id.
    """
    for channel, msg_id, size in stalled:
        deadline = time.monotonic() + channel.drop_timeout
        posted = False
        while not any(event.is_set() for event in abort):
            try:
                if channel.post(msg_id, size, timeout=0):
                    posted = True
                    break
            except QueueClosedError:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            channel.queue.wait_for_room(size, min(0.05, remaining))
        if not posted:
            _drop(stream, msg_id)


class InlineScheduler:
    """Deterministic cooperative pump driven by a dirty-node worklist.

    Rather than re-walking every instance per round, each round visits
    only nodes with a reason to run — seeded from pending input traffic,
    extended by the consumers of every node that moved — always in the
    snapshot's deterministic processing order.
    """

    #: messages claimed per input port per visit; the headroom rule in
    #: :func:`_step_node` keeps batching invisible to bounded channels
    def __init__(self, stream: RuntimeStream, *, batch: int = 8):
        self._stream = stream
        self._batch = max(1, batch)

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
                    moved = _step_node(stream, view, None, batch, acc)
                finally:
                    gate.exit()
                if moved:
                    moved_round += moved
                    dirty.update(view.consumers)
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


class ThreadedScheduler:
    """One worker thread per streamlet instance (the Java model).

    The engine for streamlets that may need a thread: one that sleeps,
    does I/O or runs for milliseconds blocks only its own worker here.
    Under CPython's GIL the threads overlap nothing for steps that never
    wait, and every hop pays a wake, a context switch and a GIL handoff,
    so the gateway steps compositions of cooperative streamlets
    (:attr:`~repro.runtime.streamlet.Streamlet.cooperative`) with
    :class:`InlineScheduler` on its egress pump instead and deploys this
    engine only where a streamlet keeps the default.

    Workers are event-driven: each registers a wakeup event on its input
    queues (set by every post), steps lock-free against the published
    topology snapshot, and blocks on the event when idle.  ``idle_spins``
    counts heartbeat timeouts (the residual polling a busy-wait design
    would rack up constantly); ``event_wakeups`` counts real signals.
    """

    #: idle heartbeat: a blocked worker re-examines the world this often
    #: even without a signal (covers paused-with-traffic and lost-wakeup
    #: corners); it is NOT the scheduling latency, which is event-driven
    _IDLE_WAIT = 0.05

    def __init__(
        self, stream: RuntimeStream, *,
        poll_interval: float = 0.001, batch: int = 8,
    ):
        self._stream = stream
        #: retained for API compatibility; used only as the drain()
        #: re-check cadence floor, never as a busy-poll period
        self._poll = poll_interval
        #: messages claimed per input port per step (see _step_node)
        self._batch = max(1, batch)
        self._threads: dict[str, threading.Thread] = {}
        self._stop = threading.Event()
        self._kills: dict[str, threading.Event] = {}   # per-worker kill switch
        self._wakes: dict[str, threading.Event] = {}   # per-worker input signal
        self._busy: dict[str, bool] = {}               # name -> mid-step/retry
        self._counter_lock = threading.Lock()
        #: activity condition: workers notify after every step / idle
        #: transition so drain() blocks instead of polling queues
        self._activity = threading.Condition()
        self.workers_killed = 0
        #: heartbeat timeouts while idle (≈0 under event-driven operation)
        self.idle_spins = 0
        #: wakeups delivered by queue posts / reconfig / stop signals
        self.event_wakeups = 0
        #: per-worker time accounting (busy / blocked / snapshot-refresh
        #: seconds + steps), maintained only for an observed stream;
        #: each dict has a single writer (its worker), so plain stores
        self._utilization: dict[str, dict] = {}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker thread per current instance."""
        if self._threads:
            raise RuntimeError("scheduler already started")
        self._stop.clear()
        self._stream.add_wakeup_listener(self._on_topology_wakeup)
        for name in self._stream.topology_snapshot().order:
            self._spawn(name)

    def _spawn(self, name: str) -> None:
        kill = threading.Event()
        wake = threading.Event()
        self._kills[name] = kill
        self._wakes[name] = wake
        thread = threading.Thread(
            target=self._worker, args=(name, kill, wake),
            name=f"streamlet-{name}", daemon=True,
        )
        self._threads[name] = thread
        tm = self._stream.tm
        if tm is not None:
            tm.recorder.record("worker_spawn", stream=self._stream.name, worker=name)
        thread.start()

    def _on_topology_wakeup(self) -> None:
        # a write section closed (or RESUME fired): every sleeping worker
        # must re-resolve the snapshot / re-check its streamlet state
        for wake in tuple(self._wakes.values()):
            wake.set()
        with self._activity:
            self._activity.notify_all()

    def _count(self, attr: str) -> None:
        with self._counter_lock:
            setattr(self, attr, getattr(self, attr) + 1)

    # -- the worker loop ---------------------------------------------------------

    def _worker(self, name: str, kill: threading.Event, wake: threading.Event) -> None:
        stream = self._stream
        gate = stream._read_gate
        stop = self._stop
        snap: TopologySnapshot | None = None
        view: _NodeView | _FusedView | None = None
        registered: list = []   # queues currently carrying our wake event
        # per-worker utilization: this worker is the dict's only writer,
        # so plain float adds need no lock; skipped entirely when unobserved
        timed = stream.tm is not None
        util = {"busy": 0.0, "blocked": 0.0, "refresh": 0.0, "steps": 0}
        if timed:
            self._utilization[name] = util
        batch = self._batch
        acc: dict[str, int] = {}  # flushed after every step (one stats lock)
        try:
            while not stop.is_set() and not kill.is_set():
                # RCU read side: register in the gate FIRST, then check the
                # published pointer.  If a writer retired it (None) or
                # republished (a different object), leave the gate and
                # resolve outside — a registered reader must never block
                # on the topology lock.
                gate.enter()
                current = stream._snapshot
                if current is not snap or view is None:
                    gate.exit()
                    if timed:
                        r0 = time.perf_counter()
                    current = stream.topology_snapshot()  # may wait out a writer
                    snap = current
                    view = current.nodes.get(name)
                    queues = (
                        [channel.queue for _port, channel in view.inputs]
                        if view is not None else []
                    )
                    for queue in registered:
                        if not any(queue is q for q in queues):
                            queue.remove_waiter(wake)
                    for queue in queues:
                        if not any(queue is q for q in registered):
                            queue.add_waiter(wake)
                    registered = queues
                    if timed:
                        util["refresh"] += time.perf_counter() - r0
                    if view is None:
                        return  # instance was removed by a reconfiguration
                    continue
                # fast path: a known snapshot, read entirely lock-free.
                # Clear the wakeup BEFORE fetching so a post that lands
                # mid-step re-arms it (edge-triggered, no lost signals).
                wake.clear()
                self._busy[name] = True
                if timed:
                    b0 = time.perf_counter()
                stalled: list[_Stalled] = []
                try:
                    moved = _step_node(stream, view, stalled, batch, acc)
                finally:
                    gate.exit()
                if acc:
                    stream.stats.inc_many(acc)
                    acc.clear()
                # full-queue posts retry OUTSIDE the read gate so a writer
                # is never blocked behind a backpressure stall; the busy
                # flag spans the retry so drain() cannot observe a fake
                # quiescence while a message is parked here
                if stalled:
                    _retry_stalled(stream, stalled, (stop, kill))
                self._busy[name] = False
                if timed:
                    util["busy"] += time.perf_counter() - b0
                    util["steps"] += moved
                with self._activity:
                    self._activity.notify_all()
                if moved or stalled:
                    continue
                # idle: block until an input posts, a reconfiguration
                # commits, stop/kill — or the heartbeat as a backstop
                if timed:
                    w0 = time.perf_counter()
                    signalled = wake.wait(self._IDLE_WAIT)
                    util["blocked"] += time.perf_counter() - w0
                else:
                    signalled = wake.wait(self._IDLE_WAIT)
                if signalled:
                    self._count("event_wakeups")
                else:
                    self._count("idle_spins")
        finally:
            for queue in registered:
                queue.remove_waiter(wake)
            self._busy.pop(name, None)
            with self._activity:
                self._activity.notify_all()

    # -- worker management (fault injection / reconfiguration) --------------------

    def ensure_workers(self) -> None:
        """Spawn threads for instances added by reconfiguration.

        Also respawns workers that died or were killed (fault injection):
        any instance without a live thread gets a fresh one.
        """
        for name in self._stream.topology_snapshot().order:
            existing = self._threads.get(name)
            if existing is None or not existing.is_alive():
                self._spawn(name)

    def kill_worker(self, name: str, *, join_timeout: float = 2.0) -> bool:
        """Terminate one worker thread (the fault-injection kill switch).

        The instance and its channels survive — messages simply stop
        moving through it until :meth:`ensure_workers` respawns the
        worker.  Returns False when no live worker exists for ``name``.
        """
        thread = self._threads.get(name)
        kill = self._kills.get(name)
        if thread is None or kill is None or not thread.is_alive():
            return False
        kill.set()
        wake = self._wakes.get(name)
        if wake is not None:
            wake.set()  # a sleeping worker must notice the kill now
        thread.join(join_timeout)
        self.workers_killed += 1
        tm = self._stream.tm
        if tm is not None:
            tm.recorder.record("worker_kill", stream=self._stream.name, worker=name)
        return True

    def worker_states(self) -> dict[str, dict]:
        """Per-worker liveness plus time accounting (when telemetry is on).

        ``utilization`` is busy time over accounted time (busy + blocked
        + snapshot-refresh); accounting fields appear only for workers of
        an observed stream.  Served by the gateway's
        ``introspect`` control verb.
        """
        states: dict[str, dict] = {}
        for name, thread in self._threads.items():
            entry: dict = {
                "alive": thread.is_alive(),
                "busy": bool(self._busy.get(name)),
            }
            util = self._utilization.get(name)
            if util is not None:
                busy = util["busy"]
                total = busy + util["blocked"] + util["refresh"]
                entry.update(
                    busy_seconds=busy,
                    blocked_seconds=util["blocked"],
                    refresh_seconds=util["refresh"],
                    steps=util["steps"],
                    utilization=busy / total if total else 0.0,
                )
            states[name] = entry
        return states

    # -- quiescence ---------------------------------------------------------------

    def drain(self, *, timeout: float = 5.0, settle: float = 0.01) -> bool:
        """Wait until every channel is empty for ``settle`` seconds straight.

        Event-based: between checks the caller blocks on the workers'
        activity condition (notified after every step), not on a poll of
        every queue.
        """
        deadline = time.monotonic() + timeout
        while True:
            if self._quiescent():
                time.sleep(settle)
                if self._quiescent():
                    return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            with self._activity:
                # bounded wait: guards the race where the last step's
                # notify fired between our check and this wait
                self._activity.wait(min(max(self._poll, 0.01), remaining))

    def _quiescent(self) -> bool:
        if any(self._busy.values()):
            return False  # a worker is mid-step or holds a stalled message
        snap = self._stream.topology_snapshot()
        for queue in snap.input_queues:
            if not queue.is_empty():
                return False
        return True

    def stop(self, *, timeout: float = 2.0) -> None:
        """Signal workers to exit and join them."""
        self._stop.set()
        for wake in tuple(self._wakes.values()):
            wake.set()
        for thread in self._threads.values():
            thread.join(timeout)
        self._stream.remove_wakeup_listener(self._on_topology_wakeup)
        self._threads.clear()
        self._kills.clear()
        self._wakes.clear()
