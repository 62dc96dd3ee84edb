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

Both engines implement the same message step: fetch an id, check the
message out of the pool, call ``process``, push the peer id when the
streamlet has one, and post the results — dropping (and counting) any
emission aimed at an unconnected port, which is exactly the open-circuit
hazard the chapter-5 analysis exists to prevent.
"""

from __future__ import annotations

import threading
import time

from repro.errors import QueueClosedError
from repro.mime.headers import CONTENT_TRACE
from repro.runtime.channel import Channel
from repro.runtime.stream import RuntimeStream, TopologySnapshot, _NodeView
from repro.runtime.streamlet import StreamletState

#: canonical HeaderMap key for Content-Trace — probed directly against the
#: header dict on the hot path, sparing a method call + lower() per hop
_TRACE_KEY = CONTENT_TRACE.lower()


#: a post that found its queue full mid-step; retried after the step (and
#: outside the read gate's critical work) so consumers can drain meanwhile.
#: The size rides along so stalled retries never recompute total_size().
_Stalled = tuple["Channel", str, int]


def _bump(stats, acc: dict[str, int] | None, name: str) -> None:
    """Count into the step accumulator when one is live, else directly.

    Batched steps collect their counter bumps in a plain dict and flush
    them through :meth:`StreamStats.inc_many` once per dispatch, so a
    batch of N messages pays one stats lock instead of N.
    """
    if acc is None:
        stats.inc(name)
    else:
        acc[name] = acc.get(name, 0) + 1


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


def _step_node(
    stream: RuntimeStream, name: str, view: _NodeView,
    stalled: list[_Stalled] | None = None,
    batch: int = 1,
    acc: dict[str, int] | None = None,
) -> int:
    """Move up to ``batch`` messages through each of the node's input ports.

    The first claim per port is unconditional (the historical one-message
    step); further claims in the same visit happen only while no emission
    has stalled and every output queue keeps headroom, so batching can
    never convert a backpressure signal into drops.  Fused views dispatch
    to :func:`_step_fused`, which runs the whole member chain per claim.
    """
    if view.fused:
        return _step_fused(stream, view, stalled, batch=batch, acc=acc)
    if view.streamlet.state is not StreamletState.ACTIVE:
        return 0
    moved = 0
    queue_wait_hist = view.queue_wait_hist
    for port, channel in view.inputs:  # frozen tuple: no per-step copy
        for claim in range(batch):
            # extra claims first probe the queue lock-free: a fetch miss
            # costs a mutex round-trip, and on latency-bound traffic
            # (one message in flight) every claim after the first misses
            if claim and (
                stalled or channel.queue.is_empty()
                or not _has_headroom(view.outputs)
            ):
                break
            try:
                msg_id = channel.fetch(0.0)
            except QueueClosedError:
                break
            if msg_id is None:
                break
            if queue_wait_hist is not None:
                # post-to-claim delay: the queue stored the raw post time;
                # one clock sample here is both the claim stamp and the
                # service start, so attribution costs a single
                # perf_counter per hop
                claimed_at = time.perf_counter()
                posted_at = channel.queue.last_post_at
                if posted_at is not None:
                    queue_wait_hist.observe(claimed_at - posted_at)
                moved += _process_message(
                    stream, name, view, port, msg_id, stalled,
                    t0=claimed_at, acc=acc,
                )
            else:
                moved += _process_message(
                    stream, name, view, port, msg_id, stalled, acc=acc
                )
    return moved


def _process_one(
    stream: RuntimeStream, name: str, view, port: str, msg_id: str,
    acc: dict[str, int] | None = None,
    t0: float | None = None,
):
    """Checkout → process → account for one message at one streamlet.

    Returns the id-assigned emissions as ``(out_port, out_id, out_msg)``
    triples ready for routing — to output channels for an ordinary node
    (:func:`_route_emissions`), or to the next member of a fused chain
    (:func:`_run_chain`) — or None when the message terminated here
    (failure or absorption).
    """
    pool = stream.pool
    stats = stream.stats
    tm = stream.tm
    timed = tm.enabled
    if timed and t0 is None:
        t0 = time.perf_counter()
    message = pool.checkout(msg_id)
    view.ctx.session = message.session
    try:
        emissions = view.streamlet.process(port, message, view.ctx)
    except Exception as exc:  # fault containment: one bad message must not
        if timed:
            duration = time.perf_counter() - t0
            view.hop_hist.observe(duration)
            entry = message.headers._fields.get(_TRACE_KEY)
            if entry is not None:
                tm.hop_span(name, entry[1], message, None, duration, failed=True)
        _bump(stats, acc, "processing_failures")  # (section 3.3.5)
        handler = stream.fault_handler
        retained = handler is not None and handler(name, port, msg_id, exc)
        if not retained:  # no supervisor claimed the id: release and count
            pool.release(msg_id)
            _bump(stats, acc, "failure_drops")
            if timed:
                tm.forget(msg_id)
        if stream.failure_hook is not None:
            stream.failure_hook(name, exc)
        return None
    view.streamlet.processed += 1
    _bump(stats, acc, "processed")
    if timed:
        # span before any routing: once an emission is enqueued (or handed
        # to the next fused member) a concurrent consumer may read its
        # headers, so the trace context (the parent advance) must be in
        # place first
        duration = time.perf_counter() - t0
        view.hop_hist.observe(duration)
        entry = message.headers._fields.get(_TRACE_KEY)
        if entry is not None:
            tm.hop_span(name, entry[1], message, emissions, duration)
    if not emissions:
        pool.release(msg_id)  # absorbed (cache hit, filter, ...)
        _bump(stats, acc, "absorbed")
        if timed:
            tm.forget(msg_id)
        return None
    peer = view.streamlet.peer_id
    routed = []
    reused_id = False
    for out_port, out_msg in emissions:
        if peer is not None:
            out_msg.headers.push_peer(peer)
        if not reused_id:
            out_id = msg_id
            if out_msg is not message:
                pool.rebind(msg_id, out_msg)
            reused_id = True
        else:
            out_id = pool.admit(out_msg)
        routed.append((out_port, out_id, out_msg))
    return routed


def _route_emissions(
    stream: RuntimeStream, view, routed,
    stalled: list[_Stalled] | None = None,
    acc: dict[str, int] | None = None,
) -> None:
    """Post id-assigned emissions to the view's output channels."""
    stats = stream.stats
    timed = stream.tm.enabled
    outputs = view.outputs
    for out_port, out_id, out_msg in routed:
        out_channel: Channel | None = outputs.get(out_port)
        if out_channel is None:
            # open circuit at runtime: the message has nowhere to go
            stream.pool.release(out_id)
            _bump(stats, acc, "open_circuit_drops")
            if timed:
                stream.tm.forget(out_id)
            continue
        # never block mid-step: a waiting producer would starve the
        # consumer that could free the space.  Once a channel has a
        # stalled message, later emissions to it queue behind (FIFO order
        # must survive the retry path).
        size = out_msg.total_size()  # computed once: retries reuse it
        already_stalled = stalled is not None and any(
            ch is out_channel for ch, _, _ in stalled
        )
        posted = False
        if not already_stalled:
            try:
                posted = out_channel.post(out_id, size, timeout=0)
            except QueueClosedError:
                # a closed channel can never accept — drop now, never retry
                _drop(stream, out_id)
                continue
        if not posted:
            if stalled is not None:
                stalled.append((out_channel, out_id, size))
            else:
                _drop(stream, out_id)


def _process_message(
    stream: RuntimeStream, name: str, view: _NodeView, port: str, msg_id: str,
    stalled: list[_Stalled] | None = None,
    t0: float | None = None,
    acc: dict[str, int] | None = None,
) -> int:
    routed = _process_one(stream, name, view, port, msg_id, acc, t0)
    if routed is not None:
        _route_emissions(stream, view, routed, stalled, acc)
    return 1


def _run_chain(
    stream: RuntimeStream, view, index: int, port: str, msg_id: str,
    stalled: list[_Stalled] | None = None,
    acc: dict[str, int] | None = None,
    t0: float | None = None,
) -> int:
    """Run one claimed message through fused members ``index`` onward.

    Interior emissions hop member-to-member in memory (the elided
    channels are never posted); only the tail's emissions go through the
    normal channel-post path with the stalled-retry machinery.  Each
    member still gets its own pool checkout (VALUE-mode copy semantics
    survive fusion), service-time observation, and failure containment —
    a supervisor that retains a failed id can re-post it to the member's
    still-wired input channel, where the residual drain picks it up.
    """
    members = view.members
    last = len(members) - 1
    i = index
    pending: list | None = None  # lazily built: only multi-emission needs it
    while True:
        member = members[i]
        routed = _process_one(stream, member.name, member, port, msg_id, acc, t0)
        advanced = False
        if routed is not None:
            if i == last:
                _route_emissions(stream, member, routed, stalled, acc)
            elif len(routed) == 1 and routed[0][0] in member.outputs:
                # the common shape — one emission on the wired port — hops
                # straight to the next member, no worklist traffic
                msg_id = routed[0][1]
                port = members[i + 1].inputs[0][0]
                i += 1
                t0 = None
                advanced = True
            else:
                next_port = members[i + 1].inputs[0][0]
                outputs = member.outputs
                for out_port, out_id, out_msg in routed:
                    if out_port not in outputs:
                        # open circuit mid-chain: identical to the unfused drop
                        stream.pool.release(out_id)
                        _bump(stream.stats, acc, "open_circuit_drops")
                        if stream.tm.enabled:
                            stream.tm.forget(out_id)
                        continue
                    if pending is None:
                        pending = []
                    pending.append((i + 1, next_port, out_id))
        if advanced:
            continue
        if not pending:
            return 1
        i, port, msg_id = pending.pop(0)
        t0 = None


def _step_fused(
    stream: RuntimeStream, view,
    stalled: list[_Stalled] | None = None,
    *, batch: int = 1,
    acc: dict[str, int] | None = None,
) -> int:
    """Step a fused chain: claim at the head, run every member per dispatch.

    Residual units parked on an interior channel — traffic admitted
    before the chain fused (or re-posted by a supervisor retry) — drain
    first, downstream-first, so end-to-end FIFO order survives fuse/split
    transitions.  A single paused member parks the whole chain: one
    dispatch cannot honour a suspension boundary mid-run, so messages
    wait at the head until every member is active again.
    """
    members = view.members
    for member in members:
        if member.streamlet.state is not StreamletState.ACTIVE:
            return 0
    moved = 0
    interior = view.interior
    for idx in range(len(interior) - 1, -1, -1):
        channel = interior[idx]
        if channel.queue.is_empty():
            # lock-free probe: interior queues hold traffic only across a
            # fuse/split transition, so skip the fetch-miss mutex cost
            continue
        entry = members[idx + 1]
        entry_port = entry.inputs[0][0]
        wait_hist = entry.queue_wait_hist
        while not stalled:
            try:
                msg_id = channel.fetch(0.0)
            except QueueClosedError:
                break
            if msg_id is None:
                break
            t0 = None
            if wait_hist is not None:
                t0 = time.perf_counter()
                posted_at = channel.queue.last_post_at
                if posted_at is not None:
                    wait_hist.observe(t0 - posted_at)
            moved += _run_chain(stream, view, idx + 1, entry_port, msg_id,
                                stalled, acc, t0)
    head = members[0]
    tail_outputs = members[-1].outputs
    wait_hist = head.queue_wait_hist
    for port, channel in head.inputs:
        for claim in range(batch):
            if stalled or (
                claim and (
                    channel.queue.is_empty()
                    or not _has_headroom(tail_outputs)
                )
            ):
                break
            try:
                msg_id = channel.fetch(0.0)
            except QueueClosedError:
                break
            if msg_id is None:
                break
            t0 = None
            if wait_hist is not None:
                t0 = time.perf_counter()
                posted_at = channel.queue.last_post_at
                if posted_at is not None:
                    wait_hist.observe(t0 - posted_at)
            moved += _run_chain(stream, view, 0, port, msg_id, stalled, acc, t0)
    return moved


def _drop(stream: RuntimeStream, msg_id: str) -> None:
    """Release a dropped id, fire the drop signal, count, forget the trace."""
    if msg_id in stream.pool:
        message = stream.pool.release(msg_id)
        if stream.drop_hook is not None:
            stream.drop_hook(msg_id, message)
    stream.stats.inc("queue_drops")
    if stream.tm.enabled:
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
        for name in snap.order:
            view = snap.nodes[name]
            if view.streamlet.state is not StreamletState.ACTIVE:
                continue
            for _port, channel in view.inputs:
                if not channel.queue.is_empty():
                    dirty.add(name)
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
            for name in snap.order:
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
                view = snap.nodes[name]
                try:
                    moved = _step_node(stream, name, view, None, batch, acc)
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
        #: seconds + steps), maintained only when telemetry is enabled;
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
        if tm.enabled:
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
        view: _NodeView | None = None
        registered: list = []   # queues currently carrying our wake event
        # per-worker utilization: this worker is the dict's only writer,
        # so plain float adds need no lock; skipped entirely when disabled
        timed = stream.tm.enabled
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
                    moved = _step_node(stream, name, view, stalled, batch, acc)
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
        if tm.enabled:
            tm.recorder.record("worker_kill", stream=self._stream.name, worker=name)
        return True

    def worker_states(self) -> dict[str, dict]:
        """Per-worker liveness plus time accounting (when telemetry is on).

        ``utilization`` is busy time over accounted time (busy + blocked
        + snapshot-refresh); accounting fields appear only for workers of
        a telemetry-enabled stream.  Served by the gateway's
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
