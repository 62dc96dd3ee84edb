"""The recovery plane: declarative policies over the stream's fault hooks.

A :class:`Supervisor` consumes the two signals the runtime exposes —
``RuntimeStream.fault_handler`` (a streamlet's ``process()`` raised) and
``RuntimeStream.drop_hook`` (a message left the pool as a drop) — and
applies a :class:`RecoveryPolicy`:

* **bounded retry** with exponential backoff + jitter: the failed message
  keeps its pool id (the handler returns True, so the scheduler never
  releases it) and is re-posted to the instance's input channel when its
  backoff expires;
* **dead-letter pool** for messages that exhaust their retries — released
  from the message pool into an inspectable :class:`DeadLetterPool`,
  counted in ``stats.dead_letters``, escalated as a ``RETRY_EXHAUSTED``
  context event so scripted ``when`` handlers can react;
* **bypass** of repeatedly-failing *optional* streamlets: the Figure 6-4
  ``extract`` primitive heals the chain around the failing instance and a
  ``STREAMLET_BYPASSED`` event tells the coordination layer.

All timing runs through the stream's clock, so a virtual-time run with a
fixed policy seed replays bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    CompositionError,
    FaultPlanError,
    QueueClosedError,
    ReconfigurationError,
)
from repro.mime.message import MimeMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.events import EventManager
    from repro.runtime.stream import RuntimeStream
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class RecoveryPolicy:
    """What a supervisor does with a failing message / instance."""

    #: re-post a failed message at most this many times before dead-lettering
    max_retries: int = 3
    #: first backoff delay, seconds
    backoff_base: float = 0.05
    #: multiplier per further attempt (attempt n waits base * factor**n)
    backoff_factor: float = 2.0
    #: uniform extra delay in [0, jitter) drawn from the policy RNG
    jitter: float = 0.01
    #: consecutive failures after which an *optional* instance is bypassed
    #: (None disables bypassing entirely)
    bypass_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultPlanError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise FaultPlanError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise FaultPlanError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise FaultPlanError(f"jitter must be >= 0, got {self.jitter}")
        if self.bypass_threshold is not None and self.bypass_threshold < 1:
            raise FaultPlanError(
                f"bypass_threshold must be >= 1, got {self.bypass_threshold}"
            )

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = self.backoff_base * (self.backoff_factor ** attempt)
        if self.jitter > 0:
            delay += rng.uniform(0.0, self.jitter)
        return delay


@dataclass
class DeadLetter:
    """One message parked after recovery gave up on it."""

    msg_id: str
    message: MimeMessage | None
    instance: str
    port: str
    attempts: int
    reason: str


class DeadLetterPool:
    """Ordered, inspectable store of messages recovery gave up on.

    The pool is **bounded**: when ``capacity`` entries are parked, adding
    another evicts the oldest (insertion order) so a sustained fault
    storm cannot grow the gateway's memory without limit.  Evictions are
    counted and reported through ``on_evict`` so the supervisor can keep
    the ledger and the ``mobigate_dead_letters_evicted_total`` counter
    honest.  ``capacity=None`` leaves the pool unbounded (the historical
    behaviour, still right for short deterministic tests).
    """

    def __init__(self, capacity: int | None = None, *, on_evict=None) -> None:
        if capacity is not None and capacity < 1:
            raise FaultPlanError(f"dead-letter capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.on_evict = on_evict
        #: entries displaced by the capacity bound since construction
        self.evicted = 0
        self._entries: dict[str, DeadLetter] = {}

    def add(self, entry: DeadLetter) -> None:
        """Park one entry (keyed by its pool id), evicting the oldest at capacity."""
        self._entries[entry.msg_id] = entry
        while self.capacity is not None and len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            victim = self._entries.pop(oldest)
            self.evicted += 1
            if self.on_evict is not None:
                self.on_evict(victim)

    def take(self, msg_id: str) -> DeadLetter:
        """Remove and return one entry (for manual re-injection)."""
        try:
            return self._entries.pop(msg_id)
        except KeyError:
            raise FaultPlanError(f"no dead letter with id {msg_id!r}") from None

    def ids(self) -> list[str]:
        """The parked pool ids, oldest first."""
        return list(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._entries


#: a scheduled retry: (due, sequence, msg_id, instance, port)
_Retry = tuple[float, int, str, str, str]


class Supervisor:
    """Applies a :class:`RecoveryPolicy` to one stream's fault signals."""

    def __init__(
        self,
        stream: "RuntimeStream",
        policy: RecoveryPolicy | None = None,
        *,
        events: "EventManager | None" = None,
        optional: tuple[str, ...] = (),
        telemetry: "Telemetry | None" = None,
        seed: int = 0,
        ledger=None,
        scope: str | None = None,
        dead_letter_capacity: int | None = None,
    ):
        self._stream = stream
        self.policy = policy if policy is not None else RecoveryPolicy()
        self._clock = stream._clock
        self._events = events
        #: instances the stream can survive without — only these may be
        #: bypassed (a BK-category transcoder is load-bearing; a cache or
        #: compressor is not)
        self._optional = frozenset(optional)
        self.rng = random.Random(seed)
        #: where durable ledger records land (None without a store); the
        #: scope names this supervisor's session/stream in them (gateway
        #: sessions pass their routing key, standalone ones the stream name)
        self.ledger = ledger
        self.scope = scope if scope is not None else stream.name
        self.dead_letters = DeadLetterPool(
            dead_letter_capacity, on_evict=self._on_evict
        )
        self._pending: list[_Retry] = []
        self._seq = 0          # tie-breaker keeping equal-due retries FIFO
        self._attempts: dict[str, int] = {}
        self._instance_failures: dict[str, int] = {}
        self.bypassed: list[str] = []
        #: ids observed through the drop signal (queue/ingress drops)
        self.drops_seen: list[str] = []
        self._attached = False
        self._prev_drop_hook = None
        if telemetry is not None:
            self._gauge = telemetry.dead_letter_gauge(stream.name)
            self._outcome = lambda o: telemetry.fault_counter(stream.name, o).inc()
            self._evictions = telemetry.dead_letters_evicted_counter(stream.name)
        else:
            self._gauge = None
            self._outcome = None
            self._evictions = None

    # -- wiring -------------------------------------------------------------------

    def attach(self) -> None:
        """Claim the stream's fault/drop hooks (FaultPlanError if taken)."""
        if self._attached:
            raise FaultPlanError("supervisor already attached")
        if self._stream.fault_handler is not None:
            raise FaultPlanError(
                f"stream {self._stream.name} already has a fault handler"
            )
        self._stream.fault_handler = self._on_fault
        self._prev_drop_hook = self._stream.drop_hook
        self._stream.drop_hook = self._on_drop
        self._attached = True

    def detach(self) -> None:
        """Release the hooks; pending retries stay scheduled but unpumped."""
        if not self._attached:
            return
        self._stream.fault_handler = None
        self._stream.drop_hook = self._prev_drop_hook
        self._prev_drop_hook = None
        self._attached = False

    # -- the fault signal ------------------------------------------------------------

    def _on_fault(self, instance: str, port: str, msg_id: str, exc: Exception) -> bool:
        """RuntimeStream.fault_handler: decide the failed id's fate.

        Always returns True — from here on the supervisor owns the pool
        id, whether it ends up retried or dead-lettered.
        """
        failures = self._instance_failures.get(instance, 0) + 1
        self._instance_failures[instance] = failures
        threshold = self.policy.bypass_threshold
        if (
            threshold is not None
            and instance in self._optional
            and failures >= threshold
            and instance not in self.bypassed
        ):
            self._bypass(instance)
            self._dead_letter(
                msg_id, instance, port,
                reason=f"instance bypassed after {failures} failures",
            )
            return True
        attempt = self._attempts.get(msg_id, 0)
        if attempt < self.policy.max_retries:
            self._attempts[msg_id] = attempt + 1
            due = self._clock.now() + self.policy.delay_for(attempt, self.rng)
            self._pending.append((due, self._seq, msg_id, instance, port))
            self._seq += 1
            if self.ledger is not None:
                self.ledger.retry_scheduled(
                    self.scope, msg_id, instance=instance, port=port,
                    attempt=attempt + 1, frame=self._frame_of(msg_id),
                )
            tm = self._stream.tm
            if tm is not None:
                tm.recorder.record(
                    "retry_scheduled", stream=self._stream.name,
                    msg_id=msg_id, instance=instance, attempt=attempt + 1,
                )
            # whoever pumps the retries learns of the new due time here
            # (the gateway's egress arms a timer for it)
            self._stream._notify_wakeup()
            return True
        self._dead_letter(msg_id, instance, port, reason=f"retries exhausted: {exc}")
        return True

    def _on_drop(self, msg_id: str, message: MimeMessage) -> None:
        """RuntimeStream.drop_hook: make drops inspectable."""
        self.drops_seen.append(msg_id)
        self._attempts.pop(msg_id, None)  # a dropped id will never retry
        if self._prev_drop_hook is not None:
            self._prev_drop_hook(msg_id, message)

    # -- dispositions ----------------------------------------------------------------

    def _frame_of(self, msg_id: str) -> bytes | None:
        """Serialise a pooled message for the ledger (None when impossible)."""
        from repro.mime.wire import serialize_message

        try:
            return serialize_message(self._stream.pool.peek(msg_id))
        except Exception:
            return None  # released under us, or an unserialisable body

    def _on_evict(self, victim: DeadLetter) -> None:
        """Account a capacity eviction (ledger, counter, flight recorder)."""
        if self.ledger is not None:
            self.ledger.dead_letter_evicted(self.scope, victim.msg_id)
        if self._evictions is not None:
            self._evictions.inc()
        if self._gauge is not None:
            self._gauge.set(float(len(self.dead_letters)))
        tm = self._stream.tm
        if tm is not None:
            tm.recorder.record(
                "dead_letter_evicted", stream=self._stream.name,
                msg_id=victim.msg_id, reason=victim.reason,
            )

    def _dead_letter(self, msg_id: str, instance: str, port: str, *, reason: str) -> None:
        stream = self._stream
        attempts = self._attempts.pop(msg_id, 0)
        frame = self._frame_of(msg_id) if self.ledger is not None else None
        message = stream.pool.release(msg_id) if msg_id in stream.pool else None
        self.dead_letters.add(DeadLetter(
            msg_id=msg_id, message=message, instance=instance,
            port=port, attempts=attempts, reason=reason,
        ))
        if self.ledger is not None:
            # settle any pending retry schedule first, then park durably
            self.ledger.retry_settled(self.scope, msg_id)
            self.ledger.dead_letter(
                self.scope, msg_id, stream=stream.name, reason=reason, frame=frame,
            )
        stream.stats.dead_letters += 1
        tm = stream.tm
        if tm is not None:
            tm.forget(msg_id)
            tm.recorder.record(
                "dead_letter", stream=stream.name,
                msg_id=msg_id, instance=instance, attempts=attempts, reason=reason,
            )
        if self._gauge is not None:
            self._gauge.set(float(len(self.dead_letters)))
        if self._outcome is not None:
            self._outcome("exhausted")
        if self._events is not None:
            if tm is not None:
                tm.recorder.record(
                    "supervisor_escalation", stream=stream.name,
                    event="RETRY_EXHAUSTED", instance=instance,
                )
            self._events.raise_event("RETRY_EXHAUSTED", source=stream.name)
            if tm is not None:
                # the escalation is the postmortem moment: persist the ring
                tm.recorder.dump(
                    stream.name, reason=f"supervisor escalation: RETRY_EXHAUSTED ({reason})"
                )

    def _bypass(self, instance: str) -> None:
        """Heal the chain around a repeatedly-failing optional instance."""
        try:
            self._stream.extract_streamlet(instance, force=True)
        except (ReconfigurationError, CompositionError):
            # unextractable wiring — or the instance vanished under a
            # concurrently-committed transaction before we got here;
            # either way retries/dead-letters still apply
            return
        self.bypassed.append(instance)
        if self._outcome is not None:
            self._outcome("bypassed")
        tm = self._stream.tm
        if self._events is not None:
            if tm is not None:
                tm.recorder.record(
                    "supervisor_escalation", stream=self._stream.name,
                    event="STREAMLET_BYPASSED", instance=instance,
                )
            self._events.raise_event("STREAMLET_BYPASSED", source=self._stream.name)
            if tm is not None:
                tm.recorder.dump(
                    self._stream.name,
                    reason=f"supervisor escalation: STREAMLET_BYPASSED ({instance})",
                )

    # -- the retry pump ---------------------------------------------------------------

    def pump_retries(self, now: float | None = None) -> int:
        """Re-post every retry whose backoff has expired; returns reposts.

        A retry whose target instance/port has gone away (bypassed,
        removed) or whose channel refuses the post is dead-lettered —
        the id must never dangle.  Called by the stream's owner (the
        share that steps it, in the gateway), so no commit can retire a
        target channel between its lookup and the post.  A re-post lands
        where the next step already looks, so it never retires the
        snapshot.
        """
        stream = self._stream
        if now is None:
            now = self._clock.now()
        due = sorted(e for e in self._pending if e[0] <= now)
        if not due:
            return 0
        self._pending = [e for e in self._pending if e[0] > now]
        reposted = 0
        for _due, _seq, msg_id, instance, port in due:
            node = stream._nodes.get(instance)
            channel = node.inputs.get(port) if node is not None else None
            if channel is None:
                self._dead_letter(msg_id, instance, port, reason="retry target detached")
                continue
            try:
                posted = channel.post(msg_id, stream.pool.size_of(msg_id), probe=True)
            except QueueClosedError:
                posted = False
            if posted:
                stream.stats.retries += 1
                if self.ledger is not None:
                    self.ledger.retry_settled(self.scope, msg_id)
                if self._outcome is not None:
                    self._outcome("retried")
                if stream.tm is not None:
                    stream.tm.recorder.record(
                        "retry", stream=stream.name, msg_id=msg_id, instance=instance
                    )
                reposted += 1
            else:
                self._dead_letter(
                    msg_id, instance, port, reason="retry channel full or closed"
                )
        return reposted

    def next_due(self) -> float | None:
        """Earliest pending retry timestamp, or None."""
        return min((e[0] for e in self._pending), default=None)

    @property
    def pending_retries(self) -> int:
        return len(self._pending)

    def settle(self, scheduler, *, max_cycles: int = 1000) -> int:
        """Pump the scheduler and the retry queue until both are quiet.

        With a :class:`~repro.util.clock.VirtualClock` the clock jumps
        straight to each next backoff expiry, so a whole retry storm
        settles in zero wall time.  Returns total scheduler moves.
        """
        moved = 0
        for _ in range(max_cycles):
            moved += scheduler.pump()
            if not self._pending:
                return moved
            nxt = self.next_due()
            advance_to = getattr(self._clock, "advance_to", None)
            if advance_to is not None and nxt is not None and nxt > self._clock.now():
                advance_to(nxt)
            self.pump_retries()
        raise FaultPlanError(f"supervisor did not settle within {max_cycles} cycles")
