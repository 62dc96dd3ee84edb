"""The gateway ledger: lifecycle events over a :class:`StateStore`.

The :class:`Ledger` is the write side of the durable state plane.  The
gateway appends small JSON records as sessions live — deployments,
counter deltas, dead letters, retry schedules, last-known-good
adoptions — and after a crash :func:`fold` replays them back into
per-session :class:`SessionFold` state the
:class:`~repro.store.recovery.RecoveryManager` can act on.

**The counter-delta model.**  Admission and delivery are *not* logged
per message — that would double the hot-path work and still drift from
the live invariant, because shed/abandon/fault paths admit to the pool
without crossing a single choke point.  Instead each
:class:`~repro.gateway.session.GatewaySession` mirrors its stream's
counters into one ``counters`` record per pump cycle, carrying the
**deltas** since the previous mirror.  Folding the deltas reproduces
exactly the totals the live conservation checker sees, so the
cross-crash equation::

    admitted == delivered + absorbed + dead_lettered + dropped
                + resident + recovered_in_flight

balances by construction: the fold's running in-flight tally must equal
live pool residency at quiescence, and whatever was in flight when a
process died is frozen into ``recovered_in_flight`` by the ``recovered``
record the next generation writes.

Per-message records exist only on the *fault* path, where the message
payload itself must survive: ``dead_letter`` and ``retry_scheduled``
carry the serialised frame (base64) so recovery can re-park and
re-inject real bytes, not just counts.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

from repro.store.base import StateStore


def _encode_frame(frame: bytes | None) -> str | None:
    """Encode a wire frame for JSON transport (None passes through)."""
    if frame is None:
        return None
    return base64.b64encode(frame).decode("ascii")


def _decode_frame(text: str | None) -> bytes | None:
    """Inverse of :func:`_encode_frame`."""
    if text is None:
        return None
    return base64.b64decode(text.encode("ascii"))


@dataclass
class ParkedRecord:
    """A dead letter as the ledger remembers it (frame included)."""

    msg_id: str
    stream: str
    reason: str
    frame_b64: str | None

    @property
    def frame(self) -> bytes | None:
        """The serialised wire frame, decoded back to bytes."""
        return _decode_frame(self.frame_b64)


@dataclass
class RetryRecord:
    """A scheduled-but-unsettled retry as the ledger remembers it."""

    msg_id: str
    instance: str
    port: str
    attempt: int
    frame_b64: str | None

    @property
    def frame(self) -> bytes | None:
        """The serialised wire frame, decoded back to bytes."""
        return _decode_frame(self.frame_b64)


@dataclass
class SessionFold:
    """Everything the ledger knows about one session after a replay."""

    session: str
    #: (mcl source, scheduler name) from the last ``deployed`` record
    composition: tuple[str, str] | None = None
    #: True once an operator deliberately ran the ``undeploy`` verb
    undeployed: bool = False
    #: last adopted last-known-good epoch / MCL (None once retired)
    lkg_epoch: int | None = None
    lkg_mcl: str | None = None
    #: cumulative conservation totals folded from ``counters`` deltas
    admitted: int = 0
    delivered: int = 0
    absorbed: int = 0
    dead_lettered: int = 0
    dropped: int = 0
    #: in-flight tallies frozen by previous generations' ``recovered`` records
    recovered_in_flight: int = 0
    #: how many ``recovered`` records (process generations) folded in
    recoveries: int = 0
    #: in-flight since the last recovery point (admission minus outflow)
    running_in_flight: int = 0
    #: dead letters still parked (msg_id → record with frame)
    parked: dict[str, ParkedRecord] = field(default_factory=dict)
    #: retries scheduled but not settled before the crash
    pending_retries: dict[str, RetryRecord] = field(default_factory=dict)

    @property
    def in_flight(self) -> int:
        """Messages admitted since the last recovery point with no fate yet."""
        return self.running_in_flight

    def balances(self, resident: int) -> bool:
        """Whether the cross-crash conservation equation holds.

        ``resident`` is the live pool residency for this session's
        stream.  By construction ``running_in_flight`` is admitted minus
        every recorded fate, so the equation reduces to ``resident ==
        running_in_flight``; both forms are checked for belt and braces.
        """
        total = (
            self.delivered + self.absorbed + self.dead_lettered
            + self.dropped + resident + self.recovered_in_flight
        )
        return self.admitted == total and resident == self.running_in_flight


@dataclass
class LedgerFold:
    """The full result of replaying a ledger: per-session folds."""

    sessions: dict[str, SessionFold] = field(default_factory=dict)
    #: total records replayed
    records: int = 0

    def session(self, key: str) -> SessionFold:
        """The fold for ``key``, created empty on first touch."""
        if key not in self.sessions:
            self.sessions[key] = SessionFold(session=key)
        return self.sessions[key]

    def recoverable(self) -> list[SessionFold]:
        """Sessions worth restoring: deployed and not deliberately undeployed."""
        return [
            f for f in self.sessions.values()
            if f.composition is not None and not f.undeployed
        ]


@dataclass
class SessionBalance:
    """One session's line in a :class:`CrossCrashReport`."""

    session: str
    admitted: int
    delivered: int
    absorbed: int
    dead_lettered: int
    dropped: int
    resident: int
    recovered_in_flight: int
    balanced: bool
    #: admissions with no recorded fate and no live residency (should be 0)
    missing: int


@dataclass
class CrossCrashReport:
    """Conservation reconciliation across every crash in the ledger."""

    sessions: list[SessionBalance] = field(default_factory=list)

    @property
    def balanced(self) -> bool:
        """True when every session's equation holds."""
        return all(row.balanced for row in self.sessions)

    @property
    def missing(self) -> int:
        """Total unexplained admissions across all sessions."""
        return sum(row.missing for row in self.sessions)

    def describe(self) -> dict:
        """A JSON-ready rendering (the ``recovery`` verb's payload)."""
        return {
            "balanced": self.balanced,
            "missing": self.missing,
            "sessions": [
                {
                    "session": row.session,
                    "admitted": row.admitted,
                    "delivered": row.delivered,
                    "absorbed": row.absorbed,
                    "dead_lettered": row.dead_lettered,
                    "dropped": row.dropped,
                    "resident": row.resident,
                    "recovered_in_flight": row.recovered_in_flight,
                    "balanced": row.balanced,
                    "missing": row.missing,
                }
                for row in self.sessions
            ],
        }


def fold(records) -> LedgerFold:
    """Fold an iterable of ledger records into per-session state.

    Unknown event types are ignored (forward compatibility); malformed
    records missing their session key are skipped rather than fatal —
    the ledger is a recovery aid, not a source of new failure modes.
    """
    out = LedgerFold()
    for record in records:
        out.records += 1
        ev = record.get("ev")
        key = record.get("session")
        if not isinstance(key, str):
            continue
        f = out.session(key)
        if ev == "deployed":
            f.composition = (str(record.get("mcl", "")), str(record.get("scheduler", "")))
            f.undeployed = False
        elif ev == "undeployed":
            f.undeployed = True
        elif ev == "counters":
            admitted = int(record.get("admitted", 0))
            delivered = int(record.get("delivered", 0))
            absorbed = int(record.get("absorbed", 0))
            dead = int(record.get("dead_letters", 0))
            dropped = int(record.get("dropped", 0))
            f.admitted += admitted
            f.delivered += delivered
            f.absorbed += absorbed
            f.dead_lettered += dead
            f.dropped += dropped
            f.running_in_flight += admitted - (delivered + absorbed + dead + dropped)
        elif ev == "dead_letter":
            msg_id = str(record.get("msg_id"))
            f.parked[msg_id] = ParkedRecord(
                msg_id=msg_id,
                stream=str(record.get("stream", "")),
                reason=str(record.get("reason", "")),
                frame_b64=record.get("frame"),
            )
        elif ev == "dead_letter_evicted":
            f.parked.pop(str(record.get("msg_id")), None)
        elif ev == "requeue":
            # The requeued copy is a fresh admission (its counters flow
            # through the mirror); only the parked entry goes away.
            f.parked.pop(str(record.get("msg_id")), None)
        elif ev == "retry_scheduled":
            msg_id = str(record.get("msg_id"))
            f.pending_retries[msg_id] = RetryRecord(
                msg_id=msg_id,
                instance=str(record.get("instance", "")),
                port=str(record.get("port", "")),
                attempt=int(record.get("attempt", 0)),
                frame_b64=record.get("frame"),
            )
        elif ev == "retry_settled":
            f.pending_retries.pop(str(record.get("msg_id")), None)
        elif ev == "lkg":
            action = record.get("action")
            if action == "adopted":
                f.lkg_epoch = int(record.get("epoch", 0))
                f.lkg_mcl = record.get("mcl")
            elif action == "retired":
                f.lkg_epoch = None
                f.lkg_mcl = None
            # "taken" (a rollback consumed the LKG) leaves it adopted.
        elif ev == "recovered":
            # A new process generation adopted this session: whatever
            # was in flight at the kill has its fate frozen here, and
            # the pending retries were re-injected as fresh admissions.
            f.recovered_in_flight += f.running_in_flight
            f.running_in_flight = 0
            f.pending_retries.clear()
            f.recoveries += 1
    return out


class Ledger:
    """Append-side API over a :class:`StateStore` (schema in the module doc)."""

    #: guards let hot paths skip building records for the null twin
    enabled = True

    def __init__(self, store: StateStore) -> None:
        self.store = store

    # -- session lifecycle ----------------------------------------------------------

    def deployed(self, session: str, *, mcl: str, scheduler: str) -> None:
        """Record a session deployment (composition source + scheduler)."""
        self.store.append(
            {"ev": "deployed", "session": session, "mcl": mcl, "scheduler": scheduler}
        )
        self.store.flush()

    def undeployed(self, session: str) -> None:
        """Record a *deliberate* undeploy — recovery will skip the session.

        Clean stops and drains never write this record; a session that
        merely lost its process is still recoverable.
        """
        self.store.append({"ev": "undeployed", "session": session})
        self.store.flush()

    def recovered(self, session: str, *, in_flight: int, parked: int, retries: int) -> None:
        """Record that a new generation adopted the session post-crash."""
        self.store.append(
            {
                "ev": "recovered",
                "session": session,
                "in_flight": in_flight,
                "parked": parked,
                "retries": retries,
            }
        )
        self.store.flush()

    # -- conservation counters ------------------------------------------------------

    def counters(
        self,
        session: str,
        *,
        admitted: int = 0,
        delivered: int = 0,
        absorbed: int = 0,
        dead_letters: int = 0,
        dropped: int = 0,
    ) -> None:
        """Record counter *deltas* since the session's previous mirror."""
        if not (admitted or delivered or absorbed or dead_letters or dropped):
            return
        self.store.append(
            {
                "ev": "counters",
                "session": session,
                "admitted": admitted,
                "delivered": delivered,
                "absorbed": absorbed,
                "dead_letters": dead_letters,
                "dropped": dropped,
            }
        )

    # -- fault path (frames included) ----------------------------------------------

    def dead_letter(
        self,
        session: str,
        msg_id: str,
        *,
        stream: str = "",
        reason: str = "",
        frame: bytes | None = None,
    ) -> None:
        """Record a parked dead letter, carrying its frame for re-parking."""
        self.store.append(
            {
                "ev": "dead_letter",
                "session": session,
                "msg_id": msg_id,
                "stream": stream,
                "reason": reason,
                "frame": _encode_frame(frame),
            }
        )
        self.store.flush()

    def dead_letter_evicted(self, session: str, msg_id: str) -> None:
        """Record capacity eviction of the oldest parked dead letter."""
        self.store.append(
            {"ev": "dead_letter_evicted", "session": session, "msg_id": msg_id}
        )

    def requeue(self, session: str, msg_id: str) -> None:
        """Record operator re-injection of a parked dead letter."""
        self.store.append({"ev": "requeue", "session": session, "msg_id": msg_id})
        self.store.flush()

    def retry_scheduled(
        self,
        session: str,
        msg_id: str,
        *,
        instance: str,
        port: str,
        attempt: int = 0,
        frame: bytes | None = None,
    ) -> None:
        """Record a retry schedule, carrying the frame for re-injection."""
        self.store.append(
            {
                "ev": "retry_scheduled",
                "session": session,
                "msg_id": msg_id,
                "instance": instance,
                "port": port,
                "attempt": attempt,
                "frame": _encode_frame(frame),
            }
        )

    def retry_settled(self, session: str, msg_id: str) -> None:
        """Record that a scheduled retry was re-posted (or gave up)."""
        self.store.append({"ev": "retry_settled", "session": session, "msg_id": msg_id})

    # -- last-known-good compositions ------------------------------------------------

    def lkg(self, session: str, action: str, *, epoch: int = 0, mcl: str | None = None) -> None:
        """Record an LKG transition: ``adopted`` / ``retired`` / ``taken``."""
        record: dict = {"ev": "lkg", "session": session, "action": action, "epoch": epoch}
        if mcl is not None:
            record["mcl"] = mcl
        self.store.append(record)
        self.store.flush()

    # -- plumbing -------------------------------------------------------------------

    def flush(self) -> None:
        """Flush the backing store (per its fsync policy)."""
        self.store.flush()

    def close(self) -> None:
        """Flush and close the backing store."""
        self.store.close()

    def fold(self) -> LedgerFold:
        """Replay the backing store into per-session folds."""
        return fold(self.store.replay())


class NullLedger:
    """Disabled twin of :class:`Ledger`: every method is a no-op."""

    enabled = False
    store = None

    def deployed(self, session: str, *, mcl: str, scheduler: str) -> None:
        """No-op."""

    def undeployed(self, session: str) -> None:
        """No-op."""

    def recovered(self, session: str, *, in_flight: int, parked: int, retries: int) -> None:
        """No-op."""

    def counters(self, session: str, **deltas: int) -> None:
        """No-op."""

    def dead_letter(self, session: str, msg_id: str, **info) -> None:
        """No-op."""

    def dead_letter_evicted(self, session: str, msg_id: str) -> None:
        """No-op."""

    def requeue(self, session: str, msg_id: str) -> None:
        """No-op."""

    def retry_scheduled(self, session: str, msg_id: str, **info) -> None:
        """No-op."""

    def retry_settled(self, session: str, msg_id: str) -> None:
        """No-op."""

    def lkg(self, session: str, action: str, *, epoch: int = 0, mcl: str | None = None) -> None:
        """No-op."""

    def flush(self) -> None:
        """No-op."""

    def close(self) -> None:
        """No-op."""

    def fold(self) -> LedgerFold:
        """An empty fold (nothing was ever recorded)."""
        return LedgerFold()


#: shared disabled ledger — safe default for every ledger-aware component
NULL_LEDGER = NullLedger()
