"""The gateway ledger: lifecycle events over a :class:`StateStore`.

The :class:`Ledger` is the write side of the durable state plane.  The
gateway appends small JSON records as sessions live — deployments,
counter deltas, dead letters, retry schedules — and after a
crash :func:`fold` replays them back into
per-session :class:`SessionFold` state the
:class:`~repro.store.recovery.RecoveryManager` can act on.

**The counter-delta model.**  Admission and delivery are *not* logged
per message — that would double the hot-path work and still drift from
the live invariant, because shed/abandon/fault paths admit to the pool
without crossing a single choke point.  Instead each pump cycle writes
**one** ``counters`` record, ``{"ev": "counters", "rows": [[session,
admitted, delivered, absorbed, dead_letters, dropped], ...]}``: per
session that delivered, the integers
:func:`~repro.faults.invariant.conservation_terms` reads, less the
session's previous mirror.  :func:`fold` adds them back into one report
per session (older ledgers' one-session records, each term under its
own name, fold alike), and the ``recovered`` record a new process
generation writes freezes whatever was in flight at the kill into
``recovered_in_flight``.  The equation those reports balance is stated
once, in :mod:`repro.faults.invariant`.

Per-message records exist only on the *fault* path, where the message
payload itself must survive: ``dead_letter`` and ``retry_scheduled``
carry the serialised frame (base64) so recovery can re-park and
re-inject real bytes, not just counts.
"""

from __future__ import annotations

import base64
from dataclasses import asdict, dataclass, field

from repro.faults.invariant import ConservationReport
from repro.store.base import StateStore


#: the terms of a ``counters`` row, in order (a legacy record's keys)
_MIRRORED = ("admitted", "delivered", "absorbed", "dead_letters", "dropped")

#: the record kinds :func:`fold` replays by their ``session``; any other
#: but ``counters`` is skipped whole
_FOLDED = frozenset({
    "deployed", "undeployed", "dead_letter", "dead_letter_evicted",
    "requeue", "retry_scheduled", "retry_settled", "recovered",
})

#: how a reconcile row names the report's terms (the ``recovery`` verb's keys)
_ROW_NAMES = {"stream": "session", "dead_letters": "dead_lettered", "residual": "resident"}


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
    #: ``counters`` deltas summed, ``recovered`` in-flight tallies frozen
    #: in (``residual`` stays 0: residency is live state)
    totals: ConservationReport = field(default_factory=ConservationReport)
    #: how many ``recovered`` records (process generations) folded in
    recoveries: int = 0
    #: dead letters still parked (msg_id → record with frame)
    parked: dict[str, ParkedRecord] = field(default_factory=dict)
    #: retries scheduled but not settled before the crash
    pending_retries: dict[str, RetryRecord] = field(default_factory=dict)


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
class CrossCrashReport:
    """Conservation reconciliation across every crash in the ledger.

    One :class:`~repro.faults.invariant.ConservationReport` per session:
    the folded terms, with live pool residency as the residual.
    """

    sessions: list[ConservationReport] = field(default_factory=list)

    @property
    def balanced(self) -> bool:
        """True when every session's equation holds."""
        return all(row.balanced for row in self.sessions)

    @property
    def missing(self) -> int:
        """Unexplained admissions across all sessions, each counted absolutely.

        A leak in one session and a double count in another must not
        cancel out: ``missing == 0`` holds exactly when :attr:`balanced`.
        """
        return sum(abs(row.missing) for row in self.sessions)

    def describe(self) -> dict:
        """A JSON-ready rendering (the ``recovery`` verb's payload)."""
        return {
            "balanced": self.balanced,
            "missing": self.missing,
            "sessions": [
                {
                    **{_ROW_NAMES.get(k, k): v for k, v in asdict(row).items()},
                    "balanced": row.balanced,
                    "missing": row.missing,
                }
                for row in self.sessions
            ],
        }


def _rows(record: dict):
    """``(session, deltas)`` per row of a ``counters`` record (a legacy one is
    one row); a row not of a session name and five integers is skipped."""
    rows = record["rows"] if "rows" in record else [
        [record.get("session"), *(record.get(n, 0) for n in _MIRRORED)]
    ]
    for row in rows if isinstance(rows, list) else ():
        if isinstance(row, list) and len(row) == 6 and isinstance(row[0], str) and all(
            isinstance(term, int) for term in row[1:]
        ):
            yield row[0], ConservationReport("", *row[1:])


def fold(records) -> LedgerFold:
    """Fold an iterable of ledger records into per-session state.

    A record of a kind it does not replay (a newer writer's, or a
    legacy ``lkg`` record) and a malformed record missing its session
    key are skipped before any session is touched rather than fatal —
    the ledger is a recovery aid, not a source of new failure modes.
    """
    out = LedgerFold()
    for record in records:
        out.records += 1
        ev = record.get("ev")
        if ev == "counters":
            for key, deltas in _rows(record):
                out.session(key).totals += deltas
            continue
        key = record.get("session")
        if ev not in _FOLDED or not isinstance(key, str):
            continue
        f = out.session(key)
        if ev == "deployed":
            f.composition = (str(record.get("mcl", "")), str(record.get("scheduler", "")))
            f.undeployed = False
        elif ev == "undeployed":
            f.undeployed = True
        elif ev == "dead_letter":
            msg_id = str(record.get("msg_id"))
            f.parked[msg_id] = ParkedRecord(
                msg_id=msg_id,
                stream=str(record.get("stream", "")),
                reason=str(record.get("reason", "")),
                frame_b64=record.get("frame"),
            )
        elif ev in ("dead_letter_evicted", "requeue"):
            # A requeued copy is a fresh admission (its counters flow
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
        elif ev == "recovered":
            # A new process generation adopted this session: whatever
            # was in flight at the kill has its fate frozen here, and
            # the pending retries were re-injected as fresh admissions.
            f.totals += ConservationReport(recovered_in_flight=f.totals.in_flight)
            f.pending_retries.clear()
            f.recoveries += 1
    return out


class Ledger:
    """Append-side API over a :class:`StateStore` (schema in the module doc)."""

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

    def mirror(self, rows: list) -> None:
        """Append one ``counters`` record of counter-delta rows (module doc)."""
        self.store.append({"ev": "counters", "rows": rows})

    def counters(self, session: str, *, admitted: int = 0, delivered: int = 0,
                 absorbed: int = 0, dead_letters: int = 0, dropped: int = 0) -> None:
        """Record one session's counter deltas: the one-row form of :meth:`mirror`."""
        if admitted or delivered or absorbed or dead_letters or dropped:
            self.mirror([[session, admitted, delivered, absorbed, dead_letters, dropped]])

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
