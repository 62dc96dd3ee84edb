"""Crash recovery: turn a replayed ledger back into live gateway state.

The :class:`RecoveryManager` runs when a :class:`~repro.gateway.server.
GatewayServer` with a durable ledger starts.  It folds the ledger (see
:mod:`repro.store.ledger`) and, for every session that was deployed and
never deliberately undeployed:

1. **redeploys** the session under its original key, MCL source, and
   scheduler (a ``"process"`` record from a build that still had the
   sharded engine comes back as ``"threaded"``, with a
   ``scheduler_substituted`` flight-recorder event);
2. writes the ``recovered`` record — *before* re-injecting anything, so
   the in-flight tally the dead process lost is frozen into
   ``recovered_in_flight`` and re-injections count as fresh admissions;
3. **re-parks** every still-parked dead letter into the new session
   supervisor's :class:`~repro.faults.supervisor.DeadLetterPool`, frames
   decoded from the ledger (no stats bump — the originals are already in
   the folded ``dead_letters`` total);
4. **re-injects** every retry that was scheduled but unsettled at the
   kill, through the ordinary admission path (gateway-internal headers
   stripped first — the old connection and ingress stamp died with the
   process).

:meth:`RecoveryManager.reconcile` is the checkable other half: it
mirrors live counters in one record, refolds, and balances each
session's folded :class:`~repro.faults.invariant.ConservationReport`
against live pool residency — the ``durability`` bench and the crash
tests assert its ``balanced`` verdict after every kill.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.faults.invariant import conservation_terms
from repro.store.ledger import CrossCrashReport, LedgerFold, SessionFold


@dataclass
class SessionRecovery:
    """What recovery did (or refused to do) for one session."""

    session: str
    restored: bool
    #: why the session was skipped ("" when restored)
    reason: str = ""
    #: in-flight admissions frozen into ``recovered_in_flight``
    in_flight: int = 0
    #: dead letters re-parked into the new supervisor
    reparked: int = 0
    #: pending retries re-admitted through the ordinary path
    reinjected: int = 0
    #: pending retries that could not be re-admitted (shed, with accounting)
    reinject_failures: int = 0


@dataclass
class RecoveryReport:
    """The outcome of one :meth:`RecoveryManager.recover` pass."""

    records: int = 0
    sessions: list[SessionRecovery] = field(default_factory=list)

    @property
    def restored(self) -> int:
        """How many sessions came back."""
        return sum(1 for s in self.sessions if s.restored)

    def describe(self) -> dict:
        """A JSON-ready summary (the ``recovery`` control verb's payload)."""
        return {
            "records": self.records,
            "restored": self.restored,
            "sessions": [asdict(s) for s in self.sessions],
        }


class RecoveryManager:
    """Replays a gateway's ledger into redeployed sessions (module doc)."""

    def __init__(self, gateway, ledger) -> None:
        self._gateway = gateway
        self._ledger = ledger
        #: the most recent :meth:`recover` outcome (None before the first)
        self.last_report: RecoveryReport | None = None

    # -- restart path ---------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Fold the ledger and restore every recoverable session.

        Safe to call on a fresh ledger (restores nothing).  The server
        runs it on its event loop in ``start()``, before either plane
        listens: the loop owns every restored stream, and no cycle runs
        (so none is lent) until the pass is done.
        """
        fold = self._ledger.fold()
        report = RecoveryReport(records=fold.records)
        telemetry = self._gateway.telemetry
        counter = telemetry.recovery_counter if telemetry is not None else None
        for sf in sorted(fold.recoverable(), key=lambda f: f.session):
            outcome = self._recover_session(sf)
            report.sessions.append(outcome)
            if counter is not None:
                counter("restored" if outcome.restored else "skipped").inc()
            if telemetry is not None and outcome.restored:
                telemetry.recorder.record(
                    "session_recovered",
                    stream=outcome.session,
                    in_flight=outcome.in_flight,
                    reparked=outcome.reparked,
                    reinjected=outcome.reinjected,
                )
        self.last_report = report
        return report

    def _recover_session(self, sf: SessionFold) -> SessionRecovery:
        from repro.errors import MobiGateError
        from repro.gateway.session import mirror

        gateway = self._gateway
        out = SessionRecovery(
            session=sf.session,
            restored=False,
            in_flight=sf.totals.in_flight,
        )
        if sf.session in gateway.sessions:
            out.reason = "already deployed"
            return out
        mcl, scheduler = sf.composition or ("", "")
        if not mcl:
            out.reason = "no composition recorded"
            return out
        if scheduler == "process":
            # a ledger written while the sharded multi-process engine
            # existed (EXPERIMENTS.md, "The process plane"): the composition
            # now picks loop or executor, and deploy() records "threaded"
            # for the next restart
            scheduler = "threaded"
            if gateway.telemetry is not None:
                gateway.telemetry.recorder.record(
                    "scheduler_substituted",
                    stream=sf.session,
                    recorded="process",
                    engine=scheduler,
                )
        try:
            session = gateway.deploy(
                mcl,
                session_key=sf.session,
                scheduler=scheduler or "threaded",
            )
        except MobiGateError as exc:
            out.reason = f"redeploy failed: {exc}"
            return out
        # Freeze the dead generation's in-flight tally FIRST: everything
        # admitted below (re-injections, shed failures) must land in the
        # new generation's running tally, not the frozen one.
        self._ledger.recovered(
            sf.session,
            in_flight=sf.totals.in_flight,
            parked=len(sf.parked),
            retries=len(sf.pending_retries),
        )
        out.reparked = self._repark(session, sf)
        out.reinjected, out.reinject_failures = self._reinject(session, sf)
        mirror(self._ledger, [(session, conservation_terms(session.stream))])
        self._ledger.flush()
        out.restored = True
        return out

    def _repark(self, session, sf: SessionFold) -> int:
        """Re-park still-parked dead letters into the session supervisor.

        Entries go straight into the pool — *not* through the supervisor's
        dead-letter path — because their release from the old pool is
        already folded into the ``dead_letters`` total; a
        second stats bump would unbalance the equation.
        """
        supervisor = getattr(session, "supervisor", None)
        if supervisor is None or not sf.parked:
            return 0
        from repro.faults.supervisor import DeadLetter
        from repro.mime.wire import parse_message

        reparked = 0
        for record in sf.parked.values():
            frame = record.frame
            try:
                message = parse_message(frame) if frame is not None else None
            except Exception:
                message = None  # an undecodable frame still gets its slot back
            supervisor.dead_letters.add(
                DeadLetter(
                    msg_id=record.msg_id,
                    message=message,
                    instance="",
                    port="",
                    attempts=0,
                    reason=f"recovered: {record.reason}" if record.reason else "recovered",
                )
            )
            reparked += 1
        return reparked

    def _reinject(self, session, sf: SessionFold) -> tuple[int, int]:
        """Re-admit unsettled retries through the ordinary offer path."""
        if not sf.pending_retries:
            return 0, 0
        from repro.gateway.session import ADMITTED, FULL
        from repro.mime.wire import parse_message

        ok = failed = 0
        for record in sf.pending_retries.values():
            frame = record.frame
            if frame is None:
                failed += 1
                continue
            try:
                message = parse_message(frame)
            except Exception:
                failed += 1
                continue
            status = session.offer(message)  # a fresh origin, no connection
            if status == ADMITTED:
                ok += 1
                continue
            if status == FULL:
                session.shed(message)  # no room: shed, with accounting
            failed += 1
        return ok, failed

    # -- the checkable half -----------------------------------------------------------

    def reconcile(self) -> CrossCrashReport:
        """Balance the conservation equation for every session, across crashes.

        Mirrors every live session's counters into one record, refolds,
        and sets each session's live pool residency as the residual of
        its folded report.  Meaningful at quiescence (no traffic
        mid-flight).  It touches every session's stream, so the control
        plane runs it as an owner call over all of them.
        """
        from repro.gateway.session import mirror

        gateway = self._gateway
        mirror(self._ledger, [(s, conservation_terms(s.stream)) for s in gateway.sessions.values()])
        self._ledger.flush()
        fold: LedgerFold = self._ledger.fold()
        report = CrossCrashReport()
        for key in sorted(fold.sessions):
            live = gateway.sessions.get(key)
            resident = live.resident if live is not None else 0
            row = replace(fold.sessions[key].totals, stream=key, residual=resident)
            report.sessions.append(row)
        return report
