"""Transactional reconfiguration: decided on a value, realised as a diff.

The thesis claims reconfiguration "without message loss" (§6.6, Eq 7-1)
and formalises it as an operation on a *Stream* state (§5.1).  A
reconfiguration here is that operation, run as a *transaction* over the
stream's :class:`~repro.runtime.topology.Topology` value:

1. **stage** — collect a batch of rewiring actions (the compiled body of
   an MCL ``when`` handler, or programmatic AST actions);
2. **fold** — step a private capture of the value through the batch
   with :func:`~repro.runtime.topology.apply`, which re-checks names,
   port occupancy, channel-category detach legality against the pending
   counts just captured, and 4.4.1 port-type compatibility on every new
   link; **validate** additionally renders the result as a
   configuration table and runs the chapter-5 analyses (feedback loops,
   open circuits, relations) on it.  Nothing live is touched, so a batch
   that dies at action *k* needs no undoing: the old value is simply
   still the value (:class:`~repro.errors.ReconfigAbortedError`);
3. **commit** — inside the stream's write section (every scheduler step
   waited out), hand the folded value to
   :meth:`~repro.runtime.stream.RuntimeStream._realise`, which makes the
   live objects match it and can fail only while instantiating new
   streamlets — before anything else has changed.

Every successful commit bumps the stream's monotonically increasing
**epoch**, which rides in-band on ``Content-Session`` (see
:meth:`repro.mime.headers.HeaderMap.set_epoch`) so the MobiGATE client
swaps its peer-streamlet chain at exactly the right message boundary.

A :class:`ProbationMonitor` keeps the *previous value* of the newest
commit, with the node objects that commit retired, as a
**last-known-good record** for a probation window: a freshly committed
composition that faults repeatedly during warmup is rolled back by
realising the previous value again, and a ``RECONFIG_ROLLED_BACK``
context event escalates the decision (the rollback itself bumps the
epoch — it is a transition too).

Message conservation holds across every path: where queued ids go is
part of the value (a channel's ``contents``), and the realise step drops
— with accounting — exactly the ids no channel of the new value holds.

Reconfiguration composes with chain **fusion** without special cases:
fusion groups live only in the RCU execution snapshot, computed from the
value by :func:`repro.semantics.fusion.fusable_chains`.  A commit that
splices a streamlet into the middle of a fused region simply rebuilds
the snapshot — the new async auto-channel splits the region into two
smaller groups, and a later commit that restores a synchronous link
re-fuses them.  Residual messages left on an interior channel by a split
are drained downstream-first before the head claims new work, so FIFO
order survives the fuse/split/re-fuse transitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum, auto

from repro.errors import (
    MobiGateError,
    ReconfigAbortedError,
    ReconfigurationError,
    ReconfigValidationError,
    SemanticError,
)
from repro.mcl.config import ConfigurationTable
from repro.runtime.stream import ReconfigTiming, RuntimeStream, _Node
from repro.runtime.topology import Topology, apply
from repro.semantics import analyze
from repro.semantics.analyzer import ViolationKind

__all__ = [
    "CommitRecord",
    "LastKnownGoodStore",
    "ProbationMonitor",
    "ReconfigTransaction",
    "TxnState",
]


def flow_open_circuits(
    table: ConfigurationTable, terminal_definitions=frozenset()
) -> list[str]:
    """Open circuits (§5.2.2) on the *live flow* of a runtime table.

    The deployment compiler exposes every unbound port, so a compiled
    table can never fail the exposed-ports-bound open-circuit analysis;
    a *runtime* snapshot keeps only the edge channels attached at deploy
    time, and a blanket re-analysis would reject dormant islands (a pair
    of spares wired to each other but fed by nothing) that the runtime
    legitimately tolerates.  Messages are only *lost* where messages
    *go*: this check flags dangling, unexposed output ports on instances
    reachable from the stream's ingress.
    """
    bound: set[tuple[str, str]] = set()
    succ: dict[str, set[str]] = {}
    for link in table.links:
        bound.add((link.source.instance, link.source.port))
        bound.add((link.sink.instance, link.sink.port))
        succ.setdefault(link.source.instance, set()).add(link.sink.instance)
    for ref in table.exposed_in + table.exposed_out:
        bound.add((ref.instance, ref.port))
    connected = table.connected_instances()
    reachable: set[str] = set()
    stack = [ref.instance for ref in table.exposed_in if ref.instance in connected]
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        stack.extend(succ.get(name, ()))
    violations: list[str] = []
    for name in sorted(reachable):
        definition = table.instances.get(name)
        if definition is None or definition.name in terminal_definitions:
            continue
        outputs = definition.outputs()
        if not outputs:
            continue
        unbound = [p.name for p in outputs if (name, p.name) not in bound]
        if len(unbound) == len(outputs):
            violations.append(
                f"open circuit: {name} ({definition.name}) has no outgoing "
                "connection on the live flow; incoming messages would be lost"
            )
        elif unbound:
            violations.append(
                f"open circuit: {name} ({definition.name}) leaves output "
                f"port(s) {', '.join(unbound)} unconnected on the live flow"
            )
    return violations


def default_terminals(stream: RuntimeStream) -> frozenset[str]:
    """Definitions that legitimately terminate a flow: those with no outputs.

    Mirrors the server's open-circuit exemption so a transaction validated
    against a deployed stream accepts the same topologies the deployment
    did.
    """
    defs = dict(stream.table.streamlet_defs)
    for definition in stream._topology.instances.values():
        defs.setdefault(definition.name, definition)
    return frozenset(name for name, d in defs.items() if not d.outputs())


# ---------------------------------------------------------------------------
# The transaction
# ---------------------------------------------------------------------------


class TxnState(Enum):
    """Lifecycle of a :class:`ReconfigTransaction` (staged → terminal)."""

    STAGED = auto()
    VALIDATED = auto()
    COMMITTED = auto()
    ROLLED_BACK = auto()


class ReconfigTransaction:
    """One atomic reconfiguration: stage → validate → commit.

    The batch is folded over a private capture of the stream's topology
    value; only a fold that went through is realised on the live stream,
    so a batch that cannot be applied changes nothing and
    :class:`ReconfigAbortedError` carries the index of the action that
    refused.  A successful commit bumps the stream epoch and leaves the
    value it replaced in ``previous`` and the nodes it retired in
    ``retired`` for a last-known-good adopter.  The transaction is
    ``stream._txn`` while it commits: one at a time.
    """

    def __init__(
        self,
        stream: RuntimeStream,
        actions=None,
        *,
        label: str = "reconfig",
        terminal_definitions=None,
    ):
        self._stream = stream
        self._actions: list = list(actions) if actions is not None else []
        self.label = label
        self._terminals = terminal_definitions
        self.state = TxnState.STAGED
        #: the topology value a committed transaction replaced
        self.previous: Topology | None = None
        #: the nodes a committed transaction took out of the topology;
        #: finalised at commit unless a last-known-good adopter keeps them
        self.retired: list[_Node] = []
        #: the epoch this transaction committed as, once committed
        self.epoch: int | None = None
        self.error: Exception | None = None
        self.timing: ReconfigTiming | None = None

    @property
    def actions(self) -> tuple:
        return tuple(self._actions)

    def stage(self, *actions) -> "ReconfigTransaction":
        """Append actions to the batch (invalidates a prior validation)."""
        if self.state in (TxnState.COMMITTED, TxnState.ROLLED_BACK):
            raise ReconfigurationError(
                f"transaction {self.label!r} already {self.state.name.lower()}"
            )
        self._actions.extend(actions)
        self.state = TxnState.STAGED
        return self

    # -- fold / validate -------------------------------------------------------------

    def _fold(self, refused, timing: ReconfigTiming | None = None) -> Topology:
        """Step a private capture of the topology through the batch.

        ``refused(index, action, exc)`` builds the error for an action the
        step function turns down.  The fold is the first half of the
        Equation 7-1 channel-operations term.
        """
        stream = self._stream
        t0 = stream._clock.now()
        new = stream._capture()
        for index, action in enumerate(self._actions):
            try:
                apply(new, action)
            except MobiGateError as exc:
                raise refused(index, action, exc) from exc
        if timing is not None:
            timing.channel_ops += stream._clock.now() - t0
        return new

    def _rejected(self, index: int, action, exc: Exception) -> ReconfigValidationError:
        return ReconfigValidationError(
            f"{self.label}: action {index} ({type(action).__name__}) rejected: {exc}"
        )

    def _aborted(self, index: int, action, exc: Exception) -> ReconfigAbortedError:
        return ReconfigAbortedError(
            f"{self.label}: action {index} ({type(action).__name__}) failed; "
            f"prior topology kept: {exc}",
            cause=exc,
            failed_action=index,
        )

    def _validated(
        self, timing: ReconfigTiming | None = None
    ) -> tuple[Topology, ConfigurationTable]:
        """Fold the batch and run the chapter-5 analyses on the result."""
        stream = self._stream
        try:
            new = self._fold(self._rejected, timing)
            table = new.to_table()
            terminals = (
                self._terminals if self._terminals is not None
                else default_terminals(stream)
            )
            report = analyze(table, terminal_definitions=terminals)
            structural = [
                v for v in report.violations
                if v.kind is not ViolationKind.OPEN_CIRCUIT
            ]
            # the blanket open-circuit analysis would reject dormant
            # islands the runtime tolerates; check the live flow instead
            open_circuits = flow_open_circuits(table, terminal_definitions=terminals)
            if structural or open_circuits:
                first = structural[0].message if structural else open_circuits[0]
                exc = ReconfigValidationError(
                    f"{self.label}: post-reconfiguration topology "
                    f"inconsistent: {first}"
                )
                if structural:
                    try:
                        structural[0].raise_()
                    except SemanticError as cause:
                        raise exc from cause
                raise exc
        except ReconfigValidationError:
            if stream.tm.enabled:
                stream.tm.reconfig_outcome("validation_failed")
                stream.tm.recorder.record(
                    "reconfig_validation_failed",
                    stream=stream.name, label=self.label,
                )
            raise
        return new, table

    def validate(self) -> ConfigurationTable:
        """Dry-run the batch; returns the post-batch configuration table.

        Raises :class:`ReconfigValidationError` if any action would be
        refused against the current topology or the resulting shape
        flunks the chapter-5 analyses.  The live stream is never touched.
        """
        with self._stream.topology_lock:
            _new, table = self._validated()
        self.state = TxnState.VALIDATED
        return table

    # -- commit ------------------------------------------------------------------------

    def execute(self) -> ReconfigTiming:
        """Validate (unless already validated) and commit in one write section."""
        return self.commit()

    def commit(self, *, validate: bool = True) -> ReconfigTiming:
        """Fold the batch and, if it went through, realise it under quiescence.

        ``validate=False`` skips only the chapter-5 analyses; the fold is
        the decision and always runs.
        """
        stream = self._stream
        if self.state in (TxnState.COMMITTED, TxnState.ROLLED_BACK):
            raise ReconfigurationError(
                f"transaction {self.label!r} already {self.state.name.lower()}"
            )
        # the RCU write side: retires the published topology snapshot and
        # waits out every in-flight scheduler step, so the queue counts the
        # fold captures (and the commit they license) are exact
        with stream._write_access():
            if stream._txn is not None:
                raise ReconfigurationError(
                    f"stream {stream.name} already has a transaction mid-apply"
                )
            t_commit = time.perf_counter()
            timing = ReconfigTiming(actions=len(self._actions))
            previous = stream._topology
            stream._txn = self
            try:
                if validate and self.state is not TxnState.VALIDATED:
                    new, _table = self._validated(timing)
                else:
                    new = self._fold(self._aborted, timing)
                try:
                    self.retired = stream._realise(new, timing)
                except Exception as exc:
                    # a new streamlet could not be instantiated; _realise
                    # finalised what it had built and changed nothing else
                    raise ReconfigAbortedError(
                        f"{self.label}: instantiation failed; prior topology kept: {exc}",
                        cause=exc,
                    ) from exc
            except ReconfigAbortedError as exc:
                self.state = TxnState.ROLLED_BACK
                self.error = exc.cause
                if stream.tm.enabled:
                    stream.tm.reconfig_outcome("rolled_back")
                    stream.tm.recorder.record(
                        "reconfig_rollback", stream=stream.name, label=self.label,
                        action_index=exc.failed_action, error=str(exc.cause),
                    )
                raise
            finally:
                stream._txn = None
            stream.epoch += 1
            self.epoch = stream.epoch
            self.previous = previous
            self.timing = timing
            self.state = TxnState.COMMITTED
            adopter = stream.lkg_adopter
            if adopter is not None:
                adopter(self)
            else:
                for node in self.retired:
                    stream._finalize_node(node)
            if stream.tm.enabled:
                stream.tm.reconfig_outcome("committed")
                stream.tm.reconfig_latency("commit", time.perf_counter() - t_commit)
                stream.tm.epoch(stream.epoch)
                stream.tm.recorder.record(
                    "reconfig_commit", stream=stream.name,
                    label=self.label, epoch=stream.epoch,
                )
        return timing


# ---------------------------------------------------------------------------
# Last-known-good store + probation
# ---------------------------------------------------------------------------


@dataclass
class CommitRecord:
    """What it takes to go back one epoch: the value it replaced, and its nodes."""

    epoch: int
    #: the topology value the commit replaced
    previous: Topology
    #: node objects the commit took out of the topology, by instance name
    retired: dict[str, _Node] = field(default_factory=dict)
    #: operation parameters of every instance as the commit left them
    params: dict[str, dict] = field(default_factory=dict)
    committed_at: float = 0.0


class LastKnownGoodStore:
    """Holds the newest commit's way back until probation retires it.

    At most one record is held: adopting a new commit finalises the
    previous one (its retired nodes are ended and released — the prior
    epoch is now two transitions old and unreachable).

    The record holds live node objects and cannot be persisted, but its
    *transitions* can: with a ``ledger``
    (:class:`repro.store.ledger.Ledger`) every adopt / retire / take is
    recorded under ``scope``, so after a crash the recovery plane knows
    which epoch was last known good for the session.
    """

    def __init__(self, stream: RuntimeStream, *, ledger=None, scope: str | None = None):
        self._stream = stream
        self.record: CommitRecord | None = None
        self._ledger = ledger
        self._scope = scope if scope is not None else stream.name

    def adopt(self, txn: ReconfigTransaction) -> CommitRecord:
        """Retain what a freshly committed transaction replaced and retired."""
        self.finalize()
        stream = self._stream
        retired = {node.ctx.instance_id: node for node in txn.retired}
        self.record = CommitRecord(
            epoch=txn.epoch,
            previous=txn.previous,
            retired=retired,
            params={
                name: dict(node.ctx.params)
                for name, node in (stream._nodes | retired).items()
            },
            committed_at=stream._clock.now(),
        )
        if self._ledger is not None and self._ledger.enabled:
            self._ledger.lkg(self._scope, "adopted", epoch=txn.epoch)
        return self.record

    def finalize(self) -> None:
        """Retire the held record: finalise the nodes it kept, drop it."""
        record, self.record = self.record, None
        if record is None:
            return
        for node in record.retired.values():
            self._stream._finalize_node(node)
        if self._ledger is not None and self._ledger.enabled:
            self._ledger.lkg(self._scope, "retired", epoch=record.epoch)

    def take(self) -> CommitRecord | None:
        """Remove and return the record *without* finalising (rollback path)."""
        record, self.record = self.record, None
        if record is not None and self._ledger is not None and self._ledger.enabled:
            self._ledger.lkg(self._scope, "taken", epoch=record.epoch)
        return record


class ProbationMonitor:
    """Rolls back a freshly committed epoch that faults during warmup.

    Armed on a stream (optionally hooked into a
    :class:`repro.faults.Supervisor`), the monitor adopts the value every
    commit replaced as the last-known-good record.  If ``fault_threshold``
    streamlet faults land inside the ``window`` (in stream-clock seconds)
    after the commit, :meth:`rollback_to_lkg` realises that value again,
    bumps the epoch (a rollback is a transition too), and escalates
    ``RECONFIG_ROLLED_BACK``.  A quiet window retires the
    record and the new epoch graduates.
    """

    def __init__(
        self,
        stream: RuntimeStream,
        *,
        window: float = 5.0,
        fault_threshold: int = 3,
        events=None,
        ledger=None,
        scope: str | None = None,
    ):
        if window <= 0:
            raise ReconfigurationError(f"probation window must be > 0, got {window}")
        if fault_threshold < 1:
            raise ReconfigurationError(
                f"fault threshold must be >= 1, got {fault_threshold}"
            )
        self._stream = stream
        self.window = window
        self.fault_threshold = fault_threshold
        self._events = events
        self.store = LastKnownGoodStore(stream, ledger=ledger, scope=scope)
        self._faults = 0
        self._armed = False
        self._supervisor = None
        self._prev_failure_hook = None
        self.rollbacks = 0

    # -- arming -----------------------------------------------------------------

    def arm(self, *, supervisor=None) -> "ProbationMonitor":
        """Start adopting commits; watch faults via ``supervisor`` or the
        stream's ``failure_hook`` (chained, not replaced)."""
        if self._armed:
            raise ReconfigurationError("probation monitor already armed")
        stream = self._stream
        if stream.lkg_adopter is not None:
            raise ReconfigurationError(
                f"stream {stream.name} already has a last-known-good adopter"
            )
        stream.lkg_adopter = self._adopt
        if supervisor is not None:
            self._supervisor = supervisor
            supervisor.probation = self
        else:
            previous = stream.failure_hook
            self._prev_failure_hook = previous

            def chained(instance_id, exc):
                if previous is not None:
                    previous(instance_id, exc)
                self.note_fault(instance_id)

            stream.failure_hook = chained
        self._armed = True
        return self

    def disarm(self) -> None:
        """Stop watching; the held record (if any) is retired as good."""
        if not self._armed:
            return
        stream = self._stream
        stream.lkg_adopter = None
        if self._supervisor is not None:
            self._supervisor.probation = None
            self._supervisor = None
        else:
            stream.failure_hook = self._prev_failure_hook
            self._prev_failure_hook = None
        self.store.finalize()
        self._faults = 0
        self._armed = False

    @property
    def on_probation(self) -> bool:
        return self.store.record is not None

    # -- the probation clock ------------------------------------------------------

    def _adopt(self, txn: ReconfigTransaction) -> None:
        self.store.adopt(txn)
        self._faults = 0

    def tick(self, now: float | None = None) -> None:
        """Advance the probation clock; a survived window retires the record."""
        record = self.store.record
        if record is None:
            return
        if now is None:
            now = self._stream._clock.now()
        if now - record.committed_at >= self.window:
            self.store.finalize()
            self._faults = 0

    def note_fault(self, instance: str | None = None) -> None:
        """Count one streamlet fault against the epoch on probation."""
        self.tick()
        if self.store.record is None:
            return
        self._faults += 1
        if self._faults >= self.fault_threshold:
            self.rollback_to_lkg()

    # -- the rollback ------------------------------------------------------------

    def rollback_to_lkg(self) -> None:
        """Realise the last-known-good value again, conserving in-flight ids."""
        stream = self._stream
        record = self.store.take()
        if record is None:
            raise ReconfigurationError(
                f"stream {stream.name} has no last-known-good record"
            )
        with stream._write_access():
            # the same realise step a commit uses, pointed at the old value:
            # a channel that lived through the epoch is not touched (its ids
            # keep their queue position); ids on a channel the old value does
            # not have are dropped with accounting.  Every node the record
            # kept is live again; what this transition retires is finalised
            for node in stream._realise(
                record.previous, ReconfigTiming(), revive=record.retired
            ):
                stream._finalize_node(node)
            for name, params in record.params.items():
                node = stream._nodes.get(name)
                if node is not None:
                    node.ctx.params.clear()
                    node.ctx.params.update(params)
            stream.epoch += 1  # the rollback is itself an epoch transition
            self._faults = 0
        self.rollbacks += 1
        if stream.tm.enabled:
            stream.tm.reconfig_outcome("rolled_back")
            stream.tm.epoch(stream.epoch)
            stream.tm.recorder.record(
                "probation_rollback", stream=stream.name, epoch=stream.epoch
            )
        if self._events is not None:
            self._events.raise_event("RECONFIG_ROLLED_BACK", source=stream.name)
        elif stream.escalation_hook is not None:
            stream.escalation_hook(
                "RECONFIG_ROLLED_BACK",
                ReconfigurationError(
                    f"epoch {record.epoch} flunked probation; "
                    f"rolled back to last known good"
                ),
            )
