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
3. **commit** — inside the stream's write section, opened by the
   stream's owner (so no step is in flight), hand the folded value to
   :meth:`~repro.runtime.stream.RuntimeStream._realise`, which makes the
   live objects match it and can fail only while instantiating new
   streamlets — before anything else has changed.

Every successful commit bumps the stream's monotonically increasing
**epoch**, which rides in-band on ``Content-Session`` (see
:meth:`repro.mime.headers.HeaderMap.set_epoch`) so the MobiGATE client
swaps its peer-streamlet chain at exactly the right message boundary.

Message conservation holds across every path: where queued ids go is
part of the value (a channel's ``contents``), and the realise step drops
— with accounting — exactly the ids no channel of the new value holds.

Reconfiguration needs no special case for synchronous channels: the
hop plan lives only in the topology snapshot, rebuilt after every
commit, and every channel hop, SYNC or not, is crossed by the same
hand-off rule.  A unit a commit leaves on a SYNC channel is claimed like
any other, and until it is, a claim that could post behind it waits
(:func:`repro.runtime.scheduler._step_node`), so FIFO order holds.
"""

from __future__ import annotations

import time
from enum import Enum, auto

from repro.errors import (
    MobiGateError,
    ReconfigAbortedError,
    ReconfigurationError,
    ReconfigValidationError,
    SemanticError,
)
from repro.mcl.config import ConfigurationTable
from repro.runtime.stream import ReconfigTiming, RuntimeStream
from repro.runtime.topology import Topology, apply
from repro.semantics import analyze
from repro.semantics.analyzer import ViolationKind

__all__ = ["ReconfigTransaction", "TxnState"]


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
    refused.  A successful commit bumps the stream epoch and finalises
    the nodes it retired.  The transaction is ``stream._txn`` while it
    commits: one at a time.
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
        #: the epoch this transaction committed as, once committed
        self.epoch: int | None = None
        self.error: Exception | None = None
        self.timing: ReconfigTiming | None = None

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
            if stream.tm is not None:
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
        # the write section: the owner's, with the snapshot retired, so the
        # queue counts the fold captures (and the commit they license) are exact
        with stream._write_access():
            if stream._txn is not None:
                raise ReconfigurationError(
                    f"stream {stream.name} already has a transaction mid-apply"
                )
            t_commit = time.perf_counter()
            timing = ReconfigTiming(actions=len(self._actions))
            stream._txn = self
            try:
                if validate and self.state is not TxnState.VALIDATED:
                    new, _table = self._validated(timing)
                else:
                    new = self._fold(self._aborted, timing)
                try:
                    retired = stream._realise(new, timing)
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
                if stream.tm is not None:
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
            self.timing = timing
            self.state = TxnState.COMMITTED
            for node in retired:
                stream._finalize_node(node)
            if stream.tm is not None:
                stream.tm.reconfig_outcome("committed")
                stream.tm.reconfig_latency("commit", time.perf_counter() - t_commit)
                stream.tm.epoch(stream.epoch)
                stream.tm.recorder.record(
                    "reconfig_commit", stream=stream.name,
                    label=self.label, epoch=stream.epoch,
                )
        return timing

