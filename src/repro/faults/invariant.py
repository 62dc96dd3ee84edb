"""The message-conservation invariant.

After any schedule — including one with injected faults — every id the
pool ever admitted must be *exactly one* of:

* delivered out of an egress port (``stats.messages_out``),
* absorbed by a streamlet that emitted nothing (``stats.absorbed``),
* parked in a dead-letter pool (``stats.dead_letters``),
* counted in one drop statistic (``queue_drops``,
  ``open_circuit_drops``, ``failure_drops``, ``end_drops``), or
* still resident in the pool (in a channel, mid-process, or awaiting a
  supervisor retry) — the residual term.

Retries are deliberately *not* a terminal category: a retried message is
still in flight and will eventually land in one of the buckets above.
The runtime keeps the buckets disjoint (each release site increments
exactly one statistic), so the identity is a strict equality — any
imbalance is a leak (an id released without being counted, or counted
without being released) and :func:`assert_conservation` turns it into a
:class:`~repro.errors.ConservationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConservationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.stream import RuntimeStream


@dataclass(frozen=True)
class ConservationReport:
    """One snapshot of the lifecycle ledger for a stream."""

    stream: str
    admitted: int
    delivered: int
    absorbed: int
    dead_letters: int
    queue_drops: int
    open_circuit_drops: int
    failure_drops: int
    end_drops: int
    residual: int

    @property
    def accounted(self) -> int:
        """Sum of every terminal bucket plus the pool residual."""
        return (
            self.delivered
            + self.absorbed
            + self.dead_letters
            + self.queue_drops
            + self.open_circuit_drops
            + self.failure_drops
            + self.end_drops
            + self.residual
        )

    @property
    def missing(self) -> int:
        """Positive = leaked ids; negative = double-counted ids."""
        return self.admitted - self.accounted

    @property
    def balanced(self) -> bool:
        return self.missing == 0

    @property
    def lost(self) -> int:
        """Messages that vanished without delivery (the zero-loss check).

        Dead letters do *not* count as lost — they are retained, inspectable,
        and re-injectable; drops are gone.
        """
        return (
            self.queue_drops
            + self.open_circuit_drops
            + self.failure_drops
            + self.end_drops
        )

    def describe(self) -> str:
        """The full ledger as one human-readable line."""
        return (
            f"stream {self.stream}: admitted={self.admitted} = "
            f"delivered={self.delivered} + absorbed={self.absorbed} + "
            f"dead_letters={self.dead_letters} + queue_drops={self.queue_drops} + "
            f"open_circuit_drops={self.open_circuit_drops} + "
            f"failure_drops={self.failure_drops} + end_drops={self.end_drops} + "
            f"residual={self.residual} (missing={self.missing})"
        )


def check_conservation(stream: "RuntimeStream") -> ConservationReport:
    """Snapshot the lifecycle ledger for one stream."""
    stats = stream.stats
    return ConservationReport(
        stream=stream.name,
        admitted=stream.pool.admitted,
        delivered=stats.messages_out,
        absorbed=stats.absorbed,
        dead_letters=stats.dead_letters,
        queue_drops=stats.queue_drops,
        open_circuit_drops=stats.open_circuit_drops,
        failure_drops=stats.failure_drops,
        end_drops=stats.end_drops,
        residual=len(stream.pool),
    )


def _dump_flight(stream: "RuntimeStream", reason: str) -> str:
    """Auto-dump the flight recorder on an invariant failure; '' if unobserved.

    The dump turns a red conservation check into a self-explaining trace:
    the artifact holds every recent drop/retry/fault/reconfig event in
    sequence order, so the postmortem starts from *what happened*, not
    from a bare imbalance number.
    """
    if stream.tm is None:
        return ""
    recorder = stream.tm.recorder
    recorder.record("conservation_violation", stream=stream.name, reason=reason)
    return recorder.dump(stream.name, reason=reason)


def assert_conservation(stream: "RuntimeStream", *, zero_loss: bool = False) -> ConservationReport:
    """Raise :class:`ConservationError` unless the ledger balances.

    With ``zero_loss`` the check also demands that no message fell into a
    drop bucket — the guarantee BK-category chains make when a recovery
    supervisor is attached.  On failure the stream's flight recorder (when
    observed) is dumped to ``FLIGHT_<stream>.json`` and the artifact path
    rides in the error message.
    """
    report = check_conservation(stream)
    if not report.balanced:
        detail = f"conservation violated: {report.describe()}"
        path = _dump_flight(stream, detail)
        if path:
            detail += f" [flight recorder: {path}]"
        raise ConservationError(detail)
    if zero_loss and report.lost:
        detail = f"zero-loss violated ({report.lost} dropped): {report.describe()}"
        path = _dump_flight(stream, detail)
        if path:
            detail += f" [flight recorder: {path}]"
        raise ConservationError(detail)
    return report
