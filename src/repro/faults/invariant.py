"""The message-conservation invariant: the one statement of the equation.

After any schedule — including one with injected faults, reconfigurations
and process crashes — every id the pool ever admitted is *exactly one* of:

* delivered out of an egress port (``stats.messages_out``),
* absorbed by a streamlet that emitted nothing (``stats.absorbed``),
* parked in a dead-letter pool (``stats.dead_letters``),
* dropped: counted in one of the four drop statistics
  (:data:`DROP_KINDS`),
* still resident in the pool (in a channel, mid-process, or awaiting a
  supervisor retry) — the residual term, or
* frozen in flight by a crash: admitted by a process generation that died
  before its fate was recorded (``recovered_in_flight``; 0 for a live
  stream, folded from the durable ledger otherwise)::

    admitted == delivered + absorbed + dead_letters + dropped
                + residual + recovered_in_flight

Retries are deliberately *not* a terminal category: a retried message is
still in flight and will eventually land in one of the buckets above.
The runtime keeps the buckets disjoint (each release site increments
exactly one statistic), so the identity is a strict equality — any
imbalance is a leak (an id released without being counted, or counted
without being released) and :func:`assert_conservation` turns it into a
:class:`~repro.errors.ConservationError`.

:func:`conservation_terms` reads a stream's live counters;
:func:`check_conservation` turns that read into a
:class:`ConservationReport`, the type the fold and crash reconcile
(:mod:`repro.store`) balance, while the ledger mirror writes the read's
plain integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.errors import ConservationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.stream import RuntimeStream

#: the ``StreamStats`` drop counters that sum to the ``dropped`` term
DROP_KINDS = ("queue_drops", "open_circuit_drops", "failure_drops", "end_drops")


@dataclass(frozen=True)
class ConservationReport:
    """The terms of the conservation equation for one stream or session.

    ``+`` acts term by term and keeps the left operand's ``stream``
    label: the fold adds the ledger's deltas up.
    """

    stream: str = ""
    admitted: int = 0
    delivered: int = 0
    absorbed: int = 0
    dead_letters: int = 0
    #: the :data:`DROP_KINDS` counters, summed
    dropped: int = 0
    residual: int = 0
    recovered_in_flight: int = 0

    @property
    def fates(self) -> int:
        """Admissions with a terminal fate: delivered, absorbed, parked or dropped."""
        return self.delivered + self.absorbed + self.dead_letters + self.dropped

    @property
    def in_flight(self) -> int:
        """Admissions with no fate that no crash froze: what should be resident."""
        return self.admitted - self.fates - self.recovered_in_flight

    @property
    def missing(self) -> int:
        """Admissions neither given a fate, resident nor frozen by a crash:
        positive = leaked ids; negative = double-counted ids."""
        return self.in_flight - self.residual

    @property
    def balanced(self) -> bool:
        """Whether the equation holds (nothing missing, nothing counted twice)."""
        return self.missing == 0

    @property
    def lost(self) -> int:
        """Messages that vanished without delivery (the zero-loss check).

        Dead letters do *not* count as lost — they are retained, inspectable,
        and re-injectable; drops are gone.
        """
        return self.dropped

    def __add__(self, other: "ConservationReport") -> "ConservationReport":
        return ConservationReport(self.stream, *map(operator.add, _terms(self), _terms(other)))

    def describe(self) -> str:
        """The full equation as one human-readable line."""
        return (
            f"stream {self.stream}: admitted={self.admitted} = "
            f"delivered={self.delivered} + absorbed={self.absorbed} + "
            f"dead_letters={self.dead_letters} + dropped={self.dropped} + "
            f"residual={self.residual} + recovered_in_flight={self.recovered_in_flight} "
            f"(missing={self.missing})"
        )


#: the counted terms of a report (every field after ``stream``)
_terms = operator.attrgetter(*[f.name for f in fields(ConservationReport)][1:])


def conservation_terms(stream: "RuntimeStream") -> tuple[int, int, int, int, int]:
    """One stream's live ``(admitted, delivered, absorbed, dead_letters, dropped)``.

    The one reader of the live counters, and the one place the
    :data:`DROP_KINDS` are summed.  Read order matters: the terminal
    counters are read **before** the admission counter.  A message that
    reaches a terminal between the two reads then has its admission
    counted but not its fate — it shows as in flight and corrects on the
    next read — whereas the opposite order could count a fate whose
    admission was missed, and the ledger mirror would fold a negative
    in-flight tally.  Callable from any thread; exact at quiescence.
    """
    stats = stream.stats
    delivered, absorbed, dead_letters = stats.messages_out, stats.absorbed, stats.dead_letters
    dropped = stats.queue_drops + stats.open_circuit_drops + stats.failure_drops + stats.end_drops
    return stream.pool.admitted, delivered, absorbed, dead_letters, dropped


def check_conservation(stream: "RuntimeStream") -> ConservationReport:
    """:func:`conservation_terms` as a :class:`ConservationReport`, pool residency the residual."""
    return ConservationReport(stream.name, *conservation_terms(stream), len(stream.pool))


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
    elif zero_loss and report.lost:
        detail = f"zero-loss violated ({report.lost} dropped): {report.describe()}"
    else:
        return report
    path = _dump_flight(stream, detail)
    if path:
        detail += f" [flight recorder: {path}]"
    raise ConservationError(detail)
