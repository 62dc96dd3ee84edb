"""Per-message tracing for the streamlet plane.

A **trace** follows one message from :meth:`RuntimeStream.post` through
every streamlet hop, across the wireless link (the trace context rides in
the ``Content-Trace`` MIME extension header, so it survives
serialisation), and through the client's peer chain.  A **span** is one
timed step of that journey:

========== =====================================================
``ingress``  admission into the stream (the root span)
``hop:<i>``  one streamlet processing step on instance ``<i>``
``reconfig`` one event-handler epoch (Equation 7-1 terms as attrs)
``peer:<p>`` one client-side reverse-processing step
========== =====================================================

Spans parent onto the previous step of the same message, so rendering a
trace (:meth:`Tracer.format_trace`) reads top-to-bottom as the message's
actual path.  Completed spans land in a bounded ring buffer — tracing a
busy stream never grows memory without bound.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One timed step of a trace (times from ``time.perf_counter``)."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while the span is still open)."""
        return max(0.0, self.end - self.start)


class Tracer:
    """Creates spans and keeps the most recent completed ones.

    Thread-safe by construction: id generation uses atomic counters and
    the ring buffer is a :class:`collections.deque`, so the threaded
    scheduler's workers never contend on a lock to record a span.
    """

    def __init__(self, *, max_spans: int = 4096):
        self._trace_ids = itertools.count()
        self._span_ids = itertools.count()
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self.recorded = 0
        #: spans evicted by the ring bound — the observer's own loss,
        #: mirrored into ``mobigate_trace_spans_dropped_total`` at export
        self.dropped = 0

    # -- ids -----------------------------------------------------------------

    def new_trace_id(self) -> str:
        """A fresh process-unique trace id."""
        return f"trace-{next(self._trace_ids)}"

    # -- span lifecycle --------------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        start: float | None = None,
        attrs: dict[str, object] | None = None,
    ) -> Span:
        """Open a span (fresh trace id when none is given)."""
        return Span(
            trace_id=trace_id if trace_id is not None else self.new_trace_id(),
            span_id=f"span-{next(self._span_ids)}",
            parent_id=parent_id,
            name=name,
            start=time.perf_counter() if start is None else start,
            attrs=attrs if attrs is not None else {},
        )

    def end_span(self, span: Span, **attrs: object) -> Span:
        """Close a span, merge ``attrs``, and record it.

        When the ring is full the append silently evicts the oldest
        span; that eviction is counted in :attr:`dropped` so exporters
        can surface the observer's own loss.
        """
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        spans = self._spans
        if spans.maxlen is not None and len(spans) == spans.maxlen:
            self.dropped += 1
        spans.append(span)
        self.recorded += 1
        return span

    # -- queries ---------------------------------------------------------------

    def spans(self) -> list[Span]:
        """All retained spans in completion order."""
        return list(self._spans)

    def trace(self, trace_id: str) -> list[Span]:
        """The retained spans of one trace, ordered by start time."""
        return sorted(
            (s for s in self._spans if s.trace_id == trace_id),
            key=lambda s: s.start,
        )

    def trace_ids(self) -> list[str]:
        """Distinct trace ids currently retained, oldest first."""
        seen: dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    # -- rendering --------------------------------------------------------------

    def format_trace(self, trace_id: str) -> str:
        """Render one trace as an indented tree with relative timestamps."""
        spans = self.trace(trace_id)
        if not spans:
            return f"(no spans retained for {trace_id})"
        t0 = spans[0].start
        by_id = {s.span_id: s for s in spans}

        def depth(span: Span) -> int:
            d = 0
            parent = span.parent_id
            while parent is not None and parent in by_id:
                d += 1
                parent = by_id[parent].parent_id
            return d

        lines = [f"trace {trace_id} ({len(spans)} spans)"]
        for span in spans:
            attrs = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(
                f"  {'  ' * depth(span)}{span.name}  "
                f"+{(span.start - t0) * 1e3:.3f}ms  "
                f"{span.duration * 1e6:.1f}us"
                + (f"  [{attrs}]" if attrs else "")
            )
        return "\n".join(lines)
