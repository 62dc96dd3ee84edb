"""``repro.telemetry`` — end-to-end observability for the streamlet plane.

The ROADMAP's north star ("heavy traffic ... as fast as the hardware
allows") demands the system *measure before optimising*; the thesis's own
evaluation is entirely about per-streamlet overhead, pass-mode cost, and
reconfiguration latency.  This package makes those quantities first-class
runtime observables instead of outside-the-box bench timings:

* :mod:`repro.telemetry.metrics` — counters, gauges, and log-bucket
  histograms behind a :class:`MetricsRegistry` (lock-free reads, one lock
  per metric family);
* :mod:`repro.telemetry.trace` — per-message spans that follow a message
  through every streamlet hop, across the wireless link (via the
  ``Content-Trace`` MIME extension header), and through the client's peer
  chain;
* :mod:`repro.telemetry.export` — JSON snapshots and Prometheus text
  format, plus the ``python -m repro.telemetry`` CLI.

The runtime talks to all of it through the :class:`Telemetry` facade,
injected into :class:`~repro.runtime.server.MobiGateServer` (default-on).
Unobserved is the absence of an observer: pass :data:`NULL_TELEMETRY` to a
server, gateway or client and it holds ``None``, as does every component
below it; each hook site is one ``is not None`` test, and nothing is
allocated or registered (see ``repro.bench.telemetry_overhead``).

Hot-path discipline (a streamlet hop costs ~7.4 µs fused, ~34 µs
unfused, so the observer budget is ~1 µs): stream counters are *not*
incremented per message — the plain
``StreamStats`` integers the runtime already keeps are mirrored into
registry counters at export time (:meth:`Telemetry.flush`); per-hop
latency histograms are pre-bound per instance and always on; spans are
taken every ``trace_sample_interval``-th message (the first is always
taken, so every run yields one complete trace); channel-wait samples
follow the *traced* messages — channels check the traced-id set inline,
so an untraced enqueue costs one set lookup and nothing else.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import fields
from typing import TYPE_CHECKING

from repro.mime.headers import CONTENT_TRACE
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    exponential_buckets,
    global_registry,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.trace import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.mime.message import MimeMessage
    from repro.runtime.stream import ReconfigTiming, StreamStats

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "Span",
    "StreamTelemetry",
    "Telemetry",
    "Tracer",
    "exponential_buckets",
    "global_registry",
]

_TRACE_SEPARATOR = ";"

class StreamTelemetry:
    """Per-stream hot-path hooks, with metric children pre-bound.

    Built by :meth:`Telemetry.bind_stream`; the runtime keeps one per
    :class:`~repro.runtime.stream.RuntimeStream` (``None`` when the stream
    is unobserved) and the schedulers guard every call site with a single
    ``tm is not None`` test, so an unobserved hop pays one identity test.
    """

    __slots__ = (
        "stream",
        "_tracer",
        "_interval",
        "_trace_ticker",
        "traced_ids",
        "enqueued",
        "_stats",
        "_counters",
        "_hop_family",
        "_wait_family",
        "_queue_wait_family",
        "_egress_wait_hist",
        "_queue_depth_family",
        "_queue_watermark_family",
        "recorder",
        "_reconfig_family",
        "_epoch_gauge",
        "_txn_family",
        "_txn_latency",
    )

    def __init__(self, telemetry: "Telemetry", stream: str):
        registry = telemetry.registry
        self.stream = stream
        self._tracer = telemetry.tracer
        self._interval = telemetry.trace_sample_interval
        self._trace_ticker = itertools.count()
        #: ids of in-flight messages picked for tracing; channels probe this
        #: inline on post so untraced traffic pays one set lookup
        self.traced_ids: set[str] = set()
        #: msg id -> enqueue perf_counter() for traced ids awaiting a fetch
        self.enqueued: dict[str, float] = {}
        from repro.runtime.stream import StreamStats  # the runtime imports this package

        self._stats: "StreamStats | None" = None
        self._counters: list[tuple[str, Counter]] = [
            (
                stat.name,
                registry.counter(
                    f"mobigate_stream_{stat.name}_total", stat.metadata["help"], labels=("stream",)
                ).labels(stream),  # type: ignore[misc]
            )
            for stat in fields(StreamStats)
        ]
        self._hop_family = registry.histogram(
            "mobigate_hop_seconds",
            "Per-streamlet processing latency (checkout + process + trace)",
            labels=("stream", "instance"),
        )
        self._wait_family = registry.histogram(
            "mobigate_channel_wait_seconds",
            "Time a message id waited in a channel queue (sampled)",
            labels=("stream", "channel"),
        )
        self._queue_wait_family = registry.histogram(
            "mobigate_hop_queue_wait_seconds",
            "Queue-post to claim delay per instance (every message)",
            labels=("stream", "instance"),
        )
        self._egress_wait_hist = registry.histogram(
            "mobigate_hop_egress_seconds",
            "Egress-channel post to collect() drain delay (every message)",
            labels=("stream",),
        ).labels(stream)
        self._queue_depth_family = registry.gauge(
            "mobigate_queue_depth",
            "Messages currently resident in a channel queue",
            labels=("stream", "channel"),
        )
        self._queue_watermark_family = registry.gauge(
            "mobigate_queue_watermark",
            "High-watermark of a channel queue's depth since creation",
            labels=("stream", "channel"),
        )
        self.recorder = telemetry.recorder
        self._reconfig_family = registry.histogram(
            "mobigate_reconfig_seconds",
            "End-to-end duration of one reconfiguration epoch (Eq 7-1)",
            labels=("stream", "event"),
        )
        self._epoch_gauge = registry.gauge(
            "mobigate_stream_epoch",
            "Current composition epoch (bumped by commits and rollbacks)",
            labels=("stream",),
        ).labels(stream)
        self._txn_family = registry.counter(
            "mobigate_reconfig_transactions_total",
            "Reconfiguration transactions by outcome "
            "(committed / rolled_back / validation_failed)",
            labels=("stream", "outcome"),
        )
        self._txn_latency = registry.histogram(
            "mobigate_reconfig_latency_seconds",
            "Wall-clock latency of transaction phases (commit)",
            labels=("stream", "phase"),
        )

    # -- export-time counter mirror ---------------------------------------------

    def attach_stats(self, stats: "StreamStats") -> None:
        """Adopt the stream's plain-integer stats as the counter source."""
        self._stats = stats

    def flush(self) -> None:
        """Mirror the attached ``StreamStats`` into the registry counters.

        Counters are owned by this mirror, so a plain store is safe; the
        hot path never touches them (the runtime increments bare ints).
        """
        stats = self._stats
        if stats is None:
            return
        for field, counter in self._counters:
            counter.value = getattr(stats, field)

    # -- ingress --------------------------------------------------------------

    def admit(self, message: "MimeMessage") -> bool:
        """Sample the message into a trace: set its ``Content-Trace`` header.

        Returns True when the message was picked, so the stream can mark
        its pool id as traced (:meth:`mark_traced`) once the id exists.
        """
        if next(self._trace_ticker) % self._interval:
            return False
        trace_id = self._tracer.new_trace_id()
        span = self._tracer.start_span(
            "ingress", trace_id=trace_id, attrs={"stream": self.stream}
        )
        self._tracer.end_span(span)
        message.headers.set_trace(trace_id, span.span_id)
        return True

    def mark_traced(self, msg_id: str) -> None:
        """Flag a pool id as traced so channels record its queue waits."""
        if len(self.traced_ids) > 512:  # leak guard: ids missed by forget()
            self.traced_ids.clear()
        self.traced_ids.add(msg_id)

    def forget(self, msg_id: str) -> None:
        """Drop the traced flag and any pending enqueue timestamp for an id."""
        self.traced_ids.discard(msg_id)
        if self.enqueued:
            self.enqueued.pop(msg_id, None)

    # -- streamlet hops ----------------------------------------------------------

    def hop_histogram(self, instance: str) -> Histogram:
        """The hop-latency histogram for one instance (bind once per node)."""
        return self._hop_family.labels(self.stream, instance)  # type: ignore[return-value]

    def hop_span(
        self,
        instance: str,
        raw: str,
        message: "MimeMessage",
        emissions: list | None,
        duration: float,
        failed: bool = False,
    ) -> None:
        """Record the span of one traced hop and advance the trace context.

        ``raw`` is the message's ``Content-Trace`` value the scheduler
        already read; the header's parent span is advanced to this hop on
        the processed message and on any emission that kept the same
        headers, so the next hop parents correctly — including hops on the
        far side of the wire.
        """
        trace_id, _, parent = raw.partition(_TRACE_SEPARATOR)
        span = self._tracer.start_span(
            f"hop:{instance}",
            trace_id=trace_id,
            parent_id=parent or None,
            start=time.perf_counter() - duration,
            attrs={"instance": instance},
        )
        if failed:
            span.attrs["failed"] = True
        self._tracer.end_span(span)
        updated = f"{trace_id}{_TRACE_SEPARATOR}{span.span_id}"
        message.headers.set(CONTENT_TRACE, updated)
        if emissions:
            for _port, out in emissions:
                if out is not message and out.headers.get(CONTENT_TRACE) == raw:
                    out.headers.set(CONTENT_TRACE, updated)

    def queue_wait_histogram(self, instance: str) -> Histogram:
        """The queue-wait histogram for one instance (bind once per node).

        Unlike :meth:`channel_wait_histogram` (sampled, follows traced
        ids), this family is fed for *every* claimed message from the
        queue's own post-time deque — see
        :attr:`~repro.runtime.message_queue.MessageQueue.last_post_at`.
        """
        return self._queue_wait_family.labels(self.stream, instance)  # type: ignore[return-value]

    def egress_wait_histogram(self) -> Histogram:
        """The egress pickup-delay histogram (one per stream)."""
        return self._egress_wait_hist  # type: ignore[return-value]

    def queue_depth_gauge(self, channel_name: str) -> Gauge:
        """The live-depth gauge bound to one channel queue."""
        return self._queue_depth_family.labels(self.stream, channel_name)  # type: ignore[return-value]

    def queue_watermark_gauge(self, channel_name: str) -> Gauge:
        """The high-watermark gauge bound to one channel queue."""
        return self._queue_watermark_family.labels(self.stream, channel_name)  # type: ignore[return-value]

    # -- channel waits -----------------------------------------------------------

    def channel_wait_histogram(self, channel_name: str) -> Histogram:
        """The wait histogram bound to one channel of this stream.

        Channels record waits *inline* (probing :attr:`traced_ids` on post
        and :attr:`enqueued` on fetch) rather than through method calls —
        see :meth:`~repro.runtime.channel.Channel.post`.
        """
        return self._wait_family.labels(self.stream, channel_name)  # type: ignore[return-value]

    # -- reconfiguration epochs ------------------------------------------------------

    def reconfig_begin(self, event_id: str) -> Span:
        """Open the span bracketing one event-handler epoch."""
        return self._tracer.start_span(
            "reconfig",
            trace_id=self._tracer.new_trace_id(),
            attrs={"stream": self.stream, "event": event_id},
        )

    def reconfig_end(self, span: Span, event_id: str, timing: "ReconfigTiming") -> None:
        """Close a reconfiguration span and feed the epoch histogram."""
        self._tracer.end_span(
            span,
            suspend=timing.suspend,
            channel_ops=timing.channel_ops,
            activate=timing.activate,
            actions=timing.actions,
        )
        self._reconfig_family.labels(self.stream, event_id).observe(timing.total)

    # -- transactional reconfiguration (repro.runtime.reconfig) ------------------------

    def epoch(self, value: int) -> None:
        """Record the stream's current composition epoch."""
        self._epoch_gauge.set(float(value))

    def reconfig_outcome(self, outcome: str) -> None:
        """Count one transaction outcome (committed/rolled_back/validation_failed)."""
        self._txn_family.labels(self.stream, outcome).inc()

    def reconfig_latency(self, phase: str, seconds: float) -> None:
        """Observe the wall-clock latency of one transaction phase."""
        self._txn_latency.labels(self.stream, phase).observe(seconds)


class Telemetry:
    """The facade the server injects into every component (default-on).

    By default metrics land in the process-wide
    :func:`~repro.telemetry.metrics.global_registry` (so one export covers
    every server in the process) while spans go to a private
    :class:`Tracer`.  Tests that need isolation pass a fresh
    :class:`MetricsRegistry`.

    ``trace_sample_interval`` traces every Nth admitted message per
    stream (channel waits are sampled for exactly those messages).  The
    first
    message of a stream is always traced, so even a sampled run yields at
    least one complete trace.  The default of 64 keeps the observed
    hop overhead under the 10%% budget; pass 1 to trace everything.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        trace_sample_interval: int = 64,
        max_spans: int = 4096,
    ):
        if trace_sample_interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {trace_sample_interval}")
        self.registry = registry if registry is not None else global_registry()
        self.tracer = tracer if tracer is not None else Tracer(max_spans=max_spans)
        self.trace_sample_interval = trace_sample_interval
        self._streams: list[StreamTelemetry] = []
        #: the flight recorder every bound component shares
        self.recorder = FlightRecorder()
        # the observer's own loss, mirrored at flush() time
        self._span_counter = self.registry.counter(
            "mobigate_trace_spans_total", "Spans recorded by the tracer"
        ).unlabelled()
        self._span_drop_counter = self.registry.counter(
            "mobigate_trace_spans_dropped_total",
            "Spans evicted from the tracer ring before export",
        ).unlabelled()

    # -- component bindings ------------------------------------------------------

    def bind_stream(self, stream: str) -> StreamTelemetry:
        """The per-stream hot-path hook bundle for ``stream``."""
        bound = StreamTelemetry(self, stream)
        self._streams.append(bound)
        return bound

    def pool_gauge(self, stream: str) -> Gauge:
        """The live-message gauge for one stream's message pool."""
        family = self.registry.gauge(
            "mobigate_pool_messages", "Messages resident in the pool", labels=("stream",)
        )
        return family.labels(stream)  # type: ignore[return-value]

    def event_counter(self, stream: str) -> Counter:
        """Counter of context events dispatched to one stream."""
        family = self.registry.counter(
            "mobigate_events_dispatched_total",
            "Context events routed to a stream by the Coordination Manager",
            labels=("stream",),
        )
        return family.labels(stream)  # type: ignore[return-value]

    def dead_letter_gauge(self, stream: str) -> Gauge:
        """Messages currently parked in one stream's dead-letter pool."""
        family = self.registry.gauge(
            "mobigate_dead_letters",
            "Messages parked in the dead-letter pool",
            labels=("stream",),
        )
        return family.labels(stream)  # type: ignore[return-value]

    def fault_counter(self, stream: str, outcome: str) -> Counter:
        """Supervisor disposition counter (retried / recovered / exhausted / bypassed)."""
        family = self.registry.counter(
            "mobigate_fault_recoveries_total",
            "Streamlet failures by recovery disposition",
            labels=("stream", "outcome"),
        )
        return family.labels(stream, outcome)  # type: ignore[return-value]

    def streamlet_acquired(self, definition: str, pooled: bool) -> None:
        """Count one Streamlet Manager acquire (fresh build vs pool reuse)."""
        family = self.registry.counter(
            "mobigate_streamlets_acquired_total",
            "Streamlet instances handed out by the Streamlet Manager",
            labels=("definition", "source"),
        )
        family.labels(definition, "pooled" if pooled else "new").inc()

    def link_bandwidth_gauge(self, link: str) -> Gauge:
        """The bandwidth gauge for one monitored wireless link."""
        family = self.registry.gauge(
            "mobigate_link_bandwidth_bps", "Last observed link bandwidth", labels=("link",)
        )
        return family.labels(link)  # type: ignore[return-value]

    def link_event_counter(self, link: str, event: str) -> Counter:
        """The edge-event counter for one monitored link and event kind."""
        family = self.registry.counter(
            "mobigate_link_events_total",
            "Context events raised by link monitors",
            labels=("link", "event"),
        )
        return family.labels(link, event)  # type: ignore[return-value]

    # -- gateway (repro.gateway) ------------------------------------------------------

    def gateway_connections_gauge(self) -> Gauge:
        """Live data-plane socket connections."""
        return self.registry.gauge(
            "mobigate_gateway_connections", "Open data-plane client connections"
        ).unlabelled()  # type: ignore[return-value]

    def gateway_sessions_gauge(self) -> Gauge:
        """Sessions (deployed per-session streams) the gateway hosts."""
        return self.registry.gauge(
            "mobigate_gateway_sessions", "Deployed gateway sessions"
        ).unlabelled()  # type: ignore[return-value]

    def gateway_frames_counter(self, direction: str) -> Counter:
        """Frames crossing the data plane, by direction (``in`` / ``out``)."""
        family = self.registry.counter(
            "mobigate_gateway_frames_total",
            "Wire frames parsed off (in) or written to (out) data sockets",
            labels=("direction",),
        )
        return family.labels(direction)  # type: ignore[return-value]

    def gateway_bytes_counter(self, direction: str) -> Counter:
        """Bytes crossing the data plane, by direction (``in`` / ``out``)."""
        family = self.registry.counter(
            "mobigate_gateway_bytes_total",
            "Bytes read from (in) or written to (out) data sockets",
            labels=("direction",),
        )
        return family.labels(direction)  # type: ignore[return-value]

    def gateway_backpressure_counter(self, outcome: str) -> Counter:
        """Backpressure dispositions (``parked`` / ``resumed`` / ``shed``)."""
        family = self.registry.counter(
            "mobigate_gateway_backpressure_total",
            "Ingress frames that hit a full session "
            "(parked: read paused; resumed: room freed; shed: park budget spent)",
            labels=("outcome",),
        )
        return family.labels(outcome)  # type: ignore[return-value]

    def gateway_frame_errors_counter(self) -> Counter:
        """Connections dropped over malformed/unroutable frames."""
        return self.registry.counter(
            "mobigate_gateway_frame_errors_total",
            "Malformed or unroutable frames received on the data plane",
        ).unlabelled()  # type: ignore[return-value]

    def gateway_outage_counter(self) -> Counter:
        """Socket-boundary stalls injected by a link-outage fault."""
        return self.registry.counter(
            "mobigate_gateway_outage_stalls_total",
            "Reads stalled at the socket boundary by an injected link outage",
        ).unlabelled()  # type: ignore[return-value]

    def gateway_e2e_histogram(self) -> Histogram:
        """Gateway-internal end-to-end latency (admission -> egress delivery).

        The ground truth the attribution components are checked against —
        see :func:`repro.telemetry.attribution.decompose`.
        """
        return self.registry.histogram(
            "mobigate_gateway_e2e_seconds",
            "Gateway-internal latency from session admission to egress delivery",
        ).unlabelled()  # type: ignore[return-value]

    def gateway_delivery_histogram(self) -> Histogram:
        """Egress ``collect()`` pickup to delivery-callback latency.

        The last attribution component: serialization plus the pump's
        per-batch handoff, closing the gap between the hop egress family
        (which ends at ``collect()``) and the end-to-end observation.
        """
        return self.registry.histogram(
            "mobigate_hop_delivery_seconds",
            "Latency from egress collect() pickup to the delivery callback",
        ).unlabelled()  # type: ignore[return-value]

    def gateway_frame_assembly_histogram(self) -> Histogram:
        """First byte of a frame off the socket to the frame complete."""
        return self.registry.histogram(
            "mobigate_gateway_frame_assembly_seconds",
            "Data-plane latency from a frame's first byte read to its last",
        ).unlabelled()  # type: ignore[return-value]

    def gateway_admission_histogram(self) -> Histogram:
        """Socket-read to session-admission latency (park loop included)."""
        return self.registry.histogram(
            "mobigate_gateway_admission_seconds",
            "Data-plane latency from frame decode to session admission",
        ).unlabelled()  # type: ignore[return-value]

    # -- durable state plane (repro.store) ------------------------------------------

    def store_append_counter(self, backend: str) -> Counter:
        """Ledger records appended to a state store, by backend."""
        family = self.registry.counter(
            "mobigate_store_appends_total",
            "Ledger records appended to the durable state store",
            labels=("backend",),
        )
        return family.labels(backend)  # type: ignore[return-value]

    def store_fsync_counter(self, backend: str) -> Counter:
        """Durability syncs (fsync / commit) a state store performed."""
        family = self.registry.counter(
            "mobigate_store_fsyncs_total",
            "fsync/commit barriers performed by the durable state store",
            labels=("backend",),
        )
        return family.labels(backend)  # type: ignore[return-value]

    def store_replay_counter(self, backend: str) -> Counter:
        """Ledger records replayed out of a state store during recovery."""
        family = self.registry.counter(
            "mobigate_store_replays_total",
            "Ledger records replayed from the durable state store",
            labels=("backend",),
        )
        return family.labels(backend)  # type: ignore[return-value]

    def recovery_counter(self, outcome: str) -> Counter:
        """Crash-recovery session outcomes (``restored`` / ``skipped``)."""
        family = self.registry.counter(
            "mobigate_store_recoveries_total",
            "Sessions processed by crash recovery, by outcome",
            labels=("outcome",),
        )
        return family.labels(outcome)  # type: ignore[return-value]

    def dead_letters_evicted_counter(self, stream: str) -> Counter:
        """Dead letters evicted oldest-first by the pool's capacity bound."""
        family = self.registry.counter(
            "mobigate_dead_letters_evicted_total",
            "Dead letters evicted by the pool capacity bound",
            labels=("stream",),
        )
        return family.labels(stream)  # type: ignore[return-value]

    # -- client side ---------------------------------------------------------------

    def client_counters(self) -> tuple[Counter, Counter]:
        """``(messages, bytes)`` counters for a MobiGATE client."""
        messages = self.registry.counter(
            "mobigate_client_messages_total", "Messages received off the link"
        ).unlabelled()
        received = self.registry.counter(
            "mobigate_client_bytes_total", "Wire bytes received off the link"
        ).unlabelled()
        return messages, received  # type: ignore[return-value]

    def client_dead_letter_counter(self, reason: str) -> Counter:
        """Counter of client-side dead-letters, by structured reason."""
        family = self.registry.counter(
            "mobigate_client_dead_letters_total",
            "Messages the client parked instead of raising "
            "(unknown-peer / stale-peer / reverse-failed / malformed-epoch)",
            labels=("reason",),
        )
        return family.labels(reason)  # type: ignore[return-value]

    def peer_hop(
        self,
        peer_id: str,
        message: "MimeMessage",
        results: list["MimeMessage"],
        duration: float,
    ) -> None:
        """Record one client-side reverse-processing step.

        Mirrors :meth:`StreamTelemetry.hop_span`: histogram always, a span
        when the message carries a ``Content-Trace`` context — which it
        does whenever the server traced it, because the header survives
        the wire.
        """
        family = self.registry.histogram(
            "mobigate_client_peer_seconds",
            "Per-peer reverse-processing latency",
            labels=("peer",),
        )
        family.labels(peer_id).observe(duration)
        raw = message.headers.get(CONTENT_TRACE)
        if raw is None:
            return
        trace_id, _, parent = raw.partition(_TRACE_SEPARATOR)
        span = self.tracer.start_span(
            f"peer:{peer_id}",
            trace_id=trace_id,
            parent_id=parent or None,
            start=time.perf_counter() - duration,
            attrs={"peer": peer_id},
        )
        self.tracer.end_span(span)
        updated = f"{trace_id}{_TRACE_SEPARATOR}{span.span_id}"
        for out in results:
            if out.headers.get(CONTENT_TRACE) == raw:
                out.headers.set(CONTENT_TRACE, updated)

    # -- export convenience ------------------------------------------------------------

    def flush(self) -> None:
        """Mirror every bound stream's plain stats into registry counters."""
        for bound in self._streams:
            bound.flush()
        self._span_counter.value = self.tracer.recorded
        self._span_drop_counter.value = self.tracer.dropped

    def snapshot(self) -> dict:
        """JSON-ready snapshot of the registry (see ``telemetry.export``)."""
        from repro.telemetry.export import snapshot

        self.flush()
        return snapshot(self.registry)

    def prometheus(self) -> str:
        """Prometheus text-format rendering of the registry."""
        from repro.telemetry.export import to_prometheus

        self.flush()
        return to_prometheus(self.registry)


#: pass as ``telemetry=`` to a server, gateway or client to run unobserved;
#: the constructor turns it into ``None``, which is what every component holds
NULL_TELEMETRY = object()
