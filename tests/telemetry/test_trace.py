"""Trace propagation: ingress → streamlet hops → client peers."""

from repro.bench.harness import deploy_chain
from repro.mime.headers import CONTENT_TRACE
from repro.mime.message import MimeMessage
from repro.runtime.stream import ReconfigTiming
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.trace import Tracer


def traced_telemetry(interval: int = 1) -> Telemetry:
    return Telemetry(registry=MetricsRegistry(), trace_sample_interval=interval)


class TestTracer:
    def test_span_ids_and_trace_query(self):
        tracer = Tracer()
        trace_id = tracer.new_trace_id()
        a = tracer.start_span("a", trace_id=trace_id)
        tracer.end_span(a)
        b = tracer.start_span("b", trace_id=trace_id, parent_id=a.span_id)
        tracer.end_span(b)
        spans = tracer.trace(trace_id)
        assert [s.name for s in spans] == ["a", "b"]
        assert spans[1].parent_id == spans[0].span_id

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            span = tracer.start_span(f"s{i}", trace_id="t")
            tracer.end_span(span)
        assert len(tracer.spans()) == 4
        assert tracer.spans()[-1].name == "s9"

    def test_format_trace_renders_tree(self):
        tracer = Tracer()
        root = tracer.start_span("root", trace_id="t1")
        tracer.end_span(root)
        child = tracer.start_span("child", trace_id="t1", parent_id=root.span_id)
        tracer.end_span(child)
        text = tracer.format_trace("t1")
        assert "root" in text and "child" in text


class TestChainPropagation:
    def test_three_streamlet_chain_yields_one_parented_trace(self):
        telemetry = traced_telemetry()
        _server, stream, scheduler = deploy_chain(3, telemetry=telemetry)
        stream.post(MimeMessage("text/plain", b"payload"))
        scheduler.pump()
        [out] = stream.collect()
        stream.end()

        [trace_id] = telemetry.tracer.trace_ids()
        spans = telemetry.tracer.trace(trace_id)
        assert [s.name for s in spans] == ["ingress", "hop:r0", "hop:r1", "hop:r2"]
        # every hop parents on the previous span: one unbroken chain
        for prev, span in zip(spans, spans[1:]):
            assert span.parent_id == prev.span_id
        # the delivered message carries the last hop as its parent context
        assert out.headers.get(CONTENT_TRACE).split(";") == [trace_id, spans[-1].span_id]

    def test_sampling_interval_traces_first_and_every_nth(self):
        telemetry = traced_telemetry(interval=4)
        _server, stream, scheduler = deploy_chain(1, telemetry=telemetry)
        traced = []
        for i in range(8):
            stream.post(MimeMessage("text/plain", b"m%d" % i))
            scheduler.pump()
            for out in stream.collect():
                if out.headers.get(CONTENT_TRACE) is not None:
                    traced.append(i)
        stream.end()
        assert traced == [0, 4]

    def test_channel_waits_recorded_for_traced_messages(self):
        telemetry = traced_telemetry()
        _server, stream, scheduler = deploy_chain(2, telemetry=telemetry)
        stream.post(MimeMessage("text/plain", b"x"))
        scheduler.pump()
        stream.collect()
        stream.end()
        family = telemetry.registry.get("mobigate_channel_wait_seconds")
        assert family is not None
        total = sum(child.count for _values, child in family.children())
        # at least the ingress edge channel and the r0→r1 hop channel
        assert total >= 2

    def test_untraced_messages_leave_headers_clean(self):
        telemetry = traced_telemetry(interval=100)
        _server, stream, scheduler = deploy_chain(1, telemetry=telemetry)
        stream.post(MimeMessage("text/plain", b"first"))  # always traced
        stream.post(MimeMessage("text/plain", b"second"))
        scheduler.pump()
        first, second = stream.collect()
        stream.end()
        assert first.headers.get(CONTENT_TRACE) is not None
        assert second.headers.get(CONTENT_TRACE) is None


class TestClientPeerPropagation:
    def test_peer_hop_extends_trace_and_advances_context(self):
        telemetry = traced_telemetry()
        message = MimeMessage("text/plain", b"wire")
        message.headers.set_trace("trace-7", "span-3")
        raw = message.headers.get(CONTENT_TRACE)
        telemetry.peer_hop("text_decompress", message, [message], 0.001)

        [span] = telemetry.tracer.spans()
        assert span.name == "peer:text_decompress"
        assert span.trace_id == "trace-7"
        assert span.parent_id == "span-3"
        # in-place results keep unwinding with the advanced context
        assert message.headers.get(CONTENT_TRACE) != raw
        assert message.headers.get(CONTENT_TRACE).split(";") == ["trace-7", span.span_id]

    def test_peer_hop_records_latency_histogram(self):
        telemetry = traced_telemetry()
        message = MimeMessage("text/plain", b"wire")
        telemetry.peer_hop("untag", message, [message], 0.002)
        family = telemetry.registry.get("mobigate_client_peer_seconds")
        assert family.labels("untag").count == 1

    def test_split_results_each_inherit_the_advanced_context(self):
        telemetry = traced_telemetry()
        message = MimeMessage("text/plain", b"bundle")
        message.headers.set_trace("trace-9", "span-1")
        raw = message.headers.get(CONTENT_TRACE)
        parts = [MimeMessage("text/plain", b"a"), MimeMessage("text/plain", b"b")]
        for part in parts:
            part.headers.set(CONTENT_TRACE, raw)
        telemetry.peer_hop("unbundler", message, parts, 0.001)
        [span] = telemetry.tracer.spans()
        for part in parts:
            assert part.headers.get(CONTENT_TRACE).split(";") == ["trace-9", span.span_id]


class TestReconfigSpans:
    def test_reconfig_epoch_becomes_span_and_histogram(self):
        telemetry = traced_telemetry()
        tm = telemetry.bind_stream("s")
        span = tm.reconfig_begin("LOW_BANDWIDTH")
        timing = ReconfigTiming(suspend=0.001, channel_ops=0.002, activate=0.003, actions=2)
        tm.reconfig_end(span, "LOW_BANDWIDTH", timing)

        [recorded] = telemetry.tracer.spans()
        assert recorded.name == "reconfig"
        assert recorded.attrs["event"] == "LOW_BANDWIDTH"
        assert recorded.attrs["actions"] == 2
        family = telemetry.registry.get("mobigate_reconfig_seconds")
        child = family.labels("s", "LOW_BANDWIDTH")
        assert child.count == 1
        assert child.stats.minimum == timing.total
