"""Per-hop attribution: histograms, queue gauges, and the tracer's own loss."""

import threading
from functools import partial

import pytest

from repro.apps import build_server
from repro.bench.harness import deploy_chain
from repro.gateway.session import ADMITTED, GatewaySession
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.store.base import open_store
from repro.store.ledger import Ledger
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry
from repro.telemetry.attribution import (
    GATEWAY_E2E,
    HOP_DELIVERY,
    HOP_EGRESS,
    HOP_QUEUE_WAIT,
    HOP_SERVICE,
    decompose,
    summarize,
)

N_MESSAGES = 10
CHAIN = 3


@pytest.fixture()
def chain_run():
    telemetry = Telemetry(registry=MetricsRegistry(), trace_sample_interval=1)
    _server, stream, scheduler = deploy_chain(CHAIN, telemetry=telemetry)
    for _ in range(N_MESSAGES):
        stream.post(MimeMessage("text/plain", b"x" * 64))
        scheduler.pump()
    delivered = stream.collect()
    assert len(delivered) == N_MESSAGES
    yield telemetry, stream
    stream.end()


class TestAttributionHistograms:
    def test_queue_wait_is_recorded_for_every_claim(self, chain_run):
        telemetry, stream = chain_run
        rows = summarize(telemetry.registry, stream=stream.name)["queue_wait"]["rows"]
        assert rows, "no queue-wait observations"
        # every message is claimed once per chain node — complete, not sampled
        assert sum(r["count"] for r in rows) == N_MESSAGES * CHAIN
        assert all(r["sum_seconds"] >= 0.0 for r in rows)

    def test_service_component_is_per_instance(self, chain_run):
        telemetry, stream = chain_run
        rows = summarize(telemetry.registry, stream=stream.name)["service"]["rows"]
        instances = {r["instance"] for r in rows}
        assert len(instances) == CHAIN
        assert all(r["count"] == N_MESSAGES for r in rows)

    def test_egress_pickup_is_recorded_per_delivery(self, chain_run):
        telemetry, stream = chain_run
        rows = summarize(telemetry.registry, stream=stream.name)["egress"]["rows"]
        assert sum(r["count"] for r in rows) == N_MESSAGES

    def test_decompose_sums_components_per_message(self, chain_run):
        telemetry, stream = chain_run
        d = decompose(telemetry.registry, stream=stream.name)
        assert d["messages"] == N_MESSAGES * CHAIN  # fallback: no e2e family
        assert d["component_sum_seconds"] > 0.0
        assert set(d["components_seconds"]) == {
            "queue_wait", "service", "egress", "delivery",
        }
        # no gateway in this run, so there is no e2e ground truth
        assert d["e2e_mean_seconds"] is None and d["coverage"] is None

    def test_family_names_are_stable(self):
        assert HOP_QUEUE_WAIT == "mobigate_hop_queue_wait_seconds"
        assert HOP_SERVICE == "mobigate_hop_seconds"
        assert HOP_EGRESS == "mobigate_hop_egress_seconds"
        assert HOP_DELIVERY == "mobigate_hop_delivery_seconds"
        assert GATEWAY_E2E == "mobigate_gateway_e2e_seconds"


GATEWAY_MCL = """main stream gwchain{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""


def gateway_decomposition(ledger=None, n=50) -> dict:
    """``n`` messages through a standalone inline session; the attribution."""
    telemetry = Telemetry(registry=MetricsRegistry(), trace_sample_interval=1)
    server = build_server(telemetry=telemetry)
    stream = server.deploy_script(GATEWAY_MCL)
    session = GatewaySession(
        "k1", stream, InlineScheduler(stream), telemetry=telemetry,
        ledger=ledger,
    )
    frames = []
    done = threading.Event()

    def bridge(batch):
        frames.extend(frame for _session, _conn, frame in batch)
        if len(frames) >= n:
            done.set()

    session.pump.bridge = bridge
    try:
        for _ in range(n):
            offer = partial(session.offer, MimeMessage("text/plain", b"x" * 64))
            assert session.pump.run(offer) == ADMITTED  # admission is the pump loop's
        assert done.wait(10), f"only {len(frames)}/{n} frames delivered"
    finally:
        session.close()
    d = decompose(telemetry.registry, stream=stream.name)
    assert d["messages"] == n
    assert d["samples"]["delivery"] == n
    assert d["e2e_mean_seconds"] is not None
    return d


class TestGatewayCoverage:
    def test_components_cover_the_e2e_ground_truth(self):
        """The four components explain >= 95% of measured end-to-end time.

        Regression guard for the egress-pump handoff gap: before the
        ``delivery`` component existed, collect()-to-callback time
        (serialization plus per-batch handoff) was unattributed and
        coverage sat around 0.91.
        """
        d = gateway_decomposition()
        assert d["coverage"] is not None and d["coverage"] >= 0.95, d

    def test_the_ledger_commit_is_attributed(self, tmp_path):
        """A durable session's fsync lands in ``delivery``, not in no component.

        The pickup stamp used to be taken after the ledger commit, so on
        a file WAL about half of the end-to-end time belonged to nothing.
        """
        ledger = Ledger(open_store("file", str(tmp_path / "ledger.wal"), fsync="batch"))
        try:
            d = gateway_decomposition(ledger)
        finally:
            ledger.close()
        assert d["coverage"] is not None and 0.95 <= d["coverage"] <= 1.05, d


class TestQueueGauges:
    def test_depth_gauges_balance_to_zero_after_drain(self, chain_run):
        telemetry, _stream = chain_run
        family = telemetry.registry.get("mobigate_queue_depth")
        assert family is not None
        depths = {values: child.value for values, child in family.children()}
        assert depths, "no depth gauges were bound"
        assert all(value == 0.0 for value in depths.values()), depths

    def test_watermark_gauges_saw_traffic(self, chain_run):
        telemetry, _stream = chain_run
        family = telemetry.registry.get("mobigate_queue_watermark")
        assert family is not None
        marks = [child.value for _values, child in family.children()]
        assert any(value >= 1.0 for value in marks)

    def test_queues_expose_live_watermark(self, chain_run):
        _telemetry, stream = chain_run
        rows = stream.queue_introspect()
        assert rows
        assert any(r["watermark"] >= 1 for r in rows)
        assert all(r["depth"] == 0 for r in rows)


class TestTracerLoss:
    def test_span_eviction_is_counted_and_exported(self):
        registry = MetricsRegistry()
        telemetry = Telemetry(registry=registry, max_spans=4)
        for _ in range(7):
            span = telemetry.tracer.start_span("hop:x")
            telemetry.tracer.end_span(span)
        assert telemetry.tracer.recorded == 7
        assert telemetry.tracer.dropped == 3
        telemetry.flush()
        family = registry.get("mobigate_trace_spans_dropped_total")
        assert family is not None
        (_values, child), = family.children()
        assert child.value == 3
        text = telemetry.prometheus()
        assert "mobigate_trace_spans_dropped_total 3" in text
        assert "mobigate_trace_spans_total 7" in text

    def test_no_eviction_means_zero_drops(self):
        registry = MetricsRegistry()
        telemetry = Telemetry(registry=registry, max_spans=16)
        span = telemetry.tracer.start_span("hop:x")
        telemetry.tracer.end_span(span)
        telemetry.flush()
        (_values, child), = registry.get(
            "mobigate_trace_spans_dropped_total"
        ).children()
        assert child.value == 0


class TestNullTwin:
    def test_null_telemetry_carries_the_null_recorder(self):
        # unobserved is no observer at all: no facade, no stream hooks and
        # so no recorder, and no attribution instrument is bound anywhere
        server = build_server(telemetry=NULL_TELEMETRY)
        stream = server.deploy_script(GATEWAY_MCL)
        session = GatewaySession("k1", stream, InlineScheduler(stream))
        try:
            assert server.telemetry is None and stream.tm is None
            for name in ("r0", "r1"):
                node = stream.node(name)
                assert node.hop_hist is None and node.queue_wait_hist is None
            assert session._e2e_hist is None and session._delivery_hist is None
        finally:
            session.close()
