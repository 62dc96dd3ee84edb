"""Acceptance: the §7.5 pipeline on the gateway's executor, fully observed.

Deploys the web-acceleration stream, pushes a mixed workload through it
with a mid-run LOW_BANDWIDTH reconfiguration, reverses results through a
MobiGATE client sharing the same telemetry facade, and then checks the
three acceptance artifacts: per-streamlet hop histograms, one complete
trace including client-side peer spans, and a parsing Prometheus export.
"""

import re

import pytest

from repro.apps import WEB_ACCELERATION_MCL, build_server
from repro.client.client import MobiGateClient
from repro.telemetry import MetricsRegistry, Telemetry
from repro.workloads.generators import WebWorkload

from tests.offloop import OffLoop

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? \S+$"
)


@pytest.fixture(scope="module")
def observed_run():
    telemetry = Telemetry(registry=MetricsRegistry(), trace_sample_interval=1)
    server = build_server(telemetry=telemetry)
    stream = server.deploy_script(WEB_ACCELERATION_MCL)
    client = MobiGateClient(telemetry=telemetry)
    stream.set_param("comm", "transport", client.receive)

    workload = list(WebWorkload(seed=11, image_fraction=0.35).messages(10))
    scheduler = OffLoop(stream)  # codec streamlets: stepped off the loop
    try:
        for message in workload[:5]:
            stream.post(message)
        assert scheduler.drain(timeout=10.0)
        server.events.raise_event("LOW_BANDWIDTH")
        for message in workload[5:]:
            stream.post(message)
        assert scheduler.drain(timeout=10.0)
    finally:
        scheduler.stop()  # ends the stream
    return telemetry, stream, client


class TestAcceptance:
    def test_hop_histograms_per_streamlet(self, observed_run):
        telemetry, _stream, _client = observed_run
        family = telemetry.registry.get("mobigate_hop_seconds")
        counts = {values[1]: child.count for values, child in family.children()}
        # every message crosses the switch and the communicator
        assert counts.get("sw", 0) >= 10
        assert counts.get("comm", 0) >= 10
        # the compressor joined the path after LOW_BANDWIDTH
        assert counts.get("tc", 0) >= 1

    def test_complete_trace_with_client_peer_spans(self, observed_run):
        telemetry, _stream, _client = observed_run
        complete = []
        for trace_id in telemetry.tracer.trace_ids():
            names = [s.name for s in telemetry.tracer.trace(trace_id)]
            if (
                "ingress" in names
                and any(n.startswith("hop:") for n in names)
                and any(n.startswith("peer:") for n in names)
            ):
                complete.append(trace_id)
        assert complete, "no trace spans server hops AND client peers"

    def test_reconfiguration_span_recorded(self, observed_run):
        telemetry, stream, _client = observed_run
        reconfigs = [s for s in telemetry.tracer.spans() if s.name == "reconfig"]
        assert len(reconfigs) == 1
        assert reconfigs[0].attrs["event"] == "LOW_BANDWIDTH"
        family = telemetry.registry.get("mobigate_reconfig_seconds")
        assert family.labels(stream.name, "LOW_BANDWIDTH").count == 1

    def test_prometheus_export_parses(self, observed_run):
        telemetry, _stream, _client = observed_run
        text = telemetry.prometheus()
        assert "mobigate_hop_seconds_bucket" in text
        for line in text.splitlines():
            if not line.startswith("#"):
                assert _SAMPLE_RE.match(line), line

    def test_client_counters_and_delivery(self, observed_run):
        telemetry, _stream, client = observed_run
        assert client.delivered
        family = telemetry.registry.get("mobigate_client_messages_total")
        assert family.unlabelled().value >= len(client.delivered)

    def test_stream_counters_mirrored(self, observed_run):
        telemetry, stream, _client = observed_run
        telemetry.flush()
        family = telemetry.registry.get("mobigate_stream_messages_in_total")
        assert family.labels(stream.name).value == 10
