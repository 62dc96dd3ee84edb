"""Stream counters: the export-time mirror of StreamStats, per scheduler."""

import pytest

from repro.mcl.parser import parse_script
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.server import MobiGateServer
from repro.runtime.streamlet import Streamlet
from repro.telemetry import MetricsRegistry, Telemetry

from tests.offloop import OffLoop

LEAKY = """
streamlet leak{
  port{ in pi : text/*; out po : text/plain; }
}
main stream leaky{
  streamlet l = new-streamlet (leak);
}
"""


class Leak(Streamlet):
    """Emits on a port that exists nowhere: the open-circuit hazard."""

    def process(self, port, message, ctx):
        return [("bogus", message)]


def deploy_leaky(telemetry: Telemetry):
    server = MobiGateServer(telemetry=telemetry)
    for definition in parse_script(LEAKY).streamlets:
        server.directory.advertise(definition, Leak)
    return server.deploy_script(LEAKY)


def counter_value(telemetry: Telemetry, leaf: str, stream: str) -> int:
    telemetry.flush()
    family = telemetry.registry.get(f"mobigate_stream_{leaf}_total")
    return family.labels(stream).value


class TestOpenCircuitDrops:
    def test_counted_under_inline_scheduler(self):
        telemetry = Telemetry(registry=MetricsRegistry())
        stream = deploy_leaky(telemetry)
        scheduler = InlineScheduler(stream)
        for i in range(3):
            stream.post(MimeMessage("text/plain", b"m%d" % i))
        scheduler.pump()
        stream.end()

        assert stream.stats.open_circuit_drops == 3
        assert counter_value(telemetry, "open_circuit_drops", "leaky") == 3

    def test_counted_under_threaded_scheduler(self):
        telemetry = Telemetry(registry=MetricsRegistry())
        stream = deploy_leaky(telemetry)
        scheduler = OffLoop(stream)  # the gateway's executor
        try:
            for i in range(3):
                stream.post(MimeMessage("text/plain", b"m%d" % i))
            assert scheduler.drain(timeout=5.0)
        finally:
            scheduler.stop()  # ends the stream

        assert stream.stats.open_circuit_drops == 3
        assert counter_value(telemetry, "open_circuit_drops", "leaky") == 3


class TestCounterMirror:
    def test_flush_mirrors_every_stat_field(self):
        telemetry = Telemetry(registry=MetricsRegistry())
        stream = deploy_leaky(telemetry)
        InlineScheduler(stream).run_to_completion(
            [MimeMessage("text/plain", b"x"), MimeMessage("text/plain", b"y")]
        )
        stream.end()
        assert counter_value(telemetry, "messages_in", "leaky") == 2
        assert counter_value(telemetry, "processed", "leaky") == 2
        assert counter_value(telemetry, "messages_out", "leaky") == 0

    def test_counters_not_written_until_flush(self):
        # the hot path increments plain ints; the registry mirror is
        # export-time only (Telemetry.flush / snapshot / prometheus)
        telemetry = Telemetry(registry=MetricsRegistry())
        stream = deploy_leaky(telemetry)
        InlineScheduler(stream).run_to_completion([MimeMessage("text/plain", b"x")])
        family = telemetry.registry.get("mobigate_stream_messages_in_total")
        assert family.labels("leaky").value == 0
        telemetry.flush()
        assert family.labels("leaky").value == 1
        stream.end()

    def test_snapshot_and_prometheus_flush_implicitly(self):
        telemetry = Telemetry(registry=MetricsRegistry())
        stream = deploy_leaky(telemetry)
        InlineScheduler(stream).run_to_completion([MimeMessage("text/plain", b"x")])
        assert 'mobigate_stream_messages_in_total{stream="leaky"} 1' in telemetry.prometheus()
        stream.end()


class TestQueueDropSampling:
    def test_sample_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Telemetry(registry=MetricsRegistry(), trace_sample_interval=0)
