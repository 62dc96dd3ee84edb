"""End-to-end tests of the two thesis applications (sections 4.3 and 7.5)."""

import pytest

from repro.apps import DISTILLATION_MCL, WEB_ACCELERATION_MCL, build_server
from repro.client.client import MobiGateClient
from repro.codecs.imagefmt import decode_gif, decode_jpeg
from repro.netsim.emulator import DirectTransfer, EndToEndEmulator
from repro.netsim.link import WirelessLink
from repro.netsim.monitor import ContextMonitor
from repro.netsim.traces import BandwidthTrace
from repro.runtime.scheduler import InlineScheduler
from repro.semantics import analyze
from repro.util.clock import VirtualClock
from repro.workloads.content import ps_page_message
from repro.workloads.generators import WebWorkload


class TestDistillationApp:
    def deploy(self):
        server = build_server()
        stream = server.deploy_script(DISTILLATION_MCL)
        return server, stream, InlineScheduler(stream)

    def test_compiles_and_verifies(self):
        server = build_server()
        table = server.compile(DISTILLATION_MCL).main_table()
        report = analyze(table)
        assert report.consistent, report.summary()
        # the optional entities are dormant until events arrive
        assert table.dormant_instances() == {"s3", "s4"}

    def test_page_distilled(self):
        _server, stream, scheduler = self.deploy()
        page = ps_page_message(n_images=2, paragraphs=6, seed=1)
        original_size = page.total_size()
        [merged] = scheduler.run_to_completion([page])
        assert merged.is_multipart
        assert len(merged.parts) == 3
        assert merged.total_size() < original_size  # distillation shrank it

    def test_low_gray_event_inserts_grayscale(self):
        server, stream, scheduler = self.deploy()
        server.events.raise_event("LOW_GRAY")
        page = ps_page_message(n_images=1, paragraphs=2, seed=2)
        [merged] = scheduler.run_to_completion([page])
        image_part = next(p for p in merged.parts if p.content_type.maintype == "image")
        raster = decode_gif(image_part.body)
        import numpy as np

        # grayscale: R and G channels nearly equal after palette roundtrip
        px = raster.pixels.astype(int)
        assert np.abs(px[:, :, 0] - px[:, :, 1]).max() <= 36

    def test_low_energy_event_bundles(self):
        server, stream, scheduler = self.deploy()
        server.events.raise_event("LOW_ENERGY")
        pages = [ps_page_message(n_images=1, paragraphs=2, seed=s) for s in range(4)]
        outs = scheduler.run_to_completion(pages)
        # powerSaving bundles 4 merged pages into one burst
        assert len(outs) == 1
        assert outs[0].headers.get("X-MobiGATE-Bundle") == "4"


class TestWebAccelerationApp:
    def test_compiles_and_verifies(self):
        server = build_server()
        compiled = server.compile(WEB_ACCELERATION_MCL)
        assert compiled.main == "webAccel"
        table = compiled.main_table()
        assert analyze(table).consistent
        assert table.dormant_instances() == {"tc"}

    def make_emulated(self, bandwidth_bps, *, trace=None, delay=0.0, threshold=100_000):
        clock = VirtualClock()
        server = build_server(clock=clock)
        stream = server.deploy_script(WEB_ACCELERATION_MCL)
        link = WirelessLink(bandwidth_bps, propagation_delay=delay, clock=clock)
        monitor = ContextMonitor(
            link, server.events, low_threshold_bps=threshold, trace=trace
        )
        client = MobiGateClient()
        emulator = EndToEndEmulator(stream, link, client, monitor=monitor)
        return server, stream, emulator, client

    def test_images_transcoded_and_delivered(self):
        _server, _stream, emulator, client = self.make_emulated(1_000_000)
        workload = list(WebWorkload(image_fraction=1.0, seed=3).messages(3))
        report = emulator.run(workload)
        assert report.messages_delivered == 3
        delivered = client.take_delivered()
        for message in delivered:
            assert message.content_type.essence == "image/jpeg"
            decode_jpeg(message.body)  # decodable
        assert report.reduction_ratio < 1.0

    def test_text_uncompressed_on_fast_link(self):
        _server, _stream, emulator, client = self.make_emulated(1_000_000)
        workload = list(WebWorkload(image_fraction=0.0, seed=4).messages(3))
        originals = [m.body for m in workload]
        emulator.run(workload)
        assert [m.body for m in client.take_delivered()] == originals

    def test_low_bandwidth_inserts_compressor_transparently(self):
        trace = BandwidthTrace.step(1_000_000, 50_000, at=0.0001)
        _server, stream, emulator, client = self.make_emulated(
            1_000_000, trace=trace
        )
        workload = list(WebWorkload(image_fraction=0.0, seed=5).messages(4))
        originals = [m.body for m in workload]
        report = emulator.run(workload)
        # the compressor joined the topology...
        assert "tc" in stream.instance_names()
        assert stream.stats.events_handled >= 1
        # ...bytes on the link shrank...
        assert report.reduction_ratio < 0.7
        # ...and the client still sees the original payloads (peer reversal)
        assert [m.body for m in client.take_delivered()] == originals

    def test_recovery_extracts_compressor(self):
        # a fade long enough to cover the whole first batch of sends
        trace = BandwidthTrace.fade(1_000_000, 50_000, start=0.0001, duration=30.0)
        server, stream, emulator, client = self.make_emulated(1_000_000, trace=trace)
        workload = list(WebWorkload(image_fraction=0.0, seed=6).messages(2))
        emulator.run(workload)  # LOW fires during the fade
        assert stream.stats.events_handled >= 1
        # advance past the fade; next check raises HIGH and extracts tc
        emulator.clock.advance_to(60.0)
        more = list(WebWorkload(image_fraction=0.0, seed=7).messages(2))
        originals = [m.body for m in more]
        emulator.run(more)
        assert stream.stats.events_handled >= 2
        delivered = client.take_delivered()
        assert [m.body for m in delivered[-2:]] == originals
        # after extraction the last messages crossed uncompressed
        assert all(
            "text_decompress" not in m.headers.peer_stack() for m in delivered[-2:]
        )


class TestEquation72:
    """T2 = T1 + (overhead - reduced/bandwidth): who wins where."""

    def run_pair(self, bandwidth_bps, n=6, seed=8):
        clock = VirtualClock()
        server = build_server(clock=clock)
        stream = server.deploy_script(WEB_ACCELERATION_MCL)
        link = WirelessLink(bandwidth_bps, clock=clock)
        client = MobiGateClient()
        emulator = EndToEndEmulator(stream, link, client)
        workload = list(WebWorkload(seed=seed).messages(n))
        with_proxy = emulator.run(workload)

        base_clock = VirtualClock()
        base_link = WirelessLink(bandwidth_bps, clock=base_clock)
        workload_again = list(WebWorkload(seed=seed).messages(n))
        without = DirectTransfer(base_link).run(workload_again)
        return with_proxy, without

    def test_mobigate_wins_at_low_bandwidth(self):
        with_proxy, without = self.run_pair(50_000)
        assert with_proxy.elapsed < without.elapsed
        assert with_proxy.goodput_bps > without.goodput_bps

    def test_size_reduction_happened(self):
        with_proxy, without = self.run_pair(200_000)
        assert with_proxy.bytes_on_link < without.bytes_on_link
