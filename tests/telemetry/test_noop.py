"""Unobserved is no observer: ``NULL_TELEMETRY`` resolves to ``None``, which is inert."""

from repro.apps import build_server
from repro.bench.harness import deploy_chain
from repro.client import MobiGateClient
from repro.client.peers import PeerStreamlet
from repro.faults import Supervisor
from repro.gateway import GatewayServer
from repro.mime.headers import CONTENT_TRACE
from repro.mime.message import MimeMessage
from repro.telemetry import NULL_TELEMETRY, global_registry


class TestUnobserved:
    def test_bindings_are_inert(self):
        # every constructor resolves the sentinel once; every slot below holds None
        server = build_server(telemetry=NULL_TELEMETRY)
        assert server.telemetry is None
        assert server.coordination._telemetry is None and server.manager._telemetry is None
        stream = server.deploy_script("main stream s{ streamlet a = new-streamlet (redirector); }")
        try:
            assert stream.tm is None
            assert stream.node("a").hop_hist is None
            assert all(channel._tm is None for channel in stream._channels.values())
        finally:
            server.undeploy(stream.name)
        gateway = GatewayServer(telemetry=NULL_TELEMETRY)
        assert gateway.telemetry is None and gateway.data._frames_in is None
        client = MobiGateClient(telemetry=NULL_TELEMETRY)
        assert client.telemetry is None and client.distributor._telemetry is None

    def test_run_leaves_no_metrics_no_spans_no_headers(self):
        families = len(global_registry())
        _server, stream, scheduler = deploy_chain(3, telemetry=NULL_TELEMETRY)
        for i in range(5):
            stream.post(MimeMessage("text/plain", b"m%d" % i))
        scheduler.pump()
        delivered = stream.collect()
        stream.end()

        assert len(delivered) == 5
        for message in delivered:
            assert message.headers.get(CONTENT_TRACE) is None
        assert stream.tm is None  # no hooks, so no tracer to hold a span
        assert len(global_registry()) == families

    def test_peer_hop_is_inert(self):
        client = MobiGateClient(telemetry=NULL_TELEMETRY)
        client.register_peer("p", lambda: PeerStreamlet("p"))
        message = MimeMessage("text/plain", b"x")
        message.headers.set_trace("t", "p")
        message.headers.push_peer("p")
        before = message.headers.get(CONTENT_TRACE)
        (out,) = client.receive(message)
        assert out.headers.get(CONTENT_TRACE) == before
        assert client.dead_letters == []

    def test_defaults_hold_none(self):
        # components built without an observer or a store are unobserved and
        # not durable by default: they hold None, never a stand-in object
        server = build_server(telemetry=NULL_TELEMETRY)
        stream = server.deploy_script("main stream s{ streamlet a = new-streamlet (redirector); }")
        supervisor = Supervisor(stream)
        try:
            assert supervisor.ledger is None and supervisor._gauge is None
            assert MobiGateClient().telemetry is None
            gateway = GatewayServer()  # no store backend configured
            assert gateway.ledger is None and gateway.recovery is None
        finally:
            server.undeploy(stream.name)
