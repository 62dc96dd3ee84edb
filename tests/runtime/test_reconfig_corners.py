"""Reconfiguration corner cases: channel categories, bad shapes, errors."""

import pytest

from repro.apps import build_server
from repro.errors import ChannelError, CompositionError, ReconfigurationError
from repro.mime.message import MimeMessage
from repro.runtime.scheduler import InlineScheduler

DEFS = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
streamlet twoport{
  port{ in pi1 : text/*; in pi2 : text/*; out po1 : text/plain; out po2 : text/plain; }
}
channel kkChan{
  port{ in cin : text/*; out cout : text/*; }
  attribute{ category = KK; }
}
channel syncChan{
  port{ in cin : text/*; out cout : text/*; }
  attribute{ type = SYNC; buffer = 0; }
}
"""


def deploy(body):
    server = build_server()
    stream = server.deploy_script(DEFS + f"main stream s{{ {body} }}")
    return server, stream, InlineScheduler(stream)


class TestChannelCategoryInteractions:
    def test_insert_across_kk_link_rejected(self):
        _server, stream, _ = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "streamlet tc = new-streamlet (text_compress);"
            "channel kk = new-channel (kkChan);"
            "connect (a.po, b.pi, kk);"
        )
        with pytest.raises(ChannelError):
            stream.insert("a.po", "b.pi", "tc")

    def test_disconnect_kk_link_rejected(self):
        _server, stream, _ = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "channel kk = new-channel (kkChan);"
            "connect (a.po, b.pi, kk);"
        )
        with pytest.raises(ChannelError):
            stream.disconnect("a.po", "b.pi")

    def test_sync_channel_in_pipeline(self):
        # a rendezvous channel must still deliver under the inline pump
        _server, stream, scheduler = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "channel sc = new-channel (syncChan);"
            "connect (a.po, b.pi, sc);"
        )
        for i in range(5):
            stream.post(MimeMessage("text/plain", f"m{i}".encode()))
        scheduler.pump()
        assert len(stream.collect()) == 5

    def test_insert_preserves_pending_bk_units(self):
        _server, stream, scheduler = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "streamlet tc = new-streamlet (text_compress);"
            "connect (a.po, b.pi);"
        )
        # park one message in the a->b channel: pause the consumer so the
        # inline pump stops after a's hop
        stream.node("b").streamlet.pause()
        stream.post(MimeMessage("text/plain", b"early"))
        scheduler.pump()
        assert stream.node("b").inputs["pi"].pending() == 1
        stream.insert("a.po", "b.pi", "tc")
        stream.node("b").streamlet.activate()
        # BK semantics: the parked message still reaches b, uncompressed
        stream.post(MimeMessage("text/plain", b"late"))
        scheduler.pump()
        outs = stream.collect()
        assert len(outs) == 2
        assert outs[0].body == b"early"  # order preserved, never compressed
        assert "Content-Encoding" in [n for n, _ in outs[1].headers]


class TestBadShapes:
    def test_insert_needs_single_in_out(self):
        _server, stream, _ = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "streamlet wide = new-streamlet (twoport);"
            "connect (a.po, b.pi);"
        )
        with pytest.raises(ReconfigurationError, match="exactly one"):
            stream.insert("a.po", "b.pi", "wide")

    def test_replace_needs_matching_ports(self):
        _server, stream, _ = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "streamlet wide = new-streamlet (twoport);"
            "connect (a.po, b.pi);"
        )
        with pytest.raises(ReconfigurationError, match="lacks"):
            stream.replace("b", "wide")

    def test_replace_target_must_be_dormant(self):
        _server, stream, _ = deploy(
            "streamlet a, b, c = new-streamlet (tap);"
            "connect (a.po, b.pi);"
            "connect (b.po, c.pi);"
        )
        with pytest.raises(ReconfigurationError, match="already wired"):
            stream.replace("a", "b")

    def test_insert_target_must_be_dormant(self):
        # splicing an instance that is already in the flow used to be
        # caught by validation only: the bare primitive double-claimed
        # c's ports, closed a cycle b->c->b and stranded the next message
        from repro.errors import ReconfigAbortedError
        from repro.faults.invariant import check_conservation
        from repro.mcl import astnodes as ast
        from repro.runtime.reconfig import ReconfigTransaction

        _server, stream, scheduler = deploy(
            "streamlet a, b, c, d = new-streamlet (tap);"
            "connect (a.po, b.pi);"
            "connect (b.po, c.pi);"
            "connect (c.po, d.pi);"
        )

        def fingerprint():
            table = stream.snapshot_table()
            return (
                sorted(table.instances), sorted(table.channels),
                sorted(str(link) for link in table.links),
                table.exposed_in, table.exposed_out,
            )

        before = fingerprint()
        with pytest.raises(ReconfigurationError, match="already wired"):
            stream.insert("a.po", "b.pi", "c")
        txn = ReconfigTransaction(
            stream, [ast.Insert(ast.PortRef("a", "po"), ast.PortRef("b", "pi"), "c")]
        )
        with pytest.raises(ReconfigAbortedError, match="already wired"):
            txn.commit(validate=False)
        assert fingerprint() == before
        stream.post(MimeMessage("text/plain", b"still flows"))
        scheduler.pump()
        assert [m.body for m in stream.collect()] == [b"still flows"]
        assert check_conservation(stream).balanced

    def test_new_streamlet_unknown_definition(self):
        _server, stream, _ = deploy("streamlet a = new-streamlet (tap);")
        with pytest.raises(CompositionError):
            stream.new_streamlet("x", "no_such_def")

    def test_new_channel_unknown_definition(self):
        _server, stream, _ = deploy("streamlet a = new-streamlet (tap);")
        with pytest.raises(CompositionError):
            stream.new_channel("c", "no_such_chan")

    def test_name_collision(self):
        _server, stream, _ = deploy("streamlet a = new-streamlet (tap);")
        with pytest.raises(CompositionError):
            stream.new_streamlet("a", "tap")

    def test_remove_channel_in_use(self):
        _server, stream, _ = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "channel kk = new-channel (kkChan);"
            "connect (a.po, b.pi, kk);"
        )
        with pytest.raises(CompositionError, match="still carries"):
            stream.remove_channel("kk")

    def test_extract_dormant_is_safe(self):
        _server, stream, _ = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "streamlet spare = new-streamlet (tap);"
            "connect (a.po, b.pi);"
        )
        stream.extract_streamlet("spare")  # no links: nothing to do, no error

    def test_end_is_idempotent(self):
        _server, stream, _ = deploy("streamlet a = new-streamlet (tap);")
        stream.end()
        stream.end()
        assert stream.ended


class TestHandlerCreatedChannels:
    def test_when_block_creates_channel_and_connects(self):
        """Handlers may instantiate channels and wire through them."""
        server = build_server()
        stream = server.deploy_script(DEFS + """
main stream s{
  streamlet a = new-streamlet (tap);
  streamlet b = new-streamlet (tap);
  streamlet spare1, spare2 = new-streamlet (tap);
  connect (a.po, b.pi);
  when (LOW_BANDWIDTH){
    channel extra = new-channel (kkChan);
    connect (spare1.po, spare2.pi, extra);
  }
}""")
        server.events.raise_event("LOW_BANDWIDTH")
        assert "extra" in stream.channel_names()
        assert stream.channel("extra").source is not None
        assert stream.node("spare2").inputs  # wired by the handler


class TestEqSevenOneAccounting:
    def test_insert_timing_components(self):
        _server, stream, _ = deploy(
            "streamlet a, b = new-streamlet (tap);"
            "streamlet tc = new-streamlet (text_compress);"
            "connect (a.po, b.pi);"
        )
        timing = stream.insert("a.po", "b.pi", "tc")
        assert timing.actions == 1
        assert timing.total == pytest.approx(
            timing.suspend + timing.channel_ops + timing.activate
        )
        assert timing.channel_ops > 0
