import pytest

from repro.errors import ChannelError
from repro.mcl import astnodes as ast
from repro.runtime.channel import Channel, detach_breaks


def make_def(sync="ASYNC", category="BK", buffer_kb=1):
    return ast.ChannelDef(
        name="c",
        in_port=ast.PortDecl(ast.PortDirection.IN, "cin", _any()),
        out_port=ast.PortDecl(ast.PortDirection.OUT, "cout", _any()),
        sync=ast.ChannelSync(sync),
        category=ast.ChannelCategory(category),
        buffer_kb=buffer_kb,
    )


def _any():
    from repro.mime.mediatype import ANY

    return ANY


def wired(sync="ASYNC", category="BK", buffer_kb=1):
    ch = Channel("c0", make_def(sync, category, buffer_kb))
    ch.attach_source(ast.PortRef("a", "po"))
    ch.attach_sink(ast.PortRef("b", "pi"))
    return ch


class TestWiring:
    def test_attach(self):
        ch = wired()
        assert ch.source == ast.PortRef("a", "po")
        assert ch.sink == ast.PortRef("b", "pi")
        assert ch.queue.producer_count == 1
        assert ch.queue.consumer_count == 1

    def test_double_attach_rejected(self):
        ch = wired()
        with pytest.raises(ChannelError):
            ch.attach_source(ast.PortRef("x", "po"))
        with pytest.raises(ChannelError):
            ch.attach_sink(ast.PortRef("x", "pi"))

    def test_detach_without_attach(self):
        ch = Channel("c", make_def())
        ch.bind(None, None)  # unbinding ends never attached counts nothing
        assert (ch.queue.producer_count, ch.queue.consumer_count) == (0, 0)


class TestTransfer:
    def test_post_fetch(self):
        ch = wired()
        ch.post("m1", 10)
        assert ch.fetch() == "m1"

    def test_capacity_from_buffer_kb(self):
        ch = wired(buffer_kb=1)  # 1024 bytes
        assert ch.post("a", 800)
        assert not ch.post("b", 800)

    def test_sync_is_rendezvous(self):
        ch = wired(sync="SYNC", buffer_kb=0)
        assert ch.queue.capacity_bytes == 0
        assert ch.post("a", 5)
        assert not ch.post("b", 5)
        ch.fetch()
        assert ch.post("b", 5)


#: the section 4.2.2 table, per category and detached end: whether the
#: other end breaks too (pending units lost), or ``REFUSED``; S refuses only
#: while a unit is pending, KK always
REFUSED = "refused"
DETACH_RULE = {
    ("S", "source"): False, ("S", "sink"): False,
    ("BB", "source"): True, ("BB", "sink"): True,
    ("BK", "source"): False, ("BK", "sink"): True,
    ("KB", "source"): True, ("KB", "sink"): False,
    ("KK", "source"): REFUSED, ("KK", "sink"): REFUSED,
}


class TestCategories:
    @pytest.mark.parametrize("pending", [0, 1], ids=["empty", "pending"])
    @pytest.mark.parametrize("end", ["source", "sink"])
    @pytest.mark.parametrize("category", ["S", "BB", "BK", "KB", "KK"])
    def test_detach_rule(self, category, end, pending):
        expected = DETACH_RULE[category, end]
        if category == "S" and pending:
            expected = REFUSED
        rule = ast.ChannelCategory(category)
        if expected is REFUSED:
            with pytest.raises(ChannelError):
                detach_breaks("c0", rule, end, pending)
        else:
            assert detach_breaks("c0", rule, end, pending) is expected

    def test_s_never_buffers(self):
        ch = wired(category="S")
        # S forces a rendezvous slot even when declared ASYNC
        assert ch.post("a", 5)
        assert not ch.post("b", 5)


class TestReattach:
    """A rewire (:meth:`Channel.bind`) keeps pending units, whatever the category."""

    def test_reattach_source_keeps_pending(self):
        ch = wired(category="BB")  # even BB: a rewire bypasses category
        ch.post("m", 1)
        ch.bind(ast.PortRef("new", "po"), ch.sink)
        assert ch.source == ast.PortRef("new", "po")
        assert ch.fetch() == "m"

    def test_reattach_sink(self):
        ch = wired()
        ch.bind(ch.source, ast.PortRef("new", "pi"))
        assert ch.sink == ast.PortRef("new", "pi")

    def test_reattach_onto_empty_end(self):
        ch = Channel("c", make_def())
        ch.bind(ast.PortRef("a", "po"), ch.sink)
        assert ch.queue.producer_count == 1
