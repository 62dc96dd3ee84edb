import pytest

from repro.errors import DirectoryError
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.runtime.directory import StreamletDirectory
from repro.runtime.pool import InstancePool
from repro.runtime.streamlet import ForwardingStreamlet, Streamlet
from repro.runtime.streamlet_manager import StreamletManager


def make_def(name="svc", kind=ast.StreamletKind.STATELESS):
    return ast.StreamletDef(
        name=name,
        ports=(
            ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
            ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
        ),
        kind=kind,
    )


class Custom(Streamlet):
    pass


class TestDirectory:
    def test_advertise_and_create(self):
        d = StreamletDirectory()
        d.advertise(make_def(), Custom)
        inst = d.create("svc", "i1")
        assert isinstance(inst, Custom)
        assert inst.instance_id == "i1"

    def test_default_factory_is_forwarder(self):
        d = StreamletDirectory()
        d.advertise(make_def())
        assert isinstance(d.create("svc", "i1"), ForwardingStreamlet)

    def test_duplicate_advertise_rejected(self):
        d = StreamletDirectory()
        d.advertise(make_def())
        with pytest.raises(DirectoryError):
            d.advertise(make_def())

    def test_replace_allowed(self):
        d = StreamletDirectory()
        d.advertise(make_def())
        d.advertise(make_def(), Custom, replace=True)
        assert isinstance(d.create("svc", "i"), Custom)

    def test_withdraw(self):
        d = StreamletDirectory()
        d.advertise(make_def())
        d.withdraw("svc")
        assert "svc" not in d
        with pytest.raises(DirectoryError):
            d.withdraw("svc")

    def test_unknown_lookup(self):
        d = StreamletDirectory()
        with pytest.raises(DirectoryError):
            d.definition("ghost")
        with pytest.raises(DirectoryError):
            d.create("ghost", "i")

    def test_bad_factory_return(self):
        d = StreamletDirectory()
        d.advertise(make_def(), lambda _id, _d: object())  # type: ignore[arg-type]
        with pytest.raises(DirectoryError):
            d.create("svc", "i")

    def test_factory_fallback_for_unadvertised(self):
        d = StreamletDirectory()
        assert d.factory_for(make_def("never_seen")) is ForwardingStreamlet

    def test_definitions_snapshot(self):
        d = StreamletDirectory()
        d.advertise(make_def("a"))
        d.advertise(make_def("b"))
        assert set(d.definitions()) == {"a", "b"}


class TestInstancePool:
    def test_miss_then_hit(self):
        pool = InstancePool(lambda iid: Streamlet(iid, make_def()))
        first = pool.acquire("i1")
        assert pool.misses == 1
        pool.release(first)
        second = pool.acquire("i2")
        assert second is first
        assert second.instance_id == "i2"
        assert pool.hits == 1

    def test_max_idle_discards(self):
        pool = InstancePool(lambda iid: Streamlet(iid, make_def()), max_idle=1)
        a, b = pool.acquire("a"), pool.acquire("b")
        pool.release(a)
        pool.release(b)
        assert pool.idle_count == 1
        assert pool.discarded == 1

    def test_negative_max_idle_rejected(self):
        with pytest.raises(ValueError):
            InstancePool(lambda iid: Streamlet(iid, make_def()), max_idle=-1)


class TestStreamletManager:
    def setup_method(self):
        self.directory = StreamletDirectory()
        self.directory.advertise(make_def("stateless"))
        self.directory.advertise(make_def("stateful", kind=ast.StreamletKind.STATEFUL))

    def test_stateless_instances_pooled(self):
        mgr = StreamletManager(self.directory, pooling=True)
        a = mgr.acquire("i1", self.directory.definition("stateless"))
        mgr.release(a)
        b = mgr.acquire("i2", self.directory.definition("stateless"))
        assert b is a
        assert mgr.created == 1

    def test_stateful_never_pooled(self):
        mgr = StreamletManager(self.directory, pooling=True)
        a = mgr.acquire("i1", self.directory.definition("stateful"))
        mgr.release(a)
        b = mgr.acquire("i2", self.directory.definition("stateful"))
        assert b is not a
        assert mgr.created == 2

    def test_pooling_disabled(self):
        mgr = StreamletManager(self.directory, pooling=False)
        a = mgr.acquire("i1", self.directory.definition("stateless"))
        mgr.release(a)
        b = mgr.acquire("i2", self.directory.definition("stateless"))
        assert b is not a
        assert mgr.created == 2
