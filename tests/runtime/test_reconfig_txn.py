"""Transactional reconfiguration: validate, commit, roll back.

The contract under test (repro.runtime.reconfig): a staged action batch
is dry-run against a shadow topology and semantically re-checked before
the live stream is touched; a commit is all-or-nothing under quiescence;
a mid-apply failure restores topology, wiring, params, and queue
contents exactly and leaves the conservation ledger balanced; every
successful commit bumps the stream epoch.
"""

import time as _time

import pytest

from repro.apps import build_server
from repro.errors import (
    ReconfigAbortedError,
    ReconfigurationError,
    ReconfigValidationError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.invariant import check_conservation
from repro.mcl import astnodes as ast
from repro.mime.message import MimeMessage
from repro.runtime.reconfig import ReconfigTransaction, TxnState
from repro.runtime.scheduler import InlineScheduler
from repro.util.clock import VirtualClock

from tests.offloop import OffLoop

SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
streamlet imgsink{
  port{ in pi : image/*; }
}
main stream s{
  streamlet a, b, c = new-streamlet (tap);
  streamlet tc = new-streamlet (text_compress);
  streamlet isink = new-streamlet (imgsink);
  connect (a.po, b.pi);
  connect (b.po, c.pi);
}
"""


def deploy(clock=None):
    server = build_server(clock=clock if clock is not None else VirtualClock())
    stream = server.deploy_script(SOURCE)
    return server, stream


def fingerprint(stream):
    """Byte-for-byte comparable digest of the live topology."""
    table = stream.snapshot_table()
    pending = {}
    seen = set()
    for name, node in sorted(stream._nodes.items()):
        for port, ch in sorted(node.inputs.items()):
            if id(ch) not in seen:
                seen.add(id(ch))
                pending[f"{name}.{port}"] = tuple(e for e in ch.queue.snapshot_state()[0])
    return (
        sorted((n, d.name) for n, d in table.instances.items()),
        sorted(table.channels),
        sorted(str(link) for link in table.links),
        tuple(str(r) for r in table.exposed_in),
        tuple(str(r) for r in table.exposed_out),
        stream.channel_names(),
        stream.processing_order(),
        pending,
        {n: dict(stream.node(n).ctx.params) for n in stream._nodes},
    )


def park_in_b(stream, scheduler, n=3):
    """Post n messages and strand them on b's input channel."""
    stream.node("b").streamlet.pause()
    for i in range(n):
        stream.post(MimeMessage("text/plain", f"m{i}".encode()))
    if isinstance(scheduler, InlineScheduler):
        scheduler.pump()
    else:
        deadline = _time.time() + 5
        while stream.node("b").inputs["pi"].pending() < n:
            assert _time.time() < deadline, "messages never reached b"
            scheduler.kick()  # a post straight to the stream marks nothing
            _time.sleep(0.002)
    assert stream.node("b").inputs["pi"].pending() == n


class TestValidation:
    def test_type_mismatch_rejected_without_touching_stream(self):
        _server, stream = deploy()
        before = fingerprint(stream)
        txn = ReconfigTransaction(stream, [
            ast.Connect(ast.PortRef("b", "po"), ast.PortRef("isink", "pi")),
        ])
        with pytest.raises(ReconfigValidationError, match="action 0"):
            txn.validate()
        assert fingerprint(stream) == before
        assert stream.epoch == 0

    def test_feedback_loop_rejected(self):
        _server, stream = deploy()
        txn = ReconfigTransaction(stream, [
            ast.NewInstances("streamlet", ("x", "y"), "tap"),
            ast.Connect(ast.PortRef("x", "po"), ast.PortRef("y", "pi")),
            ast.Connect(ast.PortRef("y", "po"), ast.PortRef("x", "pi")),
        ])
        with pytest.raises(ReconfigValidationError, match="feedback"):
            txn.validate()

    def test_reachable_open_circuit_rejected(self):
        # disconnecting b->c leaves b's output dangling on the live flow
        _server, stream = deploy()
        txn = ReconfigTransaction(stream, [
            ast.Disconnect(ast.PortRef("b", "po"), ast.PortRef("c", "pi")),
        ])
        with pytest.raises(ReconfigValidationError, match="open circuit"):
            txn.validate()

    def test_unreachable_island_tolerated(self):
        # a dormant pair wired to each other is fed by nothing: no message
        # can be lost there, so validation must not reject it
        _server, stream = deploy()
        txn = ReconfigTransaction(stream, [
            ast.NewInstances("streamlet", ("x", "y"), "tap"),
            ast.Connect(ast.PortRef("x", "po"), ast.PortRef("y", "pi")),
        ])
        table = txn.validate()
        assert txn.state is TxnState.VALIDATED
        assert "x" in table.instances

    def test_validation_failure_is_pre_commit(self):
        # execute() = validate + commit; a validation failure never
        # reaches the apply phase, so nothing rolls back
        _server, stream = deploy()
        txn = ReconfigTransaction(stream, [
            ast.Connect(ast.PortRef("b", "po"), ast.PortRef("isink", "pi")),
        ])
        with pytest.raises(ReconfigValidationError):
            txn.execute()
        assert txn.state is TxnState.STAGED
        assert stream.epoch == 0


class TestCommit:
    def test_commit_applies_and_bumps_epoch(self):
        _server, stream = deploy()
        scheduler = InlineScheduler(stream)
        txn = ReconfigTransaction(stream, [
            ast.Insert(ast.PortRef("a", "po"), ast.PortRef("b", "pi"), "tc"),
        ])
        txn.execute()
        assert txn.state is TxnState.COMMITTED
        assert stream.epoch == 1 and txn.epoch == 1
        assert "tc" in stream.processing_order()
        stream.post(MimeMessage("text/plain", b"hello " * 40))
        scheduler.pump()
        out = stream.collect()
        assert len(out) == 1
        assert "Content-Encoding" in [n for n, _ in out[0].headers]

    def test_committed_epoch_rides_the_wire(self):
        _server, stream = deploy()
        scheduler = InlineScheduler(stream)
        stream.post(MimeMessage("text/plain", b"pre"))
        scheduler.pump()
        pre = stream.collect()
        assert pre[0].headers.epoch is None  # epoch 0 is wire-compatible
        ReconfigTransaction(stream, [
            ast.Insert(ast.PortRef("a", "po"), ast.PortRef("b", "pi"), "tc"),
        ]).execute()
        stream.post(MimeMessage("text/plain", b"post"))
        scheduler.pump()
        post = stream.collect()
        assert post[0].headers.epoch == 1

    def test_sequential_commits_monotonic(self):
        _server, stream = deploy()
        ReconfigTransaction(stream, [
            ast.Insert(ast.PortRef("a", "po"), ast.PortRef("b", "pi"), "tc"),
        ]).execute()
        ReconfigTransaction(stream, [
            ast.RemoveInstance("extract", "tc"),
        ]).execute()
        assert stream.epoch == 2

    def test_commit_twice_rejected(self):
        _server, stream = deploy()
        txn = ReconfigTransaction(stream, [
            ast.Insert(ast.PortRef("a", "po"), ast.PortRef("b", "pi"), "tc"),
        ])
        txn.execute()
        with pytest.raises(ReconfigurationError, match="already committed"):
            txn.commit()


class TestRollback:
    @pytest.mark.parametrize("kind", ["inline", "threaded"])
    def test_nth_action_failure_restores_everything(self, kind):
        _server, stream = deploy()
        if kind == "inline":
            scheduler = InlineScheduler(stream)
        else:
            scheduler = OffLoop(stream)  # the gateway's executor
        try:
            park_in_b(stream, scheduler, n=3)
            before = fingerprint(stream)
            epoch_before = stream.epoch
            txn = ReconfigTransaction(stream, [
                ast.NewInstances("streamlet", ("x",), "tap"),
                # b.pi is already fed by a.po: this one fails mid-apply
                ast.Connect(ast.PortRef("x", "po"), ast.PortRef("b", "pi")),
            ])
            with pytest.raises(ReconfigAbortedError) as info:
                txn.commit(validate=False)
            assert info.value.failed_action == 1
            assert txn.state is TxnState.ROLLED_BACK
            assert fingerprint(stream) == before
            assert stream.epoch == epoch_before
            assert stream._txn is None
            assert "x" not in stream.processing_order()
            # the parked messages survive the failed commit and deliver
            stream.node("b").streamlet.activate()
            if kind == "inline":
                scheduler.pump()
                assert len(stream.collect()) == 3
            else:
                assert scheduler.drain(timeout=10)
                assert len(scheduler.collect()) == 3
            report = check_conservation(stream)
            assert report.balanced and report.lost == 0
        finally:
            if kind != "inline":
                scheduler.stop()
            if not stream.ended:
                stream.end()

    def test_rollback_under_faultplan_channel_close(self):
        # a FaultPlan closes the downstream channel; healing around b
        # then blows up mid-apply when pending ids are re-posted
        clock = VirtualClock()
        _server, stream = deploy(clock)
        scheduler = InlineScheduler(stream)
        park_in_b(stream, scheduler, n=3)
        plan = FaultPlan()
        plan.close_channel("__auto1", at=0.0)
        injector = FaultInjector(plan, clock=clock)
        injector.arm(stream)
        before = fingerprint(stream)
        txn = ReconfigTransaction(stream, [
            ast.RemoveInstance("extract", "b"),
        ])
        with pytest.raises(ReconfigAbortedError) as info:
            txn.commit(validate=False)
        assert info.value.failed_action == 0
        assert fingerprint(stream) == before
        assert stream.epoch == 0
        # conservation holds even though the wiring failed mid-heal
        report = check_conservation(stream)
        assert report.balanced
        injector.disarm()

    def test_failed_batch_with_created_and_removed_nodes(self):
        # the failing batch creates x, extracts tc-free b... and dies;
        # every node it created must be finalized, every removal undone
        _server, stream = deploy()
        scheduler = InlineScheduler(stream)
        park_in_b(stream, scheduler, n=2)
        before = fingerprint(stream)
        txn = ReconfigTransaction(stream, [
            ast.NewInstances("streamlet", ("x",), "tap"),
            ast.RemoveInstance("streamlet", "isink"),
            ast.Connect(ast.PortRef("x", "po"), ast.PortRef("nosuch", "pi")),
        ])
        with pytest.raises(ReconfigAbortedError) as info:
            txn.commit(validate=False)
        assert info.value.failed_action == 2
        assert fingerprint(stream) == before
        assert "isink" in stream._nodes  # the removal was undone

