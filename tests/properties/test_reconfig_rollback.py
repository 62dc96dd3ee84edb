"""Property: a failed reconfiguration batch is perfectly invisible.

Hypothesis composes random action batches against the §7.2 chain, always
ending in an action guaranteed to fail mid-apply (the prefix may fail
even earlier — any failure index must behave identically).  Whatever the
batch did before dying, the rollback must leave ``snapshot_table()``,
``channel_names()``, ``processing_order()``, queue contents, instance
params, and the epoch bit-identical to the pre-commit state — stepped
inline, and stepped off the caller's thread by the gateway's executor
(``threaded``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import build_server
from repro.errors import ReconfigAbortedError
from repro.faults.invariant import check_conservation
from repro.mcl import astnodes as ast
from repro.mime.message import MimeMessage
from repro.runtime.reconfig import ReconfigTransaction
from repro.runtime.scheduler import InlineScheduler
from repro.util.clock import VirtualClock

from tests.offloop import OffLoop

SOURCE = """
streamlet tap{
  port{ in pi : text/*; out po : text/plain; }
}
main stream s{
  streamlet a, b, c = new-streamlet (tap);
  streamlet tc = new-streamlet (text_compress);
  connect (a.po, b.pi);
  connect (b.po, c.pi);
}
"""

# actions drawn for the batch prefix: some valid against the deployed
# chain, some not — every mix must roll back cleanly
PREFIX_ACTIONS = [
    ast.NewInstances("streamlet", ("x",), "tap"),
    ast.NewInstances("streamlet", ("y",), "tap"),
    ast.NewInstances("channel", ("ch",), "defaultChannel"),
    ast.Insert(ast.PortRef("a", "po"), ast.PortRef("b", "pi"), "tc"),
    ast.Disconnect(ast.PortRef("b", "po"), ast.PortRef("c", "pi")),
    ast.Connect(ast.PortRef("x", "po"), ast.PortRef("y", "pi")),
    ast.RemoveInstance("extract", "b"),
    ast.RemoveInstance("streamlet", "tc"),
    ast.Replace("b", "tc"),
    ast.DisconnectAll("b"),
]

#: always fails: no instance named "nosuch" exists or can exist
POISON = ast.Connect(ast.PortRef("nosuch", "po"), ast.PortRef("b", "pi"))


def fingerprint(stream):
    table = stream.snapshot_table()
    queues = {}
    seen = set()
    for name, node in sorted(stream._nodes.items()):
        for port, ch in sorted(node.inputs.items()):
            if id(ch) not in seen:
                seen.add(id(ch))
                queues[f"{name}.{port}"] = ch.queue.snapshot_state()
    return (
        sorted((n, d.name) for n, d in table.instances.items()),
        sorted(table.channels),
        sorted(str(link) for link in table.links),
        tuple(str(r) for r in table.exposed_in),
        tuple(str(r) for r in table.exposed_out),
        stream.channel_names(),
        stream.processing_order(),
        queues,
        {n: dict(stream.node(n).ctx.params) for n in sorted(stream._nodes)},
        stream.epoch,
    )


def build(parked: int):
    server = build_server(clock=VirtualClock())
    stream = server.deploy_script(SOURCE)
    scheduler = InlineScheduler(stream)
    if parked:
        stream.node("b").streamlet.pause()
        for i in range(parked):
            stream.post(MimeMessage("text/plain", f"m{i}".encode()))
        scheduler.pump()
    return stream, scheduler


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    prefix=st.lists(st.sampled_from(PREFIX_ACTIONS), max_size=4),
    parked=st.integers(min_value=0, max_value=3),
)
def test_failing_batch_is_invisible_inline(prefix, parked):
    stream, scheduler = build(parked)
    before = fingerprint(stream)
    txn = ReconfigTransaction(stream, [*prefix, POISON])
    with pytest.raises(ReconfigAbortedError):
        txn.commit(validate=False)
    assert fingerprint(stream) == before
    assert stream._txn is None
    # and the stream still works: parked messages drain, ledger balances
    if parked:
        stream.node("b").streamlet.activate()
    scheduler.pump()
    assert len(stream.collect()) == parked
    report = check_conservation(stream)
    assert report.balanced and report.lost == 0
    stream.end()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(prefix=st.lists(st.sampled_from(PREFIX_ACTIONS), max_size=3))
def test_failing_batch_is_invisible_threaded(prefix):
    server = build_server(clock=VirtualClock())
    stream = server.deploy_script(SOURCE)
    scheduler = OffLoop(stream)
    try:
        before = fingerprint(stream)
        txn = ReconfigTransaction(stream, [*prefix, POISON])
        with pytest.raises(ReconfigAbortedError):
            txn.commit(validate=False)
        assert fingerprint(stream) == before
        for i in range(3):
            stream.post(MimeMessage("text/plain", f"t{i}".encode()))
        assert scheduler.drain(timeout=10)
        assert len(scheduler.collect()) == 3
        report = check_conservation(stream)
        assert report.balanced and report.lost == 0
    finally:
        scheduler.stop()
        if not stream.ended:
            stream.end()
