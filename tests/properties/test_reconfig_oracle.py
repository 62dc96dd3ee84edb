"""Property: validation predicts the commit (the reconfiguration oracle).

``validate()`` and ``commit()`` fold the same batch over the same
topology value with the same step function, so one must foretell the
other.  Hypothesis draws action batches (no poison tail: some legal,
some not) and 0–3 messages parked mid-chain:

* if ``validate()`` returns table ``T``, ``execute()`` succeeds, the live
  wiring renders as ``T``, ``T`` satisfies the Z model's schema
  predicates, and every parked message is delivered or counted as a
  queue drop (only a ``disconnect`` may drop) — the ledger balances;
* if it raises, the live stream is untouched down to object identity.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    QueueClosedError,
    ReconfigAbortedError,
    ReconfigValidationError,
)
from repro.faults.invariant import check_conservation
from repro.mcl import astnodes as ast
from repro.runtime.reconfig import ReconfigTransaction
from repro.runtime.streamlet import StreamletState
from repro.semantics.zmodel import model_of
from tests.properties.test_reconfig_rollback import PREFIX_ACTIONS, build

ACTIONS = [
    *PREFIX_ACTIONS,
    ast.Insert(ast.PortRef("b", "po"), ast.PortRef("c", "pi"), "x"),
    ast.Replace("c", "y"),
    ast.RemoveInstance("extract", "tc"),
    ast.RemoveInstance("streamlet", "x"),
    ast.Connect(ast.PortRef("b", "po"), ast.PortRef("c", "pi")),
]


def table_fingerprint(table):
    return (
        sorted((n, d.name) for n, d in table.instances.items()),
        sorted(table.channels),
        sorted(str(link) for link in table.links),
        tuple(str(r) for r in table.exposed_in),
        tuple(str(r) for r in table.exposed_out),
    )


def live_state(stream):
    """Everything a refused batch must leave alone, by identity where it has one."""
    nodes = {name: id(node) for name, node in stream._nodes.items()}
    streamlets = {name: id(node.streamlet) for name, node in stream._nodes.items()}
    channels, queues = {}, {}
    for name, node in stream._nodes.items():
        for port, ch in [*node.inputs.items(), *node.outputs.items()]:
            channels[f"{name}.{port}"] = id(ch)
            queues[f"{name}.{port}"] = ch.queue.snapshot_state()
    declared = {name: id(stream.channel(name)) for name in stream.channel_names()}
    params = {n: dict(stream.node(n).ctx.params) for n in stream._nodes}
    states = {n: stream.node(n).streamlet.state for n in stream._nodes}
    return (nodes, streamlets, channels, queues, declared, params, states,
            stream.epoch, stream.processing_order())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    batch=st.lists(st.sampled_from(ACTIONS), max_size=5),
    parked=st.integers(min_value=0, max_value=3),
)
def test_validation_predicts_the_commit(batch, parked):
    stream, scheduler = build(parked)
    before = live_state(stream)
    txn = ReconfigTransaction(stream, batch)
    try:
        predicted = txn.validate()
    except ReconfigValidationError:
        assert live_state(stream) == before
        assert stream._txn is None
        stream.end()
        return
    txn.execute()
    assert stream.epoch == 1
    assert table_fingerprint(stream.snapshot_table()) == table_fingerprint(predicted)
    model_of(predicted).check()
    for name in stream.instance_names():  # whoever holds the parked messages now
        streamlet = stream.node(name).streamlet
        if streamlet.state is StreamletState.PAUSED and stream.node(name).inputs:
            streamlet.activate()
    scheduler.pump()
    delivered = len(stream.collect())
    report = check_conservation(stream)
    assert report.balanced and report.residual == 0
    assert delivered + stream.stats.queue_drops == parked
    assert report.lost == stream.stats.queue_drops
    if not any(isinstance(a, (ast.Disconnect, ast.DisconnectAll)) for a in batch):
        assert report.lost == 0  # BK links: only a disconnect gives units up
    stream.end()


def test_heal_into_a_closed_channel_is_refused_before_anything_moves():
    # messages parked on b's input, the channel downstream of b closed:
    # healing around b would have to re-post the parked ids into it
    stream, _scheduler = build(3)
    stream.channel("__auto1").queue.close()
    before = live_state(stream)
    extract = [ast.RemoveInstance("extract", "b")]

    # a batch is refused on the §6.6 prerequisite, and the dry run and the
    # commit say so in the same words: they are the same fold
    with pytest.raises(ReconfigValidationError, match="still hold messages") as dry:
        ReconfigTransaction(stream, extract).validate()
    with pytest.raises(ReconfigAbortedError, match="still hold messages") as wet:
        ReconfigTransaction(stream, extract).commit(validate=False)
    assert str(dry.value.__cause__) == str(wet.value.cause)

    # forcing past §6.6 meets the closed queue — in the fold, where the
    # stream is still whole, not half way through the heal
    with pytest.raises(QueueClosedError):
        stream.extract_streamlet("b", force=True)
    assert live_state(stream) == before
    assert stream.node("b").inputs["pi"].pending() == 3
    report = check_conservation(stream)
    assert report.balanced and report.residual == 3
