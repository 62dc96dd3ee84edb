"""One script, three ways of stepping it: the hop kernel is one transition.

The same seeded traffic goes through the same six-stage composition
unfused (asynchronous channels, a queue post per hop), fused under
``PassMode.REFERENCE`` (the message object is carried member to member)
and fused under ``PassMode.VALUE`` (checked out, so deep-copied, at every
hop).  Stages are chosen to exercise every branch of the kernel's
emission handling: a streamlet that returns a *new* message object, one
that rewrites ``Content-Type``, one that emits two messages, and one that
raises under a supervisor that retains the id for a retry.

A retry is re-posted to the failing member's input channel, which in the
fused composition is a one-slot rendezvous: two retries falling due
together would dead-letter the second there and not on an asynchronous
channel.  That is the channels differing, not the stepping, so the script
lets at most one message fail per burst and fails ahead of the split.

Each way is also run observed, tracing every hop: the observer may add
``Content-Trace`` and nothing else, so frames (that header aside), order,
stream stats and dead letters match the unobserved run.
"""

import random

import pytest

from repro.apps import build_server
from repro.faults import RecoveryPolicy, Supervisor
from repro.faults.invariant import assert_conservation
from repro.mcl import astnodes as ast
from repro.mime.headers import CONTENT_TRACE
from repro.mime.mediatype import ANY
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_message
from repro.runtime.message_pool import PassMode
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.streamlet import Streamlet
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry

STAGES = ("a", "fresh", "retype", "flaky", "split", "z")
HOPS = len(STAGES)


def _definition(name: str) -> ast.StreamletDef:
    return ast.StreamletDef(
        name=name,
        ports=(
            ast.PortDecl(ast.PortDirection.IN, "pi", ANY),
            ast.PortDecl(ast.PortDirection.OUT, "po", ANY),
        ),
    )


class Fresh(Streamlet):
    """Emit a new message object: the claimed id must be re-pointed at it."""

    def process(self, port, message, ctx):
        return [("po", MimeMessage(message.content_type, message.body, headers=message.headers))]


class Retype(Streamlet):
    """Rewrite ``Content-Type``: every later hop must read the new one."""

    def process(self, port, message, ctx):
        message.content_type = f"application/x-hop; was={message.content_type.subtype}"
        return [("po", message)]


class Split(Streamlet):
    """Emit two messages; the second needs an id of its own."""

    def process(self, port, message, ctx):
        twin = message.clone()
        twin.set_body(message.body + b"'")
        return [("po", message), ("po", twin)]


class Flaky(Streamlet):
    """Raise on ``boom`` bodies always, on ``once`` bodies the first time."""

    def __init__(self, instance_id, definition):
        super().__init__(instance_id, definition)
        self.met: set[bytes] = set()

    def process(self, port, message, ctx):
        body = message.body
        if body.startswith(b"boom") or (body.startswith(b"once") and body not in self.met):
            self.met.add(body)
            raise RuntimeError(f"flaky on {body!r}")
        return [("po", message)]


CUSTOM = {"fresh": Fresh, "retype": Retype, "split": Split, "flaky": Flaky}

SYNC_CHANNEL = """channel hopSync{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = SYNC; buffer = 0; }
}
"""


def composition(*, sync: bool) -> str:
    lines = ["main stream hops{", "  streamlet a, z = new-streamlet (redirector);"]
    lines += [f"  streamlet {name} = new-streamlet (dx_{name});" for name in CUSTOM]
    if sync:
        links = ", ".join(f"s{i}" for i in range(HOPS - 1))
        lines.append(f"  channel {links} = new-channel (hopSync);")
    for i, (source, sink) in enumerate(zip(STAGES, STAGES[1:])):
        via = f", s{i}" if sync else ""
        lines.append(f"  connect ({source}.po, {sink}.pi{via});")
    lines.append("}")
    return (SYNC_CHANNEL if sync else "") + "\n".join(lines)


MODES = {
    "unfused": dict(sync=False, pass_mode=PassMode.REFERENCE),
    "fused-reference": dict(sync=True, pass_mode=PassMode.REFERENCE),
    "fused-value": dict(sync=True, pass_mode=PassMode.VALUE),
}

COUNTERS = (
    "messages_in", "messages_out", "processed", "absorbed", "processing_failures",
    "failure_drops", "retries", "dead_letters", "queue_drops", "open_circuit_drops",
    "end_drops",
)


def script(seed: int) -> list[list[bytes]]:
    """Bursts of bodies: plain ones and, in most bursts, one that fails."""
    rng = random.Random(seed)
    bursts = []
    for burst in range(14):
        kinds = [b"ok"] * rng.randint(1, 6)
        if rng.random() < 0.8:
            kinds[rng.randrange(len(kinds))] = rng.choice((b"once", b"once", b"boom"))
        bursts.append([
            b"%s-%d-%d-%s" % (kind, burst, n, rng.randbytes(rng.randint(0, 40)).hex().encode())
            for n, kind in enumerate(kinds)
        ])
    return bursts


def run(mode: str, seed: int, observed: bool = False) -> dict:
    """Drive the script through one mode; returns everything observable.

    ``frames`` are serialised without ``Content-Trace``; ``traced``
    counts the delivered messages that carried one.
    """
    options = MODES[mode]
    telemetry = (
        Telemetry(registry=MetricsRegistry(), trace_sample_interval=1)
        if observed else NULL_TELEMETRY
    )
    server = build_server(
        pass_mode=options["pass_mode"], drop_timeout=5.0, telemetry=telemetry
    )
    for name, cls in CUSTOM.items():
        server.directory.advertise(_definition(f"dx_{name}"), cls, replace=True)
    stream = server.deploy_script(composition(sync=options["sync"]))
    assert stream.fusion_groups() == ((STAGES,) if options["sync"] else ())
    scheduler = InlineScheduler(stream)
    supervisor = Supervisor(stream, RecoveryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0))
    supervisor.attach()
    delivered: list[MimeMessage] = []

    def settle():
        while scheduler.pump() or supervisor.pump_retries():
            pass
        delivered.extend(stream.collect())

    try:
        # one plain message on its own: the copy count of a single pass
        stream.post(MimeMessage("text/plain", b"ok-first", session="dx"))
        settle()
        first = (stream.pool.copies, stream.stats.processed)
        bursts = script(seed)
        for index, bodies in enumerate(bursts):
            if index == len(bursts) // 2:
                stream.pause_all()  # mid-script: input waits, nothing moves
            for body in bodies:
                stream.post(MimeMessage("text/plain", body, session="dx"))
            if index == len(bursts) // 2:
                assert scheduler.pump() == 0 and stream.collect() == []
                stream.resume_all()
            settle()
        report = assert_conservation(stream)
        assert report.residual == 0
        traced = 0
        for message in delivered:
            if message.headers.get(CONTENT_TRACE) is not None:
                traced += 1
                message.headers.remove(CONTENT_TRACE)
        return {
            "traced": traced,
            "frames": [serialize_message(m) for m in delivered],
            "counters": {name: getattr(stream.stats, name) for name in COUNTERS},
            "dead": sorted(
                (d.message.body, d.instance, d.attempts) for d in supervisor.dead_letters
            ),
            "per_streamlet": {n: stream.node(n).streamlet.processed for n in STAGES},
            "first": first,
            "copies": stream.pool.copies,
        }
    finally:
        supervisor.detach()
        stream.end()


@pytest.mark.parametrize("seed, observed", [
    pytest.param(7, False, id="7"),
    pytest.param(20, False, id="20"),
    pytest.param(7, True, id="7-traced"),
    pytest.param(20, True, id="20-traced"),
])
def test_three_ways_of_stepping_agree(seed, observed):
    unfused, by_reference, by_value = (run(mode, seed, observed) for mode in MODES)
    if observed:
        # every delivered message was traced, and the observer changed nothing else
        assert all(r["traced"] == len(r["frames"]) for r in (unfused, by_reference, by_value))
        unobserved = run("unfused", seed)
        assert unobserved["traced"] == 0
        for name in ("frames", "counters", "dead", "per_streamlet"):
            assert unfused[name] == unobserved[name], name

    # same messages, same bytes, same order
    assert by_reference["frames"] == unfused["frames"]
    assert by_value["frames"] == unfused["frames"]
    assert len(unfused["frames"]) > 40
    assert all(b"Content-Type: application/x-hop; was=plain" in f for f in unfused["frames"])

    # same fates: terminal counters, per-streamlet work, dead letters
    for other in (by_reference, by_value):
        assert other["counters"] == unfused["counters"]
        assert other["per_streamlet"] == unfused["per_streamlet"]
        assert other["dead"] == unfused["dead"]
    counters = unfused["counters"]
    assert counters["retries"] > 0 and counters["dead_letters"] > 0
    assert counters["dead_letters"] == len(unfused["dead"])
    assert counters["failure_drops"] == counters["queue_drops"] == 0

    # by reference nothing is copied; by value every hop copies, fused or not
    assert unfused["copies"] == by_reference["copies"] == 0
    # (the first message: five hops as one message, the sixth once for each half)
    assert by_value["first"] == (HOPS + 1, HOPS + 1)
    assert by_value["copies"] == counters["processed"] + counters["processing_failures"]


# -- drop-on-full: a burst through a small declared channel ------------------------------

TINY_CHANNEL = """channel tiny{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = ASYNC; buffer = 1; }
}
"""


def spill_composition(*, sync: bool) -> str:
    """``a → split → z``, the split's twins crossing a 1 KB asynchronous channel."""
    lines = [
        "main stream spill{",
        "  streamlet a, z = new-streamlet (redirector);",
        "  streamlet split = new-streamlet (dx_split);",
        "  channel t = new-channel (tiny);",
    ]
    if sync:
        lines.append("  channel s0 = new-channel (hopSync);")
    lines.append(f"  connect (a.po, split.pi{', s0' if sync else ''});")
    lines.append("  connect (split.po, z.pi, t);")
    lines.append("}")
    return TINY_CHANNEL + (SYNC_CHANNEL if sync else "") + "\n".join(lines)


def spill(mode: str, seed: int) -> dict:
    """One burst of 16 messages, 150–700 B, stepped inline until quiet."""
    options = MODES[mode]
    server = build_server(pass_mode=options["pass_mode"])
    for name, cls in CUSTOM.items():
        server.directory.advertise(_definition(f"dx_{name}"), cls, replace=True)
    stream = server.deploy_script(spill_composition(sync=options["sync"]))
    assert stream.fusion_groups() == ((("a", "split"),) if options["sync"] else ())
    scheduler = InlineScheduler(stream)
    tiny = stream.channel("t")
    assert tiny.queue.owned and tiny.queue.capacity_bytes == 1024
    hooked: list[str] = []
    stream.drop_hook = lambda msg_id, _message: hooked.append(msg_id)
    rng = random.Random(seed)
    try:
        for n in range(16):
            body = (b"%02d-" % n).ljust(rng.randint(150, 700), b"x")
            stream.post(MimeMessage("text/plain", body, session="dx"))
        while scheduler.pump():
            pass
        delivered = stream.collect()
        report = assert_conservation(stream)
        assert report.residual == 0
        return {
            "frames": [serialize_message(m) for m in delivered],
            "queue_drops": stream.stats.queue_drops,
            "hooked": hooked,
        }
    finally:
        stream.end()


@pytest.mark.parametrize("seed", [3, 11])
def test_drop_on_full_agrees_across_ways_of_stepping(seed):
    """Fig 6-9 on an owned channel: the same twins drop, whoever steps."""
    runs = {mode: spill(mode, seed) for mode in MODES}
    unfused = runs["unfused"]
    assert unfused["queue_drops"] > 0  # the burst really overflows the channel
    for run_ in runs.values():
        assert run_["frames"] == unfused["frames"]
        assert run_["queue_drops"] == unfused["queue_drops"]
        # one drop_hook call per dropped id
        assert len(run_["hooked"]) == len(set(run_["hooked"])) == run_["queue_drops"]
    assert len(unfused["frames"]) + unfused["queue_drops"] == 32
