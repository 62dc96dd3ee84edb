"""Where a session's share runs: the composition decides, and both answers agree.

Every deploy is stepped by the egress pump: on the event loop when its
table can only ever instantiate cooperative streamlets, on the pump's
executor otherwise, whatever ``scheduler`` says.  The differential test
drives one seeded script through both on one gateway — the on-loop
session is the reference interpreter's output, and the executor-stepped
one must match it message for message.
"""

import random
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.errors import MobiGateError
from repro.gateway import GatewayConfig, GatewayServer
from repro.streamlets.basic import REDIRECTOR_DEF, Redirector

from tests.gateway.test_data_plane import (
    MCL,
    WORKER_MCL,
    WireClient,
    deploy,
    offer_worker_redirector,
    poll_stats,
    tagged,
)


class Guard(Redirector):
    """A redirector that refuses poisoned bodies."""

    def process(self, port, message, ctx):
        if bytes(message.body).startswith(b"poison"):
            raise ValueError("poisoned body")
        return super().process(port, message, ctx)


def offer_both(gateway: GatewayServer) -> GatewayServer:
    """Every test streamlet twice: cooperative and, as ``worker_*``, not."""
    offer_worker_redirector(gateway)
    directory = gateway.mobigate.directory
    directory.advertise(replace(REDIRECTOR_DEF, name="guard"), Guard)
    directory.advertise(
        replace(REDIRECTOR_DEF, name="worker_guard"),
        type("WorkerGuard", (Guard,), {"cooperative": False}),
    )
    return gateway


def adaptive_mcl(prefix: str) -> str:
    return f"""main stream adaptive{{
  streamlet a, b = new-streamlet ({prefix}redirector);
  streamlet check = new-streamlet ({prefix}guard);
  streamlet relay = new-streamlet ({prefix}redirector);
  connect (a.po, check.pi);
  connect (check.po, b.pi);
  when (LOW_BANDWIDTH){{
    insert (a.po, check.pi, relay);
  }}
  when (HIGH_BANDWIDTH){{
    remove (relay);
  }}
}}"""


def stream_threads() -> list[str]:
    """Threads that step streamlets: the pump's executor (``gw-step``)."""
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("gw-step"))


@contextmanager
def deployed(gateway: GatewayServer, mcl: str, **deploy):
    """One session on a never-started gateway, undeployed on exit."""
    session = gateway.deploy(mcl, session_key="s", **deploy)
    try:
        yield session
    finally:
        gateway.undeploy("s", record=False)


class TestSelection:
    def test_a_cooperative_composition_is_pumped_and_starts_no_worker(self):
        before = stream_threads()
        with deployed(offer_both(GatewayServer()), adaptive_mcl("")) as session:
            assert session.stepped_by == "pump"
            assert session.describe()["scheduler"] == "threaded"
            assert stream_threads() == before

    def test_one_streamlet_that_may_block_keeps_a_worker_per_instance(self):
        before = stream_threads()
        mixed = MCL.replace("r0, r1 = new-streamlet (redirector)", (
            "r0 = new-streamlet (redirector);\n"
            "  streamlet r1 = new-streamlet (worker_redirector)"
        ))
        gateway = offer_both(GatewayServer())
        # started: a never-started gateway steps every share inline
        with gateway.run_in_thread(), deployed(gateway, mixed) as session:
            assert session.stepped_by == "executor"
            assert gateway.egress._executor is not None
            # one share in flight per session: one thread however many instances
            assert len(stream_threads()) <= len(before) + 1
        assert gateway.egress._executor is None
        assert stream_threads() == before

    def test_what_a_handler_may_instantiate_counts(self):
        later = """main stream grows{
  streamlet a, b = new-streamlet (redirector);
  connect (a.po, b.pi);
  when (LOW_BANDWIDTH){
    streamlet f = new-streamlet (worker_redirector);
    insert (a.po, b.pi, f);
  }
}"""
        with deployed(offer_both(GatewayServer()), later) as session:
            assert session.stepped_by == "executor"

    def test_a_factory_that_declares_nothing_gets_workers(self):
        gateway = GatewayServer()
        gateway.mobigate.directory.advertise(
            replace(REDIRECTOR_DEF, name="made"), lambda iid, d: Redirector(iid, d)
        )
        with deployed(gateway, MCL.replace("(redirector)", "(made)")) as session:
            assert session.stepped_by == "executor"

    def test_the_codec_backed_transcoders_keep_their_threads(self):
        with deployed(GatewayServer(), MCL.replace("(redirector)", "(encryptor)")) as session:
            assert session.stepped_by == "executor"

    def test_explicit_engines_are_what_they_were(self):
        gateway = offer_both(GatewayServer())
        # both names mean the pump; where the share runs is the composition's
        with deployed(gateway, WORKER_MCL, scheduler="inline") as session:
            assert (session.stepped_by, session.scheduler_kind) == ("executor", "inline")
        with deployed(gateway, MCL, scheduler="inline") as session:
            assert (session.stepped_by, session.scheduler_kind) == ("pump", "inline")
        # the sharded multi-process engine is gone (EXPERIMENTS.md)
        with pytest.raises(MobiGateError, match="unknown scheduler 'process'"):
            gateway.deploy(MCL, scheduler="process")
        assert not gateway.sessions


class TestBulkFramesOverTheDefaultChannel:
    def test_a_pumped_producer_never_outruns_the_100kb_auto_channel(self):
        """64 KB frames, window 4 on each of two connections, default channel.

        With a thread per streamlet, the producer's thread could post a
        second frame before the consumer's took the first: the channel
        dropped it and the client was told nothing.  Pump-stepped,
        worklist order and the headroom rule visit the consumer between
        any two posts.
        """
        per_connection, window = 40, 4
        with GatewayServer().run_in_thread() as handle:
            key = deploy(handle)
            failures = []

            def closed_loop(conn):
                client = WireClient(handle.data_address, timeout=20.0)
                try:
                    bodies = [
                        (b"%d-%d-" % (conn, i)).ljust(64 * 1024, b"x")
                        for i in range(per_connection)
                    ]
                    sent = echoed = 0
                    while echoed < per_connection:
                        while sent < per_connection and sent - echoed < window:
                            client.send(tagged(bodies[sent], key))
                            sent += 1
                        assert client.recv_frame().body == bodies[echoed]
                        echoed += 1
                except Exception as exc:  # surfaced by the main thread
                    failures.append(exc)
                finally:
                    client.close()

            threads = [threading.Thread(target=closed_loop, args=(c,)) for c in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures
            assert not any(thread.is_alive() for thread in threads)
            stats = handle.control({"op": "stats", "session": key})
            assert stats["stepped_by"] == "pump"
            assert stats["conservation"]["queue_drops"] == 0
            assert stats["conservation"]["delivered"] == 2 * per_connection
            assert stats["conservation"]["balanced"], stats


def seeded_script(seed: int, per_connection: int = 60):
    """A seeded interleaving of two connections' sends and eight events."""
    rng = random.Random(seed)
    queues = []
    for conn in (0, 1):
        poisoned = set(rng.sample(range(per_connection), 2))
        queues.append([
            ("send", conn, b"%sc%d-%03d" % (b"poison-" if i in poisoned else b"", conn, i))
            for i in range(per_connection)
        ])
    queues.append([
        ("event", "LOW_BANDWIDTH" if n % 2 == 0 else "HIGH_BANDWIDTH") for n in range(8)
    ])
    script = []
    while any(queues):
        queue = rng.choices(queues, weights=[len(q) for q in queues])[0]
        script.append(queue.pop(0))
    return script


def drive(handle, key, script, out):
    """Run ``script`` against one session; record what each connection saw."""
    clients = [WireClient(handle.data_address, timeout=20.0) for _ in (0, 1)]
    try:
        expected = [0, 0]
        for step in script:
            if step[0] == "send":
                _kind, conn, body = step
                clients[conn].send(tagged(body, key))
                expected[conn] += not body.startswith(b"poison")
            else:
                reply = handle.control(
                    {"op": "reconfigure", "event": step[1], "session": key}
                )
                assert reply["ok"], reply
        out[key] = [
            [client.recv_frame().body for _ in range(expected[conn])]
            for conn, client in enumerate(clients)
        ]
    except Exception as exc:  # surfaced by the main thread
        out[key] = exc
    finally:
        for client in clients:
            client.close()


@pytest.mark.parametrize("seed", [11, 12])
def test_pump_stepped_and_worker_stepped_sessions_agree(seed):
    """The differential test: same script, same gateway, on the loop and off it."""
    script = seeded_script(seed)
    config = GatewayConfig(supervise=True, store_backend="memory")
    with offer_both(GatewayServer(config=config)).run_in_thread() as handle:
        keys = {
            "pump": deploy(handle, mcl=adaptive_mcl("")),
            "executor": deploy(handle, mcl=adaptive_mcl("worker_")),
        }
        listing = {s["session"]: s for s in handle.control({"op": "sessions"})["sessions"]}
        for stepped_by, key in keys.items():
            assert listing[key]["stepped_by"] == stepped_by
            assert listing[key]["scheduler"] == "threaded"

        seen: dict = {}
        threads = [
            threading.Thread(target=drive, args=(handle, key, script, seen))
            for key in keys.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

        sent = [
            [step[2] for step in script if step[0] == "send" and step[1] == conn]
            for conn in (0, 1)
        ]
        clean = [[b for b in bodies if not b.startswith(b"poison")] for bodies in sent]
        poison = Counter(b for bodies in sent for b in bodies if b.startswith(b"poison"))
        outcome = {}
        for stepped_by, key in keys.items():
            assert not isinstance(seen[key], Exception), seen[key]
            # the poisoned messages finish their retries and are parked
            stats = poll_stats(
                handle, key, lambda s: s["conservation"]["residual"] == 0, timeout=20.0
            )
            conservation = stats["conservation"]
            assert conservation["balanced"], stats
            parked = handle.gateway.sessions[key].supervisor.dead_letters
            outcome[stepped_by] = {
                "per_connection": seen[key],
                "delivered": Counter(b for bodies in seen[key] for b in bodies),
                "dead_lettered": Counter(bytes(e.message.body) for e in parked),
                "terminals": {
                    name: conservation[name]
                    for name in (
                        "admitted", "delivered", "absorbed", "dead_letters",
                        "queue_drops", "open_circuit_drops", "failure_drops", "end_drops",
                    )
                },
            }
        reference = outcome["pump"]
        assert reference["per_connection"] == clean  # every echo, in send order
        assert reference["dead_lettered"] == poison
        assert outcome["executor"] == reference

        reconciled = handle.control({"op": "recovery", "reconcile": True})["reconcile"]
        assert reconciled["balanced"] and reconciled["missing"] == 0, reconciled
        folded = {s["session"]: s for s in reconciled["sessions"]}
        assert folded[keys["pump"]]["delivered"] == folded[keys["executor"]]["delivered"]
