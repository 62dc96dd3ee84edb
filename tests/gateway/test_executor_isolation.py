"""A session that may block is stepped off the loop: its neighbours never wait.

A composition with a streamlet that is not ``cooperative`` runs its
share of every pump cycle on the egress pump's executor.  Here one
sleeps 200 ms per message while a cooperative echo session beside it
keeps its round trips short, and the slow session still returns every
frame in order.  Undeploying the slow session mid-share waits the share
out: the ledger balances, counts as delivered exactly the frames the
client got, and the executor's threads are gone.  Sessions that block
never wait for one another's shares, however many there are.
"""

import contextlib
import gc
import socket
import sys
import threading
import time
from dataclasses import replace

from repro.faults.invariant import check_conservation
from repro.gateway import GatewayServer
from repro.streamlets.basic import REDIRECTOR_DEF, Redirector

from tests.gateway.test_data_plane import (
    WORKER_MCL,
    WireClient,
    deploy,
    offer_worker_redirector,
    poll_stats,
    tagged,
)

#: service time of the slow streamlet, per message
SLEEP = 0.2
#: frames sent to the slow session
SLOW_FRAMES = 5

SLOW_MCL = """main stream slow{
  streamlet r0 = new-streamlet (redirector);
  streamlet s = new-streamlet (sleepy);
  connect (r0.po, s.pi);
}"""
GATHER_MCL = SLOW_MCL.replace("(sleepy)", "(gathering)")


class Sleepy(Redirector):
    """A redirector that waits before it forwards: it may block, so it says nothing."""

    cooperative = False

    def process(self, port, message, ctx):
        time.sleep(SLEEP)
        return super().process(port, message, ctx)


class Gathering(Redirector):
    """A redirector that forwards only once ``barrier`` has gathered its parties."""

    cooperative = False
    barrier: threading.Barrier | None = None

    def process(self, port, message, ctx):
        Gathering.barrier.wait()
        return super().process(port, message, ctx)


def gateway() -> GatewayServer:
    served = GatewayServer()
    directory = served.mobigate.directory
    directory.advertise(replace(REDIRECTOR_DEF, name="sleepy"), Sleepy)
    directory.advertise(replace(REDIRECTOR_DEF, name="gathering"), Gathering)
    return served


def step_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("gw-step")]


def test_a_slow_session_cannot_stall_its_neighbours():
    with gateway().run_in_thread() as handle:
        echo_key = deploy(handle)
        slow_key = deploy(handle, mcl=SLOW_MCL)
        assert handle.gateway.sessions[slow_key].stepped_by == "executor"
        assert handle.gateway.sessions[echo_key].stepped_by == "pump"
        echo = WireClient(handle.data_address)
        slow = WireClient(handle.data_address, timeout=20.0)
        received = []

        def receive_slow():
            for _ in range(SLOW_FRAMES):
                received.append(slow.recv_frame().body)

        reader = threading.Thread(target=receive_slow)
        # the gateway's loop runs in this process: a full collection of the
        # test process's heap (some 174k objects) holds the GIL for 80-336 ms
        # and would stall the loop inside the timed window, so the heap
        # built so far is frozen out of every collection until it closes
        gc.collect()
        gc.freeze()
        try:
            echo.send(tagged(b"warm", echo_key))
            assert echo.recv_frame().body == b"warm"
            reader.start()
            for i in range(SLOW_FRAMES):
                slow.send(tagged(b"slow-%d" % i, slow_key))
            round_trips = []
            seq = 0
            # ping for as long as the slow session works, and a little longer
            deadline = time.monotonic() + SLOW_FRAMES * SLEEP + 0.2
            while time.monotonic() < deadline or reader.is_alive():
                body = b"ping-%d" % seq
                start = time.perf_counter()
                echo.send(tagged(body, echo_key))
                assert echo.recv_frame().body == body
                round_trips.append(time.perf_counter() - start)
                seq += 1
                time.sleep(0.005)
                assert time.monotonic() < deadline + 20, "the slow session never finished"
            reader.join(timeout=20)
        finally:
            gc.unfreeze()
            echo.close()
            slow.close()
        assert received == [b"slow-%d" % i for i in range(SLOW_FRAMES)]
        assert max(round_trips) < 0.050, sorted(round_trips)[-5:]
        assert len(round_trips) >= 50


def test_undeploy_mid_share_balances_and_leaves_no_thread():
    with gateway().run_in_thread() as handle:
        echo_key = deploy(handle)
        slow_key = deploy(handle, mcl=SLOW_MCL)
        session = handle.gateway.sessions[slow_key]
        slow = WireClient(handle.data_address, timeout=20.0)
        received = []
        try:
            slow.send(tagged(b"slow-0", slow_key))
            received.append(slow.recv_frame().body)
            for i in range(1, SLOW_FRAMES):
                slow.send(tagged(b"slow-%d" % i, slow_key))
            deadline = time.monotonic() + 10
            while session.stats.snapshot()["frames_in"] < SLOW_FRAMES:
                assert time.monotonic() < deadline, "the frames were never admitted"
                time.sleep(0.005)
            time.sleep(SLEEP / 2)  # the share sleeps on its first message
            share = session._share
            assert share is not None and not share.done()
            assert step_threads()
            assert handle.control({"op": "undeploy", "session": slow_key})["ok"]
            assert share.done()
            slow.sock.settimeout(1.0)
            with contextlib.suppress(socket.timeout):
                while (frame := slow.recv_frame()) is not None:
                    received.append(frame.body)
        finally:
            slow.close()
        report = check_conservation(session.stream)
        assert report.balanced and report.residual == 0, report
        assert report.admitted == SLOW_FRAMES
        # what the ledger calls delivered reached the client, and only that
        assert received == [b"slow-%d" % i for i in range(report.delivered)]
        assert report.delivered >= 1
        assert handle.gateway.egress._executor is None  # shut down, threads joined
        assert step_threads() == []
        # the neighbour on the loop never noticed
        echo = WireClient(handle.data_address)
        try:
            echo.send(tagged(b"after", echo_key))
            assert echo.recv_frame().body == b"after"
        finally:
            echo.close()


def test_every_blocking_session_has_its_share_in_flight_at_once():
    """Six sessions block until all six shares run together: an executor
    with fewer threads than blocking sessions would never gather them."""
    sessions = 6
    Gathering.barrier = threading.Barrier(sessions, timeout=10)
    try:
        with gateway().run_in_thread() as handle:
            keys = [deploy(handle, mcl=GATHER_MCL) for _ in range(sessions)]
            clients = [WireClient(handle.data_address, timeout=20.0) for _ in keys]
            try:
                for client, key in zip(clients, keys):
                    client.send(tagged(key.encode(), key))
                for client, key in zip(clients, keys):
                    assert client.recv_frame().body == key.encode()
            finally:
                for client in clients:
                    client.close()
            assert not Gathering.barrier.broken
    finally:
        Gathering.barrier = None


def test_many_off_loop_sessions_keep_order_and_balance():
    """Six off-loop sessions with a short switch interval: two shares of
    one session in flight at once would break order or balance."""
    sessions, per_session = 6, 60
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with offer_worker_redirector(GatewayServer()).run_in_thread() as handle:
            keys = [deploy(handle, mcl=WORKER_MCL) for _ in range(sessions)]
            failures = []

            def closed_loop(key):
                client = WireClient(handle.data_address, timeout=20.0)
                try:
                    bodies = [b"%s-%03d" % (key.encode(), i) for i in range(per_session)]
                    for body in bodies:
                        client.send(tagged(body, key))
                    assert [client.recv_frame().body for _ in bodies] == bodies
                except Exception as exc:  # surfaced by the main thread
                    failures.append(exc)
                finally:
                    client.close()

            threads = [threading.Thread(target=closed_loop, args=(k,)) for k in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures
            for key in keys:
                stats = poll_stats(handle, key, lambda s: s["conservation"]["residual"] == 0)
                assert stats["stepped_by"] == "executor"
                assert stats["conservation"]["balanced"], stats
                assert stats["conservation"]["delivered"] == per_session
    finally:
        sys.setswitchinterval(interval)
