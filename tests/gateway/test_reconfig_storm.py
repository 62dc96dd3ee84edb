"""A reconfiguration storm under traffic, on a pump-stepped session.

Every channel of a pump-stepped stream but its ingress is single-owner:
the pump thread steps, collects and re-posts retries inside the stream's
read gate, and the control thread's commits rewire those channels only
inside the write section after the grace period.  This drives both at
once — two closed-loop connections echoing through the ``session_churn``
composition while another thread raises events until 200 epochs have
committed, each inserting or removing a relay between the two
redirectors — and requires every frame back exactly once, in the order
its connection sent it, with a balanced ledger at the end.
"""

import threading

from repro.gateway import GatewayConfig, GatewayServer
from tests.gateway.test_data_plane import WireClient, deploy, tagged

#: the ``session_churn`` benchmark composition
CHURN_MCL = """main stream session_churn{
  streamlet r0, r1 = new-streamlet (redirector);
  streamlet relay = new-streamlet (redirector);
  connect (r0.po, r1.pi);
  when (LOW_BANDWIDTH){
    insert (r0.po, r1.pi, relay);
  }
  when (HIGH_BANDWIDTH){
    remove (relay);
  }
}"""

COMMITS = 200
WINDOW = 16
#: frames each connection sends at least, storm or not
MIN_FRAMES = 200

QUEUE_ROW_KEYS = {
    "channel", "depth", "watermark", "capacity_bytes", "pending_bytes",
    "posted", "fetched", "dropped", "closed",
}


def test_every_frame_survives_a_commit_storm_exactly_once_in_order():
    config = GatewayConfig(supervise=True, store_backend="memory")
    with GatewayServer(config=config).run_in_thread(timeout=30.0) as handle:
        key = deploy(handle, mcl=CHURN_MCL)
        session = handle.gateway.sessions[key]
        assert session.stepped_by == "pump"
        storm_over = threading.Event()
        failures: list[Exception] = []
        seen: dict[int, tuple[list[bytes], list[bytes]]] = {}

        def storm():
            # an epoch's parity says whether the relay is in: a removal the
            # relay's pending input refuses commits nothing and is re-raised
            stream = session.stream
            try:
                for _attempt in range(20 * COMMITS):
                    if stream.epoch >= COMMITS:
                        break
                    event = "HIGH_BANDWIDTH" if stream.epoch % 2 else "LOW_BANDWIDTH"
                    assert handle.gateway.raise_event(event, session_key=key) == 1
            except Exception as exc:  # surfaced by the main thread
                failures.append(exc)
            finally:
                storm_over.set()

        def closed_loop(conn: int):
            client = WireClient(handle.data_address, timeout=20.0)
            sent: list[bytes] = []
            echoed: list[bytes] = []
            seen[conn] = (sent, echoed)

            def sending() -> bool:
                return not storm_over.is_set() or len(sent) < MIN_FRAMES

            try:
                while sending() or len(echoed) < len(sent):
                    while sending() and len(sent) - len(echoed) < WINDOW:
                        body = b"c%d-%05d" % (conn, len(sent))
                        client.send(tagged(body, key))
                        sent.append(body)
                    frame = client.recv_frame()
                    assert frame is not None, "the gateway closed the connection"
                    echoed.append(frame.body)
            except Exception as exc:
                failures.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=closed_loop, args=(c,)) for c in (0, 1)]
        threads.append(threading.Thread(target=storm))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures

        # every commit landed, with traffic in flight the whole time
        assert session.stream.epoch == COMMITS
        for conn, (sent, echoed) in seen.items():
            assert len(sent) >= MIN_FRAMES
            assert echoed == sent, f"connection {conn}: lost, duplicated or reordered"
        stats = handle.control({"op": "stats", "session": key})
        assert stats["conservation"]["balanced"], stats
        assert stats["conservation"]["delivered"] == sum(len(s) for s, _ in seen.values())
        queues = handle.control({"op": "introspect"})["sessions"][key]["queues"]
        assert queues and all(set(row) == QUEUE_ROW_KEYS for row in queues)
