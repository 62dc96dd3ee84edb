"""The gateway over real sockets: deploy, stream, observe.

This example runs the full deployable shape of the proxy:
:class:`~repro.gateway.GatewayServer` binds an asyncio **data plane**
(where clients stream length-delimited MIME frames) and a loopback
**control plane** (line-delimited JSON management verbs).  Everything
below is done through those two sockets — nothing touches the runtime
objects directly:

1. deploy a redirector chain via the control API (the reply carries the
   ``Content-Session`` routing key);
2. drive a fleet of concurrent loopback clients, each closed-loop:
   serialize a frame, send it, wait for its echo;
3. trigger a scripted ``LOW_BANDWIDTH`` reconfiguration mid-run — the
   ``when`` handler commits an epoch that lengthens the chain while
   traffic continues to flow;
4. read back the session's conservation ledger (every admitted message
   is delivered, absorbed, dead-lettered, dropped, or resident — the
   §7.2 invariant) and a telemetry summary; exit non-zero if it does not
   balance, or if any frame was orphaned or shed.

Run:  python examples/gateway_echo.py
"""

import socket
import threading

from repro.gateway import GatewayServer
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

MCL = """main stream echo{
  streamlet a, b = new-streamlet (redirector);
  connect (a.po, b.pi);
  when (LOW_BANDWIDTH) {
    streamlet relay = new-streamlet (redirector);
    insert (a.po, b.pi, relay);
  }
}"""

N_CLIENTS = 20
MESSAGES_PER_CLIENT = 25


def run_client(index: int, address, session_key: str, failures: list) -> None:
    """One closed-loop client: send a frame, wait for its echo, repeat."""
    assembler = FrameAssembler()
    try:
        with socket.create_connection(address, timeout=30) as sock:
            for n in range(MESSAGES_PER_CLIENT):
                message = MimeMessage("text/plain", f"c{index}-m{n}".encode())
                message.headers.session = session_key
                sock.sendall(serialize_message(message))
                echoed = []
                while not echoed:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("gateway closed the connection")
                    echoed = assembler.feed(chunk)
                if echoed[0].body != message.body:
                    raise AssertionError(f"echo mismatch for client {index}")
    except Exception as exc:  # collected, not raised: threads report back
        failures.append((index, exc))


def main() -> None:
    gateway = GatewayServer()
    with gateway.run_in_thread() as handle:
        print(f"data plane    : {handle.data_address}")
        print(f"control plane : {handle.control_address}")

        deployed = handle.control({"op": "deploy", "mcl": MCL})
        assert deployed["ok"], deployed
        key = deployed["session"]
        print(f"deployed      : session={key} stream={deployed['stream']} "
              f"epoch={deployed['epoch']}")

        failures: list = []
        threads = [
            threading.Thread(target=run_client, args=(i, handle.data_address, key, failures))
            for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()

        # reconfigure while the fleet is mid-flight: the when-handler
        # inserts a relay into the live chain as a transactional epoch
        adapted = handle.control(
            {"op": "reconfigure", "event": "LOW_BANDWIDTH", "session": key}
        )
        print(f"reconfigured  : event=LOW_BANDWIDTH epoch={adapted.get('epoch')}")

        for thread in threads:
            thread.join()
        if failures:
            raise SystemExit(f"client failures: {failures[:3]}")
        total = N_CLIENTS * MESSAGES_PER_CLIENT
        print(f"echoed        : {total} messages across {N_CLIENTS} connections")

        stats = handle.control({"op": "stats", "session": key})
        ledger = stats["conservation"]
        print("\n-- conservation --")
        print(ledger["ledger"])
        print(f"balanced      : {ledger['balanced']}")

        print("\n-- gateway counters --")
        for name in ("frames_in", "frames_out", "parked", "shed", "contended", "orphans"):
            print(f"{name:13} : {stats[name]}")
        if not ledger["balanced"] or stats["orphans"] or stats["shed"]:
            raise SystemExit(
                f"ledger balanced={ledger['balanced']}, orphans={stats['orphans']}, "
                f"shed={stats['shed']}: every echo must reach its own client"
            )

        scraped = handle.control({"op": "telemetry"})
        families = scraped["snapshot"].get("families", [])
        print("\n-- telemetry (gateway families) --")
        for family in families:
            if not family["name"].startswith("mobigate_gateway_"):
                continue
            for sample in family["samples"]:
                labels = ",".join(f"{k}={v}" for k, v in sample["labels"].items())
                value = sample.get("value", sample.get("count"))
                print(f"{family['name']}{{{labels}}} = {value}")

        health = handle.control({"op": "health"})
        print(f"\nhealth        : sessions={health['sessions']} "
              f"frame_errors={health['frame_errors']} "
              f"uptime={health['uptime_s']:.2f}s")
    print("done.")


if __name__ == "__main__":
    main()
