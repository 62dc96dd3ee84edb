"""Gateway bench: loopback clients against the real socket data plane.

This is the one bench that crosses a kernel boundary: N concurrent TCP
clients (each a coroutine on a client-side event loop) stream framed MIME
messages into a :class:`~repro.gateway.GatewayServer` running on its own
loop thread, through a redirector chain, and wait for the echo.  Each
client is closed-loop (window of one), so per-message wall time is a true
round-trip latency: serialize → socket → incremental parse → admission →
scheduler → egress pump → socket → parse.

The run is driven end-to-end through the public surfaces: the chain is
deployed via the **control API**, and the conservation ledger is scraped
from it afterwards — the bench fails loudly if the ledger does not
balance (the equation in :mod:`repro.faults.invariant`).

Scale note: the default scenario opens ~1000 sockets on each side plus
the listener; the soft ``RLIMIT_NOFILE`` is raised toward the hard limit
when needed, and the client count is clamped (with a printed notice) if
the hard limit cannot accommodate it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.bench.harness import redirector_chain_mcl
from repro.bench.reporting import print_series
from repro.gateway import GatewayConfig, GatewayServer
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message
from repro.telemetry import MetricsRegistry, Telemetry

#: fds beyond the sockets themselves (listeners, pipes, stdio, slack)
_FD_SLACK = 64


def _ensure_fd_headroom(needed: int) -> int:
    """Raise the soft fd limit toward ``needed``; return what's available."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return needed
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return soft
    target = needed if hard == resource.RLIM_INFINITY else min(needed, hard)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (OSError, ValueError):  # pragma: no cover - hardened hosts
        return soft
    return target


@dataclass
class GatewayBenchResult:
    """One scenario per row; the shape ``flag_regressions`` expects."""

    headers: list[str] = field(default_factory=lambda: [
        "scenario", "clients", "messages", "throughput_msgs_per_sec",
        "p50_ms", "p99_ms", "parked", "shed", "balanced",
    ])
    rows: list[dict] = field(default_factory=list)

    def print(self) -> None:
        """Print the scenarios as a fixed-width table."""
        print_series(
            "Gateway (§3): loopback socket round-trips through a deployed chain",
            self.headers,
            [[row.get(h) for h in self.headers] for row in self.rows],
        )


async def _run_client(
    address: tuple[str, int],
    session_key: str,
    n_messages: int,
    payload: bytes,
    latencies: list[float],
    connect_gate: asyncio.Semaphore,
) -> None:
    """One closed-loop client: send a frame, await its echo, repeat."""
    async with connect_gate:
        reader, writer = await asyncio.open_connection(*address)
    assembler = FrameAssembler()
    try:
        for _ in range(n_messages):
            message = MimeMessage("application/octet-stream", payload)
            message.headers.session = session_key
            frame = serialize_message(message)
            begin = time.perf_counter()
            writer.write(frame)
            await writer.drain()
            echoed: list[MimeMessage] = []
            while not echoed:
                chunk = await reader.read(65536)
                if not chunk:
                    raise ConnectionError("gateway closed the connection mid-run")
                echoed = assembler.feed(chunk)
            latencies.append(time.perf_counter() - begin)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _drive_clients(
    address: tuple[str, int],
    session_key: str,
    n_clients: int,
    messages_per_client: int,
    payload: bytes,
    *,
    max_concurrent_connects: int = 128,
    timeout: float = 300.0,
) -> tuple[float, list[float]]:
    """Run the whole client fleet; returns (wall seconds, latencies)."""
    latencies: list[float] = []
    gate = asyncio.Semaphore(max_concurrent_connects)
    tasks = [
        _run_client(address, session_key, messages_per_client, payload, latencies, gate)
        for _ in range(n_clients)
    ]
    begin = time.perf_counter()
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=timeout)
    return time.perf_counter() - begin, latencies


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_gateway_bench(
    *,
    n_clients: int = 1000,
    messages_per_client: int = 10,
    payload_bytes: int = 256,
    chain_length: int = 2,
    scheduler: str = "threaded",
    scenario: str | None = None,
    attribution: bool = False,
) -> GatewayBenchResult:
    """Throughput and round-trip latency for one loopback scenario."""
    # each client costs two fds in-process (client socket + accepted socket)
    available = _ensure_fd_headroom(2 * n_clients + _FD_SLACK)
    usable = max(1, (available - _FD_SLACK) // 2)
    if usable < n_clients:
        print(f"[bench] fd limit clamps gateway clients: {n_clients} -> {usable}")
        n_clients = usable

    # the fleet is closed-loop (one outstanding message per client), so an
    # ingress bound >= the client count keeps the steady state shed-free;
    # backpressure behaviour is covered by the gateway test suite instead
    config = GatewayConfig(
        session_ingress_limit=max(2 * n_clients, 256),
        park_timeout=5.0,
    )
    telemetry = (
        Telemetry(registry=MetricsRegistry()) if attribution else None
    )
    gateway = GatewayServer(config=config, telemetry=telemetry)
    result = GatewayBenchResult()
    with gateway.run_in_thread() as handle:
        deployed = handle.control({
            "op": "deploy",
            "mcl": redirector_chain_mcl(chain_length),
            "scheduler": scheduler,
        })
        if not deployed.get("ok"):
            raise RuntimeError(f"gateway deploy failed: {deployed}")
        key = deployed["session"]

        wall, latencies = asyncio.run(
            _drive_clients(
                handle.data_address,
                key,
                n_clients,
                messages_per_client,
                b"x" * payload_bytes,
            )
        )

        stats = handle.control({"op": "stats", "session": key}, timeout=30.0)
        if not stats.get("ok"):
            raise RuntimeError(f"gateway stats failed: {stats}")
        decomposition = None
        if attribution:
            attrib = handle.control(
                {"op": "attribution", "session": key}, timeout=30.0
            )
            if not attrib.get("ok"):
                raise RuntimeError(f"gateway attribution failed: {attrib}")
            decomposition = attrib["decomposition"]
    conservation = stats["conservation"]
    if not conservation["balanced"]:
        raise RuntimeError(f"conservation violated: {conservation['ledger']}")

    total = len(latencies)
    latencies.sort()
    result.rows.append({
        "scenario": scenario or f"loopback_{n_clients}x{messages_per_client}",
        "clients": n_clients,
        "messages": total,
        "wall_s": wall,
        "throughput_msgs_per_sec": total / wall if wall > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p95_ms": _percentile(latencies, 0.95) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "parked": stats["parked"],
        "shed": stats["shed"],
        "contended": stats["contended"],
        "balanced": conservation["balanced"],
        "ledger": conservation["ledger"],
        "chain_length": chain_length,
        "scheduler": scheduler,
        "payload_bytes": payload_bytes,
    })
    if decomposition is not None:
        result.rows[-1].update({
            "attribution": decomposition,
            "attribution_coverage": decomposition.get("coverage"),
        })
    return result


def run_gateway(*, quick: bool = False) -> GatewayBenchResult:
    """The bench entry point: 1000 loopback clients (100 under ``--quick``).

    A full run also measures the quick scenario, so the committed baseline
    carries a row CI's ``--quick`` smoke can meaningfully compare against
    (a 100-client run against a 1000-client baseline would be noise).
    """
    result = run_gateway_bench(
        n_clients=100, messages_per_client=5, scenario="loopback_quick"
    )
    # the attribution scenario keeps quick size: its point is the latency
    # decomposition (queue_wait + service + egress vs gateway e2e), not
    # peak throughput
    attrib = run_gateway_bench(
        n_clients=100,
        messages_per_client=5,
        scenario="loopback_attributed",
        attribution=True,
    )
    result.rows.extend(attrib.rows)
    if not quick:
        full = run_gateway_bench(
            n_clients=1000, messages_per_client=10, scenario="loopback_1000"
        )
        result.rows.extend(full.rows)
    return result
