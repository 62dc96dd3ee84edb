"""Run a gateway as a standalone OS process: ``python -m repro.gateway``.

The process form exists for the durability story: the crash harness
(:mod:`repro.store.crash`) spawns this module, kills it with ``SIGKILL``
mid-flight, respawns it against the same ledger path, and checks what
recovery restored.  It is equally usable by hand::

    python -m repro.gateway --store /tmp/gw/ledger.wal --backend file --supervise

On boot the process prints exactly one JSON line to stdout::

    {"data": [host, port], "control": [host, port], "recovered": N}

where ``recovered`` counts the sessions crash recovery restored from the
ledger.  Deployment happens over the control API.  ``SIGTERM`` (and
``SIGINT``) trigger the graceful path — :meth:`GatewayServer.drain` —
so a supervised shutdown quiesces sessions and flushes the ledger;
``SIGKILL`` is the crash under test.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.gateway.config import GatewayConfig
from repro.gateway.server import GatewayServer


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Run a MobiGATE gateway process (see module docstring).",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="ledger path; omitting it disables durability",
    )
    parser.add_argument(
        "--backend", default="file", choices=("memory", "file"),
        help="state-store backend (default: file)",
    )
    parser.add_argument(
        "--fsync", default="batch", choices=("always", "batch", "never"),
        help="store fsync policy (default: batch)",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="attach a recovery supervisor (retries + dead letters) per session",
    )
    parser.add_argument("--data-port", type=int, default=0)
    parser.add_argument("--control-port", type=int, default=0)
    return parser.parse_args(argv)


async def _amain(args: argparse.Namespace) -> int:
    config = GatewayConfig(
        data_port=args.data_port,
        control_port=args.control_port,
        store_backend=args.backend if args.store else None,
        store_path=args.store,
        store_fsync=args.fsync,
        supervise=args.supervise,
    )
    gateway = GatewayServer(config=config)
    await gateway.start()
    report = gateway.recovery.last_report if gateway.recovery is not None else None
    print(
        json.dumps(
            {
                "data": list(gateway.data.address),
                "control": list(gateway.control.address),
                "recovered": report.restored if report is not None else 0,
            }
        ),
        flush=True,
    )
    loop = asyncio.get_running_loop()
    finished = asyncio.Event()

    def _graceful() -> None:
        async def _drain_and_exit() -> None:
            try:
                await gateway.drain()
            finally:
                finished.set()

        loop.create_task(_drain_and_exit())

    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, _graceful)
    await finished.wait()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Synchronous entry point (also used by tests)."""
    return asyncio.run(_amain(_parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
