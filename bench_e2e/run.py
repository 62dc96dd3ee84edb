"""The end-to-end gateway benchmark: one command, every metric by name.

    python3 bench_e2e/run.py --seed 1                  # all workloads, scored + traced
    python3 bench_e2e/run.py --seed 1 --quick          # two workloads, < 30 s
    python3 bench_e2e/run.py --workload small_echo --seed 1 --seconds 20 --trace 0

For each workload the gateway is started as shipped (``python -m
repro.gateway``, through ``gateway_main.py``) as a separate process, the
workload's MCL is deployed over the control plane, and a single-process
asyncio generator drives it over two TCP connections, verifying every
echo.  A **scored** pass (``--trace 0``) measures the end-to-end metrics
in a closed loop with nothing else going on; a **traced** pass
(``--trace 1``) walks the layers in-process, repeats the closed loop
while scraping the control plane, runs the open loop, and reports the
per-layer metrics.  With ``--workload`` the last line of standard output
is the one JSON object the benchmark driver reads.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import metrics
import procfs
import scoring
from gateway_proc import OUT_DIR, REPO_ROOT, SRC_DIR, ControlClient, Fleet, Gateway
from loadgen import LoadGenerator, Segment
from workloads import BY_NAME, CHURN_EVENTS, WORKLOADS, Workload

QUICK_WORKLOADS = ("small_echo", "session_churn")
CLOSED_SEGMENT_SECONDS = 0.5
OPEN_SEGMENT_SECONDS = 1.0
SCRAPE_EVERY = 0.5
#: control ``stats`` fields reported per layer, summed over sessions
SESSION_COUNTERS = ("parked", "shed", "contended", "orphans")
STREAM_COUNTERS = ("queue_drops", "processed")
#: per-message latency components of the control ``attribution`` verb
ATTRIBUTION_COMPONENTS = ("queue_wait", "service", "egress", "delivery")


@dataclass(frozen=True)
class Plan:
    """How long each part of a pass lasts."""

    seconds: int
    cold_starts: int
    warmup_seconds: float

    def segments(self, share: float, segment_seconds: float) -> int:
        """How many segments a phase given ``share`` of the measured seconds runs."""
        return max(2, round(self.seconds * share / segment_seconds))


@dataclass
class Rig:
    """A running gateway with its sessions deployed and the generator connected."""

    gateway: Gateway
    control: ControlClient
    generator: LoadGenerator
    sessions: list[str]

    def close(self) -> None:
        self.generator.close()
        self.control.close()


async def pause(stop: asyncio.Event, seconds: float) -> None:
    """Sleep ``seconds``, or less if the phase ends first."""
    try:
        await asyncio.wait_for(stop.wait(), seconds)
    except asyncio.TimeoutError:
        pass


class Reconfigurer:
    """The control client of ``session_churn``: one ``reconfigure`` per period,
    round-robin across sessions, alternating the two events per session.

    The gateway refuses (validates, rolls back, still answers ``ok``) a
    ``remove`` whose streamlet has input waiting; the reply's ``epoch``
    says whether the request committed, and the session's next request
    repeats the event until it does.  With ``every`` 0 (every other
    workload) it does nothing and every epoch stays 0.
    """

    def __init__(self, address: tuple[str, int], sessions: list[str], every: float):
        self.address = address
        self.sessions = sessions
        self.every = every
        #: the epoch each session's last reply reported
        self.epochs = dict.fromkeys(sessions, 0)
        self.requests = 0
        self.refused = 0

    async def __call__(self, current_segment, stop: asyncio.Event) -> None:
        if not self.every:
            return
        control = await ControlClient.connect(self.address)
        try:
            due = time.perf_counter()
            while not stop.is_set():
                key = self.sessions[self.requests % len(self.sessions)]
                self.requests += 1
                start = time.perf_counter()
                reply = await control.request(
                    op="reconfigure", event=CHURN_EVENTS[self.epochs[key] % 2], session=key
                )
                current_segment().reconfig_rtts.append(time.perf_counter() - start)
                self.refused += reply["epoch"] == self.epochs[key]
                self.epochs[key] = reply["epoch"]
                due = max(due + self.every, time.perf_counter())
                await pause(stop, due - time.perf_counter())
        finally:
            control.close()


class Scraper:
    """The traced pass's operator: ``stats``, ``attribution`` and ``introspect``
    every half second while the load runs."""

    def __init__(self, control: ControlClient, sessions: list[str]):
        self.control = control
        self.sessions = sessions
        self.scrapes = 0

    async def __call__(self, current_segment, stop: asyncio.Event) -> None:
        while not stop.is_set():
            for key in self.sessions:
                await self.control.request(op="stats", session=key)
            await self.control.request(op="attribution")
            await self.control.request(op="introspect")
            self.scrapes += 1
            await pause(stop, SCRAPE_EVERY)


# -- set-up and teardown ------------------------------------------------------------


async def cold_start(fleet: Fleet, workload: Workload, seed: int) -> tuple[Rig, float]:
    """spawn -> boot line -> deploy ack for every session -> first verified echo."""
    keys = [f"s{index}" for index in range(workload.sessions)]
    generator = LoadGenerator(seed, keys, workload.payload_bytes)
    steal, host = procfs.host_ticks()
    start = time.perf_counter()
    gateway = fleet.spawn(durable=workload.durable)
    control = await ControlClient.connect(gateway.control_address)
    for key in keys:
        await control.request(op="deploy", mcl=workload.mcl, scheduler="threaded", session=key)
    await generator.connect(gateway.data_address, gateway.pid)
    first = time.perf_counter()
    generator.send(generator.connections[0], first, first)
    await asyncio.wait_for(generator.settle(), timeout=30.0)
    if generator.verified != 1:
        raise RuntimeError(f"{workload.name}: the first echo did not verify")
    seconds = time.perf_counter() - start
    steal_after, host_after = procfs.host_ticks()
    return Rig(gateway, control, generator, keys), {
        "seconds": seconds,
        "steal_share": (steal_after - steal) / max(1, host_after - host),
    }


async def set_up(fleet: Fleet, workload: Workload, seed: int, cold_starts: int) -> tuple[Rig, list]:
    """Cold-start ``cold_starts`` gateways; keep the last, report every start."""
    starts = []
    for index in range(cold_starts):
        rig, start = await cold_start(fleet, workload, seed)
        starts.append(start)
        if index < cold_starts - 1:
            rig.close()
            fleet.retire(rig.gateway)
    return rig, starts


async def final_counters(rig: Rig, workload: Workload, epochs: dict[str, int]) -> dict[str, float]:
    """Control ``stats`` for every session; raises unless every ledger balances
    and every session's epoch is the one its last ``reconfigure`` reply reported."""
    totals = dict.fromkeys(SESSION_COUNTERS + STREAM_COUNTERS, 0)
    for key in rig.sessions:
        stats = await rig.control.request(op="stats", session=key)
        conservation = stats["conservation"]
        if not conservation["balanced"] or conservation["missing"]:
            raise RuntimeError(f"{workload.name}/{key}: ledger unbalanced: {conservation}")
        if stats["epoch"] != epochs[key]:
            raise RuntimeError(
                f"{workload.name}/{key}: epoch {stats['epoch']}, last acknowledged {epochs[key]}"
            )
        for name in SESSION_COUNTERS:
            totals[name] += stats[name]
        for name in STREAM_COUNTERS:
            totals[name] += stats["stream_stats"][name]
    return totals


def outcome(generator: LoadGenerator) -> dict[str, int]:
    return {
        name: getattr(generator, name)
        for name in ("sent", "verified", "failed", "lost", "corrupted", "duplicated",
                     "misrouted", "error_framed", "late_echoes", "connection_errors", "held")
    }


def reconfig_rtt_ms(segment: Segment) -> float | None:
    if not segment.reconfig_rtts:
        return None
    return statistics.median(segment.reconfig_rtts) * 1e3


def latency_figures(open_scored: list[Segment]) -> dict[str, float]:
    """Open-loop round trip from a frame's due time to its verified echo."""
    return {
        "latency_p50_ms": scoring.median_of(open_scored, scoring.latency_ms(0.50)),
        "latency_p99_ms": scoring.median_of(open_scored, scoring.latency_ms(0.99)),
    }


def churn_figures(reconfigurer: Reconfigurer, closed_scored: list[Segment]) -> dict[str, float]:
    return {
        "reconfig_rtt_ms": scoring.median_of(closed_scored, reconfig_rtt_ms),
        "runtime.reconfig.refused_share": reconfigurer.refused / max(1, reconfigurer.requests),
    }


# -- the two passes -----------------------------------------------------------------


async def start_load(fleet: Fleet, workload: Workload, seed: int, plan: Plan,
                     cold_starts: int) -> tuple[Rig, list, Reconfigurer]:
    """Set up, warm up, and build the control client that runs beside every phase."""
    rig, starts = await set_up(fleet, workload, seed, cold_starts)
    await rig.generator.closed_loop(workload.window, 1, plan.warmup_seconds)
    reconfigurer = Reconfigurer(
        rig.gateway.control_address, rig.sessions, workload.reconfigure_every
    )
    return rig, starts, reconfigurer


async def scored_pass(fleet: Fleet, workload: Workload, seed: int, plan: Plan) -> dict:
    """The end-to-end metrics: set-up, then the closed loop for all the measured
    seconds, with nothing scraping the gateway.  (The open loop feeds per-layer
    metrics only, so it runs in the traced pass.)"""
    wall = [time.perf_counter()]
    rig, starts, reconfigurer = await start_load(fleet, workload, seed, plan, plan.cold_starts)
    generator = rig.generator
    wall.append(time.perf_counter())
    closed = await generator.closed_loop(
        workload.window, plan.segments(1.0, CLOSED_SEGMENT_SECONDS), CLOSED_SEGMENT_SECONDS,
        [reconfigurer],
    )
    await generator.settle()
    wall.append(time.perf_counter())
    counters = await final_counters(rig, workload, reconfigurer.epochs)
    rss = procfs.peak_rss_mb(rig.gateway.pid)
    rig.close()
    fleet.retire(rig.gateway)
    wall.append(time.perf_counter())

    scored = scoring.scored(closed)
    return {
        "end_to_end": {
            "throughput_msgs_s": scoring.median_of(scored, scoring.throughput_msgs_s),
            "cpu_us_per_msg": scoring.median_of(scored, scoring.cpu_us_per_msg),
            "peak_rss_mb": rss,
            "setup_s": scoring.setup_s(starts),
        },
        # the same medians before normalising to a host that steals nothing
        "raw": {
            "throughput_msgs_s": scoring.median_of(scored, scoring.raw_throughput_msgs_s),
            "cpu_us_per_msg": scoring.median_of(scored, scoring.raw_cpu_us_per_msg),
            "setup_s": statistics.median(start["seconds"] for start in starts),
        },
        "diagnostics": {
            "failed_share": generator.failed / generator.sent,
            **churn_figures(reconfigurer, scored),
            "loadgen.cpu_share": scoring.loadgen_cpu_share(scored),
            "loadgen.steal_share": scoring.steal_share(scored),
            **counters,
        },
        "noisy": scoring.is_noisy(scored),
        "cold_starts": starts,
        "segments": [
            {"seconds": s.seconds, "verified": s.verified, "gateway_cpu_s": s.gateway_cpu_s,
             "steal_share": s.steal_share}
            for s in closed
        ],
        "samples": sum(s.verified for s in scored),
        "outcome": outcome(generator),
        "wall_seconds": dict(zip(
            ("set_up_and_warm_up", "closed_loop", "checks_and_teardown"),
            (later - earlier for earlier, later in zip(wall, wall[1:])),
        )),
    }


def instrument_health(all_scored: list[Segment], open_scored: list[Segment]) -> dict[str, float]:
    lateness = [late for segment in open_scored for late in segment.lateness]
    return {
        "loadgen.late_p99_ms": scoring.percentile(lateness, 0.99) * 1e3,
        "loadgen.cpu_share": scoring.loadgen_cpu_share(all_scored),
        "loadgen.steal_share": scoring.steal_share(all_scored),
    }


async def traced_pass(fleet: Fleet, workload: Workload, seed: int, plan: Plan) -> dict:
    """The per-layer metrics: the load again, the gateway sampled from ``/proc``
    and then scraped over the control plane, with a round of the layer walk
    before, between and after the phases."""
    import layerwalk  # imports repro: only the traced pass needs it in-process

    spans_path = OUT_DIR / f"trace_{workload.name}.json"
    layer_walk = layerwalk.LayerWalk(workload, seed, OUT_DIR)
    per_round = layerwalk.MESSAGES // layerwalk.ROUNDS

    layer_walk.round(per_round)
    rig, _, reconfigurer = await start_load(fleet, workload, seed, plan, 1)
    generator, gateway = rig.generator, rig.gateway
    closed_segments = plan.segments(0.3, CLOSED_SEGMENT_SECONDS)
    open_segments = plan.segments(0.4, OPEN_SEGMENT_SECONDS)

    tasks_before = procfs.task_counts(gateway.pid)
    ledger_before = gateway.ledger_path.stat().st_size if workload.durable else 0
    verified_before = generator.verified
    plain = await generator.closed_loop(
        workload.window, closed_segments, CLOSED_SEGMENT_SECONDS, [reconfigurer]
    )
    tasks = procfs.task_counts(gateway.pid)
    ledger_bytes = (gateway.ledger_path.stat().st_size if workload.durable else 0) - ledger_before
    plain_verified = generator.verified - verified_before
    await generator.settle()  # a round blocks the loop: nothing may be in flight
    layer_walk.round(per_round)

    scraper = Scraper(rig.control, rig.sessions)
    scraped = await generator.closed_loop(
        workload.window, closed_segments, CLOSED_SEGMENT_SECONDS, [reconfigurer, scraper]
    )
    await generator.settle()
    layer_walk.round(per_round)
    opened = await generator.open_loop(
        workload.rate, open_segments, OPEN_SEGMENT_SECONDS, [reconfigurer]
    )
    await generator.settle()
    counters = await final_counters(rig, workload, reconfigurer.epochs)
    attribution = (await rig.control.request(op="attribution"))["decomposition"]
    rig.close()
    fleet.retire(gateway)
    layer_walk.round(per_round)
    walk = layer_walk.finish(spans_path)

    plain_scored = scoring.scored(plain)
    open_scored = scoring.scored(opened)
    cpu = scoring.median_of(plain_scored, scoring.cpu_us_per_msg)
    cpu_scraped = scoring.median_of(scoring.scored(scraped), scoring.cpu_us_per_msg)
    bytes_per_msg = ledger_bytes / plain_verified if plain_verified else 0.0
    appends_per_msg = (
        bytes_per_msg / walk["store.ledger.walk_bytes_per_append"] if workload.durable else 0.0
    )
    explained = sum(walk[f"{name}_us"] for name in layerwalk.GATEWAY_PATH) + appends_per_msg * (
        walk["store.ledger.append_us"] + walk["store.ledger.flush_us"]
    )
    components = attribution["components_seconds"]
    per_layer = {
        **{name: walk[name] for name in metrics.PER_LAYER if name in walk},
        "gateway.closedloop_cpu_us_per_msg": cpu,
        "gateway.openloop_cpu_us_per_msg": scoring.median_of(open_scored, scoring.cpu_us_per_msg),
        "gateway.handoff_us": cpu - explained,
        "gateway.vctx_per_msg": (
            (tasks["vctx"] - tasks_before["vctx"]) / plain_verified if plain_verified else 0.0
        ),
        "gateway.threads": tasks["threads"],
        "gateway.fds": tasks["fds"],
        "store.ledger.bytes_per_msg": bytes_per_msg,
        "store.ledger.appends_per_msg": appends_per_msg,
        **{f"gateway.session.{name}": counters[name] for name in SESSION_COUNTERS},
        **{f"runtime.stream.{name}": counters[name] for name in STREAM_COUNTERS},
        **{f"telemetry.attr_{name}_us": components[name] * 1e6 for name in ATTRIBUTION_COMPONENTS},
        "telemetry.attr_coverage": attribution["coverage"] or 0.0,
        **latency_figures(open_scored),
        "failed_share": generator.failed / generator.sent,
        **churn_figures(reconfigurer, plain_scored),
        **instrument_health(plain_scored + open_scored, open_scored),
        "trace.overhead_share": cpu_scraped / cpu - 1.0 if cpu else 0.0,
    }
    return {
        "per_layer": per_layer,
        "layer_walk": {
            "messages": layerwalk.MESSAGES,
            "spans_file": str(spans_path.relative_to(REPO_ROOT)),
            "explained_us": explained,
        },
        "traced_noisy": scoring.is_noisy(plain_scored + open_scored),
        "scrapes": scraper.scrapes,
        "traced_outcome": outcome(generator),
    }


# -- reporting ----------------------------------------------------------------------


def host_metadata() -> dict:
    """The machine fingerprint (the shape of ``repro.bench.reporting.host_metadata``)."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
    }


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None  # a plain checkout, not a repository
    return done.stdout.strip()


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    if set(values) != set(units):
        raise RuntimeError(f"metrics emitted and declared differ: {set(values) ^ set(units)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_metrics(title: str, rows: dict[str, dict]) -> None:
    print(f"\n== {title} ==")
    width = max(map(len, rows))
    for name, row in rows.items():
        print(f"  {name.ljust(width)}  {row['value']:>14.4f}  {row['unit']}")


async def run_workload(fleet: Fleet, workload: Workload, seed: int, plan: Plan,
                       passes: tuple[int, ...]) -> dict:
    result: dict = {"why": workload.why}
    if 0 in passes:
        scored = await scored_pass(fleet, workload, seed, plan)
        scored["end_to_end"] = with_units(scored["end_to_end"], metrics.END_TO_END)
        result.update(scored)
        flags = " (noisy)" if scored["noisy"] else ""
        print_metrics(f"{workload.name}: end to end{flags}", scored["end_to_end"])
    if 1 in passes:
        traced = await traced_pass(fleet, workload, seed, plan)
        traced["per_layer"] = with_units(traced["per_layer"], metrics.PER_LAYER)
        result.update(traced)
        print_metrics(f"{workload.name}: per layer", traced["per_layer"])
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="drives payload bytes and session order, nothing else")
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run one workload and print the driver's JSON line last")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per pass (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="0: scored pass only; 1: traced pass only; "
                             "default: scored with --workload or --quick, else both")
    parser.add_argument("--quick", action="store_true",
                        help="8 s, 1 cold start, small_echo + session_churn")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "gateway" / "__main__.py").is_file():
        print(f"bench_e2e: no gateway to measure under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))  # the traced pass imports repro in-process
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)

    if args.quick:
        plan = Plan(seconds=args.seconds or 8, cold_starts=1, warmup_seconds=1.0)
    else:
        plan = Plan(seconds=args.seconds or contract["run_seconds"], cold_starts=5,
                    warmup_seconds=2.0)
    if args.workload:
        names = (args.workload,)
    else:
        names = QUICK_WORKLOADS if args.quick else tuple(w.name for w in WORKLOADS)
    if args.trace is None:
        passes = (0,) if (args.workload or args.quick) else (0, 1)
    else:
        passes = (args.trace,)

    def _terminated(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminated)
    OUT_DIR.mkdir(exist_ok=True)
    fleet = Fleet()
    results: dict[str, dict] = {}

    async def run_all() -> None:
        for name in names:
            results[name] = await run_workload(fleet, BY_NAME[name], args.seed, plan, passes)

    try:
        asyncio.run(run_all())
    finally:
        fleet.close()
    fleet.assert_clean()

    report = {
        "benchmark": "bench_e2e",
        "host": host_metadata(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": plan.seconds,
        "cold_starts": plan.cold_starts,
        "passes": list(passes),
        "workloads": results,
    }
    suffix = f"_{args.workload}" if args.workload else ("_quick" if args.quick else "")
    report_path = OUT_DIR / f"e2e_seed{args.seed}{suffix}_trace{''.join(map(str, passes))}.json"
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nwrote {report_path.relative_to(REPO_ROOT)}")

    if args.workload:
        result = results[args.workload]
        spent = result["outcome"] if 0 in passes else result["traced_outcome"]
        print(json.dumps({
            "correct": spent["failed"] == 0,
            "attempted": spent["sent"],
            "failed": spent["failed"],
            "metrics": result["end_to_end" if 0 in passes else "per_layer"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
