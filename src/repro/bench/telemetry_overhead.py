"""Observer overhead: enabled telemetry vs no observer on Figure 7-2.

The telemetry subsystem instruments the hottest code in the repository
(the per-hop scheduler step), so its cost must be measured the same way
the thesis measures streamlet cost: a message passing down an
``n``-redirector chain.  Two identical chains are deployed — one bound to
a live :class:`~repro.telemetry.Telemetry`, one deployed with
:data:`~repro.telemetry.NULL_TELEMETRY` (so its stream holds no observer
at all) — and timed **interleaved**, in
alternating order, taking the minimum over many rounds.  Interleaving
plus min-of-many cancels the two noise sources that wreck naive A/B
timing on a shared machine: slow drift (thermal, frequency scaling) hits
both configurations equally, and one-off spikes never survive the min.

The acceptance target for the subsystem is **under 10% overhead** with
the default sampling interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.harness import deploy_chain
from repro.mime.message import MimeMessage
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry
from repro.telemetry.attribution import summarize
from repro.workloads.content import synthetic_text_message


@dataclass
class TelemetryOverheadResult:
    """Best-of interleaved pass times for the two telemetry configurations."""

    chain_length: int
    rounds: int
    passes_per_round: int
    noop_pass_seconds: float
    enabled_pass_seconds: float
    trace_sample_interval: int
    #: attribution observations folded while enabled (proof it was live)
    attribution_samples: int = 0
    #: flight-recorder events recorded while enabled
    recorder_events: int = 0
    #: per-config rows in the shape ``flag_regressions(key="config")`` expects
    rows: list[dict] = field(default_factory=list)

    @property
    def delta_per_hop_seconds(self) -> float:
        """Added observer cost per streamlet hop."""
        return (self.enabled_pass_seconds - self.noop_pass_seconds) / self.chain_length

    @property
    def overhead_fraction(self) -> float:
        """Relative slowdown of the enabled configuration (0.1 = 10%)."""
        if self.noop_pass_seconds == 0:
            return float("inf")
        return (self.enabled_pass_seconds - self.noop_pass_seconds) / self.noop_pass_seconds

    def print(self) -> None:
        """Print the overhead comparison."""
        print("\n== Telemetry observer overhead (enabled vs no-op, interleaved min) ==")
        print(
            f"chain={self.chain_length}, rounds={self.rounds}, "
            f"sample interval={self.trace_sample_interval}"
        )
        print(f"no-op   best pass: {self.noop_pass_seconds * 1e6:8.1f} us")
        print(f"enabled best pass: {self.enabled_pass_seconds * 1e6:8.1f} us")
        print(
            f"delta/hop: {self.delta_per_hop_seconds * 1e6:.2f} us, "
            f"overhead: {self.overhead_fraction * 100:.1f} % (budget: <10 %)"
        )
        print(
            f"attribution samples: {self.attribution_samples}, "
            f"recorder events: {self.recorder_events}"
        )


def run_telemetry_overhead(
    chain_length: int = 30,
    *,
    rounds: int = 40,
    passes_per_round: int = 10,
    message_kb: int = 10,
    warmup: int = 20,
    trace_sample_interval: int = 64,
) -> TelemetryOverheadResult:
    """Time the fig7-2 chain with telemetry enabled and disabled, interleaved."""
    body = synthetic_text_message(message_kb * 1024, seed=1).body
    telemetry = Telemetry(
        registry=MetricsRegistry(), trace_sample_interval=trace_sample_interval
    )
    _ns, noop_stream, noop_sched = deploy_chain(chain_length, telemetry=NULL_TELEMETRY)
    _es, enab_stream, enab_sched = deploy_chain(chain_length, telemetry=telemetry)
    pairs = {"noop": (noop_stream, noop_sched), "enabled": (enab_stream, enab_sched)}

    def one_pass(which: str) -> None:
        stream, scheduler = pairs[which]
        # one recorder event per pass so the enabled timing includes the
        # flight recorder's hot-path cost, behind the runtime's own guard
        if stream.tm is not None:
            stream.tm.recorder.record("bench_pass", stream=stream.name)
        stream.post(MimeMessage("text/plain", body))
        scheduler.pump()
        stream.collect()

    for _ in range(warmup):
        one_pass("noop")
        one_pass("enabled")

    best = {"noop": float("inf"), "enabled": float("inf")}
    for round_index in range(rounds):
        # alternate which configuration goes first so drift within a round
        # cannot systematically favour one side
        order = ("noop", "enabled") if round_index % 2 == 0 else ("enabled", "noop")
        for which in order:
            start = time.perf_counter()
            for _ in range(passes_per_round):
                one_pass(which)
            elapsed = (time.perf_counter() - start) / passes_per_round
            if elapsed < best[which]:
                best[which] = elapsed

    noop_stream.end()
    enab_stream.end()
    telemetry.flush()
    tables = summarize(telemetry.registry)
    attribution_samples = sum(
        row["count"]
        for component in ("queue_wait", "service", "egress")
        for row in tables[component]["rows"]
    )
    result = TelemetryOverheadResult(
        chain_length=chain_length,
        rounds=rounds,
        passes_per_round=passes_per_round,
        noop_pass_seconds=best["noop"],
        enabled_pass_seconds=best["enabled"],
        trace_sample_interval=trace_sample_interval,
        attribution_samples=attribution_samples,
        recorder_events=telemetry.recorder.recorded,
    )
    result.rows = [
        {
            "config": "noop",
            "pass_seconds": result.noop_pass_seconds,
            "per_hop_us": result.noop_pass_seconds / chain_length * 1e6,
        },
        {
            "config": "enabled",
            "pass_seconds": result.enabled_pass_seconds,
            "per_hop_us": result.enabled_pass_seconds / chain_length * 1e6,
            "overhead_fraction": result.overhead_fraction,
            "attribution_samples": attribution_samples,
            "recorder_events": result.recorder_events,
        },
    ]
    return result
