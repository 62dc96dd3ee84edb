"""Run every experiment and print the paper's series.

Usage::

    python -m repro.bench             # everything (a few minutes)
    python -m repro.bench fig7_2      # one artifact
    python -m repro.bench telemetry   # observer overhead (enabled vs no-op)
    python -m repro.bench --quick     # reduced sweeps for smoke runs
    python -m repro.bench --no-json   # skip the BENCH_*.json artifacts

Besides the human-readable tables, each target writes a machine-readable
``BENCH_<target>.json`` (strict JSON, one file per target) into
``$REPRO_BENCH_DIR`` or the working directory — see
``repro.bench.reporting.write_bench_json``.
"""

from __future__ import annotations

import sys

from repro.bench.ablations import (
    run_channel_ablation,
    run_compile_ablation,
    run_pooling_ablation,
)
from repro.bench.fig7_2 import run_fig7_2
from repro.bench.fig7_3 import run_fig7_3
from repro.bench.fig7_6 import run_fig7_6
from repro.bench.fig7_7 import run_fig7_7
from repro.bench.reporting import flag_regressions, write_bench_json
from repro.bench.telemetry_overhead import run_telemetry_overhead

ALL_TARGETS = (
    "fig7_2", "fig7_3", "fig7_6", "fig7_7", "ablations", "wtcp",
    "adaptivity", "telemetry", "faults", "reconfig", "durability",
)

#: every committed-baseline comparison CI runs, as (row key, metric,
#: direction) triples per target.  ``direction`` states which way is
#: *better* — "higher" for throughput-like metrics (a drop regresses),
#: "lower" for latency-like ones (a rise regresses) — so a p99 blow-up
#: can never slip through as an "improvement".  Advisory: hosts differ,
#: CI surfaces the warnings, a human judges them.
REGRESSION_CHECKS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "telemetry": (("config", "pass_seconds", "lower"),),
}


def check_regressions(target: str, result: object) -> None:
    """Print every registered baseline warning for ``target`` to stderr."""
    for key, metric, direction in REGRESSION_CHECKS.get(target, ()):
        for warning in flag_regressions(
            target, result, key=key, metric=metric, direction=direction
        ):
            print(warning, file=sys.stderr)


def main(argv: list[str]) -> int:
    """Run the selected bench targets; print tables and write JSON."""
    quick = "--quick" in argv
    json_out = "--no-json" not in argv
    targets = [a for a in argv if not a.startswith("-")] or list(ALL_TARGETS)
    unknown = sorted(set(targets) - set(ALL_TARGETS))
    if unknown:
        print(
            f"unknown target(s): {', '.join(unknown)} "
            f"(choose from: {', '.join(ALL_TARGETS)})",
            file=sys.stderr,
        )
        return 2

    def emit(target: str, payload: object) -> None:
        if json_out:
            path = write_bench_json(target, payload)
            print(f"[bench] wrote {path}")

    if "fig7_2" in targets:
        result = run_fig7_2(repeats=5 if quick else 30)
        result.print()
        emit("fig7_2", result)
    if "fig7_3" in targets:
        sizes = (10, 100, 400) if quick else (10, 50, 100, 200, 400, 800)
        result = run_fig7_3(sizes, repeats=2 if quick else 5)
        result.print()
        emit("fig7_3", result)
    if "fig7_6" in targets:
        counts = (1, 10, 50) if quick else (1, 5, 10, 20, 50, 100)
        result = run_fig7_6(counts, repeats=2 if quick else 5)
        result.print()
        emit("fig7_6", result)
    if "fig7_7" in targets:
        bandwidths = (
            tuple(k * 1000.0 for k in (20, 100, 500, 2000)) if quick else None
        )
        kwargs = {"n_messages": 6 if quick else 12}
        if bandwidths:
            result = run_fig7_7(bandwidths, (0.001, 0.05), **kwargs)
        else:
            result = run_fig7_7(**kwargs)
        result.print()
        emit("fig7_7", result)
    if "ablations" in targets:
        ablations = {
            "pooling": run_pooling_ablation((5, 10) if quick else (5, 10, 20, 40)),
            "channel": run_channel_ablation(2000 if quick else 10_000),
            "compile": run_compile_ablation((5, 20, 50) if quick else (5, 20, 50, 100, 200)),
        }
        for ablation in ablations.values():
            ablation.print()
        emit("ablations", ablations)
    if "wtcp" in targets:
        from repro.bench.reporting import print_series
        from repro.netsim.wtcp import run_wtcp

        segments = 100 if quick else 300
        rows = []
        for loss in (0.0, 0.02, 0.05, 0.10, 0.20):
            goodputs = {
                scheme: run_wtcp(
                    scheme, wireless_loss=loss, segments=segments, seed=7
                ).goodput_bps / 1000
                for scheme in ("plain", "snoop", "split")
            }
            rows.append((loss, goodputs["plain"], goodputs["snoop"], goodputs["split"]))
        print_series(
            "Motivation (§2.1): wireless TCP goodput vs loss (Kb/s)",
            ["loss", "plain", "snoop", "split"],
            rows,
        )
        emit("wtcp", {"headers": ["loss", "plain", "snoop", "split"], "rows": rows})
    if "adaptivity" in targets:
        from repro.bench.adaptivity import run_adaptivity

        result = run_adaptivity(n_messages=20 if quick else 50)
        result.print()
        emit("adaptivity", result)
    if "telemetry" in targets:
        result = run_telemetry_overhead(rounds=10 if quick else 40)
        result.print()
        # the subsystem's acceptance budget; advisory, like the baseline
        # comparisons below (hosts differ, CI surfaces it, a human judges)
        if result.overhead_fraction > 0.10:
            print(
                f"[bench] ADVISORY telemetry: observer overhead "
                f"{result.overhead_fraction * 100:.1f}% exceeds the 10% budget",
                file=sys.stderr,
            )
        check_regressions("telemetry", result)
        emit("telemetry", result)
    if "faults" in targets:
        from repro.bench.faults import run_faults

        result = run_faults(
            chain_length=5 if quick else 10,
            n_messages=30 if quick else 100,
            probabilities=(0.0, 0.1, 0.4) if quick else (0.0, 0.05, 0.1, 0.2, 0.4),
        )
        result.print()
        emit("faults", result)
    if "reconfig" in targets:
        from repro.bench.reconfig import run_reconfig

        result = run_reconfig(
            chain_lengths=(5, 10) if quick else (5, 10, 20, 40),
            n_messages=20 if quick else 50,
        )
        result.print()
        emit("reconfig", result)
    if "durability" in targets:
        from repro.bench.durability import run_durability

        result = run_durability(quick=quick)
        result.print()
        # lost acked messages or an unbalanced cross-crash fold raise
        # inside run_durability
        emit("durability", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
