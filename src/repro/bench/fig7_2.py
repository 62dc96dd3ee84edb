"""Figure 7-2 — streamlet overhead analysis (section 7.2).

"Delay times can easily be captured by measuring the time needed for a
size-specific message to pass through a configured number of streamlet
redirectors."  The paper's finding: delay grows **linearly** with chain
length, ~12 ms/streamlet on 2004 hardware.  We report the measured
per-streamlet cost and check the linear shape (R² of a least-squares fit).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bench.harness import deploy_chain
from repro.bench.reporting import print_series
from repro.mime.message import MimeMessage
from repro.workloads.content import synthetic_text_message


@dataclass
class Fig72Result:
    rows: list[tuple[int, float]]          # (chain length, mean latency seconds)
    per_streamlet_seconds: float           # fitted slope
    intercept_seconds: float
    r_squared: float

    def print(self) -> None:
        """Print the Figure 7-2 series and the fitted per-streamlet cost."""
        print_series(
            "Figure 7-2: streamlet overhead",
            ["streamlets", "latency (ms)"],
            [(n, latency * 1e3) for n, latency in self.rows],
        )
        print(
            f"slope: {self.per_streamlet_seconds * 1e6:.1f} us/streamlet, "
            f"R^2 = {self.r_squared:.4f}"
        )


def run_fig7_2(
    chain_lengths: tuple[int, ...] = (1, 5, 10, 15, 20, 25, 30),
    *,
    message_kb: int = 10,
    repeats: int = 30,
) -> Fig72Result:
    """Measure one-message latency across redirector chain lengths; fit the slope.

    Every chain is deployed first and the lengths are timed *interleaved*,
    repetition by repetition, each keeping its minimum (as
    :func:`~repro.bench.fig7_3.run_fig7_3` does for its two modes): a
    stretch in which the host runs slow then lands on every length alike
    instead of bending the line at whichever was being timed.
    """
    message_bytes = synthetic_text_message(message_kb * 1024, seed=1).body
    chains = [deploy_chain(n) for n in chain_lengths]

    def one_pass(stream, scheduler) -> float:
        start = time.perf_counter()
        stream.post(MimeMessage("text/plain", message_bytes))
        scheduler.pump()
        stream.collect()
        return time.perf_counter() - start

    best = [float("inf")] * len(chains)
    for repeat in range(-3, repeats):  # three unmeasured warm-up rounds
        for index, (_server, stream, scheduler) in enumerate(chains):
            elapsed = one_pass(stream, scheduler)
            if repeat >= 0:
                best[index] = min(best[index], elapsed)  # fixed work: noise only adds
    for _server, stream, _scheduler in chains:
        stream.end()
    rows = list(zip(chain_lengths, best))

    xs = np.array([n for n, _ in rows], dtype=float)
    ys = np.array([latency for _, latency in rows], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return Fig72Result(
        rows=rows,
        per_streamlet_seconds=float(slope),
        intercept_seconds=float(intercept),
        r_squared=r_squared,
    )
