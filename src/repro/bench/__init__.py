"""Benchmark harness: regenerate every evaluation figure (chapter 7).

One module per paper artifact plus the ablations DESIGN.md calls out:

==================  =================================================
module              artifact
==================  =================================================
``fig7_2``          streamlet overhead vs chain length (Figure 7-2)
``fig7_3``          pass-by-reference vs pass-by-value (Figure 7-3)
``fig7_6``          reconfiguration time vs inserted streamlets (7-6)
``fig7_7``          end-to-end throughput vs bandwidth (Figure 7-7)
``ablations``       pooling, channel categories, compile
==================  =================================================

Each experiment returns structured rows and can print the series the
paper plots.  ``python -m repro.bench`` runs everything;
``benchmarks/`` wraps the hot operations in pytest-benchmark.
"""

from repro.bench.fig7_2 import run_fig7_2
from repro.bench.fig7_3 import run_fig7_3
from repro.bench.fig7_6 import run_fig7_6
from repro.bench.fig7_7 import run_fig7_7
from repro.bench.reporting import format_table, print_series

__all__ = [
    "run_fig7_2",
    "run_fig7_3",
    "run_fig7_6",
    "run_fig7_7",
    "format_table",
    "print_series",
]
