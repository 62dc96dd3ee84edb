"""Compare two sets of benchmark reports, metric by metric.

    python3 bench_e2e/compare.py A.json B.json
    python3 bench_e2e/compare.py a1.json,a2.json,a3.json b1.json,b2.json,b3.json

``A`` is the base, ``B`` the candidate; each side is one report written by
``run.py`` or several separated by commas, in which case a side's value is
the median over its runs that were not stamped ``noisy``.  For every
workload and end-to-end metric the table shows both values, the ratio
B/A, the bound ``BENCHMARK.json`` fixes, and a verdict: ``worse`` when B is
worse than A by more than the bound, ``ok`` otherwise, and ``unresolved``
when a side has no clean run; the values shown are then the medians over
its noisy runs, with the verdict they would have got.  Exits 1 on any
``worse``.  Comparing two sets of runs of the same commit is the
benchmark's A/A check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def side_values(paths: list[str]) -> dict[tuple[str, str], tuple[float, bool]]:
    """``(workload, metric) -> (median, clean)``: over a side's clean runs,
    or over all of them (``clean`` false) when every run was noisy."""
    values: dict[tuple[str, str], dict[bool, list[float]]] = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        for workload, result in report["workloads"].items():
            for metric, row in result.get("end_to_end", {}).items():
                by_noisy = values.setdefault((workload, metric), {False: [], True: []})
                by_noisy[result["noisy"]].append(row["value"])
    return {
        key: (statistics.median(by_noisy[False] or by_noisy[True]), bool(by_noisy[False]))
        for key, by_noisy in values.items()
    }


def verdict(base: float, candidate: float, better: str, bound: float) -> str:
    change = candidate / base - 1.0
    worsening = change if better == "lower" else -change
    return "worse" if worsening > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(CONTRACT) as handle:
        contract = {row["name"]: row for row in json.load(handle)["end_to_end"]}
    base, candidate = (side_values(arg.split(",")) for arg in argv)
    print(f"{'workload':14} {'metric':18} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6}  verdict")
    worse = 0
    for key in base:
        if key not in candidate or key[1] not in contract:
            continue
        workload, metric = key
        rule = contract[metric]
        (a, a_clean), (b, b_clean) = base[key], candidate[key]
        outcome = verdict(a, b, rule["better"], rule["bound"])
        if a_clean and b_clean:
            worse += outcome == "worse"
        else:
            outcome = f"unresolved, noisy runs only: would be {outcome}"
        print(f"{workload:14} {metric:18} {a:>12.4f} {b:>12.4f} {b / a:>7.3f} "
              f"{rule['bound']:>6.2f}  {outcome} ({rule['better']} is better, base A)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
