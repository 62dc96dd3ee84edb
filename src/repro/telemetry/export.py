"""Exporters: registry → JSON snapshot, Prometheus text format, dumps.

Three renderings of one :class:`~repro.telemetry.metrics.MetricsRegistry`:

* :func:`snapshot` — a plain-dict tree (JSON-ready) for machine-readable
  artifacts; ``repro.bench`` writes these next to its timing results so
  the perf trajectory is diffable across PRs;
* :func:`to_prometheus` — the Prometheus exposition text format
  (``# HELP`` / ``# TYPE`` / samples; histograms as cumulative
  ``_bucket{le=...}`` plus ``_sum`` / ``_count``), so a real scrape
  pipeline can ingest a MobiGATE server unchanged;
* :func:`dump` — a fixed-width human rendering for the
  ``python -m repro.telemetry`` CLI and the examples.

Counter and gauge reads are lock-free; a histogram read folds that
child's buffered samples under its family lock, which the streamlet
plane takes only once per :data:`~repro.telemetry.metrics.FOLD_BATCH`
samples, so exporting never stalls it for longer than one fold.
"""

from __future__ import annotations

import json
import math

from repro.telemetry.metrics import Histogram, MetricFamily, MetricsRegistry


def _finite(value: float) -> float | None:
    """A float safe for strict JSON (non-finite becomes None)."""
    return value if isinstance(value, int | float) and math.isfinite(value) else None


def _label_map(family: MetricFamily, values: tuple[str, ...]) -> dict[str, str]:
    return dict(zip(family.label_names, values))


def snapshot(registry: MetricsRegistry) -> dict:
    """A JSON-ready tree of every family and child in ``registry``."""
    families = []
    for family in registry.families():
        samples = []
        for values, child in family.children():
            sample: dict[str, object] = {"labels": _label_map(family, values)}
            if isinstance(child, Histogram):
                sample.update(
                    count=child.count,
                    sum=_finite(child.sum),
                    min=_finite(child.stats.minimum),
                    max=_finite(child.stats.maximum),
                    mean=_finite(child.stats.mean),
                    stdev=_finite(child.stats.stdev),
                    buckets=[
                        {"le": _finite(bound), "count": cumulative}
                        for bound, cumulative in child.cumulative()
                    ],
                )
            else:
                sample["value"] = _finite(child.value)
            samples.append(sample)
        families.append(
            {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": samples,
            }
        )
    return {"families": families}


def to_json(registry: MetricsRegistry, *, indent: int | None = 2) -> str:
    """The :func:`snapshot` serialised as strict JSON text."""
    return json.dumps(snapshot(registry), indent=indent, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(family: MetricFamily, values: tuple[str, ...], extra: str = "") -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(family.label_names, values)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    text = format(bound, ".12g")
    return text


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, ".12g")


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render ``registry`` in the Prometheus exposition text format."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in family.children():
            if isinstance(child, Histogram):
                for bound, cumulative in child.cumulative():
                    le = f'le="{_format_bound(bound)}"'
                    lines.append(
                        f"{family.name}_bucket{_labels_text(family, values, le)} {cumulative}"
                    )
                lines.append(
                    f"{family.name}_sum{_labels_text(family, values)} "
                    f"{_format_value(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_labels_text(family, values)} {child.count}"
                )
            else:
                lines.append(
                    f"{family.name}{_labels_text(family, values)} "
                    f"{_format_value(child.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# human-readable dump (CLI / examples)
# ---------------------------------------------------------------------------


def dump(registry: MetricsRegistry) -> str:
    """A fixed-width human rendering of every family in ``registry``."""
    lines: list[str] = []
    for family in registry.families():
        children = family.children()
        if not children:
            continue
        lines.append(f"{family.name} ({family.kind})" + (f" — {family.help}" if family.help else ""))
        for values, child in children:
            label = ",".join(
                f"{n}={v}" for n, v in zip(family.label_names, values)
            ) or "-"
            if isinstance(child, Histogram):
                if child.count:
                    body = (
                        f"count={child.count}  mean={child.stats.mean * 1e6:.1f}us  "
                        f"min={child.stats.minimum * 1e6:.1f}us  "
                        f"max={child.stats.maximum * 1e6:.1f}us"
                    )
                else:
                    body = "count=0"
            else:
                body = f"value={_format_value(child.value)}"
            lines.append(f"  {label:<40s} {body}")
    return "\n".join(lines)
