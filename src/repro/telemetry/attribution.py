"""Per-hop latency attribution: where a message's wall time actually goes.

The thesis evaluation (§7) is entirely about decomposed cost — per-
streamlet overhead, channel cost, reconfiguration latency — and the
ROADMAP's fusion decisions need the same decomposition live.
This module defines the attribution model and folds the hop-level metric
families into per-(stream, streamlet) summaries:

========================================  =====================================
``mobigate_hop_queue_wait_seconds``       queue-post → claim (fetch) per input
                                          channel of an instance — scheduling
                                          plus backpressure delay
``mobigate_hop_seconds``                  claim → step end: pool checkout +
                                          ``process()`` + trace bookkeeping
                                          (the **service** component)
``mobigate_hop_egress_seconds``           egress-channel post → ``collect()``
                                          drain — the pump pickup delay
``mobigate_hop_delivery_seconds``         ``collect()`` pickup → delivery
                                          callback — serialization and the
                                          pump's per-batch handoff
``mobigate_gateway_e2e_seconds``          gateway admission → egress delivery
                                          (the decomposition's ground truth)
========================================  =====================================

``mobigate_gateway_frame_assembly_seconds`` (first byte of a frame read →
frame complete) is the socket side: it ends where the end-to-end clock
starts, so :func:`summarize` lists it and :func:`decompose` leaves it out.

Timestamps come from ``time.perf_counter`` at five points: queue-post,
claim, step-start, step-end, egress-handoff.  Queue wait is measured for
*every* message (a deque of post times rides next to the entries — see
:class:`~repro.runtime.message_queue.MessageQueue`), so the histograms
are complete, not sampled; only spans stay sampled.

:func:`summarize` renders the per-instance table the control plane's
``attribution`` verb serves; :func:`decompose` reduces a stream to its
component sums and checks them against the measured end-to-end
histogram — the bench's acceptance gate (components within 5% of e2e).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    pass

#: the attribution metric families, in pipeline order
HOP_QUEUE_WAIT = "mobigate_hop_queue_wait_seconds"
HOP_SERVICE = "mobigate_hop_seconds"
HOP_EGRESS = "mobigate_hop_egress_seconds"
HOP_DELIVERY = "mobigate_hop_delivery_seconds"
GATEWAY_E2E = "mobigate_gateway_e2e_seconds"
#: the socket side, before admission: listed beside the table, outside
#: the decomposition (the e2e clock starts at admission)
GATEWAY_FRAME_ASSEMBLY = "mobigate_gateway_frame_assembly_seconds"

_COMPONENTS = (
    ("queue_wait", HOP_QUEUE_WAIT),
    ("service", HOP_SERVICE),
    ("egress", HOP_EGRESS),
    ("delivery", HOP_DELIVERY),
)


def _histogram_rows(registry: MetricsRegistry, family_name: str) -> list[dict]:
    """Per-child summaries (labels + count/sum/mean/max) of one family."""
    family = registry.get(family_name)
    if family is None:
        return []
    rows: list[dict] = []
    for values, child in family.children():
        if not isinstance(child, Histogram) or not child.count:
            continue
        rows.append({
            **dict(zip(family.label_names, values)),
            "count": child.count,
            "sum_seconds": child.sum,
            "mean_seconds": child.stats.mean,
            "max_seconds": child.stats.maximum,
        })
    return rows


def summarize(registry: MetricsRegistry, *, stream: str | None = None) -> dict:
    """The hop-attribution table: one entry per component family.

    Filters to one stream when given.  This is what the gateway control
    plane's ``attribution`` verb returns — per-(stream, instance) queue
    wait and service rows, per-stream egress rows, plus the gateway
    end-to-end and frame-assembly histograms when the data plane
    recorded them.
    """
    out: dict = {}
    for component, family_name in _COMPONENTS + (
        ("e2e", GATEWAY_E2E), ("frame_assembly", GATEWAY_FRAME_ASSEMBLY),
    ):
        rows = _histogram_rows(registry, family_name)
        if stream is not None:
            rows = [r for r in rows if r.get("stream", stream) == stream]
        out[component] = {"family": family_name, "rows": rows}
    return out


def decompose(registry: MetricsRegistry, *, stream: str | None = None) -> dict:
    """Reduce the attribution families to per-message component means.

    Normalises each component's *sum* by the number of end-to-end
    round-trips (so a chain's N service hops per message add up instead
    of averaging away), and reports ``coverage`` — the component sum as a
    fraction of the measured end-to-end mean.  Coverage near 1.0 means
    the components explain the pipeline; a big residual means time is
    going somewhere unattributed.
    """
    sums = {}
    counts = {}
    for component, family_name in _COMPONENTS:
        rows = _histogram_rows(registry, family_name)
        if stream is not None:
            rows = [r for r in rows if r.get("stream", stream) == stream]
        sums[component] = sum(r["sum_seconds"] for r in rows)
        counts[component] = sum(r["count"] for r in rows)
    e2e_rows = _histogram_rows(registry, GATEWAY_E2E)
    e2e_count = sum(r["count"] for r in e2e_rows)
    e2e_sum = sum(r["sum_seconds"] for r in e2e_rows)
    # per-message means: divide every component's total by round-trips
    denominator = e2e_count if e2e_count else max(counts.values(), default=0)
    result: dict = {
        "stream": stream,
        "messages": denominator,
        "components_seconds": {
            component: (sums[component] / denominator if denominator else 0.0)
            for component, _name in _COMPONENTS
        },
        "samples": counts,
    }
    component_total = sum(result["components_seconds"].values())
    result["component_sum_seconds"] = component_total
    if e2e_count:
        e2e_mean = e2e_sum / e2e_count
        result["e2e_mean_seconds"] = e2e_mean
        result["coverage"] = component_total / e2e_mean if e2e_mean > 0 else 0.0
    else:
        result["e2e_mean_seconds"] = None
        result["coverage"] = None
    return result
