"""Every metric the benchmark emits, by name, with its unit.

``BENCHMARK.json`` carries the same names with direction and bound;
``selftest.py`` fails when the two lists differ.
"""

from __future__ import annotations

#: what a user of the gateway sees; bounded in ``BENCHMARK.json``
END_TO_END = {
    "throughput_msgs_s": "1/s",
    "cpu_us_per_msg": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: single layers and the health of the instrument; no bound
PER_LAYER = {
    # the layer walk (self CPU time of one public call, per message)
    "mime.wire.feed_us": "us",
    "mime.wire.serialize_us": "us",
    "gateway.session.offer_us": "us",
    "runtime.stream.post_us": "us",
    "runtime.scheduler.pump_us": "us",
    "runtime.scheduler.step_us_per_hop": "us",
    "runtime.stream.collect_us": "us",
    "runtime.stream.fusion_groups": "count",
    "telemetry.hop_overhead_us": "us",
    "store.ledger.append_us": "us",
    "store.ledger.flush_us": "us",
    "runtime.reconfig.commit_ms": "ms",
    "mcl.compile_ms": "ms",
    "runtime.server.deploy_ms": "ms",
    "process.import_ms": "ms",
    # the gateway process, seen from outside
    "gateway.closedloop_cpu_us_per_msg": "us",
    "gateway.openloop_cpu_us_per_msg": "us",
    "gateway.handoff_us": "us",
    "gateway.vctx_per_msg": "count",
    "gateway.threads": "count",
    "gateway.fds": "count",
    "store.ledger.bytes_per_msg": "B",
    "store.ledger.appends_per_msg": "count",
    # control-plane verbs
    "gateway.session.parked": "count",
    "gateway.session.shed": "count",
    "gateway.session.contended": "count",
    "gateway.session.orphans": "count",
    "runtime.stream.queue_drops": "count",
    "runtime.stream.processed": "count",
    "telemetry.attr_queue_wait_us": "us",
    "telemetry.attr_service_us": "us",
    "telemetry.attr_egress_us": "us",
    "telemetry.attr_delivery_us": "us",
    "telemetry.attr_coverage": "share",
    # end-to-end figures that cannot carry a bound (see README)
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "failed_share": "share",
    "reconfig_rtt_ms": "ms",
    "runtime.reconfig.refused_share": "share",
    # the health of the instrument
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_share": "share",
    "loadgen.steal_share": "share",
    "trace.overhead_share": "share",
}
