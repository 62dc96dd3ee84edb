"""Smoke tests: every experiment runner produces well-formed results fast.

These run with tiny sweeps so the harness logic (not its numbers) is part
of the ordinary test suite; full sweeps live in ``benchmarks/``.
"""

import pytest

from repro.bench.ablations import (
    run_channel_ablation,
    run_compile_ablation,
    run_pooling_ablation,
)
from repro.bench.fig7_2 import run_fig7_2
from repro.bench.fig7_3 import run_fig7_3
from repro.bench.fig7_6 import reconfig_exp_mcl, run_fig7_6
from repro.bench.fig7_7 import run_cell
from repro.bench.harness import deploy_chain, redirector_chain_mcl, time_repeated
from repro.bench.reporting import format_table


class TestHarnessUtilities:
    def test_chain_mcl_generates_valid_script(self):
        from repro.apps import build_server

        server = build_server()
        table = server.compile(redirector_chain_mcl(5)).main_table()
        assert len(table.instances) == 5
        assert len(table.links) == 4

    def test_chain_requires_one(self):
        with pytest.raises(ValueError):
            redirector_chain_mcl(0)

    def test_deploy_chain(self):
        _server, stream, scheduler = deploy_chain(3)
        from repro.mime.message import MimeMessage

        stream.post(MimeMessage("text/plain", b"x"))
        scheduler.pump()
        assert len(stream.collect()) == 1

    def test_time_repeated(self):
        calls = []
        stats = time_repeated(lambda: calls.append(1), repeats=5, warmup=2)
        assert stats.count == 5
        assert len(calls) == 7

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bb" in lines[0]


class TestFigureRunners:
    def test_fig7_2_shape(self):
        # a wide spread of lengths and interleaved minima: fifteen hops are
        # a few hundred microseconds, well clear of what the host adds
        result = run_fig7_2((1, 16, 32), message_kb=2, repeats=15)
        latencies = [latency for _n, latency in result.rows]
        assert [n for n, _latency in result.rows] == [1, 16, 32]
        assert latencies[0] < latencies[1] < latencies[2]
        assert result.per_streamlet_seconds > 0
        assert result.r_squared > 0.9

    def test_fig7_3_shape(self):
        result = run_fig7_3((10, 100), chain=8, repeats=2)
        assert len(result.rows) == 2
        assert all(ref > 0 and val > 0 for _, ref, val in result.rows)

    def test_fig7_6_shape(self):
        result = run_fig7_6((1, 5), repeats=2)
        assert [n for n, *_ in result.rows] == [1, 5]
        assert all(wall > 0 for _n, wall, *_ in result.rows)

    def test_fig7_6_bad_count(self):
        with pytest.raises(ValueError):
            reconfig_exp_mcl(0)

    def test_fig7_7_cell(self):
        cell = run_cell(100_000.0, 0.001, n_messages=3, seed=1)
        assert cell.mobigate.messages_sent == 3
        assert cell.direct.messages_sent == 3
        assert cell.speedup > 0

    def test_fig7_7_low_bandwidth_inserts_compressor(self):
        cell = run_cell(20_000.0, 0.001, n_messages=3, seed=1, image_fraction=0.0)
        assert cell.compressor_inserted


class TestAblationRunners:
    def test_pooling(self):
        result = run_pooling_ablation((2,), chain=3)
        [(n, _p, _u, pooled_ctors, unpooled_ctors)] = result.rows
        assert n == 2
        assert pooled_ctors < unpooled_ctors

    def test_channels(self):
        result = run_channel_ablation(pairs=200)
        assert {cat for cat, _ in result.rows} == {"S", "BB", "BK", "KB", "KK"}

    def test_compile(self):
        result = run_compile_ablation((3, 6), repeats=2)
        assert [n for n, *_ in result.rows] == [3, 6]
