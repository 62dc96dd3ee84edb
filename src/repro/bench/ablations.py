"""Ablation experiments for the design choices DESIGN.md calls out.

* **pooling** (§3.3.4) — instance-construction cost with and without the
  stateless streamlet pool under a rising stream population;
* **channel categories** (§4.2.2) — post/fetch cost per category;
* **MCL compile** (§3.3.6) — compile + semantic-analysis cost vs
  composition size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.apps import build_server
from repro.bench.harness import redirector_chain_mcl, time_repeated
from repro.bench.reporting import print_series
from repro.mcl import astnodes as ast
from repro.mime.mediatype import ANY
from repro.runtime.channel import Channel
from repro.runtime.scheduler import InlineScheduler
from repro.semantics import analyze
from repro.workloads.content import synthetic_text_message


# -- pooling ---------------------------------------------------------------------


@dataclass
class PoolingResult:
    rows: list[tuple[int, float, float, int, int]]
    # (streams deployed, pooled seconds, unpooled seconds,
    #  pooled constructions, unpooled constructions)

    def print(self) -> None:
        """Print the series this ablation produces."""
        print_series(
            "Ablation: streamlet pooling (deploy/teardown cycles)",
            ["streams", "pooled (ms)", "unpooled (ms)", "pooled ctors", "unpooled ctors"],
            [(n, p * 1e3, u * 1e3, pc, uc) for n, p, u, pc, uc in self.rows],
        )


def run_pooling_ablation(
    populations: tuple[int, ...] = (5, 10, 20, 40), *, chain: int = 6
) -> PoolingResult:
    """Deploy/teardown cycles with pooling on vs off; count constructions."""
    rows = []
    for n_streams in populations:
        timings = {}
        ctors = {}
        for pooling in (True, False):
            server = build_server(pooling=pooling)
            source = redirector_chain_mcl(chain)

            start = time.perf_counter()
            for index in range(n_streams):
                table = server.compile(source).main_table()
                table.stream_name = f"chain{index}"
                stream = server.deploy_table(table)
                stream.post(synthetic_text_message(1024, seed=index))
                InlineScheduler(stream).pump()
                stream.collect()
                server.undeploy(stream.name)
            timings[pooling] = time.perf_counter() - start
            ctors[pooling] = server.manager.created
        rows.append((n_streams, timings[True], timings[False], ctors[True], ctors[False]))
    return PoolingResult(rows=rows)


# -- channel categories ---------------------------------------------------------------


@dataclass
class ChannelResult:
    rows: list[tuple[str, float]]  # (category, seconds per 10k post/fetch pairs)

    def print(self) -> None:
        """Print the series this ablation produces."""
        print_series(
            "Ablation: channel category transfer cost (10k post/fetch pairs)",
            ["category", "time (ms)"],
            [(cat, sec * 1e3) for cat, sec in self.rows],
        )


def run_channel_ablation(pairs: int = 10_000) -> ChannelResult:
    """Measure steady-state post/fetch cost per channel category."""
    rows = []
    for category in ast.ChannelCategory:
        definition = ast.ChannelDef(
            name=f"c_{category.value}",
            in_port=ast.PortDecl(ast.PortDirection.IN, "cin", ANY),
            out_port=ast.PortDecl(ast.PortDirection.OUT, "cout", ANY),
            sync=ast.ChannelSync.ASYNC
            if category is not ast.ChannelCategory.S
            else ast.ChannelSync.SYNC,
            category=category,
            buffer_kb=0 if category is ast.ChannelCategory.S else 100,
        )
        channel = Channel("bench", definition)
        channel.attach_source(ast.PortRef("a", "po"))
        channel.attach_sink(ast.PortRef("b", "pi"))

        def pump():
            for i in range(pairs):
                channel.post(f"m{i}", 10)
                channel.fetch()

        stats = time_repeated(pump, repeats=3)
        rows.append((category.value, stats.minimum))
    return ChannelResult(rows=rows)


# -- MCL compilation ---------------------------------------------------------------------------


@dataclass
class CompileResult:
    rows: list[tuple[int, float, float]]  # (chain length, compile s, analysis s)

    def print(self) -> None:
        """Print the series this ablation produces."""
        print_series(
            "Ablation: MCL compile + semantic analysis cost",
            ["streamlets", "compile (ms)", "analysis (ms)"],
            [(n, c * 1e3, a * 1e3) for n, c, a in self.rows],
        )


def run_compile_ablation(
    chain_lengths: tuple[int, ...] = (5, 20, 50, 100, 200), *, repeats: int = 5
) -> CompileResult:
    """Measure MCL compile and analysis cost over growing chains."""
    server = build_server()
    rows = []
    for n in chain_lengths:
        source = redirector_chain_mcl(n)
        compile_stats = time_repeated(
            lambda: server.compile(source), repeats=repeats
        )
        table = server.compile(source).main_table()
        analysis_stats = time_repeated(lambda: analyze(table), repeats=repeats)
        rows.append((n, compile_stats.minimum, analysis_stats.minimum))
    return CompileResult(rows=rows)
