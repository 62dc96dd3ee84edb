"""Fusion legality: which edges fusable_chains lets a snapshot collapse, and which not."""

from repro.mcl import astnodes as ast
from repro.mcl.compiler import compile_script
from repro.semantics import fusion

DEFS = """
streamlet stage{
  port{ in pi : */*; out po : */*; }
}
streamlet source{
  port{ out po : */*; }
}
streamlet sink{
  port{ in pi : */*; }
}
streamlet splitter{
  port{ in pi : */*; out po1 : */*; out po2 : */*; }
}
streamlet merger{
  port{ in pi1 : */*; in pi2 : */*; out po : */*; }
}
streamlet oddstage{
  port{ in pi : */*; out po : */*; }
  attribute{ excludes = "evenstage"; }
}
streamlet evenstage{
  port{ in pi : */*; out po : */*; }
}
channel syncChan{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = SYNC; buffer = 0; }
}
channel sChan{
  port{ in cin : */*; out cout : */*; }
  attribute{ category = S; }
}
channel asyncChan{
  port{ in cin : */*; out cout : */*; }
  attribute{ type = ASYNC; buffer = 64; }
}
"""


def table_of(body: str):
    return compile_script(DEFS + f"stream s{{ {body} }}").tables["s"]


def sync_chain(n: int, definition: str = "stage", channel: str = "syncChan") -> str:
    names = [f"n{i}" for i in range(n)]
    chans = [f"c{i}" for i in range(n - 1)]
    body = (
        f"streamlet {', '.join(names)} = new-streamlet ({definition});"
        f"channel {', '.join(chans)} = new-channel ({channel});"
    )
    for i, (a, b) in enumerate(zip(names, names[1:])):
        body += f"connect ({a}.po, {b}.pi, c{i});"
    return body


class TestIsSynchronous:
    def test_sync_and_s_category_qualify(self):
        table = table_of(
            sync_chain(2)
            + "streamlet m0, m1 = new-streamlet (stage);"
            "channel d0 = new-channel (sChan);"
            "connect (m0.po, m1.pi, d0);"
        )
        assert fusion.is_synchronous(table.channels["c0"].definition)
        assert fusion.is_synchronous(table.channels["d0"].definition)

    def test_async_does_not_qualify(self):
        table = table_of(
            "streamlet a, b = new-streamlet (stage);"
            "channel k = new-channel (asyncChan);"
            "connect (a.po, b.pi, k);"
        )
        assert not fusion.is_synchronous(table.channels["k"].definition)


class TestFusableChains:
    def test_sync_chain_fuses_end_to_end(self):
        table = table_of(sync_chain(4))
        assert fusion.fusable_chains(table) == [("n0", "n1", "n2", "n3")]

    def test_async_edges_break_the_chain(self):
        # n0 -sync- n1 -async- n2 -sync- n3: only the sync pairs fuse
        body = (
            "streamlet n0, n1, n2, n3 = new-streamlet (stage);"
            "channel c0, c2 = new-channel (syncChan);"
            "channel c1 = new-channel (asyncChan);"
            "connect (n0.po, n1.pi, c0);"
            "connect (n1.po, n2.pi, c1);"
            "connect (n2.po, n3.pi, c2);"
        )
        assert fusion.fusable_chains(table_of(body)) == [("n0", "n1"), ("n2", "n3")]

    def test_default_auto_channels_do_not_fuse(self):
        table = table_of(
            "streamlet a, b = new-streamlet (stage);"
            "connect (a.po, b.pi);"
        )
        assert fusion.fusable_chains(table) == []

    def test_fan_out_endpoint_is_not_fusable(self):
        body = (
            "streamlet sp = new-streamlet (splitter);"
            "streamlet a, b = new-streamlet (stage);"
            "channel c0, c1 = new-channel (syncChan);"
            "connect (sp.po1, a.pi, c0);"
            "connect (sp.po2, b.pi, c1);"
        )
        assert fusion.fusable_chains(table_of(body)) == []

    def test_fan_in_endpoint_is_not_fusable(self):
        body = (
            "streamlet a, b = new-streamlet (stage);"
            "streamlet m = new-streamlet (merger);"
            "channel c0, c1 = new-channel (syncChan);"
            "connect (a.po, m.pi1, c0);"
            "connect (b.po, m.pi2, c1);"
        )
        assert fusion.fusable_chains(table_of(body)) == []

    def test_feedback_loop_yields_no_chain(self):
        body = (
            "streamlet n0, n1, n2 = new-streamlet (stage);"
            "channel c0, c1, c2 = new-channel (syncChan);"
            "connect (n0.po, n1.pi, c0);"
            "connect (n1.po, n2.pi, c1);"
            "connect (n2.po, n0.pi, c2);"
        )
        assert fusion.fusable_chains(table_of(body)) == []

    def test_extracted_member_bars_its_edges(self):
        # bare `remove` is the extract primitive: detach but keep dormant
        body = sync_chain(3) + "when (LOW_BANDWIDTH) { remove (n1); }"
        assert fusion.fusable_chains(table_of(body)) == []

    def test_nested_when_extract_is_still_seen(self):
        # the parser forbids nested `when`, but handlers are plain AST and
        # other producers may nest them: the walk must still find the extract
        table = table_of(sync_chain(3))
        table.handlers["LOW_BANDWIDTH"] = (
            ast.When(
                event="LOW_MEMORY",
                actions=(ast.RemoveInstance("extract", "n1"),),
            ),
        )
        assert fusion.optional_instances(table.handlers) == frozenset({"n1"})
        assert fusion.fusable_chains(table) == []

    def test_mutual_exclusion_splits_the_chain(self):
        # hand-wire excludes onto a legal chain: the analyses would reject a
        # deployed stream carrying both, but legality must still refuse to
        # put the pair inside one fused dispatch
        table = table_of(sync_chain(4))
        odd = table.instances["n1"]
        table.instances["n1"] = ast.StreamletDef(
            name=odd.name, ports=odd.ports, kind=odd.kind, excludes=("stage",)
        )
        chains = fusion.fusable_chains(table)
        assert ("n0", "n1", "n2", "n3") not in chains
        assert all(len(c) >= 2 for c in chains)


class TestChainEdges:
    def test_disjoint_paths_in_order(self):
        successors = {"a": "b", "b": "c", "x": "y"}
        assert fusion.chain_edges(successors, ["a", "b", "c", "x", "y"]) == [
            ("a", "b", "c"), ("x", "y"),
        ]

    def test_cycle_is_refused(self):
        successors = {"a": "b", "b": "a"}
        assert fusion.chain_edges(successors, ["a", "b"]) == []

    def test_single_nodes_make_no_chain(self):
        assert fusion.chain_edges({}, ["a", "b"]) == []


class TestExclusionConflict:
    def test_bidirectional(self):
        defs = {
            "x": ast.StreamletDef(name="oddstage", ports=(), excludes=("evenstage",)),
            "y": ast.StreamletDef(name="evenstage", ports=()),
        }
        assert fusion.exclusion_conflict(defs, ["x"], "y")
        assert fusion.exclusion_conflict(defs, ["y"], "x")

    def test_no_conflict(self):
        defs = {
            "x": ast.StreamletDef(name="stage", ports=()),
            "y": ast.StreamletDef(name="stage", ports=()),
        }
        assert not fusion.exclusion_conflict(defs, ["x"], "y")
