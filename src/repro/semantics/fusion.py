"""Fusion legality — which streamlet chains may collapse into one node.

The chapter-5 analyses prove global properties of a composition; this
module answers the *optimizer's* question: along which edges is it safe
to skip the channel entirely and run producer and consumer in the same
dispatch?  An edge ``a → b`` is **fusable** when every condition below
holds:

* the channel is *synchronously coupled*: declared ``SYNC`` or category
  ``S`` — a zero-length rendezvous that can never legally buffer a
  message between steps, so eliding it is unobservable;
* ``a`` has exactly one wired output and ``b`` exactly one wired input
  (counting exposed ports), so the edge is the only path through either
  endpoint — no switch/merge member ever sits inside a fused region;
* neither endpoint is *optional*: an instance named by an ``extract``
  handler action is designed to be pulled out of the flow at runtime,
  and fusing it would turn every such event into a split/re-fuse cycle;
* no two members of the resulting chain declare mutual exclusion
  (§5.2.3) against each other;
* following fusable edges never returns to the start — a feedback loop
  (§5.2.1) through a fused region would deadlock the single dispatch.

Maximal runs of fusable edges form the **chains** the optimizer fuses.
Both the post-compile planner (:mod:`repro.mcl.optimize`) and the live
runtime (:meth:`repro.runtime.stream.RuntimeStream.fusion_groups`) call
:func:`fusable_chains`, so compile-time plans and runtime behaviour can
never disagree about legality.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.mcl import astnodes as ast
from repro.mcl.config import ConfigurationTable

__all__ = [
    "is_synchronous",
    "optional_instances",
    "exclusion_conflict",
    "chain_edges",
    "fusable_chains",
]


def is_synchronous(definition: ast.ChannelDef) -> bool:
    """True when a channel definition is a zero-length rendezvous.

    Mirrors :class:`repro.runtime.channel.Channel`: ``SYNC`` channels and
    S-category channels both get a capacity-0 queue, so both qualify.
    """
    return (
        definition.sync is ast.ChannelSync.SYNC
        or definition.category is ast.ChannelCategory.S
    )


def optional_instances(handlers: Mapping[str, tuple]) -> frozenset[str]:
    """Instances any ``when`` handler extracts — never fused (optional members)."""
    names: set[str] = set()

    def walk(actions: Iterable[ast.Statement]) -> None:
        for action in actions:
            if isinstance(action, ast.RemoveInstance) and action.kind == "extract":
                names.add(action.name)
            elif isinstance(action, ast.When):  # nested handler blocks
                walk(action.actions)

    for actions in handlers.values():
        walk(actions)
    return frozenset(names)


def exclusion_conflict(
    definitions: Mapping[str, ast.StreamletDef],
    members: Iterable[str],
    candidate: str,
) -> bool:
    """True when ``candidate`` is mutually exclusive with any chain member.

    Checks the §5.2.3 ``excludes`` attribute in both directions: the
    candidate naming a member's definition, or a member naming the
    candidate's.
    """
    cand_def = definitions.get(candidate)
    cand_name = cand_def.name if cand_def is not None else None
    cand_excludes = set(cand_def.excludes) if cand_def is not None else set()
    for member in members:
        member_def = definitions.get(member)
        if member_def is None:
            continue
        if member_def.name in cand_excludes:
            return True
        if cand_name is not None and cand_name in member_def.excludes:
            return True
    return False


def chain_edges(
    successors: Mapping[str, str],
    order: Iterable[str],
) -> list[tuple[str, ...]]:
    """Maximal chains (length >= 2) over a partial successor map.

    ``successors[a] = b`` states that edge ``a → b`` is fusable; legality
    guarantees each node has at most one fusable out-edge and one fusable
    in-edge, so the edges form disjoint paths.  ``order`` fixes the walk
    order (and therefore chain identity) deterministically.  A cycle of
    fusable edges — a feedback loop — yields no chain at all.
    """
    has_predecessor = set(successors.values())
    chains: list[tuple[str, ...]] = []
    for name in order:
        if name in has_predecessor or name not in successors:
            continue  # not a chain head
        members = [name]
        seen = {name}
        cursor = name
        while cursor in successors:
            nxt = successors[cursor]
            if nxt in seen:  # feedback loop through the region: refuse
                members = []
                break
            members.append(nxt)
            seen.add(nxt)
            cursor = nxt
        if len(members) >= 2:
            chains.append(tuple(members))
    return chains


def fusable_chains(table: ConfigurationTable) -> list[tuple[str, ...]]:
    """Maximal fusable chains of a compiled configuration table.

    Used by :func:`repro.mcl.optimize.optimize` to plan fusion right
    after compilation and by the runtime at every snapshot rebuild, on
    the table its topology value renders to (and by tests as the
    legality ground truth).
    """
    barred = optional_instances(table.handlers)
    out_degree: dict[str, int] = dict.fromkeys(table.instances, 0)
    in_degree: dict[str, int] = dict.fromkeys(table.instances, 0)
    for link in table.links:
        out_degree[link.source.instance] = out_degree.get(link.source.instance, 0) + 1
        in_degree[link.sink.instance] = in_degree.get(link.sink.instance, 0) + 1
    for ref in table.exposed_in:
        in_degree[ref.instance] = in_degree.get(ref.instance, 0) + 1
    for ref in table.exposed_out:
        out_degree[ref.instance] = out_degree.get(ref.instance, 0) + 1

    successors: dict[str, str] = {}
    for link in table.links:
        source, sink = link.source.instance, link.sink.instance
        if source in barred or sink in barred:
            continue
        entry = table.channels.get(link.channel)
        if entry is None or not is_synchronous(entry.definition):
            continue
        if out_degree.get(source) != 1 or in_degree.get(sink) != 1:
            continue
        successors[source] = sink

    chains: list[tuple[str, ...]] = []
    for chain in chain_edges(successors, table.instances):
        accepted: list[str] = []
        for member in chain:
            if accepted and exclusion_conflict(table.instances, accepted, member):
                if len(accepted) >= 2:
                    chains.append(tuple(accepted))
                accepted = []
            accepted.append(member)
        if len(accepted) >= 2:
            chains.append(tuple(accepted))
    return chains
