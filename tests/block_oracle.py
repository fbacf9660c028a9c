"""Test-side block decomposition of a `Multigraph`, by networkx.

networkx takes simple graphs only, so every parallel copy of an edge after
the first gets its own midpoint vertex. Subdividing an edge puts both halves
in one block and keeps each block's edges minus vertices, so it changes no
block, no cut vertex of the original graph, and no forest or cactus verdict.
Each networkx edge remembers the index of the edge it came from.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from gridctl.graph_algorithms import Multigraph, TargetClass


def without_vertices(g: Multigraph, removed: Iterable[int]) -> Multigraph:
    gone = set(removed)
    return Multigraph((v for v in g.vertices if v not in gone),
                      ((u, v) for u, v in g.edges if u not in gone and v not in gone))


def degree(g: Multigraph, v: int) -> int:
    return len(g.neighbors(v))


def _simple(g: Multigraph, alive: set[int]) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(alive)
    for i, (u, v) in enumerate(g.edges):
        if u not in alive or v not in alive:
            continue
        if h.has_edge(u, v):
            mid = ("mid", i)
            h.add_edge(u, mid, index=i)
            h.add_edge(mid, v, index=i)
        else:
            h.add_edge(u, v, index=i)
    return h


def blocks(g: Multigraph, alive: Iterable[int] | None = None) -> set[frozenset[int]]:
    """Edge-index sets of the blocks of the subgraph that `alive` (default:
    every vertex) induces."""
    h = _simple(g, set(g.vertices if alive is None else alive))
    return {frozenset(h.edges[e]["index"] for e in block)
            for block in nx.biconnected_component_edges(h)}


def cutvertices(g: Multigraph) -> set[int]:
    return {v for v in nx.articulation_points(_simple(g, set(g.vertices))) if v in g.vertices}


def block_vertices(g: Multigraph, block: Iterable[int]) -> set[int]:
    return {x for i in block for x in g.edges[i]}


def is_forest(g: Multigraph) -> bool:
    """True iff the graph has no cycle (parallel edges count as a 2-cycle)."""
    return all(len(b) == 1 for b in blocks(g))


def is_cactus(g: Multigraph) -> bool:
    """True iff every edge lies on at most one cycle: no block has more
    edges than vertices."""
    return all(len(b) <= len(block_vertices(g, b)) for b in blocks(g))


def in_class(g: Multigraph, target: TargetClass) -> bool:
    return is_forest(g) if target is TargetClass.FOREST else is_cactus(g)
