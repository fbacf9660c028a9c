"""Topology machinery: biconnected blocks, cactus obstructions, feedback sets.

All algorithms work on undirected multigraphs; parallel edges between the same
pair of vertices form a 2-cycle (which a forest must not contain but a cactus
may). One Hopcroft-Tarjan walk (``biconnected_components``) yields the blocks
of the subgraph that a set of alive vertices induces; a block of two or more
edges is a cycle when it has as many edges as vertices and complex when it
has more. The feedback-set and vertex-cover searches are exact, and each
checks the set it returns on the original graph, raising ``RuntimeError`` if
the check fails.
The feedback search shrinks the graph with kernel rules that keep the
optimum size, then runs a branch-and-bound seeded by a greedy incumbent; it
finds its obstructions in place on each node's alive vertices, copying no
subgraph, and its packing bound starts from the obstruction the node
branches on. The vertex-cover search is one depth-first search that applies
the leaf rule at every node and branches on a vertex or its whole
neighbourhood. Tie-breaks always prefer the lowest vertex index, so results
are deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


class Multigraph:
    """Undirected multigraph over integer vertices; edges indexed by position."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        self.vertices: tuple[int, ...] = tuple(sorted(set(vertices)))
        self.edges: tuple[tuple[int, int], ...] = tuple((u, v) for u, v in edges)
        vs = set(self.vertices)
        self._adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in vs or v not in vs:
                raise ValueError(f"edge {u}-{v} references unknown vertex")
            self._adj[u].append((i, v))
            self._adj[v].append((i, u))

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """(edge index, other endpoint) pairs at v."""
        return self._adj[v]

    def __repr__(self):
        return f"Multigraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def biconnected_components(graph: Multigraph, alive: set[int]) -> Iterator[list[int]]:
    """Edge lists of the blocks of the subgraph that `alive` induces.

    One iterative Hopcroft-Tarjan walk: roots in vertex order, neighbours in
    edge order, dead neighbours skipped. Blocks come out in the order the
    walk closes them; parallel edges between one pair form a 2-cycle block.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    for root in graph.vertices:
        if root in disc or root not in alive:
            continue
        disc[root] = low[root] = len(disc)
        # frame: (vertex, tree edge that reached it, neighbour iterator)
        frames = [(root, -1, iter(graph.neighbors(root)))]
        edge_stack: list[int] = []
        while frames:
            v, parent_edge, nbrs = frames[-1]
            for ei, w in nbrs:
                if ei == parent_edge or w not in alive:
                    continue
                if w not in disc:
                    edge_stack.append(ei)
                    disc[w] = low[w] = len(disc)
                    frames.append((w, ei, iter(graph.neighbors(w))))
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(ei)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                frames.pop()
                if not frames:
                    continue
                u = frames[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    members = []
                    while True:
                        ei = edge_stack.pop()
                        members.append(ei)
                        if ei == parent_edge:
                            break
                    yield members


class TargetClass(Enum):
    FOREST = "forest"
    CACTUS = "cactus"


@dataclass(frozen=True)
class VertexSetResult:
    vertices: frozenset[int]


# ---------------------------------------------------------------------------
# shortest cycles and obstructions
# ---------------------------------------------------------------------------


def _shortest_cycle(graph: Multigraph, alive: set[int]) -> list[int] | None:
    """Vertex list of a shortest cycle in the induced subgraph, or None."""
    # parallel pair = 2-cycle
    best: list[int] | None = None
    order = sorted(alive)
    for v in order:
        once: set[int] = set()
        twice: set[int] = set()
        for _ei, w in graph.neighbors(v):
            if w > v and w in alive:
                (twice if w in once else once).add(w)
        if twice:
            return [v, min(twice)]
    # a BFS that ends with no cycle found has seen its whole component: a tree
    acyclic: set[int] = set()
    for src in order:
        if src in acyclic:
            continue
        dist = {src: 0}
        parent: dict[int, tuple[int, int]] = {}
        queue = [src]
        for x in queue:
            dx = dist[x]
            if best is not None and dx + 1 >= len(best):
                break
            into_x = parent.get(x, (None, None))[0]
            for ei, y in graph.neighbors(x):
                dy = dist.get(y)
                if dy is None:
                    if y in alive:
                        dist[y] = dx + 1
                        parent[y] = (ei, x)
                        queue.append(y)
                elif dy >= dx and ei != into_x and ei != parent.get(y, (None, None))[0]:
                    # non-tree edge; root paths in a BFS tree meet in a common
                    # suffix, so cutting both at the first shared vertex gives
                    # a simple cycle
                    px = _path_to_root(parent, x)
                    py_set = _path_to_root(parent, y)
                    in_py = {t: i for i, t in enumerate(py_set)}
                    cut_x = next(i for i, t in enumerate(px) if t in in_py)
                    cut_y = in_py[px[cut_x]]
                    cycle = px[:cut_x + 1] + py_set[:cut_y][::-1]
                    if len(cycle) >= 2 and (best is None or len(cycle) < len(best)):
                        best = cycle
        if best is None:
            acyclic.update(dist)
        elif len(best) <= 3:
            break
    return best


def _path_to_root(parent: dict[int, tuple[int, int]], v: int) -> list[int]:
    path = [v]
    while path[-1] in parent:
        path.append(parent[path[-1]][1])
    return path


def _bfs_path(graph: Multigraph, block: set[int], banned: tuple[int, ...],
              src: int, dst: int) -> tuple[list[int], list[int]] | None:
    """Vertices and edges of a shortest src-dst path inside `block` that
    uses no `banned` edge, or None."""
    prev: dict[int, tuple[int, int] | None] = {src: None}
    queue = [src]
    for x in queue:
        for ei, y in graph.neighbors(x):
            if y in prev or y not in block or ei in banned:
                continue
            prev[y] = (x, ei)
            if y == dst:
                path, edges = [y], []
                while path[-1] != src:
                    w, e = prev[path[-1]]
                    path.append(w)
                    edges.append(e)
                return path[::-1], edges
            queue.append(y)
    return None


def _cactus_obstruction(graph: Multigraph, alive: set[int]) -> list[int] | None:
    """Vertices of two cycles sharing an edge, or None if already a cactus.

    Reads the subgraph that `alive` induces in place. It takes the complex
    block (more edges than vertices) with the lowest vertex, the first on a
    tie; its lowest edge e0 = uv closes a shortest cycle C. With e0 and one
    other edge g of C banned, lowest g first, a u-v path that is left closes
    a second cycle sharing e0 with C. Some g always works: the first ear of
    the block beyond C joins two vertices of C, and any g between them will
    do.
    """
    block: set[int] | None = None
    for members in biconnected_components(graph, alive):
        vs = {x for i in members for x in graph.edges[i]}
        if len(members) > len(vs) and (block is None or min(vs) < min(block)):
            block, e0 = vs, min(members)
    if block is None:
        return None
    u, v = graph.edges[e0]
    cycle, cycle_edges = _bfs_path(graph, block, (e0,), u, v)
    for g in sorted(cycle_edges):
        second = _bfs_path(graph, block, (e0, g), u, v)
        if second is not None:
            return sorted(set(cycle) | set(second[0]))
    raise RuntimeError("no second cycle found in a complex block")


def _obstruction(graph: Multigraph, alive: set[int], target: TargetClass) -> list[int] | None:
    if target is TargetClass.FOREST:
        return _shortest_cycle(graph, alive)
    return _cactus_obstruction(graph, alive)


def _packing_bound(graph: Multigraph, alive: set[int], target: TargetClass,
                   obs: list[int]) -> int:
    """Greedy count of vertex-disjoint obstructions, starting from `obs`, an
    obstruction of `alive`: a feedback-set lower bound."""
    rest = set(alive)
    count = 0
    while obs is not None:
        count += 1
        rest.difference_update(obs)
        obs = _obstruction(graph, rest, target)
    return count


# ---------------------------------------------------------------------------
# feedback sets
# ---------------------------------------------------------------------------


def _feedback_kernel(graph: Multigraph) -> Multigraph:
    """Shrink the graph without changing its minimum feedback-set size.

    Two rules run to a fixpoint, for both target classes: a vertex of degree
    at most 1 is deleted, and a degree-2 vertex v with distinct neighbours
    u and w is bypassed by replacing u-v-w with an edge u-w (parallel edges
    that this creates are kept). Every cycle through v passes through u and
    w, and so does every pair of cycles sharing an edge at v, so some
    optimum avoids v; and subdividing an edge neither makes nor unmakes a
    forest or a cactus. A degree-2 vertex whose two edges go to one
    neighbour stays. Surviving vertices keep their ids.
    """
    # vertex -> {edge index: other endpoint}
    nbrs = {v: dict(graph.neighbors(v)) for v in graph.vertices}
    next_edge = len(graph.edges)
    todo = list(reversed(graph.vertices))
    while todo:
        v = todo.pop()
        if v not in nbrs:
            continue
        if len(nbrs[v]) <= 1:
            for ei, u in nbrs.pop(v).items():
                del nbrs[u][ei]
                todo.append(u)
        elif len(nbrs[v]) == 2:
            (e1, u), (e2, w) = sorted(nbrs[v].items())
            if u == w:
                continue
            # a bypass keeps every degree, so it makes no other vertex reducible
            del nbrs[v], nbrs[u][e1], nbrs[w][e2]
            nbrs[u][next_edge], nbrs[w][next_edge] = w, u
            next_edge += 1
    edges = {ei: (v, w) for v, es in nbrs.items() for ei, w in es.items() if v < w}
    return Multigraph(nbrs, (edges[ei] for ei in sorted(edges)))


def _greedy_feedback(graph: Multigraph, target: TargetClass) -> set[int]:
    """Feedback set by repeatedly deleting the busiest obstruction vertex."""
    alive = set(graph.vertices)
    rest = set(alive)
    picked: set[int] = set()
    while True:
        obs = _obstruction(graph, rest, target)
        if obs is None:
            break
        choice = max(obs, key=lambda v: (sum(1 for _e, w in graph.neighbors(v) if w in rest), -v))
        picked.add(choice)
        rest.discard(choice)
    # drop redundant picks, lowest index first
    for v in sorted(picked):
        without = picked - {v}
        if _obstruction(graph, alive - without, target) is None:
            picked = without
    return picked


def min_feedback_set(graph: Multigraph, target: TargetClass) -> VertexSetResult:
    """Smallest vertex set whose removal puts the graph in the target class.

    Exact: the search runs on the kernel of ``_feedback_kernel``, starts from
    a greedy incumbent, and branches on obstructions (a shortest cycle for a
    forest, two cycles sharing an edge for a cactus). Each obstruction is
    found in place on the node's alive vertices, with no subgraph copy. A
    node prunes with a packing of vertex-disjoint obstructions as the lower
    bound; the packing starts from the obstruction the node branches on.
    The returned set is checked on the original graph with the search's own
    obstruction finder, and a set that leaves an obstruction raises
    ``RuntimeError``. The independent checks live in ``tests/`` and in
    ``bench/reference.py``.
    """
    kernel = _feedback_kernel(graph)
    best = _branch_and_bound_feedback(kernel, set(kernel.vertices), target,
                                      _greedy_feedback(kernel, target))
    if _obstruction(graph, set(graph.vertices) - best, target) is not None:
        raise RuntimeError(f"feedback set {sorted(best)} leaves no {target.value}")
    return VertexSetResult(frozenset(best))


def _branch_and_bound_feedback(graph: Multigraph, alive: set[int],
                               target: TargetClass, incumbent: set[int]) -> set[int]:
    best = set(incumbent)
    # stack of (chosen, forbidden); explored depth-first, deterministic order
    stack: list[tuple[set[int], frozenset[int]]] = [(set(), frozenset())]
    while stack:
        chosen, forbidden = stack.pop()
        if len(chosen) >= len(best):
            continue
        rest = alive - chosen
        obs = _obstruction(graph, rest, target)
        if obs is None:
            best = set(chosen)
            continue
        if len(chosen) + 1 >= len(best):
            continue
        bound = len(chosen) + _packing_bound(graph, rest, target, obs)
        if bound >= len(best):
            continue
        # branch: first obstruction vertex picked is obs[i]; obs[:i] stay out
        children = []
        banned: list[int] = []
        for v in obs:
            if v not in forbidden:
                children.append((chosen | {v}, forbidden | frozenset(banned)))
            banned.append(v)
        stack.extend(reversed(children))
    return best


# ---------------------------------------------------------------------------
# vertex cover
# ---------------------------------------------------------------------------


def _cover_edges(graph: Multigraph) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in graph.edges})


def _matching_bound(edges: list[tuple[int, int]]) -> int:
    used: set[int] = set()
    count = 0
    for u, v in edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            count += 1
    return count


def _forced_cover(edges: list[tuple[int, int]]) -> set[int]:
    """Vertices some minimum cover holds: the neighbours of degree-1 vertices.

    A cover holding a leaf can swap it for the leaf's neighbour, so the
    neighbour is taken and its edges dropped, until no leaf is left.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    forced: set[int] = set()
    todo = sorted(adj, reverse=True)
    while todo:
        v = todo.pop()
        if len(adj.get(v, ())) != 1:
            continue
        (u,) = adj[v]
        forced.add(u)
        for w in adj.pop(u):
            adj[w].discard(u)
            todo.append(w)
    return forced


def min_vertex_cover(graph: Multigraph) -> VertexSetResult:
    """Minimum vertex cover, exact.

    One depth-first search over the uncovered edges. At each node the
    neighbours of leaves join the cover (``_forced_cover``), and the node is
    pruned when its set plus a matching of the open edges cannot beat the
    best cover found so far. Otherwise it branches on the open vertex of
    highest degree, the lowest on a tie: a cover holds v or every neighbour
    of v, and the child that takes v is searched first. The result is
    checked on the graph's edges, and a set that leaves one uncovered raises
    ``RuntimeError``.
    """
    best: frozenset[int] | None = None
    stack = [(frozenset(), _cover_edges(graph))]
    while stack:
        chosen, edges = stack.pop()
        forced = _forced_cover(edges)
        chosen |= forced
        edges = [(u, v) for u, v in edges if u not in forced and v not in forced]
        if best is not None and len(chosen) + _matching_bound(edges) >= len(best):
            continue
        if not edges:
            best = chosen
            continue
        degree = Counter(x for edge in edges for x in edge)
        v = min(degree, key=lambda x: (-degree[x], x))
        nbrs = {x for edge in edges if v in edge for x in edge} - {v}
        stack.append((chosen | nbrs, [(a, b) for a, b in edges if a not in nbrs and b not in nbrs]))
        stack.append((chosen | {v}, [(a, b) for a, b in edges if v != a and v != b]))
    if not all(u in best or v in best for u, v in graph.edges):
        raise RuntimeError(f"vertex set {sorted(best)} leaves an edge uncovered")
    return VertexSetResult(best)
