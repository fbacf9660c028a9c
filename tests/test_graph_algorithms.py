from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

import block_oracle as oracle
import gridctl.graph_algorithms as ga
from block_oracle import (block_vertices, degree, in_class, is_cactus,
                          is_forest, without_vertices)
from gridctl.graph_algorithms import (Multigraph, TargetClass,
                                      _cactus_obstruction, _feedback_kernel,
                                      _shortest_cycle, biconnected_components,
                                      min_feedback_set, min_vertex_cover)

from conftest import ALL_CASES, forest_feedback_set, get_case


def graph(edges, extra_vertices=()):
    vs = set(extra_vertices)
    for u, v in edges:
        vs.update((u, v))
    return Multigraph(vs, edges)


TRIANGLE = graph([(1, 2), (2, 3), (3, 1)])
PATH3 = graph([(1, 2), (2, 3)])
K4 = graph(list(combinations(range(4), 2)))
C5 = graph([(i, (i + 1) % 5) for i in range(5)])
TWO_TRIANGLES = graph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)])
PARALLEL = graph([(1, 2), (1, 2)])


# -- brute-force oracles -----------------------------------------------------

def components(vertices, edges):
    vs = set(vertices)
    adj = {v: set() for v in vs}
    for u, v in edges:
        if u in vs and v in vs:
            adj[u].add(v)
            adj[v].add(u)
    seen, comps = set(), []
    for s in vs:
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def brute_blocks(g: Multigraph):
    """Partition edges into blocks by the 'same cycle / bridge' relation,
    checked via vertex-removal connectivity enumeration."""
    # two edges are in one block iff they lie on a common cycle; compute via
    # equivalence closure of sharing a cycle; cycles enumerated by brute force
    n = len(g.edges)
    on_common_cycle = [[False] * n for _ in range(n)]
    for size in range(2, len(g.vertices) + 1):
        for vs in combinations(g.vertices, size):
            idx = [i for i, (u, v) in enumerate(g.edges) if u in vs and v in vs]
            # a cycle through exactly vs: every chosen vertex degree 2, connected
            for cyc in combinations(idx, size):
                deg = {v: 0 for v in vs}
                ok = True
                for i in cyc:
                    u, v = g.edges[i]
                    deg[u] += 1
                    deg[v] += 1
                if any(d != 2 for d in deg.values()):
                    ok = False
                if ok and len(components(vs, [g.edges[i] for i in cyc])) == 1:
                    for a in cyc:
                        for b in cyc:
                            on_common_cycle[a][b] = True
    # 2-cycles from parallel edges
    for a in range(n):
        for b in range(a + 1, n):
            if set(g.edges[a]) == set(g.edges[b]):
                on_common_cycle[a][b] = on_common_cycle[b][a] = True
    # union-find closure
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        for b in range(n):
            if on_common_cycle[a][b]:
                ra, rb = find(a), find(b)
                parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(v) for v in groups.values()}


def brute_min_feedback(g: Multigraph, target: TargetClass) -> int:
    for size in range(len(g.vertices) + 1):
        for vs in combinations(g.vertices, size):
            if in_class(without_vertices(g, vs), target):
                return size
    raise AssertionError("unreachable")


def brute_min_cover(g: Multigraph) -> int:
    edges = {(min(u, v), max(u, v)) for u, v in g.edges}
    for size in range(len(g.vertices) + 1):
        for vs in combinations(g.vertices, size):
            chosen = set(vs)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable")


def milp_min_cover(g: Multigraph) -> int:
    """Size of a minimum vertex cover from the cover ILP, solved by HiGHS:
    min sum x_v subject to x_u + x_v >= 1 on every edge, x binary."""
    column = {v: k for k, v in enumerate(g.vertices)}
    a = np.zeros((len(g.edges), len(g.vertices)))
    for r, (u, v) in enumerate(g.edges):
        a[r, column[u]] = a[r, column[v]] = 1.0
    ones = np.ones(len(g.vertices))
    res = milp(ones, constraints=LinearConstraint(a, lb=1.0), integrality=ones,
               bounds=Bounds(0.0, 1.0))
    assert res.status == 0, res.message
    return round(res.fun)


# -- blocks ------------------------------------------------------------------

def walk(g: Multigraph, alive=None) -> list[frozenset[int]]:
    """The public walk's blocks, as edge-index sets."""
    return [frozenset(b) for b in
            biconnected_components(g, set(g.vertices if alive is None else alive))]


def kind(g: Multigraph, block) -> str:
    """The block's kind by the count rule `_cactus_obstruction` relies on:
    a block of two or more edges is a cycle with as many edges as vertices
    and complex with more."""
    if len(block) == 1:
        return "single-edge"
    return "complex" if len(block) > len(block_vertices(g, block)) else "cycle"


def walk_cutvertices(g: Multigraph) -> set[int]:
    """Vertices that lie in two or more of the walk's blocks."""
    seen, cut = set(), set()
    for block in walk(g):
        vs = block_vertices(g, block)
        cut |= seen & vs
        seen |= vs
    return cut


def test_triangle_is_one_cycle_block():
    blocks = walk(TRIANGLE)
    assert len(blocks) == 1
    assert kind(TRIANGLE, blocks[0]) == "cycle"
    assert not walk_cutvertices(TRIANGLE)
    assert set(blocks) == brute_blocks(TRIANGLE)


def test_path_has_two_single_edge_blocks():
    blocks = walk(PATH3)
    assert sorted(kind(PATH3, b) for b in blocks) == ["single-edge", "single-edge"]
    assert walk_cutvertices(PATH3) == {2}
    assert set(blocks) == brute_blocks(PATH3)


def test_two_triangles_sharing_a_vertex():
    blocks = walk(TWO_TRIANGLES)
    assert len(blocks) == 2
    assert all(kind(TWO_TRIANGLES, b) == "cycle" for b in blocks)
    assert walk_cutvertices(TWO_TRIANGLES) == {3}
    assert set(blocks) == brute_blocks(TWO_TRIANGLES)


def test_parallel_edges_form_2_cycle_block():
    blocks = walk(PARALLEL)
    assert len(blocks) == 1 and kind(PARALLEL, blocks[0]) == "cycle"
    assert set(blocks) == brute_blocks(PARALLEL)


def test_k4_is_complex():
    blocks = walk(K4)
    assert len(blocks) == 1 and kind(K4, blocks[0]) == "complex"
    assert set(blocks) == brute_blocks(K4)


def test_blocks_partition_edges_on_ieee_cases():
    for name in ALL_CASES:
        grid = get_case(name)
        g = Multigraph(grid.buses, grid.edges())
        blocks = walk(g)
        counts = [0] * len(g.edges)
        vs_union = set()
        for b in blocks:
            vs_union |= block_vertices(g, b)
            for i in b:
                counts[i] += 1
        assert all(c == 1 for c in counts)
        non_isolated = {v for v in g.vertices if degree(g, v) > 0}
        assert vs_union == non_isolated
        assert set(blocks) == oracle.blocks(g), name
        assert walk_cutvertices(g) == oracle.cutvertices(g), name


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=12))
def test_blocks_match_brute_force_on_random_graphs(pairs):
    edges = [(u, v) for u, v in pairs if u != v]
    if not edges:
        return
    g = graph(edges)
    blocks = walk(g)
    assert set(blocks) == brute_blocks(g)
    for b in blocks:
        deg = Counter(x for i in b for x in g.edges[i])
        if len(b) == 1:
            expected = "single-edge"
        elif all(deg[v] == 2 for v in block_vertices(g, b)):
            expected = "cycle"
        else:
            expected = "complex"
        assert kind(g, b) == expected
    # a cut vertex is one whose removal splits its component
    n_comps = len(components(g.vertices, g.edges))
    assert walk_cutvertices(g) == {v for v in g.vertices
                                   if len(components(set(g.vertices) - {v}, g.edges)) > n_comps}


# -- obstructions ------------------------------------------------------------

def induced(g: Multigraph, alive) -> Multigraph:
    return without_vertices(g, set(g.vertices) - set(alive))


def brute_girth(g: Multigraph) -> int | None:
    """Shortest cycle length: min over edges uv of 1 + dist(u, v) without uv."""
    best = None
    for i, (u, v) in enumerate(g.edges):
        rest = [e for j, e in enumerate(g.edges) if j != i]
        dist, frontier = 0, {u}
        seen = {u}
        while frontier and v not in frontier:
            dist += 1
            frontier = {y for x in frontier for a, b in rest for y in (a, b)
                        if x in (a, b) and y != x and y not in seen}
            seen |= frontier
        if v in frontier and (best is None or dist + 1 < best):
            best = dist + 1
    return best


def random_multigraph(rng: random.Random) -> Multigraph:
    """At most 8 vertices; about one edge in five gets a parallel copy."""
    n = rng.randint(2, 8)
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
        if rng.random() < 0.2:
            edges.append((v, u))
    return Multigraph(range(n), edges)


def test_walk_matches_the_oracle_on_random_induced_subgraphs():
    rng = random.Random(2024)
    for _ in range(500):
        g = random_multigraph(rng)
        alive = {v for v in g.vertices if rng.random() < 0.8}
        blocks = walk(g, alive)
        assert len(blocks) == len(set(blocks))
        assert set(blocks) == oracle.blocks(g, alive)


def test_obstruction_contracts_on_random_induced_subgraphs():
    rng = random.Random(1973)
    for _ in range(2000):
        g = random_multigraph(rng)
        alive = {v for v in g.vertices if rng.random() < 0.8}
        h = induced(g, alive)

        obs = _cactus_obstruction(g, set(alive))
        assert (obs is None) == is_cactus(h)
        if obs is not None:
            assert set(obs) <= alive and not is_cactus(induced(g, obs))

        cycle = _shortest_cycle(g, set(alive))
        is_forest_h = len(h.edges) == len(h.vertices) - len(components(h.vertices, h.edges))
        assert (cycle is None) == is_forest_h
        if cycle is not None:
            assert set(cycle) <= alive and len(set(cycle)) == len(cycle) >= 2
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                joining = sum(1 for e in h.edges if set(e) == {a, b})
                assert joining >= (2 if len(cycle) == 2 else 1)
            assert len(cycle) == brute_girth(h)


def test_shortest_cycle_on_sparse_forests_with_chords():
    # several components, some of them trees: a BFS that found no cycle may
    # skip its component, but one that found a cycle must not
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(6, 14)
        edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.85]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
        g = Multigraph(range(n), edges)
        cycle = _shortest_cycle(g, set(g.vertices))
        assert (None if cycle is None else len(cycle)) == brute_girth(g)


# -- forest / cactus ---------------------------------------------------------

def obstructions(g: Multigraph):
    """The search's forest and cactus obstructions on the whole graph."""
    alive = set(g.vertices)
    return _shortest_cycle(g, alive), _cactus_obstruction(g, alive)


def test_tree_is_forest_and_cactus():
    t = graph([(1, 2), (2, 3), (2, 4)])
    assert is_forest(t) and is_cactus(t)
    assert obstructions(t) == (None, None)


def test_triangle_not_forest_but_cactus():
    assert not is_forest(TRIANGLE)
    assert is_cactus(TRIANGLE)
    cycle, pair = obstructions(TRIANGLE)
    assert sorted(cycle) == [1, 2, 3] and pair is None


def test_k4_neither():
    # K4 has edges on two cycles: verified by the brute-force block oracle
    assert not is_forest(K4) and not is_cactus(K4)
    assert brute_blocks(K4) == {frozenset(range(6))}
    assert all(obs is not None for obs in obstructions(K4))


def test_parallel_pair_cactus_but_not_forest():
    assert not is_forest(PARALLEL) and is_cactus(PARALLEL)
    cycle, pair = obstructions(PARALLEL)
    assert sorted(cycle) == [1, 2] and pair is None


# -- feedback sets -----------------------------------------------------------

def test_triangle_feedback_sizes():
    assert len(min_feedback_set(TRIANGLE, TargetClass.FOREST).vertices) == 1
    assert len(min_feedback_set(TRIANGLE, TargetClass.CACTUS).vertices) == 0


def test_k4_forest_feedback_is_2():
    res = min_feedback_set(K4, TargetClass.FOREST)
    assert len(res.vertices) == brute_min_feedback(K4, TargetClass.FOREST) == 2


def test_feedback_self_certifies():
    for g in (K4, TWO_TRIANGLES, C5, PARALLEL):
        for target in TargetClass:
            res = min_feedback_set(g, target)
            assert in_class(without_vertices(g, res.vertices), target)


def test_forest_feedback_at_least_cactus_feedback():
    for g in (K4, TWO_TRIANGLES, C5, TRIANGLE, PARALLEL):
        f = min_feedback_set(g, TargetClass.FOREST)
        c = min_feedback_set(g, TargetClass.CACTUS)
        assert len(f.vertices) >= len(c.vertices)


CACTUS_SIZES = {"case6ww": 1, "case9": 0, "case14": 2, "case30": 2, "case39": 2, "case57": 5}


def test_ieee_cactus_sets_are_minimum():
    for name, size in CACTUS_SIZES.items():
        grid = get_case(name)
        g = Multigraph(grid.buses, grid.edges())
        found = min_feedback_set(g, TargetClass.CACTUS).vertices
        assert len(found) == size, name
        assert is_cactus(without_vertices(g, found)), name
        if name != "case57" and size > 0:
            # no set with one vertex fewer leaves a cactus
            assert not any(is_cactus(without_vertices(g, vs))
                           for vs in combinations(g.vertices, size - 1)), name


def test_corrupted_search_results_raise(monkeypatch):
    # an empty incumbent ends the search at once, and K4 is no forest
    monkeypatch.setattr(ga, "_greedy_feedback", lambda graph, target: set())
    with pytest.raises(RuntimeError, match="feedback set"):
        min_feedback_set(K4, TargetClass.FOREST)
    # the cover search sees K4 without its edge 0-1, so {2, 3} is its optimum
    monkeypatch.setattr(ga, "_cover_edges", lambda graph: sorted(graph.edges)[1:])
    with pytest.raises(RuntimeError, match="uncovered"):
        min_vertex_cover(K4)


def test_result_checks_survive_python_O():
    script = textwrap.dedent("""
        from itertools import combinations
        import gridctl.graph_algorithms as ga
        if __debug__:
            raise SystemExit("assert statements are still on")
        k4 = ga.Multigraph(range(4), combinations(range(4), 2))
        ga._greedy_feedback = lambda graph, target: set()
        ga._cover_edges = lambda graph: sorted(graph.edges)[1:]
        for search in (lambda: ga.min_feedback_set(k4, ga.TargetClass.FOREST),
                       lambda: ga.min_vertex_cover(k4)):
            try:
                search()
            except RuntimeError:
                print("raised")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ga.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["raised", "raised"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=14))
def test_feedback_exactness_on_random_graphs(pairs):
    edges = [(u, v) for u, v in pairs if u != v]
    if not edges:
        return
    g = graph(edges)
    for target in TargetClass:
        res = min_feedback_set(g, target)
        assert len(res.vertices) == brute_min_feedback(g, target)
        assert in_class(without_vertices(g, res.vertices), target)


def subdivided(edges, first_new, pieces):
    """Each edge u-v becomes a path through `pieces` new vertices."""
    out, fresh = [], first_new
    for u, v in edges:
        path = [u, *range(fresh, fresh + pieces), v]
        fresh += pieces
        out += zip(path, path[1:])
    return out


def test_fully_subdivided_k4_reduces_to_k4():
    g = graph(subdivided(K4.edges, 10, 1))
    kernel = _feedback_kernel(g)
    assert kernel.vertices == K4.vertices and len(kernel.edges) == 6
    assert len(min_feedback_set(g, TargetClass.FOREST).vertices) == 2
    assert len(min_feedback_set(g, TargetClass.CACTUS).vertices) == 1


def test_triangle_bypass_keeps_parallel_pair():
    kernel = _feedback_kernel(TRIANGLE)
    assert len(kernel.vertices) == 2 and len(kernel.edges) == 2
    assert len(set(map(frozenset, kernel.edges))) == 1
    # two triangles on one edge leave three parallel edges: not a cactus
    diamond = graph([(1, 2), (2, 3), (3, 1), (2, 4), (4, 3)])
    kernel = _feedback_kernel(diamond)
    assert kernel.vertices == (2, 3) and len(kernel.edges) == 3
    for target in TargetClass:
        assert len(min_feedback_set(diamond, target).vertices) == 1


def test_two_cycle_with_pendant_path_keeps_its_vertices():
    # vertex 2 has degree 2 once the path is gone, but both edges go to 1
    g = graph([(1, 2), (1, 2), (2, 3), (3, 4)])
    kernel = _feedback_kernel(g)
    assert kernel.vertices == (1, 2) and len(kernel.edges) == 2
    assert len(min_feedback_set(g, TargetClass.FOREST).vertices) == 1
    assert len(min_feedback_set(g, TargetClass.CACTUS).vertices) == 0


@st.composite
def sparse_graphs(draw):
    """A core on at most 6 vertices, some edges subdivided by 1-2 new vertices,
    and pendant trees grown by hanging each new vertex on an earlier one."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=9))
    edges, fresh = [], 6
    for u, v in pairs:
        if u == v:
            continue
        pieces = draw(st.integers(0, 2)) if fresh < 11 else 0
        edges += subdivided([(u, v)], fresh, pieces)
        fresh += pieces
    if not edges:
        return None
    vertices = sorted({x for e in edges for x in e})
    for _ in range(draw(st.integers(0, 4))):
        edges.append((draw(st.sampled_from(vertices)), fresh))
        vertices.append(fresh)
        fresh += 1
    return graph(edges)


@settings(max_examples=100, deadline=None)
@given(sparse_graphs())
def test_exactness_on_sparse_graphs(g):
    if g is None:
        return
    for target in TargetClass:
        res = min_feedback_set(g, target)
        assert len(res.vertices) == brute_min_feedback(g, target)
        assert in_class(without_vertices(g, res.vertices), target)
    cover = min_vertex_cover(g).vertices
    assert len(cover) == brute_min_cover(g)
    assert all(u in cover or v in cover for u, v in g.edges)


# -- vertex cover ------------------------------------------------------------

def test_single_edge_cover():
    assert len(min_vertex_cover(graph([(1, 2)])).vertices) == 1


def test_star_cover_is_center():
    star = graph([(0, i) for i in range(1, 6)])
    assert min_vertex_cover(star).vertices == {0}


def test_leaf_rule_on_path_and_caterpillar():
    path = graph([(i, i + 1) for i in range(11)])
    assert len(min_vertex_cover(path).vertices) == brute_min_cover(path) == 6
    caterpillar = graph([(i, i + 1) for i in range(4)] + [(i, 10 + i) for i in range(5)])
    res = min_vertex_cover(caterpillar)
    assert len(res.vertices) == brute_min_cover(caterpillar) == 5


def test_c5_cover_is_3():
    res = min_vertex_cover(C5)
    assert len(res.vertices) == brute_min_cover(C5) == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=14))
def test_cover_exactness_on_random_graphs(pairs):
    edges = [(u, v) for u, v in pairs if u != v]
    if not edges:
        return
    g = graph(edges)
    res = min_vertex_cover(g)
    assert len(res.vertices) == brute_min_cover(g)


COVER_SIZES = {"case6ww": 4, "case9": 3, "case14": 8, "case30": 16, "case39": 18,
               "case57": 30, "case118": 61}


def test_ieee_cover_sizes_match_the_cover_ilp():
    for name, size in COVER_SIZES.items():
        grid = get_case(name)
        g = Multigraph(grid.buses, grid.edges())
        cover = min_vertex_cover(g).vertices
        assert len(cover) == size == milp_min_cover(g), name
        assert all(u in cover or v in cover for u, v in g.edges), name


def test_cover_matches_the_cover_ilp_on_seeded_graphs():
    # grid-like: a random spanning tree, some chords and a few parallel pairs
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(20, 40)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n // 4, 2 * n))]
        edges += rng.sample(edges, 3)
        g = Multigraph(range(n), edges)
        cover = min_vertex_cover(g).vertices
        assert len(cover) == milp_min_cover(g), seed
        assert all(u in cover or v in cover for u, v in g.edges), seed


def test_cover_dominates_feedback_on_ieee_cases():
    # removing a vertex cover leaves no edges at all, so certainly a forest
    for name in ALL_CASES:
        grid = get_case(name)
        g = Multigraph(grid.buses, grid.edges())
        vc = min_vertex_cover(g)
        assert len(vc.vertices) >= len(forest_feedback_set(name))
