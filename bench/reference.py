"""Independent references for the benchmark's output checks.

Nothing here calls into gridctl's solvers or graph searches. The LPs are
assembled from the built PowerGrid's data (branches, PWL pieces, generators,
consumers) in a formulation of their own, with explicit production
variables, and solved by HiGHS through scipy. Minimum vertex covers and
feedback sets come from exact ILPs solved by scipy.optimize.milp; forest and
cactus membership is decided with networkx. Flow, balance and angle checks
are plain numpy.

Every check returns a list of problem strings; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

OBJ_RTOL = 1e-6  # relative agreement of an objective with its reference
FLOW_TOL = 1e-6  # absolute slack (scaled by 1 + magnitude) of flow checks


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------------------
# grid data as arrays
# ---------------------------------------------------------------------------


class GridArrays:
    """Incidence, capacities and susceptances of a PowerGrid as numpy arrays."""

    def __init__(self, grid):
        self.grid = grid
        self.buses = list(grid.buses)
        self.pos = {b: k for k, b in enumerate(self.buses)}
        nb, ne = len(self.buses), len(grid.branches)
        rows, cols, vals = [], [], []
        for e, br in enumerate(grid.branches):
            rows += [self.pos[br.u], self.pos[br.v]]
            cols += [e, e]
            vals += [1.0, -1.0]
        # net outflow at each bus = incidence @ f
        self.incidence = sparse.csr_matrix((vals, (rows, cols)), shape=(nb, ne))
        self.cap = np.array([br.capacity for br in grid.branches], dtype=float)
        self.susc = np.array([br.susceptance for br in grid.branches], dtype=float)
        self.ends = [(self.pos[br.u], self.pos[br.v]) for br in grid.branches]
        self.demand = np.array([grid.consumers.get(b, 0.0) for b in self.buses])
        self.gen_buses = sorted(grid.generators)
        self.gen_cap = np.array([grid.generators[b].capacity for b in self.gen_buses])

    def native_branches(self, controls) -> list[int]:
        return [e for e, br in enumerate(self.grid.branches)
                if br.u not in controls and br.v not in controls]

    def native_components(self, controls) -> list[list[int]]:
        g = nx.Graph()
        g.add_nodes_from(b for b in self.buses if b not in controls)
        for e in self.native_branches(controls):
            br = self.grid.branches[e]
            g.add_edge(br.u, br.v)
        return [sorted(c) for c in nx.connected_components(g)]


def check_flow(arr: GridArrays, values) -> list[str]:
    """Branch capacities and the demand-netted balance window at every bus."""
    f = np.asarray(values, dtype=float)
    if f.shape != (len(arr.grid.branches),):
        return [f"flow has shape {f.shape}"]
    out = []
    over = np.abs(f) - arr.cap
    bad = np.flatnonzero(over > FLOW_TOL * (1.0 + np.where(np.isinf(arr.cap), 0.0, arr.cap)))
    if bad.size:
        out.append(f"capacity exceeded on branches {bad.tolist()[:5]}")
    net = arr.incidence @ f
    lo = -arr.demand
    hi = -arr.demand.copy()
    for b, cap in zip(arr.gen_buses, arr.gen_cap):
        hi[arr.pos[b]] += cap
    slack = FLOW_TOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    bad = np.flatnonzero((net < lo - slack) | (net > hi + slack))
    if bad.size:
        out.append(f"balance violated at buses {[arr.buses[k] for k in bad[:5]]}")
    return out


def check_coupling(arr: GridArrays, values, theta, controls) -> list[str]:
    """f = B (theta_u - theta_v) on every branch with both ends native."""
    if theta is None:
        return ["no angles returned"]
    missing = [b for b in arr.buses if b not in controls and b not in theta]
    if missing:
        return [f"no angle for native buses {missing[:5]}"]
    for e in arr.native_branches(controls):
        br = arr.grid.branches[e]
        resid = values[e] - br.susceptance * (theta[br.u] - theta[br.v])
        if abs(resid) > FLOW_TOL * (1.0 + abs(values[e])):
            return [f"coupling residual {resid:.3g} on branch {br.u}-{br.v}"]
    return []


def angles_exist(arr: GridArrays, values, native) -> tuple[bool, float]:
    """Least-squares angles on the native subgraph and their worst residual."""
    native = set(native)
    edges = [e for e, br in enumerate(arr.grid.branches) if br.u in native and br.v in native]
    if not edges:
        return True, 0.0
    f = np.asarray(values, dtype=float)[edges]
    rows, cols, vals = [], [], []
    for r, e in enumerate(edges):
        u, v = arr.ends[e]
        rows += [r, r]
        cols += [u, v]
        vals += [arr.susc[e], -arr.susc[e]]
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(len(edges), len(arr.buses))).toarray()
    theta, *_ = np.linalg.lstsq(a, f, rcond=None)
    resid = float(np.max(np.abs(a @ theta - f)))
    return resid <= FLOW_TOL * (1.0 + float(np.max(np.abs(f)))), resid


# ---------------------------------------------------------------------------
# the dispatch LP, in a formulation of its own
# ---------------------------------------------------------------------------


def _flow_polytope(arr: GridArrays, controls, with_theta: bool):
    """Columns f | p | theta and the balance, coupling and gauge rows.

    Returns the column count, the column bounds, the equality rows as
    (coefficients, rhs) pairs and the offset of the p columns. Balance rows
    read incidence @ f - p = -demand.
    """
    ne, ng, nb = len(arr.grid.branches), len(arr.gen_buses), len(arr.buses)
    n_theta = nb if with_theta else 0
    off_p, off_t = ne, ne + ng
    bounds = [(-c if math.isfinite(c) else None, c if math.isfinite(c) else None)
              for c in arr.cap]
    bounds += [(0.0, c) for c in arr.gen_cap]
    bounds += [(None, None)] * n_theta
    eq = []  # (dict col -> coeff, rhs)
    for k in range(nb):
        eq.append(({}, -arr.demand[k]))
    inc = arr.incidence.tocoo()
    for r, c, v in zip(inc.row, inc.col, inc.data):
        eq[r][0][c] = v
    for g, b in enumerate(arr.gen_buses):
        eq[arr.pos[b]][0][off_p + g] = -1.0
    if with_theta:
        for e in arr.native_branches(controls):
            u, v = arr.ends[e]
            eq.append(({e: 1.0, off_t + u: -arr.susc[e], off_t + v: arr.susc[e]}, 0.0))
        for comp in arr.native_components(controls):
            bounds[off_t + arr.pos[comp[0]]] = (0.0, 0.0)
        for b in controls:
            bounds[off_t + arr.pos[b]] = (0.0, 0.0)  # unused angle
    return ne + ng + n_theta, bounds, eq, off_p


def _matrix(rows, n):
    data, ri, ci = [], [], []
    for r, (coeffs, _rhs) in enumerate(rows):
        for c, v in coeffs.items():
            ri.append(r)
            ci.append(c)
            data.append(v)
    return sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n)), np.array([b for _c, b in rows])


def dispatch_objective(grid, controls, lam: float) -> float:
    """Optimal lambda-weighted cost; controls is the set of flow control buses.

    A flow model passes every bus as a control, an electrical one none.
    """
    arr = GridArrays(grid)
    controls = frozenset(controls)
    with_theta = len(controls) < len(arr.buses)
    n, bounds, eq, off_p = _flow_polytope(arr, controls, with_theta)
    cost = []
    ub = []  # rows reading coeffs . x <= rhs
    if lam > 0.0:
        for g, b in enumerate(arr.gen_buses):
            t = n + len(cost)
            cost.append(lam)
            for a, c in grid.generators[b].cost.pieces:  # t >= a p + c
                ub.append(({off_p + g: a, t: -1.0}, -c))
    if lam < 1.0:
        for e, br in enumerate(grid.branches):
            t = n + len(cost)
            cost.append(1.0 - lam)
            for a, c in br.loss.pieces:  # t >= a |f| + c
                ub.append(({e: a, t: -1.0}, -c))
                ub.append(({e: -a, t: -1.0}, -c))
    n_all = n + len(cost)
    bounds = bounds + [(None, None)] * len(cost)
    c_vec = np.concatenate([np.zeros(n), np.array(cost)])
    a_eq, b_eq = _matrix(eq, n_all)
    a_ub, b_ub = _matrix(ub, n_all) if ub else (None, None)
    res = linprog(c_vec, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options={"primal_feasibility_tolerance": 1e-9,
                                           "dual_feasibility_tolerance": 1e-9})
    if res.status != 0:
        raise RuntimeError(f"reference dispatch LP failed: {res.message}")
    return float(res.fun)


def max_load_factor(grid, controls, alpha_max: float) -> float:
    """Largest alpha in [0, alpha_max] at which alpha-scaled demand is servable."""
    arr = GridArrays(grid)
    controls = frozenset(controls)
    with_theta = len(controls) < len(arr.buses)
    n, bounds, eq, _off_p = _flow_polytope(arr, controls, with_theta)
    alpha = n
    for k in range(len(arr.buses)):  # incidence @ f - p + alpha d = 0
        coeffs, rhs = eq[k]
        coeffs[alpha] = -rhs
        eq[k] = (coeffs, 0.0)
    c_vec = np.zeros(n + 1)
    c_vec[alpha] = -1.0
    a_eq, b_eq = _matrix(eq, n + 1)
    res = linprog(c_vec, A_eq=a_eq, b_eq=b_eq, bounds=bounds + [(0.0, alpha_max)],
                  method="highs", options={"primal_feasibility_tolerance": 1e-9,
                                           "dual_feasibility_tolerance": 1e-9})
    if res.status != 0:
        raise RuntimeError(f"reference max-load LP failed: {res.message}")
    return float(-res.fun)


# ---------------------------------------------------------------------------
# exact vertex sets by ILP, and graph-class checks by networkx
# ---------------------------------------------------------------------------


def nx_graph(grid) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(grid.buses)
    g.add_edges_from(grid.edges())
    if g.number_of_edges() != len(grid.branches):
        raise ValueError("grid has parallel branches; the checks assume a simple graph")
    return g


def _bad_blocks(g: nx.Graph, target: str) -> list[set[int]]:
    """Vertex sets of the blocks that break the target class."""
    out = []
    for edges in nx.biconnected_component_edges(g):
        verts = {v for e in edges for v in e}
        if target == "forest" and len(edges) > 1:
            out.append(verts)
        elif target == "cactus" and len(edges) > 1 and len(edges) != len(verts):
            out.append(verts)
    return out


def in_class(g: nx.Graph, removed, target: str) -> bool:
    rest = g.subgraph(set(g) - set(removed))
    if target == "forest":
        return nx.is_forest(rest) if rest.number_of_nodes() else True
    return not _bad_blocks(nx.Graph(rest), target)


def _min_binary(n: int, cuts: list[list[int]]) -> np.ndarray:
    a = np.zeros((len(cuts), n))
    for r, cut in enumerate(cuts):
        a[r, cut] = 1.0
    res = milp(np.ones(n), constraints=LinearConstraint(a, lb=1.0),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"reference ILP failed: {res.message}")
    return np.round(res.x).astype(int)


def min_cover_size(g: nx.Graph) -> int:
    """Exact minimum vertex cover: x_u + x_v >= 1 on every edge."""
    idx = {v: k for k, v in enumerate(g)}
    x = _min_binary(len(idx), [[idx[u], idx[v]] for u, v in g.edges])
    return int(x.sum())


def min_feedback_size(g: nx.Graph, target: str) -> int:
    """Exact minimum forest or cactus feedback set by cut generation.

    Each round solves the ILP over the cuts found so far, then adds, for every
    block of the remainder that breaks the target class, the cut over the
    block's vertices (valid: the block holds a cycle, or two cycles sharing an
    edge, that any feedback set must hit) and, to converge in fewer rounds,
    one cut per cycle of the block's cycle basis (forest) or per pair of basis
    cycles sharing an edge (cactus). The first solution leaving no bad block
    is optimal, because every cut is valid.
    """
    nodes = list(g)
    idx = {v: k for k, v in enumerate(nodes)}
    cuts: list[list[int]] = []
    seen: set[frozenset[int]] = set()
    for _round in range(1000):
        x = _min_binary(len(nodes), cuts) if cuts else np.zeros(len(nodes), dtype=int)
        removed = {nodes[k] for k in np.flatnonzero(x)}
        rest = nx.Graph(g.subgraph(set(nodes) - removed))
        blocks = _bad_blocks(rest, target)
        if not blocks:
            return len(removed)
        new = []
        for block in blocks:
            new.append(frozenset(block))
            basis = nx.cycle_basis(rest.subgraph(block))
            if target == "forest":
                new += [frozenset(c) for c in basis]
            else:
                edge_sets = [{frozenset(p) for p in zip(c, c[1:] + c[:1])} for c in basis]
                for i in range(len(basis)):
                    for j in range(i):
                        if edge_sets[i] & edge_sets[j]:
                            new.append(frozenset(basis[i]) | frozenset(basis[j]))
        for cut in new:
            if cut not in seen:
                seen.add(cut)
                cuts.append([idx[v] for v in cut])
    raise RuntimeError("reference feedback ILP did not converge")
