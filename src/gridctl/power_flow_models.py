"""The flow, electrical, and hybrid dispatch models as bounded LPs.

All three models share one LP skeleton: a signed flow variable per branch
(bounds plus/minus capacity) and a balance row per bus. The convex PWL
generation and loss costs are written in separable form: one bounded column
per linear segment of a cost, priced at the segment's slope, with the
function's value at zero as an objective constant. A generator's segments
sum to its production inside its bus's balance row; a lossy branch's flow
equals its forward segments minus its backward ones in one linking row, so
the loss is charged at |f|. Because the slopes increase, an optimum fills
the cheaper segments first, and the LP objective is the cost itself.

The electrical and hybrid models add one voltage-angle variable per bus and
the DC coupling row

    f(u,v) = B(u,v) * (theta_u - theta_v)

on exactly the branches whose two endpoints both lack a flow controller; one
angle per connected component of the native (controller-free) subgraph is
pinned to zero as the gauge. The flow model is the hybrid model with every
bus controlled, the electrical model the hybrid model with none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import lp_engine
from .graph_algorithms import BlockKind, Multigraph, biconnected_components
from .grid_model import (ControlSet, CostBreakdown, Flow, PowerGrid,
                         check_feasible, flow_cost)
from .lp_engine import LinearProgram, LpStatus


class InfeasibleModel(RuntimeError):
    """The dispatch model admits no feasible flow."""


class NotACycle(ValueError):
    pass


class NotACactus(ValueError):
    pass


@dataclass(frozen=True)
class ModelKind:
    """One of the three dispatch models; hybrid carries its control set."""

    name: str  # "flow" | "electrical" | "hybrid"
    controls: ControlSet = ControlSet()

    def control_set(self, grid: PowerGrid) -> ControlSet:
        if self.name == "flow":
            return ControlSet(grid.buses)
        if self.name == "electrical":
            return ControlSet()
        return self.controls

    def native_vertices(self, grid: PowerGrid) -> set[int]:
        return set(grid.buses) - self.control_set(grid)

    def __str__(self):
        if self.name == "hybrid":
            return f"hybrid({','.join(map(str, sorted(self.controls)))})"
        return self.name


def flow_model() -> ModelKind:
    return ModelKind("flow")


def electrical_model() -> ModelKind:
    return ModelKind("electrical")


def hybrid_model(controls: Iterable[int]) -> ModelKind:
    return ModelKind("hybrid", ControlSet(controls))


@dataclass
class VariableMap:
    flow_var: dict[int, int] = field(default_factory=dict)  # branch index -> column
    theta_var: dict[int, int] = field(default_factory=dict)  # bus -> column
    balance_rows: dict[int, list[int]] = field(default_factory=dict)  # bus -> rows
    coupling_row: dict[int, int] = field(default_factory=dict)  # branch index -> row


def _net_outflow_coeffs(grid: PowerGrid, bus: int, vmap: VariableMap) -> dict[int, float]:
    coeffs: dict[int, float] = {}
    for i in grid.incident(bus):
        sign = 1.0 if grid.branches[i].u == bus else -1.0
        col = vmap.flow_var[i]
        coeffs[col] = coeffs.get(col, 0.0) + sign
    return coeffs


def build_lp(grid: PowerGrid, kind: ModelKind, lam: float) -> tuple[LinearProgram, VariableMap]:
    """Assemble the dispatch LP for the given model and objective weight."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    lp = LinearProgram()
    vmap = VariableMap()
    controls = kind.control_set(grid)
    with_theta = kind.name != "flow"

    for i, br in enumerate(grid.branches):
        cap = br.capacity
        vmap.flow_var[i] = lp.add_variable(f"f_{br.u}_{br.v}_{i}", -cap, cap)
    if with_theta:
        for bus in grid.buses:
            vmap.theta_var[bus] = lp.add_variable(f"theta_{bus}", -math.inf, math.inf)

    objective: dict[int, float] = {}
    constant = 0.0

    # balance rows: a priced generator's production is the sum of its cost
    # segments, net(g) - sum_k s_k = -d_g; every other connected bus gets an
    # equality, or at lambda = 0 a generator bus the window [-d, x - d]
    for bus in grid.buses:
        coeffs = _net_outflow_coeffs(grid, bus, vmap)
        gen = grid.generators.get(bus)
        if gen is not None and lam > 0.0:
            constant += lam * gen.cost.value_at_zero
            for k, (width, slope) in enumerate(gen.cost.segments(cap=gen.capacity)):
                s = lp.add_variable(f"gen_{bus}_{k}", 0.0, width)
                objective[s] = lam * slope
                coeffs[s] = -1.0
            vmap.balance_rows[bus] = [lp.add_constraint(coeffs, "=", -grid.demand(bus))]
            continue
        lo, hi = grid.net_outflow_bounds(bus)
        rows = []
        if not coeffs:
            if lo > 0 or hi < 0:  # infeasible isolated bus: 0 outside [lo, hi]
                rows.append(lp.add_constraint({}, ">=", lo))
                rows.append(lp.add_constraint({}, "<=", hi))
        elif lo == hi:
            rows.append(lp.add_constraint(coeffs, "=", lo))
        else:
            rows.append(lp.add_constraint(coeffs, ">=", lo))
            rows.append(lp.add_constraint(coeffs, "<=", hi))
        vmap.balance_rows[bus] = rows

    # DC coupling on branches with both endpoints native
    if with_theta:
        for i, br in enumerate(grid.branches):
            if br.u in controls or br.v in controls:
                continue
            coeffs = {vmap.flow_var[i]: 1.0,
                      vmap.theta_var[br.u]: -br.susceptance,
                      vmap.theta_var[br.v]: +br.susceptance}
            vmap.coupling_row[i] = lp.add_constraint(coeffs, "=", 0.0)
        for component in _native_components(grid, controls):
            anchor = min(component)
            lp.add_constraint({vmap.theta_var[anchor]: 1.0}, "=", 0.0)

    # loss at |f| on a lossy branch: f = sum_k p_k - sum_k m_k over the loss
    # segments in both directions; the slopes increase, so an optimum fills
    # the cheaper segments first and never both directions at once
    if lam < 1.0:
        for i, br in enumerate(grid.branches):
            constant += (1.0 - lam) * br.loss.value_at_zero
            segments = br.loss.segments(cap=br.capacity)
            if not any(slope for _, slope in segments):
                continue  # lossless
            coeffs = {vmap.flow_var[i]: 1.0}
            for k, (width, slope) in enumerate(segments):
                for sign, direction in ((-1.0, "p"), (1.0, "m")):
                    col = lp.add_variable(f"loss{direction}_{i}_{k}", 0.0, width)
                    objective[col] = (1.0 - lam) * slope
                    coeffs[col] = sign
            lp.add_constraint(coeffs, "=", 0.0)

    lp.set_objective(objective, constant)
    return lp, vmap


def _native_components(grid: PowerGrid, controls: ControlSet) -> list[set[int]]:
    native = [b for b in grid.buses if b not in controls]
    adj: dict[int, set[int]] = {b: set() for b in native}
    for br in grid.branches:
        if br.u in adj and br.v in adj:
            adj[br.u].add(br.v)
            adj[br.v].add(br.u)
    seen: set[int] = set()
    out = []
    for s in native:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        out.append(comp)
    return out


@dataclass
class ModelSolution:
    flow: Flow
    theta: dict[int, float] | None
    costs: CostBreakdown
    objective: float  # LP objective (equals costs.weighted up to tolerance)
    kind: ModelKind


def solve_model(grid: PowerGrid, kind: ModelKind, lam: float) -> ModelSolution:
    """Solve the dispatch LP and lift the solution back onto the grid.

    Raises InfeasibleModel when no feasible flow exists (the interesting
    outcome under load scaling). For non-flow models the recovered angles are
    checked against the DC coupling on every native branch.
    """
    lp, vmap = build_lp(grid, kind, lam)
    sol = lp_engine.solve_lp(lp)
    if sol.status == LpStatus.INFEASIBLE:
        raise InfeasibleModel(f"{kind} model infeasible for {grid.name or 'grid'}")
    if sol.status != LpStatus.OPTIMAL:
        raise lp_engine.NumericalBreakdown(f"unexpected LP status {sol.status}")

    flow = Flow(grid, [sol.values[vmap.flow_var[i]] for i in range(len(grid.branches))])
    theta = None
    if kind.name != "flow":
        theta = {bus: float(sol.values[col]) for bus, col in vmap.theta_var.items()}
        for i in vmap.coupling_row:
            br = grid.branches[i]
            resid = abs(flow.values[i] - br.susceptance * (theta[br.u] - theta[br.v]))
            if resid > 1e-5 * (1.0 + abs(flow.values[i])):
                raise lp_engine.NumericalBreakdown(
                    f"coupling residual {resid:.2e} on branch {br.u}-{br.v}")
    report = check_feasible(grid, flow, tol=1e-5)
    if not report.ok:
        raise lp_engine.NumericalBreakdown(
            f"solver returned infeasible flow: worst violation {report.worst():.2e}")
    costs = flow_cost(grid, flow, lam)
    return ModelSolution(flow, theta, costs, sol.objective, kind)


# ---------------------------------------------------------------------------
# electrical feasibility of a fixed flow
# ---------------------------------------------------------------------------


@dataclass
class AngleCheck:
    feasible: bool
    theta: dict[int, float] | None
    violated_cycle: list[int] | None  # branch indices closing the bad cycle
    max_residual: float


def check_electrical_feasibility(grid: PowerGrid, flow: Flow,
                                 native: Iterable[int],
                                 tol: float = 1e-9) -> AngleCheck:
    """Recover voltage angles on the native subgraph or exhibit a bad cycle.

    Angles are propagated along a spanning tree of each connected component
    of the induced native subgraph; every non-tree branch is then checked
    against the DC coupling. The angle assignment is gauge-fixed to zero at
    each component's lowest bus.
    """
    native_set = set(native)
    theta: dict[int, float] = {}
    tree_edge: dict[int, tuple[int, int]] = {}  # bus -> (branch index, parent)
    max_resid = 0.0

    incident: dict[int, list[int]] = {b: [] for b in native_set}
    for i, br in enumerate(grid.branches):
        if br.u in native_set and br.v in native_set:
            incident[br.u].append(i)
            incident[br.v].append(i)

    for root in sorted(native_set):
        if root in theta:
            continue
        theta[root] = 0.0
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for i in incident[u]:
                br = grid.branches[i]
                v = br.other(u)
                if v in theta:
                    continue
                # f(u,v) = B (theta_u - theta_v)  =>  theta_v = theta_u - f/B
                theta[v] = theta[u] - flow.value(i, u) / br.susceptance
                tree_edge[v] = (i, u)
                queue.append(v)

    tree_ids = {i for i, _parent in tree_edge.values()}
    for i, br in enumerate(grid.branches):
        if br.u not in native_set or br.v not in native_set or i in tree_ids:
            continue
        resid = flow.values[i] - br.susceptance * (theta[br.u] - theta[br.v])
        max_resid = max(max_resid, abs(resid))
        if abs(resid) > tol * (1.0 + abs(flow.values[i])):
            cycle = [i]
            # tree paths from both endpoints to their meeting point
            path_u = _tree_path(tree_edge, br.u)
            path_v = _tree_path(tree_edge, br.v)
            seen = {b for b, _e in path_u}
            join = next((b for b, _e in path_v if b in seen), None)
            for b, e in path_u:
                if b == join:
                    break
                if e is not None:
                    cycle.append(e)
            for b, e in path_v:
                if b == join:
                    break
                if e is not None:
                    cycle.append(e)
            return AngleCheck(False, None, cycle, max_resid)
    return AngleCheck(True, theta, None, max_resid)


def _tree_path(tree_edge, bus) -> list[tuple[int, int | None]]:
    """(vertex, edge to parent) pairs from bus up to its component root."""
    out = []
    cur = bus
    while cur in tree_edge:
        i, parent = tree_edge[cur]
        out.append((cur, i))
        cur = parent
    out.append((cur, None))
    return out


# ---------------------------------------------------------------------------
# cycle and cactus equivalent flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleEdge:
    tail: int
    head: int
    susceptance: float
    flow: float  # oriented tail -> head


def cycle_equivalent_flow(cycle: Sequence[CycleEdge]) -> tuple[float, list[float]]:
    """Shift a cycle flow by the unique offset that satisfies the DC coupling.

    delta = -(sum f_i/B_i) / (sum 1/B_i); adding delta to every oriented edge
    flow preserves all net out-flows and zeroes the cycle's coupling residual.
    """
    if len(cycle) < 2:
        raise NotACycle("a cycle needs at least two edges")
    heads = [e.head for e in cycle]
    for k, e in enumerate(cycle):
        if e.susceptance <= 0:
            raise NotACycle("susceptance must be positive")
        if e.head != cycle[(k + 1) % len(cycle)].tail:
            raise NotACycle("edges are not consecutively oriented")
    if len(set(heads)) != len(heads):
        raise NotACycle("repeated vertex")
    weight = sum(1.0 / e.susceptance for e in cycle)
    delta = -sum(e.flow / e.susceptance for e in cycle) / weight
    return delta, [e.flow + delta for e in cycle]


def cactus_equivalent_flow(grid: PowerGrid, controls: Iterable[int],
                           flow: Flow) -> tuple[Flow, list]:
    """Apply the per-cycle shift on every cycle block of the native subgraph.

    Requires the native subgraph to be a cactus. The result has identical net
    out-flows everywhere and admits a voltage angle assignment on the native
    subgraph; capacity violations introduced by the shifts are reported
    alongside rather than silently accepted.
    """
    control_set = ControlSet.validated(controls, grid)
    native = set(grid.buses) - control_set
    positions: list[int] = []
    edges = []
    for i, br in enumerate(grid.branches):
        if br.u in native and br.v in native:
            positions.append(i)
            edges.append((br.u, br.v))
    sub = Multigraph(native, edges)
    decomp = biconnected_components(sub)
    if any(b.kind is BlockKind.COMPLEX for b in decomp.blocks):
        raise NotACactus("native subgraph has an edge on two cycles")

    new_flow = flow.copy()
    for block in decomp.blocks:
        if block.kind is not BlockKind.CYCLE:
            continue
        cycle_edges = _walk_cycle(sub, block)
        oriented = []
        for sub_edge, tail in cycle_edges:
            i = positions[sub_edge]
            br = grid.branches[i]
            oriented.append(CycleEdge(tail, br.other(tail), br.susceptance,
                                      flow.value(i, tail)))
        _delta, shifted = cycle_equivalent_flow(oriented)
        for (sub_edge, tail), value in zip(cycle_edges, shifted):
            i = positions[sub_edge]
            sign = 1.0 if grid.branches[i].u == tail else -1.0
            new_flow.values[i] = sign * value

    violations = [v for v in check_feasible(grid, new_flow, tol=1e-9).violations
                  if v.kind == "capacity"]
    return new_flow, violations


def _walk_cycle(sub: Multigraph, block) -> list[tuple[int, int]]:
    """(edge index, tail vertex) pairs tracing the cycle block once around."""
    edges = sorted(block.edge_indices)
    start = min(sub.edges[i][0] for i in edges)
    order: list[tuple[int, int]] = []
    used: set[int] = set()
    cur = start
    while len(order) < len(edges):
        for i in sorted(block.edge_indices):
            if i in used:
                continue
            u, v = sub.edges[i]
            if u == cur or v == cur:
                order.append((i, cur))
                used.add(i)
                cur = v if u == cur else u
                break
        else:
            raise NotACycle("cycle walk failed")
    return order
