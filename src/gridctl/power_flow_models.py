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

A native bus is one without a flow controller. DC angles constrain flows
only around cycles of the native subgraph: f(u,v) = B(u,v) * (theta_u -
theta_v) on every native branch holds for some angles exactly when, around
each cycle, the oriented flows satisfy the voltage law sum f_e / B_e = 0.
One breadth-first spanning forest of the native subgraph serves the LP, the
angles, the angle check of a fixed flow and the cactus shift: each native
branch off the forest closes one fundamental cycle and gets one voltage-law
row, and angles are recovered by propagating flows down the forest from
each tree's root, its component's lowest bus, at angle zero. The cycles are
pairwise edge-disjoint exactly when the native subgraph is a cactus. The
flow model is the hybrid model with every bus controlled, so it has no
cycle rows and no angles, and the electrical model is the hybrid model with
no bus controlled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import lp_engine
# not called here: bench/tracing.py counts calls through this module's name
from .graph_algorithms import biconnected_components  # noqa: F401
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
        return ControlSet.validated(self.controls, grid)

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
    balance_rows: dict[int, list[int]] = field(default_factory=dict)  # bus -> rows
    coupling_row: dict[int, int] = field(default_factory=dict)  # cotree branch -> its cycle row


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
    native = kind.native_vertices(grid)

    for i, br in enumerate(grid.branches):
        cap = br.capacity
        vmap.flow_var[i] = lp.add_variable(f"f_{br.u}_{br.v}_{i}", -cap, cap)

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

    # DC coupling: the voltage law around the fundamental cycle of each
    # cotree branch c, scaled by B_c and signed so that f_c has coefficient
    # 1; its residual is f_c - B_c (theta_u - theta_v) with the angles
    # propagated down the forest
    _roots, tree = _native_forest(grid, native)
    for c in _cotree(grid, native, tree):
        b_c = grid.branches[c].susceptance
        coeffs = {vmap.flow_var[c]: 1.0}
        for e, tail in _fundamental_cycle(grid, tree, c)[:-1]:
            br = grid.branches[e]
            coeffs[vmap.flow_var[e]] = (-b_c if tail == br.u else b_c) / br.susceptance
        vmap.coupling_row[c] = lp.add_constraint(coeffs, "=", 0.0)

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


def _native_forest(grid: PowerGrid, native: set[int]
                   ) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Breadth-first spanning forest of the subgraph the native buses induce:
    the roots (each component's lowest bus, ascending) and each other bus's
    (tree branch, parent) in search order, so a parent precedes its children."""
    roots: list[int] = []
    tree: dict[int, tuple[int, int]] = {}
    seen: set[int] = set()
    for root in sorted(native):
        if root in seen:
            continue
        roots.append(root)
        seen.add(root)
        queue = [root]
        for u in queue:  # the queue grows while it is walked
            for i in grid.incident(u):
                v = grid.branches[i].other(u)
                if v in native and v not in seen:
                    seen.add(v)
                    tree[v] = (i, u)
                    queue.append(v)
    return roots, tree


def _cotree(grid: PowerGrid, native: set[int], tree: dict[int, tuple[int, int]]) -> list[int]:
    """The native branches off the forest, ascending; each closes one cycle."""
    in_tree = {i for i, _u in tree.values()}
    return [i for i, br in enumerate(grid.branches)
            if i not in in_tree and br.u in native and br.v in native]


def _fundamental_cycle(grid: PowerGrid, tree: dict[int, tuple[int, int]],
                       i: int) -> list[tuple[int, int]]:
    """(branch, tail) pairs once around the cycle that cotree branch i closes:
    up the tree from its u to the meeting point, down to its v, back along i."""
    br = grid.branches[i]
    up = [br.u]  # u and its ancestors
    while up[-1] in tree:
        up.append(tree[up[-1]][1])
    down, v = [], br.v  # (tree branch, parent) from v up to the meeting point
    while v not in up:
        down.append(tree[v])
        v = tree[v][1]
    return [(tree[b][0], b) for b in up[:up.index(v)]] + down[::-1] + [(i, br.v)]


@dataclass
class ModelSolution:
    flow: Flow
    theta: dict[int, float]  # the native buses' angles; empty for the flow model
    costs: CostBreakdown
    objective: float  # LP objective (equals costs.weighted up to tolerance)
    kind: ModelKind


def solve_model(grid: PowerGrid, kind: ModelKind, lam: float) -> ModelSolution:
    """Solve the dispatch LP and lift the solution back onto the grid.

    Raises InfeasibleModel when no feasible flow exists (the interesting
    outcome under load scaling). The native buses' angles are propagated
    down the native forest, and the DC coupling is checked on every native
    branch off it.
    """
    lp, vmap = build_lp(grid, kind, lam)
    sol = lp_engine.solve_lp(lp)
    if sol.status == LpStatus.INFEASIBLE:
        raise InfeasibleModel(f"{kind} model infeasible for {grid.name or 'grid'}")
    if sol.status != LpStatus.OPTIMAL:
        raise lp_engine.NumericalBreakdown(f"unexpected LP status {sol.status}")

    flow = Flow(grid, [sol.values[vmap.flow_var[i]] for i in range(len(grid.branches))])
    angles = check_electrical_feasibility(grid, flow, kind.native_vertices(grid), tol=1e-5)
    if not angles.feasible:
        raise lp_engine.NumericalBreakdown(
            f"coupling residual {angles.max_residual:.2e} around branches {angles.violated_cycle}")
    report = check_feasible(grid, flow, tol=1e-5)
    if not report.ok:
        raise lp_engine.NumericalBreakdown(
            f"solver returned infeasible flow: worst violation {report.worst():.2e}")
    costs = flow_cost(grid, flow, lam)
    return ModelSolution(flow, angles.theta, costs, sol.objective, kind)


# ---------------------------------------------------------------------------
# electrical feasibility of a fixed flow
# ---------------------------------------------------------------------------


@dataclass
class AngleCheck:
    feasible: bool
    theta: dict[int, float] | None
    violated_cycle: list[int] | None  # the bad cycle's branch indices, in cyclic order
    max_residual: float


def check_electrical_feasibility(grid: PowerGrid, flow: Flow,
                                 native: Iterable[int],
                                 tol: float = 1e-9) -> AngleCheck:
    """Recover voltage angles on the native subgraph or exhibit a bad cycle.

    Angles are propagated down the native spanning forest, gauge-fixed to
    zero at each component's lowest bus; every cotree branch is then checked
    against the DC coupling. The first that fails returns its fundamental
    cycle, in cyclic order.
    """
    native_set = set(native)
    roots, tree = _native_forest(grid, native_set)
    theta = dict.fromkeys(roots, 0.0)
    for v, (i, u) in tree.items():
        # f(u,v) = B (theta_u - theta_v)  =>  theta_v = theta_u - f/B
        theta[v] = theta[u] - flow.value(i, u) / grid.branches[i].susceptance

    max_resid = 0.0
    for i in _cotree(grid, native_set, tree):
        br = grid.branches[i]
        resid = flow.values[i] - br.susceptance * (theta[br.u] - theta[br.v])
        max_resid = max(max_resid, abs(resid))
        if abs(resid) > tol * (1.0 + abs(flow.values[i])):
            cycle = [e for e, _tail in _fundamental_cycle(grid, tree, i)]
            return AngleCheck(False, None, cycle, max_resid)
    return AngleCheck(True, theta, None, max_resid)


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

    Requires a cactus: NotACactus is raised when two fundamental cycles of
    the native spanning forest share a branch. The result has identical net
    out-flows everywhere and admits a voltage angle assignment on the native
    subgraph; capacity violations introduced by the shifts are reported
    alongside rather than silently accepted.
    """
    native = set(grid.buses) - ControlSet.validated(controls, grid)
    _roots, tree = _native_forest(grid, native)
    on_cycle: set[int] = set()
    new_flow = flow.copy()
    for i in _cotree(grid, native, tree):
        cycle = _fundamental_cycle(grid, tree, i)
        if any(e in on_cycle for e, _tail in cycle):
            raise NotACactus("native subgraph has an edge on two cycles")
        on_cycle.update(e for e, _tail in cycle)
        oriented = [CycleEdge(tail, grid.branches[e].other(tail), grid.branches[e].susceptance,
                              flow.value(e, tail)) for e, tail in cycle]
        _delta, shifted = cycle_equivalent_flow(oriented)
        for (e, tail), value in zip(cycle, shifted):
            new_flow.values[e] = value if grid.branches[e].u == tail else -value

    violations = [v for v in check_feasible(grid, new_flow, tol=1e-9).violations
                  if v.kind == "capacity"]
    return new_flow, violations
