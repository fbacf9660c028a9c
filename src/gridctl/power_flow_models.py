"""The flow, electrical, and hybrid dispatch models as bounded LPs.

All three models share one LP skeleton: a signed flow column per branch in
[-capacity, capacity], a production column per generator in [0, x_g], and
one balance equality per bus, net outflow - production = -demand. The
convex PWL costs sit in the columns themselves, as `lp_engine` curves: a
flow costs (1 - lambda) loss(|f|), the loss curve mirrored about 0, and a
production lambda cost(p), each less its value at zero, which goes into the
objective constant. The LP objective is therefore the cost itself, and the
layout is the same at every lambda.

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
from itertools import accumulate
from typing import Iterable, Sequence

from . import lp_engine
# not called here: bench/tracing.py counts calls through this module's name
from .graph_algorithms import biconnected_components  # noqa: F401
from .grid_model import (CostBreakdown, Flow, PowerGrid, UnknownBus,
                         check_feasible, flow_cost)
from .lp_engine import LinearProgram, LpStatus
from .pwl import PiecewiseLinearConvex


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
    controls: frozenset[int] = frozenset()

    def native_vertices(self, grid: PowerGrid) -> set[int]:
        """The buses without a controller; UnknownBus names any control bus
        that is not in the grid."""
        if self.name == "flow":
            return set()
        unknown = self.controls - set(grid.buses)
        if unknown:
            raise UnknownBus(f"control buses not in grid: {sorted(unknown)}")
        return set(grid.buses) - self.controls

    def __str__(self):
        if self.name == "hybrid":
            return f"hybrid({','.join(map(str, sorted(self.controls)))})"
        return self.name


def flow_model() -> ModelKind:
    return ModelKind("flow")


def electrical_model() -> ModelKind:
    return ModelKind("electrical")


def hybrid_model(controls: Iterable[int]) -> ModelKind:
    return ModelKind("hybrid", frozenset(controls))


@dataclass
class VariableMap:
    flow_var: dict[int, int] = field(default_factory=dict)  # branch index -> column
    gen_var: dict[int, int] = field(default_factory=dict)  # generator bus -> production column
    balance_row: dict[int, int] = field(default_factory=dict)  # bus -> its balance row
    coupling_row: dict[int, int] = field(default_factory=dict)  # cotree branch -> its cycle row
    native: set[int] = field(default_factory=set)  # the buses without a controller
    roots: list[int] = field(default_factory=list)  # the native forest, as _native_forest
    tree: dict[int, tuple[int, int]] = field(default_factory=dict)


def _net_outflow_coeffs(grid: PowerGrid, bus: int, vmap: VariableMap) -> dict[int, float]:
    coeffs: dict[int, float] = {}
    for i in grid.incident(bus):
        sign = 1.0 if grid.branches[i].u == bus else -1.0
        col = vmap.flow_var[i]
        coeffs[col] = coeffs.get(col, 0.0) + sign
    return coeffs


def _curve(cost: PiecewiseLinearConvex, cap: float,
           scale: float) -> tuple[list[float], list[float], float]:
    """Slopes and interior breakpoints of scale * cost on [0, cap], and its
    value at 0."""
    segments = cost.segments(cap=cap) if scale else []
    if not segments:
        return [0.0], [], scale * cost.value_at_zero if scale else 0.0
    widths, slopes = zip(*segments)
    return [scale * s for s in slopes], list(accumulate(widths[:-1])), scale * cost.value_at_zero


def build_lp(grid: PowerGrid, kind: ModelKind, lam: float) -> tuple[LinearProgram, VariableMap]:
    """Assemble the dispatch LP for the given model and objective weight."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    lp = LinearProgram()
    vmap = VariableMap(native=kind.native_vertices(grid))
    constant = 0.0

    # a flow costs (1 - lambda) loss(|f|): the loss curve on [0, cap],
    # mirrored onto [-cap, 0]
    for i, br in enumerate(grid.branches):
        cap = br.capacity
        slopes, ends, at_zero = _curve(br.loss, cap, 1.0 - lam)
        if ends or slopes[0]:
            slopes = [-s for s in reversed(slopes)] + slopes
            ends = [-e for e in reversed(ends)] + [0.0] + ends
        vmap.flow_var[i] = lp.add_variable(f"f_{br.u}_{br.v}_{i}", -cap, cap, slopes, ends)
        constant += at_zero

    # one balance row per bus, net(bus) - production = -demand, where a
    # generator's production in [0, x_g] costs lambda cost(production)
    for bus in grid.buses:
        coeffs = _net_outflow_coeffs(grid, bus, vmap)
        gen = grid.generators.get(bus)
        if gen is not None:
            slopes, ends, at_zero = _curve(gen.cost, gen.capacity, lam)
            p = vmap.gen_var[bus] = lp.add_variable(f"p_{bus}", 0.0, gen.capacity, slopes, ends)
            coeffs[p] = -1.0
            constant += at_zero
        vmap.balance_row[bus] = lp.add_constraint(coeffs, "=", -grid.demand(bus))

    # DC coupling: the voltage law around the fundamental cycle of each
    # cotree branch c, scaled by B_c and signed so that f_c has coefficient
    # 1; its residual is f_c - B_c (theta_u - theta_v) with the angles
    # propagated down the forest
    vmap.roots, vmap.tree = _native_forest(grid, vmap.native)
    for c in _cotree(grid, vmap.native, vmap.tree):
        b_c = grid.branches[c].susceptance
        coeffs = {vmap.flow_var[c]: 1.0}
        for e, tail in _fundamental_cycle(grid, vmap.tree, c)[:-1]:
            br = grid.branches[e]
            coeffs[vmap.flow_var[e]] = (-b_c if tail == br.u else b_c) / br.susceptance
        vmap.coupling_row[c] = lp.add_constraint(coeffs, "=", 0.0)

    lp.obj_constant = constant
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
    angles = _angle_check(grid, flow, vmap.native, vmap.roots, vmap.tree, tol=1e-5)
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
    return _angle_check(grid, flow, native_set, *_native_forest(grid, native_set), tol=tol)


def _angle_check(grid: PowerGrid, flow: Flow, native: set[int], roots: list[int],
                 tree: dict[int, tuple[int, int]], tol: float) -> AngleCheck:
    """check_electrical_feasibility on the native set's forest, as given."""
    theta = dict.fromkeys(roots, 0.0)
    for v, (i, u) in tree.items():
        # f(u,v) = B (theta_u - theta_v)  =>  theta_v = theta_u - f/B
        theta[v] = theta[u] - flow.value(i, u) / grid.branches[i].susceptance

    max_resid = 0.0
    for i in _cotree(grid, native, tree):
        br = grid.branches[i]
        resid = flow.values[i] - br.susceptance * (theta[br.u] - theta[br.v])
        max_resid = max(abs(resid), max_resid)  # this order keeps a NaN residual
        if not abs(resid) <= tol * (1.0 + abs(flow.values[i])):
            cycle = [e for e, _tail in _fundamental_cycle(grid, tree, i)]
            return AngleCheck(False, None, cycle, max_resid)
    return AngleCheck(True, theta, None, max_resid)


# ---------------------------------------------------------------------------
# cycle and cactus equivalent flows
# ---------------------------------------------------------------------------


def cycle_equivalent_flow(susceptances: Sequence[float],
                          flows: Sequence[float]) -> tuple[float, list[float]]:
    """Shift a cycle flow by the unique offset that satisfies the DC coupling.

    susceptances[k] and flows[k] belong to the cycle's k-th edge, the flow
    oriented along one traversal of the cycle. delta = -(sum f_k/B_k) /
    (sum 1/B_k); adding delta to every oriented edge flow preserves all net
    out-flows and zeroes the cycle's coupling residual. NotACycle is raised
    for fewer than two edges or a susceptance that is not positive.
    """
    if len(susceptances) < 2:
        raise NotACycle("a cycle needs at least two edges")
    if min(susceptances) <= 0:
        raise NotACycle("susceptance must be positive")
    weight = sum(1.0 / b for b in susceptances)
    delta = -sum(f / b for f, b in zip(flows, susceptances, strict=True)) / weight
    return delta, [f + delta for f in flows]


def cactus_equivalent_flow(grid: PowerGrid, controls: Iterable[int],
                           flow: Flow) -> tuple[Flow, list]:
    """Apply the per-cycle shift on every cycle block of the native subgraph.

    Requires a cactus: NotACactus is raised when two fundamental cycles of
    the native spanning forest share a branch. The result has identical net
    out-flows everywhere and admits a voltage angle assignment on the native
    subgraph; capacity violations introduced by the shifts are reported
    alongside rather than silently accepted.
    """
    native = hybrid_model(controls).native_vertices(grid)
    _roots, tree = _native_forest(grid, native)
    on_cycle: set[int] = set()
    new_flow = flow.copy()
    for i in _cotree(grid, native, tree):
        cycle = _fundamental_cycle(grid, tree, i)
        if any(e in on_cycle for e, _tail in cycle):
            raise NotACactus("native subgraph has an edge on two cycles")
        on_cycle.update(e for e, _tail in cycle)
        _delta, shifted = cycle_equivalent_flow([grid.branches[e].susceptance for e, _ in cycle],
                                                [flow.value(e, tail) for e, tail in cycle])
        for (e, tail), value in zip(cycle, shifted):
            new_flow.values[e] = value if grid.branches[e].u == tail else -value

    violations = [v for v in check_feasible(grid, new_flow, tol=1e-9).violations
                  if v.kind == "capacity"]
    return new_flow, violations
