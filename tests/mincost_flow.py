"""Reduction of the network-flow dispatch model to min-cost s-t flow.

Every branch becomes two directed copies, each split into parallel edges per
linear segment of its loss curve (capacities are the segment widths, unit
costs the segment slopes scaled by 1-lambda). Generators hang off a common
source with their cost segments scaled by lambda, consumers feed a common
sink at zero cost, and the target flow value is the total demand. Constant
cost terms (a generator's cost at zero output) cannot be carried by per-unit
edge costs, so they are accumulated in a cost offset added to the reported
objective.

The solver is successive shortest paths with node potentials; all unit costs
are nonnegative by construction, so Dijkstra runs from the start and the
potentials keep reduced costs nonnegative throughout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from gridctl.grid_model import Flow, PowerGrid
from gridctl.pwl import PiecewiseLinearConvex


class UnboundedCapacityOnCostlyEdge(ValueError):
    """A positively sloped cost segment would span an unlimited capacity."""


@dataclass(frozen=True)
class NetworkEdge:
    tail: int
    head: int
    capacity: float
    unit_cost: float


@dataclass
class FlowNetwork:
    n_nodes: int
    source: int
    sink: int
    edges: list[NetworkEdge]
    target_value: float  # b = total demand
    cost_offset: float = 0.0


@dataclass
class EdgeProvenance:
    kind: str  # "branch" | "generator" | "consumer"
    index: int  # branch index or bus id
    sign: float = 1.0  # +1 along the branch's canonical orientation


@dataclass
class Provenance:
    node_of_bus: dict[int, int]
    edge_sources: list[EdgeProvenance] = field(default_factory=list)


@dataclass
class NetworkFlow:
    feasible: bool
    values: list[float]
    cost: float  # includes the network's cost offset
    achieved_value: float  # max s-t flow when infeasible, else the target


def split_segments(capacity: float, curve: PiecewiseLinearConvex, weight: float):
    """(width, weighted slope) pieces covering [0, capacity].

    Slopes are sorted ascending by convexity, so cheaper copies come first.
    """
    if math.isinf(capacity):
        if any(a > 0 for a, _ in curve.pieces) and weight > 0:
            raise UnboundedCapacityOnCostlyEdge(
                "positively sloped segment over unlimited capacity")
        return [(math.inf, 0.0)]
    if capacity <= 0:
        return []
    return [(w, weight * a) for w, a in curve.segments(cap=capacity)]


def reduce_to_network(grid: PowerGrid, lam: float) -> tuple[FlowNetwork, Provenance]:
    """Build the s-t network whose min-cost flow solves the flow model."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    b = grid.total_demand
    node_of_bus = {bus: i + 2 for i, bus in enumerate(grid.buses)}
    net = FlowNetwork(n_nodes=len(grid.buses) + 2, source=0, sink=1,
                      edges=[], target_value=b)
    prov = Provenance(node_of_bus)

    for bus, gen in sorted(grid.generators.items()):
        net.cost_offset += lam * gen.cost.value_at_zero
        for width, cost in split_segments(min(gen.capacity, b), gen.cost, lam):
            net.edges.append(NetworkEdge(net.source, node_of_bus[bus], width, cost))
            prov.edge_sources.append(EdgeProvenance("generator", bus))

    for i, br in enumerate(grid.branches):
        cap = min(br.capacity, b)
        pieces = split_segments(cap, br.loss, 1.0 - lam)
        for width, cost in pieces:
            net.edges.append(NetworkEdge(node_of_bus[br.u], node_of_bus[br.v], width, cost))
            prov.edge_sources.append(EdgeProvenance("branch", i, +1.0))
        for width, cost in pieces:
            net.edges.append(NetworkEdge(node_of_bus[br.v], node_of_bus[br.u], width, cost))
            prov.edge_sources.append(EdgeProvenance("branch", i, -1.0))

    for bus, demand in sorted(grid.consumers.items()):
        net.edges.append(NetworkEdge(node_of_bus[bus], net.sink, demand, 0.0))
        prov.edge_sources.append(EdgeProvenance("consumer", bus))

    return net, prov


def solve_mincost(net: FlowNetwork, eps: float = 1e-9) -> NetworkFlow:
    """Successive shortest augmenting paths with node potentials.

    Returns a flow of value exactly b with minimum cost, or an infeasible
    result carrying the maximum achievable s-t flow value.
    """
    n = net.n_nodes
    # arc arrays in residual pairs: arc 2k forward, 2k+1 backward
    heads: list[int] = []
    caps: list[float] = []
    costs: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in net.edges:
        if e.unit_cost < 0:
            raise ValueError("negative unit cost breaks the nonnegative-cost invariant")
        adj[e.tail].append(len(heads))
        heads.append(e.head)
        caps.append(e.capacity)
        costs.append(e.unit_cost)
        adj[e.head].append(len(heads))
        heads.append(e.tail)
        caps.append(0.0)
        costs.append(-e.unit_cost)

    potential = [0.0] * n
    pushed = 0.0
    total_cost = 0.0
    remaining = net.target_value

    while remaining > eps * (1 + net.target_value):
        dist = [math.inf] * n
        dist[net.source] = 0.0
        reached_arc: list[int] = [-1] * n
        heap: list[tuple[float, int]] = [(0.0, net.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + 1e-15:
                continue
            for a in adj[u]:
                if caps[a] <= eps:
                    continue
                v = heads[a]
                w = costs[a] + potential[u] - potential[v]
                if w < 0:
                    w = 0.0  # floating drift; exact reduced costs are >= 0
                if dist[u] + w < dist[v] - 1e-15:
                    dist[v] = dist[u] + w
                    reached_arc[v] = a
                    heapq.heappush(heap, (dist[v], v))
        if math.isinf(dist[net.sink]):
            return NetworkFlow(False, _forward_values(net, caps),
                               total_cost + net.cost_offset, pushed)
        for v in range(n):
            if not math.isinf(dist[v]):
                potential[v] += dist[v]
        # bottleneck along the path
        amount = remaining
        v = net.sink
        while v != net.source:
            a = reached_arc[v]
            amount = min(amount, caps[a])
            v = heads[a ^ 1]
        v = net.sink
        while v != net.source:
            a = reached_arc[v]
            caps[a] -= amount
            caps[a ^ 1] += amount
            total_cost += amount * costs[a]
            v = heads[a ^ 1]
        pushed += amount
        remaining -= amount

    return NetworkFlow(True, _forward_values(net, caps),
                       total_cost + net.cost_offset, pushed)


def _forward_values(net: FlowNetwork, caps: list[float]) -> list[float]:
    return [net.edges[k].capacity - caps[2 * k] for k in range(len(net.edges))]


def residual_has_negative_cycle(net: FlowNetwork, flow: NetworkFlow, tol: float = 1e-7) -> bool:
    """Bellman-Ford over the residual network: optimality certificate check."""
    n = net.n_nodes
    arcs = []
    for k, e in enumerate(net.edges):
        used = flow.values[k]
        if e.capacity - used > tol:
            arcs.append((e.tail, e.head, e.unit_cost))
        if used > tol:
            arcs.append((e.head, e.tail, -e.unit_cost))
    dist = [0.0] * n
    for _ in range(n):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v] - tol:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return False
    return True


def lift_flow(net_flow: NetworkFlow, prov: Provenance, grid: PowerGrid) -> Flow:
    """Recombine parallel copies into signed branch flows.

    Simultaneous flow on both directed copies of a branch cancels; with
    nonnegative slopes the cancellation never increases the grid cost.
    """
    values = [0.0] * len(grid.branches)
    for value, src in zip(net_flow.values, prov.edge_sources):
        if src.kind == "branch":
            values[src.index] += src.sign * value
    return Flow(grid, values)
