from __future__ import annotations

import itertools
import math

import pytest

from gridctl.grid_model import Branch, Flow, Generator, PowerGrid, check_feasible, flow_cost
from mincost_flow import (FlowNetwork, NetworkEdge, UnboundedCapacityOnCostlyEdge,
                          lift_flow, reduce_to_network,
                          residual_has_negative_cycle, solve_mincost,
                          split_segments)
from gridctl.pwl import PiecewiseLinearConvex, constant_zero, from_samples

from conftest import ALL_CASES, get_case, linear_cost, two_bus_grid


def test_lossless_two_bus_reduction_shape():
    grid = two_bus_grid(demand=10.0, slope=2.0)
    net, prov = reduce_to_network(grid, lam=0.5)
    # s->g (one linear piece), two directed branch copies, consumer->t
    assert len(net.edges) == 1 + 2 + 1
    assert net.target_value == 10.0
    gen_edge = net.edges[0]
    assert gen_edge.unit_cost == pytest.approx(0.5 * 2.0)
    assert all(e.unit_cost == 0.0 for e in net.edges[1:])


def test_piecewise_branch_copies_cheaper_first():
    loss = PiecewiseLinearConvex(((1.0, 0.0), (3.0, -20.0)), 20.0)  # breakpoint at 10
    grid = PowerGrid(
        buses=[1, 2],
        branches=[Branch(1, 2, 100.0, 20.0, loss)],
        generators={1: Generator(40.0, linear_cost(1.0, 40.0))},
        consumers={2: 15.0},
    )
    net, prov = reduce_to_network(grid, lam=0.0)
    branch_edges = [e for e, src in zip(net.edges, prov.edge_sources) if src.kind == "branch"]
    assert len(branch_edges) == 4  # two copies x two pieces
    fwd = branch_edges[:2]
    # total copy capacity = min(line capacity, total demand) = 15
    assert [e.capacity for e in fwd] == pytest.approx([10.0, 5.0])
    assert [e.unit_cost for e in fwd] == pytest.approx([1.0, 3.0])


def test_edge_count_formula_on_ieee_cases():
    for name in ALL_CASES:
        grid = get_case(name)
        net, _ = reduce_to_network(grid, lam=0.5)
        b = grid.total_demand
        expected = sum(len(br.loss.segments(cap=min(br.capacity, b))) * 2
                       for br in grid.branches)
        expected += sum(len(g.cost.segments(cap=min(g.capacity, b)))
                        for g in grid.generators.values())
        expected += len(grid.consumers)
        assert len(net.edges) == expected


def test_unbounded_costly_segment_rejected():
    costly = PiecewiseLinearConvex(((2.0, 0.0),), math.inf)
    with pytest.raises(UnboundedCapacityOnCostlyEdge):
        split_segments(math.inf, costly, weight=1.0)
    # zero-slope over unlimited capacity is fine
    assert split_segments(math.inf, constant_zero(), weight=1.0) == [(math.inf, 0.0)]


def diamond_network() -> FlowNetwork:
    # two s-t paths: cost 1 and cost 2, capacity 5 each
    return FlowNetwork(
        n_nodes=4, source=0, sink=1,
        edges=[
            NetworkEdge(0, 2, 5.0, 0.0),
            NetworkEdge(2, 1, 5.0, 1.0),
            NetworkEdge(0, 3, 5.0, 0.0),
            NetworkEdge(3, 1, 5.0, 2.0),
        ],
        target_value=8.0,
    )


def brute_force_diamond(b: float) -> float:
    best = math.inf
    steps = 400
    for k in range(steps + 1):
        x = min(5.0, b) * k / steps
        y = b - x
        if y < -1e-12 or y > 5.0:
            continue
        best = min(best, 1.0 * x + 2.0 * y)
    return best


def test_diamond_matches_path_split_enumeration():
    net = diamond_network()
    res = solve_mincost(net)
    assert res.feasible
    assert res.cost == pytest.approx(brute_force_diamond(8.0)) == pytest.approx(11.0)
    assert not residual_has_negative_cycle(net, res)


def test_zero_target_zero_flow():
    net = diamond_network()
    net.target_value = 0.0
    res = solve_mincost(net)
    assert res.feasible and res.cost == 0.0
    assert all(v == 0.0 for v in res.values)


def test_demand_above_capacity_infeasible_with_max_flow():
    net = diamond_network()
    net.target_value = 40.0
    res = solve_mincost(net)
    assert not res.feasible
    assert res.achieved_value == pytest.approx(10.0)


def test_infeasible_when_generation_short():
    grid = two_bus_grid(demand=10.0)
    grid = PowerGrid(grid.buses, grid.branches,
                     {1: Generator(4.0, linear_cost(1.0, 4.0))}, grid.consumers)
    net, _ = reduce_to_network(grid, 1.0)
    res = solve_mincost(net)
    assert not res.feasible
    assert res.achieved_value == pytest.approx(4.0)


def test_lift_flow_feasible_and_cost_equal_on_ieee_cases():
    for name in ALL_CASES:
        grid = get_case(name)
        for lam in (0.0, 0.5, 1.0):
            net, prov = reduce_to_network(grid, lam)
            res = solve_mincost(net)
            assert res.feasible, f"{name} lam={lam}"
            flow = lift_flow(res, prov, grid)
            assert check_feasible(grid, flow, tol=1e-6).ok, f"{name} lam={lam}"
            costs = flow_cost(grid, flow, lam)
            assert costs.weighted == pytest.approx(res.cost, rel=1e-6, abs=1e-6), \
                f"{name} lam={lam}"


def test_saturation_order_respects_slopes():
    # convex split: an optimal flow uses cheaper parallel copies first
    grid = get_case("case30")
    net, prov = reduce_to_network(grid, 0.5)
    res = solve_mincost(net)
    groups: dict[tuple[str, int, float], list[tuple[float, float, float]]] = {}
    for e, v, src in zip(net.edges, res.values, prov.edge_sources):
        if src.kind == "branch":
            groups.setdefault((src.kind, src.index, src.sign), []).append(
                (e.unit_cost, e.capacity, v))
    for group in groups.values():
        group.sort()
        seen_partial = False
        for cost, cap, used in group:
            if used < cap - 1e-9:
                seen_partial = True
            elif seen_partial and used > 1e-9:
                pytest.fail("costlier copy used while cheaper copy unsaturated")


def test_cancellation_never_increases_grid_cost():
    # force flow on both directed copies of one branch, lift, compare
    loss = from_samples(lambda f: 0.02 * f * f, 20.0, 3)
    grid = PowerGrid([1, 2], [Branch(1, 2, 100.0, 20.0, loss)],
                     {1: Generator(100.0, linear_cost(1.0, 100.0))}, {2: 10.0})
    net, prov = reduce_to_network(grid, 0.5)
    res = solve_mincost(net)
    assert res.feasible
    # adversarial: push 3 units around the 1->2->1 loop on top of the optimum
    values = list(res.values)
    fwd = [k for k, s in enumerate(prov.edge_sources) if s.kind == "branch" and s.sign > 0]
    rev = [k for k, s in enumerate(prov.edge_sources) if s.kind == "branch" and s.sign < 0]
    values[fwd[-1]] += 3.0
    values[rev[-1]] += 3.0
    circ_cost = res.cost + 3.0 * (net.edges[fwd[-1]].unit_cost + net.edges[rev[-1]].unit_cost)
    adversarial = type(res)(True, values, circ_cost, res.achieved_value)
    lifted = lift_flow(adversarial, prov, grid)
    assert flow_cost(grid, lifted, 0.5).weighted <= circ_cost + 1e-9


def test_gen_cost_constant_lands_in_offset():
    cost = PiecewiseLinearConvex(((2.0, 100.0),), 50.0)  # gamma(0) = 100
    grid = PowerGrid(
        buses=[1, 2],
        branches=[Branch(1, 2, 100.0, 50.0)],
        generators={1: Generator(50.0, cost)},
        consumers={2: 10.0},
    )
    net, prov = reduce_to_network(grid, 1.0)
    assert net.cost_offset == pytest.approx(100.0)
    res = solve_mincost(net)
    lifted = lift_flow(res, prov, grid)
    assert flow_cost(grid, lifted, 1.0).weighted == pytest.approx(res.cost)
