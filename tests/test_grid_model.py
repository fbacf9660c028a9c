from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridctl.grid_model import (Branch, DomainExceeded, Flow, Generator,
                                PowerGrid, UnknownBus, check_feasible,
                                flow_cost, net_outflow)
from gridctl.pwl import PiecewiseLinearConvex

from conftest import linear_cost, triangle_grid, two_bus_grid


def test_net_outflow_antisymmetry():
    grid = two_bus_grid()
    flow = Flow(grid, [10.0])
    assert net_outflow(grid, flow, 1) == 10.0
    assert net_outflow(grid, flow, 2) == -10.0


def test_net_outflow_isolated_bus_is_zero():
    grid = PowerGrid([1, 2, 3], [Branch(1, 2, 1.0)], {}, {})
    flow = Flow(grid, [5.0])
    assert net_outflow(grid, flow, 3) == 0.0


def test_net_outflow_circulation_cancels():
    grid = triangle_grid()
    flow = Flow(grid, [3.0, 3.0, 3.0])  # 1->2->3->1
    for bus in (1, 2, 3):
        assert net_outflow(grid, flow, bus) == pytest.approx(0.0)


def test_net_outflow_unknown_bus():
    grid = two_bus_grid()
    with pytest.raises(UnknownBus):
        net_outflow(grid, Flow(grid), 99)


def test_unserved_consumer_reported():
    grid = two_bus_grid(demand=5.0)
    report = check_feasible(grid, Flow(grid))
    kinds = {(v.kind, v.subject): v.magnitude for v in report.violations}
    assert kinds[("consumer", 2)] == pytest.approx(5.0)


@pytest.mark.parametrize("leak, reported", [(1e-3, True), (1e-7, False)])
def test_pass_through_bus_leak_is_a_conservation_violation(leak, reported):
    # path 1-2-3 with unlimited lines; bus 2 has neither generator nor
    # consumer and sends on `leak` more than it receives
    grid = PowerGrid(
        buses=[1, 2, 3],
        branches=[Branch(1, 2, 10.0), Branch(2, 3, 10.0)],
        generators={1: Generator(10.0, linear_cost(1.0, 10.0))},
        consumers={3: 1.0 + leak},
    )
    report = check_feasible(grid, Flow(grid, [1.0, 1.0 + leak]))
    if reported:
        ((kind, subject, magnitude),) = report.violations
        assert (kind, subject) == ("conservation", 2)
        assert magnitude == pytest.approx(leak, rel=1e-9)
    else:
        assert report.ok


def test_capacity_violation_magnitude():
    grid = two_bus_grid(capacity=20.0, demand=21.0)
    flow = Flow(grid, [21.0])
    report = check_feasible(grid, flow)
    caps = [v for v in report.violations if v.kind == "capacity"]
    assert len(caps) == 1 and caps[0].magnitude == pytest.approx(1.0)


def test_feasible_flow_has_empty_report():
    grid = two_bus_grid(demand=10.0)
    report = check_feasible(grid, Flow(grid, [10.0]), tol=1e-6)
    assert report.ok


def test_generator_bound_violation():
    grid = two_bus_grid(capacity=1000.0, demand=10.0)
    flow = Flow(grid, [150.0])  # production 150 > 100
    report = check_feasible(grid, flow)
    assert any(v.kind == "generator" and v.subject == 1 for v in report.violations)
    assert any(v.kind == "consumer" for v in report.violations)


def test_overlapping_generator_and_consumer_bus():
    # generator bus with local demand: admissible f_net window is [-d, x - d]
    grid = PowerGrid(
        buses=[1, 2],
        branches=[Branch(1, 2, 100.0)],
        generators={1: Generator(100.0, linear_cost(2.0, 100.0))},
        consumers={1: 30.0, 2: 10.0},
    )
    assert grid.net_outflow_bounds(1) == (-30.0, 70.0)
    flow = Flow(grid, [10.0])
    assert check_feasible(grid, flow).ok
    costs = flow_cost(grid, flow, 1.0)
    assert costs.generation == pytest.approx(2.0 * 40.0)  # production = 10 + 30


def test_flow_cost_lambda_endpoints():
    grid = two_bus_grid(demand=10.0, slope=2.0)
    flow = Flow(grid, [10.0])
    c = flow_cost(grid, flow, 1.0)
    assert c.weighted == pytest.approx(c.generation)
    c0 = flow_cost(grid, flow, 0.0)
    assert c0.weighted == pytest.approx(c0.losses)


def test_flow_cost_direct_evaluation():
    grid = PowerGrid(
        buses=[1, 2],
        branches=[Branch(1, 2, 100.0)],
        generators={1: Generator(100.0, linear_cost(2.0, 100.0))},
        consumers={2: 50.0},
    )
    flow = Flow(grid, [50.0])
    c = flow_cost(grid, flow, 0.5)
    assert c == pytest.approx((100.0, 0.0, 50.0))


def test_flow_cost_is_affine_in_lambda():
    lossy = Branch(1, 2, 100.0, 20.0,
                   PiecewiseLinearConvex(((0.5, 0.0), (1.5, -5.0)), 20.0))
    grid = PowerGrid([1, 2], [lossy], {1: Generator(100.0, linear_cost(1.0, 100.0))}, {2: 10.0})
    flow = Flow(grid, [10.0])
    vals = [flow_cost(grid, flow, lam).weighted for lam in (0.0, 0.5, 1.0)]
    assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2)


def test_domain_exceeded():
    grid = two_bus_grid(demand=10.0)
    flow = Flow(grid, [150.0])
    with pytest.raises(DomainExceeded):
        flow_cost(grid, flow, 1.0)


def test_domain_slack_scales_with_the_demand_at_a_generator_bus():
    # bus 1 produces 10 MW at most and consumes 1000 MW, so its net outflow
    # window is [-1000, -990]: check_feasible's scale there is 1 + 1000
    grid = PowerGrid(
        buses=[1, 2],
        branches=[Branch(1, 2, 100.0)],
        generators={1: Generator(10.0, linear_cost(1.0, 10.0)),
                    2: Generator(2000.0, linear_cost(2.0, 2000.0))},
        consumers={1: 1000.0},
    )
    over = Flow(grid, [-990.0 + 5e-4])  # bus 1 produces 10.0005 MW
    assert check_feasible(grid, over).ok
    assert flow_cost(grid, over, 1.0).generation == pytest.approx(10.0 + 2.0 * (990.0 - 5e-4))
    far_over = Flow(grid, [-990.0 + 2e-3])
    assert not check_feasible(grid, far_over).ok
    with pytest.raises(DomainExceeded):
        flow_cost(grid, far_over, 1.0)


def test_parallel_branches_have_independent_flows():
    grid = PowerGrid(
        buses=[1, 2],
        branches=[Branch(1, 2, 1.0), Branch(1, 2, 2.0)],
        generators={}, consumers={},
    )
    flow = Flow(grid, [4.0, -1.0])
    assert net_outflow(grid, flow, 1) == pytest.approx(3.0)
    assert net_outflow(grid, flow, 2) == pytest.approx(-3.0)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Branch(3, 3, 1.0)


@settings(max_examples=100, deadline=None)
@given(gen_flow=st.floats(0.0, 100.0))
def test_feasible_implies_generation_equals_demand(gen_flow):
    # balance never includes losses: a feasible flow has production == demand
    grid = two_bus_grid(capacity=200.0, demand=float(f"{gen_flow:.6f}") or 1.0)
    demand = grid.total_demand
    flow = Flow(grid, [demand])
    report = check_feasible(grid, flow)
    assert report.ok
    production = sum(net_outflow(grid, flow, g) + grid.demand(g) for g in grid.generators)
    assert production == pytest.approx(demand)
