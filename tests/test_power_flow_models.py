from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gridctl.graph_algorithms import Multigraph
from gridctl.grid_model import (Branch, DomainExceeded, Flow, Generator,
                                PowerGrid, UnknownBus, check_feasible,
                                flow_cost, net_outflow)
from gridctl import lp_engine
from gridctl.lp_engine import LpStatus, NumericalBreakdown, solve_lp
from gridctl.power_flow_models import (AngleCheck, InfeasibleModel,
                                       ModelKind, NotACactus, NotACycle,
                                       build_lp, cactus_equivalent_flow,
                                       check_electrical_feasibility,
                                       cycle_equivalent_flow, electrical_model,
                                       flow_model, hybrid_model, solve_model)
from gridctl.pwl import constant_zero
from gridctl import case_io

from block_oracle import block_vertices, blocks, is_cactus
from conftest import (ALL_CASES, forest_feedback_set, get_case, linear_cost,
                      scipy_check, triangle_grid, two_bus_grid)
from dcopf_oracle import dcopf_generation_cost

# frozen output of the scipy/HiGHS B-theta oracle (tests/dcopf_oracle.py)
# for case30 at lambda = 1 with the default 5-point cost sampling
CASE30_DCOPF_GOLDEN = 566.8694


def test_flow_model_two_bus():
    grid = two_bus_grid(capacity=20.0, demand=10.0, slope=1.0)
    sol = solve_model(grid, flow_model(), 1.0)
    assert sol.objective == pytest.approx(10.0)
    assert sol.flow.values[0] == pytest.approx(10.0)
    assert sol.theta == {}  # every bus is controlled, so no bus has an angle


def test_electrical_equals_flow_on_tree():
    # tree topology: every flow is electrically realizable
    grid = PowerGrid(
        buses=[1, 2, 3, 4],
        branches=[Branch(1, 2, 50.0, 30.0), Branch(2, 3, 80.0, 30.0),
                  Branch(2, 4, 60.0, 30.0)],
        generators={1: Generator(40.0, linear_cost(2.0, 40.0))},
        consumers={3: 12.0, 4: 7.0},
    )
    f = solve_model(grid, flow_model(), 1.0)
    e = solve_model(grid, electrical_model(), 1.0)
    assert e.objective == pytest.approx(f.objective, rel=1e-9)
    assert e.theta is not None


def test_hybrid_all_buses_equals_flow_on_ieee_cases(ieee_grid):
    lam = 0.5
    f = solve_model(ieee_grid, flow_model(), lam)
    h = solve_model(ieee_grid, hybrid_model(ieee_grid.buses), lam)
    assert h.objective == pytest.approx(f.objective, rel=1e-6)


def test_hybrid_no_buses_equals_electrical(ieee_grid):
    lam = 0.5
    e = solve_model(ieee_grid, electrical_model(), lam)
    h = solve_model(ieee_grid, hybrid_model([]), lam)
    assert h.objective == pytest.approx(e.objective, rel=1e-6)


def test_unknown_control_bus_raises():
    grid = get_case("case9")
    with pytest.raises(UnknownBus):
        solve_model(grid, hybrid_model([999]), 1.0)
    with pytest.raises(UnknownBus):
        cactus_equivalent_flow(grid, [999], Flow(grid))


def test_a_nan_flow_fails_every_check():
    grid = get_case("case9")
    flow = Flow(grid, [math.nan] * len(grid.branches))
    report = check_feasible(grid, flow)
    assert not report.ok and len(report.violations) == len(grid.branches) + len(grid.buses)
    angles = check_electrical_feasibility(grid, flow, grid.buses)
    assert not angles.feasible and math.isnan(angles.max_residual)
    with pytest.raises(DomainExceeded):
        flow_cost(grid, flow, 0.5)


def test_case14_at_the_load_limit_gives_a_verdict():
    # about 1e-7 above the largest feasible demand factor (2.98223938): the
    # LP is infeasible by less than the engine's row tolerance, so it may
    # come back optimal with bus 3 producing 100.00018 of its 100 MW while
    # consuming 281 MW; either verdict is right, an exception of another
    # kind is not
    grid = get_case("case14")
    alpha = 2.9822400810635656
    scaled = PowerGrid(grid.buses, grid.branches, grid.generators,
                       {b: alpha * d for b, d in grid.consumers.items()},
                       grid.base_mva, grid.name)
    try:
        sol = solve_model(scaled, electrical_model(), 1.0)
    except InfeasibleModel:
        return
    assert sol.objective == pytest.approx(31402.297029968002, rel=1e-6)


def test_lambda_endpoint_optimality_case9():
    grid = get_case("case9")
    at1 = solve_model(grid, electrical_model(), 1.0)
    at0 = solve_model(grid, electrical_model(), 0.0)
    assert at1.costs.generation <= at0.costs.generation + 1e-6
    assert at0.costs.losses <= at1.costs.losses + 1e-6


def test_infeasible_grid_raises():
    grid = two_bus_grid(capacity=0.0, demand=10.0)
    with pytest.raises(InfeasibleModel):
        solve_model(grid, flow_model(), 1.0)


def test_case30_electrical_matches_external_dcopf_oracle():
    grid = get_case("case30")
    sol = solve_model(grid, electrical_model(), 1.0)
    assert sol.costs.generation == pytest.approx(CASE30_DCOPF_GOLDEN, rel=1e-2)
    # regenerate the oracle value live to guard against fixture drift
    raw = case_io.parse_case(case_io.read_case_text("case30"))
    live = dcopf_generation_cost(raw, points=5)
    assert live == pytest.approx(CASE30_DCOPF_GOLDEN, rel=1e-6)
    assert sol.costs.generation == pytest.approx(live, rel=1e-5)


def test_model_sandwich_objectives(ieee_grid):
    # flow <= hybrid(F) <= electrical for any F
    lam = 0.5
    f = solve_model(ieee_grid, flow_model(), lam).objective
    e = solve_model(ieee_grid, electrical_model(), lam).objective
    rng = random.Random(1)
    subset = rng.sample(list(ieee_grid.buses), k=max(1, len(ieee_grid.buses) // 5))
    h = solve_model(ieee_grid, hybrid_model(subset), lam).objective
    assert f <= h + 1e-6 * (1 + abs(h))
    assert h <= e + 1e-6 * (1 + abs(e))


def test_monotone_in_nested_control_sets():
    lam = 0.5
    rng = random.Random(7)
    for name in ("case14", "case30"):
        grid = get_case(name)
        for _ in range(3):
            buses = list(grid.buses)
            small = set(rng.sample(buses, k=3))
            big = small | set(rng.sample(buses, k=4))
            obj_small = solve_model(grid, hybrid_model(small), lam).objective
            obj_big = solve_model(grid, hybrid_model(big), lam).objective
            assert obj_small >= obj_big - 1e-6 * (1 + abs(obj_big))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", ALL_CASES)
def test_forest_feedback_controls_reach_the_flow_optimum(name, lam):
    # the native buses then span a forest, where every flow has angles
    grid = get_case(name)
    f = solve_model(grid, flow_model(), lam)
    h = solve_model(grid, hybrid_model(forest_feedback_set(name)), lam)
    assert h.objective == pytest.approx(f.objective, rel=1e-9)
    for sol in (f, h):  # the segment objective is the cost of the returned flow
        assert sol.objective == pytest.approx(sol.costs.weighted, rel=1e-9)


def _component_count(buses, branches) -> int:
    parent = {b: b for b in buses}

    def root(b):
        while parent[b] != b:
            b = parent[b]
        return b

    for br in branches:
        parent[root(br.u)] = root(br.v)
    return len({root(b) for b in buses})


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", ALL_CASES)
def test_lp_shape_of_the_segment_layout(name, lam):
    # the cost segments live in the columns' curves: one flow column per
    # branch, one production column per generator, one balance equality per
    # bus and one voltage-law row per independent native cycle
    grid = get_case(name)
    for kind in (flow_model(), electrical_model(), hybrid_model(grid.buses[::5])):
        lp, vmap = build_lp(grid, kind, lam)
        native = kind.native_vertices(grid)
        native_branches = [i for i, br in enumerate(grid.branches)
                           if br.u in native and br.v in native]
        cyclomatic = (len(native_branches) - len(native)
                      + _component_count(native, [grid.branches[i] for i in native_branches]))
        assert len(vmap.coupling_row) == cyclomatic
        assert lp.n_rows == len(grid.buses) + cyclomatic
        assert sorted(vmap.flow_var) == list(range(len(grid.branches)))
        assert set(vmap.gen_var) == set(grid.generators)
        assert sorted([*vmap.flow_var.values(), *vmap.gen_var.values()]) == list(range(lp.n_vars))
        assert set().union(*lp.rows) == set(range(lp.n_vars))

        # net(bus) - production = -demand
        for bus, row in vmap.balance_row.items():
            coeffs = {vmap.flow_var[i]: 1.0 if grid.branches[i].u == bus else -1.0
                      for i in grid.incident(bus)}
            if bus in vmap.gen_var:
                coeffs[vmap.gen_var[bus]] = -1.0
            assert (lp.rows[row], lp.senses[row], lp.rhs[row]) == (coeffs, "=", -grid.demand(bus))

        # a cycle row holds native flows only: 1.0 on its cotree flow and
        # +-B_c/B_e on the tree flows around the cycle
        col_branch = {col: i for i, col in vmap.flow_var.items()}
        for c, row in vmap.coupling_row.items():
            assert lp.senses[row] == "=" and lp.rhs[row] == 0.0
            assert lp.rows[row][vmap.flow_var[c]] == 1.0
            b_c = grid.branches[c].susceptance
            for col, a in lp.rows[row].items():
                e = col_branch[col]
                assert e in native_branches
                if e != c:
                    assert abs(a) == b_c / grid.branches[e].susceptance

        # a flow costs (1 - lambda) loss(|f|) on [-cap, cap] and a production
        # lambda cost(p) on [0, x_g], each less its value at 0, which the
        # constant holds; at lambda = 1 a flow, and at 0 a production, is
        # one segment of slope 0
        assert lp.obj_constant == pytest.approx(
            sum((1 - lam) * br.loss(0.0) for br in grid.branches)
            + sum(lam * gen.cost(0.0) for gen in grid.generators.values()), rel=1e-12)
        curves = [(vmap.flow_var[i], 1 - lam, lambda f, h=br.loss: h(abs(f)),
                   -br.capacity, br.capacity) for i, br in enumerate(grid.branches)]
        curves += [(vmap.gen_var[bus], lam, gen.cost, 0.0, gen.capacity)
                   for bus, gen in grid.generators.items()]
        for col, weight, fn, lower, upper in curves:
            assert (lp.lower[col], lp.upper[col]) == (lower, upper)
            if weight == 0.0:
                assert lp.slopes[lp.cost_at[col]:lp.cost_at[col + 1]] == [0.0]
            x = np.zeros(lp.n_vars)
            for t in np.linspace(max(lower, -1e3), min(upper, 1e3), 7):
                x[col] = t
                assert lp.objective_value(x) - lp.obj_constant == pytest.approx(
                    weight * (fn(t) - fn(0.0)), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", ALL_CASES)
def test_forest_feedback_lp_is_the_flow_lp(name, lam):
    # the paper's claim as an identity: with a forest feedback set
    # controlled, the native subgraph has no cycle, so the hybrid LP has no
    # coupling row and is the flow model's LP
    grid = get_case(name)
    hybrid, _ = build_lp(grid, hybrid_model(forest_feedback_set(name)), lam)
    flow, _ = build_lp(grid, flow_model(), lam)
    assert hybrid.rows == flow.rows
    assert (hybrid.senses, hybrid.rhs) == (flow.senses, flow.rhs)
    assert (hybrid.lower, hybrid.upper) == (flow.lower, flow.upper)
    assert (hybrid.cost_at, hybrid.slopes, hybrid.breaks, hybrid.obj_constant) == (
        flow.cost_at, flow.slopes, flow.breaks, flow.obj_constant)


def test_a_solver_point_off_the_voltage_law_raises(monkeypatch):
    # move one cotree flow of the optimum by 1e-3: its cycle then breaks the
    # DC coupling, and solve_model must say so rather than return the flow
    grid = get_case("case9")
    lp, vmap = build_lp(grid, electrical_model(), 1.0)
    c = min(vmap.coupling_row)
    optimum = solve_lp(lp)
    values = optimum.values.copy()
    values[vmap.flow_var[c]] += 1e-3
    monkeypatch.setattr(lp_engine, "solve_lp",
                        lambda _lp: dataclasses.replace(optimum, values=values))
    with pytest.raises(NumericalBreakdown, match="coupling"):
        solve_model(grid, electrical_model(), 1.0)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", ALL_CASES)
def test_bundled_lps_match_highs(name, lam):
    # the in-house simplex against HiGHS on every bundled dispatch LP
    grid = get_case(name)
    highs_status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    for kind in (flow_model(), electrical_model(), hybrid_model(grid.buses[::5])):
        lp, _vmap = build_lp(grid, kind, lam)
        sol = solve_lp(lp)
        ref = scipy_check(lp)
        assert sol.status == highs_status[ref.status], kind.name
        if ref.status == 0:
            assert sol.objective == pytest.approx(ref.fun + lp.obj_constant, rel=1e-7), kind.name


# -- electrical feasibility of fixed flows ------------------------------------


def test_any_flow_on_forest_native_grid_is_electrically_feasible():
    grid = PowerGrid(
        buses=[1, 2, 3, 4],
        branches=[Branch(1, 2, 5.0), Branch(2, 3, 7.0), Branch(2, 4, 3.0)],
        generators={}, consumers={},
    )
    flow = Flow(grid, [4.0, -2.0, 11.0])
    res = check_electrical_feasibility(grid, flow, grid.buses)
    assert res.feasible and res.max_residual <= 1e-9


def test_triangle_circulation_violates_kvl():
    grid = triangle_grid(b=(1.0, 1.0, 1.0))
    flow = Flow(grid, [3.0, 0.0, 0.0])
    res = check_electrical_feasibility(grid, flow, grid.buses)
    assert not res.feasible
    assert sorted(res.violated_cycle) == [0, 1, 2]


def test_triangle_nonuniform_kvl_violation_reports_cycle():
    # sum f/B around the cycle is 2/2 - 1/4 - 1/4 = 0.5, so no angles exist;
    # the closing branch 2-3 misses the coupling by 0.5 * B(2,3) = 2
    grid = triangle_grid(b=(2.0, 4.0, 4.0))
    flow = Flow(grid, [2.0, -1.0, -1.0])
    res = check_electrical_feasibility(grid, flow, grid.buses)
    assert not res.feasible
    assert sorted(res.violated_cycle) == [0, 1, 2]
    assert res.max_residual == pytest.approx(2.0)


def test_triangle_balanced_flow_has_angles():
    # oracle: solve the 3x3 linear system f = B (theta_u - theta_v) directly
    grid = triangle_grid(b=(1.0, 1.0, 1.0))
    flow = Flow(grid, [2.0, -1.0, -1.0])  # f(1,2)=2, f(2,3)=-1, f(3,1)=-1
    res = check_electrical_feasibility(grid, flow, grid.buses)
    assert res.feasible
    th = res.theta
    a = np.array([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], dtype=float)
    b = np.array([2.0, -1.0, -1.0])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    gauge = x[0] - th[1]
    for bus, k in ((1, 0), (2, 1), (3, 2)):
        assert th[bus] == pytest.approx(x[k] - gauge, abs=1e-9)


def test_native_subset_ignores_controller_branches():
    grid = triangle_grid()
    flow = Flow(grid, [5.0, 0.0, 0.0])
    res = check_electrical_feasibility(grid, flow, [1, 2])  # bus 3 controlled
    assert res.feasible  # only branch 1-2 remains native


def test_angle_gauge_invariance():
    grid = triangle_grid(b=(2.0, 4.0, 4.0))
    # f = B (theta_u - theta_v) with theta = (0, -0.5, -0.25)
    flow = Flow(grid, [1.0, -1.0, -1.0])
    # precondition: the flow obeys the cycle law around 1 -> 2 -> 3 -> 1
    kvl = sum(f / br.susceptance for f, br in zip(flow.values, grid.branches))
    assert kvl == pytest.approx(0.0, abs=1e-12)
    res = check_electrical_feasibility(grid, flow, grid.buses)
    assert res.feasible
    assert res.theta[1] == 0.0  # gauge fixed at the component's lowest bus
    shifted = {bus: th + 13.7 for bus, th in res.theta.items()}
    for i, br in enumerate(grid.branches):
        for th in (res.theta, shifted):
            resid = flow.values[i] - br.susceptance * (th[br.u] - th[br.v])
            assert abs(resid) <= 1e-9


def random_forest_grid(rng: random.Random, n: int) -> PowerGrid:
    branches = []
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        branches.append(Branch(u, v, rng.uniform(0.5, 50.0)))
    return PowerGrid(range(1, n + 1), branches, {}, {})


def test_theorem_suite_forests_always_feasible():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 14)
        grid = random_forest_grid(rng, n)
        flow = Flow(grid, [rng.uniform(-40, 40) for _ in grid.branches])
        res = check_electrical_feasibility(grid, flow, grid.buses)
        assert res.feasible
        assert res.max_residual <= 1e-9
        # recovered angles satisfy the coupling on every branch
        for i, br in enumerate(grid.branches):
            resid = flow.values[i] - br.susceptance * (res.theta[br.u] - res.theta[br.v])
            assert abs(resid) <= 1e-9 * (1 + abs(flow.values[i]))


# -- cycle shifts (the unique equivalent feasible cycle flow) -------------------


def cycle_edges(bs, fs):
    """Susceptances and oriented flows of the cycle 1 -> 2 -> ... -> n -> 1."""
    return list(bs), list(fs)


def solve_cycle_system(bs, fs):
    """Oracle: solve the full (theta, delta) linear system of the cycle."""
    n = len(bs)
    a = np.zeros((n, n + 1))
    rhs = np.array(fs, dtype=float)
    for i in range(n):
        a[i, i] += bs[i]
        a[i, (i + 1) % n] -= bs[i]
        a[i, n] = -1.0
    sol, residuals, rank, _sv = np.linalg.lstsq(a, rhs, rcond=None)
    # delta is unique even though theta has the gauge freedom
    return sol[n]


def test_cycle_shift_b_uniform():
    delta, shifted = cycle_equivalent_flow(*cycle_edges([1.0, 1.0, 1.0], [3.0, 0.0, 0.0]))
    assert delta == pytest.approx(-1.0)
    assert shifted == pytest.approx([2.0, -1.0, -1.0])
    assert delta == pytest.approx(solve_cycle_system([1, 1, 1], [3, 0, 0]))


def test_cycle_shift_already_feasible():
    bs, fs = [2.0, 5.0, 3.0], [1.0, 1.0, 1.0]
    target = sum(f / b for f, b in zip(fs, bs))
    fs = [f - target / sum(1 / b for b in bs) * 1.0 for f in fs]  # nearly balanced
    bs2 = [1.0, 1.0, 1.0]
    fs2 = [0.5, 0.5, 0.5]
    fs2 = [0.5, -0.25, -0.25]
    delta, shifted = cycle_equivalent_flow(*cycle_edges(bs2, [0.0, 0.0, 0.0]))
    assert delta == 0.0
    assert shifted == [0.0, 0.0, 0.0]


def test_cycle_shift_mixed_susceptances():
    delta, shifted = cycle_equivalent_flow(*cycle_edges([1.0, 2.0, 2.0], [4.0, 4.0, 4.0]))
    assert delta == pytest.approx(-(4 + 2 + 2) / (1 + 0.5 + 0.5)) == pytest.approx(-4.0)
    assert shifted == pytest.approx([0.0, 0.0, 0.0])
    assert delta == pytest.approx(solve_cycle_system([1.0, 2.0, 2.0], [4.0, 4.0, 4.0]))


def test_not_a_cycle_rejected():
    with pytest.raises(NotACycle):
        cycle_equivalent_flow([1.0], [0.0])
    with pytest.raises(NotACycle):
        cycle_equivalent_flow([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):  # one flow per susceptance
        cycle_equivalent_flow([1.0, 1.0], [0.0])


def test_lemma_suite_random_cycles():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 12)
        bs = [rng.uniform(0.1, 10.0) for _ in range(n)]
        fs = [rng.uniform(-30.0, 30.0) for _ in range(n)]
        delta, shifted = cycle_equivalent_flow(*cycle_edges(bs, fs))
        # closed form matches the direct linear-system solve
        assert delta == pytest.approx(solve_cycle_system(bs, fs), abs=1e-9 * (1 + abs(delta)))
        # cycle coupling residual vanishes
        assert sum(f / b for f, b in zip(shifted, bs)) == pytest.approx(0.0, abs=1e-9)
        # net out-flows are preserved: every vertex gains and loses delta
        for k in range(n):
            before = fs[k] - fs[k - 1]
            after = shifted[k] - shifted[k - 1]
            assert after == pytest.approx(before, abs=1e-9)
        # susceptance-ratio bound applies to nonnegative cycle flows
        fs_pos = [abs(f) for f in fs]
        d_pos, _ = cycle_equivalent_flow(*cycle_edges(bs, fs_pos))
        bound = (max(bs) / min(bs)) * sum(fs_pos) / n
        assert abs(d_pos) <= bound + 1e-9


# -- cactus transformation ------------------------------------------------------


def two_triangles_grid() -> PowerGrid:
    return PowerGrid(
        buses=[1, 2, 3, 4, 5],
        branches=[
            Branch(1, 2, 1.0), Branch(2, 3, 1.0), Branch(3, 1, 1.0),
            Branch(3, 4, 2.0), Branch(4, 5, 2.0), Branch(5, 3, 2.0),
        ],
        generators={}, consumers={},
    )


def test_cactus_shift_preserves_net_outflows_two_triangles():
    grid = two_triangles_grid()
    flow = Flow(grid, [3.0, 0.0, 0.0, 5.0, 2.0, 2.0])
    shifted, violations = cactus_equivalent_flow(grid, [], flow)
    for bus in grid.buses:
        assert net_outflow(grid, shifted, bus) == pytest.approx(
            net_outflow(grid, flow, bus), abs=1e-9)
    res = check_electrical_feasibility(grid, shifted, grid.buses)
    assert res.feasible


def test_feedback_control_set_means_no_cycles_to_shift():
    grid = triangle_grid()
    flow = Flow(grid, [3.0, 0.0, 0.0])
    shifted, violations = cactus_equivalent_flow(grid, [2], flow)
    assert shifted.values == flow.values  # native part is a path


def test_not_a_cactus_rejected():
    # theta graph: two vertices joined by three paths
    grid = PowerGrid(
        buses=[1, 2, 3, 4],
        branches=[Branch(1, 2, 1.0), Branch(1, 3, 1.0), Branch(3, 2, 1.0),
                  Branch(1, 4, 1.0), Branch(4, 2, 1.0)],
        generators={}, consumers={},
    )
    with pytest.raises(NotACactus):
        cactus_equivalent_flow(grid, [], Flow(grid))


def test_capacity_violations_reported_not_hidden():
    grid = triangle_grid(b=(1.0, 1.0, 1.0), caps=(10.0, 1.0, 10.0))
    flow = Flow(grid, [3.0, 0.0, 0.0])
    shifted, violations = cactus_equivalent_flow(grid, [], flow)
    # shift moves branch 2-3 to -1: right at capacity; tighten to trigger
    grid2 = triangle_grid(b=(1.0, 1.0, 1.0), caps=(10.0, 0.5, 10.0))
    shifted2, violations2 = cactus_equivalent_flow(grid2, [], flow)
    assert any(v.subject == 1 for v in violations2)


def random_cactus_grid(rng: random.Random):
    """Grow a cactus by sprouting cycles and bridges off existing vertices."""
    buses = [1]
    branches: list[Branch] = []
    next_bus = 2
    for _ in range(rng.randint(1, 5)):
        anchor = rng.choice(buses)
        if rng.random() < 0.7:  # cycle of length 2..6
            length = rng.randint(2, 6)
            ring = [anchor]
            for _ in range(length - 1):
                ring.append(next_bus)
                buses.append(next_bus)
                next_bus += 1
            for a, b in zip(ring, ring[1:] + [anchor]):
                branches.append(Branch(a, b, rng.uniform(0.2, 8.0)))
        else:  # bridge
            branches.append(Branch(anchor, next_bus, rng.uniform(0.2, 8.0)))
            buses.append(next_bus)
            next_bus += 1
    return PowerGrid(buses, branches, {}, {})


def test_theorem_suite_random_cacti():
    rng = random.Random(31337)
    for _ in range(200):
        grid = random_cactus_grid(rng)
        flow = Flow(grid, [rng.uniform(-20, 20) for _ in grid.branches])
        # random control set outside the structure: add extra controlled buses
        controls = [b for b in grid.buses if rng.random() < 0.2]
        native = [b for b in grid.buses if b not in controls]
        try:
            shifted, _violations = cactus_equivalent_flow(grid, controls, flow)
        except NotACactus:
            pytest.fail("subgraph of a cactus must stay a cactus")
        for bus in grid.buses:
            assert net_outflow(grid, shifted, bus) == pytest.approx(
                net_outflow(grid, flow, bus), abs=1e-8)
        res = check_electrical_feasibility(grid, shifted, native, tol=1e-8)
        assert res.feasible


def assert_closed_walk(grid: PowerGrid, cycle: list[int]):
    """Consecutive branches share a bus and the last meets the first."""
    first, last = grid.branches[cycle[0]], grid.branches[cycle[-1]]
    start = first.u if first.u in (last.u, last.v) else first.v
    bus = start
    for i in cycle:
        assert bus in (grid.branches[i].u, grid.branches[i].v)
        bus = grid.branches[i].other(bus)
    assert bus == start


def test_cactus_shift_raises_exactly_off_cacti():
    # The shift relies on the fundamental cycles of a spanning forest being
    # pairwise edge-disjoint exactly when the graph is a cactus. Parallel
    # branches make 2-cycles; the controls cut random buses out.
    rng = random.Random(4711)
    shifted = rejected = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1) if rng.random() < 0.9]
        for _ in range(rng.randint(0, 4)):
            edges.append(tuple(rng.sample(range(1, n + 1), 2)))
        for _ in range(rng.randint(0, 2)):
            if edges:
                edges.append(rng.choice(edges))
        grid = PowerGrid(range(1, n + 1), [Branch(u, v, rng.uniform(0.2, 8.0)) for u, v in edges],
                         {}, {})
        flow = Flow(grid, [rng.uniform(-20.0, 20.0) for _ in edges])
        controls = [b for b in grid.buses if rng.random() < 0.2]
        native = set(grid.buses) - set(controls)
        sub = Multigraph(native, [(u, v) for u, v in edges if u in native and v in native])
        res = check_electrical_feasibility(grid, flow, native)
        if not res.feasible:
            assert_closed_walk(grid, res.violated_cycle)
        try:
            new_flow, _violations = cactus_equivalent_flow(grid, controls, flow)
        except NotACactus:
            assert not is_cactus(sub)
            rejected += 1
            continue
        assert is_cactus(sub)
        assert check_electrical_feasibility(grid, new_flow, native, tol=1e-8).feasible
        shifted += 1
    assert shifted > 100 and rejected > 100


# -- block decomposition vs whole-graph angle recovery (cutvertex argument) ------


def test_blockwise_feasibility_matches_whole_graph():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 9)
        edges = []
        for v in range(2, n + 1):
            edges.append((rng.randint(1, v - 1), v))
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(1, n + 1), 2)
            edges.append((u, v))
        branches = [Branch(u, v, rng.uniform(0.5, 5.0)) for u, v in edges]
        grid = PowerGrid(range(1, n + 1), branches, {}, {})
        flow = Flow(grid, [rng.uniform(-10, 10) for _ in branches])
        whole = check_electrical_feasibility(grid, flow, grid.buses, tol=1e-7)
        sub = Multigraph(grid.buses, grid.edges())
        per_block = True
        for block in blocks(sub):
            ok = _block_feasible(grid, flow, block_vertices(sub, block), block, tol=1e-7)
            per_block = per_block and ok
        assert whole.feasible == per_block


def _block_feasible(grid, flow, buses, edge_indices, tol):
    sub_branches = []
    sub_values = []
    for i in sorted(edge_indices):
        br = grid.branches[i]
        sub_branches.append(br)
        sub_values.append(flow.values[i])
    sub_grid = PowerGrid(buses, sub_branches, {}, {})
    sub_flow = Flow(sub_grid, sub_values)
    return check_electrical_feasibility(sub_grid, sub_flow, buses, tol=tol).feasible


def test_package_loads_numpy_only():
    # Importing scipy costs about as much start-up as numpy itself, so no
    # gridctl module and no solve may pull it in; networkx, the tests' block
    # oracle, stays out too.
    script = textwrap.dedent("""
        import importlib, pkgutil, sys, warnings
        import gridctl
        for module in pkgutil.iter_modules(gridctl.__path__):
            importlib.import_module("gridctl." + module.name)
        from gridctl.power_flow_models import electrical_model, solve_model
        warnings.simplefilter("ignore")
        solve_model(gridctl.load_case("case9"), electrical_model(), 1.0)
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] in ("scipy", "networkx")))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(case_io.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
