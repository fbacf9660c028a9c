"""The benchmark's checks reject corrupted outputs; every workload runs clean.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import networkx as nx
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gridctl import load_case  # noqa: E402
from gridctl import graph_algorithms as ga  # noqa: E402
from gridctl import lp_engine  # noqa: E402
from gridctl import power_flow_models as pfm  # noqa: E402
from gridctl.grid_model import Branch, Generator, PowerGrid  # noqa: E402
from gridctl.pwl import PiecewiseLinearConvex  # noqa: E402


def two_bus_grid():
    """Generator (100 MW, cost 1/MW) at bus 1, 10 MW demand at bus 2, 20 MW line."""
    return PowerGrid(buses=[1, 2], branches=[Branch(1, 2, 100.0, 20.0)],
                     generators={1: Generator(100.0, PiecewiseLinearConvex(((1.0, 0.0),), 100.0))},
                     consumers={2: 10.0})


# -- the references on inputs small enough to solve by hand --------------------


def test_reference_dispatch_and_max_load_on_two_buses():
    grid = two_bus_grid()
    assert ref.dispatch_objective(grid, grid.buses, 1.0) == pytest.approx(10.0)
    assert ref.dispatch_objective(grid, (), 1.0) == pytest.approx(10.0)
    # the 20 MW line, not the 100 MW generator, limits the demand factor
    assert ref.max_load_factor(grid, (), 10.0) == pytest.approx(2.0)


@pytest.mark.parametrize("graph, cover, forest, cactus", [
    (nx.cycle_graph(3), 2, 1, 0),
    (nx.complete_graph(4), 3, 2, 1),
    (nx.path_graph(5), 2, 0, 0),
])
def test_reference_ilp_sizes_on_small_graphs(graph, cover, forest, cactus):
    assert ref.min_cover_size(graph) == cover
    assert ref.min_feedback_size(graph, "forest") == forest
    assert ref.min_feedback_size(graph, "cactus") == cactus


# -- each check rejects a corrupted output ------------------------------------


def test_objective_off_by_1e4_relative_is_rejected():
    grid = load_case("case9")
    arr = ref.GridArrays(grid)
    sol = pfm.solve_model(grid, pfm.electrical_model(), 0.5)
    expected = ref.dispatch_objective(grid, (), 0.5)
    assert checks.check_solution(arr, sol, frozenset(), expected) == []
    bad = dataclasses.replace(sol, objective=sol.objective * (1 + 1e-4))
    assert checks.check_solution(arr, bad, frozenset(), expected)


def test_flow_without_its_angles_is_rejected():
    grid = load_case("case9")
    arr = ref.GridArrays(grid)
    sol = pfm.solve_model(grid, pfm.electrical_model(), 1.0)
    theta = dict(sol.theta)
    theta[max(theta)] += 1e-3
    assert ref.check_coupling(arr, sol.flow.values, sol.theta, frozenset()) == []
    assert ref.check_coupling(arr, sol.flow.values, theta, frozenset())


def test_model_order_violation_is_rejected():
    assert checks.check_order(1.0, 2.0, 3.0) == []
    assert checks.check_order(1.0, 3.0, 2.0)
    assert checks.check_order(2.0, 1.0, 3.0)


def test_feedback_set_missing_a_vertex_is_rejected():
    grid = load_case("case30")
    g = ref.nx_graph(grid)
    found = ga.min_feedback_set(ga.Multigraph(grid.buses, grid.edges()), ga.TargetClass.FOREST)
    size = ref.min_feedback_size(g, "forest")
    assert checks.check_feedback(g, found.vertices, "forest", size) == []
    short = set(found.vertices) - {min(found.vertices)}
    assert checks.check_feedback(g, short, "forest", size)
    # also when the size is not what gives it away
    assert checks.check_feedback(g, short, "forest", len(short))


def test_cactus_set_missing_a_vertex_is_rejected():
    grid = load_case("case14")
    g = ref.nx_graph(grid)
    found = ga.min_feedback_set(ga.Multigraph(grid.buses, grid.edges()), ga.TargetClass.CACTUS)
    assert checks.check_feedback(g, found.vertices, "cactus", len(found.vertices)) == []
    short = set(found.vertices) - {min(found.vertices)}
    assert checks.check_feedback(g, short, "cactus", len(short))


def test_cover_missing_an_edge_is_rejected():
    grid = load_case("case14")
    g = ref.nx_graph(grid)
    cover = ga.min_vertex_cover(ga.Multigraph(grid.buses, grid.edges())).vertices
    size = ref.min_cover_size(g)
    assert checks.check_cover(g, cover, size) == []
    short = set(cover) - {min(cover)}
    assert checks.check_cover(g, short, len(short))


def test_load_factor_moved_by_twice_the_width_is_rejected():
    wl = workloads.LoadScale(seed=0)
    wl.jobs = [("case6ww", frozenset())]
    log = workloads.PassLog()
    [(name, controls, lo, hi, steps)] = wl.run_pass(log)
    assert log.failed == 0 and len(steps) >= 10
    alpha_ref = ref.max_load_factor(wl.grids[name], controls, wl.alpha_max[name])
    width = hi - lo
    assert checks.check_alpha(lo, hi, alpha_ref, wl.alpha_max[name]) == []
    for moved in (lo + 2 * width, lo - 2 * width):
        assert checks.check_alpha(moved, moved + width, alpha_ref, wl.alpha_max[name])


def test_wrong_bisection_outcome_is_rejected():
    grid = two_bus_grid()
    half = PowerGrid(grid.buses, grid.branches, grid.generators, {2: 5.0})
    sol = pfm.solve_model(half, pfm.electrical_model(), 1.0)
    # alpha = 0.5 is feasible; the two-bus maximum is 2
    assert checks.check_step(0.5, True, sol, half, frozenset(), 2.0) == []
    assert checks.check_step(0.5, False, None, half, frozenset(), 2.0)
    assert checks.check_step(3.0, True, sol, half, frozenset(), 2.0)


def test_shift_that_moves_a_net_outflow_is_rejected():
    grid = load_case("case14")
    arr = ref.GridArrays(grid)
    cactus = ga.min_feedback_set(ga.Multigraph(grid.buses, grid.edges()),
                                 ga.TargetClass.CACTUS).vertices
    flow = pfm.solve_model(grid, pfm.flow_model(), 1.0).flow
    native = set(grid.buses) - cactus
    shift = pfm.cactus_equivalent_flow(grid, cactus, flow)
    assert checks.check_shift(arr, flow.values, shift, native) == []
    moved = shift[0].copy()
    moved.values[0] += 1.0
    assert checks.check_shift(arr, flow.values, (moved, shift[1]), native)


# -- every workload runs one clean pass ----------------------------------------


@pytest.mark.parametrize("name, n_ops", [("dispatch", 57), ("placement", 43), ("loadscale", 159)])
def test_one_pass_of_each_workload_is_clean(name, n_ops):
    wl = workloads.WORKLOADS[name](seed=7)
    wl.warm_up()
    log = workloads.PassLog()
    results = wl.run_pass(log)
    checks.CHECKS[name](wl).check(results, log)
    errors = [(op.label, op.error) for op in log.ops if op.error]
    assert errors == []
    assert not log.wrong_output
    assert len(log.ops) == n_ops


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command + ["--workload", "placement", "--seed", "1", "--seconds", "1",
                                     "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert "gridctl" in done.stderr


# -- the traced run -------------------------------------------------------------


def test_traced_pass_reports_layers_and_restores_the_program():
    originals = (pfm.solve_model, pfm.build_lp, lp_engine.solve_lp)
    wl = workloads.Dispatch(seed=1)
    wl.jobs = [job for job in wl.jobs if job[0] == "case9"]
    tracer = tracing.Tracer()
    tracer.pass_no = 0
    tracer.install()
    try:
        log = workloads.PassLog()
        start = time.perf_counter()
        results = wl.run_pass(log)
        wall = time.perf_counter() - start
        checks.CHECKS["dispatch"](wl).check(results, log)
    finally:
        tracer.uninstall()
    assert (pfm.solve_model, pfm.build_lp, lp_engine.solve_lp) == originals
    assert log.failed == 0
    layers = {k: v for k, (v, _unit) in tracer.layer_metrics([(0, wall, Counter(tracer.counts))]).items()}
    assert layers["lp_engine.solve_lp.calls"] >= 9 and layers["lp_engine.iterations"] > 0
    assert layers["build_lp.rows"] > 0 and layers["build_lp.nnz"] > layers["build_lp.cols"] > 0
    assert 0 < layers["solve.self_s"] < wall
    assert 0 <= layers["bench.self_s"] < 0.1 * wall


def test_trace_reports_a_function_the_program_lacks_as_absent(monkeypatch):
    monkeypatch.delattr(lp_engine, "solve_lp")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gridctl.lp_engine.solve_lp"]
    assert not hasattr(lp_engine, "solve_lp")
