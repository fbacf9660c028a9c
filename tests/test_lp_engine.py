from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from gridctl import lp_engine
from gridctl.lp_engine import LinearProgram, LpStatus, solve_lp
from gridctl.power_flow_models import build_lp, electrical_model, flow_model

from conftest import get_case


# -- oracles -------------------------------------------------------------------

def brute_force_lp(lp: LinearProgram):
    """Enumerate candidate vertices: every n-subset of {rows as equalities,
    active bounds}. Requires all variables bounded (polytope is bounded, so
    the optimum sits at a vertex)."""
    n = lp.n_vars
    rows = []
    rhs = []
    for i, row in enumerate(lp.rows):
        coeffs = np.zeros(n)
        for j, a in row.items():
            coeffs[j] = a
        rows.append(coeffs)
        rhs.append(lp.rhs[i])
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(lp.lower[j])
        rows.append(e)
        rhs.append(lp.upper[j])
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[k] for k in subset])
        b = np.array([rhs[k] for k in subset])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if lp.feasibility_violation(x) > 1e-9:
            continue
        val = lp.objective_value(x)
        if best is None or val < best:
            best = val
    return best  # None = infeasible


def scipy_check(lp: LinearProgram):
    c = np.zeros(lp.n_vars)
    for j, a in lp.obj.items():
        c[j] = a
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, row in enumerate(lp.rows):
        coeffs = np.zeros(lp.n_vars)
        for j, a in row.items():
            coeffs[j] = a
        if lp.senses[i] == "<=":
            a_ub.append(coeffs)
            b_ub.append(lp.rhs[i])
        elif lp.senses[i] == ">=":
            a_ub.append(-coeffs)
            b_ub.append(-lp.rhs[i])
        else:
            a_eq.append(coeffs)
            b_eq.append(lp.rhs[i])
    res = scipy_linprog(
        c, A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
        bounds=list(zip(lp.lower, lp.upper)), method="highs")
    return res


def random_lp(rng: np.random.Generator, n_vars: int, n_rows: int,
              anchor: bool = False) -> LinearProgram:
    """Random bounded LP; `anchor` builds the rhs around a feasible point."""
    lp = LinearProgram()
    for j in range(n_vars):
        lo = float(rng.integers(-10, 1))
        hi = lo + float(rng.integers(0, 15))
        lp.add_variable(f"v{j}", lo, hi)
    x0 = np.array([lp.lower[j] + rng.random() * (lp.upper[j] - lp.lower[j])
                   for j in range(n_vars)])
    for _ in range(n_rows):
        k = int(rng.integers(1, min(4, n_vars) + 1))
        cols = rng.choice(n_vars, size=k, replace=False)
        coeffs = {int(j): float(rng.integers(-5, 6)) for j in cols}
        coeffs = {j: a for j, a in coeffs.items() if a}
        if not coeffs:
            continue
        sense = ["<=", ">=", "="][int(rng.integers(0, 3))]
        if anchor:
            act = sum(a * x0[j] for j, a in coeffs.items())
            slack = float(rng.integers(0, 4))
            rhs = act + slack if sense == "<=" else act - slack if sense == ">=" else act
        else:
            rhs = float(rng.integers(-15, 16))
        lp.add_constraint(coeffs, sense, rhs)
    lp.set_objective({j: float(rng.integers(-9, 10)) for j in range(n_vars)})
    return lp


def farkas_gap(lp: LinearProgram, y: np.ndarray, noise: float = 1e-9) -> float:
    """How far y.b lies outside the interval of y.(A x + s), over the variable
    box and each slack's sign range ('<=': s >= 0, '>=': s <= 0, '=': s = 0).
    A positive gap proves A x + s = b infeasible. Entries at or below `noise`
    times the largest count as zero: a wrong-signed 1e-17 on an inequality
    row would otherwise open its side of the interval to infinity. With
    noise=0 the ray is taken as returned."""
    y = np.where(np.abs(y) > noise * np.abs(y).max(), y, 0.0)
    w = np.zeros(lp.n_vars)
    for i, row in enumerate(lp.rows):
        for j, a in row.items():
            w[j] += y[i] * a
    slack_range = {"<=": (0.0, math.inf), ">=": (-math.inf, 0.0), "=": (0.0, 0.0)}
    terms = [(w[j], lp.lower[j], lp.upper[j]) for j in range(lp.n_vars)]
    terms += [(y[i], *slack_range[sense]) for i, sense in enumerate(lp.senses)]
    lo = sum(min(k * l, k * u) for k, l, u in terms if k != 0.0)
    hi = sum(max(k * l, k * u) for k, l, u in terms if k != 0.0)
    yb = float(np.dot(y, lp.rhs))
    return max(lo - yb, yb - hi)


def raw_ray_certifies(lp: LinearProgram, y: np.ndarray) -> bool:
    """y as returned is a Farkas certificate and carries no entry in
    (0, 1e-9 of the largest], the rounding noise the solver must zero."""
    noise = (y != 0) & (np.abs(y) <= 1e-9 * np.abs(y).max())
    return farkas_gap(lp, y, noise=0.0) > 1e-6 and not np.any(noise)


# -- small deterministic cases ---------------------------------------------------

def test_min_x_subject_to_x_ge_3():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, math.inf)
    lp.add_constraint({x: 1.0}, ">=", 3.0)
    lp.set_objective({x: 1.0})
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.values[x] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(3.0)


def test_conflicting_rows_infeasible_with_certificate():
    lp = LinearProgram()
    x = lp.add_variable("x", -100.0, 100.0)
    r1 = lp.add_constraint({x: 1.0}, "<=", 1.0)
    r2 = lp.add_constraint({x: 1.0}, ">=", 2.0)
    lp.set_objective({})
    sol = solve_lp(lp)
    assert sol.status == LpStatus.INFEASIBLE
    assert sol.ray is not None and np.any(sol.ray != 0)
    # Farkas: y combines the rows into an unsatisfiable consequence. The
    # aggregated row w.x must not be able to reach y.b within the bounds.
    y = sol.ray
    w = y[r1] * 1.0 + y[r2] * 1.0
    reachable = max(w * -100.0, w * 100.0)
    assert reachable < y[r1] * 1.0 + y[r2] * 2.0 - 1e-9 or \
        min(w * -100.0, w * 100.0) > y[r1] * 1.0 + y[r2] * 2.0 + 1e-9


def test_unbounded_with_ray():
    lp = LinearProgram()
    x = lp.add_variable("x", -math.inf, math.inf)
    lp.add_constraint({x: 1.0}, "<=", 5.0)
    lp.set_objective({x: 1.0})
    sol = solve_lp(lp)
    assert sol.status == LpStatus.UNBOUNDED
    ray = sol.ray
    # objective decreases along the ray and no row degrades
    assert ray[x] < 0


def test_free_variable_equality():
    lp = LinearProgram()
    x = lp.add_variable("x", -math.inf, math.inf)
    y = lp.add_variable("y", 0.0, 10.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)
    lp.set_objective({x: 2.0, y: 1.0})
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.values[y] == pytest.approx(10.0)
    assert sol.values[x] == pytest.approx(-6.0)
    assert sol.objective == pytest.approx(-2.0)


def test_bound_flip_path():
    # optimum forces a nonbasic variable from the lower to the upper bound
    lp = LinearProgram()
    x = lp.add_variable("x", -2.0, 3.0)
    lp.set_objective({x: -1.0})
    sol = solve_lp(lp)
    assert sol.values[x] == pytest.approx(3.0)


def test_duals_and_weak_duality_on_fixed_lp():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0)
    y = lp.add_variable("y", 0.0, 10.0)
    r = lp.add_constraint({x: 1.0, y: 2.0}, ">=", 8.0)
    lp.set_objective({x: 3.0, y: 1.0})
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(4.0)  # y = 4
    # complementary slackness: active row, dual reproduces objective change
    assert sol.dual_values[r] == pytest.approx(0.5)


def test_determinism_identical_pivot_sequences():
    rng = np.random.default_rng(7)
    lp = random_lp(rng, 6, 8)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status
    assert a.iterations == b.iterations
    if a.status == LpStatus.OPTIMAL:
        assert np.array_equal(a.values, b.values)


def test_random_battery_against_vertex_enumeration():
    rng = np.random.default_rng(12345)
    solved = certified = 0
    for trial in range(500):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        lp = random_lp(rng, n, m, anchor=trial % 2 == 0)
        expected = brute_force_lp(lp)
        sol = solve_lp(lp)
        if expected is None:
            assert sol.status == LpStatus.INFEASIBLE, f"trial {trial}"
            assert farkas_gap(lp, sol.ray) > 1e-6, f"trial {trial}"
            assert raw_ray_certifies(lp, sol.ray), f"trial {trial}"
            certified += 1
        else:
            assert sol.status == LpStatus.OPTIMAL, f"trial {trial}"
            assert sol.objective == pytest.approx(expected, abs=1e-7), f"trial {trial}"
            assert lp.feasibility_violation(sol.values) <= 1e-7
            solved += 1
    assert solved > 200  # battery covers plenty of feasible instances
    assert certified > 100  # ... and of infeasible ones


def test_random_battery_against_scipy():
    rng = np.random.default_rng(999)
    for trial in range(60):
        lp = random_lp(rng, int(rng.integers(2, 9)), int(rng.integers(1, 11)))
        ours = solve_lp(lp)
        ref = scipy_check(lp)
        if ref.status == 0:
            assert ours.status == LpStatus.OPTIMAL, f"trial {trial}"
            assert ours.objective == pytest.approx(ref.fun + lp.obj_constant, abs=1e-6)
        elif ref.status == 2:
            assert ours.status == LpStatus.INFEASIBLE, f"trial {trial}"


def test_weak_duality_on_random_optima():
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(80):
        lp = random_lp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9)))
        sol = solve_lp(lp)
        if sol.status != LpStatus.OPTIMAL:
            continue
        # dual objective for bounded-variable LPs:
        # y.b + sum_j d_j * (l_j if d_j > 0 else u_j)
        dual = float(np.dot(sol.dual_values, lp.rhs))
        for j in range(lp.n_vars):
            d = sol.reduced_costs[j]
            if d > 1e-9:
                dual += d * lp.lower[j]
            elif d < -1e-9:
                dual += d * lp.upper[j]
        assert sol.objective >= dual - 1e-6 * (1 + abs(sol.objective))
        assert sol.objective == pytest.approx(dual, abs=1e-5 * (1 + abs(sol.objective)))
        checked += 1
    assert checked > 20


def test_lazy_rows_match_full_solve():
    rng = np.random.default_rng(77)
    infeasible = 0
    for _ in range(40):
        lp = random_lp(rng, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
        full = solve_lp(lp)
        lazy = solve_lp(lp, set(range(0, lp.n_rows, 2)))
        assert lazy.status == full.status
        if full.status == LpStatus.OPTIMAL:
            assert lazy.objective == pytest.approx(full.objective, abs=1e-6)
            assert lp.feasibility_violation(lazy.values) <= 1e-6
        elif full.status == LpStatus.INFEASIBLE:
            assert farkas_gap(lp, lazy.ray) > 1e-6  # ray indexed by all rows
            assert raw_ray_certifies(lp, lazy.ray)
            infeasible += 1
    assert infeasible > 5


def test_lazy_rows_join_a_basis_holding_a_pinned_artificial():
    # x + y = 4 twice: one artificial stays basic at zero after phase one,
    # and its column index must move past the slacks of the appended rows
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0)
    y = lp.add_variable("y", 0.0, 10.0)
    lp.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)
    lp.add_constraint({x: 2.0, y: 2.0}, "=", 8.0)
    cap_x = lp.add_constraint({x: 1.0}, "<=", 1.0)  # violated at the first optimum x = 4
    lp.set_objective({x: -1.0})
    full, lazy = solve_lp(lp), solve_lp(lp, {cap_x})
    assert lazy.status == full.status == LpStatus.OPTIMAL
    assert lazy.objective == pytest.approx(-1.0) == full.objective
    assert lazy.values == pytest.approx([1.0, 3.0])
    assert float(np.dot(lazy.dual_values, lp.rhs)) == pytest.approx(-1.0)

    cap_y = lp.add_constraint({y: 1.0}, "<=", 2.0)  # violated once x = 1: infeasible
    lazy = solve_lp(lp, {cap_x, cap_y})
    assert lazy.status == solve_lp(lp).status == LpStatus.INFEASIBLE
    assert raw_ray_certifies(lp, lazy.ray)


# -- the warm-started lazy rounds on the power-flow LPs ----------------------------

@pytest.mark.parametrize("case, kind, lam, capacity", [("case30", "electrical", 0.5, 1.0),
                                                       ("case118", "flow", 1.0, 1.0),
                                                       ("case39", "electrical", 0.5, 0.7)])
def test_warm_started_lazy_rounds_meet_kkt_on_power_flow_lps(case, kind, lam, capacity,
                                                             monkeypatch):
    # at 0.7 of their capacity, case39's lines bind, so reduced costs are nonzero
    model = electrical_model() if kind == "electrical" else flow_model()
    lp, vmap = build_lp(get_case(case).scale_capacities(capacity), model, lam)
    activated: list[int] = []
    add_rows = lp_engine._Simplex.add_rows

    def record(spx, rows):
        activated.extend(rows)
        add_rows(spx, rows)

    monkeypatch.setattr(lp_engine._Simplex, "add_rows", record)
    sol = solve_lp(lp, vmap.lazy_rows)
    monkeypatch.undo()
    full = solve_lp(lp)
    assert sol.status == full.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(full.objective, rel=1e-7)

    never = set(range(lp.n_rows)) - set(activated)
    assert never and never < vmap.lazy_rows  # some lazy rows stayed out ...
    assert set(activated) & vmap.lazy_rows  # ... and some were appended warm
    y, d, x = sol.dual_values, sol.reduced_costs, sol.values
    assert len(y) == lp.n_rows
    assert all(y[i] == 0.0 for i in never)

    tol = 1e-6
    for i, sense in enumerate(lp.senses):  # A x + s = b, '<=': s >= 0, '>=': s <= 0
        if sense == "<=":
            assert y[i] <= tol, f"row {i}"
        elif sense == ">=":
            assert y[i] >= -tol, f"row {i}"
    for j in range(lp.n_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        at_lo = x[j] <= lo + 1e-9 * (1 + abs(lo))
        at_hi = x[j] >= hi - 1e-9 * (1 + abs(hi))
        if at_lo and at_hi:
            continue  # fixed column: either sign
        if at_lo:
            assert d[j] >= -tol, f"column {j} at its lower bound"
        elif at_hi:
            assert d[j] <= tol, f"column {j} at its upper bound"
        else:
            assert abs(d[j]) <= tol, f"column {j} between its bounds"

    dual = float(np.dot(y, lp.rhs)) + lp.obj_constant
    for j in range(lp.n_vars):
        if d[j] > 1e-9:
            dual += d[j] * lp.lower[j]
        elif d[j] < -1e-9:
            dual += d[j] * lp.upper[j]
    assert dual == pytest.approx(sol.objective, abs=1e-6 * (1 + abs(sol.objective)))
    assert capacity == 1.0 or np.abs(d).max() > 1e-3
