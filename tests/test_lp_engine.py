from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from gridctl.lp_engine import LinearProgram, LpStatus, solve_lp
from gridctl.power_flow_models import build_lp, electrical_model, flow_model

from conftest import get_case


# -- oracles -------------------------------------------------------------------

def brute_force_lp(lp: LinearProgram):
    """Enumerate candidate vertices: every n-subset of {rows as equalities,
    active bounds}. Requires all variables bounded (polytope is bounded, so
    the optimum sits at a vertex). All subset systems are solved in one
    batched call; singular ones are dropped first."""
    n = lp.n_vars
    a_rows = np.zeros((lp.n_rows, n))
    for i, row in enumerate(lp.rows):
        for j, a in row.items():
            a_rows[i, j] = a
    eye = np.eye(n)
    rows = np.vstack([a_rows, eye, eye])
    rhs = np.concatenate([lp.rhs, lp.lower, lp.upper])
    subsets = np.array(list(itertools.combinations(range(len(rows)), n)))
    a, b = rows[subsets], rhs[subsets]
    # |det| over the product of the row norms is 0 for a singular system and
    # at least 1e-6 for these small integer ones (Hadamard's inequality)
    hadamard = np.prod(np.linalg.norm(a, axis=2), axis=1)
    regular = np.abs(np.linalg.det(a)) > 1e-12 * hadamard
    xs = np.linalg.solve(a[regular], b[regular][:, :, None])[:, :, 0]
    xs = xs[feasibility_violations(lp, a_rows, xs) <= 1e-9]
    if len(xs) == 0:
        return None  # infeasible
    c = np.zeros(n)
    c[list(lp.obj)] = list(lp.obj.values())
    return float((xs @ c).min() + lp.obj_constant)


def feasibility_violations(lp: LinearProgram, a_rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """lp.feasibility_violation(x) for every row x of xs, in array code."""
    lo, hi = np.array(lp.lower), np.array(lp.upper)
    nearest = np.minimum(np.where(np.isinf(lo), np.inf, np.abs(lo)),
                         np.where(np.isinf(hi), np.inf, np.abs(hi)))
    scale = 1.0 + np.where(np.isinf(nearest), 0.0, nearest)
    bounds = np.maximum((lo - xs) / scale, (xs - hi) / scale).max(axis=1, initial=0.0)
    senses = np.array(lp.senses, dtype=object)
    b = np.array(lp.rhs)
    excess = (xs @ a_rows.T - b) / (1.0 + np.abs(b))
    over = np.where(np.isin(senses, ["<=", "="]), excess, -np.inf).max(axis=1, initial=0.0)
    under = np.where(np.isin(senses, [">=", "="]), -excess, -np.inf).max(axis=1, initial=0.0)
    return np.maximum.reduce([bounds, over, under])


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


# -- KKT conditions on the power-flow LPs ------------------------------------------

@pytest.mark.parametrize("case, kind, lam, capacity", [("case30", "electrical", 0.5, 1.0),
                                                       ("case118", "flow", 1.0, 1.0),
                                                       ("case39", "electrical", 0.5, 0.7)])
def test_power_flow_lps_meet_kkt(case, kind, lam, capacity):
    # at 0.7 of their capacity, case39's lines bind, so reduced costs are nonzero
    model = electrical_model() if kind == "electrical" else flow_model()
    lp, _vmap = build_lp(get_case(case).scale_capacities(capacity), model, lam)
    sol = solve_lp(lp)
    ref = scipy_check(lp)
    assert sol.status == LpStatus.OPTIMAL and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun + lp.obj_constant, rel=1e-7)

    y, d, x = sol.dual_values, sol.reduced_costs, sol.values
    assert len(y) == lp.n_rows

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
