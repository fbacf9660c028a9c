from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gridctl import lp_engine
from gridctl.lp_engine import LinearProgram, LpStatus, NumericalBreakdown, solve_lp
from gridctl.grid_model import Branch, Generator, PowerGrid
from gridctl.power_flow_models import build_lp, electrical_model, flow_model, hybrid_model
from gridctl.pwl import PiecewiseLinearConvex

from conftest import expand, get_case, scipy_check


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
    assert lp.cost_at == list(range(n + 1))  # linear costs
    return float((xs @ np.array(lp.slopes)).min() + lp.obj_constant)


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


def feasibility_violation_loop(lp: LinearProgram, x) -> float:
    """lp.feasibility_violation(x), one column and one row at a time."""
    worst = 0.0
    for j in range(lp.n_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        scale = 1.0 + min(abs(b) for b in (lo, hi) if not math.isinf(b)) \
            if not (math.isinf(lo) and math.isinf(hi)) else 1.0
        worst = max(worst, (lo - x[j]) / scale, (x[j] - hi) / scale)
    for i, row in enumerate(lp.rows):
        act = 0.0
        for j, a in row.items():  # plain left-to-right sum, as in the array code
            act += a * x[j]
        scale = 1.0 + abs(lp.rhs[i])
        if lp.senses[i] in ("<=", "="):
            worst = max(worst, (act - lp.rhs[i]) / scale)
        if lp.senses[i] in (">=", "="):
            worst = max(worst, (lp.rhs[i] - act) / scale)
    return worst


def random_lp(rng: np.random.Generator, n_vars: int, n_rows: int,
              anchor: bool = False) -> LinearProgram:
    """Random bounded LP; `anchor` builds the rhs around a feasible point."""
    boxes = []
    for _ in range(n_vars):
        lo = float(rng.integers(-10, 1))
        boxes.append((lo, lo + float(rng.integers(0, 15))))
    x0 = np.array([lo + rng.random() * (hi - lo) for lo, hi in boxes])
    rows = []
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
        rows.append((coeffs, sense, rhs))
    # the costs are drawn last, after the rows, so each seed gives the same LPs
    # as when the costs were set on a built LP
    costs = [float(rng.integers(-9, 10)) for _ in range(n_vars)]
    lp = LinearProgram()
    for j, ((lo, hi), c) in enumerate(zip(boxes, costs)):
        lp.add_variable(f"v{j}", lo, hi, slopes=(c,))
    for row in rows:
        lp.add_constraint(*row)
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


def exact_ray_certifies(lp: LinearProgram, y: np.ndarray) -> bool:
    """y carries no rounding-noise entry and, with each entry replaced by the
    nearest fraction whose denominator is at most 1e6, proves the rows
    infeasible in exact arithmetic. With a free column in a row of the ray,
    y.A in floating point is often a rounding step off 0 there, which opens
    its side of the interval to infinity; the data of these LPs are
    integers, so the certificate y approximates has small denominators."""
    if np.any((y != 0) & (np.abs(y) <= 1e-9 * np.abs(y).max())):
        return False
    q = [Fraction(float(v)).limit_denominator(10**6) for v in y]
    w = [Fraction(0)] * lp.n_vars
    for i, row in enumerate(lp.rows):
        for j, a in row.items():
            w[j] += q[i] * Fraction(a)
    slack_range = {"<=": (0.0, math.inf), ">=": (-math.inf, 0.0), "=": (0.0, 0.0)}
    terms = [(w[j], lp.lower[j], lp.upper[j]) for j in range(lp.n_vars)]
    terms += [(q[i], *slack_range[sense]) for i, sense in enumerate(lp.senses)]
    lo, hi = [Fraction(0)], [Fraction(0)]
    for k, *ends in terms:
        if k != 0:
            low, high = sorted(ends, key=lambda b: k * b)
            lo.append(-math.inf if math.isinf(low) else k * Fraction(low))
            hi.append(math.inf if math.isinf(high) else k * Fraction(high))
    yb = sum(qi * Fraction(b) for qi, b in zip(q, lp.rhs))
    return sum(lo) > yb or yb > sum(hi)


# -- small deterministic cases ---------------------------------------------------

def test_min_x_subject_to_x_ge_3():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, math.inf, slopes=(1.0,))
    lp.add_constraint({x: 1.0}, ">=", 3.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.values[x] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(3.0)


def test_conflicting_rows_infeasible_with_certificate():
    lp = LinearProgram()
    x = lp.add_variable("x", -100.0, 100.0)
    r1 = lp.add_constraint({x: 1.0}, "<=", 1.0)
    r2 = lp.add_constraint({x: 1.0}, ">=", 2.0)
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
    x = lp.add_variable("x", -math.inf, math.inf, slopes=(1.0,))
    lp.add_constraint({x: 1.0}, "<=", 5.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.UNBOUNDED
    ray = sol.ray
    # objective decreases along the ray and no row degrades
    assert ray[x] < 0


def test_free_variable_equality():
    lp = LinearProgram()
    x = lp.add_variable("x", -math.inf, math.inf, slopes=(2.0,))
    y = lp.add_variable("y", 0.0, 10.0, slopes=(1.0,))
    lp.add_constraint({x: 1.0, y: 1.0}, "=", 4.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.values[y] == pytest.approx(10.0)
    assert sol.values[x] == pytest.approx(-6.0)
    assert sol.objective == pytest.approx(-2.0)


def test_bound_flip_path():
    # optimum forces a nonbasic variable from the lower to the upper bound
    lp = LinearProgram()
    x = lp.add_variable("x", -2.0, 3.0, slopes=(-1.0,))
    sol = solve_lp(lp)
    assert sol.values[x] == pytest.approx(3.0)


def test_box_without_rows_reaches_either_bound():
    # x starts at 0, inside [-1, 2], and may move either way
    for cost, expected in ((1.0, -1.0), (-1.0, 2.0)):
        lp = LinearProgram()
        x = lp.add_variable("x", -1.0, 2.0, slopes=(cost,))
        sol = solve_lp(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.values[x] == expected


def test_empty_rows_and_a_column_in_no_row():
    # The last variable has no entry in any row, so its column is empty in
    # the column-sorted store; two rows have no structural entry, so only
    # their slacks reach them and every row sum needs its full length.
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 5.0, slopes=(1.0,))
    y = lp.add_variable("y", 0.0, 5.0, slopes=(2.0,))
    z = lp.add_variable("z", 0.0, 4.0, slopes=(-1.0,))
    lp.add_constraint({x: 1.0, y: 1.0}, ">=", 2.0)
    empty_le = lp.add_constraint({}, "<=", 3.0)
    empty_eq = lp.add_constraint({}, "=", 0.0)
    lp.add_constraint({y: 1.0, x: -1.0}, "<=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-2.0)
    assert sol.values == pytest.approx([2.0, 0.0, 4.0])
    assert sol.reduced_costs[z] == pytest.approx(-1.0)
    assert sol.dual_values[empty_le] == sol.dual_values[empty_eq] == 0.0


def test_empty_row_that_cannot_hold_is_infeasible():
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 1.0)
    lp.add_constraint({}, ">=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.INFEASIBLE
    assert farkas_gap(lp, sol.ray, noise=0.0) > 1e-6


def test_column_starting_inside_its_box_stays_there_with_zero_reduced_cost():
    lp = LinearProgram()
    x = lp.add_variable("x", -1.0, 2.0)
    y = lp.add_variable("y", 0.0, 3.0, slopes=(1.0,))
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 10.0)
    r = lp.add_constraint({y: 1.0}, ">=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.values[x] == 0.0  # nonbasic at its start, strictly inside [-1, 2]
    assert sol.reduced_costs[x] == pytest.approx(0.0, abs=1e-12)
    assert sol.values[y] == pytest.approx(1.0)
    # weak duality: the interior column adds nothing to the dual objective
    assert float(np.dot(sol.dual_values, lp.rhs)) == pytest.approx(sol.objective)
    assert sol.dual_values[r] == pytest.approx(1.0)


def test_ratio_test_passes_over_a_rounding_noise_pivot():
    # Row 1 is row 0 times 7/9, so once x1 is basic in row 0, x2's entry in
    # row 1 is 0 in exact arithmetic but about 3e-8 after rounding, against
    # 2e7 in row 0. Row 1's slack is fixed at 0, so that row has the smallest
    # ratio (0); x1's row blocks at a ratio of 5e-7, within the Harris slack.
    # Pivoting on the noise makes the basis singular; the smallest-ratio rule
    # then stopped at x = 0 and called it optimal.
    p, big = 9.0, 1.8e8
    lp = LinearProgram()
    x1 = lp.add_variable("x1", 0.0, 10.0, slopes=(-2.0,))
    x2 = lp.add_variable("x2", 0.0, 10.0, slopes=(-1.0,))
    lp.add_constraint({x1: p, x2: -big}, "<=", 0.0)
    lp.add_constraint({x1: 7.0, x2: -7.0 * big / p}, "=", 0.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.values[x1] == pytest.approx(10.0)
    assert sol.values[x2] == pytest.approx(10.0 * p / big, rel=1e-9)
    assert sol.objective == pytest.approx(-20.0 - 10.0 * p / big, abs=1e-9)
    assert lp.feasibility_violation(sol.values) <= 1e-9


def test_harris_slack_of_a_row_shrinks_with_its_coefficients():
    # Row 0 pins x1 = 0 through a coefficient of 1e-3, so its slack, fixed at
    # 0, would take a 1e-9 bound slack as x1 = 1e-6. With x0 basic in row 1,
    # x1 enters; x0's row blocks at 3e-7 with |w| = 2e7 and would win the
    # second pass, putting x0 at 6 and x1 at 3e-7, 3e-10 off row 0, for an
    # objective of -36. Scaled by the row's largest coefficient the slack
    # admits only x1 = 1e-9, so row 0 blocks and the optimum is 0 at x = 0.
    lp = LinearProgram()
    x0 = lp.add_variable("x0", 0.0, 6.0, slopes=(-6.0,))
    x1 = lp.add_variable("x1", 0.0, 6.0, slopes=(1.0,))
    lp.add_constraint({x1: -0.001}, "=", 0.0)
    lp.add_constraint({x0: -2e-5, x1: 400.0}, "=", 0.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.abs(sol.values) <= 1e-9)


@pytest.mark.parametrize("start", [-0.5e-9, -2e-9])
def test_ratio_test_does_not_push_a_basic_column_further_outside(start):
    # Slack s0 is basic 0.5e-9 (inside its Harris slack) or 2e-9 (beyond it)
    # below its lower bound 0 and falls at rate 1e-3; s1 falls at rate 1 and
    # reaches 0 at a step of 9e-7. Measured from the bound, s0's slack would
    # allow a step of 1e-6, s1's larger pivot would win, and s0 would end
    # 0.9e-9 further out. Measured from where s0 stands, it allows at most
    # 0.5e-6 (or nothing), so s0 blocks and the step is 0.
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0)
    lp.add_constraint({x: 1.0}, "<=", 5.0)
    lp.add_constraint({x: 1.0}, "<=", 5.0)
    spx = lp_engine._Simplex(lp)
    s0, s1 = spx.basis
    spx.x[s0], spx.x[s1] = start, 9e-7
    w = np.array([1e-3, 1.0])
    step, row = spx._ratio_test(x, 1.0, w, bland=False)
    spx.x[spx.basis] -= step * w
    assert spx.x[s0] >= min(start, -1e-9)
    assert (step, row) == (0.0, 0)


def test_harris_slack_grows_with_the_bound():
    # y is basic in row 0, one rounding step (1.5e-8) above its upper bound
    # 1e8, and rises at rate 1e-8, a rounding-noise entry; slack s1 falls at
    # rate 1 and reaches 0 at a step of 9e-7. An absolute 1e-9 slack is less
    # than one rounding step at 1e8, so y's row alone would block and be
    # pivoted on. Scaled by 1 + |bound| it lets the step reach s1's row.
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0)
    y = lp.add_variable("y", 0.0, 1e8)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 2e8)
    lp.add_constraint({x: 1.0}, "<=", 5.0)
    spx = lp_engine._Simplex(lp)
    spx.basis[0] = y
    spx.x[y], spx.x[spx.basis[1]] = np.nextafter(1e8, math.inf), 9e-7
    step, row = spx._ratio_test(x, 1.0, np.array([-1e-8, 1.0]), bland=False)
    assert (step, row) == (pytest.approx(9e-7), 1)


def test_farkas_ray_keeps_an_entry_far_below_its_largest():
    # 7e5 x = 6 needs x > 0, which 5e-5 x <= 0 forbids. The certificate is
    # y = (1, -1.4e10): its first entry is 7e-11 of the second and is needed.
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 8.0)
    lp.add_constraint({x: 7e5}, "=", 6.0)
    lp.add_constraint({x: 5e-5}, "<=", 0.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.INFEASIBLE
    assert sol.ray[0] != 0.0
    assert farkas_gap(lp, sol.ray, noise=0.0) > 1e-6


def test_farkas_ray_drops_an_entry_whose_sign_pricing_cannot_see():
    # Row 0 alone is infeasible: 7e-5 x0 + 4 x1 <= 4.00007 < 9. Phase one
    # ends with x0 basic in row 1 and a dual of 7e-9 there, the wrong sign for
    # a '<=' row; the slack's reduced cost -7e-9 is within the pricing
    # tolerance, so that entry carries no information and must be dropped.
    lp = LinearProgram()
    x0 = lp.add_variable("x0", 0.0, 1.0)
    x1 = lp.add_variable("x1", 0.0, 1.0)
    lp.add_constraint({x0: 7e-5, x1: 4.0}, ">=", 9.0)
    lp.add_constraint({x0: -1e4}, "<=", -9.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.INFEASIBLE
    assert sol.ray[1] == 0.0
    assert farkas_gap(lp, sol.ray, noise=0.0) > 1e-6


def test_infeasible_needs_a_farkas_certificate(monkeypatch):
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 1.0)
    lp.add_constraint({x: 1.0}, ">=", 2.0)
    assert solve_lp(lp).status == LpStatus.INFEASIBLE
    monkeypatch.setattr(lp_engine._Simplex, "_farkas_gap", lambda self, y: 0.0)
    with pytest.raises(NumericalBreakdown, match="Farkas"):
        solve_lp(lp)


def test_a_nan_in_the_optimal_point_is_a_breakdown(monkeypatch):
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0, slopes=(1.0,))
    lp.add_constraint({x: 1.0}, ">=", 3.0)
    phase2 = lp_engine._Simplex.phase2

    def nan_phase2(self):
        status = phase2(self)
        self.x[:] = math.nan
        return status

    monkeypatch.setattr(lp_engine._Simplex, "phase2", nan_phase2)
    assert lp.feasibility_violation([math.nan]) == math.inf
    with pytest.raises(NumericalBreakdown, match="primal residual inf"):
        solve_lp(lp)


def test_duals_and_weak_duality_on_fixed_lp():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0, slopes=(3.0,))
    y = lp.add_variable("y", 0.0, 10.0, slopes=(1.0,))
    r = lp.add_constraint({x: 1.0, y: 2.0}, ">=", 8.0)
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


def test_feasibility_violation_matches_loop_reference():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        lp = random_lp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9)), anchor=trial % 2 == 0)
        lp.add_variable("free", -math.inf, math.inf)
        lp.add_variable("half", -math.inf, float(rng.integers(-5, 6)))
        lo, hi = np.array(lp.lower), np.array(lp.upper)
        span = np.where(np.isinf(lo) | np.isinf(hi), 10.0, hi - lo)
        centre = np.where(np.isinf(lo), np.where(np.isinf(hi), 0.0, hi), lo)
        for _ in range(3):
            x = centre + (rng.random(lp.n_vars) * 1.4 - 0.2) * span
            # same arithmetic in the same order: the results are equal
            assert lp.feasibility_violation(x) == feasibility_violation_loop(lp, x), f"trial {trial}"


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


def test_badly_scaled_random_battery_against_scipy():
    # Each row and its right-hand side are scaled by 10^U(-5, 5.8), so the
    # coefficients span about eleven decades. The engine has no scaling, so
    # it may raise NumericalBreakdown on some of these, but any verdict it
    # returns must be HiGHS's.
    rng = np.random.default_rng(2718)
    statuses = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    breakdowns = 0
    for trial in range(300):
        lp = random_lp(rng, int(rng.integers(2, 9)), int(rng.integers(1, 11)),
                       anchor=trial % 2 == 0)
        for i, row in enumerate(lp.rows):
            scale = 10.0 ** rng.uniform(-5.0, 5.8)
            lp.rows[i] = {j: a * scale for j, a in row.items()}
            lp.rhs[i] *= scale
        ref = scipy_check(lp)
        try:
            sol = solve_lp(lp)
        except NumericalBreakdown:
            breakdowns += 1
            continue
        assert sol.status == statuses[ref.status], f"trial {trial}"
    assert breakdowns < 30  # 7 of the 300 at the time of writing


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


# -- the triangular crash basis ------------------------------------------------------

def record_crashes(monkeypatch) -> list[tuple[np.ndarray, ...]]:
    """What each _Simplex crash returns: its rows and columns in crash order,
    the crashed point and b - A x there."""
    seen = []
    crash = lp_engine._crash

    def spy(*args):
        seen.append(crash(*args))
        return seen[-1]

    monkeypatch.setattr(lp_engine, "_crash", spy)
    return seen


def check_crash_point(lp: LinearProgram, rows, x, res) -> None:
    """The crash's promises about its point, recomputed from `lp`: every
    column lies in its box, every crashed row has residual 0 there, `res`
    is b - A x, and no inequality row ends outside its slack's range unless
    it started there, and then no further out."""
    lo, hi = np.array(lp.lower), np.array(lp.upper)
    assert np.all((lo <= x) & (x <= hi))
    start = np.clip(0.0, lo, hi)
    for i, (row, sense, b) in enumerate(zip(lp.rows, lp.senses, lp.rhs)):
        tol = 1e-9 * (1.0 + abs(b) + sum(abs(a * x[j]) for j, a in row.items()))
        resid = b - sum(a * x[j] for j, a in row.items())
        assert res[i] == pytest.approx(resid, abs=tol), f"row {i}"
        if i in rows:
            assert res[i] == 0.0 and abs(resid) <= tol, f"row {i}"
        if sense != "=":
            slack_lo, slack_hi = (-math.inf, 0.0) if sense == ">=" else (0.0, math.inf)
            before = b - sum(a * start[j] for j, a in row.items())
            off = max(slack_lo - before, before - slack_hi, 0.0)
            assert slack_lo - off - tol <= resid <= slack_hi + off + tol, f"row {i}"


@pytest.mark.parametrize("case, kind, lam", [("case14", "electrical", 0.5),
                                             ("case30", "flow", 0.0),
                                             ("case118", "electrical", 0.5)])
def test_crash_block_is_triangular_and_nonsingular(monkeypatch, case, kind, lam):
    model = electrical_model() if kind == "electrical" else flow_model()
    lp, _vmap = build_lp(get_case(case), model, lam)
    crashes = record_crashes(monkeypatch)
    spx = lp_engine._Simplex(lp)
    (rows, cols, _x, _res), = crashes
    rows, cols = rows.tolist(), cols.tolist()
    assert np.array_equal(spx.basis[rows], cols)
    # the crash serves rows with a nonzero right-hand side, not only those
    # the start already satisfies
    assert any(lp.rhs[r] != 0.0 for r in rows)
    assert all(lp.senses[r] == "=" for r in rows)
    assert all(lp.lower[j] < lp.upper[j] for j in cols)
    col_max = np.zeros(lp.n_vars)
    for row in lp.rows:
        for j, a in row.items():
            col_max[j] = max(col_max[j], abs(a))
    # in crash order, no column has an entry in an earlier row, and each
    # diagonal entry is at least 0.1 of its column's largest
    for k, (r, j) in enumerate(zip(rows, cols)):
        assert not set(cols[k + 1:]) & set(lp.rows[r])
        assert abs(lp.rows[r][j]) >= 0.1 * col_max[j]
    block = np.array([[lp.rows[r].get(j, 0.0) for j in cols] for r in rows])
    assert np.array_equal(block, np.tril(block))
    assert np.linalg.matrix_rank(block) == len(rows)


def test_crash_point_satisfies_its_rows_inside_the_boxes(monkeypatch):
    crashes = record_crashes(monkeypatch)
    moved = 0
    for case in ["case6ww", "case9", "case14", "case30", "case39", "case57", "case118"]:
        grid = get_case(case)
        for model in (flow_model(), electrical_model(), hybrid_model(sorted(grid.buses)[::5])):
            for lam in (0.0, 0.5, 1.0):
                lp, _vmap = build_lp(grid, model, lam)
                spx = lp_engine._Simplex(lp)
                rows, cols, x, res = crashes[-1]
                check_crash_point(lp, set(rows.tolist()), x, res)
                moved += int(np.sum(x != np.clip(0.0, lp.lower, lp.upper)))
                # the nonbasic columns stay where the crash put them, and
                # only the rows it could not serve, and whose slack cannot
                # hold their residual, get an artificial
                nonbasic = ~spx.in_basis[:lp.n_vars]
                assert np.array_equal(spx.x[:lp.n_vars][nonbasic], x[nonbasic])
                art_rows = {i for i, j in enumerate(spx.basis) if j >= spx.total}
                assert not art_rows & set(rows.tolist())
                assert all(lp.senses[i] == "=" and res[i] != 0.0
                           or (res[i] < 0.0) == (lp.senses[i] == "<=") for i in art_rows)
    assert moved > 0


def test_crash_fills_a_generators_segments_cheapest_first():
    # The generator at bus 1 costs max(x, 3x - 8): slope 1 on [0, 4], then
    # slope 3 on [4, 14], one production column with a breakpoint at 4.
    # Bus 2's row has the flow as its one column and routes the demand of 6
    # onto bus 1's row, where the production column takes it and is basic at
    # 6. Phase two prices it on its segment [4, 14] at slope 3, so the cheap
    # segment counts as full; that start is optimal, at 4 * 1 + 2 * 3.
    cost = PiecewiseLinearConvex(((1.0, 0.0), (3.0, -8.0)), 14.0)
    grid = PowerGrid(buses=[1, 2], branches=[Branch(1, 2, susceptance=100.0, capacity=20.0)],
                     generators={1: Generator(14.0, cost)}, consumers={2: 6.0})
    lp, vmap = build_lp(grid, flow_model(), 1.0)
    (f,), (p,) = vmap.flow_var.values(), vmap.gen_var.values()
    assert (lp.lower[p], lp.upper[p], lp.slopes[lp.cost_at[p]:], lp.breaks) == (
        0.0, 14.0, [1.0, 3.0], [4.0])
    spx = lp_engine._Simplex(lp)
    assert spx.total == len(spx.x)  # no artificial
    assert (spx.x[f], spx.x[p]) == (6.0, 6.0)
    assert spx.in_basis[f] and spx.in_basis[p]
    spx.phase2()
    assert (spx.lower[p], spx.upper[p], spx.c_up[p]) == (4.0, 14.0, 3.0)
    sol = solve_lp(lp)
    assert sol.status == LpStatus.OPTIMAL and sol.iterations == 0
    assert sol.objective == pytest.approx(10.0)


def test_crash_keeps_inequality_rows_in_their_slack_range(monkeypatch):
    crashes = record_crashes(monkeypatch)
    # 7e5 x = 6 needs x = 6/7e5, which would leave 5e-5 x <= 0 short by
    # 4.3e-10, below the phase-one tolerance: the move is rejected, the row
    # keeps an artificial, and phase one proves the LP infeasible
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 8.0)
    lp.add_constraint({x: 7e5}, "=", 6.0)
    lp.add_constraint({x: 5e-5}, "<=", 0.0)
    spx = lp_engine._Simplex(lp)
    rows, _cols, point, _res = crashes[-1]
    assert rows.size == 0 and point[x] == 0.0 and spx.basis[0] >= spx.total
    assert solve_lp(lp).status == LpStatus.INFEASIBLE

    # y + z = 5 prefers y, the lower index, but y <= -1 already misses its
    # range and y = 5 would miss it further; z = 5 keeps z >= 2 satisfied
    lp = LinearProgram()
    y = lp.add_variable("y", 0.0, 10.0)
    z = lp.add_variable("z", 0.0, 10.0)
    pick = lp.add_constraint({y: 1.0, z: 1.0}, "=", 5.0)
    lp.add_constraint({y: 1.0}, "<=", -1.0)
    lp.add_constraint({z: 1.0}, ">=", 2.0)
    spx = lp_engine._Simplex(lp)
    rows, cols, point, res = crashes[-1]
    assert rows.tolist() == [pick] and cols.tolist() == [z] and spx.basis[pick] == z
    assert (point[y], point[z]) == (0.0, 5.0)
    check_crash_point(lp, {pick}, point, res)
    # the '>=' row now fits its slack; the '<=' row, still short, keeps an
    # artificial
    assert spx.basis[2] == lp.n_vars + 2 and spx.basis[1] >= spx.total

    # a move may bring a row that misses its range closer: y = 5 leaves
    # y >= 8 short by 3 rather than 8
    lp = LinearProgram()
    y = lp.add_variable("y", 0.0, 10.0)
    z = lp.add_variable("z", 0.0, 10.0)
    pick = lp.add_constraint({y: 1.0, z: 1.0}, "=", 5.0)
    lp.add_constraint({y: 1.0}, ">=", 8.0)
    lp.add_constraint({z: 1.0}, "<=", 10.0)
    lp_engine._Simplex(lp)
    rows, cols, point, res = crashes[-1]
    assert cols.tolist() == [y] and (point[y], point[z]) == (5.0, 0.0)
    check_crash_point(lp, {pick}, point, res)


def test_crash_takes_equality_rows_and_columns_with_room(monkeypatch):
    crashes = record_crashes(monkeypatch)
    lp = LinearProgram()
    free = lp.add_variable("free", -math.inf, math.inf)
    boxed = lp.add_variable("boxed", -1.0, 2.0, slopes=(1.0,))
    inner = lp.add_variable("inner", -1.0, 1.0, slopes=(-1.0,))
    at_lower = lp.add_variable("at_lower", 0.0, 5.0, slopes=(1.0,))
    fixed = lp.add_variable("fixed", 0.0, 0.0)
    # the free column wins, though the boxed one has fewer entries
    pick = lp.add_constraint({free: 1.0, boxed: 2.0}, "=", 0.0)
    inequality = lp.add_constraint({free: 1.0, inner: 1.0}, "<=", 1.0)
    residual = lp.add_constraint({inner: 1.0}, "=", 0.5)  # nonzero residual
    bounds = lp.add_constraint({at_lower: 1.0, fixed: 1.0}, "=", 3.0)  # column at a bound
    spx = lp_engine._Simplex(lp)
    rows, cols, point, res = crashes[-1]
    assert dict(zip(rows.tolist(), cols.tolist())) == {pick: free, residual: inner,
                                                       bounds: at_lower}
    assert spx.basis[inequality] == lp.n_vars + inequality
    assert spx.total == len(spx.x)  # no artificial
    assert (point[inner], point[at_lower], point[fixed]) == (0.5, 3.0, 0.0)
    check_crash_point(lp, set(rows.tolist()), point, res)
    sol, ref = solve_lp(lp), scipy_check(lp)
    assert sol.status == LpStatus.OPTIMAL and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)


def test_crash_serves_the_row_with_fewest_candidates_first():
    # Served first, row 0 would put a and b out of play, as both have an
    # entry in it, and leave row 1 with nothing. Row 1 has one candidate, so
    # it goes first and takes b, and row 0 then takes a.
    lp = LinearProgram()
    a = lp.add_variable("a", -1.0, 1.0)
    b = lp.add_variable("b", -1.0, 1.0)
    lp.add_constraint({a: 1.0, b: 1.0}, "=", 0.0)
    lp.add_constraint({b: 1.0}, "=", 0.0)
    spx = lp_engine._Simplex(lp)
    assert spx.basis[:2].tolist() == [a, b]


def crash_lp(rng: np.random.Generator) -> LinearProgram:
    """Random LP with free, interior, at-bound and fixed columns, about half
    of whose rows are equalities with a zero right-hand side."""
    n = int(rng.integers(2, 8))
    boxes = []
    for _ in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            boxes.append((-math.inf, math.inf))
        elif kind == 1:
            boxes.append((-float(rng.integers(1, 10)), float(rng.integers(1, 10))))
        elif kind == 2:
            boxes.append((0.0, float(rng.integers(0, 10))))  # at a bound, fixed at 0 when hi = 0
        else:
            lo = float(rng.integers(-10, 1))
            boxes.append((lo, lo + float(rng.integers(0, 15))))
    rows = []
    for _ in range(int(rng.integers(1, 9))):
        k = int(rng.integers(1, min(4, n) + 1))
        coeffs = {int(j): float(rng.integers(-5, 6)) for j in rng.choice(n, size=k, replace=False)}
        coeffs = {j: a for j, a in coeffs.items() if a}
        if not coeffs:
            continue
        if rng.random() < 0.5:
            rows.append((coeffs, "=", 0.0))
        else:
            rows.append((coeffs, ["<=", ">=", "="][int(rng.integers(0, 3))],
                         float(rng.integers(-15, 16))))
    costs = [float(rng.integers(-9, 10)) for _ in range(n)]  # last, as in random_lp
    lp = LinearProgram()
    for j, ((lo, hi), c) in enumerate(zip(boxes, costs)):
        lp.add_variable(f"v{j}", lo, hi, slopes=(c,))
    for row in rows:
        lp.add_constraint(*row)
    return lp


def test_random_battery_where_the_crash_fires(monkeypatch):
    rng = np.random.default_rng(31337)
    crashes = record_crashes(monkeypatch)
    fired = infeasible = 0
    statuses = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    for trial in range(400):
        lp = crash_lp(rng)
        sol = solve_lp(lp)
        ref = scipy_check(lp)
        rows, _cols, x, res = crashes[-1]
        check_crash_point(lp, set(rows.tolist()), x, res)
        fired += rows.size > 0
        assert sol.status == statuses[ref.status], f"trial {trial}"
        if sol.status == LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"
            assert lp.feasibility_violation(sol.values) <= 1e-7, f"trial {trial}"
        elif sol.status == LpStatus.INFEASIBLE:
            assert exact_ray_certifies(lp, sol.ray), f"trial {trial}"
            infeasible += 1
    assert fired >= 250 and infeasible >= 150


# -- convex piecewise-linear costs ---------------------------------------------------

def pwl_lp(rng: np.random.Generator, anchor: bool) -> LinearProgram:
    """Random LP with integer data whose columns have convex piecewise-linear
    costs of one to four segments on boxes that may run to -inf or inf; 0 is
    a breakpoint of about half the columns whose box holds it inside.
    `anchor` builds the rhs around a point of the boxes."""
    lp = LinearProgram()
    n = int(rng.integers(2, 7))
    for j in range(n):
        lo, hi = sorted(float(v) for v in rng.choice(np.arange(-12, 13), size=2, replace=False))
        kind = int(rng.integers(0, 4))
        lo, hi = (-math.inf if kind in (1, 3) else lo), (math.inf if kind in (2, 3) else hi)
        inside = [float(v) for v in range(-11, 12) if lo < v < hi]
        k = min(int(rng.integers(0, 4)), len(inside))
        breaks = set(rng.choice(inside, size=k, replace=False).tolist()) if k else set()
        if lo < 0.0 < hi and rng.random() < 0.5:
            breaks.add(0.0)
        steps = rng.integers(1, 5, size=len(breaks))
        slopes = (float(rng.integers(-6, 4)) + np.concatenate([[0], np.cumsum(steps)])).tolist()
        lp.add_variable(f"v{j}", lo, hi, slopes, sorted(breaks))
    x0 = rng.integers(-8, 9, size=n).clip(lp.lower, lp.upper)
    for _ in range(int(rng.integers(1, 9))):
        cols = rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)), replace=False)
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
    return lp


def test_random_pwl_battery_against_highs():
    rng = np.random.default_rng(8128)
    statuses = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0, "infinite end": 0, "on a breakpoint": 0}
    for trial in range(400):
        lp = pwl_lp(rng, anchor=trial % 2 == 0)
        sol = solve_lp(lp)
        ref = scipy_check(lp)
        assert sol.status == statuses[ref.status], f"trial {trial}"
        seen[sol.status] += 1
        col, lo, hi, _slope = lp.segments()
        bent = np.bincount(col, minlength=lp.n_vars) > 1
        seen["infinite end"] += bool(np.any(bent & np.isinf(np.array(lp.lower) - lp.upper)))
        seen["on a breakpoint"] += 0.0 in lp.breaks
        if sol.status == LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"
            assert lp.feasibility_violation(sol.values) <= 1e-7, f"trial {trial}"
        elif sol.status == LpStatus.INFEASIBLE:  # free columns: see exact_ray_certifies
            assert exact_ray_certifies(lp, sol.ray), f"trial {trial}"
    assert seen["optimal"] >= 150 and seen["infeasible"] >= 80 and seen["unbounded"] >= 40, seen
    assert seen["infinite end"] >= 150 and seen["on a breakpoint"] >= 150, seen


def test_pwl_solves_repeat_their_pivot_sequence(monkeypatch):
    picks = []
    entering = lp_engine._Simplex._entering

    def spy(self, *args):
        picks.append(entering(self, *args))
        return picks[-1]

    monkeypatch.setattr(lp_engine._Simplex, "_entering", spy)
    lp, _vmap = build_lp(get_case("case30"), electrical_model(), 0.5)
    a = solve_lp(lp)
    first, picks[:] = picks[:], []
    b = solve_lp(lp)
    assert a.iterations == b.iterations > 0 and first == picks
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("lower, upper, slopes, breaks", [
    (0.0, 10.0, [2.0, 1.0], [5.0]),  # slopes fall: not convex
    (0.0, 10.0, [1.0, 2.0], [12.0]),  # breakpoint beyond the box
    (0.0, 10.0, [1.0, 2.0], [0.0]),  # breakpoint on a bound
    (0.0, 10.0, [1.0, 2.0, 3.0], [6.0, 4.0]),  # breakpoints out of order
    (0.0, 10.0, [1.0, 2.0], []),  # one slope too many
    (-math.inf, math.inf, [1.0, 2.0], [math.inf]),
])
def test_a_curve_that_does_not_split_its_box_convexly_is_rejected(lower, upper, slopes, breaks):
    with pytest.raises(ValueError):
        LinearProgram().add_variable("x", lower, upper, slopes, breaks)


# -- KKT conditions on the power-flow LPs ------------------------------------------

@pytest.mark.parametrize("case, kind, lam, capacity", [("case30", "electrical", 0.5, 1.0),
                                                       ("case118", "flow", 1.0, 1.0),
                                                       ("case39", "electrical", 0.5, 0.7)])
def test_power_flow_lps_meet_kkt(case, kind, lam, capacity):
    # The subgradient conditions, checked on the segment LP of `expand`: at
    # 0.7 of their capacity, case39's lines bind, so reduced costs are nonzero
    model = electrical_model() if kind == "electrical" else flow_model()
    grid = get_case(case)
    grid = PowerGrid(grid.buses,
                     [replace(br, capacity=br.capacity * capacity) for br in grid.branches],
                     grid.generators, grid.consumers, grid.base_mva, grid.name)
    lp, _vmap = build_lp(grid, model, lam)
    sol = solve_lp(lp)
    ref = scipy_check(lp)
    assert sol.status == LpStatus.OPTIMAL and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun + lp.obj_constant, rel=1e-7)

    y, x = sol.dual_values, sol.values
    assert len(y) == lp.n_rows
    tol = 1e-6
    for i, sense in enumerate(lp.senses):  # A x + s = b, '<=': s >= 0, '>=': s <= 0
        if sense == "<=":
            assert y[i] <= tol, f"row {i}"
        elif sense == ">=":
            assert y[i] >= -tol, f"row {i}"

    # each piece's variable at x: the pieces between the anchor and x_j are
    # full, the others empty
    col, start, stop, slope, anchor, anchor_cost = expand(lp)
    z = np.clip(x[col], np.minimum(start, stop), np.maximum(start, stop)) - start
    assert np.allclose(np.bincount(col, weights=z, minlength=lp.n_vars), x - anchor,
                       rtol=1e-12, atol=1e-9)
    lo_z, hi_z = np.minimum(stop - start, 0.0), np.maximum(stop - start, 0.0)
    price = np.zeros(lp.n_vars)
    for i, row in enumerate(lp.rows):
        for j, a in row.items():
            price[j] += y[i] * a
    d = slope - price[col]  # each piece's reduced cost s_k - y.a_j
    for k in range(len(col)):
        at_lo = z[k] <= lo_z[k] + 1e-9 * (1 + abs(lo_z[k]))
        at_hi = z[k] >= hi_z[k] - 1e-9 * (1 + abs(hi_z[k]))
        if at_lo and at_hi:
            continue  # fixed piece: either sign
        if at_lo:
            assert d[k] >= -tol, f"piece {k} of column {col[k]} empty"
        elif at_hi:
            assert d[k] <= tol, f"piece {k} of column {col[k]} full"
        else:
            assert abs(d[k]) <= tol, f"piece {k} of column {col[k]} partly full"

    rhs = np.array(lp.rhs) - np.array([sum(a * anchor[j] for j, a in row.items())
                                       for row in lp.rows])
    dual = float(np.dot(y, rhs)) + anchor_cost + lp.obj_constant
    pos, neg = d > 1e-9, d < -1e-9
    dual += float(d[pos] @ lo_z[pos] + d[neg] @ hi_z[neg])
    assert dual == pytest.approx(sol.objective, abs=1e-6 * (1 + abs(sol.objective)))
    assert capacity == 1.0 or np.abs(sol.reduced_costs).max() > 1e-3
