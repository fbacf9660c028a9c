"""In-house LP solving.

The solver is a bounded-variable revised simplex: variables carry two-sided
bounds (signed branch flows live in [-c, c], cost segments in [0, w], angles
are free), rows become equalities via one slack column each, and an
infeasible starting point is repaired by a phase-one minimization over
artificial columns. A nonbasic variable that reaches its opposite bound
flips there without a pivot. Dantzig pricing with a Bland's-rule fallback
after a degeneracy streak keeps the pivot sequence deterministic. The basis
inverse is kept explicitly with rank-one updates and periodic
refactorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

INF = math.inf

_TOL = 1e-7  # optimality and primal feasibility tolerance
_REFACTOR_EVERY = 150
_BLAND_TRIGGER = 50  # consecutive degenerate pivots before Bland's rule
_PIVOT_TOL = 1e-9
_BOUND_EPS = 1e-9
_TIE_EPS = 1e-10  # ratios this close tie in the ratio test


class NumericalBreakdown(RuntimeError):
    """Singular basis, iteration limit, or primal residual above tolerance."""


class LpStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """Sparse minimization problem with bounded variables.

    Rows are built incrementally; senses are '<=', '=', '>='.
    """

    def __init__(self):
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.obj: dict[int, float] = {}
        self.obj_constant = 0.0
        self.rows: list[dict[int, float]] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []

    @property
    def n_vars(self) -> int:
        return len(self.lower)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, name: str = "", lower: float = 0.0, upper: float = INF) -> int:
        if not lower <= upper:
            raise ValueError(f"variable {name!r}: empty bound interval [{lower}, {upper}]")
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.lower) - 1

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense!r}")
        clean = {}
        for j, a in coeffs.items():
            if not 0 <= j < self.n_vars:
                raise ValueError(f"constraint references unknown variable {j}")
            if math.isnan(a):
                raise ValueError("NaN coefficient")
            if a != 0.0:
                clean[j] = a
        self.rows.append(clean)
        self.senses.append(sense)
        self.rhs.append(rhs)
        return len(self.rows) - 1

    def set_objective(self, coeffs: dict[int, float], constant: float = 0.0) -> None:
        if any(math.isnan(a) for a in coeffs.values()):
            raise ValueError("NaN objective coefficient")
        self.obj = {j: a for j, a in coeffs.items() if a != 0.0}
        self.obj_constant = constant

    def objective_value(self, x) -> float:
        return float(sum(a * x[j] for j, a in self.obj.items()) + self.obj_constant)

    def row_activity(self, row: int, x) -> float:
        return float(sum(a * x[j] for j, a in self.rows[row].items()))

    def feasibility_violation(self, x) -> float:
        """Largest scaled constraint/bound violation of x (0 when feasible)."""
        worst = 0.0
        for j in range(self.n_vars):
            lo, hi = self.lower[j], self.upper[j]
            scale = 1.0 + min(abs(b) for b in (lo, hi) if not math.isinf(b)) \
                if not (math.isinf(lo) and math.isinf(hi)) else 1.0
            worst = max(worst, (lo - x[j]) / scale, (x[j] - hi) / scale)
        for i in range(self.n_rows):
            act = self.row_activity(i, x)
            scale = 1.0 + abs(self.rhs[i])
            if self.senses[i] in ("<=", "="):
                worst = max(worst, (act - self.rhs[i]) / scale)
            if self.senses[i] in (">=", "="):
                worst = max(worst, (self.rhs[i] - act) / scale)
        return worst


@dataclass
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective: float | None = None
    dual_values: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    ray: np.ndarray | None = None  # primal ray (unbounded) / Farkas row ray (infeasible)
    iterations: int = 0


class _Simplex:
    """Equality-form working problem A x + I s + D a = b over the rows of
    `lp`. Columns are structural | slack | artificial. Each row whose slack
    cannot absorb its residual at the starting point gets an artificial
    column, a signed unit column in [0, inf) that starts basic; artificials
    never enter the basis.
    """

    def __init__(self, lp: LinearProgram):
        n, m = lp.n_vars, lp.n_rows
        self.total = n + m  # index of the first artificial column
        self.iterations = 0
        r_idx = np.array([i for i, row in enumerate(lp.rows) for _ in row], dtype=np.int64)
        c_idx = np.array([j for row in lp.rows for j in row], dtype=np.int64)
        vals = np.array([a for row in lp.rows for a in row.values()], dtype=float)
        a_struct = sparse.csc_matrix((vals, (r_idx, c_idx)), shape=(m, n))
        self.b = np.array(lp.rhs, dtype=float)
        lower = np.array(lp.lower, dtype=float)
        upper = np.array(lp.upper, dtype=float)

        # start: every structural nonbasic at its finite bound nearest zero;
        # each slack takes the value nearest its row's residual and is basic
        # when it absorbs all of it, otherwise a basic artificial takes the rest
        use_lo = ~np.isinf(lower) & (np.isinf(upper) | (np.abs(lower) <= np.abs(upper)))
        x = np.where(use_lo, lower, np.where(np.isinf(upper), 0.0, upper))
        slack_lo = np.array([-INF if s == ">=" else 0.0 for s in lp.senses])
        slack_hi = np.array([INF if s == "<=" else 0.0 for s in lp.senses])
        resid = self.b - a_struct @ x
        slack = np.clip(resid, slack_lo, slack_hi)
        fits = (slack_lo - 1e-12 <= resid) & (resid <= slack_hi + 1e-12)
        art_rows = np.flatnonzero(~fits)
        n_art = art_rows.size
        signs = np.where(resid[art_rows] >= slack[art_rows], 1.0, -1.0)

        self.A = sparse.hstack([
            a_struct,
            sparse.identity(m, format="csc"),
            sparse.csc_matrix((signs, (art_rows, np.arange(n_art))), shape=(m, n_art)),
        ], format="csc")
        self.AT = self.A.T.tocsr()
        self.x = np.concatenate([x, slack, np.zeros(n_art)])
        self.lower = np.concatenate([lower, slack_lo, np.zeros(n_art)])
        self.upper = np.concatenate([upper, slack_hi, np.full(n_art, INF)])
        self.c = np.zeros(len(self.x))
        self.c[list(lp.obj)] = list(lp.obj.values())

        self.basis = n + np.arange(m)
        self.basis[art_rows] = self.total + np.arange(n_art)
        self.in_basis = np.isin(np.arange(len(self.x)), self.basis)
        self.max_iter = 2000 + 50 * (m + self.total)
        self._refactor()

    def _ftran(self, j: int) -> np.ndarray:
        """B^-1 column j, using column sparsity."""
        lo, hi = self.A.indptr[j], self.A.indptr[j + 1]
        return self.b_inv[:, self.A.indices[lo:hi]] @ self.A.data[lo:hi]

    def _refactor(self) -> None:
        try:
            self.b_inv = np.linalg.inv(self.A[:, self.basis].toarray())
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("singular basis") from None
        # recompute basic values from the nonbasic point
        x_nb = np.where(self.in_basis, 0.0, self.x)
        self.x[self.basis] = self.b_inv @ (self.b - self.A @ x_nb)

    def _duals(self, cost: np.ndarray) -> np.ndarray:
        return cost[self.basis] @ self.b_inv

    def _entering(self, d: np.ndarray, bland: bool) -> tuple[int, float] | None:
        x, lo, hi = self.x, self.lower, self.upper
        nb = ~self.in_basis & (lo != hi)
        nb[self.total:] = False
        free = np.isinf(lo) & np.isinf(hi)
        at_lo = np.zeros(len(x), dtype=bool)
        fl = ~np.isinf(lo)
        at_lo[fl] = x[fl] <= lo[fl] + _BOUND_EPS * (1 + np.abs(lo[fl]))
        at_hi = np.zeros(len(x), dtype=bool)
        fh = ~np.isinf(hi)
        at_hi[fh] = x[fh] >= hi[fh] - _BOUND_EPS * (1 + np.abs(hi[fh]))
        can_up = nb & (at_lo | free) & (d < -_TOL)
        can_dn = nb & (at_hi | free) & (d > _TOL)
        if bland:
            idx = np.flatnonzero(can_up | can_dn)
            if idx.size == 0:
                return None
            j = int(idx[0])
            return j, 1.0 if can_up[j] else -1.0
        score = np.where(can_up, -d, np.where(can_dn, d, 0.0))
        j = int(np.argmax(score))
        if score[j] <= _TOL:
            return None
        return j, 1.0 if can_up[j] else -1.0

    def _ratio_test(self, j: int, direction: float, w: np.ndarray) -> tuple[float, int]:
        """Step length and leaving basis row, -1 when column j flips bounds.

        The smallest ratio among the basics wins; ties go to the lowest basis
        column (anti-cycling), and a tie with column j's own opposite bound
        is a bound flip. An infinite step means the direction is a ray.
        """
        limit = self.upper[j] - self.x[j] if direction > 0 else self.x[j] - self.lower[j]
        step = -direction * w
        rows = np.flatnonzero(np.abs(step) > _PIVOT_TOL)
        bj = self.basis[rows]
        cap = np.where(step[rows] > 0, self.upper[bj] - self.x[bj], self.x[bj] - self.lower[bj])
        ratio = np.maximum(cap, 0.0) / np.abs(step[rows])
        if ratio.size == 0 or ratio.min() >= limit - _TIE_EPS:
            return limit, -1
        best = ratio.min()
        tied = rows[ratio <= best + _TIE_EPS]
        return best, int(tied[np.argmin(self.basis[tied])])

    def _pivot(self, j: int, r: int, w: np.ndarray) -> None:
        """Column j replaces basis row r; the leaving column snaps to a bound."""
        leaving = self.basis[r]
        lo, hi, xl = self.lower[leaving], self.upper[leaving], self.x[leaving]
        if not math.isinf(lo) and (math.isinf(hi) or abs(xl - lo) <= abs(xl - hi)):
            self.x[leaving] = lo
        elif not math.isinf(hi):
            self.x[leaving] = hi
        self.in_basis[leaving] = False
        self.basis[r] = j
        self.in_basis[j] = True

        self.b_inv[r] /= w[r]
        row = self.b_inv[r].copy()
        self.b_inv -= np.outer(w, row)
        self.b_inv[r] = row

    def run(self, cost: np.ndarray) -> str:
        degenerate_streak = 0
        since_refactor = 0
        while True:
            if self.iterations >= self.max_iter:
                raise NumericalBreakdown(f"iteration limit {self.max_iter} exceeded")
            y = self._duals(cost)
            d = cost - self.AT @ y
            pick = self._entering(d, bland=degenerate_streak >= _BLAND_TRIGGER)
            if pick is None:
                return "optimal"
            j, direction = pick
            w = self._ftran(j)
            step_len, leave = self._ratio_test(j, direction, w)
            if math.isinf(step_len):
                self._ray = (j, direction, w)
                return "unbounded"

            degenerate_streak = degenerate_streak + 1 if step_len <= _TOL else 0
            self.x[j] += direction * step_len
            moved = np.abs(w) > _PIVOT_TOL
            self.x[self.basis[moved]] -= direction * step_len * w[moved]
            self.iterations += 1
            if leave < 0:
                continue  # bound flip, basis unchanged

            self._pivot(j, leave, w)
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0

    def phase1(self) -> bool:
        """Drive the artificials to zero; False when the rows are infeasible."""
        if self.total == len(self.x):  # no artificials: the start is feasible
            return True
        art = slice(self.total, None)
        self.art_cost = (np.arange(len(self.x)) >= self.total).astype(float)
        if self.run(self.art_cost) != "optimal":  # bounded below by 0
            raise NumericalBreakdown("phase one reported unbounded")
        scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        if np.abs(self.x[art]).sum() > _TOL * scale * 10:
            return False
        self.upper[art] = 0.0  # pin artificials so phase two cannot revive them
        self.x[art] = np.clip(self.x[art], 0.0, None)
        return True


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve to proven optimality, infeasibility or unboundedness.

    Optimal solutions are certified: the primal point satisfies every row
    within 10*_TOL*(1+|rhs|) and the duals/reduced costs satisfy complementary
    slackness. Infeasible problems carry a Farkas row ray, with entries at or
    below 1e-9 of its largest zeroed; unbounded ones a primal ray. Duals and
    rays index the rows of `lp`. Identical inputs give the identical pivot
    sequence.
    """
    spx = _Simplex(lp)
    n = lp.n_vars
    if not spx.phase1():
        ray = spx._duals(spx.art_cost)
        ray[np.abs(ray) <= 1e-9 * np.abs(ray).max()] = 0.0  # rounding noise
        return LpSolution(LpStatus.INFEASIBLE, ray=ray, iterations=spx.iterations)

    if spx.run(spx.c) == "unbounded":
        j, direction, w = spx._ray
        ray = np.zeros(len(spx.x))
        ray[j] = direction
        moved = np.abs(w) > _PIVOT_TOL
        ray[spx.basis[moved]] = -direction * w[moved]
        return LpSolution(LpStatus.UNBOUNDED, values=spx.x[:n].copy(),
                          ray=ray[:n], iterations=spx.iterations)

    violation = lp.feasibility_violation(spx.x[:n])
    if violation > _TOL * 10:
        spx._refactor()
        violation = lp.feasibility_violation(spx.x[:n])
        if violation > _TOL * 10:
            raise NumericalBreakdown(f"primal residual {violation:.2e} above tolerance")

    y = spx._duals(spx.c)
    d = spx.c - spx.AT @ y
    x = spx.x[:n].copy()
    return LpSolution(
        LpStatus.OPTIMAL,
        values=x,
        objective=lp.objective_value(x),
        dual_values=y,
        reduced_costs=d[:n].copy(),
        iterations=spx.iterations,
    )
