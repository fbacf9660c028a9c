"""In-house LP solving.

The solver is a bounded-variable revised simplex for separable convex
piecewise-linear costs: each column has two-sided bounds (a branch flow in
[-c, c], a production in [0, x]) and a convex cost on that box given by its
slopes and breakpoints, a linear cost being the one-segment case. Rows
become equalities via one slack column each. Every structural column starts
at the point of its box nearest zero. A triangular crash then serves the
equality rows one at a time: a column with room in its box moves to take
the row's residual and becomes basic there, or, when its box is too small,
stops at a bound and leaves the rest to the row's next column, so demand is
routed along the flows. No move takes an inequality row out of its slack's
range, or further out. Only the rows the crash cannot serve, and whose
slack cannot hold their residual, get an artificial column, which phase one
drives to zero on the outer boxes. Phase two prices the curves in place
(Fourer, "A simplex algorithm for piecewise-linear programming I", 1985): a
basic column takes its current segment as its box and that segment's slope
as its cost, and a nonbasic one is priced with the slope on each side of
where it stands, so a breakpoint is a bound flip for an entering column and
a leaving point for a basic one. Dantzig pricing and a Harris two-pass
ratio test pick the pivots, with Bland's rule after a degeneracy streak;
the pivot sequence is deterministic. The basis inverse is kept explicitly
with rank-one updates and periodic refactorization. An infeasible verdict
is returned only with a checked Farkas certificate. The working matrix is
held as plain numpy arrays sorted by column, so the engine needs numpy only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

_TOL = 1e-7  # optimality and primal feasibility tolerance
_REFACTOR_EVERY = 150
_BLAND_TRIGGER = 50  # consecutive degenerate pivots before Bland's rule
_PIVOT_TOL = 1e-9
_BOUND_EPS = 1e-9  # relative bound slack of the Harris ratio test
_NOISE = 1e-9  # relative size of cancellation noise in y.A
_CRASH_PIVOT = 0.1  # least |a| of a crash entry, relative to its column's largest


class NumericalBreakdown(RuntimeError):
    """Singular basis, iteration limit, or primal residual above tolerance."""


class LpStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """Sparse minimization problem with bounded variables and separable
    convex piecewise-linear costs.

    Rows are built incrementally; senses are '<=', '=', '>='. Column j costs
    the convex function that is 0 at 0 and has slope slopes[k] on its
    segment k, for cost_at[j] <= k < cost_at[j + 1]; its segments meet at its
    interior breakpoints, breaks[cost_at[j] - j:cost_at[j + 1] - j - 1], and
    the end segments run to its bounds.
    """

    def __init__(self):
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.cost_at: list[int] = [0]
        self.slopes: list[float] = []
        self.breaks: list[float] = []
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

    def add_variable(self, name: str = "", lower: float = 0.0, upper: float = INF,
                     slopes=(0.0,), breaks=()) -> int:
        """A column on [lower, upper] whose cost has the given increasing
        slopes, which change at the given breakpoints strictly inside the box;
        a breakpoint between equal slopes is dropped."""
        if not lower <= upper:
            raise ValueError(f"variable {name!r}: empty bound interval [{lower}, {upper}]")
        if len(slopes) != len(breaks) + 1 or slopes[0] != slopes[0]:
            raise ValueError(f"variable {name!r}: need one slope, not NaN, per segment")
        if breaks:
            ends = [lower, *breaks, upper]
            if not all(a < b for a, b in zip(ends, ends[1:])):
                raise ValueError(f"variable {name!r}: breakpoints {breaks} do not split its box")
            if not all(a <= b for a, b in zip(slopes, slopes[1:])):
                raise ValueError(f"variable {name!r}: slopes {slopes} are not convex")
            keep = [k for k in range(len(breaks)) if slopes[k] != slopes[k + 1]]
            self.breaks += [breaks[k] for k in keep]
            slopes = [slopes[0], *(slopes[k + 1] for k in keep)]
        self.slopes += slopes
        self.cost_at.append(len(self.slopes))
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

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Column, left end, right end and slope of each cost segment, in order."""
        n, at = self.n_vars, np.array(self.cost_at)
        col = np.repeat(np.arange(n), np.diff(at))
        # each column's lower bound, breakpoints and upper bound in turn
        first, stop = at[:-1] + np.arange(n), at[1:] + np.arange(n)
        ends = np.empty(at[-1] + n)
        inner = np.ones(ends.size, dtype=bool)
        inner[first] = inner[stop] = False
        ends[first], ends[stop], ends[inner] = self.lower, self.upper, self.breaks
        k = np.arange(at[-1]) + col
        return col, ends[k], ends[k + 1], np.array(self.slopes)

    def objective_value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        col, lo, hi, slope = self.segments()
        at = np.array(self.cost_at)
        # each column's cost is its slope integrated from 0, the end segments
        # extended beyond the box
        lo[at[:-1]], hi[at[1:] - 1] = -INF, INF
        rise = np.minimum(np.maximum(x[col], lo), hi) - np.minimum(np.maximum(0.0, lo), hi)
        return float(slope @ rise + self.obj_constant)

    def coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row index, column index and value of every coefficient, row by row."""
        r_idx = np.repeat(np.arange(self.n_rows), [len(row) for row in self.rows])
        c_idx = np.fromiter((j for row in self.rows for j in row), dtype=np.int64, count=r_idx.size)
        vals = np.fromiter((a for row in self.rows for a in row.values()), dtype=float,
                           count=r_idx.size)
        return r_idx, c_idx, vals

    def feasibility_violation(self, x) -> float:
        """Largest scaled constraint/bound violation of x (0 when feasible,
        inf when an entry of x is not finite).

        A bound violation is divided by 1 + the smaller finite |bound| of its
        column (1 when both are infinite), a row violation by 1 + |rhs|.
        """
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            return INF
        lo, hi = np.array(self.lower), np.array(self.upper)
        nearest = np.minimum(np.abs(lo), np.abs(hi))
        scale = 1.0 + np.where(np.isinf(nearest), 0.0, nearest)
        rhs = np.array(self.rhs)
        r_idx, c_idx, vals = self.coefficients()
        activity = np.bincount(r_idx, weights=vals * x[c_idx], minlength=self.n_rows)
        excess = (activity - rhs) / (1.0 + np.abs(rhs))
        senses = np.array(self.senses)
        return float(max(((lo - x) / scale).max(initial=0.0), ((x - hi) / scale).max(initial=0.0),
                         excess[senses != ">="].max(initial=0.0),
                         (-excess[senses != "<="]).max(initial=0.0)))


@dataclass
class LpSolution:
    status: str
    values: np.ndarray | None = None
    objective: float | None = None
    dual_values: np.ndarray | None = None
    # the point nearest 0 of [d-, d+], d-/+ = the slope left/right of x_j - y.a_j;
    # c_j - y.a_j for a one-segment column
    reduced_costs: np.ndarray | None = None
    ray: np.ndarray | None = None  # primal ray (unbounded) / Farkas row ray (infeasible)
    iterations: int = 0


def _crash(r_idx: np.ndarray, c_idx: np.ndarray, vals: np.ndarray, x: np.ndarray,
           lower: np.ndarray, upper: np.ndarray, resid: np.ndarray, slack_lo: np.ndarray,
           slack_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of a lower-triangular starting block, in crash order,
    the point the crash moves `x` to, and b - A x there.

    `resid` is b - A x at the given point; the entries are sorted by column.
    Every equality row may give its basis place to a structural column with
    `lower < upper`, at or inside a bound, through an entry a_rj of at least
    _CRASH_PIVOT of its column's largest |a_ij|. The row with the fewest
    qualifying columns left is served first. It tries them in order, a free
    column before a boxed one, then the column with the fewest entries, then
    the lowest index. A column whose box holds x_j + res_r / a_rj moves there
    and becomes basic, and the row counts as exactly satisfied; one whose box
    does not moves to its bound on that side and stays nonbasic, and the row
    tries its next column. A move is skipped when it would take an inequality row, which keeps its
    slack, out of the slack's range, or further out. Each move updates the
    residual of every row the column touches. A row that no column serves
    keeps what is left of its residual. Serving a row puts every column with
    an entry in it out of play, so no column taken later has an entry in an
    earlier row: the block is lower triangular with a nonzero diagonal,
    hence nonsingular, and the served rows stay satisfied.
    """
    n, m = len(x), len(resid)
    mag = np.abs(vals)
    col_max = np.zeros(n)
    np.maximum.at(col_max, c_idx, mag)
    equality = slack_lo == slack_hi
    live = equality[r_idx] & (lower < upper)[c_idx]
    r_live, c_live, v_live = r_idx[live], c_idx[live], vals[live]
    ok = mag[live] >= _CRASH_PIVOT * col_max[c_live]
    # CSR-style lists: the live columns of each row, each row's qualifying
    # columns and entries in the order it prefers them, the rows each column
    # qualifies in, and every entry of each column (they come sorted by it)
    by_row = np.argsort(r_live, kind="stable")
    in_row = c_live[by_row].tolist()
    in_row_at = np.searchsorted(r_live[by_row], np.arange(m + 1)).tolist()
    r_ok, c_ok = r_live[ok], c_live[ok]
    free = np.isinf(lower) & np.isinf(upper)
    pref = np.lexsort((c_ok, np.bincount(c_idx, minlength=n)[c_ok], ~free[c_ok], r_ok))
    options = c_ok[pref].tolist()
    option_val = v_live[ok][pref].tolist()
    options_at = np.searchsorted(r_ok[pref], np.arange(m + 1)).tolist()
    rows_of = r_ok.tolist()
    rows_of_at = np.searchsorted(c_ok, np.arange(n + 1)).tolist()
    entry_row, entry_val = r_idx.tolist(), vals.tolist()
    entries_at = np.searchsorted(c_idx, np.arange(n + 1)).tolist()
    # the columns with an entry in an inequality row
    guarded = np.bincount(c_idx, weights=~equality[r_idx], minlength=n).astype(bool).tolist()

    x, res, eq = x.tolist(), resid.tolist(), equality.tolist()
    lo, hi, box_lo, box_hi = slack_lo.tolist(), slack_hi.tolist(), lower.tolist(), upper.tolist()

    def off(i: int, r: float) -> float:  # how far residual r lies outside row i's slack range
        return max(lo[i] - r, r - hi[i], 0.0)

    left = np.diff(options_at).tolist()
    queue = [(k, r) for r, k in enumerate(left) if k]
    heapq.heapify(queue)
    out = bytearray(n)
    crash_rows, crash_cols = [], []
    while queue:
        k, r = heapq.heappop(queue)
        if k != left[r]:  # stale entry, or the row is done
            continue
        left[r] = 0
        for j, a in zip(options[options_at[r]:options_at[r + 1]],
                        option_val[options_at[r]:options_at[r + 1]]):
            if out[j]:
                continue
            target = x[j] + res[r] / a
            basic = box_lo[j] <= target <= box_hi[j]
            if not basic:
                target = box_lo[j] if target < box_lo[j] else box_hi[j]
            step = target - x[j]
            if step:
                span = slice(entries_at[j], entries_at[j + 1])
                if guarded[j] and any(not eq[i] and off(i, res[i] - v * step) > off(i, res[i])
                                      for i, v in zip(entry_row[span], entry_val[span])):
                    continue
                for i, v in zip(entry_row[span], entry_val[span]):
                    res[i] -= v * step
                x[j] = target
            if basic:
                break
        else:
            continue
        res[r] = 0.0
        crash_rows.append(r)
        crash_cols.append(j)
        for j in in_row[in_row_at[r]:in_row_at[r + 1]]:
            if out[j]:
                continue
            out[j] = 1
            for i in rows_of[rows_of_at[j]:rows_of_at[j + 1]]:
                if left[i]:
                    left[i] -= 1
                    if left[i]:
                        heapq.heappush(queue, (left[i], i))
    return (np.array(crash_rows, dtype=np.int64), np.array(crash_cols, dtype=np.int64),
            np.array(x), np.array(res))


class _Simplex:
    """Equality-form working problem A x + I s + D a = b over the rows of
    `lp`. Columns are structural | slack | artificial. Each structural column
    starts at the point of its box nearest zero (0 when the box holds it),
    and `_crash` then moves some of them: it gives each equality row it can
    serve a structural column with `lower < upper`, basic at the value that
    leaves the row a residual of 0, and may stop other columns of the row at
    a bound on the way. The crashed columns form a lower-triangular block,
    so the starting basis is nonsingular. Each other row starts with its
    slack basic at its residual at the crashed point, unless the slack cannot
    absorb it; then the row gets an artificial column, a signed unit column
    in [0, inf) that starts basic. Artificials never enter the basis. Each
    phase prices on a table of cost segments (`_curves`). `left` and `right`
    are the segments either side of where a column stands, one segment for
    a basic column; `lower`, `upper` are their outer ends, the working box,
    and `c_down`, `c_up` their slopes. `rise` and `fall` mark the nonbasic
    columns that may move up or down. Only the entering, leaving and
    bound-flipped columns change these.
    """

    def __init__(self, lp: LinearProgram):
        n, m = lp.n_vars, lp.n_rows
        self.total = n + m  # index of the first artificial column
        self.iterations = 0
        r_idx, c_idx, vals = lp.coefficients()
        order = np.argsort(c_idx, kind="stable")
        r_idx, c_idx, vals = r_idx[order], c_idx[order], vals[order]
        self.b = np.array(lp.rhs, dtype=float)
        lower = np.array(lp.lower, dtype=float)
        upper = np.array(lp.upper, dtype=float)

        # the crash moves the structurals from the point of their box nearest
        # zero; then each slack takes the value nearest its row's residual and
        # is basic when it absorbs all of it, otherwise a basic artificial
        # takes the rest
        x = np.clip(0.0, lower, upper)
        slack_lo = np.array([-INF if s == ">=" else 0.0 for s in lp.senses])
        slack_hi = np.array([INF if s == "<=" else 0.0 for s in lp.senses])
        resid = self.b - np.bincount(r_idx, weights=vals * x[c_idx], minlength=m)
        crash_rows, crash_cols, x, resid = _crash(r_idx, c_idx, vals, x, lower, upper, resid,
                                                  slack_lo, slack_hi)
        slack = np.clip(resid, slack_lo, slack_hi)
        fits = (slack_lo - 1e-12 <= resid) & (resid <= slack_hi + 1e-12)
        art_rows = np.flatnonzero(~fits)
        n_art = art_rows.size
        signs = np.where(resid[art_rows] >= slack[art_rows], 1.0, -1.0)

        # A | I | D as the row, column and value of each entry, sorted by
        # column; column j's entries are start[j]:start[j + 1]
        self.row_of = np.concatenate([r_idx, np.arange(m), art_rows])
        self.col_of = np.concatenate([c_idx, n + np.arange(m), self.total + np.arange(n_art)])
        self.val = np.concatenate([vals, np.ones(m), signs])
        self.start = np.searchsorted(self.col_of, np.arange(self.total + n_art + 1))
        self.x = np.concatenate([x, slack, np.zeros(n_art)])
        self.lower = np.concatenate([lower, slack_lo, np.zeros(n_art)])
        self.upper = np.concatenate([upper, slack_hi, np.full(n_art, INF)])
        self.curves = lp.segments()
        # a slack off its bound by e moves its row by e, which its largest
        # coefficient turns into a step of e / max|a| in the structurals
        row_max = np.zeros(m)
        np.maximum.at(row_max, r_idx, np.abs(vals))
        row_scale = np.where(row_max > 0.0, np.minimum(row_max, 1.0), 1.0)
        self.harris = _BOUND_EPS * np.concatenate([np.ones(n), row_scale, np.ones(n_art)])

        self.basis = n + np.arange(m)
        self.basis[art_rows] = self.total + np.arange(n_art)
        self.basis[crash_rows] = crash_cols
        self.in_basis = np.zeros(len(self.x), dtype=bool)
        self.in_basis[self.basis] = True
        self.max_iter = 2000 + 50 * (m + self.total)
        self._refactor()

    def _price(self, y: np.ndarray) -> np.ndarray:
        """y.A over all columns."""
        return np.bincount(self.col_of, weights=self.val * y[self.row_of], minlength=len(self.x))

    def _ftran(self, j: int) -> np.ndarray:
        """B^-1 column j, using column sparsity."""
        lo, hi = self.start[j], self.start[j + 1]
        return self.b_inv[:, self.row_of[lo:hi]] @ self.val[lo:hi]

    def _refactor(self) -> None:
        # scatter each basic column's entries into its basis position of B
        m = len(self.b)
        pos = np.full(len(self.x), -1)
        pos[self.basis] = np.arange(m)
        k = pos[self.col_of]
        basic = k >= 0
        dense = np.zeros((m, m))
        dense[self.row_of[basic], k[basic]] = self.val[basic]
        try:
            self.b_inv = np.linalg.inv(dense)
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("singular basis") from None
        # recompute basic values from the nonbasic point
        x_nb = np.where(self.in_basis, 0.0, self.x)
        a_x = np.bincount(self.row_of, weights=self.val * x_nb[self.col_of], minlength=m)
        self.x[self.basis] = self.b_inv @ (self.b - a_x)

    def _curves(self, seg_col: np.ndarray, seg_lo: np.ndarray, seg_hi: np.ndarray,
                slope: np.ndarray) -> None:
        """Price every column on a table of segments, listed column by column,
        from where it stands: phase one on one segment per column, its outer
        box, at the phase's cost; phase two on the curves of `lp`, one segment
        per slack and artificial. A nonbasic column on a breakpoint stands
        between the segments that meet there, a basic one on the right one."""
        n_cols = len(self.x)
        at = np.searchsorted(seg_col, np.arange(n_cols + 1))
        self.first, self.last = at[:-1], at[1:] - 1
        self.seg_lo, self.seg_hi, self.slope = seg_lo, seg_hi, slope
        # a column's breakpoints are the left ends of its segments but the first
        at_break = np.ones(len(seg_col), dtype=bool)
        at_break[self.first] = False
        x = self.x[seg_col]
        below = np.bincount(seg_col, weights=at_break & (seg_lo < x), minlength=n_cols)
        reached = np.bincount(seg_col, weights=at_break & (seg_lo <= x), minlength=n_cols)
        self.right = self.first + reached.astype(np.int64)
        self.left = np.where(self.in_basis, self.right, self.first + below.astype(np.int64))
        self.lower, self.upper = seg_lo[self.left], seg_hi[self.right]
        self.c_down, self.c_up = slope[self.left], slope[self.right]
        self.rise = ~self.in_basis & (self.x < self.upper)
        self.fall = ~self.in_basis & (self.x > self.lower)

    def _stand(self, j: int, left: int, right: int) -> None:
        """Column j stands between segments left and right."""
        self.left[j], self.right[j] = left, right
        self.lower[j], self.upper[j] = self.seg_lo[left], self.seg_hi[right]
        self.c_down[j], self.c_up[j] = self.slope[left], self.slope[right]

    def _stop(self, j: int, up: bool) -> None:
        """Nonbasic column j reached a breakpoint or a bound, moving up or down."""
        if up:
            k = self.right[j]
            self._stand(j, k, min(k + 1, self.last[j]))
        else:
            k = self.left[j]
            self._stand(j, max(k - 1, self.first[j]), k)
        self.rise[j] = self.x[j] < self.upper[j]
        self.fall[j] = self.x[j] > self.lower[j]

    def _duals(self) -> np.ndarray:
        return self.c_up[self.basis] @ self.b_inv

    def _entering(self, d_up: np.ndarray, d_down: np.ndarray,
                  bland: bool) -> tuple[int, float] | None:
        # how fast the objective falls per unit move in an allowed direction
        up, down = -d_up * self.rise, d_down * self.fall
        score = np.maximum(up, down)
        j = int(np.argmax(score > _TOL if bland else score))  # Bland: the first that falls
        if score[j] <= _TOL:
            return None
        return j, 1.0 if up[j] >= down[j] else -1.0

    def _ratio_test(self, j: int, direction: float, w: np.ndarray,
                    bland: bool) -> tuple[float, int]:
        """Step length and leaving basis row, -1 when column j flips bounds.

        Harris's two passes over the rows with |w_r| > _PIVOT_TOL; the others
        are not in the test. A basic column's Harris slack is
        _BOUND_EPS * (1 + |bound|), and for a row's slack column also the
        row's largest |coefficient| when that is below 1. The first pass finds
        the largest step that every basic column allows when its bound is
        relaxed by its Harris slack, measured from where the column stands, so
        one already outside its bound gets only what is left of it. The second
        takes, among the rows whose exact ratio lies within that step, the one
        with the largest |w_r|, or under Bland's rule the lowest basis column,
        and steps to its exact ratio; no basic column in the test then ends
        further outside its bound than its slack, or than it already was. When
        column j's own distance to its bound in the direction of the move,
        `limit`, fits in the first pass's step, j flips instead. An infinite
        step means the direction is a ray.
        """
        limit = self.upper[j] - self.x[j] if direction > 0 else self.x[j] - self.lower[j]
        live = (np.abs(w) > _PIVOT_TOL).nonzero()[0]
        if live.size == 0:  # nothing blocks: a flip, or a ray when limit is inf
            return limit, -1
        wl = w[live]
        rate = np.abs(wl)
        up = direction * wl < 0.0
        bj = self.basis[live]
        xb = self.x[bj]
        bound = np.where(up, self.upper[bj], self.lower[bj])
        cap = np.where(up, bound - xb, xb - bound)
        slack = self.harris[bj] * (1.0 + np.abs(bound))
        reach = (np.maximum(cap + slack, 0.0) / rate).min()
        if limit <= reach:
            return limit, -1
        ratio = np.maximum(cap, 0.0) / rate
        blocking = (ratio <= reach).nonzero()[0]
        pick = blocking[np.argmin(bj[blocking]) if bland else np.argmax(rate[blocking])]
        return float(ratio[pick]), int(live[pick])

    def _pivot(self, j: int, r: int, w: np.ndarray, direction: float) -> None:
        """Column j replaces basis row r on the segment it moved into; the
        leaving column snaps to an end of its segment."""
        leaving = self.basis[r]
        lo, hi, xl = self.lower[leaving], self.upper[leaving], self.x[leaving]
        up = math.isinf(lo) or not math.isinf(hi) and abs(xl - hi) < abs(xl - lo)
        self.x[leaving] = hi if up else lo
        self.in_basis[leaving] = False
        if leaving < self.total:  # artificials never enter
            self._stop(leaving, up)
        self.basis[r] = j
        self.in_basis[j] = True
        self.rise[j] = self.fall[j] = False
        k = self.right[j] if direction > 0 else self.left[j]
        self._stand(j, k, k)

        self.b_inv[r] /= w[r]
        row = self.b_inv[r].copy()
        moved = w.nonzero()[0]  # a row with w = 0 keeps its values
        if 2 * moved.size < len(w):  # below about half, the gather and scatter pay
            self.b_inv[moved] -= w[moved, None] * row
        else:
            self.b_inv -= w[:, None] * row
        self.b_inv[r] = row

    def run(self) -> str:
        degenerate_streak = 0
        since_refactor = 0
        while True:
            if self.iterations >= self.max_iter:
                raise NumericalBreakdown(f"iteration limit {self.max_iter} exceeded")
            price = self._price(self._duals())
            bland = degenerate_streak >= _BLAND_TRIGGER
            pick = self._entering(self.c_up - price, self.c_down - price, bland)
            if pick is None:
                return "optimal"
            j, direction = pick
            w = self._ftran(j)
            step_len, leave = self._ratio_test(j, direction, w, bland)
            if math.isinf(step_len):
                self._ray = (j, direction, w)
                return "unbounded"

            degenerate_streak = degenerate_streak + 1 if step_len <= _TOL else 0
            self.x[self.basis] -= direction * step_len * w
            self.iterations += 1
            if leave < 0:  # j reaches a breakpoint or bound, basis unchanged
                self.x[j] = self.upper[j] if direction > 0 else self.lower[j]
                self._stop(j, direction > 0)
                continue

            self.x[j] += direction * step_len
            self._pivot(j, leave, w, direction)
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0

    def _farkas_gap(self, y: np.ndarray) -> float:
        """How far y.b lies outside the range of y.(A x + s) over the bounds
        of the structural and slack columns; a positive gap proves the rows
        infeasible. An entry of y.A at or below _NOISE of the sum of the
        magnitudes of its terms is cancellation noise and counts as zero."""
        terms = self.val * y[self.row_of]
        w = np.bincount(self.col_of, weights=terms, minlength=len(self.x))[:self.total]
        size = np.bincount(self.col_of, weights=np.abs(terms), minlength=len(self.x))
        w[np.abs(w) <= _NOISE * size[:self.total]] = 0.0
        on = np.flatnonzero(w)
        at_lo, at_hi = w[on] * self.lower[on], w[on] * self.upper[on]
        yb = float(y @ self.b)
        return max(np.minimum(at_lo, at_hi).sum() - yb, yb - np.maximum(at_lo, at_hi).sum())

    def phase1(self) -> np.ndarray | None:
        """Drive the artificials to zero. Returns None when they get there,
        or a Farkas row ray when the rows are infeasible.

        An artificial above tolerance of its own row after a refactorization
        counts as infeasible when the duals pass the Farkas interval test;
        without a certificate, NumericalBreakdown is raised only if the
        artificials also sum above the tolerance of the largest |b|.
        """
        if self.total == len(self.x):  # no artificials: the start is feasible
            return None
        art = slice(self.total, None)
        every = np.arange(len(self.x))
        self._curves(every, self.lower, self.upper, (every >= self.total).astype(float))
        if self.run() != "optimal":  # bounded below by 0
            raise NumericalBreakdown("phase one reported unbounded")
        scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        # each artificial (one entry, on its row) against its own row's |b_i|:
        # a row scaled small must not pass because another row's b is large
        art_tol = 10 * _TOL * (1.0 + np.abs(self.b[self.row_of[self.start[self.total]:]]))
        if (np.abs(self.x[art]) > art_tol).any():
            self._refactor()
            if (np.abs(self.x[art]) > art_tol).any():
                y = self._duals()
                # phase one prices with costs 0 and 1 and counts a reduced cost
                # within _TOL as zero; row i's slack has reduced cost -y_i, so
                # the sign of an entry at or below _TOL was never checked
                ray = np.where(np.abs(y) > _TOL, y, 0.0)
                if self._farkas_gap(ray) > _TOL * scale:
                    return ray
            if np.abs(self.x[art]).sum() > _TOL * scale * 10:
                raise NumericalBreakdown("phase one stalled above zero without a Farkas certificate")
        self.upper[art] = 0.0  # pin artificials so phase two cannot revive them
        self.x[art] = np.clip(self.x[art], 0.0, None)
        return None

    def phase2(self) -> str:
        """Minimize the cost curves from the feasible point of phase one."""
        n, n_cols = self.total - len(self.b), len(self.x)
        col, lo, hi, slope = self.curves
        self._curves(np.concatenate([col, np.arange(n, n_cols)]),
                     np.concatenate([lo, self.lower[n:]]), np.concatenate([hi, self.upper[n:]]),
                     np.concatenate([slope, np.zeros(n_cols - n)]))
        return self.run()


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve to proven optimality, infeasibility or unboundedness.

    Optimal solutions are certified: the primal point satisfies every row
    within 10*_TOL*(1+|rhs|), and the duals price each cost segment by the
    subgradient rule (complementary slackness for linear costs). Infeasible problems carry a Farkas row ray, with entries at
    or below _TOL zeroed, that passed the interval test before it is
    returned; a phase-one stall without one raises NumericalBreakdown.
    Unbounded problems carry a primal ray. Duals and rays index the rows of
    `lp`. Identical inputs give the identical pivot sequence.
    """
    spx = _Simplex(lp)
    n = lp.n_vars
    ray = spx.phase1()
    if ray is not None:
        return LpSolution(LpStatus.INFEASIBLE, ray=ray, iterations=spx.iterations)

    if spx.phase2() == "unbounded":
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

    y = spx._duals()
    price = spx._price(y)
    x = spx.x[:n].copy()
    return LpSolution(
        LpStatus.OPTIMAL,
        values=x,
        objective=lp.objective_value(x),
        dual_values=y,
        reduced_costs=np.clip(0.0, spx.c_down[:n] - price[:n], spx.c_up[:n] - price[:n]),
        iterations=spx.iterations,
    )
