from __future__ import annotations

import math
from functools import cache

import numpy as np
import pytest
from scipy.optimize import linprog

from gridctl import load_case
from gridctl.graph_algorithms import Multigraph, TargetClass, min_feedback_set
from gridctl.grid_model import Branch, Generator, PowerGrid
from gridctl.lp_engine import LinearProgram
from gridctl.pwl import PiecewiseLinearConvex, constant_zero

ALL_CASES = ["case6ww", "case9", "case14", "case30", "case39", "case57", "case118"]
SMALL_CASES = ["case6ww", "case9", "case14", "case30"]

_cache: dict[str, object] = {}


def get_case(name: str):
    """Build each bundled case once per session (grids are immutable)."""
    if name not in _cache:
        _cache[name] = load_case(name)
    return _cache[name]


@cache
def forest_feedback_set(name: str) -> frozenset[int]:
    """The case's minimum forest feedback set, searched once per session."""
    grid = get_case(name)
    return min_feedback_set(Multigraph(grid.buses, grid.edges()), TargetClass.FOREST).vertices


@pytest.fixture(params=ALL_CASES)
def ieee_grid(request):
    return get_case(request.param)


def linear_cost(slope: float, cap: float = math.inf) -> PiecewiseLinearConvex:
    return PiecewiseLinearConvex(((slope, 0.0),), cap)


def two_bus_grid(capacity: float = 20.0, demand: float = 10.0, slope: float = 1.0) -> PowerGrid:
    """One generator at bus 1, one consumer at bus 2, one lossless line."""
    return PowerGrid(
        buses=[1, 2],
        branches=[Branch(1, 2, susceptance=100.0, capacity=capacity)],
        generators={1: Generator(100.0, linear_cost(slope, 100.0))},
        consumers={2: demand},
    )


def triangle_grid(b=(100.0, 100.0, 100.0), caps=(math.inf, math.inf, math.inf)) -> PowerGrid:
    """3-cycle with a generator at bus 1 and a consumer at bus 2."""
    return PowerGrid(
        buses=[1, 2, 3],
        branches=[
            Branch(1, 2, b[0], caps[0], constant_zero()),
            Branch(2, 3, b[1], caps[1], constant_zero()),
            Branch(3, 1, b[2], caps[2], constant_zero()),
        ],
        generators={1: Generator(50.0, linear_cost(2.0, 50.0))},
        consumers={2: 10.0},
    )


def expand(lp: LinearProgram):
    """The segment LP that `lp`'s cost curves stand for.

    Column j is anchored at a_j, its lower bound when finite, else its upper
    bound when finite, else 0, and x_j = a_j + the sum of its pieces. A piece
    is the part of a cost segment on one side of a_j, from its end nearest
    a_j (`start`) to its other end (`stop`); its variable is the distance x
    has moved along it, in [0, stop - start] right of a_j and in
    [stop - start, 0] left of it, at the segment's slope. A fixed column
    keeps one piece, in [0, 0]. Convexity makes an optimum fill the pieces
    nearest a_j first. Returns each piece's column, start, stop and slope,
    the anchors, and the cost of the anchors, sum_j cost_j(a_j) without
    `lp.obj_constant`.
    """
    col, lo, hi, slope = lp.segments()
    lower, upper = np.array(lp.lower), np.array(lp.upper)
    anchor = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
    a = anchor[col]
    right, left = (hi > a) | (lo == hi), lo < a
    return (np.concatenate([col[right], col[left]]),
            np.concatenate([np.maximum(lo, a)[right], np.minimum(hi, a)[left]]),
            np.concatenate([hi[right], lo[left]]),
            np.concatenate([slope[right], slope[left]]),
            anchor, lp.objective_value(anchor) - lp.obj_constant)


def scipy_check(lp: LinearProgram):
    """HiGHS's result for `lp`, solved as its segment LP (`expand`): status
    0 optimal, 2 infeasible, 3 unbounded; `fun` leaves out `lp.obj_constant`."""
    col, start, stop, slope, anchor, anchor_cost = expand(lp)
    width = stop - start
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, row in enumerate(lp.rows):
        coeffs = np.zeros(lp.n_vars)
        for j, a in row.items():
            coeffs[j] = a
        rhs = lp.rhs[i] - coeffs @ anchor
        if lp.senses[i] == "<=":
            a_ub.append(coeffs[col])
            b_ub.append(rhs)
        elif lp.senses[i] == ">=":
            a_ub.append(-coeffs[col])
            b_ub.append(-rhs)
        else:
            a_eq.append(coeffs[col])
            b_eq.append(rhs)
    res = linprog(
        slope, A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
        bounds=list(zip(np.minimum(width, 0.0), np.maximum(width, 0.0))), method="highs")
    if res.status == 0:
        res.fun += anchor_cost
    return res
