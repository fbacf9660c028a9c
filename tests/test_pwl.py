from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridctl import pwl
from gridctl.pwl import NonConvexCost, PiecewiseLinearConvex


def test_secant_sampling_matches_dense_max_of_secants():
    # quadratic generator cost 0.02 p^2 + 2 p on [0, 100], 3 samples
    f = lambda p: 0.02 * p * p + 2 * p
    curve = pwl.from_samples(f, 100.0, 3)
    assert len(curve.pieces) == 2
    # independent oracle: evaluate the two secants directly on a dense grid
    secants = [((f(50) - f(0)) / 50, f(0)), ((f(100) - f(50)) / 50, f(50) - (f(100) - f(50)) / 50 * 50)]
    for k in range(1001):
        x = 100.0 * k / 1000
        expected = max(a * x + c for a, c in secants)
        assert curve(x) == pytest.approx(expected, abs=1e-9)


def test_linear_function_collapses_to_single_piece():
    curve = pwl.from_samples(lambda p: 5 * p, 80.0, 7)
    assert curve.pieces == ((5.0, 0.0),)


def test_constant_zero_is_lossless():
    z = pwl.constant_zero()
    assert z(0.0) == 0.0 and z(123.4) == 0.0


def test_decreasing_slopes_rejected():
    with pytest.raises(NonConvexCost):
        pwl.from_samples(lambda p: -0.1 * p * p + 10 * p, 50.0, 4)
    with pytest.raises(NonConvexCost):
        PiecewiseLinearConvex(((2.0, 0.0), (1.0, 5.0)), 10.0)


def test_breakpoints_and_segments():
    f = lambda x: x * x
    curve = pwl.from_samples(f, 10.0, 6)  # breakpoints every 2
    segs = curve.segments()
    assert [w for w, _ in segs] == pytest.approx([2, 2, 2, 2, 2])
    assert sum(w for w, _ in segs) == pytest.approx(10.0)
    slopes = [s for _, s in segs]
    assert slopes == sorted(slopes)
    # capped enumeration extends the last piece
    segs_cap = curve.segments(cap=14.0)
    assert sum(w for w, _ in segs_cap) == pytest.approx(14.0)
    assert segs_cap[-1][1] == slopes[-1]


@settings(max_examples=200, deadline=None)
@given(
    c2=st.floats(0.0, 5.0),
    c1=st.floats(0.0, 50.0),
    c0=st.floats(0.0, 100.0),
    hi=st.floats(1.0, 500.0),
    points=st.integers(2, 9),
    t=st.floats(0.0, 1.0),
)
def test_secants_of_convex_lie_above(c2, c1, c0, hi, points, t):
    f = lambda x: c2 * x * x + c1 * x + c0
    curve = pwl.from_samples(f, hi, points)
    x = t * hi
    assert curve(x) >= f(x) - 1e-7 * (1 + abs(f(x)))
    # exact at the sample points
    for i in range(points):
        xs = hi * i / (points - 1)
        assert curve(xs) == pytest.approx(f(xs), rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    slopes=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    intercepts=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    x=st.floats(0, 100),
    y=st.floats(0, 100),
    t=st.floats(0, 1),
)
def test_convexity_of_max_of_affine(slopes, intercepts, x, y, t):
    pieces = sorted(set(zip(slopes, intercepts)))
    dedup = []
    for a, c in pieces:
        if not dedup or a > dedup[-1][0]:
            dedup.append((a, c))
    curve = PiecewiseLinearConvex(tuple(dedup), 100.0)
    mid = t * x + (1 - t) * y
    assert curve(mid) <= t * curve(x) + (1 - t) * curve(y) + 1e-9 * (1 + abs(curve(mid)))


def test_slope_monotonicity_machine_checkable():
    curve = pwl.from_samples(lambda x: x ** 4, 10.0, 5)
    slopes = [a for a, _ in curve.pieces]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_segments_clip_a_breakpoint_below_zero():
    # the pieces cross at x = -5, so only the slope-1 piece is active on [0, 10]
    curve = PiecewiseLinearConvex(((0.0, 0.0), (1.0, 5.0)), 10.0)
    assert curve.segments() == [(10.0, 1.0)]
    assert curve.value_at_zero + sum(w * a for w, a in curve.segments()) == curve(10.0)


def test_segments_to_an_infinite_cap():
    curve = pwl.from_samples(lambda x: x * x, 10.0, 6)
    segs = curve.segments(cap=math.inf)
    assert segs[:-1] == curve.segments(cap=8.0)
    assert segs[-1] == (math.inf, curve.pieces[-1][0])
    assert pwl.constant_zero().segments() == [(math.inf, 0.0)]


def test_segments_skip_a_piece_that_is_never_the_maximum():
    # (1, -5) lies below max(0, 2x - 6) everywhere, which switches at x = 3
    curve = PiecewiseLinearConvex(((0.0, 0.0), (1.0, -5.0), (2.0, -6.0)), 10.0)
    assert curve.segments() == [(3.0, 0.0), (7.0, 2.0)]


@settings(max_examples=200, deadline=None)
@given(
    slopes=st.lists(st.floats(-10, 10), min_size=1, max_size=6, unique=True),
    intercepts=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    cap=st.floats(0, 100),
    t=st.floats(0, 1),
)
def test_filling_segments_in_order_traces_the_function(slopes, intercepts, cap, t):
    # the separable form value_at_zero + sum of slope * filled width is h(x)
    curve = PiecewiseLinearConvex(tuple(zip(sorted(slopes), intercepts)), cap)
    x = t * cap
    value, left = curve.value_at_zero, x
    for width, slope in curve.segments():
        value += slope * min(width, left)
        left -= min(width, left)
    assert left <= 1e-9 * (1 + cap)
    assert value == pytest.approx(curve(x), abs=1e-7 * (1 + abs(curve(x))))
