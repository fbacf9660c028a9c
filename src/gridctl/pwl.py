"""Convex piecewise-linear functions represented as a maximum of affine pieces.

Generator production costs and branch loss curves are both stored this way:
h(x) = max_i (a_i * x + c_i) with strictly increasing slopes a_i. Construction
from a sampled convex function uses secants between consecutive sample points,
so the PWL is exact at the samples and lies on or above the function everywhere
in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


class NonConvexCost(ValueError):
    """Sampled cost data produced decreasing slopes."""


@dataclass(frozen=True)
class PiecewiseLinearConvex:
    """max-of-affine convex function on [0, domain_max].

    pieces: ordered (slope, intercept) tuples, slopes strictly increasing.
    """

    pieces: tuple[tuple[float, float], ...]
    domain_max: float

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("need at least one piece")
        slopes = [a for a, _ in self.pieces]
        if any(b <= a for a, b in zip(slopes, slopes[1:])):
            raise NonConvexCost(f"slopes not strictly increasing: {slopes}")

    def __call__(self, x: float) -> float:
        return max(a * x + c for a, c in self.pieces)

    @property
    def value_at_zero(self) -> float:
        return self(0.0)

    def segments(self, cap: float | None = None) -> list[tuple[float, float]]:
        """(width, slope) of each linear segment covering [0, cap].

        cap defaults to domain_max; a cap beyond the last breakpoint extends
        the final piece (the max-of-affine form is defined there too), and an
        infinite cap gives it an infinite width. A piece's segment is where
        it is the maximum, clipped to [0, cap]; pieces that are the maximum
        nowhere in [0, cap] are dropped.
        """
        hi = self.domain_max if cap is None else cap
        out = []
        for i, (a, c) in enumerate(self.pieces):
            # piece i is the maximum right of where it crosses each flatter
            # piece and left of where each steeper piece crosses it
            lo = max(((c0 - c) / (a - a0) for a0, c0 in self.pieces[:i]), default=-math.inf)
            up = min(((c - c1) / (a1 - a) for a1, c1 in self.pieces[i + 1:]), default=math.inf)
            width = min(up, hi) - max(lo, 0.0)
            if width > 0:
                out.append((width, a))
        return out


def from_samples(fn: Callable[[float], float], hi: float, points: int) -> PiecewiseLinearConvex:
    """Secant PWL of fn through `points` equally spaced samples on [0, hi]."""
    if points < 2:
        raise ValueError("need at least 2 sample points")
    if not (hi > 0) or math.isinf(hi):
        raise ValueError(f"invalid sampling range [0, {hi}]")
    xs = [hi * i / (points - 1) for i in range(points)]
    return from_breakpoints(xs, [fn(x) for x in xs])


def from_breakpoints(xs: Sequence[float], ys: Sequence[float]) -> PiecewiseLinearConvex:
    """PWL through the given points; secants become the affine pieces.

    Equal consecutive slopes are merged; decreasing slopes raise NonConvexCost.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching xs/ys with at least 2 points")
    pieces: list[tuple[float, float]] = []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if x1 <= x0:
            raise ValueError("breakpoints must be strictly increasing")
        a = (y1 - y0) / (x1 - x0)
        c = y0 - a * x0
        if pieces:
            prev_a, _ = pieces[-1]
            if a <= prev_a + 1e-12 * max(1.0, abs(prev_a)):
                if a < prev_a - 1e-9 * max(1.0, abs(prev_a)):
                    raise NonConvexCost(f"slope decreases from {prev_a} to {a}")
                continue  # duplicate slope, keep first
        pieces.append((a, c))
    return PiecewiseLinearConvex(tuple(pieces), float(xs[-1]))


def constant_zero() -> PiecewiseLinearConvex:
    """The all-zero function on [0, inf) (lossless line)."""
    return PiecewiseLinearConvex(((0.0, 0.0),), math.inf)
