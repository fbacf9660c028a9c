"""Core domain types: power grids, branch flows and flow costs.

A grid is an undirected multigraph of buses and branches. Branches carry a
susceptance (MW per radian of angle difference), a thermal capacity in MW
(math.inf marks an unlimited line) and a convex PWL loss curve. Generators and
consumers are bus attributes and may coexist on one bus; in that case the
demand is netted against production, i.e. the admissible net out-flow window
at the bus is [-d, x - d] and the generator's cost curve is evaluated at the
actual production f_net + d.

Losses never enter the balance equations, only the objective; a feasible flow
therefore always has total production equal to total demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .pwl import PiecewiseLinearConvex, constant_zero


class UnknownBus(KeyError):
    pass


class DomainExceeded(ValueError):
    """Generator production outside its box [0, capacity]."""


_DOMAIN_TOL = 1e-6  # production may leave its box by this times check_feasible's bus scale


@dataclass(frozen=True)
class Branch:
    """Undirected branch stored with a canonical (u, v) orientation."""

    u: int
    v: int
    susceptance: float  # MW/rad
    capacity: float = math.inf  # MW; math.inf = unlimited
    loss: PiecewiseLinearConvex = field(default_factory=constant_zero)

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loop at bus {self.u}")
        if not self.susceptance > 0:
            raise ValueError(f"branch {self.u}-{self.v}: susceptance must be positive")
        if self.capacity < 0:
            raise ValueError(f"branch {self.u}-{self.v}: negative capacity")

    def other(self, bus: int) -> int:
        return self.v if bus == self.u else self.u


@dataclass(frozen=True)
class Generator:
    capacity: float  # maximum production x_g, MW
    cost: PiecewiseLinearConvex

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("negative generator capacity")


class PowerGrid:
    """Immutable grid: buses, branches, generators, consumers.

    Parallel branches are allowed (distinct indices, same endpoints);
    self-loops are not.
    """

    def __init__(
        self,
        buses: Iterable[int],
        branches: Iterable[Branch],
        generators: Mapping[int, Generator],
        consumers: Mapping[int, float],
        base_mva: float = 100.0,
        name: str = "",
    ):
        self.buses: tuple[int, ...] = tuple(sorted(buses))
        self.branches: tuple[Branch, ...] = tuple(branches)
        self.generators: dict[int, Generator] = dict(generators)
        self.consumers: dict[int, float] = dict(consumers)
        self.base_mva = base_mva
        self.name = name

        busset = set(self.buses)
        if len(self.buses) != len(busset):
            raise ValueError("duplicate bus ids")
        for br in self.branches:
            if br.u not in busset or br.v not in busset:
                raise UnknownBus(f"branch {br.u}-{br.v} references unknown bus")
        for b in self.generators:
            if b not in busset:
                raise UnknownBus(f"generator on unknown bus {b}")
        for b, d in self.consumers.items():
            if b not in busset:
                raise UnknownBus(f"consumer on unknown bus {b}")
            if d <= 0:
                raise ValueError(f"consumer demand at bus {b} must be positive")

        self._incident: dict[int, list[int]] = {b: [] for b in self.buses}
        for i, br in enumerate(self.branches):
            self._incident[br.u].append(i)
            self._incident[br.v].append(i)

    def incident(self, bus: int) -> list[int]:
        try:
            return self._incident[bus]
        except KeyError:
            raise UnknownBus(bus) from None

    @property
    def total_demand(self) -> float:
        return sum(self.consumers.values())

    def demand(self, bus: int) -> float:
        return self.consumers.get(bus, 0.0)

    def net_outflow_bounds(self, bus: int) -> tuple[float, float]:
        """Admissible [lo, hi] for f_net at the bus (demand netted)."""
        d = self.consumers.get(bus, 0.0)
        gen = self.generators.get(bus)
        if gen is None:
            return (-d, -d)
        return (-d, gen.capacity - d)

    def edges(self) -> list[tuple[int, int]]:
        return [(br.u, br.v) for br in self.branches]

    def __repr__(self):
        return (f"PowerGrid({self.name or 'unnamed'}: {len(self.buses)} buses, "
                f"{len(self.branches)} branches, {len(self.generators)} generators)")


class Flow:
    """Antisymmetric branch flow: one signed value per branch index.

    The stored value is the flow in the branch's canonical u->v direction;
    value(i, v, u) returns the negated value.
    """

    def __init__(self, grid: PowerGrid, values: Iterable[float] | None = None):
        self.grid = grid
        vals = [0.0] * len(grid.branches) if values is None else list(values)
        if len(vals) != len(grid.branches):
            raise ValueError("flow values must match branch count")
        self.values: list[float] = vals

    def value(self, index: int, tail: int | None = None) -> float:
        """Signed flow on branch `index`, oriented out of `tail` if given."""
        v = self.values[index]
        if tail is None or tail == self.grid.branches[index].u:
            return v
        if tail == self.grid.branches[index].v:
            return -v
        raise UnknownBus(tail)

    def copy(self) -> "Flow":
        return Flow(self.grid, list(self.values))


class Violation(NamedTuple):
    kind: str  # capacity | conservation | consumer | generator
    subject: int  # branch index for capacity, bus id otherwise
    magnitude: float


@dataclass
class FeasibilityReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def worst(self) -> float:
        return max((v.magnitude for v in self.violations), default=0.0)


class CostBreakdown(NamedTuple):
    generation: float  # c_g
    losses: float  # c_l
    weighted: float  # c_lambda


def net_outflow(grid: PowerGrid, flow: Flow, bus: int) -> float:
    """Sum of flows leaving the bus over all incident branches."""
    return sum(flow.value(i, bus) for i in grid.incident(bus))


def check_feasible(grid: PowerGrid, flow: Flow, tol: float = 1e-6) -> FeasibilityReport:
    """List every violated flow constraint with its magnitude.

    Checks branch capacities, conservation at pass-through buses, consumer
    satisfaction and (demand-netted) generator bounds. Empty report means the
    flow is feasible within tol; a NaN value is a violation.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    out: list[Violation] = []
    for i, br in enumerate(grid.branches):
        excess = abs(flow.values[i]) - br.capacity
        if not excess <= tol * (1.0 + br.capacity):
            out.append(Violation("capacity", i, excess))
    for bus in grid.buses:
        f_net = net_outflow(grid, flow, bus)
        lo, hi = grid.net_outflow_bounds(bus)
        miss = max(lo - f_net, f_net - hi)
        if not miss <= tol * (1.0 + max(abs(lo), abs(hi))):
            kind = ("generator" if bus in grid.generators
                    else "consumer" if bus in grid.consumers else "conservation")
            out.append(Violation(kind, bus, miss))
    return FeasibilityReport(out)


def flow_cost(grid: PowerGrid, flow: Flow, lam: float) -> CostBreakdown:
    """Generation cost, loss cost and their lambda-weighted combination."""
    c_g = 0.0
    for bus, gen in sorted(grid.generators.items()):
        production = net_outflow(grid, flow, bus) + grid.demand(bus)
        lo, hi = grid.net_outflow_bounds(bus)
        slack = _DOMAIN_TOL * (1 + max(abs(lo), abs(hi)))
        if not -slack <= production <= gen.capacity + slack:
            raise DomainExceeded(
                f"bus {bus}: production {production:.6g} outside [0, {gen.capacity:.6g}]")
        c_g += gen.cost(min(max(production, 0.0), gen.capacity))
    c_l = sum(br.loss(abs(flow.values[i])) for i, br in enumerate(grid.branches))
    return CostBreakdown(c_g, c_l, lam * c_g + (1.0 - lam) * c_l)
