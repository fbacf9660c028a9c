"""MATPOWER-style case file parsing and grid construction.

Supported grammar (subset of the MATPOWER 4.x .m format):

    function mpc = <name>
    mpc.baseMVA = <real>;
    mpc.bus = [ <rows> ];        % bus_i type Pd ...
    mpc.gen = [ <rows> ];        % bus Pg Qg Qmax Qmin Vg mBase status Pmax ...
    mpc.branch = [ <rows> ];     % fbus tbus r x b rateA rateB rateC ratio angle status ...
    mpc.gencost = [ <rows> ];    % model startup shutdown n c(n-1) ... c0
                                 %   or, for model 1: n pairs x1 y1 x2 y2 ...

`%` starts a comment that runs to the end of its line. A matrix runs from
`[` to `]`, and one without its closing `]` is rejected; its rows are
whitespace-separated numbers, each ended by `;` or a line break. Columns
beyond the ones named above are ignored. rateA = 0 encodes an unlimited
line per the MATPOWER convention. A transformer's tap ratio
(branch column 9, 0 meaning 1) divides its susceptance, as in MATPOWER's DC
model; a branch in service with a non-zero phase shift (column 10) is
rejected, as the shift is not modelled. Generators and branches whose status
is 0 or less are out of service and dropped; a branch row without the status
column counts as in service. PMIN (gen column 10) is not modelled;
parsing warns about each generator in service whose PMIN is above 0.

Grid construction samples polynomial generator costs into convex PWL curves on
[0, Pmax], derives each branch loss curve as the PWL sampling of the ohmic
approximation r * f^2 / baseMVA (both at a fixed 5 equally spaced points),
keeps a model-1 cost's breakpoints as given (its last piece prices
production up to Pmax), and merges parallel circuits between the same
bus pair into a single branch (susceptances add, capacities add, parallel
resistance law for the loss curve), so the built grid is a simple graph.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import reduce
from importlib import resources

from . import pwl
from .grid_model import Branch, Generator, PowerGrid
from .pwl import PiecewiseLinearConvex


class MalformedCase(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DanglingBranch(MalformedCase):
    """Branch endpoint references a bus id absent from the bus table."""


@dataclass(frozen=True)
class BusRecord:
    bus_id: int
    demand: float  # Pd, MW


@dataclass(frozen=True)
class GenRecord:
    bus: int
    p_max: float  # MW
    cost_model: int  # 1 = piecewise linear, 2 = polynomial
    cost_coefficients: tuple[float, ...]


@dataclass(frozen=True)
class BranchRecord:
    from_bus: int
    to_bus: int
    resistance: float  # p.u.
    reactance: float  # p.u.
    rate_a: float  # MW; 0 = unlimited
    tap: float = 1.0  # transformer off-nominal turns ratio


@dataclass
class RawCase:
    name: str
    base_mva: float
    buses: list[BusRecord] = field(default_factory=list)
    generators: list[GenRecord] = field(default_factory=list)
    branches: list[BranchRecord] = field(default_factory=list)

    @property
    def total_demand(self) -> float:
        return sum(b.demand for b in self.buses)


_SAMPLES = 5  # equally spaced samples per sampled cost or loss curve
_NAME = re.compile(r"function\s+mpc\s*=\s*(\w+)")
_BASE_MVA = re.compile(r"mpc\.baseMVA\s*=\s*([0-9eE.+-]+)[ \t]*(?:;|$)", re.M)
_MATRIX = re.compile(r"mpc\.(\w+)\s*=\s*\[([^\[\]]*)(\]?)")


def parse_case(text: str) -> RawCase:
    """Parse a MATPOWER case definition into a RawCase.

    Raises MalformedCase (with the offending line number) on missing or
    unclosed matrices, short rows or non-numeric or non-finite (NaN, Inf)
    cells, and DanglingBranch when a branch endpoint does not appear in the
    bus table.
    """
    text = "\n".join(line.split("%", 1)[0] for line in text.splitlines())

    def line_at(pos: int) -> int:
        return text.count("\n", 0, pos) + 1

    m = _NAME.search(text)
    name = m.group(1) if m else ""
    m = _BASE_MVA.search(text)
    if m is None:
        raise MalformedCase("missing mpc.baseMVA")
    try:
        base_mva = float(m.group(1))
    except ValueError:
        raise MalformedCase(f"bad baseMVA value {m.group(1)!r}", line_at(m.start()))

    matrices: dict[str, list[tuple[int, list[float]]]] = {}
    for m in _MATRIX.finditer(text):
        matrix, body, closed = m.groups()
        if not closed:
            raise MalformedCase(f"mpc.{matrix} is not closed with ]", line_at(m.start()))
        rows = matrices[matrix] = []
        for lineno, line in enumerate(body.split("\n"), start=line_at(m.start(2))):
            for chunk in line.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    cells = [float(tok) for tok in chunk.split()]
                except ValueError:
                    raise MalformedCase(f"non-numeric cell in mpc.{matrix}: {chunk!r}", lineno)
                if not all(map(math.isfinite, cells)):
                    raise MalformedCase(f"non-finite cell in mpc.{matrix}: {chunk!r}", lineno)
                rows.append((lineno, cells))
    for required in ("bus", "gen", "branch", "gencost"):
        if required not in matrices:
            raise MalformedCase(f"missing matrix mpc.{required}")

    case = RawCase(name=name, base_mva=base_mva)

    for lineno, row in matrices["bus"]:
        if len(row) < 3:
            raise MalformedCase(f"bus row needs at least 3 columns, got {len(row)}", lineno)
        case.buses.append(BusRecord(int(row[0]), row[2]))

    gencost_rows = matrices["gencost"]
    ngen = len(matrices["gen"])
    if len(gencost_rows) == 2 * ngen:
        gencost_rows = gencost_rows[:ngen]  # P costs first, Q costs ignored
    elif len(gencost_rows) != ngen:
        raise MalformedCase(
            f"gencost has {len(gencost_rows)} rows for {ngen} generators",
            gencost_rows[0][0] if gencost_rows else None)

    for (lineno, row), (cost_lineno, cost_row) in zip(matrices["gen"], gencost_rows):
        if len(row) < 9:
            raise MalformedCase(f"gen row needs at least 9 columns, got {len(row)}", lineno)
        p_max = row[8]
        if p_max < 0:
            raise MalformedCase(f"negative Pmax {p_max}", lineno)
        if len(cost_row) < 4:
            raise MalformedCase("gencost row needs at least 4 columns", cost_lineno)
        model, n = int(cost_row[0]), int(cost_row[3])
        if model not in (1, 2):
            raise MalformedCase(f"unsupported cost model {model}", cost_lineno)
        needed = 2 * n if model == 1 else n
        coeffs = cost_row[4:4 + needed]
        if len(coeffs) < needed:
            raise MalformedCase(f"gencost row has {len(coeffs)} coefficients, needs {needed}",
                                cost_lineno)
        if row[7] > 0:
            case.generators.append(GenRecord(int(row[0]), p_max, model, tuple(coeffs)))
    pmin = [f"bus {int(r[0])} ({r[9]:g} MW)" for _, r in matrices["gen"]
            if r[7] > 0 and len(r) > 9 and r[9] > 0]
    if pmin:
        warnings.warn(f"{name or 'case'}: PMIN is not modelled and is ignored for the "
                      f"generators at {', '.join(pmin)}", UserWarning, stacklevel=2)

    bus_ids = {b.bus_id for b in case.buses}
    for lineno, row in matrices["branch"]:
        if len(row) < 6:
            raise MalformedCase(f"branch row needs at least 6 columns, got {len(row)}", lineno)
        u, v = int(row[0]), int(row[1])
        if u not in bus_ids or v not in bus_ids:
            raise DanglingBranch(f"branch {u}-{v} references a bus not in the bus table", lineno)
        if row[5] < 0:
            raise MalformedCase(f"negative rateA {row[5]}", lineno)
        if len(row) <= 10 or row[10] > 0:
            tap = row[8] if len(row) > 8 and row[8] != 0 else 1.0
            if tap < 0:
                raise MalformedCase(f"branch {u}-{v}: negative tap ratio {tap:g}", lineno)
            if len(row) > 9 and row[9] != 0:
                raise MalformedCase(f"branch {u}-{v}: phase shift {row[9]:g} is not modelled",
                                    lineno)
            case.branches.append(BranchRecord(u, v, row[2], row[3], row[5], tap))

    for g in case.generators:
        if g.bus not in bus_ids:
            raise MalformedCase(f"generator references unknown bus {g.bus}")

    return case


def _generator_cost(rec: GenRecord) -> PiecewiseLinearConvex:
    cs = rec.cost_coefficients
    if rec.cost_model == 1:
        return pwl.from_breakpoints(cs[0::2], cs[1::2])

    def poly(x: float) -> float:  # Horner's rule, highest order first
        return reduce(lambda acc, c: acc * x + c, cs, 0.0)

    if rec.p_max <= 0:
        return PiecewiseLinearConvex(((0.0, poly(0.0)),), 0.0)
    return pwl.from_samples(poly, rec.p_max, _SAMPLES)


def _loss_curve(resistance: float, capacity: float, total_demand: float,
                base_mva: float) -> PiecewiseLinearConvex:
    if resistance <= 0:
        return pwl.constant_zero()
    hi = min(capacity, 2.0 * total_demand)
    return pwl.from_samples(lambda f: resistance * f * f / base_mva, hi, _SAMPLES)


def build_grid(raw: RawCase) -> PowerGrid:
    """Build a PowerGrid from a parsed case.

    A circuit's susceptance is baseMVA / (x * tap). Parallel circuits
    between the same bus pair are merged into one branch: susceptances and
    capacities add, and the loss curve uses the parallel combination of the
    circuit resistances. Raises NonConvexCost if a sampled
    polynomial cost turns out concave, and MalformedCase for a case with
    no demand.
    """
    total_demand = raw.total_demand
    consumers = {b.bus_id: b.demand for b in raw.buses if b.demand > 0}
    for b in raw.buses:
        if b.demand < 0:
            raise MalformedCase(f"negative demand at bus {b.bus_id} not supported")
    if not consumers:
        raise MalformedCase(f"{raw.name or 'case'}: total demand is 0, nothing to dispatch")

    generators: dict[int, Generator] = {}
    for rec in raw.generators:
        if rec.bus in generators:
            raise MalformedCase(f"multiple generators on bus {rec.bus} not supported")
        generators[rec.bus] = Generator(rec.p_max, _generator_cost(rec))

    # group parallel circuits; first occurrence fixes the branch's position
    groups: dict[tuple[int, int], list[BranchRecord]] = {}
    for rec in raw.branches:
        if rec.reactance <= 0:
            raise MalformedCase(f"branch {rec.from_bus}-{rec.to_bus}: reactance must be positive")
        key = (min(rec.from_bus, rec.to_bus), max(rec.from_bus, rec.to_bus))
        groups.setdefault(key, []).append(rec)

    branches = []
    for circuits in groups.values():
        first = circuits[0]
        susceptance = sum(raw.base_mva / (c.reactance * c.tap) for c in circuits)
        if any(c.rate_a == 0 for c in circuits):
            capacity = math.inf
        else:
            capacity = sum(c.rate_a for c in circuits)
        if any(c.resistance <= 0 for c in circuits):
            resistance = 0.0
        else:
            resistance = 1.0 / sum(1.0 / c.resistance for c in circuits)
        loss = _loss_curve(resistance, capacity, total_demand, raw.base_mva)
        branches.append(Branch(first.from_bus, first.to_bus, susceptance, capacity, loss))

    return PowerGrid(
        buses=[b.bus_id for b in raw.buses],
        branches=branches,
        generators=generators,
        consumers=consumers,
        base_mva=raw.base_mva,
        name=raw.name,
    )


def bundled_case_names() -> list[str]:
    """Names of the IEEE cases shipped with the package."""
    root = resources.files(__package__) / "data" / "cases"
    return sorted(p.name[:-2] for p in root.iterdir() if p.name.endswith(".m"))


def read_case_text(name_or_path: str) -> str:
    """Text of a bundled case (by name) or of a case file on disk (by path)."""
    root = resources.files(__package__) / "data" / "cases"
    bundled = root / f"{name_or_path}.m"
    if bundled.is_file():
        return bundled.read_text()
    with open(name_or_path, encoding="utf-8") as fh:
        return fh.read()


def load_case(name_or_path: str) -> PowerGrid:
    """Parse and build a grid in one step."""
    return build_grid(parse_case(read_case_text(name_or_path)))
