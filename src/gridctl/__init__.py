"""DC power-flow models with flow-control buses.

Three dispatch models over one grid representation: a pure network-flow model,
the classical DC (electrical) model, and a hybrid model where a chosen set of
buses may redistribute flow freely. The models are solved as LPs by an
in-house bounded simplex (`lp_engine`) that prices each column's convex
piecewise-linear cost in place, so the LP has one column per branch flow and
per generator and one balance row per bus. `graph_algorithms` computes exact
vertex covers and forest/cactus feedback vertex sets, the candidate
controller sets. `power_flow_models` writes the DC coupling as
one voltage-law row per fundamental cycle of one spanning forest of the
buses without a controller; the same cycles serve its angle recovery, its
electrical-feasibility check of a fixed flow and its shift of a flow around
the cycles of a cactus.
"""

from .case_io import build_grid, load_case, parse_case
from .grid_model import Flow, PowerGrid, check_feasible, flow_cost, net_outflow

__all__ = [
    "build_grid",
    "load_case",
    "parse_case",
    "Flow",
    "PowerGrid",
    "check_feasible",
    "flow_cost",
    "net_outflow",
]

__version__ = "0.1.0"
