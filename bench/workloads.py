"""The paper's three studies as benchmark workloads.

Each workload builds its inputs in ``__init__`` (the set-up) and runs a fixed
list of operations in ``run_pass``; checks.py checks every output outside the
timed region. An operation is one call into a public gridctl
function, timed from outside by ``PassLog.call``. The program's functions are
looked up through their modules at call time, so that the traced run can
wrap them at their module attributes.
"""

from __future__ import annotations

import json
import os
import random
import time

from gridctl import case_io
from gridctl import graph_algorithms as ga
from gridctl import power_flow_models as pfm
from gridctl.grid_model import PowerGrid

HERE = os.path.dirname(os.path.abspath(__file__))

ALL_CASES = ("case6ww", "case9", "case14", "case30", "case39", "case57", "case118")
LAMBDAS = (0.0, 0.5, 1.0)
# case118's lambda < 1 LPs take 20.7 s (flow) and 45.9 s (electrical) each
# in the in-house simplex, so dispatch runs it at lambda = 1 only
LAMBDA_ONE_ONLY = ("case118",)
# case118's forest and cactus searches take 54.5 s and 308 s, so placement
# runs its vertex cover only
COVER_ONLY = ("case118",)
# every solve of case14 and case57 up to their generation limit is feasible,
# so they have no infeasible outcome to time
LOADSCALE_CASES = ("case6ww", "case9", "case30", "case39")
BISECT_RTOL = 1e-3

FAILED = object()  # output of an operation that raised or was not run


class OpRecord:
    __slots__ = ("label", "seconds", "error")

    def __init__(self, label, seconds, error=None):
        self.label = label
        self.seconds = seconds
        self.error = error


class PassLog:
    """Times each operation of one pass and collects its failures."""

    def __init__(self):
        self.ops: list[OpRecord] = []
        self.wrong_output = False

    def call(self, label, fn, *args, expect=()):
        """Run fn(*args) as one timed operation; return (index, output).

        An exception listed in ``expect`` is an outcome and is returned as
        the output; any other exception fails the operation.
        """
        index = len(self.ops)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except expect as exc:
            out = exc
        except Exception as exc:  # noqa: BLE001 - every other raise is a failed operation
            self.ops.append(OpRecord(label, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"))
            return index, FAILED
        self.ops.append(OpRecord(label, time.perf_counter() - t0))
        return index, out

    def skip(self, label, reason):
        """Count an operation whose input came from a failed one as failed."""
        self.ops.append(OpRecord(label, 0.0, f"not run: {reason}"))
        return len(self.ops) - 1, FAILED

    def reject(self, index, problems):
        """Fail an operation whose output did not pass its check."""
        if problems and self.ops[index].error is None:
            self.ops[index].error = "; ".join(problems)
            self.wrong_output = True

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)


def load_grids(names):
    """Parse and build each case through case_io's public functions."""
    out = {}
    for name in names:
        raw = case_io.parse_case(case_io.read_case_text(name))
        out[name] = case_io.build_grid(raw)
    return out


def _kind_for(grid, controls):
    if not controls:
        return pfm.electrical_model()
    if len(controls) == len(grid.buses):
        return pfm.flow_model()
    return pfm.hybrid_model(controls)


class Dispatch:
    """solve_model on every case x lambda x {flow, electrical, hybrid}.

    Each (case, lambda) pair draws its own fifth of the buses from the seed
    as the hybrid model's control set, and the seed also fixes the order of
    the 57 solves.
    """

    name = "dispatch"
    models = ("flow", "electrical", "hybrid")

    def __init__(self, seed: int):
        self.grids = load_grids(ALL_CASES)
        self.jobs = []  # (case, lambda, model name, control set)
        for name in ALL_CASES:
            buses = self.grids[name].buses
            for lam in (1.0,) if name in LAMBDA_ONE_ONLY else LAMBDAS:
                rng = random.Random(f"dispatch:{seed}:{name}:{lam}")
                fifth = frozenset(rng.sample(buses, round(len(buses) / 5)))
                for model, controls in zip(self.models, (frozenset(buses), frozenset(), fifth)):
                    self.jobs.append((name, lam, model, controls))
        # interleave cheap and costly solves, so that the operations near any
        # quantile are timed across the whole pass, not in one short stretch
        # of it while the host happens to be fast or slow
        random.Random(f"dispatch:{seed}").shuffle(self.jobs)

    def warm_up(self):
        for name, lam, _model, controls in self.jobs:
            if name == "case9" and lam == 0.5:
                grid = self.grids[name]
                pfm.solve_model(grid, _kind_for(grid, controls), lam)

    def run_pass(self, log: PassLog):
        results = []
        for name, lam, model, controls in self.jobs:
            grid = self.grids[name]
            index, out = log.call(f"solve_model {name} {model} lam={lam}",
                                  pfm.solve_model, grid, _kind_for(grid, controls), lam)
            results.append((index, out))
        return results


class Placement:
    """Controller-set searches, checked by a hybrid solve and the cactus shift."""

    name = "placement"

    def __init__(self, seed: int):
        self.grids = load_grids(ALL_CASES)
        self.graphs = {name: ga.Multigraph(grid.buses, grid.edges())
                       for name, grid in self.grids.items()}
        self.order = list(ALL_CASES)
        random.Random(f"placement:{seed}").shuffle(self.order)

    def warm_up(self):
        log = PassLog()
        self._run_case(log, "case9")

    def run_pass(self, log: PassLog):
        return [self._run_case(log, name) for name in self.order]

    def _run_case(self, log, name):
        grid, graph = self.grids[name], self.graphs[name]
        out = {"name": name}
        out["cover"] = log.call(f"min_vertex_cover {name}", ga.min_vertex_cover, graph)
        if name in COVER_ONLY:
            return out
        out["forest"] = log.call(f"min_feedback_set forest {name}", ga.min_feedback_set,
                                 graph, ga.TargetClass.FOREST)
        out["cactus"] = log.call(f"min_feedback_set cactus {name}", ga.min_feedback_set,
                                 graph, ga.TargetClass.CACTUS)
        out["flow"] = log.call(f"solve_model {name} flow", pfm.solve_model,
                               grid, pfm.flow_model(), 1.0)
        forest, cactus, flow = out["forest"][1], out["cactus"][1], out["flow"][1]
        label = f"solve_model {name} hybrid(forest)"
        out["hybrid"] = (log.skip(label, "no forest set") if forest is FAILED else
                         log.call(label, pfm.solve_model, grid,
                                  pfm.hybrid_model(forest.vertices), 1.0))
        label = f"cactus_equivalent_flow {name}"
        ready = cactus is not FAILED and flow is not FAILED
        out["shift"] = (log.call(label, pfm.cactus_equivalent_flow, grid, cactus.vertices, flow.flow)
                        if ready else log.skip(label, "no cactus set or flow optimum"))
        label = f"check_electrical_feasibility {name}"
        shift = out["shift"][1]
        out["angles"] = (log.skip(label, "no shifted flow") if shift is FAILED else
                         log.call(label, pfm.check_electrical_feasibility, grid, shift[0],
                                  set(grid.buses) - cactus.vertices))
        return out


class LoadScale:
    """Bisection on the demand factor per case and nested control set."""

    name = "loadscale"

    def __init__(self, seed: int):
        self.grids = load_grids(LOADSCALE_CASES)
        with open(os.path.join(HERE, "data", "loadscale_controls.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        self.jobs = []
        for name in LOADSCALE_CASES:
            order = data[name]["order"]
            if sorted(order) != list(self.grids[name].buses):
                raise ValueError(f"{name}: control order is not a permutation of the buses")
            self.jobs += [(name, frozenset(order[:k])) for k in data[name]["prefixes"]]
        random.Random(f"loadscale:{seed}").shuffle(self.jobs)
        self.alpha_max = {}
        for name, grid in self.grids.items():
            cap = sum(gen.capacity for gen in grid.generators.values())
            self.alpha_max[name] = cap / grid.total_demand

    def scaled(self, name, alpha) -> PowerGrid:
        grid = self.grids[name]
        return PowerGrid(grid.buses, grid.branches, grid.generators,
                         {b: alpha * d for b, d in grid.consumers.items()},
                         grid.base_mva, grid.name)

    def warm_up(self):
        for alpha in (1.0, self.alpha_max["case6ww"]):
            try:
                pfm.solve_model(self.scaled("case6ww", alpha), pfm.electrical_model(), 1.0)
            except pfm.InfeasibleModel:
                pass

    def run_pass(self, log: PassLog):
        results = []
        for name, controls in self.jobs:
            grid = self.grids[name]
            kind = _kind_for(grid, controls)
            lo, hi = 0.0, self.alpha_max[name]
            steps = []
            while hi - lo > BISECT_RTOL * hi:
                mid = 0.5 * (lo + hi)
                scaled = self.scaled(name, mid)
                index, out = log.call(f"solve_model {name} {kind.name}[{len(controls)}] alpha",
                                      pfm.solve_model, scaled, kind, 1.0,
                                      expect=(pfm.InfeasibleModel,))
                if out is FAILED:
                    break
                feasible = not isinstance(out, pfm.InfeasibleModel)
                steps.append((index, mid, feasible, out, scaled))
                if feasible:
                    lo = mid
                else:
                    hi = mid
            results.append((name, controls, lo, hi, steps))
        return results


WORKLOADS = {w.name: w for w in (Dispatch, Placement, LoadScale)}
