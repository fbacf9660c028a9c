"""Checks of every workload output against reference.py, outside the timing.

Each checker is built from its workload once per run; it computes a
reference the first time it needs it and keeps it for later passes, since the
operations of every pass are the same. ``check(results, log)`` marks each
operation whose output fails a check as failed.

A verdict is kept with a digest of the outputs it judged, and an output equal
to one already judged gets the same verdict. So checking a pass costs little
more than reading its outputs, however fast the program becomes.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from gridctl.graph_algorithms import VertexSetResult
from gridctl.grid_model import Flow
from gridctl.power_flow_models import AngleCheck, ModelSolution
from workloads import COVER_ONLY, FAILED, LOADSCALE_CASES


def digest(out):
    """Hashable summary of every field of an output that a check reads."""
    if isinstance(out, ModelSolution):
        theta = tuple(sorted(out.theta.items())) if out.theta is not None else None
        return (out.objective, tuple(out.costs), tuple(out.flow.values), theta)
    if isinstance(out, VertexSetResult):
        return out.vertices
    if isinstance(out, AngleCheck):
        theta = tuple(sorted(out.theta.items())) if out.theta is not None else None
        return (out.feasible, theta)
    if isinstance(out, tuple) and out and isinstance(out[0], Flow):  # cactus shift
        return (tuple(out[0].values), tuple(v.subject for v in out[1]))
    if out is FAILED:
        return "failed"
    if isinstance(out, Exception):
        return type(out).__name__
    raise TypeError(f"no digest for {type(out).__name__}")


class Verdicts(dict):
    """Check results keyed by what was checked."""

    def judge(self, key, check):
        if key not in self:
            self[key] = check()
        return self[key]


def check_solution(arr, sol, controls, reference_objective) -> list[str]:
    """A dispatch optimum against the reference LP and the flow checks."""
    problems = []
    for what, value in (("objective", sol.objective), ("weighted cost", sol.costs.weighted)):
        if ref.rel_gap(value, reference_objective) > ref.OBJ_RTOL:
            problems.append(f"{what} {value!r} vs reference {reference_objective!r}")
    problems += ref.check_flow(arr, sol.flow.values)
    if len(controls) < len(arr.buses):
        problems += ref.check_coupling(arr, sol.flow.values, sol.theta, controls)
    return problems


def check_order(flow, hybrid, electrical) -> list[str]:
    """flow <= hybrid <= electrical, to the objective tolerance."""
    slack = ref.OBJ_RTOL
    if flow <= hybrid * (1 + slack) + slack and hybrid <= electrical * (1 + slack) + slack:
        return []
    return [f"flow {flow} <= hybrid {hybrid} <= electrical {electrical} fails"]


def check_cover(g, cover, size) -> list[str]:
    problems = []
    if len(cover) != size:
        problems.append(f"cover has {len(cover)} vertices, minimum is {size}")
    open_edges = [(u, v) for u, v in g.edges if u not in cover and v not in cover]
    if open_edges:
        problems.append(f"edges {open_edges[:3]} not covered")
    return problems


def check_feedback(g, found, target, size) -> list[str]:
    problems = []
    if len(found) != size:
        problems.append(f"{target} feedback set has {len(found)} vertices, minimum is {size}")
    if not ref.in_class(g, found, target):
        problems.append(f"removing {sorted(found)} does not leave a {target}")
    return problems


def check_shift(arr, before, shift, native) -> list[str]:
    """Net outflows kept, capacity violations reported, angles exist."""
    new_flow, violations = shift
    net_before = arr.incidence @ np.asarray(before)
    net_after = arr.incidence @ np.asarray(new_flow.values)
    worst = float(np.max(np.abs(net_after - net_before)))
    problems = []
    if worst > ref.FLOW_TOL * (1.0 + float(np.max(np.abs(net_before)))):
        problems.append(f"shift moved a net outflow by {worst:.3g}")
    over = [e for e in range(len(arr.cap))
            if abs(new_flow.values[e]) - arr.cap[e] > ref.FLOW_TOL * (1.0 + arr.cap[e])]
    if over != sorted(v.subject for v in violations):
        problems.append(f"capacity violations reported {sorted(v.subject for v in violations)}, "
                        f"found {over}")
    if not violations:
        ok, resid = ref.angles_exist(arr, new_flow.values, native)
        if not ok:
            problems.append(f"shifted flow admits no angles (residual {resid:.3g})")
    return problems


def check_angles(arr, values, result, native) -> list[str]:
    """The angle check's verdict, and its angles, against least squares."""
    ok, resid = ref.angles_exist(arr, values, native)
    if result.feasible != ok:
        return [f"angle check says feasible={result.feasible}, reference residual {resid:.3g}"]
    if not ok:
        return []
    return ref.check_coupling(arr, values, result.theta, set(arr.buses) - set(native))


def check_step(mid, feasible, out, scaled, controls, alpha_ref) -> list[str]:
    """One bisection solve: its outcome agrees with the max-load LP."""
    band = 1e-6 * max(1.0, alpha_ref)
    if feasible and mid > alpha_ref + band:
        return [f"feasible at alpha {mid} above the maximum {alpha_ref}"]
    if not feasible:
        if mid < alpha_ref - band:
            return [f"infeasible at alpha {mid} below the maximum {alpha_ref}"]
        return []
    arr = ref.GridArrays(scaled)
    problems = ref.check_flow(arr, out.flow.values)
    if len(controls) < len(arr.buses):
        problems += ref.check_coupling(arr, out.flow.values, out.theta, controls)
    return problems


def check_alpha(alpha, hi, alpha_ref, alpha_max) -> list[str]:
    """alpha* within the bisection width of the max-load LP, and below alpha_max."""
    width = hi - alpha
    problems = []
    if abs(alpha - alpha_ref) > width * (1 + 1e-9) + 1e-12:
        problems.append(f"alpha* {alpha} is {abs(alpha - alpha_ref):.3g} from the "
                        f"reference {alpha_ref}, width {width:.3g}")
    if alpha > alpha_max * (1 + 1e-12):
        problems.append(f"alpha* {alpha} above capacity/demand {alpha_max}")
    return problems


class DispatchCheck:
    def __init__(self, workload):
        self.wl = workload
        self.arrays = {name: ref.GridArrays(g) for name, g in workload.grids.items()}
        self.refs: dict = {}
        self.verdicts = Verdicts()

    def reference(self, name, lam, controls):
        key = (name, lam, controls)
        if key not in self.refs:
            self.refs[key] = ref.dispatch_objective(self.wl.grids[name], controls, lam)
        return self.refs[key]

    def check(self, results, log):
        objective = {}
        for job, ((index, sol), (name, lam, model, controls)) in enumerate(zip(results, self.wl.jobs)):
            if sol is FAILED:
                continue
            log.reject(index, self.verdicts.judge((job, digest(sol)), lambda: check_solution(
                self.arrays[name], sol, controls, self.reference(name, lam, controls))))
            objective[(name, lam, model)] = (index, sol.objective)
        for name, lam in dict.fromkeys((n, lam) for n, lam, _m, _c in self.wl.jobs):
            flow, elec, hybrid = (objective.get((name, lam, m))
                                  for m in ("flow", "electrical", "hybrid"))
            if flow and elec and hybrid:
                log.reject(hybrid[0], [f"{name} lam={lam}: " + p for p in
                                       check_order(flow[1], hybrid[1], elec[1])])


class PlacementCheck:
    def __init__(self, workload):
        self.wl = workload
        self.arrays = {name: ref.GridArrays(g) for name, g in workload.grids.items()}
        self.refs: dict = {}
        self.verdicts = Verdicts()

    def reference(self, name):
        if name not in self.refs:
            grid = self.wl.grids[name]
            g = ref.nx_graph(grid)
            sizes = {"cover": ref.min_cover_size(g)}
            if name not in COVER_ONLY:
                sizes["forest"] = ref.min_feedback_size(g, "forest")
                sizes["cactus"] = ref.min_feedback_size(g, "cactus")
                sizes["flow"] = ref.dispatch_objective(grid, grid.buses, 1.0)
            self.refs[name] = (g, sizes)
        return self.refs[name]

    def check(self, results, log):
        for out in results:
            key = tuple((field, digest(value[1])) for field, value in out.items() if field != "name")
            verdict = self.verdicts.judge((out["name"], key), lambda: self._judge(out))
            for field, problems in verdict.items():
                log.reject(out[field][0], problems)

    def _judge(self, out) -> dict[str, list[str]]:
        """Problems of each output of one case's placement study."""
        name = out["name"]
        g, sizes = self.reference(name)
        got = {field: value[1] for field, value in out.items() if field != "name"}
        verdict = {}
        if got["cover"] is not FAILED:
            verdict["cover"] = check_cover(g, got["cover"].vertices, sizes["cover"])
        if name in COVER_ONLY:
            return verdict
        for target in ("forest", "cactus"):
            if got[target] is not FAILED:
                verdict[target] = check_feedback(g, got[target].vertices, target, sizes[target])
        arr = self.arrays[name]
        flow, hybrid, shift, angles = got["flow"], got["hybrid"], got["shift"], got["angles"]
        if flow is not FAILED:
            verdict["flow"] = check_solution(arr, flow, frozenset(arr.buses), sizes["flow"])
        if hybrid is not FAILED:
            # the paper's property: a forest feedback set of controllers
            # makes the hybrid optimum equal the flow optimum
            verdict["hybrid"] = check_solution(arr, hybrid, got["forest"].vertices, sizes["flow"])
        if shift is not FAILED:
            native = set(arr.buses) - got["cactus"].vertices
            verdict["shift"] = check_shift(arr, flow.flow.values, shift, native)
            if angles is not FAILED:
                verdict["angles"] = check_angles(arr, shift[0].values, angles, native)
        return verdict


class LoadScaleCheck:
    def __init__(self, workload):
        self.wl = workload
        self.refs: dict = {}
        self.verdicts = Verdicts()

    def reference(self, name, controls):
        key = (name, controls)
        if key not in self.refs:
            self.refs[key] = ref.max_load_factor(self.wl.grids[name], controls,
                                                 self.wl.alpha_max[name])
        return self.refs[key]

    def check(self, results, log):
        found = {}
        for name, controls, lo, hi, steps in results:
            alpha_ref = self.reference(name, controls)
            for step, (index, mid, feasible, out, scaled) in enumerate(steps):
                key = (name, controls, step, mid, digest(out))
                log.reject(index, self.verdicts.judge(key, lambda: check_step(
                    mid, feasible, out, scaled, controls, alpha_ref)))
            if steps:
                log.reject(steps[-1][0], check_alpha(lo, hi, alpha_ref, self.wl.alpha_max[name]))
                found[(name, controls)] = (steps[-1][0], lo, hi)
        # alpha* must not fall as the nested control sets grow
        for name in LOADSCALE_CASES:
            chain = sorted((len(c), v) for (n, c), v in found.items() if n == name)
            for (_k0, (_i0, a0, h0)), (_k1, (i1, a1, h1)) in zip(chain, chain[1:]):
                if a1 < a0 - (h0 - a0) - (h1 - a1):
                    log.reject(i1, [f"{name}: alpha* fell from {a0} to {a1} with more controls"])


CHECKS = {"dispatch": DispatchCheck, "placement": PlacementCheck, "loadscale": LoadScaleCheck}
