"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public gridctl functions at their module
attributes with wrappers that record a span (name, parent span, start, end,
outcome) or bump a counter, and ``uninstall`` puts the originals back. Spans
stay in memory and are written out when the run ends. A wrapped name that the
program no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

from gridctl import case_io, graph_algorithms, lp_engine, power_flow_models

# (module, attribute, span name): calls recorded as spans
SPANS = (
    (case_io, "parse_case", "case_io.parse_case"),
    (case_io, "build_grid", "case_io.build_grid"),
    (power_flow_models, "solve_model", "solve_model"),
    (power_flow_models, "build_lp", "build_lp"),
    (power_flow_models, "check_feasible", "check_feasible"),
    (power_flow_models, "flow_cost", "flow_cost"),
    (power_flow_models, "cactus_equivalent_flow", "explain.cactus_equivalent_flow"),
    (power_flow_models, "check_electrical_feasibility", "explain.check_electrical_feasibility"),
    (graph_algorithms, "min_vertex_cover", "graph.min_vertex_cover"),
    (graph_algorithms, "min_feedback_set", "graph.min_feedback_set"),
)
# (module, attribute, counter name): calls only counted
COUNTERS = (
    (lp_engine, "solve_lp", "lp_engine.solve_lp.calls"),
    (graph_algorithms, "biconnected_components", "graph.biconnected_components.calls"),
    (power_flow_models, "biconnected_components", "graph.biconnected_components.calls"),
)
# children of solve_model that are not the LP solve itself
SOLVE_CHILDREN = ("build_lp", "check_feasible", "flow_cost")


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "outcome", "pass_no")

    def __init__(self, sid, parent, name, start, pass_no):
        self.sid, self.parent, self.name, self.start = sid, parent, name, start
        self.end, self.outcome, self.pass_no = start, "ok", pass_no


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.pass_no: int | None = None  # None while setting up
        self._stack: list[Span] = []
        self._saved: list = []

    def install(self):
        for module, attr, name in SPANS:
            self._wrap(module, attr, name, counter=False)
        for module, attr, name in COUNTERS:
            self._wrap(module, attr, name, counter=True)

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, module, attr, name, counter):
        orig = getattr(module, attr, None)
        if orig is None:
            label = f"{module.__name__}.{attr}"
            if label not in self.absent:
                self.absent.append(label)
            return
        self._saved.append((module, attr, orig))
        setattr(module, attr, self._counter(orig, name) if counter else self._span(orig, name))

    def _counter(self, orig, name):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = orig(*args, **kwargs)
            if name == "lp_engine.solve_lp.calls":
                counts["lp_engine.iterations"] += getattr(out, "iterations", 0)
            return out

        return wrapper

    def _span(self, orig, name):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name
            if name == "graph.min_feedback_set":
                target = args[1] if len(args) > 1 else kwargs.get("target")
                label = f"{name}_{getattr(target, 'value', target)}"
            parent = tracer._stack[-1].sid if tracer._stack else None
            span = Span(len(tracer.spans), parent, label, 0.0, tracer.pass_no)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if name == "build_lp":
                tracer._count_lp(out)
            return out

        return wrapper

    def _count_lp(self, out):
        lp = out[0] if isinstance(out, tuple) else out
        rows = getattr(lp, "rows", None)
        if rows is None:
            if "LinearProgram.rows" not in self.absent:
                self.absent.append("LinearProgram.rows")
            return
        self.counts["build_lp.rows"] += len(rows)
        self.counts["build_lp.cols"] += getattr(lp, "n_vars", 0)
        self.counts["build_lp.nnz"] += sum(len(r) for r in rows)

    # -- summaries ---------------------------------------------------------

    def layer_metrics(self, traced_passes: list[tuple[int, float, Counter]]) -> dict:
        """Per-pass layer figures from the spans and counts of traced passes.

        traced_passes: (pass number, wall seconds, counter deltas) of each.
        """
        n = len(traced_passes)
        ids = {p for p, _w, _c in traced_passes}
        in_pass = [s for s in self.spans if s.pass_no in ids]
        by_id = {s.sid: s for s in self.spans}

        def total(name, parent=None):
            return sum(s.end - s.start for s in in_pass if s.name == name
                       and (parent is None or (s.parent is not None
                                               and by_id[s.parent].name == parent)))

        child_time = Counter()
        for s in in_pass:
            if s.parent is not None and s.name in SOLVE_CHILDREN:
                child_time[s.parent] += s.end - s.start
        solve_self = sum(s.end - s.start - child_time[s.sid]
                         for s in in_pass if s.name == "solve_model")
        top = sum(s.end - s.start for s in in_pass if s.parent is None)
        wall = sum(w for _p, w, _c in traced_passes)
        counts = Counter()
        for _p, _w, c in traced_passes:
            counts.update(c)
        setup = [s for s in self.spans if s.pass_no is None]

        def per_pass(x):
            return x / n

        return {
            "case_io.parse_case_ms": (1e3 * sum(s.end - s.start for s in setup
                                                if s.name == "case_io.parse_case"), "ms"),
            "case_io.build_grid_ms": (1e3 * sum(s.end - s.start for s in setup
                                                if s.name == "case_io.build_grid"), "ms"),
            "build_lp.s": (per_pass(total("build_lp")), "s"),
            "build_lp.rows": (per_pass(counts["build_lp.rows"]), "count"),
            "build_lp.cols": (per_pass(counts["build_lp.cols"]), "count"),
            "build_lp.nnz": (per_pass(counts["build_lp.nnz"]), "count"),
            "solve.self_s": (per_pass(solve_self), "s"),
            "solve.infeasible": (per_pass(sum(s.name == "solve_model" and s.outcome == "InfeasibleModel"
                                              for s in in_pass)), "count"),
            "lp_engine.solve_lp.calls": (per_pass(counts["lp_engine.solve_lp.calls"]), "count"),
            "lp_engine.iterations": (per_pass(counts["lp_engine.iterations"]), "count"),
            "verify.check_feasible_s": (per_pass(total("check_feasible", "solve_model")), "s"),
            "verify.flow_cost_s": (per_pass(total("flow_cost", "solve_model")), "s"),
            "graph.min_vertex_cover_s": (per_pass(total("graph.min_vertex_cover")), "s"),
            "graph.min_feedback_set_forest_s": (per_pass(total("graph.min_feedback_set_forest")), "s"),
            "graph.min_feedback_set_cactus_s": (per_pass(total("graph.min_feedback_set_cactus")), "s"),
            "graph.biconnected_components.calls": (
                per_pass(counts["graph.biconnected_components.calls"]), "count"),
            "explain.cactus_equivalent_flow_s": (per_pass(total("explain.cactus_equivalent_flow")), "s"),
            "explain.check_electrical_feasibility_s": (
                per_pass(total("explain.check_electrical_feasibility")), "s"),
            "bench.self_s": (per_pass(wall - top), "s"),
        }

    def write(self, path, extra: dict):
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["spans"] = [[s.sid, s.parent, s.name, s.start, s.end, s.outcome, s.pass_no]
                        for s in self.spans]
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s", "outcome", "pass"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
