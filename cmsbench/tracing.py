"""Spans around the calls between ``cmsvote``'s layers, recorded from outside.

:class:`Tracer` replaces the module attributes through which one layer calls
the next (``cmsvote.dispatch.classify``, ``cmsvote.mincut.max_flow_min_cut``,
each ``make_solution`` ...) with wrappers that record a span: name, start,
end and parent span, with one span stack per thread.  Spans stay in memory;
:meth:`Tracer.dump` writes them out and :func:`layer_metrics` derives the
per-layer metrics from the written records.

A name that no longer exists in the package raises at install time, so a
renamed layer fails the traced run instead of reading as zero.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import threading
import time

# (module, attribute, span name).  Several attributes may share a span name;
# a layer's time is the self time summed over its spans.
WRAPPED = (
    ("cmsvote.textio", "parse_profile", "textio.parse"),
    ("cmsvote.textio", "serialize_solution", "textio.serialize"),
    ("cmsvote.dispatch", "solve_profile", "dispatch"),
    ("cmsvote.dispatch", "classify", "analysis.classify"),
    ("cmsvote.analysis", "vertex_cover_number", "analysis.vertex_cover"),
    ("cmsvote.dispatch", "restrict_profile", "dispatch.split"),
    ("cmsvote.dispatch", "majority_alternative", "dispatch.majority"),
    ("cmsvote.dispatch", "solve_mincut", "mincut"),
    ("cmsvote.mincut", "compile_constraints", "mincut.compile"),
    ("cmsvote.mincut", "build_network", "mincut.network"),
    ("cmsvote.mincut", "max_flow_min_cut", "mincut.flow"),
    ("cmsvote.dispatch", "solve_brute", "brute"),
    ("cmsvote.dispatch", "solve_treewidth", "treewidth"),
    ("cmsvote.treewidth", "compile_cost_model", "treewidth.compile"),
    ("cmsvote.treewidth", "build_global_graph", "treewidth.decompose"),
    ("cmsvote.treewidth", "heuristic_tree_decomposition", "treewidth.decompose"),
    ("cmsvote.treewidth", "make_nice", "treewidth.nice"),
    ("cmsvote.dispatch", "make_solution", "model.verify"),
    ("cmsvote.brute", "make_solution", "model.verify"),
    ("cmsvote.mincut", "make_solution", "model.verify"),
    ("cmsvote.treewidth", "make_solution", "model.verify"),
)

# Spans whose arguments or result the counts below read after the operation.
KEEP_ARGS = {"brute", "treewidth"}
KEEP_RESULT = {"analysis.classify", "mincut.compile", "treewidth.nice"}

# Per-layer metric -> span names whose self time it sums.
SELF_TIMES = {
    "textio.parse_s": ("textio.parse",),
    "textio.serialize_s": ("textio.serialize",),
    "analysis.classify_s": ("analysis.classify",),
    "analysis.vertex_cover_s": ("analysis.vertex_cover",),
    "dispatch.self_s": ("dispatch",),
    "dispatch.split_s": ("dispatch.split",),
    "dispatch.majority_s": ("dispatch.majority",),
    "mincut.compile_s": ("mincut.compile",),
    "mincut.network_s": ("mincut.network",),
    "mincut.flow_s": ("mincut.flow",),
    "brute.solve_s": ("brute",),
    "treewidth.compile_s": ("treewidth.compile",),
    "treewidth.decompose_s": ("treewidth.decompose", "treewidth.nice"),
    "treewidth.dp_s": ("treewidth",),
    "model.verify_s": ("model.verify",),
}
CALLS = {
    "analysis.vertex_cover_calls": "analysis.vertex_cover",
    "model.verify_calls": "model.verify",
}
ROUTES = ("MAJORITY", "MINCUT", "TREEWIDTH", "BRUTE")
COUNTS = (
    "dispatch.components",
    *(f"dispatch.route.{r.lower()}" for r in ROUTES),
    "mincut.constraints",
    "mincut.arcs",
    "brute.outcomes",
    "treewidth.width",
    "treewidth.table_entries",
)
UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in COUNTS},
    "trace.overhead_s": "s",
}


def _gadget_arcs(constraint) -> int:
    """Arcs the min-cut gadget of one two-monotone constraint uses."""
    pos, neg = constraint.pos, constraint.neg
    if pos is not None and neg is not None:
        return 1 + len(pos) + len(neg)
    term = pos if pos is not None else neg
    return 1 if len(term) == 1 else len(term) + 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, args, result]
        self._local = threading.local()
        self._saved = []
        self._root = -1  # the open span that no other span encloses

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, call, *args, **kwargs):
        """Run ``call(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        index = len(self.spans)
        # A span opened on a fresh thread belongs to the operation running.
        record = [name, 0.0, 0.0, stack[-1] if stack else self._root, None, None]
        if record[3] < 0:
            self._root = index
        stack.append(index)
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if self._root == index:
                self._root = -1
        if name in KEEP_ARGS:
            record[4] = args
        if name in KEEP_RESULT:
            record[5] = result
        return result

    def _wrapper(self, name, original):
        def traced(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise RuntimeError(
                    f"cannot trace {module_name}.{attr}: the package no longer has it"
                )
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def settle(self, first: int) -> None:
        """Turn the kept arguments and results of spans from ``first`` on
        into counts, dropping the references."""
        settled = []
        for index in range(first, len(self.spans)):
            record = self.spans[index]
            name, args, result = record[0], record[4], record[5]
            counts = {}
            if name == "analysis.classify":
                counts["dispatch.components"] = len(result.components)
                for route in ROUTES:
                    counts[f"dispatch.route.{route.lower()}"] = sum(
                        1 for comp in result.components if comp.route == route
                    )
            elif name == "mincut.compile":
                constraints = result[0]
                counts["mincut.constraints"] = len(constraints)
                counts["mincut.arcs"] = sum(_gadget_arcs(c) for c in constraints)
            elif name == "brute":
                counts["brute.outcomes"] = math.prod(args[0].domain_sizes())
            elif name == "treewidth.nice":
                owner = record[3]
                while owner >= 0 and self.spans[owner][0] != "treewidth":
                    owner = self.spans[owner][3]
                if owner < 0:
                    raise RuntimeError("make_nice ran outside solve_treewidth")
                dom = self.spans[owner][4][0].domain_sizes()
                nodes = result.postorder()
                counts["treewidth.width"] = max(len(node.bag) for node in nodes) - 1
                counts["treewidth.table_entries"] = sum(
                    math.prod(dom[v] for v in node.bag) for node in nodes
                )
            settled.append(counts or None)
        for record, counts in zip(self.spans[first:], settled):
            record[4] = counts
            record[5] = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, counts, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, counts]) + "\n")


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def op_metrics(spans: list) -> list:
    """Per-layer metrics of each operation, one dict per root span.

    Self time is a span's duration minus its direct children's durations.
    ``treewidth.width`` is the largest width over the operation's
    decompositions; every other count is summed.
    """
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    ops = []
    op_of = []
    for index, (name, start, end, parent, counts) in enumerate(spans):
        if parent < 0:
            op_of.append(len(ops))
            ops.append(
                {
                    "op": name,
                    "wall_s": end - start,
                    "self_sum_s": 0.0,
                    **{m: 0.0 for m in SELF_TIMES},
                    **{m: 0 for m in CALLS},
                    **{m: 0 for m in COUNTS},
                }
            )
        else:
            op_of.append(op_of[parent])
        op = ops[op_of[index]]
        op["self_sum_s"] += self_time[index]
        for metric, names in SELF_TIMES.items():
            if name in names:
                op[metric] += self_time[index]
        for metric, span_name in CALLS.items():
            if name == span_name:
                op[metric] += 1
        for metric, value in (counts or {}).items():
            if metric == "treewidth.width":
                op[metric] = max(op[metric], value)
            else:
                op[metric] += value
    return ops


def layer_metrics(ops: list, untraced_walls: list) -> dict:
    """Median over operations of each per-layer metric, plus the tracing
    overhead: median traced wall time minus median untraced wall time."""
    metrics = {
        name: statistics.median(op[name] for op in ops)
        for name in UNITS
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(
        op["wall_s"] for op in ops
    ) - statistics.median(untraced_walls)
    return metrics
