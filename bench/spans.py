"""Outside-in tracing of the package's layers for the traced benchmark run.

The package is not edited.  For the traced phase only, the public names a
module calls through are rebound in that calling module to wrappers that
record one span per call: name, start, end, parent span and op id.  Spans
live in flat arrays in memory and are written out when the run ends.
Every per-layer time is derived from them afterwards; a span's self time
is its duration minus its children's durations (calls are sequential, so
children never overlap).

Span names are ``<callee layer>.<function>``; the layer is the module that
defines the function, whichever module calls it.  Wrapper bookkeeping
runs outside the span's own clock reads, so it lands in the caller's self
time; ``trace.overhead_frac`` reports its total cost.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from itertools import permutations
from time import perf_counter_ns

LAYERS = ("geometry", "identity", "solver", "quads", "fuzz", "cli", "svg")

#: (calling module, name bound there, layer defining it).  Covers every
#: cross-module call the package makes, the same-layer calls whose cost
#: a metric reports, and the three benchmark entry points.
SITES = (
    ("fuzz", "run_fuzz", "fuzz"),
    ("fuzz", "random_angles", "fuzz"),
    ("fuzz", "CentralAngles", "geometry"),
    ("fuzz", "vertices_from_angles", "geometry"),
    ("fuzz", "side_lengths", "geometry"),
    ("fuzz", "evaluate_general", "identity"),
    ("fuzz", "nested_quadrilateral_check", "identity"),
    ("fuzz", "corner_identity_residual", "identity"),
    ("fuzz", "solve_diameter", "solver"),
    ("identity", "diagonal", "geometry"),
    ("identity", "side_lengths", "geometry"),
    ("solver", "inscribe_from_sides", "solver"),
    ("solver", "solve_diameter", "solver"),
    ("solver", "arcs_from_sides", "solver"),
    ("solver", "CentralAngles", "geometry"),
    ("solver", "vertices_from_angles", "geometry"),
    ("quads", "diameter_cubic", "quads"),
    ("quads", "arcs_from_sides", "solver"),
    ("quads", "CentralAngles", "geometry"),
    ("quads", "vertices_from_angles", "geometry"),
    ("quads", "diagonal", "geometry"),
    ("quads", "rhs_quadrilateral", "identity"),
    ("cli", "main", "cli"),
    ("cli", "build_parser", "cli"),
    ("cli", "run_fuzz", "fuzz"),
    ("cli", "evaluate_general", "identity"),
    ("cli", "diagonal", "geometry"),
    ("cli", "CentralAngles", "geometry"),
    ("cli", "vertices_from_angles", "geometry"),
    ("cli", "inscribe_from_sides", "solver"),
    ("cli", "solve_diameter", "solver"),
    ("cli", "diameter_cubic", "quads"),
    ("cli", "enumerate_incongruent_quads", "quads"),
    ("cli", "counterexample_report", "quads"),
    ("cli", "polygon_svg", "svg"),
    ("svg", "diagonal", "geometry"),
    ("svg", "side_lengths", "geometry"),
)

#: Same-layer helpers called too often for a span: counted only, and
#: their time stays in the calling span of the same layer.
COUNTED = (("solver", "arc_sum", "solver"),)


class Tracer:
    """Span store plus the rebinding that feeds it."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.calls: dict[str, list[int]] = {}
        self.observed: dict[str, list] = defaultdict(list)
        self._originals: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            ops.append(ops[parent] if parent >= 0 else i)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _count(self, name: str, fn):
        cell = self.calls.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _observer(self, module: str, name: str):
        """Cheap result hooks behind the count and ratio metrics."""
        seen = self.observed
        if (module, name) == ("fuzz", "vertices_from_angles"):
            return lambda args, poly: seen["fuzz_radius"].append(args[1])
        if (module, name) == ("fuzz", "solve_diameter"):
            # run_fuzz places a polygon on radius R, then solves its sides:
            # 2R is the reference for that solve.
            def fuzz_solve(args, sol):
                seen["iterations"].append(sol.iterations)
                seen["fuzz_solves"].append((sol.d, seen["fuzz_radius"][-1]))

            return fuzz_solve
        if name == "solve_diameter":
            return lambda args, sol: seen["iterations"].append(sol.iterations)
        if name == "enumerate_incongruent_quads":
            return lambda args, kept: seen["quads_kept"].append((args, len(kept)))
        if name == "polygon_svg":
            return lambda args, doc: seen["svg_chars"].append(len(doc))
        return None

    def install(self) -> None:
        for module, name, layer in SITES:
            mod = getattr(self.pkg, module)
            fn = getattr(mod, name)
            self._originals.append((mod, name, fn))
            setattr(mod, name, self._wrap(f"{layer}.{name}", fn, self._observer(module, name)))
        for module, name, layer in COUNTED:
            mod = getattr(self.pkg, module)
            fn = getattr(mod, name)
            self._originals.append((mod, name, fn))
            setattr(mod, name, self._count(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        while self._originals:
            mod, name, fn = self._originals.pop()
            setattr(mod, name, fn)

    # -- analysis ---------------------------------------------------------

    def summary(self, marks: list[int], factors: list[float]) -> dict:
        """Per-function call counts, inclusive and self ns, per-layer self ns.

        Span ``i`` from ``marks[r]`` on ran in round ``r`` and its duration
        is scaled by ``factors[r]`` (see ``speed.py``); a span and its
        children always share a round.
        """
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = array("d", bytes(8 * n))
        bounds = marks[1:] + [n]
        for first, last, f in zip(marks, bounds, factors):
            for i in range(first, last):
                dur[i] = (self.span_end[i] - self.span_start[i]) * f
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        main_self = 0.0
        ops = 0
        root_ns = 0.0
        for i in range(n):
            name = self.names[names[i]]
            calls[name] += 1
            inclusive[name] += dur[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
            if name == "cli.main":
                main_self += dur[i] - child[i]
            if parents[i] < 0:
                ops += 1
                root_ns += dur[i]
        return {
            "spans": n,
            "ops": ops,
            "root_ns": root_ns,
            "calls": dict(calls),
            "inclusive_ns": dict(inclusive),
            "layer_self_ns": layer_self,
            "main_self_ns": main_self,
        }

    def write(self, path) -> None:
        """All spans as gzip'd CSV, times in ns from the first span.

        The first line maps name ids to span names as JSON.
        """
        t0 = self.span_start[0] if len(self.span_start) else 0
        starts, ends = self.span_start, self.span_end
        ops, parents, names = self.span_op, self.span_parent, self.span_name
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(dict(enumerate(self.names))) + "\n")
            out.write("span,op,parent,name_id,start_ns,end_ns\n")
            out.writelines(
                f"{i},{ops[i]},{parents[i]},{names[i]},{starts[i] - t0},{ends[i] - t0}\n"
                for i in range(len(names))
            )


def layer_metrics(tracer: Tracer, summary: dict) -> dict:
    """The per-layer metrics, all derived from the spans and observations."""
    ops = max(summary["ops"], 1)
    calls, incl = summary["calls"], summary["inclusive_ns"]
    seen = tracer.observed

    def us(name: str) -> float:
        count = calls.get(name, 0)
        return incl.get(name, 0) / count / 1e3 if count else 0.0

    iterations = seen["iterations"]
    solves = calls.get("solver.solve_diameter", 0)
    kept = seen["quads_kept"]
    tried = sum(len(set(permutations(map(float, args)))) for args, _ in kept)
    svg = seen["svg_chars"]
    metrics = {
        "solver.solve_diameter.us": us("solver.solve_diameter"),
        "solver.solve_diameter.iters_mean": sum(iterations) / len(iterations) if iterations else 0.0,
        "solver.solve_diameter.iters_max": max(iterations, default=0),
        "solver.arc_sum.calls_per_solve": (
            tracer.calls.get("solver.arc_sum", [0])[0] / solves if solves else 0.0
        ),
        "solver.arcs_from_sides.us": us("solver.arcs_from_sides"),
        "identity.evaluate_general.us": us("identity.evaluate_general"),
        "identity.nested_quadrilateral_check.us": us("identity.nested_quadrilateral_check"),
        "identity.nested_quadrilateral_check.calls_per_op": (
            calls.get("identity.nested_quadrilateral_check", 0) / ops
        ),
        "identity.corner_identity_residual.us": us("identity.corner_identity_residual"),
        "geometry.vertices_from_angles.us": us("geometry.vertices_from_angles"),
        "geometry.side_lengths.us": us("geometry.side_lengths"),
        "geometry.diagonal.calls_per_op": calls.get("geometry.diagonal", 0) / ops,
        "fuzz.random_angles.us": us("fuzz.random_angles"),
        "quads.diameter_cubic.us": us("quads.diameter_cubic"),
        "quads.enumerate_incongruent_quads.us": us("quads.enumerate_incongruent_quads"),
        "quads.kept_per_permutation": sum(k for _, k in kept) / tried if tried else 0.0,
        "cli.main.self_us": summary["main_self_ns"] / ops / 1e3,
        "cli.build_parser.us": us("cli.build_parser"),
        "svg.polygon_svg.us": us("svg.polygon_svg"),
        "svg.bytes_per_call": sum(svg) / len(svg) if svg else 0.0,
        "trace.op_us": summary["root_ns"] / ops / 1e3,
    }
    for layer, ns in summary["layer_self_ns"].items():
        metrics[f"{layer}.self_us_per_op"] = ns / ops / 1e3
    return metrics


def fuzz_solver_errors(tracer: Tracer) -> list[float]:
    """Relative diameter errors of the solves made inside ``run_fuzz``."""
    return [abs(d - 2.0 * r) / (2.0 * r) for d, r in tracer.observed["fuzz_solves"]]
