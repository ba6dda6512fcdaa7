"""Spans around the public functions of linequiv's modules, recorded from
outside the package.

Each traced function is replaced, in every linequiv module that holds a
reference to it, by a wrapper that records (name, start, end, parent, op)
plus an optional count taken from the result.  Patching every holder
matters: `gamma_table` is called through the names bound in `contraction`,
`invariants` and `cli`, and a nested call is only seen if all of them are
wrapped.  Spans stay in memory until the caller aggregates them.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, function, what to count from the result, or None)
TARGETS = (
    ("cli", "main", None),
    ("parsing", "parse_graph", None),
    ("relation", "reduce", None),
    ("contraction", "gamma_table", lambda r: r.band_end),
    ("contraction", "stabilize", lambda r: r[2]),
    ("contraction", "classify_stable", None),
    ("invariants", "full_invariants", None),
    ("invariants", "part_one", None),
    ("invariants", "decide_equiv", None),
    ("linearize", "linearize", None),
    ("oracle", "oracle_invariants", None),
    ("oracle", "normal_rank", None),
    ("oracle", "rank_of_rows", None),
    ("oracle", "minimal_indices_left", None),
    ("oracle", "minimal_indices_right", None),
    ("oracle", "invariant_factors", None),
    ("ratpoly", "divmod_poly", None),
)


class Tracer:
    """Install with `with Tracer() as tr:`; set `tr.op` before each op."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            size = getattr(args[0], "vertex_count", 0) if args else 0
            stack.append(idx)
            start = clock()
            counted = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counted = count(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, counted, size)

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if key == "linequiv" or key.startswith("linequiv.")]
        for mod_name, fn_name, count in TARGETS:
            fn = getattr(sys.modules[f"linequiv.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()

    def drain(self) -> list:
        out, self.spans[:] = list(self.spans), []
        return out


def self_times(spans: list) -> list:
    """Per span: duration minus the time its direct children cover.  Spans
    of one thread nest, so the children of a span never overlap."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, *_r) in enumerate(spans)]


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when fewer
    than two distinct sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def aggregate(spans: list) -> dict:
    """Per-pass totals: self time and call count for each traced function,
    the summed counts, and the gamma_table scaling slope."""
    out: dict = {}
    for mod_name, fn_name, _ in TARGETS:
        out[f"{mod_name}.{fn_name}.self_s"] = 0.0
        out[f"{mod_name}.{fn_name}.calls"] = 0
    out["contraction.band_end_sum"] = 0
    out["contraction.stabilize.rounds_sum"] = 0
    gamma_points = []
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, _parent, _op, counted, size = span
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        if name == "contraction.gamma_table":
            out["contraction.band_end_sum"] += counted
            gamma_points.append((size, end - start))
        elif name == "contraction.stabilize":
            out["contraction.stabilize.rounds_sum"] += counted
    out["contraction.gamma_table.slope"] = loglog_slope(gamma_points)
    return dict(out)


def calls_per_op(spans: list, names) -> dict:
    """{op index: {name: calls}} for the given span names."""
    out: dict = defaultdict(lambda: dict.fromkeys(names, 0))
    for name, _s, _e, _p, op, *_ in spans:
        if name in names:
            out[op][name] += 1
    return out
