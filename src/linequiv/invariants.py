"""Multiplicity record of the indecomposable summands of a graph's matrix pair.

The five indecomposable families are tracked as:

    zt[n]   -- summands [nilpotent, identity] on K^n            (n >= 1)
    tz[n]   -- summands [identity, nilpotent] on K^n            (n >= 1)
    t[n]    -- summands K^n -> K^(n+1), the shift pair          (n >= 0)
    ztz[n]  -- summands K^(n+1) -> K^n, the co-shift pair       (n >= 0)
    cycles  -- one regular summand S(X^k - 1) per k-cycle of the fully
               contracted relation, stored as the bare cycle length, which
               keeps the record independent of the ground field

The contents of the diagram cells, signed four-corner sums over the
contraction table gamma, produce zt, tz and ztz[n >= 1] (zt, tz and even ztz
each by two dual cells that must agree); `cell_contents` reads them, for the
record and for the `diagram` command.  The stable cycle/path shape gives t
and cycles; the edge-count identity pins ztz[0].
The vertex-count identity must then close, or the input exposed a bug.

Orientation of the zt/tz difference formulas is the one validated by the
exact-linear-algebra oracle: persistence of class counts under repeated
RIGHT contractions signals zt (first-map kernel chains), persistence under
LEFT contractions signals tz.  See tests/test_invariants.py for the two
hand-checked witnesses pinning this.

A record of a matrix pair may carry `regular_divisors` in place of cycles;
only rendering those reads `ratpoly`, which is registered lazily, so a graph
never runs it.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import isqrt
from operator import ne

from . import _lazy_submodule
from .contraction import (FIRST_POINTS, ContractionDiagram, StableShape, classify_stable,
                          gamma_table)
from .relation import BinaryRelation, MultiDigraph, _set, _Value, reduce as reduce_graph

_ratpoly = _lazy_submodule("ratpoly")

MultMap = dict[int, int]

# regular part of a non-graph pair: ((ratpoly.Poly coefficients, exponent), ...)
RegularDivisors = tuple[tuple[tuple, int], ...]


def _clean(mult: MultMap | None, low: int) -> MultMap:
    out = {}
    if not mult:
        return out
    for n, c in sorted(mult.items()):
        if n < low:
            raise ValueError(f"multiplicity index {n} below {low}")
        if c < 0:
            raise AssertionError(f"negative multiplicity: {c} at index {n}")
        if c:
            out[n] = c
    return out


class InvariantRecord(_Value):
    """Sparse multiplicity record; zero entries are never stored."""

    __slots__ = ("zt", "tz", "t", "ztz", "cycles", "regular_divisors")
    zt: MultMap
    tz: MultMap
    t: MultMap
    ztz: MultMap
    cycles: tuple[int, ...]
    regular_divisors: RegularDivisors | None

    def __init__(self, zt: MultMap | None = None, tz: MultMap | None = None,
                 t: MultMap | None = None, ztz: MultMap | None = None,
                 cycles: tuple[int, ...] = (), regular_divisors: RegularDivisors | None = None):
        _set(self, "zt", _clean(zt, 1))
        _set(self, "tz", _clean(tz, 1))
        _set(self, "t", _clean(t, 0))
        _set(self, "ztz", _clean(ztz, 0))
        _set(self, "cycles", tuple(sorted(cycles)))
        if regular_divisors is not None:
            if self.cycles:
                raise ValueError("record cannot carry both cycles and raw divisors")
            regular_divisors = tuple(sorted((tuple(p), int(e)) for p, e in regular_divisors))
        _set(self, "regular_divisors", regular_divisors)

    def dimensions(self) -> tuple[int, int]:
        """(edges, vertices) that the summands account for, the one statement
        of their sizes: zt[n], tz[n] and a regular summand of degree n are
        n x n, t[n] is n x (n + 1), and ztz[n] is (n + 1) x n."""
        if self.regular_divisors is not None:
            size = sum((len(p) - 1) * e for p, e in self.regular_divisors)
        else:
            size = sum(self.cycles)
        size += sum(n * c for mult in (self.zt, self.tz, self.t, self.ztz)
                    for n, c in mult.items())
        return size + sum(self.ztz.values()), size + sum(self.t.values())

    def check_dimensions(self, edges: int, vertices: int) -> None:
        """The edge and vertex identities: the summands must account for
        exactly `edges` edges and `vertices` vertices, or a step upstream
        is wrong."""
        e, v = self.dimensions()
        if (e, v) != (edges, vertices):
            raise AssertionError(
                f"edge and vertex identities fail: record accounts for "
                f"{e}x{v}, pair is {edges}x{vertices}")

    def describe(self) -> str:
        """One-line rendering, e.g. ``ztz[1]=1 tz[1]=1 cycles=[1]``."""
        parts = []
        for name, m in (("ztz", self.ztz), ("zt", self.zt), ("tz", self.tz), ("t", self.t)):
            parts += [f"{name}[{n}]={c}" for n, c in sorted(m.items())]
        if self.regular_divisors is not None:
            parts += [f"S(({_ratpoly.poly_str(p)})^{e})" for p, e in self.regular_divisors]
        else:
            parts.append("cycles=[" + ",".join(str(n) for n in self.cycles) + "]")
        return " ".join(parts)


def cyclotomic_refine(cycles) -> tuple[tuple[int, int], ...]:
    """The regular summands split over the rationals, as (d, multiplicity)
    pairs in increasing d: each cycle length n contributes one Phi_d for
    every divisor d of n, so d's multiplicity is the number of cycle lengths
    it divides.  Each distinct length is factored once, its divisors paired
    up to sqrt(n)."""
    counts: Counter[int] = Counter()
    for n, mult in Counter(cycles).items():
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                counts[d] += mult
                if d * d != n:
                    counts[n // d] += mult
    return tuple(sorted(counts.items()))


# -- the diagram cells ---------------------------------------------------------

# The seven cells with index k: name for str.format(k), multiplicity family,
# family index i*k + j as (i, j), and the four corners (m - k, n - k) whose
# gamma values make the content: the first two added, the last two
# subtracted.  A, B and B' are unit squares, the C and D cells
# parallelograms.  B and B' both count ztz[2k], C and C' tz[k], D and D' zt[k].
_CELLS = (
    ("A{}", "ztz", (2, -1), ((-1, -1), (0, 0), (-1, 0), (0, -1))),
    ("B{}", "ztz", (2, 0), ((0, -1), (1, 0), (0, 0), (1, -1))),
    ("B{}'", "ztz", (2, 0), ((-1, 0), (0, 1), (-1, 1), (0, 0))),
    ("C{}", "tz", (1, 0), ((-1, 1), (0, -1), (-1, 0), (0, 0))),
    ("C{}'", "tz", (1, 0), ((0, 1), (1, -1), (0, 0), (1, 0))),
    ("D{}", "zt", (1, 0), ((-1, 1), (1, 0), (0, 0), (0, 1))),
    ("D{}'", "zt", (1, 0), ((1, -1), (-1, 0), (0, 0), (0, -1))),
)
# each corner as a slice of the diagonals padded to horizon + 3: diagonal
# m - n + 2, from min(m, n) - k + 1; the slice of length horizon + 1 there
# reads k = 1 ..
_SLICES = tuple(tuple((dm - dn + 2, 1 + min(dm, dn)) for dm, dn in corners)
                for *_, corners in _CELLS)


def cell_contents(d: ContractionDiagram) -> list[tuple[int, ...]]:
    """The contents of the seven cells, in the order of _CELLS, for each
    k = 1 .. horizon + 1, read as slices of the padded diagonals.

    Every corner of a cell with a larger index has min(m, n) > horizon, so
    such a cell reads only stable values and its content vanishes.
    """
    count, stable = d.horizon + 1, d.stable_value
    padded = [diagonal[:count + 2] + (stable,) * (count + 2 - len(diagonal))
              for diagonal in d.diagonals]
    return list(zip(*([a + a2 - b - b2 for a, a2, b, b2 in
                       zip(*[padded[o][start:start + count] for o, start in cell])]
                      for cell in _SLICES)))


# -- the three computation stages -------------------------------------------


def _dual(label: str, n: int, form_a: int, form_b: int) -> int:
    if form_a != form_b:
        raise AssertionError(f"dual forms disagree: {label}[{n}]: {form_a} != {form_b}")
    if form_a < 0:
        raise AssertionError(f"negative multiplicity: {label}[{n}] = {form_a}")
    return form_a


def part_one(d: ContractionDiagram) -> tuple[MultMap, MultMap, MultMap]:
    """zt, tz, and ztz for indices >= 1: the cell contents, each dual pair
    checked to agree."""
    zt, tz, ztz = {}, {}, {}
    for k, (a, b, b2, c, c2, dk, dk2) in enumerate(cell_contents(d), 1):
        if a < 0:
            raise AssertionError(f"negative multiplicity: ztz[{2 * k - 1}] = {a}")
        ztz[2 * k - 1], ztz[2 * k] = a, _dual("ztz", 2 * k, b, b2)
        tz[k], zt[k] = _dual("tz", k, c2, c), _dual("zt", k, dk, dk2)
    return tuple({n: v for n, v in mult.items() if v} for mult in (zt, tz, ztz))


def part_two(shape: StableShape) -> tuple[MultMap, tuple[int, ...]]:
    """A path component on N vertices contributes one t[N - 1]; each cycle
    length becomes one regular summand."""
    t = dict(sorted(Counter(n - 1 for n in shape.paths).items()))
    return t, shape.cycles


def part_three_zt00(edge_count: int, partial: InvariantRecord) -> int:
    """Solve the edge-count identity for the one multiplicity the difference
    formulas cannot see (the one-edge, zero-vertex summand)."""
    if 0 in partial.ztz:
        raise ValueError("partial record already has a ztz[0] entry")
    value = edge_count - partial.dimensions()[0]
    if value < 0:
        raise AssertionError(f"negative multiplicity: ztz[0] = {value}")
    return value


class GraphAnalysis(_Value):
    """A graph run once through the contraction pipeline: its edge count
    (parallel edges included), its gamma diagram, which also carries the
    stable relation and depth, its stable cycle/path shape, and its record."""

    __slots__ = ("edge_count", "diagram", "shape", "record")

    def __init__(self, edge_count: int, diagram: ContractionDiagram, shape: StableShape,
                 record: InvariantRecord):
        _set(self, "edge_count", edge_count)
        _set(self, "diagram", diagram)
        _set(self, "shape", shape)
        _set(self, "record", record)


def analyze_graph(g: MultiDigraph | BinaryRelation) -> GraphAnalysis:
    """Reduce, tabulate gamma, classify the stable relation, evaluate the
    three stages, then verify both counting identities; each step runs once."""
    if isinstance(g, BinaryRelation):
        relation, split = g, 0
    else:
        summary = reduce_graph(g)
        relation, split = summary.reduced, summary.split_count
    diagram = gamma_table(relation)
    shape = classify_stable(diagram.stable)
    zt, tz, ztz = part_one(diagram)
    t, cycles = part_two(shape)
    partial = InvariantRecord(zt, tz, t, ztz, cycles)
    ztz0 = part_three_zt00(relation.edge_count, partial)
    if ztz0 + split:
        ztz[0] = ztz0 + split
    rec = InvariantRecord(zt, tz, t, ztz, cycles)
    rec.check_dimensions(g.edge_count, g.vertex_count)
    return GraphAnalysis(g.edge_count, diagram, shape, rec)


def full_invariants(g: MultiDigraph | BinaryRelation) -> InvariantRecord:
    """Complete multiplicity record of a graph, by the contraction pipeline."""
    return analyze_graph(g).record


# -- equivalence ----------------------------------------------------------------


class EquivVerdict(_Value):
    __slots__ = ("equivalent", "reason")

    def __init__(self, equivalent: bool, reason: str | None = None):
        _set(self, "equivalent", equivalent)
        _set(self, "reason", reason)

    def __str__(self) -> str:
        return "equivalent" if self.equivalent else f"distinguished-by: {self.reason}"


def _first_gamma_difference(da: ContractionDiagram, db: ContractionDiagram) -> str | None:
    """The first suitable point, scanning antidiagonals m + n = 0, 1, ...
    each in increasing m, where the two gamma functions differ, or None
    where they agree everywhere.  Along a diagonal m + n and m both grow,
    so it is the least by (m + n, m) of the first difference on each
    diagonal, padded one past the longer with stable values: beyond that
    both diagonals hold their stable values, which the padding compares."""
    found = []
    for (m, n), a, b in zip(FIRST_POINTS, da.diagonals, db.diagonals):
        end = max(len(a), len(b)) + 1
        a += (da.stable_value,) * (end - len(a))
        b += (db.stable_value,) * (end - len(b))
        i = next(compress(range(end), map(ne, a, b)), None)
        if i is not None:
            found.append((m + n + 2 * i, m + i, n + i, a[i], b[i]))
    if not found:
        return None
    _, m, n, a, b = min(found)
    return f"gamma[{m},{n}]: {a} != {b}"


def decide_equiv(a: MultiDigraph | BinaryRelation,
                 b: MultiDigraph | BinaryRelation) -> EquivVerdict:
    """Two graphs have the same pair invariants iff their gamma tables, their
    stable cycle/path shapes, and their edge counts all agree."""
    xa, xb = analyze_graph(a), analyze_graph(b)
    shape_a, shape_b = xa.shape, xb.shape
    difference = _first_gamma_difference(xa.diagram, xb.diagram)
    if difference is not None:
        verdict = EquivVerdict(False, difference)
    elif shape_a != shape_b:
        verdict = EquivVerdict(False,
                               f"stable shape: cycles {list(shape_a.cycles)} paths "
                               f"{list(shape_a.paths)} != cycles {list(shape_b.cycles)} "
                               f"paths {list(shape_b.paths)}")
    elif xa.edge_count != xb.edge_count:
        verdict = EquivVerdict(False, f"edge count: {xa.edge_count} != {xb.edge_count}")
    else:
        verdict = EquivVerdict(True)
    if (xa.record == xb.record) != verdict.equivalent:
        raise AssertionError("primitive invariants and records disagree")
    return verdict


# -- JSON shapes --------------------------------------------------------------


def record_to_json(rec: InvariantRecord, edge_count: int, vertex_count: int) -> dict:
    edges, vertices = rec.dimensions()
    out = {
        "zt": {str(n): c for n, c in rec.zt.items()},
        "tz": {str(n): c for n, c in rec.tz.items()},
        "t": {str(n): c for n, c in rec.t.items()},
        "ztz": {str(n): c for n, c in rec.ztz.items()},
        "cycles": list(rec.cycles),
        "edge_check": edges == edge_count,
        "vertex_check": vertices == vertex_count,
    }
    if rec.regular_divisors is not None:
        out["regular_divisors"] = [
            {"poly": _ratpoly.poly_str(p), "exponent": e} for p, e in rec.regular_divisors]
    else:
        out["cyclotomic"] = [
            {"d": d, "multiplicity": m}
            for d, m in cyclotomic_refine(rec.cycles)]
    return out
