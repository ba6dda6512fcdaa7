"""Multiplicity record of the indecomposable summands of a graph's matrix pair.

The five indecomposable families are tracked as:

    zt[n]   -- summands [nilpotent, identity] on K^n            (n >= 1)
    tz[n]   -- summands [identity, nilpotent] on K^n            (n >= 1)
    t[n]    -- summands K^n -> K^(n+1), the shift pair          (n >= 0)
    ztz[n]  -- summands K^(n+1) -> K^n, the co-shift pair       (n >= 0)
    cycles  -- one regular summand S(X^k - 1) per k-cycle of the fully
               contracted relation, stored as the bare cycle length, which
               keeps the record independent of the ground field

The diagram cells, signed four-corner sums over the contraction table gamma,
produce zt, tz and ztz[n >= 1] (zt, tz and even ztz each by two dual cells
that must agree); the stable cycle/path shape gives t and cycles; the
edge-count identity pins ztz[0].
The vertex-count identity must then close, or the input exposed a bug.

Orientation of the zt/tz difference formulas is the one validated by the
exact-linear-algebra oracle: persistence of class counts under repeated
RIGHT contractions signals zt (first-map kernel chains), persistence under
LEFT contractions signals tz.  See tests/test_invariants.py for the two
hand-checked witnesses pinning this.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from math import isqrt
from operator import ne

from .contraction import (FIRST_POINTS, ContractionDiagram, StableShape, classify_stable,
                          gamma_table)
from .ratpoly import Poly, poly_str, totient
from .relation import BinaryRelation, MultiDigraph, reduce as reduce_graph


class DualFormMismatch(RuntimeError):
    """The two redundant difference forms disagreed; an upstream bug."""


class NegativeMultiplicity(RuntimeError):
    """A computed multiplicity went negative; an upstream bug."""


class ConsistencyError(RuntimeError):
    """Edge/vertex bookkeeping failed to close; an upstream bug."""


MultMap = dict[int, int]

# regular part of a non-graph pair: ((poly coefficients, exponent), ...)
RegularDivisors = tuple[tuple[Poly, int], ...]


def _clean(mult: MultMap, low: int) -> MultMap:
    out = {}
    for n, c in sorted(mult.items()):
        if n < low:
            raise ValueError(f"multiplicity index {n} below {low}")
        if c < 0:
            raise NegativeMultiplicity(f"multiplicity {c} at index {n}")
        if c:
            out[n] = c
    return out


@dataclass(frozen=True, eq=True)
class InvariantRecord:
    """Sparse multiplicity record; zero entries are never stored."""

    zt: MultMap = field(default_factory=dict)
    tz: MultMap = field(default_factory=dict)
    t: MultMap = field(default_factory=dict)
    ztz: MultMap = field(default_factory=dict)
    cycles: tuple[int, ...] = ()
    regular_divisors: RegularDivisors | None = None

    def __post_init__(self):
        object.__setattr__(self, "zt", _clean(self.zt, 1))
        object.__setattr__(self, "tz", _clean(self.tz, 1))
        object.__setattr__(self, "t", _clean(self.t, 0))
        object.__setattr__(self, "ztz", _clean(self.ztz, 0))
        object.__setattr__(self, "cycles", tuple(sorted(self.cycles)))
        if self.regular_divisors is not None:
            if self.cycles:
                raise ValueError("record cannot carry both cycles and raw divisors")
            canon = tuple(sorted((tuple(p), int(e)) for p, e in self.regular_divisors))
            object.__setattr__(self, "regular_divisors", canon)

    def _regular_edge_total(self) -> int:
        if self.regular_divisors is not None:
            return sum((len(p) - 1) * e for p, e in self.regular_divisors)
        return sum(self.cycles)

    def edge_total(self) -> int:
        return (sum(n * c for n, c in self.zt.items())
                + sum(n * c for n, c in self.tz.items())
                + sum(n * c for n, c in self.t.items())
                + sum((n + 1) * c for n, c in self.ztz.items())
                + self._regular_edge_total())

    def vertex_total(self) -> int:
        return (sum(n * c for n, c in self.zt.items())
                + sum(n * c for n, c in self.tz.items())
                + sum((n + 1) * c for n, c in self.t.items())
                + sum(n * c for n, c in self.ztz.items())
                + self._regular_edge_total())

    def swapped(self) -> "InvariantRecord":
        """zt and tz exchanged; what taking the converse graph does."""
        return InvariantRecord(dict(self.tz), dict(self.zt), dict(self.t),
                               dict(self.ztz), self.cycles, self.regular_divisors)

    def summand_count(self) -> int:
        maps = (self.zt, self.tz, self.t, self.ztz)
        regular = (len(self.cycles) if self.regular_divisors is None
                   else len(self.regular_divisors))
        return sum(sum(m.values()) for m in maps) + regular

    def describe(self) -> str:
        """One-line rendering, e.g. ``ztz[1]=1 tz[1]=1 cycles=[1]``."""
        parts = []
        for name, m in (("ztz", self.ztz), ("zt", self.zt), ("tz", self.tz), ("t", self.t)):
            parts += [f"{name}[{n}]={c}" for n, c in sorted(m.items())]
        if self.regular_divisors is not None:
            parts += [f"S(({poly_str(p)})^{e})" for p, e in self.regular_divisors]
        else:
            parts.append("cycles=[" + ",".join(str(n) for n in self.cycles) + "]")
        return " ".join(parts)


@dataclass(frozen=True)
class RationalRegularPart:
    """Regular summands split over the rationals: multiplicity of each
    cyclotomic index d is the number of cycle lengths it divides."""

    divisors: tuple[tuple[int, int], ...]

    def degree(self) -> int:
        return sum(totient(d) * mult for d, mult in self.divisors)


def cyclotomic_refine(cycles) -> RationalRegularPart:
    """Each cycle length n contributes one Phi_d for every divisor d of n;
    each distinct length is factored once, its divisors paired up to
    sqrt(n)."""
    counts: Counter[int] = Counter()
    for n, mult in Counter(cycles).items():
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                counts[d] += mult
                if d * d != n:
                    counts[n // d] += mult
    return RationalRegularPart(tuple(sorted(counts.items())))


# -- the diagram cells ---------------------------------------------------------

# The seven cells with index k: name for str.format(k), multiplicity family,
# family index i*k + j as (i, j), and each corner as (role, m - k, n - k).
# Squares have roles a, b, c, d and parallelograms a, a2, b, b2; _SIGN gives
# each role's sign in the cell's content.  B and B' both count ztz[2k], C and
# C' tz[k], D and D' zt[k].
_CELLS = (
    ("A{}", "ztz", (2, -1), (("a", -1, -1), ("b", -1, 0), ("c", 0, 0), ("d", 0, -1))),
    ("B{}", "ztz", (2, 0), (("a", 0, -1), ("b", 0, 0), ("c", 1, 0), ("d", 1, -1))),
    ("B{}'", "ztz", (2, 0), (("a", -1, 0), ("b", -1, 1), ("c", 0, 1), ("d", 0, 0))),
    ("C{}", "tz", (1, 0), (("a", -1, 1), ("a2", 0, -1), ("b", -1, 0), ("b2", 0, 0))),
    ("C{}'", "tz", (1, 0), (("a", 0, 1), ("a2", 1, -1), ("b", 0, 0), ("b2", 1, 0))),
    ("D{}", "zt", (1, 0), (("a", -1, 1), ("a2", 1, 0), ("b", 0, 0), ("b2", 0, 1))),
    ("D{}'", "zt", (1, 0), (("a", 1, -1), ("a2", -1, 0), ("b", 0, 0), ("b2", 0, -1))),
)
_SIGN = {"a": 1, "a2": 1, "c": 1, "b": -1, "b2": -1, "d": -1}
# the same cells as slices of the diagonals padded to horizon + 3: each
# corner as (diagonal m - n + 2, start min(m, n) - k + 1), the two with sign
# + first; the slice of length horizon + 1 from there reads k = 1 ..
_SLICES = tuple(tuple((dm - dn + 2, 1 + min(dm, dn))
                      for _, dm, dn in sorted(corners, key=lambda c: -_SIGN[c[0]]))
                for *_, corners in _CELLS)


def diagram_cells(k: int) -> list[tuple[str, str, int, dict[str, tuple[int, int]]]]:
    """The standard annotated cells with index k: name, multiplicity family,
    family index, and corner roles."""
    return [(name.format(k), family, i * k + j,
             {role: (k + dm, k + dn) for role, dm, dn in corners})
            for name, family, (i, j), corners in _CELLS]


def gamma_content(d: ContractionDiagram, cell: dict[str, tuple[int, int]]) -> int:
    """Signed four-corner sum over a diagram cell.

    Squares use roles a, b, c, d (content gamma_a - gamma_b - gamma_d +
    gamma_c); parallelograms use a, a2, b, b2 (gamma_a + gamma_a2 - gamma_b
    - gamma_b2).  Every corner must be a suitable lattice point.
    """
    if set(cell) not in ({"a", "b", "c", "d"}, {"a", "a2", "b", "b2"}):
        raise ValueError(f"unrecognized cell roles {sorted(cell)}")
    return sum(_SIGN[role] * d.value(*corner) for role, corner in cell.items())


# -- the three computation stages -------------------------------------------


def _dual(label: str, n: int, form_a: int, form_b: int) -> int:
    if form_a != form_b:
        raise DualFormMismatch(f"{label}[{n}]: {form_a} != {form_b}")
    if form_a < 0:
        raise NegativeMultiplicity(f"{label}[{n}] = {form_a}")
    return form_a


def part_one(d: ContractionDiagram) -> tuple[MultMap, MultMap, MultMap]:
    """zt, tz, and ztz for indices >= 1: the contents of the diagram cells
    with index k = 1 .. horizon + 1, each dual pair checked to agree.

    Every corner of a cell with a larger index has min(m, n) > horizon, so
    such a cell reads only stable values and its content vanishes.
    """
    count, stable = d.horizon + 1, d.stable_value
    padded = [diagonal[:count + 2] + (stable,) * (count + 2 - len(diagonal))
              for diagonal in d.diagonals]
    contents = ([a + a2 - b - b2 for a, a2, b, b2 in
                 zip(*[padded[o][start:start + count] for o, start in cell])]
                for cell in _SLICES)
    zt, tz, ztz = {}, {}, {}
    for k, a, b, b2, c, c2, dk, dk2 in zip(range(1, count + 1), *contents):
        if a < 0:
            raise NegativeMultiplicity(f"ztz[{2 * k - 1}] = {a}")
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
    rest = partial.edge_total()
    value = edge_count - rest
    if value < 0:
        raise NegativeMultiplicity(f"ztz[0] = {value}")
    return value


def edge_check(edge_count: int, rec: InvariantRecord) -> bool:
    return rec.edge_total() == edge_count


def vertex_check(vertex_count: int, rec: InvariantRecord) -> bool:
    return rec.vertex_total() == vertex_count


@dataclass(frozen=True)
class GraphAnalysis:
    """A graph run once through the contraction pipeline: its edge count
    (parallel edges included), its gamma diagram, which also carries the
    stable relation and depth, its stable cycle/path shape, and its record."""

    edge_count: int
    diagram: ContractionDiagram
    shape: StableShape
    record: InvariantRecord


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
    if not edge_check(g.edge_count, rec):
        raise ConsistencyError(f"edge identity failed: {rec.edge_total()} != {g.edge_count}")
    if not vertex_check(relation.vertex_count, rec):
        raise ConsistencyError(
            f"vertex identity failed: {rec.vertex_total()} != {relation.vertex_count}")
    return GraphAnalysis(g.edge_count, diagram, shape, rec)


def full_invariants(g: MultiDigraph | BinaryRelation) -> InvariantRecord:
    """Complete multiplicity record of a graph, by the contraction pipeline."""
    return analyze_graph(g).record


# -- equivalence ----------------------------------------------------------------


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    reason: str | None = None

    def __str__(self) -> str:
        return "equivalent" if self.equivalent else f"distinguished-by: {self.reason}"


def _first_gamma_difference(da: ContractionDiagram, db: ContractionDiagram) -> str:
    """The first suitable point, scanning antidiagonals m + n = 0, 1, ...
    each in increasing m, where the two gamma functions differ.  Along a
    diagonal m + n and m both grow, so it is the least by (m + n, m) of the
    first difference on each diagonal, padded one past the longer with
    stable values."""
    found = []
    for (m, n), a, b in zip(FIRST_POINTS, da.diagonals, db.diagonals):
        end = max(len(a), len(b)) + 1
        a += (da.stable_value,) * (end - len(a))
        b += (db.stable_value,) * (end - len(b))
        i = next(compress(range(end), map(ne, a, b)), None)
        if i is not None:
            found.append((m + n + 2 * i, m + i, n + i, a[i], b[i]))
    if not found:
        raise AssertionError("gamma signatures differ but no differing point found")
    _, m, n, a, b = min(found)
    return f"gamma[{m},{n}]: {a} != {b}"


def decide_equiv(a: MultiDigraph | BinaryRelation,
                 b: MultiDigraph | BinaryRelation) -> EquivVerdict:
    """Two graphs have the same pair invariants iff their gamma tables, their
    stable cycle/path shapes, and their edge counts all agree."""
    xa, xb = analyze_graph(a), analyze_graph(b)
    da, db = xa.diagram, xb.diagram
    shape_a, shape_b = xa.shape, xb.shape
    if da.signature() != db.signature():
        verdict = EquivVerdict(False, _first_gamma_difference(da, db))
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
        raise ConsistencyError("primitive invariants and records disagree")
    return verdict


# -- JSON shapes --------------------------------------------------------------


def record_to_json(rec: InvariantRecord, edge_count: int, vertex_count: int) -> dict:
    out = {
        "zt": {str(n): c for n, c in rec.zt.items()},
        "tz": {str(n): c for n, c in rec.tz.items()},
        "t": {str(n): c for n, c in rec.t.items()},
        "ztz": {str(n): c for n, c in rec.ztz.items()},
        "cycles": list(rec.cycles),
        "edge_check": edge_check(edge_count, rec),
        "vertex_check": vertex_check(vertex_count, rec),
    }
    if rec.regular_divisors is not None:
        out["regular_divisors"] = [
            {"poly": poly_str(p), "exponent": e} for p, e in rec.regular_divisors]
    else:
        out["cyclotomic"] = [
            {"d": d, "multiplicity": m}
            for d, m in cyclotomic_refine(rec.cycles).divisors]
    return out
