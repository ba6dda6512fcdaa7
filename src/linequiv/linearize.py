"""The matrix pair attached to a directed graph.

A graph with e edges and v vertices yields two e-by-v 0/1 matrices: row i of
M marks the source vertex of edge i, row i of N its target.  Elements of the
edge space are row vectors x, mapped to x*M and x*N in the vertex space.
The pair is also readable from a plain text file (see parse_pair_file), in
which case entries may be arbitrary rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .parsing import ParseError
from .relation import BinaryRelation, MultiDigraph

Row = tuple[Fraction, ...]
IntegerRows = tuple[tuple[dict[int, int], dict[int, int]], ...]


def _integer_rows(m: tuple[Row, ...], n: tuple[Row, ...]) -> IntegerRows:
    """The nonzeros of row i of M and of N, both times one positive integer
    that clears their denominators: a left multiplication by an invertible
    diagonal matrix, which changes no rank."""
    out = []
    for m_row, n_row in zip(m, n):
        m_nz = {j: x for j, x in enumerate(m_row) if x}
        n_nz = {j: x for j, x in enumerate(n_row) if x}
        den = lcm(*(x.denominator for x in m_nz.values()),
                  *(x.denominator for x in n_nz.values()))
        out.append(({j: x.numerator * (den // x.denominator) for j, x in m_nz.items()},
                    {j: x.numerator * (den // x.denominator) for j, x in n_nz.items()}))
    return tuple(out)


@dataclass(frozen=True)
class PairMatrices:
    """An ordered pair (M, N) of e-by-v matrices over the rationals, and
    `rows` = `_integer_rows(m, n)`, scanned unless handed in: the oracle's
    working format, which every rank stage reads and none may change."""

    edge_dim: int
    vertex_dim: int
    m: tuple[Row, ...]
    n: tuple[Row, ...]
    rows: IntegerRows = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for mat in (self.m, self.n):
            if len(mat) != self.edge_dim:
                raise ValueError("matrix row count differs from edge dimension")
            for row in mat:
                if len(row) != self.vertex_dim:
                    raise ValueError("matrix column count differs from vertex dimension")
        if self.rows is None:
            object.__setattr__(self, "rows", _integer_rows(self.m, self.n))


def linearize(g: MultiDigraph | BinaryRelation) -> PairMatrices:
    """Build (M, N) for a graph, and its integer rows straight from the edge
    ids; edge order follows the input edge order."""
    ids = sorted(g.ids) if isinstance(g, BinaryRelation) else g.ids
    v = g.vertex_count
    zero, one = Fraction(0), Fraction(1)
    unit = []
    for j in range(v):
        row = [zero] * v
        row[j] = one
        unit.append(tuple(row))
    return PairMatrices(len(ids), v, tuple(unit[s] for s, _ in ids),
                        tuple(unit[t] for _, t in ids), tuple(({s: 1}, {t: 1}) for s, t in ids))


def parse_pair_file(text: str) -> PairMatrices:
    """Read a matrix pair from text: first line ``e v``, then e rows of M and
    e rows of N, entries as integers or ``p/q`` fractions."""
    rows = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((ln, line.split()))
    if not rows:
        raise ParseError("empty matrix file", 1)
    ln0, header = rows[0]
    if len(header) != 2:
        raise ParseError("expected header line: <edges> <vertices>", ln0)
    try:
        e, v = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("non-integer dimensions in header", ln0) from None
    if e < 0 or v < 0:
        raise ParseError("dimensions must be nonnegative", ln0)
    body = rows[1:]
    if v == 0:
        # rows are empty; no row lines expected
        if body:
            raise ParseError("unexpected entries for a 0-column matrix", body[0][0])
        empty = tuple(() for _ in range(e))
        return PairMatrices(e, 0, empty, empty)
    if len(body) != 2 * e:
        got_ln = body[-1][0] if body else ln0
        raise ParseError(f"expected {2 * e} matrix rows, got {len(body)}", got_ln)
    parsed: list[Row] = []
    for ln, fields in body:
        if len(fields) != v:
            raise ParseError(f"expected {v} entries in row, got {len(fields)}", ln)
        try:
            parsed.append(tuple(Fraction(f) for f in fields))
        except (ValueError, ZeroDivisionError):
            raise ParseError("unreadable rational entry", ln) from None
    return PairMatrices(e, v, tuple(parsed[:e]), tuple(parsed[e:]))

