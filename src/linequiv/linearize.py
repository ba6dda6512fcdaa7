"""The matrix pair attached to a directed graph.

A graph with e edges and v vertices yields two e-by-v 0/1 matrices: row i of
M marks the source vertex of edge i, row i of N its target.  Elements of the
edge space are row vectors x, mapped to x*M and x*N in the vertex space.
A pair is held as its integer rows (see PairMatrices), which `linearize`
writes straight from the edge ids; `parse_pair_file` reads rational entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .parsing import ParseError
from .relation import BinaryRelation, MultiDigraph


def integer_row(m_row: dict, n_row: dict) -> tuple[dict[int, int], dict[int, int]]:
    """Rows {column: nonzero rational} of M and of N, both times one positive
    integer that clears their denominators: a left multiplication by an
    invertible diagonal matrix, which changes no rank."""
    den = lcm(*(x.denominator for row in (m_row, n_row) for x in row.values()))
    return tuple({j: x.numerator * (den // x.denominator) for j, x in row.items()}
                 for row in (m_row, n_row))


@dataclass(frozen=True)
class PairMatrices:
    """An ordered pair (M, N) of e-by-v matrices over the rationals, as its
    integer rows: rows[i] = (row i of M, row i of N), each {column: nonzero
    integer}, the two scaled alike.  This is the oracle's working format,
    which every rank stage reads and none may change."""

    edge_dim: int
    vertex_dim: int
    rows: tuple[tuple[dict[int, int], dict[int, int]], ...]

    def __post_init__(self):
        if len(self.rows) != self.edge_dim:
            raise ValueError("matrix row count differs from edge dimension")
        if any(not 0 <= j < self.vertex_dim for pair in self.rows for row in pair for j in row):
            raise ValueError("matrix column index outside the vertex dimension")


def linearize(g: MultiDigraph | BinaryRelation) -> PairMatrices:
    """Build (M, N) for a graph: row i is ({s: 1}, {t: 1}) for edge i =
    (s, t) in vertex ids; edge order follows the input edge order."""
    ids = sorted(g.ids) if isinstance(g, BinaryRelation) else g.ids
    return PairMatrices(len(ids), g.vertex_count, tuple(({s: 1}, {t: 1}) for s, t in ids))


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
        return PairMatrices(e, 0, tuple(({}, {}) for _ in range(e)))
    if len(body) != 2 * e:
        got_ln = body[-1][0] if body else ln0
        raise ParseError(f"expected {2 * e} matrix rows, got {len(body)}", got_ln)
    parsed: list[dict[int, Fraction]] = []
    for ln, fields in body:
        if len(fields) != v:
            raise ParseError(f"expected {v} entries in row, got {len(fields)}", ln)
        try:
            parsed.append({j: x for j, x in enumerate(map(Fraction, fields)) if x})
        except (ValueError, ZeroDivisionError):
            raise ParseError("unreadable rational entry", ln) from None
    return PairMatrices(e, v, tuple(map(integer_row, parsed[:e], parsed[e:])))
