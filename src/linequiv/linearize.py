"""The matrix pair attached to a directed graph.

A graph with e edges and v vertices yields two e-by-v 0/1 matrices: row i of
M marks the source vertex of edge i, row i of N its target.  Elements of the
edge space are row vectors x, mapped to x*M and x*N in the vertex space.
Each row of such a pair holds one 1 in M and one in N, so row i is edge i's
two ends: `linearize` writes a graph's pair as its edge ids, the pair's
`ends`, and makes no integer rows until something reads them.  A pair of
other entries, as `parse_pair_file` reads it, is held as its integer rows
(see PairMatrices), and has ends only when its rows are unit rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .parsing import ParseError
from .relation import BinaryRelation, MultiDigraph, _set, _Value


def integer_row(m_row: dict, n_row: dict) -> tuple[dict[int, int], dict[int, int]]:
    """Rows {column: nonzero rational} of M and of N, both times one positive
    integer that clears their denominators: a left multiplication by an
    invertible diagonal matrix, which changes no rank."""
    den = lcm(*(x.denominator for row in (m_row, n_row) for x in row.values()))
    return tuple({j: x.numerator * (den // x.denominator) for j, x in row.items()}
                 for row in (m_row, n_row))


def rows_of_ends(ends) -> tuple:
    """The integer rows (m, n) of end pairs (a, b): a 1 at column a of m and
    one at column b of n, none for an end None."""
    return tuple(({} if a is None else {a: 1}, {} if b is None else {b: 1}) for a, b in ends)


def _unit_ends(rows) -> tuple | None:
    """Each row's ends, (the column of m's 1, the column of n's 1) with None
    for an empty side, when every row of M and of N holds at most one
    nonzero entry, a 1; else None.  This is the one test of a pair's form:
    on unit rows every rank the oracle takes is the same over every field."""
    if all(not row or list(row.values()) == [1] for pair in rows for row in pair):
        return tuple((next(iter(m), None), next(iter(n), None)) for m, n in rows)
    return None


class PairMatrices(_Value):
    """An ordered pair (M, N) of e-by-v matrices over the rationals.  `rows`
    holds its integer rows: rows[i] = (row i of M, row i of N), each
    {column: nonzero integer}, the two scaled alike.  `ends` holds, on a
    unit-row pair, where each row of M and of N has at most one nonzero
    entry, a 1, each row's ends: (the column of m's 1, the column of n's 1),
    None for an empty side; on any other pair it is None.

    A pair is built from its rows, which give its ends here, or from its
    ends alone, as `linearize` builds a graph's; then `rows` is made on its
    first read.  This is the oracle's working format, which every rank
    stage reads and none may change."""

    __slots__ = ("edge_dim", "vertex_dim", "rows", "ends")

    def __init__(self, edge_dim: int, vertex_dim: int, rows=None, ends=None):
        if rows is None:
            count, columns = len(ends), set(chain.from_iterable(ends))
            columns.discard(None)
        else:
            count, columns = len(rows), {j for pair in rows for row in pair for j in row}
            ends = _unit_ends(rows)
            _set(self, "rows", rows)
        if count != edge_dim:
            raise ValueError("matrix row count differs from edge dimension")
        if columns and (min(columns) < 0 or max(columns) >= vertex_dim):
            raise ValueError("matrix column index outside the vertex dimension")
        _set(self, "edge_dim", edge_dim)
        _set(self, "vertex_dim", vertex_dim)
        _set(self, "ends", ends)

    def __getattr__(self, name):
        """Only an unset slot reads this: the rows of a pair built from its
        ends, made once."""
        if name != "rows":
            raise AttributeError(name)
        rows = rows_of_ends(self.ends)
        _set(self, "rows", rows)
        return rows


def linearize(g: MultiDigraph | BinaryRelation) -> PairMatrices:
    """Build (M, N) for a graph from its ends: row i is edge i = (s, t) in
    vertex ids, ({s: 1}, {t: 1}); edge order follows the input edge order,
    sorted for a BinaryRelation."""
    ids = sorted(g.ids) if isinstance(g, BinaryRelation) else g.ids
    return PairMatrices(len(ids), g.vertex_count, ends=tuple(ids))


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
