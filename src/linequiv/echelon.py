"""Exact ranks of sparse integer rows, over the rationals or modulo a prime,
and the ranks of a pair's block sequences T_1, T_2, ... from two kernels
with one contract: `forest_ranks` over F_2, on rows with at most two 1s,
and `echelon_ranks` over Q.

A row is a dict column -> nonzero entry.  One elimination serves both
fields.  Over Q it is fraction-free: row = a*row - b*pivot, then division
by the gcd of the entries, so every entry stays an integer.  Modulo p the
pivots are monic and reduced, so a = 1 and a step is row = row - b*pivot
with b reduced; the other entries of a row are reduced only when it
becomes a pivot, and stay small meanwhile, since each step adds less than
p^2 to them.

Over F_2 a matrix with at most two 1s per row represents a graphic
matroid: its columns are nodes, a node 0, the ground, stands for the
missing end of a row with one 1, and a row is an edge between its ends
(Oxley, *Matroid Theory*, 2nd ed., ch. 5).  So its rank is the number of
rows that join two trees of a forest, which a union-find counts (Tarjan,
JACM 22, 1975): `forest_rows` and `forest_ranks` read each row as its
two ends, a column or None, and no elimination runs.  The same ends give
M + 2N and M - N over Q, whose rows x_a + c*x_b are the frame matroid of
a gain graph (Zaslavsky, JCTB 51, 1991): `winding_rank` counts the rank
of both with one union-find on the same nodes and ground, which keeps
each node's winding to its parent.  The ends are a pair's own, as
`PairMatrices.ends` holds them, and each kernel does its finds, with
path halving, and its joins inline in its row loop, with no call per row
(Tarjan and van Leeuwen, JACM 31, 1984).  `forest_ranks` and
`winding_rank` read whether a tree holds the ground, so there the lower
root of a join stays a root, and the ground is always one.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import lru_cache
from math import gcd, isqrt

SparseRow = dict[int, int]


class Echelon:
    """Integer rows in echelon form, one pivot row per leading column, grown
    a row at a time; `rank` is the rank of every row added so far, over Q
    for modulus 0 and over F_p for a prime modulus p."""

    __slots__ = ("pivots", "modulus")

    def __init__(self, modulus: int = 0):
        self.pivots: dict[int, SparseRow] = {}
        self.modulus = modulus

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: SparseRow) -> bool:
        """Reduce a row of nonzero integers, which this takes over, against
        the pivots by row = a*row - b*pivot; a row that stays nonzero
        becomes a pivot, and then this returns True.  Over Q each step
        divides the row by the gcd of its entries.  Modulo p a pivot is made
        monic and reduced, so a = 1, b is reduced, and a leading entry that
        vanishes mod p is dropped."""
        pivots, p = self.pivots, self.modulus
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if p:
                b = row.pop(col) % p
                if not b:
                    continue
                if pivot is None:
                    inv = pow(b, -1, p)
                    row = {j: x * inv % p for j, x in row.items() if x % p}
                    row[col] = 1
                    pivots[col] = row
                    return True
            else:
                if pivot is None:
                    pivots[col] = row
                    return True
                a, b = pivot[col], row.pop(col)
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    row = {j: a * x for j, x in row.items()}
            for j, x in pivot.items():
                if j != col:
                    new = row.get(j, 0) - b * x
                    if new:
                        row[j] = new
                    else:
                        del row[j]
            if not p:
                content = gcd(*row.values())
                if content > 1:
                    row = {j: x // content for j, x in row.items()}
        return False


def forest_rows(ends, width: int) -> list[int]:
    """The indices of the rows independent over F_2 of the rows before them,
    the rows that join two trees, where row i, for ends[i] = (a, b), has a 1
    at column a of column block 0 and one at column b of block 1 (none for
    an end None), in blocks `width` wide: T_1 = [M N] on a pair's ends."""
    parent, shift, out = list(range(1 + 2 * width)), 1 + width, []
    for i, (a, b) in enumerate(ends):
        x = 0 if a is None else 1 + a
        y = 0 if b is None else shift + b
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y
            out.append(i)
    return out


def forest_ranks(pairs, width: int, truncated: bool = False,
                 grounded: bool = False) -> Iterator[int]:
    """rank T_1, T_2, ... over F_2, yielded in turn, where row block j < k
    of T_k holds a row per pair (x, y): x at column block j and y at column
    block j + 1, in blocks `width` wide.  T_k has column blocks 0..k, or
    0..k-1 when `truncated`, which leaves y out of row block k - 1; a
    truncated sequence that is `grounded` has a row block j = -1 as well,
    which keeps only its y.  Here x and y are ends: the column of a 1, or
    None for no 1.  `echelon_ranks` reads the same contract over Q.

    Column c of block j is node 1 + j*width + c; rank T_k counts the rows
    that join two trees.  Untruncated, T_k only gains rows as k grows.
    Truncated, block k is ground for this k only: the rows at j = k - 1
    ground their ends in block k - 1 (the trees those touch, apart from the
    ground's, count once each), until at k + 1 they join them to block k,
    or to the ground for an end None."""
    parent, joins = [0], 0
    for top in itertools.count(0 if truncated else 1):
        parent.extend(range(len(parent), 1 + (top + 1) * width))
        at = 1 + top * width
        if top or grounded:
            below = 1 + (top - 1) * width
            for a, b in pairs:
                x = 0 if a is None or not top else below + a
                y = 0 if b is None else at + b
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    joins += 1
                    if x < y:  # the lower root stays a root, so the ground is one
                        parent[y] = x
                    else:
                        parent[x] = y
        if truncated:
            roots = set()
            for a, _ in pairs:
                if a is not None:
                    x = at + a
                    while parent[x] != x:
                        parent[x] = x = parent[parent[x]]
                    roots.add(x)
            roots.discard(0)
            yield joins + len(roots)
        else:
            yield joins


def winding_rank(ends, width: int, c: int) -> int:
    """The rank over Q of the rows x_a + c*x_b, one per end pair (a, b) in
    `width` columns, with no term for an end None, for c = 2 or -1: M + 2N
    or M - N on a unit-row pair's ends.  These rows are the frame matroid
    of the gain graph with an edge a -> b of gain -c (Zaslavsky, "Biased
    graphs. II", JCTB 51, 1991), so no elimination runs.  As in
    `forest_rows`, column j is node 1 + j and an end None is node 0, the
    ground.  A tree of the union-find has rank its size less one until it
    is grounded, then the number of its column nodes, so a row that joins
    two trees adds 1.  A cycle of nonzero net winding w in a tree that is
    not grounded adds 1 and grounds it, for c = 2 only: its rows are
    dependent only if (-c)^w = 1, which holds for every w at c = -1, where
    M - N is a signed incidence matrix.  Each node keeps its winding to its
    parent, so with p(x) the winding of x to its root, an edge a -> b
    closes a cycle of winding p(a) + 1 - p(b); a loop a = b closes one of
    winding 1.  Halving a path sums each skipped winding into the node
    that skips it."""
    parent, wind = list(range(1 + width)), [0] * (1 + width)
    rank = 0
    for a, b in ends:
        x, px = (0 if a is None else 1 + a), 0
        while parent[x] != x:
            up = parent[x]
            wind[x] += wind[up]  # a root's winding is 0
            px += wind[x]
            parent[x] = x = parent[up]
        y, py = (0 if b is None else 1 + b), 0
        while parent[y] != y:
            up = parent[y]
            wind[y] += wind[up]
            py += wind[y]
            parent[y] = y = parent[up]
        if x != y:
            rank += 1
            if x < y:  # the lower root stays a root, so the ground is one
                parent[y], wind[y] = x, px + 1 - py
            else:
                parent[x], wind[x] = y, py - 1 - px
        elif x and c == 2 and px + 1 != py:
            rank += 1
            parent[x] = 0
    return rank


def echelon_ranks(pairs, width: int, truncated: bool = False,
                  grounded: bool = False) -> Iterator[int]:
    """`forest_ranks` over Q, where x and y are sparse integer rows, from
    one elimination.  Untruncated, T_k is T_(k-1) plus row block k - 1.
    Truncated it is not, since row block k - 1 gains its y at k + 1, so the
    elimination reads the transpose, which only gains rows as k grows: its
    row block c < k holds a row per column l, with column l of the x rows
    at column block c and column l of the y rows at block c - 1 (c + 1 and
    c when `grounded`), in blocks len(pairs) wide."""
    x_at, y_at = 0, 1
    if truncated:
        columns = [({}, {}) for _ in range(width)]
        for i, pair in enumerate(pairs):
            for side, row in enumerate(pair):
                for c, a in row.items():
                    columns[c][side][i] = a
        pairs, width = columns, len(pairs)
        x_at, y_at = (1, 0) if grounded else (0, -1)
    echelon = Echelon()
    for j in itertools.count():
        for x, y in pairs:
            row = {(j + x_at) * width + c: a for c, a in x.items()}
            if j + y_at >= 0:
                row.update({(j + y_at) * width + c: b for c, b in y.items()})
            if row:
                echelon.add(row)
        yield echelon.rank


def rank_of_rows(rows, modulus: int = 0) -> int:
    """Exact rank of sparse integer rows (dicts column -> int), over Q or,
    for a prime modulus, over F_p: a copy of each row without its zeros
    goes to one `Echelon`, so the rows passed in stay as they are."""
    echelon = Echelon(modulus)
    for row in rows:
        echelon.add({j: x for j, x in row.items() if x})
    return echelon.rank


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


@lru_cache(maxsize=None)
def prime_and_root(d: int) -> tuple[int, int]:
    """The least prime p = 1 (mod d) above 2^20, and a primitive d-th root
    of unity in F_p, which exists since d divides p - 1."""
    p = (2**20 // d + 1) * d + 1
    while not _is_prime(p):
        p += d
    primes = [q for q in range(2, d + 1) if d % q == 0 and _is_prime(q)]
    g = 2
    while True:
        zeta = pow(g, (p - 1) // d, p)
        if all(pow(zeta, d // q, p) != 1 for q in primes):
            return p, zeta
        g += 1
