"""Exact ranks of sparse integer rows, over the rationals or modulo a prime,
and over F_2 of 0/1 block matrices whose rows hold at most two 1s.

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
two ends, a column or None, and no elimination runs.
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


def _root(parent: list[int], x: int) -> int:
    """The root of node x's tree, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _join(parent: list[int], x: int, y: int) -> bool:
    """Join the trees of nodes x and y; True when they were two.  The lower
    root stays a root, so node 0, the ground, is always one."""
    if parent[x] != x:
        x = _root(parent, x)
    if parent[y] != y:
        y = _root(parent, y)
    if x == y:
        return False
    if x < y:
        x, y = y, x
    parent[x] = y
    return True


def forest_rows(ends, width: int, shift: int) -> list[int]:
    """The indices of the rows independent over F_2 of the rows before them,
    the rows that join two trees, where row i, for ends[i] = (a, b), has a 1
    at column a of column block 0 and one at column b of block `shift`, 0
    or 1 (none for an end None), in blocks `width` wide.  At shift 0, a = b
    gives a zero row, a loop."""
    parent = list(range(1 + (1 + shift) * width))
    at = 1 + shift * width
    return [i for i, (a, b) in enumerate(ends)
            if _join(parent, 0 if a is None else 1 + a, 0 if b is None else at + b)]


def forest_ranks(ends, width: int, truncated: bool = False,
                 grounded: bool = False) -> Iterator[int]:
    """rank T_1, T_2, ... over F_2, yielded in turn, where row block j < k
    of T_k holds a row per end pair (a, b): a 1 at column a of column block
    j and one at column b of block j + 1 (none for an end None), in blocks
    `width` wide.  T_k has column blocks 0..k, or 0..k-1 when `truncated`;
    `grounded` adds a row block j = -1, which keeps only its 1s in block 0.

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
            for a, b in ends:
                joins += _join(parent, 0 if a is None or not top else below + a,
                               0 if b is None else at + b)
        if truncated:
            roots = {_root(parent, at + a) for a, _ in ends if a is not None}
            roots.discard(0)
            yield joins + len(roots)
        else:
            yield joins


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
