"""Exact ranks of sparse integer rows, over the rationals and modulo a prime.

A row is a dict column -> nonzero entry.  Over Q, elimination is
fraction-free: row = a*row - b*pivot, then division by the gcd of the
entries, so every entry stays an integer.  Modulo p, pivots are monic.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

SparseRow = dict[int, int]


class Echelon:
    """Integer rows in echelon form, one pivot row per leading column, grown
    a row at a time; `rank` is the rank of every row added so far."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: SparseRow) -> None:
        """Reduce a row of nonzero integers, which this takes over, against
        the pivots by row = a*row - b*pivot, dividing by the gcd of its
        entries after each step; a row that stays nonzero becomes a pivot."""
        pivots = self.pivots
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                return
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
            content = gcd(*row.values())
            if content > 1:
                row = {j: x // content for j, x in row.items()}


def rank_of_rows(rows) -> int:
    """Exact rank of sparse integer rows (dicts column -> int): a copy of
    each row without its zeros goes to one `Echelon`, so the rows passed in
    stay as they are."""
    echelon = Echelon()
    for row in rows:
        echelon.add({j: x for j, x in row.items() if x})
    return echelon.rank


def rank_mod(rows, p: int) -> int:
    """Rank over F_p of integer rows, by elimination with monic pivots."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {j: x % p for j, x in row.items() if x % p}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: x * inv % p for j, x in row.items()}
                break
            b = row.pop(col)
            for j, x in pivot.items():
                if j != col:
                    new = (row.get(j, 0) - b * x) % p
                    if new:
                        row[j] = new
                    else:
                        row.pop(j, None)
    return len(pivots)


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
