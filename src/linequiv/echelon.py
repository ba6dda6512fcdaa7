"""Exact ranks of sparse integer rows, over the rationals or modulo a prime.

A row is a dict column -> nonzero entry.  One elimination serves both
fields.  Over Q it is fraction-free: row = a*row - b*pivot, then division
by the gcd of the entries, so every entry stays an integer.  Modulo p the
pivots are monic and reduced, so a = 1 and a step is row = row - b*pivot
with b reduced; the other entries of a row are reduced only when it
becomes a pivot, and stay small meanwhile, since each step adds less than
p^2 to them.
"""

from __future__ import annotations

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

    def add(self, row: SparseRow) -> None:
        """Reduce a row of nonzero integers, which this takes over, against
        the pivots by row = a*row - b*pivot; a row that stays nonzero
        becomes a pivot.  Over Q each step divides the row by the gcd of
        its entries.  Modulo p a pivot is made monic and reduced, so a = 1,
        b is reduced, and a leading entry that vanishes mod p is dropped."""
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
                    return
            else:
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
            if not p:
                content = gcd(*row.values())
                if content > 1:
                    row = {j: x // content for j, x in row.items()}


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
