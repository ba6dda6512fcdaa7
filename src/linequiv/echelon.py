"""Exact ranks of sparse integer rows, over the rationals or modulo a prime,
and of 0/1 block matrices over F_2.

A row is a dict column -> nonzero entry.  One elimination serves both
fields.  Over Q it is fraction-free: row = a*row - b*pivot, then division
by the gcd of the entries, so every entry stays an integer.  Modulo p the
pivots are monic and reduced, so a = 1 and a step is row = row - b*pivot
with b reduced; the other entries of a row are reduced only when it
becomes a pivot, and stay small meanwhile, since each step adds less than
p^2 to them.

Over F_2 a row is an int bitmask, bit c for column c, and `BitEchelon`
keeps only a window of two column blocks of a block matrix whose row block
j touches column blocks j and j + 1 alone (see `bit_eliminations`).
"""

from __future__ import annotations

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


class BitEchelon:
    """Rows over F_2, int bitmasks, in echelon form: one pivot per lead, the
    lowest set bit, and `rank` counts the rows added so far that became
    pivots.  A step row ^= pivot clears the row's lead and sets higher bits
    only, so a lead never falls.  Once every row still to come has its
    lowest possible bit at `width` or above, a pivot whose lead lies below
    can never be used again: `slide(width)` counts those pivots as
    finished and shifts the others down by `width` bits."""

    __slots__ = ("pivots", "finished")

    def __init__(self):
        self.pivots: dict[int, int] = {}
        self.finished = 0

    @property
    def rank(self) -> int:
        return self.finished + len(self.pivots)

    def add(self, row: int) -> bool:
        """Reduce the row against the pivots; True when it becomes one."""
        pivots = self.pivots
        while row:
            lead = row & -row
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                return True
            row ^= pivot
        return False

    def slide(self, width: int) -> None:
        kept = {lead >> width: row >> width for lead, row in self.pivots.items() if lead >> width}
        self.finished += len(self.pivots) - len(kept)
        self.pivots = kept


def bit_eliminations(pairs, width: int, shift: int) -> Iterator[BitEchelon]:
    """One elimination over F_2 of the block matrices T_1, T_2, ... built
    from pairs (x, y) of 0/1 rows, each an int bitmask (bit c for column
    c), yielded after each block: row block j of T_k (j < k) holds one row
    per pair, x at column block j and y at column block j + shift (left out
    below block 0), for shift +1 or -1, in column blocks `width` wide.  The
    caller writes the masks once per pair (the oracle's `_shape`) and every
    sequence reads them.  Block j touches only column blocks
    j + min(0, shift) and the one above, so its rows are written relative
    to the first of the two, and the echelon slides up a block after each
    block: every int stays within 2*width bits, however far k runs."""
    x_at, y_at = (0, width) if shift > 0 else (width, 0)
    rows = [x << x_at | y << y_at for x, y in pairs]
    echelon = BitEchelon()
    block = rows if shift > 0 else [x << x_at for x, _ in pairs]
    while True:
        for row in block:
            echelon.add(row)
        yield echelon
        echelon.slide(width)
        block = rows


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
