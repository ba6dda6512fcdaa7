"""Smith normal form over Q[X] and the factoring of its invariant factors.

The oracle reads every divisor of a graph pair off exact ranks; this is its
fallback for a regular part that is not all cyclotomic, which only matrix
input can have.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from . import ratpoly as rp
from .ratpoly import Poly


class OracleFactorError(RuntimeError, ValueError):
    """An invariant factor has a non-cyclotomic irreducible part of degree
    above one; cannot happen for graph-derived pairs.  A ValueError too: it
    rejects the input, and the CLI says so with exit 2."""


def pencil_matrix(first, second, e: int, v: int) -> list[list[Poly]]:
    """The e-by-v polynomial matrix first + X*second."""
    return [[rp.poly(first[i][j], second[i][j]) for j in range(v)] for i in range(e)]


def invariant_factors(mat: list[list[Poly]]) -> list[Poly]:
    """Monic nonzero invariant factors of a polynomial matrix, in divisibility
    order, by the classical pivot-and-reduce Smith procedure."""
    mat = [row[:] for row in mat]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    factors: list[Poly] = []
    top = 0
    while True:
        pos = None
        best = -1
        for i in range(top, rows):
            for j in range(top, cols):
                d = rp.deg(mat[i][j])
                if mat[i][j] and (pos is None or d < best):
                    pos, best = (i, j), d
        if pos is None:
            break
        i, j = pos
        mat[top], mat[i] = mat[i], mat[top]
        for row in mat:
            row[top], row[j] = row[j], row[top]
        while True:
            # clear the pivot column, restarting whenever a remainder of
            # smaller degree shows up (it becomes the better pivot)
            restart = False
            for i in range(top + 1, rows):
                if rp.is_zero(mat[i][top]):
                    continue
                q, r = rp.divmod_poly(mat[i][top], mat[top][top])
                mat[i] = [rp.sub(a, rp.mul(q, b)) if b else a
                          for a, b in zip(mat[i], mat[top])]
                if not rp.is_zero(r):
                    mat[top], mat[i] = mat[i], mat[top]
                    restart = True
                    break
            if restart:
                continue
            for j in range(top + 1, cols):
                if rp.is_zero(mat[top][j]):
                    continue
                q, r = rp.divmod_poly(mat[top][j], mat[top][top])
                for row in mat:
                    if row[top]:
                        row[j] = rp.sub(row[j], rp.mul(q, row[top]))
                if not rp.is_zero(r):
                    for row in mat:
                        row[top], row[j] = row[j], row[top]
                    restart = True
                    break
            if restart:
                continue
            if any(not rp.is_zero(mat[i][top]) for i in range(top + 1, rows)):
                continue
            break
        factors.append(rp.monic(mat[top][top]))
        top += 1
        if top == rows or top == cols:
            break
    # repair the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if not rp.divides(a, b):
                factors[i], factors[i + 1] = rp.gcd(a, b), rp.lcm(a, b)
                changed = True
    return factors


DIVISOR_LIMIT = 10**6


def _root_candidates(g: Poly) -> set[Fraction]:
    """+-a/b with a | g(0) and b | lead(g), g cleared of denominators, each of
    a and b found by trial division up to DIVISOR_LIMIT or as the cofactor of
    one so found.  When both ends are at most DIVISOR_LIMIT^2, every rational
    root of g, g(0) != 0, is among them (the rational-root test)."""
    scale = math.lcm(*(c.denominator for c in g))

    def divisors(c: Fraction) -> set[int]:
        n = abs(int(c * scale))
        small = {d for d in range(1, min(math.isqrt(n), DIVISOR_LIMIT) + 1) if n % d == 0}
        return small | {n // d for d in small}

    return {Fraction(sign * a, b) for a in divisors(g[0]) for b in divisors(g[-1])
            for sign in (1, -1)}


def factor_stored(q: Poly) -> list[tuple[Poly, int]]:
    """Split monic(q(-X)) into irreducibles: an X-power, cyclotomic factors,
    linear factors at its rational roots; anything else is unsupported."""
    g = rp.monic(rp.substitute_neg_x(q))
    out: Counter[Poly] = Counter()
    k = rp.x_order(g)
    if k:
        out[rp.X] += k
        g = rp.norm(g[k:])
    d = 1
    while rp.deg(g) >= 1:
        if d > 2 * rp.deg(g) ** 2 + 6:
            break
        if rp.totient(d) <= rp.deg(g):
            phi = rp.cyclotomic(d)
            quo, rem = rp.divmod_poly(g, phi)
            if rp.is_zero(rem):
                out[phi] += 1
                g = quo
                continue  # repeat the same d; exponents can exceed one
        d += 1
    for root in _root_candidates(g) if rp.deg(g) > 1 else ():
        linear = rp.poly(-root, 1)
        while rp.deg(g) > 1 and rp.divides(linear, g):
            out[linear] += 1
            g = rp.divmod_poly(g, linear)[0]
    if rp.deg(g) == 1:  # a linear residue is its own root
        out[g] += 1
    elif rp.deg(g) > 1:
        raise OracleFactorError(
            f"cannot factor invariant-factor part {rp.poly_str(g)} over the rationals "
            f"(rational roots are sought by trial division up to {DIVISOR_LIMIT})")
    # group equal irreducibles into (p, exponent) with exponent = multiplicity
    return sorted(out.items())
