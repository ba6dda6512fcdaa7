"""Dense univariate polynomials over the rationals.

A polynomial is a tuple of Fractions, constant term first, with no trailing
zeros; () is the zero polynomial.  Everything here is exact; nothing ever
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def poly(*coeffs) -> Poly:
    """Polynomial from constant-first coefficients."""
    return norm(tuple(Fraction(c) for c in coeffs))


def norm(p) -> Poly:
    """p without trailing zeros, as a tuple; its coefficients must already be
    Fractions (use poly for raw numbers)."""
    end = len(p)
    while end > 0 and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end])


def deg(p: Poly) -> int:
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return norm(out)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return norm(out)


def scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    lead = q[-1]
    for i in range(len(rem) - len(q), -1, -1):
        c = rem[i + len(q) - 1] / lead
        if c:
            quo[i] = c
            for j, b in enumerate(q):
                rem[i + j] -= c * b
    return norm(quo), norm(rem)


def divides(q: Poly, p: Poly) -> bool:
    return not divmod_poly(p, q)[1]


def monic(p: Poly) -> Poly:
    if not p:
        return ZERO
    return scale(p, 1 / p[-1])


def gcd(p: Poly, q: Poly) -> Poly:
    while q:
        p, q = q, divmod_poly(p, q)[1]
    return monic(p)


def lcm(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    return monic(divmod_poly(mul(p, q), gcd(p, q))[0])


def substitute_neg_x(p: Poly) -> Poly:
    """p(-X): negates the odd coefficients."""
    return norm(tuple(-c if i % 2 else c for i, c in enumerate(p)))


def x_power(k: int) -> Poly:
    return tuple([Fraction(0)] * k + [Fraction(1)])


def x_order(p: Poly) -> int:
    """Multiplicity of the factor X."""
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    return k if p else 0


def totient(d: int) -> int:
    """Euler's phi(d), from the prime factors of d found by trial division."""
    out, rest, q = d, d, 2
    while q * q <= rest:
        if rest % q == 0:
            out -= out // q
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        out -= out // rest
    return out


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Poly:
    """d-th cyclotomic polynomial, via X^d - 1 = prod of cyclotomics over
    the divisors of d."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    p = sub(x_power(d), ONE)
    for e in range(1, d):
        if d % e == 0:
            p, rem = divmod_poly(p, cyclotomic(e))
            if rem:
                raise AssertionError(f"cyclotomic: Phi_{e} does not divide X^{d} - 1")
    return p


def poly_str(p: Poly, var: str = "X") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
