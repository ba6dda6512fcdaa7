from fractions import Fraction
from math import gcd

import pytest

from linequiv import ratpoly as rp


def test_normalization_and_degree():
    assert rp.poly(0, 0) == ()
    assert rp.deg(rp.poly(3)) == 0
    assert rp.deg(rp.poly(0, 0, 1)) == 2
    assert rp.is_zero(rp.ZERO)


def test_arithmetic():
    p = rp.poly(-1, 1)        # X - 1
    q = rp.poly(1, 1)         # X + 1
    assert rp.mul(p, q) == rp.poly(-1, 0, 1)
    assert rp.add(p, q) == rp.poly(0, 2)
    assert rp.sub(p, p) == rp.ZERO
    assert rp.scale(p, Fraction(1, 2)) == rp.poly(Fraction(-1, 2), Fraction(1, 2))


def test_divmod_and_gcd():
    num = rp.poly(-1, 0, 0, 1)            # X^3 - 1
    quo, rem = rp.divmod_poly(num, rp.poly(-1, 1))
    assert quo == rp.poly(1, 1, 1) and rem == rp.ZERO
    assert rp.gcd(num, rp.poly(-1, 0, 1)) == rp.poly(-1, 1)
    assert rp.lcm(rp.poly(-1, 1), rp.poly(1, 1)) == rp.poly(-1, 0, 1)
    with pytest.raises(ZeroDivisionError):
        rp.divmod_poly(num, rp.ZERO)


def test_monic():
    assert rp.monic(rp.poly(2, 4)) == rp.poly(Fraction(1, 2), 1)
    assert rp.monic(rp.ZERO) == rp.ZERO


def test_substitute_neg_x():
    p = rp.poly(1, 2, 3, 4)
    assert rp.substitute_neg_x(p) == rp.poly(1, -2, 3, -4)
    assert rp.substitute_neg_x(rp.substitute_neg_x(p)) == p


def test_x_order():
    assert rp.x_order(rp.poly(0, 0, 5, 1)) == 2
    assert rp.x_order(rp.poly(3)) == 0


def test_cyclotomic_known_values():
    assert rp.cyclotomic(1) == rp.poly(-1, 1)
    assert rp.cyclotomic(2) == rp.poly(1, 1)
    assert rp.cyclotomic(3) == rp.poly(1, 1, 1)
    assert rp.cyclotomic(4) == rp.poly(1, 0, 1)
    assert rp.cyclotomic(6) == rp.poly(1, -1, 1)
    assert rp.cyclotomic(12) == rp.poly(1, 0, -1, 0, 1)


def test_cyclotomic_product_property():
    for n in (1, 2, 3, 4, 6, 10, 12):
        prod = rp.ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = rp.mul(prod, rp.cyclotomic(d))
        assert prod == rp.sub(rp.x_power(n), rp.ONE)


def test_totient():
    assert [rp.totient(d) for d in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]
    for d in range(1, 400):
        assert rp.totient(d) == sum(1 for k in range(1, d + 1) if gcd(k, d) == 1), d


def test_poly_str():
    assert rp.poly_str(rp.poly(-1, 1)) == "X - 1"
    assert rp.poly_str(rp.poly(1, 0, 1)) == "X^2 + 1"
    assert rp.poly_str(rp.poly(0, -2)) == "-2*X"
    assert rp.poly_str(rp.ZERO) == "0"
    assert rp.poly_str(rp.poly(Fraction(1, 2), 1)) == "X + 1/2"
