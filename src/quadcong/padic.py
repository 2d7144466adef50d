"""Exact rational arithmetic seen p-adically.

Every quantity in this package is a `fractions.Fraction`; a statement
"x = y mod p^k" always means v_p(x - y) >= k, decided exactly on the
rational difference.  Floating point is never consulted.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf

from .primes import is_prime

# valuation of zero
INF = inf


def _int_vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational; INF for 0."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return INF
    v = _int_vp(x.numerator, p)
    if v:
        return v
    return -_int_vp(x.denominator, p)


def difference_verdict(a: Fraction | int, b: Fraction | int, p: int,
                       depth: int) -> tuple[int | float, bool]:
    """(v_p(a - b), v_p(a - b) >= depth): the one congruence decision.

    The valuation is read off the unreduced difference
    (a_num b_den - b_num a_den) / (a_den b_den); it does not depend on the
    representation, so no gcd of the large integers is taken.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    num = a.numerator * b.denominator - b.numerator * a.denominator
    if num == 0:
        return INF, True
    v = _int_vp(num, p) - _int_vp(a.denominator, p) - _int_vp(b.denominator, p)
    return v, v >= depth


def fermat_quotient(a: int, p: int) -> int:
    """(a^(p-1) - 1)/p for a coprime to p, an integer by Fermat's little theorem."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if a % p == 0:
        raise ValueError(f"fermat_quotient needs gcd(a, p) = 1, got a={a}, p={p}")
    return (pow(a, p - 1) - 1) // p


def unit_log_series(d: int, t: int, u: int) -> Fraction:
    """The cubic kernel u/t + (d/3)(u/t)^3 = u (3 t^2 + d u^2) / (3 t^3).

    These are the terms n = 0, 1 of log(fundamental unit)/sqrt(d) =
    sum_n d^n/(2n+1) * (u/t)^(2n+1) for the unit (delta/2)(t + u*sqrt(d)),
    the unit side of the main congruence.  For p | d, p > 5 the later terms
    have v_p >= 2, so the depth-2 congruence cuts the series here.
    """
    if t == 0:
        raise ValueError("unit_log_series needs t != 0")
    return Fraction(u * (3 * t * t + d * u * u), 3 * t ** 3)
