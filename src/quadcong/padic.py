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


def is_p_integral(x: Fraction | int, p: int) -> bool:
    """True iff |x|_p <= 1."""
    return vp(x, p) >= 0


def difference_verdict(a: Fraction | int, b: Fraction | int, p: int,
                       depth: int) -> tuple[int | float, bool]:
    """(v_p(a - b), v_p(a - b) >= depth): the one congruence decision."""
    v = vp(Fraction(a) - Fraction(b), p)
    return v, v >= depth


def congruent(a: Fraction | int, b: Fraction | int, p: int, depth: int) -> bool:
    """Exact congruence a = b mod p^depth."""
    return difference_verdict(a, b, p, depth)[1]


def fermat_quotient(a: int, p: int) -> Fraction:
    """(a^(p-1) - 1)/p for a coprime to p; always an integer value."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if a % p == 0:
        raise ValueError(f"fermat_quotient needs gcd(a, p) = 1, got a={a}, p={p}")
    return Fraction(pow(a, p - 1) - 1, p)


def log_surrogate(a: int, p: int) -> Fraction:
    """Rational stand-in for log_p(a), exact to mod p^3.

    Computed as (p*F(a) - p^2*F(a)^2/2)/(p-1) with F the Fermat quotient;
    agreement with the p-adic logarithm to depth 3 is what every later
    coefficient formula relies on.
    """
    if p <= 3:
        raise ValueError(f"log surrogate needs p > 3, got {p}")
    return log_from_fermat_quotient(fermat_quotient(a, p), p)


def log_from_fermat_quotient(fa: Fraction, p: int) -> Fraction:
    """The log surrogate (p F - p^2 F^2 / 2)/(p - 1) from F = fermat_quotient(a, p)."""
    return Fraction(p * fa * (2 - p * fa), 2 * (p - 1))


def unit_log_series(d: int, t: int, u: int, n_max: int) -> Fraction:
    """Truncated series sum_{n<=n_max} d^n/(2n+1) * (u/t)^(2n+1).

    This is the initial segment of log(fundamental unit)/sqrt(d) for the
    unit (delta/2)(t + u*sqrt(d)); with n_max = 1 it is the cubic kernel
    u/t + (d/3)(u/t)^3 appearing on the unit side of the main congruence.
    """
    if t == 0:
        raise ValueError("unit_log_series needs t != 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = Fraction(u, t)
    x2 = x * x
    total = Fraction(0)
    dn = 1
    xp = x
    for n in range(n_max + 1):
        total += Fraction(dn, 2 * n + 1) * xp
        dn *= d
        xp *= x2
    return total
