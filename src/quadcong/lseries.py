"""Coefficients of the p-adic L-series attached to quadratic characters.

The series for L_p(1-s, chi) around s = 0 is pinned down to the terms
a_{-1}/s + a_0 + a_1 s, with every coefficient an exact rational that
agrees with the p-adic value to depth 2 (the log surrogate and the
b_k truncations are good to depth 3, and the 1/F prefactor spends one
power of p).  Two independent routes exist for a_0 and a_1: the direct
restricted character sums, and closed forms in (generalized) Bernoulli
numbers and Wilson quotients; their agreement mod p^2 is a pillar of the
test suite.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .bernoulli import bernoulli, gen_bernoulli
from .characters import CharacterSplit, QuadChar, char_values
from .padic import fermat_quotient, log_from_fermat_quotient, unit_log_series, vp
from .primes import is_prime
from .quadfield import FieldInvariants

_stirling_rows: list[list[int]] = [[1]]
_stirling_lock = threading.Lock()


def stirling1(j: int, k: int) -> int:
    """Signed Stirling number of the first kind: x(x-1)...(x-j+1) = sum S(j,k) x^k."""
    if not 0 <= k <= j:
        raise ValueError(f"need 0 <= k <= j, got j={j}, k={k}")
    if j >= len(_stirling_rows):
        with _stirling_lock:
            while len(_stirling_rows) <= j:
                n = len(_stirling_rows) - 1
                prev = _stirling_rows[-1]
                row = [0] * (n + 2)
                for kk in range(n + 2):
                    row[kk] = (prev[kk - 1] if kk else 0) - n * (prev[kk] if kk <= n else 0)
                _stirling_rows.append(row)
    return _stirling_rows[j][k]


def b_coeff(a: int, k: int, F: int, p: int) -> Fraction:
    """Truncated Taylor coefficient b_k(a) of the binomial-sum kernel, k <= 2.

    b_0 = 1, b_1 = -(F/a)/2 - (F/a)^2/12, b_2 = (F/a)^2/12; each is the
    mod-p^3 truncation of sum_{j>=k} (F/a)^j (B_j/j!) S(j,k), valid for
    p >= 5 (the dropped terms have valuation >= 3 once v_p(F) = 1).
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"b_coeff needs a prime p >= 5, got {p}")
    if a % p == 0:
        raise ValueError(f"b_coeff needs gcd(a, p) = 1, got a={a}")
    if k not in (0, 1, 2):
        raise ValueError(f"only k in {{0,1,2}} is supported, got {k}")
    x = Fraction(F, a)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return -x / 2 - x * x / 12
    return x * x / 12


@dataclass(frozen=True)
class CoefficientBundle:
    """The principal-part coefficients of L_p(1-s, chi) at one (chi, p).

    a_minus1 is exactly 0 for non-principal chi and 1/p - 1 for the
    principal character; |a0|_p <= 1 and |a1|_p < 1 always.
    """

    a_minus1: Fraction
    a0: Fraction
    a1: Fraction
    character: QuadChar
    p: int
    F: int

    def check_invariants(self) -> None:
        expected = Fraction(0) if not self.character.is_principal else Fraction(1, self.p) - 1
        if self.a_minus1 != expected:
            raise AssertionError(f"a_-1 = {self.a_minus1}, expected {expected}")
        if vp(self.a0, self.p) < 0:
            raise AssertionError(f"|a0|_p > 1 for p={self.p}: {self.a0}")
        if vp(self.a1, self.p) < 1:
            raise AssertionError(f"|a1|_p >= 1 for p={self.p}: {self.a1}")


def a_coefficients_direct(chi: QuadChar, p: int) -> CoefficientBundle:
    """a_{-1}, a_0, a_1 by the restricted character sums over a = 1..F.

    F is p for the principal character and the conductor for a quadratic
    character whose conductor p divides; other characters are outside the
    supported setup.  Exact rationals throughout (1/a stays 1/a; log_p is
    replaced by its depth-3 surrogate).
    """
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    if chi.is_principal:
        F = p
    else:
        F = chi.conductor
        if F % p != 0:
            raise ValueError(
                f"conductor {F} is prime to p = {p}; the coefficient sums need p | conductor"
            )
    vals = char_values(chi, F)
    am1 = Fraction(0)
    a0 = Fraction(0)
    a1 = Fraction(0)
    c_sq = Fraction(p * p, 2 * (p - 1) ** 2)
    c_lin = Fraction(p, 2 * (p - 1))
    for a in range(1, F + 1):
        if a % p == 0:
            continue
        cv = vals[a]
        if cv == 0:
            continue
        fa = fermat_quotient(a, p)
        x = Fraction(F, a)
        term0 = log_from_fermat_quotient(fa, p) - x / 2 - x * x / 12
        term1 = c_sq * fa * fa + x * x / 12 - c_lin * fa * x
        if cv == 1:
            am1 += 1
            a0 += term0
            a1 += term1
        else:
            am1 -= 1
            a0 -= term0
            a1 -= term1
    bundle = CoefficientBundle(
        a_minus1=-am1 / F, a0=-a0 / F, a1=-a1 / F, character=chi, p=p, F=F
    )
    bundle.check_invariants()
    return bundle


def wilson_quotient(p: int) -> Fraction:
    """((p-1)! + 1)/p, an integer for every prime p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return Fraction(factorial(p - 1) + 1, p)


def a0_closed_principal(p: int) -> Fraction:
    """Closed form W_p (1 + p W_p / 2); equals the direct a_0 mod p^2."""
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    w = wilson_quotient(p)
    return w * (1 + p * w / 2)


def a1_closed_principal(p: int) -> Fraction:
    """Closed form -(B_{2(p-1)} - 2 B_{p-1} + R)/(2(p-1)^2), R = 1 - 1/p."""
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    R = 1 - Fraction(1, p)
    return -(bernoulli(2 * (p - 1)) - 2 * bernoulli(p - 1) + R) / (2 * (p - 1) ** 2)


def a1_closed_quadratic(split: CharacterSplit) -> Fraction:
    """Closed form of a_1 for the character of Q(sqrt d), d = p m > 5.

    -(B_{3r,psi}/3 - (1 - psi(p) p^(r-1)) B_{r,psi}) / (2 r^2) with
    r = (p-1)/2.  Refuses d = 5, where two extra power-sum contributions
    survive mod 25 and the plain formula is wrong.
    """
    if split.d == 5:
        raise ValueError("d = 5 carries correction terms this closed form omits")
    p, r, psi = split.p, split.r, split.psi
    euler = 1 - psi(p) * p ** (r - 1)
    return -(gen_bernoulli(3 * r, psi) / 3 - euler * gen_bernoulli(r, psi)) / (2 * r * r)


def a1_closed_quadratic_plain_bernoulli(split: CharacterSplit) -> Fraction:
    """Variant reading with the ordinary B_r in the subtracted term.

    Kept only so the suite can document that this reading breaks both the
    dual-path agreement and the |a1|_p < 1 bound; not part of the API
    proper.
    """
    p, r, psi = split.p, split.r, split.psi
    euler = 1 - psi(p) * p ** (r - 1)
    return -(gen_bernoulli(3 * r, psi) / 3 - euler * bernoulli(r)) / (2 * r * r)


def lp_interp_value(n: int, p: int, split: CharacterSplit | None = None) -> Fraction:
    """Interpolation value L_p(1-n, .) at an admissible positive integer n.

    Quadratic case (split given): n = r mod (p-1) so the twisted character
    collapses to psi, and the value is -(1 - psi(p) p^(n-1)) B_{n,psi}/n.
    Principal case: n = 0 mod (p-1) and the value is -(1 - p^(n-1)) B_n/n.
    Other residue classes would need non-quadratic twists and are refused.
    """
    if n < 1:
        raise ValueError("interpolation points are integers n >= 1")
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    if split is None:
        if n % (p - 1) != 0:
            raise ValueError(
                f"principal-character values need n = 0 mod (p-1); n={n}, p={p}"
            )
        return -(1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n
    if split.p != p:
        raise ValueError("split and p disagree")
    r = split.r
    if n % (p - 1) != r % (p - 1):
        raise ValueError(
            f"quadratic values need n = (p-1)/2 mod (p-1); n={n}, p={p}"
        )
    psi = split.psi
    return -(1 - psi(p) * Fraction(p) ** (n - 1)) * gen_bernoulli(n, psi) / n


def zeta_star_value(n: int, p: int) -> Fraction:
    """Pole-corrected zeta value zeta*_p(1-n) = L_p(1-n, chi_0) + R/n.

    Defined at multiples n of p-1; R = 1 - 1/p.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    if n < 1 or n % (p - 1) != 0:
        raise ValueError(f"n must be a positive multiple of p - 1 = {p - 1}, got {n}")
    R = 1 - Fraction(1, p)
    return lp_interp_value(n, p) + R / n


def lp1_via_class_number(inv: FieldInvariants) -> Fraction:
    """Depth-2 surrogate for L_p(1, chi_D) from the class number and unit.

    (2h/delta) * (u/t + (d/3)(u/t)^3).  Requires p | d and p coprime to t;
    p | t would contradict the unit's defining norm equation at p | d, so
    it is treated as data corruption rather than a soft error.
    """
    if inv.p is None:
        raise ValueError("field invariants must carry the prime p")
    if inv.d % inv.p != 0:
        raise ValueError(f"p = {inv.p} does not divide d = {inv.d}")
    if inv.t % inv.p == 0:
        raise ArithmeticError(
            f"p = {inv.p} divides t for d = {inv.d}: impossible for a unit at p | d; "
            "the invariants record is corrupt"
        )
    return Fraction(2 * inv.h, inv.delta) * unit_log_series(inv.d, inv.t, inv.u, 1)
