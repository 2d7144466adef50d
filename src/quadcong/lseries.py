"""Coefficients of the p-adic L-series attached to quadratic characters.

The series for L_p(1-s, chi) around s = 0 is pinned down to the terms
a_{-1}/s + a_0 + a_1 s, with every coefficient an exact rational that
agrees with the p-adic value to depth 2 (the log surrogate and the
b_k truncations are good to depth 3, and the 1/F prefactor spends one
power of p).  Two independent routes exist for a_0 and a_1: the direct
restricted character sums, and closed forms in (generalized) Bernoulli
numbers and Wilson quotients; their agreement mod p^2 is a pillar of the
test suite.  The direct route adds integers only: six sums over a = 1..F
of chi(a) times 1, f(2 - p f), f^2, L/a, L^2/a^2 and f L/a, with f the
Fermat quotient of a and L = lcm(1..F), and one Fraction per coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .bernoulli import bernoulli, gen_bernoulli, gen_bernoulli_many
from .characters import CharacterSplit, QuadChar, char_values
from .padic import fermat_quotient, unit_log_series, vp
from .primes import is_prime, primes_up_to
from .quadfield import class_number, fundamental_unit


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
    supported setup.  Each term is linear in six integers per a, so with
    L = lcm(1..F) the loop adds integers only: sum chi(a), sum chi(a)
    f(2 - p f), sum chi(a) f^2, sum chi(a) L/a, sum chi(a) L^2/a^2 and
    sum chi(a) f L/a over p not dividing a, f the Fermat quotient of a.
    Each coefficient is then one exact Fraction whose denominator divides
    12 (p-1)^2 L^2 F (log_p is replaced by its depth-3 surrogate).
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
    L = 1
    for ell in primes_up_to(F):  # L = lcm(1..F), the largest power of each prime <= F
        power = ell
        while power * ell <= F:
            power *= ell
        L *= power
    LL = L * L
    s_chi = s_log = s_f2 = s_inv = s_inv2 = s_finv = 0
    for a in range(1, F + 1):
        if a % p == 0:
            continue
        cv = vals[a]
        if cv == 0:
            continue
        fa = fermat_quotient(a, p)
        f2 = fa * fa
        inv = L // a
        if cv == 1:
            s_chi += 1
            s_log += 2 * fa - p * f2
            s_f2 += f2
            s_inv += inv
            s_inv2 += LL // (a * a)
            s_finv += fa * inv
        else:
            s_chi -= 1
            s_log -= 2 * fa - p * f2
            s_f2 -= f2
            s_inv -= inv
            s_inv2 -= LL // (a * a)
            s_finv -= fa * inv
    # a_0 = -(p s_log/(2(p-1)) - F s_inv/(2L) - F^2 s_inv2/(12 L^2))/F and
    # a_1 = -(p^2 s_f2/(2(p-1)^2) + F^2 s_inv2/(12 L^2) - p F s_finv/(2(p-1)L))/F
    m = p - 1
    a0 = Fraction(6 * m * F * s_inv * L + m * F * F * s_inv2 - 6 * p * s_log * LL,
                  12 * m * LL * F)
    a1 = Fraction(6 * p * m * F * s_finv * L - 6 * p * p * s_f2 * LL - m * m * F * F * s_inv2,
                  12 * m * m * LL * F)
    bundle = CoefficientBundle(
        a_minus1=Fraction(-s_chi, F), a0=a0, a1=a1, character=chi, p=p, F=F
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
    r = (p-1)/2, that is -(B_{3r,psi}/3 + r L_p(1-r, psi)) / (2 r^2).
    Refuses d = 5, where two extra power-sum contributions survive mod 25
    and the plain formula is wrong.
    """
    if split.d == 5:
        raise ValueError("d = 5 carries correction terms this closed form omits")
    r = split.r
    _, b3r = gen_bernoulli_many((r, 3 * r), split.psi)  # lp_interp_value reads B_r back
    lp = lp_interp_value(r, split)
    return -(b3r / 3 + r * lp) / (2 * r * r)


def lp_interp_value(n: int, split: CharacterSplit) -> Fraction:
    """Interpolation value L_p(1-n, .) at a positive integer n, p = split.p.

    At n = r mod (p-1) the twisted character collapses to psi, and the
    value is -(1 - psi(p) p^(n-1)) B_{n,psi}/n.  Other residue classes
    would need non-quadratic twists and are refused.
    """
    if n < 1:
        raise ValueError("interpolation points are integers n >= 1")
    p, r = split.p, split.r
    if n % (p - 1) != r % (p - 1):
        raise ValueError(
            f"quadratic values need n = (p-1)/2 mod (p-1); n={n}, p={p}"
        )
    psi = split.psi
    b = gen_bernoulli(n, psi)
    return Fraction((psi(p) * p ** (n - 1) - 1) * b.numerator, n * b.denominator)


def lp1_via_class_number(d: int, p: int) -> Fraction:
    """Depth-2 surrogate for L_p(1, chi_D) from the class number and unit of Q(sqrt d).

    (2h/delta) * (u/t + (d/3)(u/t)^3), read from the memoized class_number
    and fundamental_unit records.  Requires p | d.  Then p does not divide
    t: fundamental_unit asserts delta^2 (t^2 - d u^2) = +-4, which p | t
    would contradict.
    """
    if d % p != 0:
        raise ValueError(f"p = {p} does not divide d = {d}")
    unit = fundamental_unit(d)
    series = unit_log_series(d, unit.t, unit.u)
    return Fraction(2 * class_number(d).h * series.numerator, unit.delta * series.denominator)
