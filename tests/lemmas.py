"""Lemma-level identities that the tests check and the package does not ship.

The paper's statements are verified through `quadcong.suite.REGISTRY`
only.  The power sums, the depth-2 power-sum reductions, the index-shift
congruence, the Carlitz integrality check, the Bernoulli polynomials, the
pole-corrected zeta values, the b_k truncations and the log surrogate are
the lemmas those statements are derived from; they live here so the tests
can pin them down.  They are built on production code (`gen_bernoulli`,
`bernoulli`, `char_values`, `fermat_quotient`, `make_report`), so their
tests keep exercising it.  This is not an oracle module: `oracles.py`
stays independent of it.

The closed power-sum formula stores the index-0 term as F^k B_{0,chi}/(k+1);
the commonly printed variant without the 1/(k+1) fails the exact identity
against the literal sum already at k = 2 for the principal character (a
regression test pins this down).
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from quadcong.bernoulli import bernoulli, gen_bernoulli
from quadcong.characters import CharacterSplit, QuadChar, char_values
from quadcong.padic import fermat_quotient, vp
from quadcong.primes import is_prime
from quadcong.reports import CongruenceReport, make_report


def bernoulli_poly(n: int, x: Fraction | int) -> Fraction:
    """Bernoulli polynomial B_n(x) = sum_j C(n,j) B_j x^(n-j)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    total = Fraction(0)
    xp = Fraction(1)
    # evaluate from j = n down so powers of x build up incrementally
    for j in range(n, -1, -1):
        bj = bernoulli(j)
        if bj:
            total += comb(n, j) * bj * xp
        xp *= x
    return total


# -- power sums -------------------------------------------------------------


def _require_conductor_divides(chi: QuadChar, F: int) -> None:
    if F < 1 or F % chi.conductor != 0:
        raise ValueError(f"F = {F} must be a positive multiple of the conductor {chi.conductor}")


def power_sum_direct(k: int, F: int, chi: QuadChar) -> Fraction:
    """(1/F) sum_{a=1}^{F} chi(a) a^k, evaluated literally."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _require_conductor_divides(chi, F)
    vals = char_values(chi, F)
    total = 0
    for a in range(1, F + 1):
        cv = vals[a]
        if cv:
            total += a ** k if cv == 1 else -(a ** k)
    return Fraction(total, F)


def power_sum_restricted(k: int, F: int, chi: QuadChar, p: int) -> Fraction:
    """(1/F) sum over 1 <= a <= F with p not dividing a of chi(a) a^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    _require_conductor_divides(chi, F)
    vals = char_values(chi, F)
    total = 0
    for a in range(1, F + 1):
        if a % p == 0:
            continue
        cv = vals[a]
        if cv:
            total += a ** k if cv == 1 else -(a ** k)
    return Fraction(total, F)


def power_sum_closed(k: int, F: int, chi: QuadChar) -> Fraction:
    """Power sum via generalized Bernoulli numbers.

    (1/(k+1)) sum_{j=0}^{k} C(k+1, j) B_{j,chi} F^(k-j); exactly equal to
    power_sum_direct for every admissible input (the principal character
    needs both the 1/(k+1) on the j=0 term and the +1/2 index-1 value).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _require_conductor_divides(chi, F)
    total = Fraction(0)
    Fp = F ** k
    for j in range(k + 1):
        bj = gen_bernoulli(j, chi)
        if bj:
            total += comb(k + 1, j) * bj * Fp
        if j < k:
            Fp //= F
    return total / (k + 1)


# -- arithmetic facts about B_{n,chi} ---------------------------------------


def carlitz_check(n: int, chi: QuadChar, p: int) -> bool:
    """Is B_{n,chi}/n p-integral?  (True is the theorem's prediction.)

    Applies to non-principal chi with p coprime to the conductor; a
    conductor with two or more prime factors even makes B_{n,chi}/n an
    algebraic integer, but only p-integrality is decided here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if chi.is_principal:
        raise ValueError("integrality statement needs a non-principal character")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if chi.conductor % p == 0:
        raise ValueError(f"p = {p} divides the conductor {chi.conductor}; statement does not apply")
    return vp(gen_bernoulli(n, chi) / n, p) >= 0


def lemma_power_sum_nonprincipal(k: int, chi: QuadChar, p: int) -> CongruenceReport:
    """Depth-2 power-sum reduction P(k, pf, chi) for non-principal chi.

    Parity matching chi(-1) = (-1)^k gives P = B_{k,chi} mod p^2; the
    opposite parity gives P = (k F / 2) B_{k-1,chi} mod p^2.  For k = 3
    with odd chi the statement sharpens to the exact identity
    P = B_{3,chi} + F^2 B_{1,chi} (note F squared: the F^1 variant one
    sometimes sees printed is already false for chi of discriminant -3
    at p = 5, where P(3,15) = -223/3 = B_3 + 225 B_1).
    """
    if chi.is_principal:
        raise ValueError("use lemma_power_sum_principal for the principal character")
    if k < 3:
        raise ValueError("statement needs k >= 3")
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    f = chi.conductor
    if f % p == 0:
        raise ValueError(f"p = {p} must not divide the conductor {f}")
    F = p * f
    lhs = power_sum_direct(k, F, chi)
    if chi.parity == (-1) ** k:
        if k == 3 and chi.parity == -1:
            rhs = gen_bernoulli(3, chi) + F * F * gen_bernoulli(1, chi)
            stmt = "POWER_SUM_NONPRINCIPAL_K3_EXACT"
        else:
            rhs = gen_bernoulli(k, chi)
            stmt = "POWER_SUM_NONPRINCIPAL_A"
    else:
        rhs = Fraction(k * F, 2) * gen_bernoulli(k - 1, chi)
        stmt = "POWER_SUM_NONPRINCIPAL_B"
    return make_report(stmt, lhs, rhs, p, depth=2, d=chi.discriminant, k=k)


def lemma_power_sum_principal(k: int, p: int) -> CongruenceReport:
    """Depth-2 reduction of P(k, p) for the principal character, 3 <= k < p(p-1).

    (p-1) | k        : P + 1/p = B_k + 1/p mod p^2
    k even otherwise : P = B_k + F^2 k(k-1) B_{k-2} / 6 mod p^2
    k odd            : P = (F k / 2) B_{k-1} mod p^2
    """
    if p <= 3 or not is_prime(p):
        raise ValueError(f"statement needs a prime p > 3, got {p}")
    if not 3 <= k < p * (p - 1):
        raise ValueError(f"k = {k} outside the admissible range [3, p(p-1))")
    F = p
    chi0 = QuadChar.principal()
    P = power_sum_direct(k, F, chi0)
    if k % (p - 1) == 0:
        lhs = P + Fraction(1, p)
        rhs = bernoulli(k) + Fraction(1, p)
        stmt = "POWER_SUM_PRINCIPAL_A"
    elif k % 2 == 0:
        lhs = P
        rhs = bernoulli(k) + Fraction(F * F * k * (k - 1), 6) * bernoulli(k - 2)
        stmt = "POWER_SUM_PRINCIPAL_B"
    else:
        lhs = P
        rhs = Fraction(F * k, 2) * bernoulli(k - 1)
        stmt = "POWER_SUM_PRINCIPAL_C"
    return make_report(stmt, lhs, rhs, p, depth=2, k=k)


def sun_congruence_check(b: int, k: int, chi: QuadChar, p: int) -> CongruenceReport:
    """Depth-2 index-shift congruence for B_{n,chi}/n.

    B_{k(p-1)+b,chi}/(k(p-1)+b) =
        k B_{p-1+b,chi}/(p-1+b) - (k-1)(1 - chi(p) p^(b-1)) B_{b,chi}/b  mod p^2,
    for b not divisible by p-1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if b < 1 or b % (p - 1) == 0:
        raise ValueError(f"b = {b} must be positive and not divisible by p - 1 = {p - 1}")
    if chi.conductor % p == 0:
        raise ValueError(f"p = {p} must not divide the conductor {chi.conductor}")
    n1 = k * (p - 1) + b
    n2 = (p - 1) + b
    lhs = gen_bernoulli(n1, chi) / n1
    euler = 1 - chi(p) * p ** (b - 1)
    rhs = k * gen_bernoulli(n2, chi) / n2 - (k - 1) * euler * gen_bernoulli(b, chi) / b
    return make_report("SUN_INDEX_SHIFT", lhs, rhs, p, depth=2, d=chi.discriminant, k=k)


# -- series-coefficient lemmas ----------------------------------------------


def a1_closed_quadratic_plain_bernoulli(split: CharacterSplit) -> Fraction:
    """Variant reading with the ordinary B_r in the subtracted term.

    Kept only so the suite can document that this reading breaks both the
    dual-path agreement and the |a1|_p < 1 bound.
    """
    p, r, psi = split.p, split.r, split.psi
    euler = 1 - psi(p) * p ** (r - 1)
    return -(gen_bernoulli(3 * r, psi) / 3 - euler * bernoulli(r)) / (2 * r * r)


def lp_principal_value(n: int, p: int) -> Fraction:
    """Interpolation value L_p(1-n, chi_0) = -(1 - p^(n-1)) B_n/n, n = 0 mod (p-1)."""
    if n < 1:
        raise ValueError("interpolation points are integers n >= 1")
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    if n % (p - 1) != 0:
        raise ValueError(
            f"principal-character values need n = 0 mod (p-1); n={n}, p={p}"
        )
    return -(1 - Fraction(p) ** (n - 1)) * bernoulli(n) / n


def zeta_star_value(n: int, p: int) -> Fraction:
    """Pole-corrected zeta value zeta*_p(1-n) = L_p(1-n, chi_0) + R/n.

    Defined at multiples n of p-1; R = 1 - 1/p.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    if n < 1 or n % (p - 1) != 0:
        raise ValueError(f"n must be a positive multiple of p - 1 = {p - 1}, got {n}")
    R = 1 - Fraction(1, p)
    return lp_principal_value(n, p) + R / n


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


def log_surrogate(a: int, p: int) -> Fraction:
    """Rational stand-in for log_p(a), exact to mod p^3.

    Computed as (p*F(a) - p^2*F(a)^2/2)/(p-1) with F the Fermat quotient;
    agreement with the p-adic logarithm to depth 3 is what every later
    coefficient formula relies on.
    """
    if p <= 3:
        raise ValueError(f"log surrogate needs p > 3, got {p}")
    fa = fermat_quotient(a, p)
    return Fraction(p * fa * (2 - p * fa), 2 * (p - 1))
