"""Independent reference implementations used only as test oracles.

Nothing here may import from the algorithm paths it is used to check;
the only production modules imported are `quadcong.characters` and
`quadcong.padic`, which tests/test_oracle_independence.py enforces.
Bernoulli numbers come from the Akiyama-Tanigawa triangle, the binomial
recurrence and tangent numbers (`tangent_bernoulli`), three methods that
production, which certifies plain B_n from zeta(n), does not use; symbols
from literal square enumeration, power sums from literal summation, units
from exhaustive search, class numbers from ideal enumeration with
principality decided by norm-form scans.  `a_coefficients_literal` reads
production's character table and Fermat quotient, both checked on their
own elsewhere, and sums the L-series terms one `Fraction` at a time.
`pi_interval` uses the Bailey-Borwein-Plouffe series, not production's
Machin formula.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt

import numpy as np

from quadcong.characters import QuadChar, char_values
from quadcong.padic import fermat_quotient


def bernoulli_akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n via the Akiyama-Tanigawa triangle, mapped to B_1 = -1/2."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]  # triangle yields the +1/2 convention
    return out


def bernoulli_binomial_recurrence(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{j=0}^{m} C(m+1, j) B_j = 0, with B_1 = -1/2.

    Walks only the even indices plus the fixed j = 1 term; odd indices
    above 1 are zero.
    """
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    if n >= 1:
        out[1] = Fraction(-1, 2)
    for m in range(2, n + 1, 2):
        acc = Fraction(-(m + 1), 2)  # j = 1 term: C(m+1,1) * B_1
        binom = 1  # C(m+1, 0)
        for j in range(0, m - 1, 2):
            acc += binom * out[j]
            binom = binom * (m + 1 - j) * (m - j) // ((j + 1) * (j + 2))
        out[m] = -acc / (m + 1)
    return out


def tangent_bernoulli(m: int) -> Fraction:
    """B_{2m} from tangent numbers (Seidel triangle), m >= 1."""
    N = m
    T = [0] * (N + 1)
    T[1] = 1
    for n in range(2, N + 1):
        T[n] = (n - 1) * T[n - 1]
    for n in range(2, N + 1):
        for k in range(n, N + 1):
            T[k] = (k - n) * T[k - 1] + (k - n + 2) * T[k]
    sign = 1 if m % 2 == 1 else -1
    return sign * Fraction(2 * m * T[m], (4 ** m) * (4 ** m - 1))


def pi_interval(bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= pi <= hi and hi - lo < 2^-bits, from the
    Bailey-Borwein-Plouffe series sum_k 16^-k (4/(8k+1) - 2/(8k+4) - 1/(8k+5)
    - 1/(8k+6)).  Every term is positive and below 4/(8k+1) 16^-k, so the
    tail after K terms is below 16^-K."""
    K = bits // 4 + 1
    s = sum(Fraction(1, 16 ** k) * (Fraction(4, 8 * k + 1) - Fraction(2, 8 * k + 4)
                                    - Fraction(1, 8 * k + 5) - Fraction(1, 8 * k + 6))
            for k in range(K))
    return s, s + Fraction(1, 16 ** K)


def legendre_squares(a: int, p: int) -> int:
    """Legendre symbol by enumerating the squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def kronecker_reference(delta: int, n: int) -> int:
    """Kronecker symbol from the definition: factor n, multiply pieces."""
    if n == 0:
        return 1 if abs(delta) == 1 else 0
    res = 1
    if n < 0:
        n = -n
        if delta < 0:
            res = -res
    while n % 2 == 0:
        n //= 2
        if delta % 2 == 0:
            return 0
        res *= 1 if delta % 8 in (1, 7) else -1
    f = 3
    while f * f <= n:
        while n % f == 0:
            n //= f
            res *= legendre_squares(delta, f)
        f += 2
    if n > 1:
        res *= legendre_squares(delta, n)
    return res


def gen_bernoulli_series(n: int, f: int, chi_vals) -> Fraction:
    """B_{n,chi} by dividing the generating function's power series.

    numerator  sum_a chi(a) t e^{at}, denominator e^{ft} - 1; both series
    are divided by t first, then the quotient is expanded to order n.
    """
    order = n + 1
    num = [Fraction(0)] * order
    fact = [1] * (order + 1)
    for j in range(1, order + 1):
        fact[j] = fact[j - 1] * j
    for a in range(1, f + 1):
        cv = chi_vals(a)
        if cv:
            for j in range(order):  # coefficient of t^j in chi(a) e^{at}
                num[j] += cv * Fraction(a ** j, fact[j])
    den = [Fraction(f ** (j + 1), fact[j + 1]) for j in range(order)]
    q = [Fraction(0)] * order
    for j in range(order):
        acc = num[j]
        for i in range(j):
            acc -= q[i] * den[j - i]
        q[j] = acc / den[0]
    return q[n] * fact[n]


def a_coefficients_literal(chi: QuadChar, p: int) -> tuple[Fraction, Fraction, Fraction]:
    """(a_{-1}, a_0, a_1) of L_p(1-s, chi) by the per-term Fraction sums over a = 1..F.

    F is p for the principal character and the conductor otherwise; each
    term keeps 1/a as a Fraction and log_p as its depth-3 surrogate
    (p f - p^2 f^2/2)/(p - 1), f the Fermat quotient of a.
    """
    F = p if chi.is_principal else chi.conductor
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
        term0 = Fraction(p * fa * (2 - p * fa), 2 * (p - 1)) - x / 2 - x * x / 12
        term1 = c_sq * fa * fa + x * x / 12 - c_lin * fa * x
        if cv == 1:
            am1 += 1
            a0 += term0
            a1 += term1
        else:
            am1 -= 1
            a0 -= term0
            a1 -= term1
    return -am1 / F, -a0 / F, -a1 / F


def stirling_poly_row(j: int) -> list[int]:
    """Coefficients of x(x-1)...(x-j+1); index k holds S(j,k)."""
    poly = [1]
    for i in range(j):
        shifted = [0] + poly
        scaled = [-i * c for c in poly] + [0]
        poly = [s + t for s, t in zip(shifted, scaled)]
    return poly


def pell_min_solution(d: int, u_stop: int | None = None):
    """Smallest (t, u) with t^2 - d u^2 = +-4/delta'^2-normalized target.

    Scans u = 1, 2, ... checking both norm signs exactly; at equal u the
    smaller t wins (d = 5 has solutions of both signs at u = 1).  Pure
    Python; use pell_solutions_upto for large ranges.
    """
    tgt = 4 if d % 4 == 1 else 1
    u = 0
    while True:
        u += 1
        if u_stop is not None and u > u_stop:
            return None
        hits = []
        for s in (tgt, -tgt):
            n = d * u * u + s
            if n >= 0:
                r = isqrt(n)
                if r * r == n:
                    hits.append((r, u, -1 if s > 0 else 1))
        if hits:
            t, u, norm = min(hits)
            return t, u, norm


_PELL_EXACT_RANGE = 200_000


@cache
def pell_solutions_upto(d: int, u_max: int) -> tuple[tuple[int, int, int], ...]:
    """All (t, u, norm) with u <= u_max; exact scan first, filtered scan above.

    Up to u = 2*10^5 every u is checked exactly.  Beyond that a float
    filter keeps u with frac(u sqrt d) within 1e-4 of an integer; a true
    solution deviates by at most 2/u < 1e-5 there and the float error is
    below 1e-5, so no solution can slip through, and each candidate is
    verified exactly before being reported.  Memoized, as a tuple, because
    two tests search the same (d, u_max).
    """
    tgt = 4 if d % 4 == 1 else 1

    def exact_hits(u: int):
        for s in (tgt, -tgt):
            n = d * u * u + s
            if n >= 0:
                r = isqrt(n)
                if r * r == n:
                    yield (r, u, -1 if s > 0 else 1)

    out = []
    for u in range(1, min(u_max, _PELL_EXACT_RANGE) + 1):
        out.extend(exact_hits(u))
    if u_max <= _PELL_EXACT_RANGE:
        return tuple(out)
    sq = np.sqrt(np.float64(d))
    chunk = 1 << 22
    lo = _PELL_EXACT_RANGE + 1
    while lo <= u_max:
        hi = min(u_max, lo + chunk - 1)
        us = np.arange(lo, hi + 1, dtype=np.float64)
        frac = us * sq
        frac -= np.floor(frac)
        for i in np.nonzero((frac < 1e-4) | (frac > 1 - 1e-4))[0]:
            out.extend(exact_hits(int(lo + i)))
        lo = hi + 1
    return tuple(out)


# -- ideal-theoretic class number oracle --------------------------------------


def _ideal_reps(D: int) -> list[tuple[int, int, int]]:
    """Primitive ideals (norm a, b) up to the Minkowski bound, as forms."""
    M = isqrt(D) // 2
    reps = set()
    for a in range(1, M + 1):
        for b in range(4 * a):
            if (b * b - D) % (4 * a) == 0:
                c = (b * b - D) // (4 * a)
                if gcd(gcd(a, b), abs(c)) == 1:
                    reps.add((a, b % (2 * a)))
    out = []
    for a, b in sorted(reps):
        out.append((a, b, (b * b - D) // (4 * a)))
    return out


def _compose(f1, f2, D):
    """Gauss composition of primitive forms of the same discriminant."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), g)
    j = w
    s = a1 // w
    t = a2 // w
    u = g // w
    A = t * u
    B = h * u + s * c1
    mmod = s * t
    gg = gcd(A, mmod) or 1
    if B % gg:
        raise ArithmeticError("composition: congruence unsolvable")
    A2, B2, m2 = A // gg, B // gg, mmod // gg
    k0 = (B2 * pow(A2, -1, m2)) % m2 if m2 > 1 else 0
    for step in range(gg):
        k = k0 + step * m2
        if (t * k - h) % s == 0 and (t * u * k - h * u - c1 * s) % (s * t) == 0:
            break
    else:
        raise ArithmeticError("composition: no admissible k")
    l = (t * k - h) // s
    mq = (t * u * k - h * u - c1 * s) // (s * t)
    A3 = s * t
    B3 = j * u - (k * t + l * s)
    C3 = k * l - j * mq
    if B3 * B3 - 4 * A3 * C3 != D:
        raise ArithmeticError("composition: discriminant not preserved")
    return A3, B3, C3


def _represents_unit(form, D: int, eps_bound: int) -> bool:
    """Does the form represent +1 or -1?  Exhaustive in y up to the unit bound.

    A representation a x^2 + b x y + c y^2 = +-1 forces D y^2 +- 4a to be a
    square r^2 with 2a | (-b y +- r); all candidate y are swept with an
    int64-exact vectorized square test (the oracle only serves d < 100, so
    the values stay far inside int64).
    """
    a, b, _c = form
    if abs(a) == 1:
        return True
    Y = isqrt(abs(a)) * (eps_bound + 2) // isqrt(D) + 2
    if D * (Y + 1) ** 2 + 4 * abs(a) >= 2 ** 62:
        raise ValueError("principality scan out of the int64-safe range")
    chunk = 1 << 21
    lo = 0
    while lo <= Y:
        hi = min(Y, lo + chunk - 1)
        ys = np.arange(lo, hi + 1, dtype=np.int64)
        dy2 = D * ys * ys
        for s in (4 * a, -4 * a):
            ns = dy2 + s
            ok = ns >= 0
            rs = np.sqrt(ns.clip(min=0).astype(np.float64)).round().astype(np.int64)
            # exact square test with a +-1 guard band around the rounding
            hit = np.zeros_like(ok)
            for off in (-1, 0, 1):
                rr = rs + off
                hit |= ok & (rr >= 0) & (rr * rr == ns)
            for i in np.nonzero(hit)[0]:
                y = int(ys[i])
                n = D * y * y + s
                r = isqrt(n)
                if r * r == n:
                    for sg in (r, -r):
                        if (-b * y + sg) % (2 * a) == 0:
                            return True
        lo = hi + 1
    return False


def ideal_class_number(d: int, t: int, u: int, delta: int) -> int:
    """Wide class number by ideal enumeration + principality search.

    Ideals up to the Minkowski bound represent every class; I ~ J is
    decided by whether the composition of I with the conjugate of J
    represents a unit.  (t, u, delta) describe the fundamental unit,
    needed only to bound the principality search.
    """
    D = (1 if d % 4 == 1 else 2) ** 2 * d
    eps_bound = (t + u * (isqrt(d) + 1)) // delta + 2
    forms = _ideal_reps(D)
    n = len(forms)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            aj, bj, cj = forms[j]
            comp = _compose(forms[i], (aj, -bj, cj), D)
            if _represents_unit(comp, D, eps_bound):
                parent[find(j)] = find(i)
    return len({find(i) for i in range(n)})
