"""Real quadratic field invariants: fundamental units and class numbers.

Everything is integer arithmetic.  Units come from the continued fraction
of sqrt(d) (or (1+sqrt(d))/2 when d = 1 mod 4, which is essential: the
sqrt(d) expansion can return the cube of the fundamental unit there).
Class numbers come from counting reduction cycles of indefinite binary
quadratic forms, a route that shares no code with the unit computation
or with the congruence machinery it later gets compared against.  Only
the reduced forms with a > 0 are enumerated, and class_number walks them
by rho^2: the reduction step rho flips the sign of a, so each rho-cycle
holds exactly one rho^2-orbit of them.  They come from one b-scan over
the products N = (D - b^2)/4: for D below _WINDOW_MAX_D a walk over the
divisors of N, read from one process-wide table of divisor lists, and a
root sieve above it.

Each fact has one owner, memoized by d: invariants_shell holds (delta, D),
fundamental_unit the unit and class_number (h, h+).  The checks read these
records directly.
"""
from __future__ import annotations

from functools import cache
from math import isqrt
from typing import Iterator, NamedTuple

from .padic import vp
from .primes import divisors, is_squarefree, primes_up_to, sqrt_mod_prime


@cache
def invariants_shell(d: int) -> tuple[int, int]:
    """(delta, D): delta = 1 iff d = 1 mod 4, discriminant D = delta^2 d.

    The one squarefreeness decision per d behind the unit, the class number
    and the character split; memoized by d for the life of the process.
    """
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"d = {d} must be a squarefree integer > 1")
    delta = 1 if d % 4 == 1 else 2
    return delta, delta * delta * d


class UnitData(NamedTuple):
    t: int
    u: int
    delta: int
    norm: int
    cf_period: int


def _cf_states(d: int, s: int, delta: int) -> Iterator[tuple[int, int, int]]:
    """(P, Q, a) states of the continued fraction of (P0 + sqrt d)/Q0."""
    P, Q = (1, 2) if delta == 1 else (0, 1)
    while True:
        a = (P + s) // Q
        yield P, Q, a
        P = a * Q - P
        Q = (d - P * P) // Q


def _product_tree(quotients: list[int]) -> tuple:
    """Product of the partial-quotient matrices ((a, 1), (1, 0)) over
    `quotients`, left to right, as an (A, B, C, E) tuple: neighbours are
    paired as (a b + 1, a, b, 1), and the pairs multiplied in a balanced tree."""
    mats = [(a * b + 1, a, b, 1) for a, b in zip(quotients[::2], quotients[1::2])]
    if len(quotients) % 2:
        mats.append((quotients[-1], 1, 1, 0))
    while len(mats) > 1:
        nxt = []
        for i in range(0, len(mats) - 1, 2):
            a1, b1, c1, e1 = mats[i]
            a2, b2, c2, e2 = mats[i + 1]
            nxt.append((a1 * a2 + b1 * c2, a1 * b2 + b1 * e2,
                        c1 * a2 + e1 * c2, c1 * b2 + e1 * e2))
        if len(mats) % 2:
            nxt.append(mats[-1])
        mats = nxt
    return mats[0]


@cache
def fundamental_unit(d: int) -> UnitData:
    """Fundamental unit (delta/2)(t + u sqrt d) of Q(sqrt d), d squarefree > 1.

    The expansion of (1+sqrt d)/2 resp. sqrt d becomes purely periodic from
    its second complete quotient beta; the cycle matrix (product of the
    partial-quotient matrices over one period) applied to beta gives the
    unit, with norm (-1)^period.  One balanced product tree over the period
    keeps the multi-thousand-digit convergents of large d cheap.  Memoized by d
    for the life of the process.
    """
    delta, _D = invariants_shell(d)
    s = isqrt(d)
    states = _cf_states(d, s, delta)
    next(states)  # the aperiodic head a_0
    P1, Q1, a1 = next(states)
    quotients = [a1]
    for P, Q, a in states:
        if (P, Q) == (P1, Q1):
            break
        quotients.append(a)
    period = len(quotients)
    _A, _B, C, E = _product_tree(quotients)
    x = C * P1 + E * Q1
    y = C
    if delta == 2:
        t, u = x // Q1, y // Q1
        ok = x % Q1 == 0 and y % Q1 == 0
    else:
        t, u = 2 * x // Q1, 2 * y // Q1
        ok = (2 * x) % Q1 == 0 and (2 * y) % Q1 == 0
    norm = -1 if period % 2 else 1
    if not ok or delta * delta * (t * t - d * u * u) != 4 * norm:
        raise AssertionError(f"unit computation failed for d = {d}")
    return UnitData(t=t, u=u, delta=delta, norm=norm, cf_period=period)


def vp_u(d: int, p: int) -> int:
    """p-adic valuation of the u-coefficient of the fundamental unit."""
    return vp(fundamental_unit(d).u, p)


# -- binary quadratic forms --------------------------------------------------


# A form a x^2 + b x y + c y^2 of discriminant D = b^2 - 4ac > 0 is the
# tuple (a, b, c).  D is never a square here, and the form is reduced when
# 0 < b < sqrt D and (2|a| - b)^2 < D < (2|a| + b)^2.


def _reduction_step(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """The standard reduction operator on (a, b, c) of discriminant D, s = isqrt(D);
    it permutes the reduced forms."""
    _a, b, c = form
    b2 = s - ((s + b) % (2 * abs(c)))
    return c, b2, (b2 * b2 - D) // (4 * c)


# Below this discriminant the reduced forms come from the divisor table
# (_window_forms), above it from the root sieve.  The table walk is the
# cheaper one at every D measured.  Per D, best of three over 20 D of each
# size, 2 vCPUs, CPython 3.11, table walk against sieve: 0.013 against
# 0.091 ms near D = 4000, 0.044 against 0.33 ms near 39000, and, with a
# larger table, 0.11 against 0.74 ms near 1.6 * 10^5 and 0.35 against
# 2.0 ms near 10^6.  So the bound marks no time crossover: it caps the
# table, whose entry N serves every N = (D - b^2)/4 < D/4.  Its 10^4 lists
# take about 1.7 MB; a table for D up to 10^6 would take 49 MB.
_WINDOW_MAX_D = 40000
_DIVISOR_TABLE_CAP = (_WINDOW_MAX_D - 1) // 4 + 1

_divs: list[list[int]] = [[]]


def _divisor_lists(n: int) -> list[list[int]]:
    """A list whose entry N is the ascending list of the divisors of N, for
    1 <= N <= n < _DIVISOR_TABLE_CAP.

    One table serves the whole process: it is grown on demand (at least
    doubling, never past _DIVISOR_TABLE_CAP entries) and never shrinks, so
    the list returned may run past n.  The new entries are built aside and
    installed in one assignment, so a concurrent reader sees the old table
    or the new one, both correct.
    """
    global _divs
    divs = _divs
    if n < len(divs):
        return divs
    old = len(divs)
    size = min(max(n + 1, 2 * old), _DIVISOR_TABLE_CAP)
    new: list[list[int]] = [[] for _ in range(old, size)]
    for a in range(1, size):
        for lst in new[-(-old // a) * a - old::a]:  # the multiples of a in [old, size)
            lst.append(a)
    _divs = divs + new
    return _divs


def _reduced_forms(D: int) -> set[tuple[int, int, int]]:
    """The reduced indefinite forms (a, b, c) of discriminant D with a > 0.

    The other half of the reduced forms are their mirrors (-a, b, -c), which
    class_number never needs.  For every admissible b the middle coefficient
    pins a*c = N = (D - b^2)/4.  With s = isqrt(D), a divisor a > 0 of N
    with 2a <= s + b always has (2a - b)^2 < D, so it gives the reduced
    form (a, b, c) exactly when 2a + b > s.  Two enumerations find those
    divisors, chosen from D alone: below _WINDOW_MAX_D a walk over the
    ascending divisors of each N (_window_forms), and above it a root sieve
    that factors all the products at once (_sieved_forms).
    """
    if D < _WINDOW_MAX_D:
        return _window_forms(D)
    return _sieved_forms(D)


def _window_forms(D: int) -> set[tuple[int, int, int]]:
    """_reduced_forms by the divisors a of each N in the window
    s - b < 2a <= s + b: read from the divisor table, which holds every N of
    a D < _WINDOW_MAX_D, and found by trial division past its end."""
    s = isqrt(D)
    divs = _divisor_lists(min((D - 1) // 4, _DIVISOR_TABLE_CAP - 1))
    forms: set[tuple[int, int, int]] = set()
    for b in range(2 - D % 2, s + 1, 2):  # b = D mod 2
        N = (D - b * b) // 4
        lo, hi = (s - b) // 2, (s + b) // 2
        window = divs[N] if N < len(divs) else [a for a in range(lo + 1, hi + 1) if N % a == 0]
        for a in window:
            if a > hi:
                break
            if a > lo:
                forms.add((a, b, -(N // a)))
    return forms


def _sieved_forms(D: int) -> set[tuple[int, int, int]]:
    """_reduced_forms from a root sieve over b: only divisors 2a <= s + b are
    built, and each factor map is dropped once its forms are built."""
    s = isqrt(D)
    fac_of = _sieve_factored_bscan(D, list(range(2 - D % 2, s + 1, 2)))  # b = D mod 2
    forms: set[tuple[int, int, int]] = set()
    while fac_of:
        b, fac = fac_of.popitem()
        N = (D - b * b) // 4
        for a in divisors(fac, (s + b) // 2):
            if 2 * a + b > s:
                forms.add((a, b, -(N // a)))
    return forms


def _sieve_factored_bscan(D: int, bs: list[int]) -> dict[int, dict[int, int]]:
    """Factor (D - b^2)/4 for all b at once by sieving roots of b^2 = D mod p."""
    if not bs:
        return {}
    b0, count = bs[0], len(bs)
    residual = [(D - b * b) // 4 for b in bs]
    fac_of: dict[int, dict[int, int]] = {b: {} for b in bs}
    s = isqrt(D)
    for p in primes_up_to(s // 2 + 1):
        if p == 2:
            # 4 was already divided out; peel remaining powers of 2 directly
            for i, b in enumerate(bs):
                n = residual[i]
                e = 0
                while n % 2 == 0:
                    n //= 2
                    e += 1
                if e:
                    fac_of[b][2] = e
                    residual[i] = n
            continue
        r = sqrt_mod_prime(D % p, p)
        if r is None:
            continue
        inv2 = (p + 1) // 2  # b = b0 + 2i, so i = (root - b0)/2 mod p
        for root in {r % p, (p - r) % p}:
            start = ((root - b0) % p) * inv2 % p
            for i in range(start, count, p):
                n = residual[i]
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                if e:
                    fac_of[bs[i]][p] = e
                    residual[i] = n
    for i, b in enumerate(bs):
        if residual[i] > 1:
            fac_of[b][residual[i]] = fac_of[b].get(residual[i], 0) + 1
    return fac_of


class ClassNumber(NamedTuple):
    h: int
    h_plus: int


@cache
def class_number(d: int) -> ClassNumber:
    """(h, h+) by partitioning the reduced forms of disc(Q(sqrt d)) into cycles.

    The reduction step rho flips the sign of a, and it commutes with the
    mirror (a, b, c) -> (-a, b, -c), so every rho-cycle holds exactly one
    rho^2-orbit of the forms with a > 0, and h+ is the number of those
    orbits.  Each orbit is walked once by rho^2, the principal one of
    (1, b0, c0) first, removing its forms from one shrinking set of the
    a > 0 forms; a step onto a form not in the set raises.  h = h+ when the
    unit has norm -1 and h+/2 otherwise.  The norm is read off the same
    walk without computing the unit: N(eps) = -1 exactly when (-1, b0, -c0)
    lies on the principal cycle, that is when the principal walk also
    removed rho(-1, b0, -c0).  Memoized by d for the life of the process.
    """
    _delta, D = invariants_shell(d)
    s = isqrt(D)
    forms = _reduced_forms(D)
    b0 = s if (s - D) % 2 == 0 else s - 1
    c0 = (b0 * b0 - D) // 4
    mirror_step = _reduction_step((-1, b0, -c0), D, s)
    f, h_plus, norm = (1, b0, c0), 0, 1
    while f is not None:
        h_plus += 1
        g = f
        while g in forms:
            forms.remove(g)
            g = _reduction_step(_reduction_step(g, D, s), D, s)
        if g != f:
            raise AssertionError(f"reduction cycles do not partition the reduced forms for d = {d}")
        if h_plus == 1 and mirror_step not in forms:
            norm = -1
        f = next(iter(forms), None)
    if norm == -1:
        return ClassNumber(h=h_plus, h_plus=h_plus)
    if h_plus % 2:
        raise AssertionError(f"narrow class number {h_plus} should be even when N(eps) = +1")
    return ClassNumber(h=h_plus // 2, h_plus=h_plus)
