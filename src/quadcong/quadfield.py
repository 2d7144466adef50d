"""Real quadratic field invariants: fundamental units and class numbers.

Everything is integer arithmetic.  Units come from the continued fraction
of sqrt(d) (or (1+sqrt(d))/2 when d = 1 mod 4, which is essential: the
sqrt(d) expansion can return the cube of the fundamental unit there).
Class numbers come from counting reduction cycles of indefinite binary
quadratic forms, a route that shares no code with the unit computation
or with the congruence machinery it later gets compared against.  The
reduced forms come from one b-scan whose products (D - b^2)/4 are
factored by a root sieve at every size of D.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Iterator, NamedTuple

from .padic import vp
from .primes import divisors, is_prime, is_squarefree, primes_up_to, sqrt_mod_prime


def invariants_shell(d: int) -> tuple[int, int]:
    """(delta, D): delta = 1 iff d = 1 mod 4, discriminant D = delta^2 d."""
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


def _product_tree(mats: list) -> tuple:
    """Product of 2x2 matrices given as (A, B, C, E) tuples, left to right."""
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
    unit, with norm (-1)^period.  Batched into a balanced product so the
    multi-thousand-digit convergents of large d stay cheap.  Memoized by d
    for the life of the process.
    """
    delta, _D = invariants_shell(d)
    s = isqrt(d)
    states = _cf_states(d, s, delta)
    next(states)  # the aperiodic head a_0
    P1, Q1, a1 = next(states)
    batch: list[tuple] = [(a1, 1, 1, 0)]
    stack: list[tuple] = []
    period = 1
    for P, Q, a in states:
        if (P, Q) == (P1, Q1):
            break
        batch.append((a, 1, 1, 0))
        period += 1
        if len(batch) >= 2048:
            stack.append(_product_tree(batch))
            batch = []
    if batch:
        stack.append(_product_tree(batch))
    _A, _B, C, E = _product_tree(stack) if len(stack) > 1 else stack[0]
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


@dataclass(frozen=True)
class QuadraticForm:
    """Integral binary quadratic form a x^2 + b x y + c y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        """Reduced as an indefinite form: 0 < b < sqrt D, |sqrt D - 2|a|| < b."""
        D = self.discriminant
        return D > 0 and self.b > 0 and self.b * self.b < D and _in_window(self.a, self.b, D)

    def reduction_step(self) -> "QuadraticForm":
        """The standard reduction operator; permutes the reduced forms."""
        D = self.discriminant
        return QuadraticForm(*_reduction_step((self.a, self.b, self.c), D, isqrt(D)))


def _in_window(a: int, b: int, D: int) -> bool:
    """The reduction window (2|a| + b)^2 > D > (2|a| - b)^2."""
    ta = 2 * abs(a)
    return (ta + b) ** 2 > D > (ta - b) ** 2


def _reduction_step(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """The standard reduction operator on (a, b, c) of discriminant D, s = isqrt(D)."""
    _a, b, c = form
    b2 = s - ((s + b) % (2 * abs(c)))
    return c, b2, (b2 * b2 - D) // (4 * c)


def _reduced_forms(D: int) -> set[tuple[int, int, int]]:
    """All reduced indefinite forms of discriminant D, via the b-scan.

    For every admissible b the middle coefficient pins a*c = (b^2 - D)/4;
    the divisors of that product lying in the reduction window give the
    forms.  The products are factored all at once by a root sieve over b,
    at every size of D.
    """
    s = isqrt(D)
    bstart = 2 if D % 4 == 0 else 1
    fac_of = _sieve_factored_bscan(D, list(range(bstart, s + 1, 2)))
    forms: set[tuple[int, int, int]] = set()
    for b, fac in fac_of.items():
        N = (D - b * b) // 4
        for a in divisors(fac):
            if _in_window(a, b, D):
                c = -(N // a)
                forms.add((a, b, c))
                forms.add((-a, b, -c))
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

    h+ is the number of reduction cycles; h = h+ when the fundamental unit
    has norm -1 and h+/2 otherwise.  The norm is read off the same cycles
    without computing the unit: N(eps) = -1 exactly when the principal
    form (1, b0, c0) and its negative (-1, b0, -c0) share a cycle.
    Memoized by d for the life of the process.
    """
    delta, D = invariants_shell(d)
    s = isqrt(D)
    forms = _reduced_forms(D)
    cycle_of: dict[tuple[int, int, int], int] = {}
    cycles = 0
    for f in forms:
        if f in cycle_of:
            continue
        cycles += 1
        g = f
        while True:
            cycle_of[g] = cycles
            g = _reduction_step(g, D, s)
            if g == f:
                break
    if cycle_of.keys() != forms:
        raise AssertionError(f"reduction cycles do not partition the reduced forms for d = {d}")
    h_plus = cycles
    b0 = s if (s - D) % 2 == 0 else s - 1
    c0 = (b0 * b0 - D) // 4
    if cycle_of[(1, b0, c0)] == cycle_of[(-1, b0, -c0)]:
        return ClassNumber(h=h_plus, h_plus=h_plus)
    if h_plus % 2:
        raise AssertionError(f"narrow class number {h_plus} should be even when N(eps) = +1")
    return ClassNumber(h=h_plus // 2, h_plus=h_plus)


@dataclass(frozen=True)
class FieldInvariants:
    """Joint record of the invariants of Q(sqrt d) (optionally at a prime p | d)."""

    d: int
    delta: int
    D: int
    t: int
    u: int
    unit_norm: int
    h: int
    h_plus: int
    cf_period: int
    p: int | None = None
    m: int | None = None

    @property
    def u_bit_length(self) -> int:
        return self.u.bit_length()


def field_invariants(d: int, p: int | None = None) -> FieldInvariants:
    """The invariants of Q(sqrt d), and m = d/p for a prime p | d.

    The read path of every check that needs the unit or the class number;
    both are memoized by d, so a d seen before costs no recomputation.
    """
    delta, D = invariants_shell(d)
    unit = fundamental_unit(d)
    h, h_plus = class_number(d)
    m = None
    if p is not None:
        if not is_prime(p) or d % p != 0:
            raise ValueError(f"p = {p} must be a prime divisor of d = {d}")
        m = d // p
    return FieldInvariants(
        d=d, delta=delta, D=D, t=unit.t, u=unit.u, unit_norm=unit.norm,
        h=h, h_plus=h_plus, cf_period=unit.cf_period, p=p, m=m,
    )
