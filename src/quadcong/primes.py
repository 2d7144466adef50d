"""Primality, factorization, and sieve utilities on plain integers."""
from __future__ import annotations

from math import isqrt

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # a composite n < 41^2 has a prime factor <= 37
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a bytearray sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i, v in enumerate(sieve) if v]


_spf: list[int] = [0, 1]


def smallest_prime_factors(n: int) -> list[int]:
    """A list whose entry a is the smallest prime factor of a, for 2 <= a <= n.

    One sieve serves the whole process: it is grown on demand (at least
    doubling) and never shrinks, so the list returned may run past n.  A
    grown sieve is built aside and installed in one assignment, so a
    concurrent reader sees the old list or the new one, both correct.
    """
    global _spf
    spf = _spf
    if n < len(spf):
        return spf
    size = max(n + 1, 2 * len(spf))
    spf = list(range(size))
    for p in range(2, isqrt(size - 1) + 1):
        if spf[p] == p:
            for q in range(p * p, size, p):
                if spf[q] == q:
                    spf[q] = p
    _spf = spf
    return spf


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {prime: exponent}.

    Suitable for n up to ~10^14 provided the second-largest prime factor is
    small (true for every input this package feeds it); guarded by a
    Miller-Rabin shortcut once the remaining cofactor is prime.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    fac: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    f = 7
    # wheel over 6k+-1
    step = 4
    while f * f <= n:
        if n % f == 0:
            fac[f] = fac.get(f, 0) + 1
            n //= f
            if is_prime(n):
                break
        else:
            f += step
            step = 6 - step
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def is_squarefree(d: int) -> bool:
    """Whether no square of a prime divides d, by trial division up to the
    cube root of the part m of d left undivided.

    Each prime below the trial bound is divided out once, and d is not
    squarefree if it divides again.  When the bound f has f^3 > m, every
    prime factor of m is at least f, so m has at most two of them: m is 1,
    a prime, a product of two distinct primes or the square of a prime, and
    only the last is a perfect square.
    """
    if d < 1:
        raise ValueError("is_squarefree expects a positive integer")
    m = d
    for p in (2, 3, 5):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
    f, step = 7, 4  # the wheel over 6k+-1, as in factorize
    while f * f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return False
        f += step
        step = 6 - step
    r = isqrt(m)
    return m == 1 or r * r != m


def divisors(fac: dict[int, int], limit: int) -> list[int]:
    """The positive divisors <= limit from a factorization map (unsorted).

    A divisor past the limit is not extended by further prime powers, so
    the work is bounded by the divisors kept, not by all of them.
    """
    divs = [1] if limit >= 1 else []
    for p, e in fac.items():
        ext = []
        for d in divs:
            for _ in range(e):
                d *= p
                if d > limit:
                    break
                ext.append(d)
        divs.extend(ext)
    return divs


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod odd prime p via Tonelli-Shanks, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q*2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
