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
    if d < 1:
        raise ValueError("is_squarefree expects a positive integer")
    return all(e == 1 for e in factorize(d).values()) if d > 1 else True


def divisors(fac: dict[int, int]) -> list[int]:
    """All positive divisors from a factorization map (unsorted)."""
    divs = [1]
    for p, e in fac.items():
        pe = 1
        ext = []
        for _ in range(e):
            pe *= p
            ext.extend(d * pe for d in divs)
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
