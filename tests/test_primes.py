from math import isqrt

from quadcong.primes import (divisors, factorize, is_prime, is_squarefree, primes_up_to,
                             smallest_prime_factors)


def test_is_prime_agrees_with_the_sieve():
    """Below 41^2 trial division decides; above it Miller-Rabin does."""
    primes = set(primes_up_to(19999))
    for n in range(-2, 20000):
        assert is_prime(n) == (n in primes), n


def test_divisors_below_a_limit():
    for n in (1, 12, 360, 2 * 3 * 5 * 7 * 11 * 13, 2 ** 10 * 3 ** 4):
        for limit in (0, 1, 7, 60, n // 3, n, 10 * n):
            want = [a for a in range(1, min(n, limit) + 1) if n % a == 0]
            assert sorted(divisors(factorize(n), limit)) == want, (n, limit)


def test_shared_sieve_grows_and_stays_correct():
    small = smallest_prime_factors(50)
    big = smallest_prime_factors(3 * len(small))
    assert len(big) > 3 * len(small) - 1 and big[:len(small)] == small
    for a in range(2, len(big)):
        q = big[a]
        assert a % q == 0 and is_prime(q) and all(a % s for s in range(2, q)), a


def test_is_squarefree_agrees_with_the_factorization():
    """Every n below 2 * 10^5, and products of two or three large primes with
    and without a repeated factor, against the exponents of factorize."""
    for n in range(1, 200_000):
        assert is_squarefree(n) == all(e == 1 for e in factorize(n).values()), n
    p, q, r = 4462771, 336508499, 1_000_003
    for n, squarefree in ((p * q, True), (p * p, False), (3 * p * p, False), (p * q * r, True),
                          (p * r * r, False), (q * q * r, False), (20256129307923, True),
                          (125854178626, True), (4 * 20256129307923, False)):
        assert is_squarefree(n) == squarefree, n
    assert [n for n in range(1, 50) if is_squarefree(n)] == [
        n for n in range(1, 50) if all(n % (k * k) for k in range(2, isqrt(n) + 1))]
