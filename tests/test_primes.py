from quadcong.primes import divisors, factorize, is_prime, primes_up_to, smallest_prime_factors


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
