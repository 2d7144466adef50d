from quadcong.primes import is_prime, primes_up_to


def test_is_prime_agrees_with_the_sieve():
    """Below 41^2 trial division decides; above it Miller-Rabin does."""
    primes = set(primes_up_to(19999))
    for n in range(-2, 20000):
        assert is_prime(n) == (n in primes), n
