"""Quadratic Dirichlet characters through the Kronecker symbol.

A character is indexed by a fundamental discriminant; evaluation is
kronecker(disc, n).  The principal character uses the sentinel
discriminant 1 (conductor 1, value 1 everywhere).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .primes import is_prime, is_squarefree, smallest_prime_factors
from .quadfield import invariants_shell


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for arbitrary integers, standard conventions."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    res = 1
    if n < 0:
        n = -n
        if a < 0:
            res = -res
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                res = -res
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                res = -res
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            res = -res
        a %= n
    return res if n == 1 else 0


def is_fundamental_discriminant(n: int) -> bool:
    """True for discriminants of quadratic fields (the sentinel 1 is excluded)."""
    if n == 0 or n == 1:
        return False
    if n % 4 == 1:  # Python mod keeps this correct for negative n
        return is_squarefree(abs(n))
    if n % 4 == 0:
        m = n // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


@dataclass(frozen=True)
class QuadChar:
    """Primitive quadratic character of a fundamental discriminant.

    discriminant = 1 denotes the principal character (conductor 1,
    identically 1 -- including on arguments sharing a factor with
    anything, matching the convention used throughout).
    """

    discriminant: int

    def __post_init__(self) -> None:
        if self.discriminant != 1 and not is_fundamental_discriminant(self.discriminant):
            raise ValueError(f"{self.discriminant} is not a fundamental discriminant")

    @classmethod
    def principal(cls) -> "QuadChar":
        return cls(1)

    @property
    def is_principal(self) -> bool:
        return self.discriminant == 1

    @property
    def conductor(self) -> int:
        return 1 if self.is_principal else abs(self.discriminant)

    @property
    def parity(self) -> int:
        """chi(-1): +1 (even) for positive discriminant, -1 (odd) for negative."""
        return 1 if self.discriminant > 0 else -1

    def __call__(self, a: int) -> int:
        """chi(a); zero whenever gcd(a, conductor) > 1, and 1 everywhere if principal."""
        if self.is_principal:
            return 1
        return kronecker(self.discriminant, a)


def char_values(chi: QuadChar, n: int) -> list[int]:
    """[chi(0), chi(1), ..., chi(n)] built on the shared smallest-prime-factor sieve.

    Complete multiplicativity of the bottom argument of the Kronecker
    symbol lets us evaluate only at primes; at an odd prime q the symbol
    is Legendre's, (D/q) = D^((q-1)/2) mod q by Euler's criterion.
    """
    if chi.is_principal:
        return [1] * (n + 1)
    disc = chi.discriminant
    spf = smallest_prime_factors(n)
    vals = [0] * (n + 1)
    if n >= 1:
        vals[1] = 1
    if n >= 2:
        vals[2] = kronecker(disc, 2)
    for a in range(3, n + 1):
        q = spf[a]
        if q == a:
            e = pow(disc, (a - 1) >> 1, a)
            vals[a] = -1 if e == a - 1 else e
        else:
            vals[a] = vals[q] * vals[a // q]
    return vals


@dataclass(frozen=True)
class CharacterSplit:
    """Factorization chi_D = (./p) * psi of the character of Q(sqrt(d)), d = p*m.

    psi is the primitive quadratic character of discriminant D/p*, p* =
    (-1)^((p-1)/2) p.  For squarefree d = p m with p not dividing m, p*
    divides D and psi has conductor delta^2 * m by construction; tests pin
    both laws.  chi_d is built only when read.
    """

    d: int
    p: int
    m: int
    delta: int
    psi: QuadChar

    @property
    def D(self) -> int:
        return self.delta * self.delta * self.d

    @property
    def chi_d(self) -> QuadChar:
        return QuadChar(self.D)

    @property
    def r(self) -> int:
        return (self.p - 1) // 2


@cache
def split_character(d: int, p: int) -> CharacterSplit:
    """Split the character of Q(sqrt(d)) at the prime p | d.

    Requires d squarefree, d = p*m with p > 3 prime and p coprime to m.
    Memoized by (d, p) for the life of the process.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError(f"split needs a prime p > 3, got {p}")
    if d <= 1 or d % p != 0:
        raise ValueError(f"p = {p} must divide d = {d}")
    delta, D = invariants_shell(d)
    pstar = p if p % 4 == 1 else -p
    return CharacterSplit(d=d, p=p, m=d // p, delta=delta, psi=QuadChar(D // pstar))
