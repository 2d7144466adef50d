import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadcong.characters import (
    CharacterSplit,
    QuadChar,
    char_values,
    is_fundamental_discriminant,
    kronecker,
    split_character,
)
from quadcong.primes import primes_up_to
from quadcong.quadfield import is_squarefree

from oracles import kronecker_reference, legendre_squares

SMALL_DISCS = (-3, -4, 5, -7, 8, -8, 12, 13, -11, 21)


def small_chars():
    return [QuadChar(d) for d in SMALL_DISCS]


def test_kronecker_examples():
    assert kronecker(5, 2) == -1
    assert kronecker(12, 35) == 1
    for delta in (-8, -3, 5, 13, 12):
        assert kronecker(delta, 1) == 1


def test_kronecker_against_definition():
    discs = [n for n in range(-60, 61) if is_fundamental_discriminant(n)]
    for delta in discs:
        for n in list(range(-30, 31)) + [97, 121, 210, 1024]:
            assert kronecker(delta, n) == kronecker_reference(delta, n), (delta, n)


def test_legendre_examples():
    """At an odd prime p the Kronecker symbol (a/p) is Legendre's."""
    assert kronecker(2, 7) == 1
    assert kronecker(2, 5) == -1
    assert kronecker(35, 7) == 0


def test_legendre_against_square_enumeration():
    """Acceptance oracle: all odd primes < 100, every residue."""
    for p in primes_up_to(99):
        if p == 2:
            continue
        for a in range(p):
            assert kronecker(a, p) == legendre_squares(a, p), (a, p)


def test_eval_char_examples():
    principal = QuadChar.principal()
    for a in (-5, 0, 1, 6, 97):
        assert principal(a) == 1
    assert QuadChar(-8)(7) == -1
    assert QuadChar(12)(6) == 0
    assert QuadChar(5)(2) == -1


def test_quadchar_validation():
    with pytest.raises(ValueError):
        QuadChar(6)  # 6 = 2 mod 4 is no discriminant
    with pytest.raises(ValueError):
        QuadChar(9)
    with pytest.raises(ValueError):
        QuadChar(0)
    assert QuadChar(-4).conductor == 4
    assert QuadChar(-4).parity == -1
    assert QuadChar(8).parity == 1
    assert QuadChar.principal().conductor == 1


def test_complete_multiplicativity_random_pairs():
    rng = random.Random(20240817)
    for chi in small_chars():
        for _ in range(1000):
            a = rng.randint(-500, 500)
            b = rng.randint(-500, 500)
            assert chi(a * b) == chi(a) * chi(b), (chi.discriminant, a, b)


def test_periodicity():
    for chi in small_chars():
        f = chi.conductor
        for a in range(-2 * f, 2 * f):
            assert chi(a + f) == chi(a)


def test_char_values_sieve_agrees_with_pointwise():
    for chi in small_chars():
        vals = char_values(chi, 300)
        for a in range(301):
            assert vals[a] == chi(a), (chi.discriminant, a)


def test_complete_character_sums_vanish():
    """Sum over a full period is zero for every non-principal character.

    Exhaustive for |disc| <= 2000; seeded random sample of 150 larger
    discriminants up to the stated 10^4 bound for runtime's sake.
    """
    discs = [n for n in range(-2000, 2001) if is_fundamental_discriminant(n)]
    rng = random.Random(7)
    big = [n for n in range(-10000, 10001) if abs(n) > 2000 and is_fundamental_discriminant(n)]
    discs += rng.sample(big, 150)
    for delta in discs:
        chi = QuadChar(delta)
        vals = char_values(chi, chi.conductor)
        assert sum(vals[1:]) == 0, delta


def test_split_examples():
    s = split_character(14, 7)
    assert (s.delta, s.D, s.psi.discriminant) == (2, 56, -8)
    assert s.psi.parity == -1 and s.psi.conductor == 8
    s = split_character(15, 5)
    assert (s.D, s.psi.discriminant, s.psi.parity) == (60, 12, 1)
    s = split_character(65, 5)
    assert (s.delta, s.psi.discriminant) == (1, 13)
    # prime d: psi collapses to the principal character or disc -4
    assert split_character(13, 13).psi.is_principal
    assert split_character(7, 7).psi.discriminant == -4


def test_split_validation():
    with pytest.raises(ValueError):
        split_character(12, 3)  # p <= 3
    with pytest.raises(ValueError):
        split_character(12, 5)  # p does not divide d
    with pytest.raises(ValueError):
        split_character(20, 5)  # not squarefree
    with pytest.raises(ValueError):
        split_character(25, 5)


def test_split_identity_full_grid():
    """chi_D(a) = (a/p) psi(a) for every squarefree d = p m <= 3000, 3 < p <= 200,
    at every a = 1..D coprime to D (a full period of chi_D)."""
    count = 0
    for p in primes_up_to(200):
        if p <= 3:
            continue
        for m in range(1, 3000 // p + 1):
            d = p * m
            if d > 1 and m % p != 0 and is_squarefree(d):
                split = split_character(d, p)
                assert isinstance(split, CharacterSplit)
                D = split.D
                chiv = char_values(split.chi_d, D)
                psiv = char_values(split.psi, D)
                for a in range(1, D + 1):
                    if gcd(a, D) == 1:
                        assert chiv[a] == kronecker(a, p) * psiv[a], (a, d, p)
                count += 1
    assert count > 1000


def test_split_parity_law():
    """psi(-1) = (-1)^((p-1)/2) for every split."""
    for p in (5, 7, 11, 13, 17, 19):
        for m in range(1, 400 // p + 1):
            d = p * m
            if d <= 1 or m % p == 0 or not is_squarefree(d):
                continue
            s = split_character(d, p)
            assert s.psi(-1) == (-1) ** s.r, (d, p)
            assert s.psi.conductor == s.delta ** 2 * s.m


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([q for q in primes_up_to(1000) if q >= 5]))
def test_split_laws_for_large_d(data, p):
    """For squarefree d = p m up to 10^12: p* divides D, psi has conductor
    delta^2 m and parity (-1)^r, and chi_D is the character of D.  The split
    relies on the first two without checking them at run time."""
    m = data.draw(st.integers(1, 10 ** 12 // p), label="m")
    d = p * m
    assume(m % p != 0 and is_squarefree(d))
    s = split_character(d, p)
    pstar = p if p % 4 == 1 else -p
    assert (s.delta, s.m, s.D) == ((1 if d % 4 == 1 else 2), m, s.delta ** 2 * d)
    assert s.psi.discriminant * pstar == s.D
    assert s.psi.conductor == s.delta ** 2 * m
    assert s.chi_d.discriminant == s.D
    assert s.psi(-1) == (-1) ** s.r
