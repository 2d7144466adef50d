from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadcong.padic import INF, difference_verdict, fermat_quotient, unit_log_series, vp

from lemmas import log_surrogate

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

nonzero_fractions = st.fractions(
    min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6
).filter(lambda x: x != 0)


@settings(max_examples=200, deadline=None)
@given(x=st.fractions(max_denominator=10 ** 9))
def test_scalar_type_invariants(x):
    """The universal scalar keeps lowest terms and a positive denominator."""
    from math import gcd

    assert x.denominator > 0
    assert gcd(x.numerator, x.denominator) == 1
    assert Fraction(0) == Fraction(0, 1)


def test_vp_examples():
    assert vp(50, 5) == 2
    assert vp(Fraction(5, 8), 2) == -3
    assert vp(0, 7) == INF


def test_vp_rejects_composite_p():
    with pytest.raises(ValueError):
        vp(10, 6)


@settings(max_examples=300, deadline=None)
@given(x=nonzero_fractions, y=nonzero_fractions, p=st.sampled_from(SMALL_PRIMES))
def test_vp_multiplicative_and_ultrametric(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)
    assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


def test_is_p_integral():
    assert vp(Fraction(-1, 12), 5) >= 0
    assert vp(Fraction(1, 5), 5) < 0
    assert vp(0, 3) >= 0


def test_congruent_examples():
    # 2 + 1/12 = 25/12 has valuation 2 at p = 5
    assert difference_verdict(2, Fraction(-1, 12), 5, 1)[1]
    assert difference_verdict(2, Fraction(-1, 12), 5, 2)[1]
    assert not difference_verdict(1, 0, 5, 1)[1]


@settings(max_examples=200, deadline=None)
@given(
    x=st.fractions(max_denominator=1000),
    y=st.fractions(max_denominator=1000),
    z=st.fractions(max_denominator=1000),
    p=st.sampled_from((3, 5, 7)),
    k=st.sampled_from((1, 2, 3)),
)
def test_congruent_equivalence_and_depth(x, y, z, p, k):
    assert difference_verdict(x, x, p, k)[1]
    if difference_verdict(x, y, p, k)[1]:
        assert difference_verdict(y, x, p, k)[1]
        if difference_verdict(y, z, p, k)[1]:
            assert difference_verdict(x, z, p, k)[1]
    if k > 1 and difference_verdict(x, y, p, k)[1]:
        assert difference_verdict(x, y, p, k - 1)[1]


def _rational_with_p_powers(p, draw):
    """A rational whose numerator and denominator each carry a power of p."""
    num = draw(st.integers(-10 ** 6, 10 ** 6)) * p ** draw(st.integers(0, 6))
    den = draw(st.integers(1, 10 ** 6)) * p ** draw(st.integers(0, 6))
    return Fraction(num, den)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from((2, 3, 5, 7, 11)), depth=st.integers(0, 4),
       same=st.booleans())
def test_difference_verdict_is_the_valuation_of_the_difference(data, p, depth, same):
    """The unreduced-difference read equals vp of the reduced difference,
    INF (holding at every depth) when a == b."""
    a = _rational_with_p_powers(p, data.draw)
    b = a if same else _rational_with_p_powers(p, data.draw)
    want = vp(a - b, p)
    assert difference_verdict(a, b, p, depth) == (want, want >= depth)
    assert difference_verdict(a.numerator, b, p, depth)[0] == vp(a.numerator - b, p)  # an int side
    if same:
        assert difference_verdict(a, b, p, depth) == (INF, True)


def test_difference_verdict_rejects_composite_p():
    with pytest.raises(ValueError):
        difference_verdict(Fraction(1, 3), 2, 9, 1)
    with pytest.raises(ValueError):
        difference_verdict(5, 5, 1, 1)


def test_fermat_quotient_examples():
    assert fermat_quotient(2, 5) == 3
    assert type(fermat_quotient(2, 5)) is int
    assert fermat_quotient(3, 7) == 104
    for p in (5, 7, 11):
        assert fermat_quotient(1, p) == 0
    with pytest.raises(ValueError):
        fermat_quotient(10, 5)


def test_fermat_quotient_additivity():
    """F(a) + F(b) = F(ab) mod p, the product reduced into [1, p^2-1]."""
    for p in (5, 7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                c = (a * b) % (p * p)
                diff = fermat_quotient(a, p) + fermat_quotient(b, p) - fermat_quotient(c, p)
                assert vp(diff, p) >= 1, (p, a, b)


def test_log_surrogate_values():
    assert log_surrogate(1, 7) == 0
    # direct substitution: F(2) = 3 at p = 5, so (15 - 225/2)/4 = -195/8
    assert log_surrogate(2, 5) == Fraction(-195, 8)
    with pytest.raises(ValueError):
        log_surrogate(5, 5)
    with pytest.raises(ValueError):
        log_surrogate(2, 3)


def test_log_surrogate_matches_log_series_depth3():
    """Against an independent truncation of log((a/omega)^ (p-1))/(p-1)."""
    for p in (5, 7):
        p3 = p ** 3
        for a in (2, 3, p + 1, 2 * p + 3):
            if a % p == 0:
                continue
            # log_p(a) = (1/(p-1)) * sum (-1)^(j+1) z^j / j, z = a^(p-1) - 1,
            # truncated far enough that dropped terms have valuation >= 3
            z = Fraction(pow(a, p - 1) - 1)
            series = sum(
                Fraction((-1) ** (j + 1), j) * z ** j for j in range(1, 8)
            ) / (p - 1)
            assert vp(series - log_surrogate(a, p), p) >= 3, (p, a)


def test_log_surrogate_additive_mod_p3():
    for p in (5, 7):
        p3 = p ** 3
        for a in range(2, 12):
            for b in range(2, 12):
                if a % p == 0 or b % p == 0:
                    continue
                c = (a * b) % p3
                total = log_surrogate(a, p) + log_surrogate(b, p)
                assert vp(total - log_surrogate(c, p), p) >= 3, (p, a, b)


def test_unit_log_series_values():
    assert unit_log_series(10, 3, 1) == Fraction(37, 81)
    assert unit_log_series(14, 15, 4) == Fraction(3596, 10125)
    assert unit_log_series(14, 15, 0) == 0
    with pytest.raises(ValueError):
        unit_log_series(10, 0, 1)


def test_unit_log_series_tail_valuations():
    """Terms n = 2, 3 carry valuation >= 2 once p | d, p > 5, p coprime to t.

    That is what lets the series be cut at n = 1 in the depth-2 unit
    congruence.  The sharp per-term bound is n minus a correction when
    p divides the denominator 2n+1 (p = 7 at n = 3 is the one case in
    range); the depth-2 requirement survives it.
    """
    from quadcong.quadfield import fundamental_unit, is_squarefree

    checked = 0
    for p in (7, 11, 13):
        for m in range(1, 200 // p + 1):
            d = p * m
            if d <= 5 or m % p == 0 or not is_squarefree(d):
                continue
            t, u, _delta, _norm, _per = fundamental_unit(d)
            assert t % p != 0
            x = Fraction(u, t)
            for n in (2, 3):
                term = Fraction(d ** n, 2 * n + 1) * x ** (2 * n + 1)
                sharp = n - (1 if (2 * n + 1) % p == 0 else 0)
                assert vp(term, p) >= max(sharp, 2), (d, p, n)
            checked += 1
    assert checked > 20
