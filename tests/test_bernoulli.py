import sys
import threading
from fractions import Fraction
from functools import lru_cache
from importlib import import_module
from math import comb, factorial, prod

import pytest

from quadcong.bernoulli import BernoulliCache, bernoulli, gen_bernoulli, gen_bernoulli_many
from quadcong import primes as primes_module
from quadcong.characters import QuadChar, char_values, is_fundamental_discriminant, kronecker, split_character
from quadcong.padic import INF, vp
from quadcong.primes import primes_up_to

from oracles import (
    bernoulli_akiyama_tanigawa,
    bernoulli_binomial_recurrence,
    gen_bernoulli_series,
    pi_interval,
    tangent_bernoulli,
)
from lemmas import (
    bernoulli_poly,
    carlitz_check,
    lemma_power_sum_nonprincipal,
    lemma_power_sum_principal,
    power_sum_closed,
    power_sum_direct,
    power_sum_restricted,
    sun_congruence_check,
)

CHI3 = QuadChar(-3)
CHI4 = QuadChar(-4)
CHI5 = QuadChar(5)
CHI8N = QuadChar(-8)
PRINCIPAL = QuadChar.principal()

bernoulli_module = import_module("quadcong.bernoulli")  # `from quadcong import bernoulli` is the function

SMALL_SET = (PRINCIPAL, CHI3, CHI4, CHI5, CHI8N, QuadChar(8), QuadChar(12), QuadChar(13))


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    for n in (3, 5, 7, 99):
        assert bernoulli(n) == 0
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_against_triangle_oracle():
    oracle = bernoulli_akiyama_tanigawa(60)
    for n in range(61):
        assert bernoulli(n) == oracle[n], n


def test_bernoulli_against_tangent_oracle():
    for m in (20, 40, 60, 120):
        assert bernoulli(2 * m) == tangent_bernoulli(m), m


def test_von_staudt_clausen_denominators():
    for k in range(1, 31):
        expected = 1
        for q in primes_up_to(2 * k + 1):
            if (2 * k) % (q - 1) == 0:
                expected *= q
        assert bernoulli(2 * k).denominator == expected, 2 * k


def test_bernoulli_poly():
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_poly(1, 1) == Fraction(1, 2)
    for n in (0, 1, 2, 5, 8):
        assert bernoulli_poly(n, 0) == bernoulli(n)


def test_gen_bernoulli_values():
    for chi in SMALL_SET:
        if not chi.is_principal:
            assert gen_bernoulli(0, chi) == 0
    assert gen_bernoulli(1, CHI3) == Fraction(-1, 3)
    assert gen_bernoulli(2, CHI5) == Fraction(4, 5)
    assert gen_bernoulli(1, CHI8N) == -1
    assert gen_bernoulli(3, CHI8N) == 9
    assert gen_bernoulli(9, CHI8N) == -2256633
    assert gen_bernoulli(3, CHI4) == Fraction(3, 2)
    assert gen_bernoulli(9, CHI4) == Fraction(-12465, 2)


def test_gen_bernoulli_principal_convention():
    assert gen_bernoulli(1, PRINCIPAL) == Fraction(1, 2)
    for n in (0, 2, 3, 4, 7, 12):
        assert gen_bernoulli(n, PRINCIPAL) == bernoulli(n)


def test_gen_bernoulli_against_series_oracle():
    """Generating-function division cross-check for n <= 8."""
    for chi in SMALL_SET:
        f = chi.conductor
        for n in range(9):
            expected = gen_bernoulli_series(n, f, chi)
            assert gen_bernoulli(n, chi) == expected, (chi.discriminant, n)


def test_gen_bernoulli_matches_literal_polynomial_formula():
    """The production path only reorganizes f^(n-1) sum chi(a) B_n(a/f)."""
    for chi in (CHI3, CHI5, CHI8N):
        f = chi.conductor
        for n in range(11):
            literal = Fraction(f) ** (n - 1) * sum(
                chi(a) * bernoulli_poly(n, Fraction(a, f)) for a in range(1, f + 1)
            )
            assert gen_bernoulli(n, chi) == literal, (chi.discriminant, n)


def test_gen_bernoulli_parity_vanishing():
    for chi in SMALL_SET:
        for n in range(21):
            if chi.is_principal:
                continue
            if chi.parity != (-1) ** n:
                assert gen_bernoulli(n, chi) == 0, (chi.discriminant, n)
            elif n >= 1:
                assert gen_bernoulli(n, chi) != 0, (chi.discriminant, n)


def test_power_sum_direct():
    assert power_sum_direct(2, 5, PRINCIPAL) == 11
    assert power_sum_direct(4, 5, PRINCIPAL) == Fraction(979, 5)
    assert power_sum_direct(1, 3, CHI3) == Fraction(-1, 3)
    assert power_sum_direct(0, 10, PRINCIPAL) == 1
    with pytest.raises(ValueError):
        power_sum_direct(2, 7, CHI5)  # conductor does not divide F


def test_power_sum_restricted():
    assert power_sum_restricted(2, 5, PRINCIPAL, 5) == 6
    # p > F and p coprime to F: nothing is removed
    assert power_sum_restricted(3, 6, CHI3, 11) == power_sum_direct(3, 6, CHI3)


def test_restricted_identity():
    """P'(k,F,chi) = P(k,F,chi) - chi(p) p^(k-1) P(k,f,chi)."""
    for chi in (PRINCIPAL, CHI3, CHI5):
        f = chi.conductor
        for p in (3, 5, 7):
            if f % p == 0:
                continue
            F = p * f
            for k in range(0, 12):
                lhs = power_sum_restricted(k, F, chi, p)
                rhs = power_sum_direct(k, F, chi) - chi(p) * Fraction(p) ** (k - 1) * power_sum_direct(k, f, chi)
                assert lhs == rhs, (chi.discriminant, p, k)


def test_power_sum_closed_examples():
    assert power_sum_closed(2, 5, PRINCIPAL) == 11
    assert power_sum_closed(4, 5, PRINCIPAL) == Fraction(979, 5)


def test_power_sum_closed_equals_direct_full_grid():
    """Exact rational equality on the acceptance grid (k <= 40, F <= 200)."""
    for chi in SMALL_SET:
        f = chi.conductor
        for F in range(f, 201, f):
            for k in range(41):
                assert power_sum_closed(k, F, chi) == power_sum_direct(k, F, chi), (
                    chi.discriminant, F, k,
                )


def test_power_sum_closed_printed_j0_term_regression():
    """The variant with F^k B_0 (no 1/(k+1)) breaks for the principal character.

    For non-principal characters B_0 vanishes and the two agree; the
    failure at (k, F) = (2, 5) is why the corrected coefficient ships.
    """
    def printed(k, F, chi):
        total = Fraction(F) ** k * gen_bernoulli(0, chi)
        for j in range(1, k + 1):
            total += comb(k, j - 1) * gen_bernoulli(j, chi) / j * F ** (k - j)
        return total

    assert printed(2, 5, PRINCIPAL) != power_sum_direct(2, 5, PRINCIPAL)
    for k in range(1, 15):
        assert printed(k, 15, CHI3) == power_sum_direct(k, 15, CHI3), k


def test_carlitz_examples():
    assert carlitz_check(2, CHI5, 3)
    assert carlitz_check(6, QuadChar(12), 7)
    assert carlitz_check(1, CHI3, 5)
    with pytest.raises(ValueError):
        carlitz_check(2, CHI5, 5)  # p divides the conductor
    with pytest.raises(ValueError):
        carlitz_check(2, PRINCIPAL, 7)


def test_carlitz_full_grid():
    discs = [n for n in range(-60, 61) if is_fundamental_discriminant(n)]
    ps = [p for p in primes_up_to(50) if p > 2]
    for delta in discs:
        chi = QuadChar(delta)
        for p in ps:
            if chi.conductor % p == 0:
                continue
            for n in range(1, 31):
                assert carlitz_check(n, chi, p), (delta, p, n)


def test_lemma_nonprincipal_cases():
    rep = lemma_power_sum_nonprincipal(4, CHI5, 7)  # parity match, k even
    assert rep.holds and rep.statement_id == "POWER_SUM_NONPRINCIPAL_A"
    rep = lemma_power_sum_nonprincipal(5, CHI5, 7)  # parity mismatch
    assert rep.holds and rep.statement_id == "POWER_SUM_NONPRINCIPAL_B"
    rep = lemma_power_sum_nonprincipal(3, CHI3, 5)  # odd chi, k = 3: exact
    assert rep.holds and rep.difference_valuation == INF
    assert rep.lhs == rep.rhs == Fraction(-223, 3)
    with pytest.raises(ValueError):
        lemma_power_sum_nonprincipal(2, CHI5, 7)
    with pytest.raises(ValueError):
        lemma_power_sum_nonprincipal(4, CHI5, 5)
    with pytest.raises(ValueError):
        lemma_power_sum_nonprincipal(4, PRINCIPAL, 7)


def test_lemma_nonprincipal_printed_variants_fail():
    """The two printed slips: F B_1 in the k = 3 identity, F/2 in case (b).

    Both are contradicted by exact evaluation; the corrected forms (F^2 B_1
    and k F / 2) are what the implementation carries.
    """
    F = 15
    P = power_sum_direct(3, F, CHI3)
    assert P != gen_bernoulli(3, CHI3) + F * gen_bernoulli(1, CHI3)
    assert P == gen_bernoulli(3, CHI3) + F * F * gen_bernoulli(1, CHI3)

    F = 35
    P = power_sum_direct(5, F, CHI5)
    assert vp(P - Fraction(F, 2) * gen_bernoulli(4, CHI5), 7) < 2
    assert vp(P - Fraction(5 * F, 2) * gen_bernoulli(4, CHI5), 7) >= 2


def test_lemma_nonprincipal_full_grid():
    discs = [n for n in range(-40, 41) if is_fundamental_discriminant(n)]
    for p in (5, 7, 11, 13, 17):
        for delta in discs:
            chi = QuadChar(delta)
            if chi.conductor % p == 0:
                continue
            for k in range(3, 31):
                rep = lemma_power_sum_nonprincipal(k, chi, p)
                assert rep.holds, (delta, p, k)


def test_lemma_principal_cases():
    rep = lemma_power_sum_principal(4, 5)  # (p-1) | k
    assert rep.holds and rep.statement_id == "POWER_SUM_PRINCIPAL_A"
    assert rep.difference_valuation == 2
    rep = lemma_power_sum_principal(6, 5)
    assert rep.holds and rep.statement_id == "POWER_SUM_PRINCIPAL_B"
    rep = lemma_power_sum_principal(5, 7)
    assert rep.holds and rep.statement_id == "POWER_SUM_PRINCIPAL_C"
    with pytest.raises(ValueError):
        lemma_power_sum_principal(2, 7)
    with pytest.raises(ValueError):
        lemma_power_sum_principal(20, 5)  # k = p(p-1)
    with pytest.raises(ValueError):
        lemma_power_sum_principal(5, 3)


def test_lemma_principal_full_grid():
    for p in (5, 7, 11, 13, 17):
        for k in range(3, min(31, p * (p - 1))):
            rep = lemma_power_sum_principal(k, p)
            assert rep.holds, (p, k)


def test_sun_congruence_examples():
    # b = 2 at p = 3 violates the hypothesis (p-1 = 2 divides b), even
    # though the congruence happens to hold numerically there
    with pytest.raises(ValueError):
        sun_congruence_check(2, 2, CHI5, 3)
    rep = sun_congruence_check(1, 2, CHI3, 5)  # odd character, live instance
    assert rep.holds and rep.difference_valuation < INF
    rep = sun_congruence_check(2, 3, CHI5, 7)
    assert rep.holds
    rep = sun_congruence_check(2, 1, CHI5, 7)  # k = 1 collapses to an identity
    assert rep.holds and rep.difference_valuation == INF
    with pytest.raises(ValueError):
        sun_congruence_check(4, 2, CHI5, 5)  # (p-1) | b
    with pytest.raises(ValueError):
        sun_congruence_check(2, 2, CHI5, 5)  # p divides conductor


def test_sun_congruence_grid():
    for p in (3, 5, 7, 11):
        for chi in SMALL_SET:
            if chi.conductor % p == 0:
                continue
            for b in range(1, 7):
                if b % (p - 1) == 0:
                    continue
                for k in range(1, 5):
                    rep = sun_congruence_check(b, k, chi, p)
                    assert rep.holds, (p, chi.discriminant, b, k)


def test_sun_congruence_series_proof_instance():
    """The instance b = r, k = (p^2+3)/2 that powers the a_1 closed form."""
    from quadcong.characters import split_character

    for d, p in ((65, 5), (14, 7)):
        split = split_character(d, p)
        r = split.r
        k = (p * p + 3) // 2
        rep = sun_congruence_check(r, k, split.psi, p)
        assert rep.holds, (d, p)
        assert rep.k == k


def test_cache_concurrent_use_and_consistency():
    cache = BernoulliCache()
    errors = []

    def work(base):
        try:
            for n in range(base, base + 40):
                cache.bernoulli(n)
                cache.gen_bernoulli(n % 12, CHI5)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(b,)) for b in (0, 20, 40, 60)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    fresh = BernoulliCache()
    for n in range(0, 100, 7):
        assert cache.bernoulli(n) == fresh.bernoulli(n)
    for n in range(12):
        assert cache.get(n, 5) is None or cache.get(n, 5) == fresh.gen_bernoulli(n, CHI5)


class _RecordingDict(dict):
    """A dict that records the keys assigned to it, in order (merge's
    setdefault assigns none)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.written = []

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)


def test_merged_plain_values_are_not_recomputed():
    source = BernoulliCache()
    for n in range(0, 205, 2):
        source.bernoulli(n)
    fresh = BernoulliCache()
    fresh._values = _RecordingDict(fresh._values)
    fresh.merge(e for e in source.entries() if e[0] <= 200)
    for n in range(0, 201, 2):
        assert fresh.bernoulli(n) == source.get(n, None), n
    assert fresh.bernoulli(202) == source.bernoulli(202)
    assert fresh._values.written == [(202, None)]
    # a gap (say, a rejected cache entry) is filled by the first request for
    # it, and nothing else is rewritten
    gappy = BernoulliCache()
    gappy._values = _RecordingDict(gappy._values)
    gappy.merge(e for e in source.entries() if e[0] <= 200 and e[0] != 100)
    assert gappy.bernoulli(204) == source.bernoulli(204)
    assert gappy._values.written == [(204, None)]
    assert gappy.get(100, None) is None
    assert gappy.bernoulli(100) == source.get(100, None)
    assert gappy._values.written == [(204, None), (100, None)]


@lru_cache(maxsize=None)
def _recurrence_1460():
    """B_0..B_1460 from the binomial-recurrence oracle, computed once per session."""
    return bernoulli_binomial_recurrence(1460)


def test_bernoulli_against_binomial_recurrence_oracle():
    """Every B_n up to 1460, the largest index the default grids touch."""
    oracle = _recurrence_1460()
    cache = BernoulliCache()
    for n in range(1461):
        assert cache.bernoulli(n) == oracle[n], n


def test_lone_request_writes_only_its_own_key():
    """Every even index past the seeds writes its own key alone, in any
    order; an odd index and a repeated one write nothing."""
    oracle = _recurrence_1460()
    cache = BernoulliCache()
    cache._values = _RecordingDict(cache._values)
    for n in (1460, 600, 1460, 300, 10, 13, 298, 4):
        assert cache.bernoulli(n) == oracle[n], n
    assert cache._values.written == [(n, None) for n in (1460, 600, 300, 10, 298, 4)]


def test_zeta_route_against_binomial_recurrence_oracle():
    """Every even index from 1460 down to 2, asked for lone in descending
    order (ascending is test_bernoulli_against_binomial_recurrence_oracle)."""
    oracle = _recurrence_1460()
    cache = BernoulliCache()
    for n in range(1460, 1, -2):
        assert cache.bernoulli(n) == oracle[n], n


def test_seeded_index_2_never_enters_the_zeta_route(monkeypatch):
    """B_2 is seeded beside B_0 and B_1: zeta(2)'s Euler product would sieve
    the primes up to 2^W.  Neither bernoulli(2) nor a B_{n,chi} call whose
    top index is 2 computes it."""
    entered = []
    zeta = BernoulliCache._bernoulli_zeta
    monkeypatch.setattr(BernoulliCache, "_bernoulli_zeta",
                        lambda self, n: entered.append(n) or zeta(self, n))
    cache = BernoulliCache()
    assert cache.bernoulli(2) == Fraction(1, 6)
    for chi in (CHI5, CHI8N, PRINCIPAL):
        got = cache.gen_bernoulli_many((0, 1, 2), chi)
        assert got == [gen_bernoulli_series(n, chi.conductor, chi) for n in (0, 1, 2)], chi
    assert entered == []


def test_zeta_route_refuses_bounds_that_pin_no_single_integer(monkeypatch):
    """With too few guard bits the bounds hold many integers: the route
    retries once, then raises instead of returning a value."""
    monkeypatch.setattr(bernoulli_module, "_GUARD_BITS", -45)
    cache = BernoulliCache()
    with pytest.raises(ArithmeticError):
        cache.bernoulli(1000)
    assert cache.get(1000, None) is None
    monkeypatch.undo()
    assert cache.bernoulli(1000) == _recurrence_1460()[1000]


def test_von_staudt_clausen_denominator_of_the_zeta_route():
    for n in range(2, 1461, 2):
        expected = 1
        for q in primes_up_to(n + 1):
            if n % (q - 1) == 0:
                expected *= q
        assert bernoulli_module._vsc_denominator(n) == expected, n


def test_arctan_series_error_bound_holds():
    """|arctan(1/k) 2^bits - s| <= e, against the exact partial sum of the
    series, whose alternating tail is below its first omitted term."""
    for k in (2, 3, 5, 239):
        for bits in range(1, 260, 4):
            s, e = bernoulli_module._arctan_inv(k, bits)
            J = bits + 20
            exact = sum(Fraction((-1) ** j, (2 * j + 1) * k ** (2 * j + 1)) for j in range(J))
            tail = Fraction(1, (2 * J + 1) * k ** (2 * J + 1))
            assert s - e <= (exact - tail) * 2 ** bits and (exact + tail) * 2 ** bits <= s + e, (k, bits)


def test_pi_bounds_hold_pi():
    for bits in (1, 2, 3, 8, 30, 61, 64, 100, 257, 600):
        lo, hi = bernoulli_module._pi_bounds(bits)
        ref_lo, ref_hi = pi_interval(bits + 64)
        assert lo <= ref_lo * 2 ** bits and ref_hi * 2 ** bits <= hi, bits
        assert hi - lo <= 3, bits


def _zeta_interval(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """zeta(n) for even n from the oracle's B_n: |B_n| (2 pi)^n / (2 n!)."""
    b = abs(_recurrence_1460()[n])
    pi_lo, pi_hi = pi_interval(bits)
    f = 2 * factorial(n)
    return b * (2 * pi_lo) ** n / f, b * (2 * pi_hi) ** n / f


def test_inverse_zeta_bounds_hold_with_any_prime_cutoff():
    """lo <= 2^W / zeta(n) <= hi over cutoffs M far below the route's, where
    a missing prime or tail term shows; hi also bounds the exact partial
    product over p <= M, and lo that product times 1 - M^(1-n)/(n-1)."""
    for n in (4, 6, 10, 20, 40, 64):
        z_lo, z_hi = _zeta_interval(n, 400)
        for W in (16, 24, 40, 64, 100, 200):
            for M in (2, 3, 4, 5, 7, 11, 30):
                lo, hi = bernoulli_module._inv_zeta_bounds(n, W, M)
                assert lo * z_hi <= 2 ** W <= hi * z_lo, (n, W, M)
                partial = 2 ** W * prod(1 - Fraction(1, p ** n) for p in primes_up_to(M))
                assert partial <= hi and lo <= partial * (1 - Fraction(1, (n - 1) * M ** (n - 1))), (n, W, M)


def test_four_over_pi_powers_hold_the_power():
    """lo <= (4/pi)^n 2^W <= hi, read from a table built at a higher
    precision (shifted down) and at the precision itself."""
    pi_lo, pi_hi = pi_interval(600)
    cache = BernoulliCache()
    for W in (400, 8, 13, 32, 50, 64, 99, 128, 255, 256):
        for n in list(range(1, 70)) + [127, 128, 255, 300]:
            lo, hi = cache._four_over_pi_pow(n, W)
            assert lo <= (4 / pi_hi) ** n * 2 ** W and (4 / pi_lo) ** n * 2 ** W <= hi, (n, W)
    assert cache._pi_powers[0] == 400
    fresh = BernoulliCache()
    for n in (1, 2, 3, 7, 64, 300):
        lo, hi = fresh._four_over_pi_pow(n, 70)
        assert lo <= (4 / pi_hi) ** n * 2 ** 70 and (4 / pi_lo) ** n * 2 ** 70 <= hi, n
    assert fresh._pi_powers[0] == 70


def test_kernel_prefixes_come_from_the_triangle_whatever_the_parity():
    """A B_{n,chi} call past index 300 equals the series oracle on an odd
    and on an even character; its index rows read every plain B_j up to
    their index, each from zeta(j)."""
    for chi in (CHI3, CHI5):  # odd, even
        got = BernoulliCache().gen_bernoulli_many((4, 301), chi)
        assert got == [gen_bernoulli_series(n, chi.conductor, chi) for n in (4, 301)]


def test_computed_plain_values_do_not_read_merged_ones():
    cache = BernoulliCache()
    cache.merge([(4, None, Fraction(1, 7))])  # wrong: B_4 = -1/30
    assert cache.bernoulli(10) == bernoulli_akiyama_tanigawa(10)[10]


@pytest.mark.parametrize("d, p", [(14, 7), (21, 7), (55, 11), (26, 13), (51, 17)])
def test_gen_bernoulli_against_series_oracle_at_thm1_indices(d, p):
    """The thm1 indices r and 3r, r = (p-1)/2 odd (p = 7, 11) and even (p = 13, 17)."""
    split = split_character(d, p)
    psi = split.psi
    for n in (split.r, 3 * split.r):
        assert BernoulliCache().gen_bernoulli(n, psi) == gen_bernoulli_series(n, psi.conductor, psi), n


@pytest.mark.parametrize("d, p", [(14, 7), (21, 7), (26, 13), (65, 13), (51, 17), (85, 17)])
def test_half_range_kernel_against_series_oracle(d, p):
    """One call for n = 0, 1, 2, r, r + 1, 3r on psi: odd r (p = 7) and even r,
    conductor odd (-3, 5) and divisible by 4 (-8, 8, 12); the indices of the
    wrong parity come out exactly 0."""
    split = split_character(d, p)
    psi, r = split.psi, split.r
    ns = (0, 1, 2, r, r + 1, 3 * r)
    got = BernoulliCache().gen_bernoulli_many(ns, psi)
    for n, value in zip(ns, got):
        assert value == gen_bernoulli_series(n, psi.conductor, psi), n
        if psi.parity != (-1) ** n:
            assert value == 0, n


@pytest.mark.parametrize("p", [13, 17, 29])
def test_principal_split_reads_plain_bernoulli(p):
    """d = p = 1 mod 4 splits off the principal psi: plain B_n, no character key."""
    split = split_character(p, p)
    assert split.psi.is_principal
    cache = BernoulliCache()
    r = split.r
    assert cache.gen_bernoulli_many((r, 3 * r, 1), split.psi) == [
        bernoulli(r), bernoulli(3 * r), gen_bernoulli_series(1, 1, split.psi)]
    assert all(disc is None for _, disc, _ in cache.entries())


def test_multi_index_call_equals_one_index_calls_and_computes_only_absent_keys():
    psi = split_character(26, 13).psi  # chi_8, even
    ns = (6, 18, 7, 2, 18)
    single = [BernoulliCache().gen_bernoulli(n, psi) for n in ns]
    cache = BernoulliCache()
    cache.gen_bernoulli(6, psi)
    before = set(cache._values)
    cache._values = _RecordingDict(cache._values)
    asked = []
    kernel = cache._gen_bernoulli_compute
    cache._gen_bernoulli_compute = lambda idx, chi: asked.append(list(idx)) or kernel(idx, chi)
    assert cache.gen_bernoulli_many(ns, psi) == single
    assert asked == [[2, 7, 18]]
    written = list(cache._values.written)
    assert [key for key in written if key[1] is not None] == [(2, 8), (7, 8), (18, 8)]
    assert len(set(written)) == len(written) and before.isdisjoint(written)
    assert cache.gen_bernoulli_many(ns, psi) == single
    assert asked == [[2, 7, 18]] and cache._values.written == written
    assert gen_bernoulli_many((3, 9), CHI8N) == [gen_bernoulli(3, CHI8N), gen_bernoulli(9, CHI8N)]


def test_negative_index_is_refused_before_any_work():
    cache = BernoulliCache()
    with pytest.raises(ValueError):
        cache.gen_bernoulli_many((3, -1), CHI8N)
    assert cache.get(3, -8) is None


def test_threads_share_the_sieve_and_the_scaled_row(monkeypatch):
    """Threads grow the process-wide sieve and one cache's B_j row while
    reading them; every table and value must match a sequential run."""
    monkeypatch.setattr(primes_module, "_spf", [0, 1])
    discs = [D for D in range(-60, 61) if D != 1 and is_fundamental_discriminant(D)]
    cache = BernoulliCache()
    errors = []

    def work(offset):
        try:
            for i, D in enumerate(discs[offset::4]):
                chi = QuadChar(D)
                n = 2 * (i + offset) + (chi.parity < 0)
                got = cache.gen_bernoulli_many((n, 3 * n), chi)
                assert got == BernoulliCache().gen_bernoulli_many((n, 3 * n), chi), D
                F = 7 * chi.conductor
                assert char_values(chi, F) == [0] + [kronecker(D, a) for a in range(1, F + 1)], D
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors


def test_index_rows_stay_exact_when_a_new_prime_enters_the_denominator():
    """A row built before a larger index brings a new prime into the common
    denominator of the B_j (B_10 = 5/66 brings 11) still serves a later
    character, and the larger index gets a row of its own."""
    cache = BernoulliCache()
    assert cache.gen_bernoulli_many((3,), CHI3) == [gen_bernoulli_series(3, 3, CHI3)]
    assert cache.gen_bernoulli_many((10,), CHI5) == [gen_bernoulli_series(10, 5, CHI5)]
    assert cache._rows[3][0] % 11 != 0 and cache._rows[10][0] % 11 == 0
    assert cache.gen_bernoulli_many((3,), CHI8N) == [gen_bernoulli_series(3, 8, CHI8N)]
    assert cache.gen_bernoulli_many((3, 10), CHI3) == [
        gen_bernoulli_series(3, 3, CHI3), Fraction(0)]


def test_horner_kernel_against_series_oracle_on_a_conductor_grid():
    """One call per fundamental discriminant |D| <= 60 on indices of both
    parities, over odd conductors and conductors with 4 | f and 8 | f; a cache
    whose index rows other characters built gives what a fresh cache gives."""
    ns = (0, 1, 2, 3, 5, 8, 9, 12)
    chis = [QuadChar(D) for D in range(-60, 61) if D != 1 and is_fundamental_discriminant(D)]
    assert {chi.conductor % 8 for chi in chis} >= {0, 4} and any(chi.conductor % 2 for chi in chis)
    assert {chi.parity for chi in chis} == {1, -1}
    shared = BernoulliCache()
    for chi in chis:
        got = shared.gen_bernoulli_many(ns, chi)
        assert got == [gen_bernoulli_series(n, chi.conductor, chi) for n in ns], chi.discriminant
        assert got == BernoulliCache().gen_bernoulli_many(ns, chi), chi.discriminant
    assert set(shared._rows) == set(ns)
