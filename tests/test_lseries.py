from fractions import Fraction
from math import factorial

import pytest

from quadcong.bernoulli import bernoulli
from quadcong.characters import QuadChar, split_character
from quadcong.lseries import (
    a0_closed_principal,
    a1_closed_principal,
    a1_closed_quadratic,
    a_coefficients_direct,
    lp1_via_class_number,
    lp_interp_value,
    wilson_quotient,
)
from quadcong.padic import vp
from quadcong.primes import is_prime
from quadcong.quadfield import is_squarefree

from oracles import a_coefficients_literal, stirling_poly_row
from lemmas import (
    a1_closed_quadratic_plain_bernoulli,
    b_coeff,
    lp_principal_value,
    zeta_star_value,
)


def quad_grid(p_list, d_max):
    for p in p_list:
        for m in range(1, d_max // p + 1):
            d = p * m
            if d > 5 and m % p != 0 and is_squarefree(d):
                yield d, p


def test_stirling_examples():
    assert stirling_poly_row(3)[2] == -3
    assert stirling_poly_row(4)[1] == -6
    for j in (0, 1, 5, 9):
        assert stirling_poly_row(j)[j] == 1


def test_stirling_row_invariants():
    for j in range(2, 15):
        row = stirling_poly_row(j)
        assert sum(row) == 0, j
        assert sum(map(abs, row)) == factorial(j), j


def test_b_coeff_values():
    assert b_coeff(3, 0, 35, 7) == 1
    assert b_coeff(1, 1, 5, 5) == Fraction(-55, 12)
    assert b_coeff(2, 2, 35, 7) == Fraction(35, 2) ** 2 / 12
    with pytest.raises(ValueError):
        b_coeff(7, 1, 35, 7)
    with pytest.raises(ValueError):
        b_coeff(1, 3, 35, 7)
    with pytest.raises(ValueError):
        b_coeff(1, 1, 3, 3)


def test_b_coeff_truncation_error_depth3():
    """Against the exact 12-term tail sum_{j>=k} (F/a)^j (B_j/j!) S(j,k)."""
    for (a, F, p) in ((1, 5, 5), (2, 35, 7), (3, 55, 11), (4, 65, 5)):
        x = Fraction(F, a)
        for k in (0, 1, 2):
            exact = sum(
                x ** j * bernoulli(j) / factorial(j) * stirling_poly_row(j)[k]
                for j in range(k, 13)
            )
            assert vp(exact - b_coeff(a, k, F, p), p) >= 3, (a, F, p, k)


def test_b_coeff_term_valuation_lower_bound():
    """The stated bound v_p((F/a)^j B_j / j!) >= j(p-2)/(p-1) - 1, v_p(F) = 1."""
    for (a, F, p) in ((1, 5, 5), (2, 35, 7), (3, 55, 11)):
        x = Fraction(F, a)
        for j in range(1, 13):
            term = x ** j * bernoulli(j) / factorial(j)
            if term:
                bound = Fraction(j * (p - 2), p - 1) - 1
                assert vp(term, p) >= bound, (a, F, p, j)


def test_direct_coefficients_principal():
    b5 = a_coefficients_direct(QuadChar.principal(), 5)
    assert b5.a_minus1 == Fraction(1, 5) - 1 == Fraction(-4, 5)
    assert b5.F == 5
    b7 = a_coefficients_direct(QuadChar.principal(), 7)
    w7 = wilson_quotient(7)
    assert w7 == 103
    assert vp(b7.a0 - w7 * (1 + 7 * w7 / 2), 7) >= 2


def test_direct_coefficients_quadratic():
    split = split_character(14, 7)
    bundle = a_coefficients_direct(split.chi_d, 7)
    assert bundle.a_minus1 == 0
    assert bundle.F == 56
    bundle.check_invariants()
    with pytest.raises(ValueError):
        a_coefficients_direct(QuadChar(5), 7)  # p does not divide the conductor
    with pytest.raises(ValueError):
        a_coefficients_direct(QuadChar.principal(), 3)


def test_bundle_invariants_on_grid():
    for d, p in quad_grid((7, 11, 13), 200):
        split = split_character(d, p)
        bundle = a_coefficients_direct(split.chi_d, p)
        bundle.check_invariants()  # raises on violation


def test_direct_coefficients_match_literal_sums():
    """The integer-sum kernel gives exactly the per-term Fraction sums."""
    cases = [(QuadChar.principal(), p) for p in range(5, 201) if is_prime(p)]
    cases += [(split_character(d, p).chi_d, p) for d, p in quad_grid((5, 7, 11, 13), 200)]
    cases.append((split_character(2929, 29).chi_d, 29))
    assert cases[-1][0].conductor == 2929
    for chi, p in cases:
        bundle = a_coefficients_direct(chi, p)
        got = (bundle.a_minus1, bundle.a0, bundle.a1)
        assert got == a_coefficients_literal(chi, p), (chi.discriminant, p)


def test_wilson_quotients():
    assert wilson_quotient(5) == 5
    assert wilson_quotient(7) == 103
    assert wilson_quotient(13) == 36846277
    for p in (5, 7, 11, 13, 563):
        w = wilson_quotient(p)
        assert w.denominator == 1


def test_closed_principal_values():
    assert a0_closed_principal(5) == Fraction(135, 2)
    assert a1_closed_principal(5) == Fraction(-5, 192)
    assert vp(a1_closed_principal(5), 5) == 1
    assert vp(a0_closed_principal(7) - 5, 7) >= 1  # W_7 = 103 = 5 mod 7


def test_dual_path_principal():
    for p in (5, 7, 11, 13):
        bundle = a_coefficients_direct(QuadChar.principal(), p)
        assert vp(bundle.a0 - a0_closed_principal(p), p) >= 2, p
        assert vp(bundle.a1 - a1_closed_principal(p), p) >= 2, p


def test_a1_closed_quadratic_dual_path():
    for d, p in ((14, 7), (65, 5), (15, 5), (33, 11)):
        split = split_character(d, p)
        closed = a1_closed_quadratic(split)
        direct = a_coefficients_direct(split.chi_d, p).a1
        assert vp(closed - direct, p) >= 2, (d, p)
        assert vp(closed, p) >= 1, (d, p)


def test_a1_closed_quadratic_refuses_d5():
    split = split_character(5, 5)
    with pytest.raises(ValueError):
        a1_closed_quadratic(split)


def test_plain_bernoulli_reading_fails():
    """With the ordinary B_r in the subtracted term the lemma breaks.

    At (d, p) = (14, 7): r = 3 is odd so B_3 = 0, and the value loses both
    the dual-path agreement and the |a1|_p < 1 bound.  This pins down the
    generalized-Bernoulli reading as the correct one.
    """
    split = split_character(14, 7)
    plain = a1_closed_quadratic_plain_bernoulli(split)
    direct = a_coefficients_direct(split.chi_d, 7).a1
    assert vp(plain - direct, 7) < 2
    assert vp(plain, 7) < 1
    good = a1_closed_quadratic(split)
    assert vp(good - direct, 7) >= 2


def test_lp_interp_value_quadratic():
    split = split_character(14, 7)
    # psi(7) = -1, B_{3,psi} = 9: -(1 + 49) * 9/3 = -150
    assert lp_interp_value(3, split) == -150
    with pytest.raises(ValueError):
        lp_interp_value(4, split)  # wrong residue class mod p-1


def test_lp_interp_value_principal():
    assert lp_principal_value(4, 5) == Fraction(-31, 30)
    assert lp_principal_value(6, 7) == -(1 - Fraction(7) ** 5) * bernoulli(6) / 6
    with pytest.raises(ValueError):
        lp_principal_value(3, 5)


def test_euler_factor_trivial_mod_p2_for_p_gt_5():
    for d, p in ((14, 7), (33, 11), (26, 13)):
        split = split_character(d, p)
        euler = 1 - split.psi(p) * Fraction(p) ** (split.r - 1)
        assert vp(euler - 1, p) >= 2, (d, p)


def test_zeta_star_values():
    assert zeta_star_value(4, 5) == Fraction(-5, 6)
    assert zeta_star_value(6, 7) == Fraction(401, 6)
    with pytest.raises(ValueError):
        zeta_star_value(5, 5)


def test_zeta_star_euler_factor_depth():
    for p in (5, 7, 11):
        for k in (1, 2, 3):
            n = k * (p - 1)
            if n < 3:
                continue
            R = 1 - Fraction(1, p)
            bare = -bernoulli(n) / n + R / n
            assert vp(zeta_star_value(n, p) - bare, p) >= 2, (p, n)


def test_lp1_via_class_number():
    assert lp1_via_class_number(14, 7) == Fraction(3596, 10125)
    assert lp1_via_class_number(10, 5) == Fraction(74, 81)
    with pytest.raises(ValueError):
        lp1_via_class_number(10, 3)


def test_series_congruences_quadratic():
    """L_p(1-m) = L_p(1-n) mod p, and mod p^2 after the a_1 (m-n) shift."""
    for d, p in quad_grid((7, 11, 13), 150):
        split = split_character(d, p)
        r = split.r
        m, n = r + (p - 1), r
        vm = lp_interp_value(m, split)
        vn = lp_interp_value(n, split)
        assert vp(vm - vn, p) >= 1, (d, p)
        a1 = a1_closed_quadratic(split)
        assert vp(vm - vn - a1 * (m - n), p) >= 2, (d, p)


def test_series_congruences_principal():
    for p in (7, 11, 13):
        a1 = a1_closed_principal(p)
        for k in (1, 2, 3):
            m, n = (k + 1) * (p - 1), k * (p - 1)
            vm = zeta_star_value(m, p)
            vn = zeta_star_value(n, p)
            assert vp(vm - vn, p) >= 1, (p, k)
            assert vp(vm - vn - a1 * (m - n), p) >= 2, (p, k)
