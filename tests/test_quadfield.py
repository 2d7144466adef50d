from fractions import Fraction
from math import isqrt

import pytest

from quadcong.quadfield import (
    FieldInvariants,
    QuadraticForm,
    _reduced_forms,
    _sieve_factored_bscan,
    class_number,
    field_invariants,
    fundamental_unit,
    invariants_shell,
    is_squarefree,
    vp_u,
)
from quadcong.primes import factorize

from oracles import ideal_class_number, pell_min_solution, pell_solutions_upto


def squarefree_range(lo, hi):
    return [d for d in range(lo, hi) if all(d % (q * q) for q in range(2, isqrt(d) + 1))]


def test_is_squarefree():
    assert is_squarefree(10)
    assert not is_squarefree(12)
    assert is_squarefree(4099215)
    assert factorize(4099215) == {3: 1, 5: 1, 273281: 1}
    with pytest.raises(ValueError):
        is_squarefree(0)


def test_invariants_shell():
    assert invariants_shell(65) == (1, 65)
    assert invariants_shell(14) == (2, 56)
    assert invariants_shell(4099215) == (2, 16396860)
    with pytest.raises(ValueError):
        invariants_shell(12)
    with pytest.raises(ValueError):
        invariants_shell(1)


def test_fundamental_unit_examples():
    assert fundamental_unit(5)[:4] == (1, 1, 1, -1)
    assert fundamental_unit(10)[:4] == (3, 1, 2, -1)
    assert fundamental_unit(14)[:4] == (15, 4, 2, 1)
    assert fundamental_unit(13)[:4] == (3, 1, 1, -1)
    assert fundamental_unit(46)[:2] == (24335, 3588)
    with pytest.raises(ValueError):
        fundamental_unit(12)


def test_unit_norm_identity_bulk():
    """(delta^2/4)(t^2 - d u^2) in {-1, +1} for all squarefree d <= 3000."""
    for d in squarefree_range(2, 3000):
        t, u, delta, norm, _ = fundamental_unit(d)
        assert delta * delta * (t * t - d * u * u) == 4 * norm, d
        assert norm in (-1, 1)


def test_unit_minimality_against_brute_force():
    """No unit below the reported one, both norm signs (all squarefree d < 200).

    d = 5 is the case where the half-integer expansion matters: the answer
    must be (1, 1), not the (4, 2) coming from 2 + sqrt(5).
    """
    assert fundamental_unit(5)[:2] == (1, 1)
    for d in squarefree_range(2, 200):
        t, u, _delta, _norm, _ = fundamental_unit(d)
        if u <= 200_000:
            oracle = pell_min_solution(d)
            assert oracle is not None and oracle[:2] == (t, u), d
        else:
            sols = pell_solutions_upto(d, u)
            assert sols, d
            tt, uu, _ = min(sols, key=lambda s: (s[1], s[0]))
            assert (tt, uu) == (t, u), d


def test_unit_square_consistency():
    """eps^2 re-expands in the same normal form and has norm +1."""
    for d in squarefree_range(2, 300):
        t, u, delta, _norm, _ = fundamental_unit(d)
        # (delta/2)^2 (t + u sqrt d)^2 = (delta/2)(T + U sqrt d)
        T = Fraction(delta * (t * t + d * u * u), 2)
        U = Fraction(delta * t * u)
        assert T.denominator == 1, d
        T, U = int(T), int(U)
        assert delta * delta * (T * T - d * U * U) == 4, d


def test_class_number_examples():
    assert class_number(10).h == 2
    assert class_number(14).h == 1
    assert class_number(4099215).h == 4


def test_class_number_known_values():
    known = {2: 1, 3: 1, 5: 1, 7: 1, 10: 2, 14: 1, 15: 2, 21: 1, 46: 1,
             65: 2, 79: 3, 82: 4, 85: 2, 94: 1, 95: 2}
    for d, h in known.items():
        assert class_number(d).h == h, d


def test_class_number_vs_ideal_oracle():
    """Acceptance oracle: ideal enumeration for all squarefree d < 100."""
    for d in squarefree_range(2, 100):
        t, u, delta, _norm, _ = fundamental_unit(d)
        assert class_number(d).h == ideal_class_number(d, t, u, delta), d


def test_narrow_class_number_relation():
    for d in squarefree_range(2, 300):
        h, h_plus = class_number(d)
        norm = fundamental_unit(d).norm
        assert h_plus == (h if norm == -1 else 2 * h), d


def test_reduced_forms_and_cycles():
    D = 40
    forms = _reduced_forms(D)
    assert len(forms) == 8
    for f in forms:
        qf = QuadraticForm(*f)
        assert qf.discriminant == D
        assert qf.is_reduced()
        step = qf.reduction_step()
        assert step.discriminant == D and step.is_reduced()
    # principal form present: (1, 6, -1) since isqrt(40) = 6
    assert (1, 6, -1) in forms


def test_principal_cycle_contains_principal_form():
    for d in (10, 14, 15, 65, 79, 82):
        _delta, D = invariants_shell(d)
        s = isqrt(D)
        b0 = s if (s - D) % 2 == 0 else s - 1
        start = QuadraticForm(1, b0, (b0 * b0 - D) // 4)
        assert start.is_reduced()
        seen = set()
        g = start
        while (g.a, g.b, g.c) not in seen:
            seen.add((g.a, g.b, g.c))
            g = g.reduction_step()
        assert (start.a, start.b, start.c) in seen


def test_sieve_bscan_matches_trial_division():
    D = 4 * 25830  # mid-size discriminant, exercises the root sieve
    s = isqrt(D)
    bs = [b for b in range(2, s + 1, 2)]
    sieved = _sieve_factored_bscan(D, bs)
    for b in bs:
        N = (D - b * b) // 4
        if N > 0:
            assert sieved[b] == factorize(N), b


def test_vp_u():
    assert vp_u(4099215, 3) == 3  # the mandatory reproduction row
    assert vp_u(10, 5) == 0
    assert vp_u(46, 23) == 1


def test_field_invariants():
    inv = field_invariants(14, 7)
    assert isinstance(inv, FieldInvariants)
    assert (inv.delta, inv.D, inv.t, inv.u, inv.h) == (2, 56, 15, 4, 1)
    assert inv.m == 2 and inv.p == 7
    assert inv.u_bit_length == 3
    inv = field_invariants(10)
    assert inv.p is None and inv.m is None
    with pytest.raises(ValueError):
        field_invariants(14, 5)


def test_memoized_invariants_raise_on_every_call_for_bad_d():
    for _ in range(2):
        with pytest.raises(ValueError):
            fundamental_unit(12)
        with pytest.raises(ValueError):
            class_number(12)


def test_reduced_forms_match_brute_force_enumeration():
    """The sieved b-scan finds exactly the forms is_reduced accepts."""
    for d in squarefree_range(2, 120):
        _delta, D = invariants_shell(d)
        s = isqrt(D)
        brute = set()
        for a in range(-s, s + 1):
            for b in range(1, s + 1):
                if a and (b * b - D) % (4 * a) == 0:
                    f = QuadraticForm(a, b, (b * b - D) // (4 * a))
                    if f.is_reduced():
                        brute.add((f.a, f.b, f.c))
        assert _reduced_forms(D) == brute, d
