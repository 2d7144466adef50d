import hashlib
from fractions import Fraction
from itertools import chain
from math import isqrt

import pytest

from quadcong.quadfield import (
    _DIVISOR_TABLE_CAP,
    _WINDOW_MAX_D,
    _divisor_lists,
    _reduced_forms,
    _reduction_step,
    _sieve_factored_bscan,
    _sieved_forms,
    _window_forms,
    class_number,
    fundamental_unit,
    invariants_shell,
    is_squarefree,
    vp_u,
)
from quadcong import quadfield
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


def _disc(form):
    a, b, c = form
    return b * b - 4 * a * c


def _is_reduced(form, D):
    """Reducedness of an indefinite form (a, b, c) of discriminant D, stated literally."""
    a, b, _c = form
    return b > 0 and b * b < D and (2 * abs(a) + b) ** 2 > D > (2 * abs(a) - b) ** 2


def _brute_reduced_forms(D):
    """Every reduced form of discriminant D, both signs of a, by exhaustive search."""
    s = isqrt(D)
    brute = set()
    for a in range(-s, s + 1):
        for b in range(1, s + 1):
            if a and (b * b - D) % (4 * a) == 0:
                f = (a, b, (b * b - D) // (4 * a))
                if _is_reduced(f, D):
                    brute.add(f)
    return brute


def test_reduced_forms_and_cycles():
    D = 40
    forms = _reduced_forms(D)
    assert len(forms) == 4
    assert forms == {f for f in _brute_reduced_forms(D) if f[0] > 0}
    for f in forms:
        assert _disc(f) == D and _is_reduced(f, D)
        step = _reduction_step(f, D, isqrt(D))
        assert _disc(step) == D and _is_reduced(step, D)
        assert step[0] < 0 and _reduction_step(step, D, isqrt(D)) in forms  # rho flips a's sign
    # principal form present: (1, 6, -1) since isqrt(40) = 6
    assert (1, 6, -1) in forms


def test_principal_cycle_contains_principal_form():
    for d in (10, 14, 15, 65, 79, 82):
        _delta, D = invariants_shell(d)
        s = isqrt(D)
        b0 = s if (s - D) % 2 == 0 else s - 1
        start = (1, b0, (b0 * b0 - D) // 4)
        assert _is_reduced(start, D)
        seen = set()
        g = start
        while g not in seen:
            seen.add(g)
            g = _reduction_step(g, D, s)
        assert g == start  # the orbit of the principal form is a cycle through it


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
    unit = fundamental_unit(14)
    assert (unit.delta, unit.t, unit.u, class_number(14).h) == (2, 15, 4, 1)
    assert unit.u.bit_length() == 3
    with pytest.raises(ValueError):
        fundamental_unit(12)


def test_memoized_invariants_raise_on_every_call_for_bad_d():
    for _ in range(2):
        with pytest.raises(ValueError):
            fundamental_unit(12)
        with pytest.raises(ValueError):
            class_number(12)


def test_cycle_partition_check_raises(monkeypatch):
    """A reduction step into another cycle is caught, not walked forever."""
    d, D = 79, 316
    assert class_number(d).h_plus >= 2
    s = isqrt(D)
    forms = _reduced_forms(D)
    start = (1, 16, -15)
    principal = {start}
    g = _reduction_step(start, D, s)
    while g != start:
        principal.add(g)
        g = _reduction_step(g, D, s)
    target = min(forms - principal)
    calls = 0

    def step(form, D, s):
        nonlocal calls
        calls += 1
        if calls > 10 * len(forms):
            raise RuntimeError("reduction walk did not stop")
        return target if form == start else _reduction_step(form, D, s)

    monkeypatch.setattr(quadfield, "_reduction_step", step)
    class_number.cache_clear()
    with pytest.raises(AssertionError, match="do not partition"):
        class_number(d)


def test_reduced_forms_match_brute_force_enumeration():
    """The b-scan finds exactly the a > 0 forms of a brute-force search, and
    the brute-force set is those forms and their mirrors (-a, b, -c)."""
    for d in squarefree_range(2, 120):
        _delta, D = invariants_shell(d)
        brute = _brute_reduced_forms(D)
        positive = {f for f in brute if f[0] > 0}
        assert _reduced_forms(D) == positive, d
        assert brute == positive | {(-a, b, -c) for a, b, c in positive}, d


def test_window_test_and_root_sieve_agree_across_the_switch():
    """Both enumerations give the same forms on both sides of _WINDOW_MAX_D,
    and the brute-force set for small D."""
    small = [invariants_shell(d)[1] for d in (2, 5, 6, 7, 13, 79, 82, 105, 221, 4099)]
    near = [invariants_shell(d)[1] for d in chain(range(9985, 10015), range(39985, 40015))
            if is_squarefree(d)]
    assert min(near) < _WINDOW_MAX_D <= max(near)
    for D in small:
        assert _window_forms(D) == _sieved_forms(D) == {
            f for f in _brute_reduced_forms(D) if f[0] > 0}, D
    for D in near:
        assert _window_forms(D) == _sieved_forms(D), D


def test_class_numbers_pinned_across_the_switch():
    """(h, h+) of every squarefree d < 2000 and of d near both crossings of
    _WINDOW_MAX_D (D = 4d near d = 10^4, D = d near d = 4 * 10^4), pinned
    by a sha256 of the values computed by walking both signs of forms."""
    ds = [d for d in chain(range(2, 2000), range(9900, 10100), range(39900, 40100))
          if is_squarefree(d)]
    assert {invariants_shell(d)[1] < _WINDOW_MAX_D for d in ds} == {True, False}
    rows = [(d, *class_number(d)) for d in ds]
    assert len(rows) == 1453
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "849f25e9311aa2ce69da94b1d9e7ce368146ca0201a1baf659f8f29e8c46d06f")


def test_divisor_table_stays_within_its_cap():
    """Class numbers on both sides of _WINDOW_MAX_D leave the process-wide
    divisor table no longer than its cap, which serves every (D - b^2)/4 of
    a D below the bound; each entry lists the divisors of its index in
    ascending order."""
    assert _DIVISOR_TABLE_CAP == (_WINDOW_MAX_D - 1) // 4 + 1
    for d in chain(range(9990, 10010), range(39990, 40010)):
        if is_squarefree(d):
            class_number.__wrapped__(d)
            assert len(quadfield._divs) <= _DIVISOR_TABLE_CAP, d
    divs = _divisor_lists(_DIVISOR_TABLE_CAP - 1)
    assert len(divs) == _DIVISOR_TABLE_CAP
    for N in chain(range(1, 200), range(_DIVISOR_TABLE_CAP - 200, _DIVISOR_TABLE_CAP)):
        assert divs[N] == [a for a in range(1, N + 1) if N % a == 0], N
