"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s -v tests/test_acceptance.py` to see the PASS/FAIL
lines.  Instances where the printed statement is demonstrably false are
quarantined into strict-xfail companions so their failure stays pinned
and visible without masking the health of everything else.  Long-running extras (the two large
reference rows, the p = 563 Wilson prime) activate when the environment
variable QUADCONG_LONG_RUNNING is set.
"""
import os
import time
from fractions import Fraction
from math import isqrt

import pytest

from quadcong.characters import QuadChar, kronecker, split_character
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
from quadcong.primes import factorize, primes_up_to
from quadcong.quadfield import class_number, fundamental_unit, is_squarefree
from quadcong.suite import (
    THM1,
    ScanConfig,
    check_aac_classical,
    check_lehmer_diff,
    check_lehmer_thm2,
    check_super_wilson_criterion,
    check_theorem1,
    check_theorem3,
    scan,
)

from lemmas import power_sum_closed, power_sum_direct, power_sum_restricted
from oracles import (
    ideal_class_number,
    legendre_squares,
    pell_min_solution,
    pell_solutions_upto,
    stirling_poly_row,
)

LONG_RUNNING = bool(os.environ.get("QUADCONG_LONG_RUNNING"))
JOBS = min(8, os.cpu_count() or 1)


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _squarefree_range(lo, hi):
    return [d for d in range(lo, hi) if all(d % (q * q) for q in range(2, isqrt(d) + 1))]


def test_criterion_01_table1_row1():
    t0 = time.perf_counter()
    d = 4099215
    assert factorize(d) == {3: 1, 5: 1, 273281: 1}
    unit = fundamental_unit(d)
    h, _ = class_number(d)
    v = 0
    u = unit.u
    while u % 3 == 0:
        u //= 3
        v += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        h == 4 and v == 3 and elapsed < 60,
        f"d=4099215 reproduces h=4, v_3(u)=3 in {elapsed:.2f}s (<60s)",
    )


@pytest.mark.skipif(not LONG_RUNNING, reason="set QUADCONG_LONG_RUNNING=1 to include")
def test_criterion_01_table1_long_rows():
    results = []
    for d, p, h_ref, v_ref in ((125854178626, 11, 8, 2), (20256129307923, 3, 16, 2)):
        unit = fundamental_unit(d)
        h, _ = class_number(d)
        v = 0
        u = unit.u
        while u % p == 0:
            u //= p
            v += 1
        results.append((d, h == h_ref, v == v_ref))
    _verdict(1, all(ok1 and ok2 for _, ok1, ok2 in results),
             f"long-running reference rows reproduce: {results}")


def test_criterion_02_classical_congruence():
    failures = []
    for p in primes_up_to(400):
        if p >= 5 and p % 4 == 1:
            rep = check_aac_classical(p)
            if not rep.holds:
                failures.append(p)
    _verdict(2, not failures,
             f"2hu/t = -B_r/r mod p for all p = 1 mod 4, 5 <= p <= 400 (failures: {failures})")


def test_criterion_03_unit_congruence_grid():
    cfg = ScanConfig(statement=THM1, d_max=2000, p_min=7, p_max=200, jobs=JOBS)
    result = scan(cfg)
    failures = [(r.d, r.p) for r in result.reports if not r.holds]
    ok = not failures and not result.errors and len(result.reports) > 1000
    _verdict(
        3, ok,
        f"depth-2 unit congruence holds on all {len(result.reports)} instances "
        f"(d <= 2000, 7 <= p <= 200); failures: {failures[:5]}",
    )


def test_criterion_03_p5_reported_not_gated():
    """p = 5 instances are computed and their pass rate logged, never gated."""
    held = total = 0
    for m in range(2, 401):
        d = 5 * m
        if d > 2000:
            break
        if m % 5 == 0 or not is_squarefree(d):
            continue
        rep = check_theorem1(d, 5)
        total += 1
        held += rep.holds
    print(f"ACCEPTANCE 03 (advisory): p=5 instances hold {held}/{total} "
          f"({100 * held / total:.1f}%) - reported, not gated")
    assert total > 100  # the instances were actually computed


def test_criterion_04_wilson_congruences():
    failures = []
    for p in primes_up_to(300):
        if p < 3:
            continue
        for k in range(1, 6):
            if (p, k) == (3, 4):
                continue  # documented defect, pinned by the xfail companion
            if not check_lehmer_thm2(p, k).holds:
                failures.append((p, k))
        if not check_lehmer_diff(p).holds:
            failures.append((p, "diff"))
    _verdict(
        4, not failures,
        "Wilson-quotient depth-1 congruences hold for 3 <= p <= 300, k <= 5 "
        f"except the documented (p,k)=(3,4) defect; failures: {failures}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="(p,k)=(3,4): B_8 + 1/3 - 1 = 2 mod 3 but 4 W_3 = 1 mod 3; the depth-1 "
    "Wilson congruence is false at p = 3 and every available derivation needs p > 3",
)
def test_criterion_04_literal_including_p3_k4():
    for p in primes_up_to(300):
        if p >= 3:
            for k in range(1, 6):
                assert check_lehmer_thm2(p, k).holds, (p, k)


def test_criterion_05_wilson_depth2():
    failures = []
    for p in primes_up_to(150):
        if p <= 5:
            continue
        for k in range(1, 5):
            if not check_theorem3(p, k).holds:
                failures.append((p, k))
    _verdict(5, not failures,
             f"depth-2 Wilson identity holds for 7 <= p <= 150, k <= 4; failures: {failures}")


def test_criterion_06_super_wilson():
    results = {}
    for p in (5, 13):
        wilson = wilson_quotient(p) % p == 0
        criterion = check_super_wilson_criterion(p).holds
        results[p] = (wilson, criterion)
    ok = all(w and not c for w, c in results.values())
    _verdict(6, ok,
             f"p=5,13 are Wilson primes and fail the super-Wilson criterion: {results}")


@pytest.mark.skipif(not LONG_RUNNING, reason="needs B_1124; set QUADCONG_LONG_RUNNING=1")
def test_criterion_06_super_wilson_563():
    wilson = wilson_quotient(563) % 563 == 0
    criterion = check_super_wilson_criterion(563).holds
    _verdict(6, wilson and not criterion,
             "p=563 is a Wilson prime and fails the super-Wilson criterion")


def _criterion7_grid():
    for p in (7, 11, 13, 17, 19):
        for m in range(1, 500 // p + 1):
            d = p * m
            if d > 5 and m % p != 0 and is_squarefree(d):
                yield d, p


def test_criterion_07_dual_path_agreement():
    bad = []
    n_quad = 0
    for d, p in _criterion7_grid():
        split = split_character(d, p)
        bundle = a_coefficients_direct(split.chi_d, p)
        if vp(bundle.a1 - a1_closed_quadratic(split), p) < 2:
            bad.append((d, p))
        n_quad += 1
    n_princ = 0
    for p in primes_up_to(50):
        if p <= 5:
            continue
        bundle = a_coefficients_direct(QuadChar.principal(), p)
        if vp(bundle.a0 - a0_closed_principal(p), p) < 2:
            bad.append(("a0", p))
        if vp(bundle.a1 - a1_closed_principal(p), p) < 2:
            bad.append(("a1", p))
        n_princ += 1
    _verdict(
        7, not bad and n_quad > 100,
        f"closed-form and direct-sum coefficients agree mod p^2 on {n_quad} quadratic "
        f"and {n_princ} principal instances; disagreements: {bad}",
    )


def test_criterion_08_exact_identities():
    problems = []
    chars = [QuadChar.principal()] + [QuadChar(n) for n in (-3, -4, 5, -8, 8, 12, 13)]
    for chi in chars:
        f = chi.conductor
        for F in range(f, 201, f):
            for k in range(41):
                if power_sum_closed(k, F, chi) != power_sum_direct(k, F, chi):
                    problems.append(("closed", chi.discriminant, F, k))
    for chi in chars:
        f = chi.conductor
        for p in (3, 5, 7, 11):
            if f % p == 0:
                continue
            F = p * f
            for k in range(16):
                want = power_sum_direct(k, F, chi) - chi(p) * Fraction(p) ** (k - 1) * power_sum_direct(k, f, chi)
                if power_sum_restricted(k, F, chi, p) != want:
                    problems.append(("restricted", chi.discriminant, p, k))
    for j in range(2, 15):
        if sum(stirling_poly_row(j)[kk] for kk in range(j + 1)) != 0:
            problems.append(("stirling-row", j))
    from math import factorial
    for j in range(15):
        if sum(abs(stirling_poly_row(j)[kk]) for kk in range(j + 1)) != factorial(j):
            problems.append(("stirling-abs", j))
    from quadcong.bernoulli import bernoulli
    for k in range(1, 31):
        expected = 1
        for q in primes_up_to(2 * k + 1):
            if (2 * k) % (q - 1) == 0:
                expected *= q
        if bernoulli(2 * k).denominator != expected:
            problems.append(("vsc", 2 * k))
    n_bundles = 0
    for d, p in _criterion7_grid():
        split = split_character(d, p)
        bundle = a_coefficients_direct(split.chi_d, p)
        try:
            bundle.check_invariants()
        except AssertionError:
            problems.append(("bundle", d, p))
        n_bundles += 1
    _verdict(
        8, not problems,
        f"exact power-sum identities (k <= 40), Stirling and von Staudt-Clausen "
        f"invariants, and {n_bundles} coefficient-bundle invariants all hold; "
        f"problems: {problems[:5]}",
    )


def test_criterion_09_integration_identity():
    bad = []
    count = 0
    for d, p in _criterion7_grid():
        split = split_character(d, p)
        lhs = lp1_via_class_number(d, p)
        rhs = lp_interp_value(split.r, split) - split.r * a1_closed_quadratic(split)
        if vp(lhs - rhs, p) < 2:
            bad.append((d, p))
        count += 1
    _verdict(
        9, not bad and count > 100,
        f"class-number surrogate = interpolation - r*a1 mod p^2 on {count} instances "
        f"(exercises units, class numbers, characters, Bernoulli, and coefficients "
        f"simultaneously); failures: {bad}",
    )


def test_criterion_10_oracle_checks():
    problems = []
    for d in _squarefree_range(2, 200):
        t, u, _delta, _norm, _ = fundamental_unit(d)
        if u <= 200_000:
            oracle = pell_min_solution(d)
            if oracle is None or oracle[:2] != (t, u):
                problems.append(("unit", d))
        else:
            sols = pell_solutions_upto(d, u)
            if not sols or min(sols, key=lambda s: (s[1], s[0]))[:2] != (t, u):
                problems.append(("unit", d))
    for d in _squarefree_range(2, 100):
        t, u, delta, _norm, _ = fundamental_unit(d)
        if class_number(d).h != ideal_class_number(d, t, u, delta):
            problems.append(("class", d))
    for p in primes_up_to(99):
        if p == 2:
            continue
        for a in range(p):
            if kronecker(a, p) != legendre_squares(a, p):
                problems.append(("legendre", a, p))
    _verdict(
        10, not problems,
        "independent oracles agree: unit minimality (d < 200, brute force), class "
        f"numbers (d < 100, ideal enumeration), Legendre symbols (p < 100, square "
        f"enumeration); problems: {problems[:5]}",
    )
