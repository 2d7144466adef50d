import json
from dataclasses import replace
from fractions import Fraction
from importlib import import_module

import pytest

from quadcong.bernoulli import BernoulliCache, bernoulli
from quadcong.characters import QuadChar, split_character
from quadcong.cli import store_cache
from quadcong.lseries import a1_closed_quadratic, lp1_via_class_number, lp_interp_value, wilson_quotient
from quadcong.padic import INF, vp
from quadcong.quadfield import class_number, fundamental_unit, invariants_shell, is_squarefree, vp_u
from quadcong.reports import make_report
from quadcong.suite import (
    AAC_CLASSICAL,
    COR_EXACT_DIV,
    LEHMER_THM2,
    STATEMENTS,
    SUPER_AACM_CRIT,
    THM1,
    ScanConfig,
    build_instances,
    check_aac_classical,
    check_corollary_exact_division,
    check_lehmer_diff,
    check_lehmer_thm2,
    check_super_aacm_criterion,
    check_super_wilson_criterion,
    check_theorem1,
    check_theorem3,
    run_instance,
    scan,
)

from oracles import gen_bernoulli_series

bernoulli_module = import_module("quadcong.bernoulli")  # `from quadcong import bernoulli` is the function
suite_module = import_module("quadcong.suite")
characters_module = import_module("quadcong.characters")
_row_worker = suite_module._worker


def _character_keys() -> set:
    return {key for key in bernoulli_module.DEFAULT_CACHE._values if key[1] is not None}


def _worker_refusing_character_entries(instance):
    """The row worker, turning a B_{n,chi} the row had to compute into an error:
    after phase 1 every character value a row reads is a cache hit."""
    before = _character_keys()
    outcome = _row_worker(instance)
    if _character_keys() != before:
        return None, None, f"{instance}: the row computed a character entry"
    return outcome


def _install_fresh_cache(monkeypatch) -> tuple[BernoulliCache, list]:
    """A fresh default cache for the checks and the scan, and the index lists
    its kernel is asked for."""
    fresh = BernoulliCache()
    asked = []
    kernel = fresh._gen_bernoulli_compute
    fresh._gen_bernoulli_compute = lambda ns, chi: asked.append(list(ns)) or kernel(ns, chi)
    monkeypatch.setattr(bernoulli_module, "DEFAULT_CACHE", fresh)
    monkeypatch.setattr(suite_module, "DEFAULT_CACHE", fresh)
    return fresh, asked


def test_aac_classical_examples():
    rep = check_aac_classical(5)
    assert rep.holds and (rep.lhs, rep.rhs) == (2, Fraction(-1, 12))
    assert rep.difference_valuation == 2
    rep = check_aac_classical(13)
    assert rep.holds and (rep.lhs, rep.rhs) == (Fraction(2, 3), Fraction(-1, 252))
    assert check_aac_classical(17).holds
    with pytest.raises(ValueError):
        check_aac_classical(7)  # 3 mod 4
    with pytest.raises(ValueError):
        check_aac_classical(9)


def test_theorem1_examples():
    rep = check_theorem1(14, 7)
    assert rep.holds and rep.depth == 2
    assert rep.lhs == Fraction(7192, 10125)
    assert rep.difference_valuation == 2
    assert check_theorem1(21, 7).holds
    assert check_theorem1(7, 7).holds
    assert check_theorem1(13, 13).holds
    with pytest.raises(ValueError):
        check_theorem1(28, 7)  # not squarefree
    with pytest.raises(ValueError):
        check_theorem1(12, 3)  # p <= 3 and not squarefree
    with pytest.raises(ValueError):
        check_theorem1(5, 5)  # d must exceed 5


def test_corollary_exact_division():
    # v_23(u) = 1 at d = 46: a live instance of the divided congruence
    rep = check_corollary_exact_division(46, 23)
    assert rep.holds and rep.depth == 1
    assert check_theorem1(46, 23).holds  # algebraic-consistency companion
    with pytest.raises(ValueError):
        check_corollary_exact_division(14, 7)  # v_7(u) = 0
    with pytest.raises(ValueError):
        check_corollary_exact_division(10, 5)  # p must exceed 5


def test_corollary_exact_division_discovered_instances():
    found = []
    for p in (7, 11, 13, 17, 19, 23):
        for m in range(1, 500 // p + 1):
            d = p * m
            if d > 5 and m % p != 0 and is_squarefree(d) and vp_u(d, p) == 1:
                found.append((d, p))
    assert found, "expected at least one v_p(u) = 1 instance below 500"
    for d, p in found:
        rep = check_corollary_exact_division(d, p)
        assert rep.holds == check_theorem1(d, p).holds == True, (d, p)  # noqa: E712


def test_super_aacm_criterion():
    rep = check_super_aacm_criterion(14, 7)
    assert not rep.holds  # v_7(u) = 0, consistent with the contrapositive
    assert rep.lhs == 9 * 9 and rep.rhs == -2256633
    with pytest.raises(ValueError):
        check_super_aacm_criterion(4099215, 3)  # p <= 5 outside the hypothesis


def test_super_aacm_contrapositive_on_grid():
    """Criterion failure must imply v_p(u) <= 1 (no counterexample observed)."""
    for p in (7, 11, 13):
        for m in range(1, 600 // p + 1):
            d = p * m
            if d <= 5 or m % p == 0 or not is_squarefree(d):
                continue
            rep = check_super_aacm_criterion(d, p)
            if not rep.holds:
                assert vp_u(d, p) <= 1, (d, p)


def test_lehmer_thm2_examples():
    rep = check_lehmer_thm2(5, 1)
    assert rep.holds
    assert rep.lhs == Fraction(-5, 6) and rep.rhs == 5
    rep = check_lehmer_thm2(7, 1)
    assert rep.holds and rep.rhs == 103
    assert check_lehmer_thm2(5, 2).holds
    with pytest.raises(ValueError):
        check_lehmer_thm2(4, 1)


def test_lehmer_thm2_false_at_p3_k4():
    """Documented counterexample: the depth-1 congruence fails at (3, 4).

    B_8 + 1/3 - 1 = -7/10 = 2 (mod 3) while 4 W_3 = 4 = 1 (mod 3); every
    derivation of the statement assumes p > 3.  The check stays faithful
    and reports the failure rather than papering over it.
    """
    rep = check_lehmer_thm2(3, 4)
    assert not rep.holds
    assert rep.lhs == Fraction(-7, 10) and rep.rhs == 4
    # the other k <= 5 instances at p = 3 do hold
    for k in (1, 2, 3, 5):
        assert check_lehmer_thm2(3, k).holds, k


def test_lehmer_diff_examples():
    rep = check_lehmer_diff(7)
    assert rep.holds
    assert rep.lhs == Fraction(-18, 65) and rep.rhs == 103
    assert rep.difference_valuation == 2
    assert check_lehmer_diff(5).holds
    assert check_lehmer_diff(3).holds
    assert check_lehmer_diff(13).holds


def test_theorem3_examples():
    assert check_theorem3(7, 1).holds
    assert check_theorem3(11, 2).holds
    assert check_theorem3(7, 7).holds  # k may exceed p
    with pytest.raises(ValueError):
        check_theorem3(5, 1)


def test_theorem3_printed_k_variant_fails():
    """The printed display carries k where its own derivation forces k^2.

    At k = 1 the two coincide; from k = 2 on the printed form fails while
    the k^2 form holds (regression for the correction that ships).
    """
    p, k = 7, 2
    w = wilson_quotient(p)
    R = 1 - Fraction(1, p)
    b1, b2 = bernoulli(p - 1), bernoulli(2 * (p - 1))
    lhs = k * (p - 1) * w * (1 + p * w / 2)
    rhs_printed = -bernoulli(k * (p - 1)) + R + k * (b2 - b1) - Fraction(k, 2) * (b2 - R)
    assert vp(lhs - rhs_printed, p) < 2
    assert check_theorem3(p, k).holds


def test_super_wilson_criterion():
    rep = check_super_wilson_criterion(5)
    assert not rep.holds
    assert rep.lhs - rep.rhs == Fraction(-5, 2)
    assert rep.difference_valuation == 1
    assert not check_super_wilson_criterion(13).holds
    # 5 and 13 are nevertheless Wilson primes
    for p in (5, 13):
        assert wilson_quotient(p) % p == 0


def test_depth_monotonicity():
    reports = [
        check_theorem1(14, 7),
        check_theorem3(7, 1),
        check_super_wilson_criterion(7),
        check_lehmer_diff(11),
    ]
    for rep in reports:
        if rep.holds and rep.depth == 2:
            assert rep.difference_valuation >= 1


def test_aac_and_theorem1_verdicts_agree_for_prime_d():
    for p in (13, 17, 29, 37, 41, 53):
        assert check_aac_classical(p).holds == check_theorem1(p, p).holds, p


def test_soundness_link_two_evaluation_paths():
    """Both sides of the depth-2 unit congruence re-derive exactly from the
    series-coefficient route: lhs = 2 * class-number surrogate, and
    rhs = 2 * (interpolation value - r * a1).  Equality of rationals, so a
    bug in either route cannot hide."""
    for d, p in ((14, 7), (21, 7), (65, 5), (33, 11), (26, 13)):
        rep = check_theorem1(d, p)
        split = split_character(d, p)
        assert rep.lhs == 2 * lp1_via_class_number(d, p)
        assert rep.rhs == 2 * (
            lp_interp_value(split.r, split) - split.r * a1_closed_quadratic(split)
        )
        assert rep.holds == (vp(rep.lhs - rep.rhs, p) >= rep.depth)


def test_integration_identity_small_grid():
    """L_p(1) surrogate = L_p(1-r) - r a_1 (mod p^2): the full proof chain."""
    for p in (7, 11, 13):
        for m in range(1, 200 // p + 1):
            d = p * m
            if d <= 5 or m % p == 0 or not is_squarefree(d):
                continue
            split = split_character(d, p)
            lhs = lp1_via_class_number(d, p)
            rhs = lp_interp_value(split.r, split) - split.r * a1_closed_quadratic(split)
            assert vp(lhs - rhs, p) >= 2, (d, p)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(statement="NOPE")
    with pytest.raises(ValueError):
        ScanConfig(statement=THM1, kappa=1)
    with pytest.raises(ValueError):
        ScanConfig(statement=THM1, jobs=0)


def test_build_instances_thm1():
    cfg = ScanConfig(statement=THM1, d_max=100, p_max=19)
    inst = build_instances(cfg)
    assert inst == sorted(inst)
    assert all(s == THM1 and d <= 100 and 7 <= p <= 19 for s, d, p, _ in inst)
    assert (THM1, 14, 7, None) in inst
    # empty grid below the d > 5 floor
    assert build_instances(ScanConfig(statement=THM1, d_max=5, p_max=100)) == []
    with_p5 = build_instances(ScanConfig(statement=THM1, d_max=100, p_max=19, include_p5=True))
    assert (THM1, 10, 5, None) in with_p5


def _former_report_sort_key(instance):
    """The key scans used to sort their reports by."""
    statement, d, p, k = instance
    return (statement, d or 0, p, k or 0)


@pytest.mark.parametrize("include_p5", [False, True])
@pytest.mark.parametrize("statement", STATEMENTS)
def test_scan_reports_come_in_sorted_instance_order(statement, include_p5):
    """Instances are built in the order of the deleted report sort, and the
    scan's reports already stand in that order."""
    cfg = ScanConfig(statement=statement, d_max=150, p_min=3, p_max=31, k_max=3,
                     include_p5=include_p5)
    instances = build_instances(cfg)
    assert instances
    assert instances == sorted(instances, key=_former_report_sort_key)
    result = scan(cfg)
    assert not result.errors and len(result.reports) == len(instances)
    keys = [_former_report_sort_key((r.statement_id, r.d, r.p, r.k)) for r in result.reports]
    assert keys == sorted(keys)


def test_scan_computes_each_field_invariant_once_per_d(monkeypatch):
    """One unit, one class number and one squarefreeness decision of the
    shell per d.  The only characters a serial scan builds are the rows' psi,
    one per row: none of a field discriminant D is built to be checked."""
    real = characters_module.is_fundamental_discriminant
    asked = []
    monkeypatch.setattr(characters_module, "is_fundamental_discriminant",
                        lambda n: asked.append(n) or real(n))
    for memo in (fundamental_unit, class_number, invariants_shell, split_character):
        memo.cache_clear()
    result = scan(ScanConfig(statement=THM1, d_max=300, p_max=50))
    distinct_d = {r.d for r in result.reports}
    assert len(result.reports) > len(distinct_d)  # some d carry two primes
    assert fundamental_unit.cache_info().misses == len(distinct_d)
    assert class_number.cache_info().misses == len(distinct_d)
    assert invariants_shell.cache_info().misses == len(distinct_d)
    psis = [split_character(r.d, r.p).psi for r in result.reports]
    assert sorted(asked) == sorted(psi.discriminant for psi in psis if not psi.is_principal)


def test_scan_serial_and_parallel_agree():
    """Rows come back in order across uneven chunks of several items: 87 rows
    in chunks of 10 (jobs 2) or 7 (jobs 3), 35 characters in chunks of 4 or 2."""
    cfg = ScanConfig(statement=THM1, d_max=250, p_max=40)
    r1 = scan(cfg)
    assert len(r1.reports) == 87 and not r1.errors
    assert all(rep.holds for rep in r1.reports)
    rows1 = [rep.to_json_line() for rep in r1.reports]
    for jobs in (2, 3):
        r2 = scan(replace(cfg, jobs=jobs))
        assert not r2.errors
        assert [rep.to_json_line() for rep in r2.reports] == rows1, jobs


def test_parallel_scan_computes_no_unit_in_the_parent():
    """The kappa alert's v_p(u) comes from the worker that computed the row."""
    fundamental_unit.cache_clear()
    result = scan(ScanConfig(statement=THM1, d_max=300, p_max=50, jobs=2))
    assert result.reports and not result.errors
    assert fundamental_unit.cache_info().misses == 0


def test_scan_aggregates_instance_errors():
    """Scans never abort; the p = 3 defect instance simply reports False."""
    cfg = ScanConfig(statement=LEHMER_THM2, p_min=3, p_max=7, k_max=5)
    res = scan(cfg)
    assert not res.errors
    verdicts = {(rep.p, rep.k): rep.holds for rep in res.reports}
    assert verdicts[(3, 4)] is False
    assert all(v for (p, k), v in verdicts.items() if (p, k) != (3, 4))


def test_run_instance_dispatch():
    rep = run_instance((AAC_CLASSICAL, None, 13, None))
    assert rep.statement_id == AAC_CLASSICAL and rep.holds
    with pytest.raises(ValueError):
        run_instance(("UNKNOWN", None, 7, None))


def test_run_instance_flags_the_advisory_prime():
    assert run_instance((THM1, 10, 5, None)).advisory is True
    assert run_instance((THM1, 14, 7, None)).advisory is False
    assert check_theorem1(10, 5).advisory is False  # only run_instance sets the flag


def test_worker_error_aggregation():
    """A failing instance inside a pool worker comes back as an error record."""
    from quadcong.suite import _kernel_worker, _worker

    report, v, err = _worker(("UNKNOWN", None, 7, None))
    assert report is None and v is None
    assert err is not None and "UNKNOWN" in err
    report, v, err = _worker((AAC_CLASSICAL, None, 13, None))
    assert err is None and report.holds and v is None
    # phase 1 returns its values, and nothing for a character it cannot build
    assert _kernel_worker((QuadChar(-8), [3, 9])) == [(3, -8, 9), (9, -8, -2256633)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_splits_each_row_once(jobs):
    """Phase 1 splits every row and the row's check reuses that split, so the
    memo misses once per row, serially and in the parent of a forked scan."""
    cfg = ScanConfig(statement=THM1, d_max=300, p_max=50, jobs=jobs)
    split_character.cache_clear()
    result = scan(cfg)
    assert result.reports and not result.errors
    assert split_character.cache_info().misses == len(build_instances(cfg))


class _RecordingDict(dict):
    """A dict that records the keys assigned to it, in order."""

    def __init__(self):
        super().__init__()
        self.written = []

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)


def test_kernel_index_rows_stay_out_of_the_cache_and_are_built_once(monkeypatch, tmp_path):
    """The kernel's per-index rows are scratch: after phase 1 the cache holds,
    returns per call and stores exactly what a kernel without them (the series
    oracle, asking for every B_j up to the top index first) leaves.  Each
    live index builds its row once, though the first job does not hold the
    top index, and a second scan builds none."""
    cfg = ScanConfig(statement=THM1, d_max=120, p_max=23)
    jobs = suite_module._kernel_jobs(build_instances(cfg))
    assert jobs[0][1][-1] < max(ns[-1] for _, ns in jobs)

    def phase_one(cache):
        monkeypatch.setattr(bernoulli_module, "DEFAULT_CACHE", cache)
        monkeypatch.setattr(suite_module, "DEFAULT_CACHE", cache)
        returned = [suite_module._kernel_worker(job) for job in jobs]
        path = store_cache(str(tmp_path / str(id(cache))), cache)
        with open(path, "rb") as fh:
            return len(cache), cache.entries(), returned, fh.read()

    reference = BernoulliCache()

    def series_kernel(ns, chi):
        for j in range(max(ns) + 1):
            reference.bernoulli(j)
        return [gen_bernoulli_series(n, chi.conductor, chi) for n in ns]

    reference._gen_bernoulli_compute = series_kernel
    fresh = BernoulliCache()
    fresh._rows = _RecordingDict()
    assert phase_one(fresh) == phase_one(reference)
    live = {n for psi, ns in jobs for n in ns if psi.parity == (-1) ** n}
    assert sorted(fresh._rows.written) == sorted(live)
    monkeypatch.setattr(bernoulli_module, "DEFAULT_CACHE", fresh)
    monkeypatch.setattr(suite_module, "DEFAULT_CACHE", fresh)
    result = scan(cfg)
    assert result.reports and not result.errors
    assert sorted(fresh._rows.written) == sorted(live)


def test_registry_grids_match_check_guards():
    """Every instance a statement's grid rule yields passes its check's own
    input guard, and the CLI names cover exactly the registered statements."""
    from quadcong.cli import _STATEMENT_NAMES
    from quadcong.suite import REGISTRY, STATEMENTS

    assert set(_STATEMENT_NAMES.values()) == set(STATEMENTS)
    for stmt in REGISTRY:
        cfg = ScanConfig(statement=stmt, d_max=60, p_min=3, p_max=23, k_max=2, include_p5=True)
        instances = build_instances(cfg)
        assert instances, stmt
        for inst in instances:
            assert run_instance(inst).statement_id == stmt, inst


@pytest.mark.parametrize("check, d, p", [
    (check_theorem1, 14, 7),
    (check_corollary_exact_division, 238, 7),
    (check_super_aacm_criterion, 26, 13),
])
def test_split_checks_compute_r_and_3r_in_one_kernel_pass(monkeypatch, check, d, p):
    """THM1, COR and super-AACM ask for B_{r,psi} and B_{3r,psi} together;
    lp_interp_value's later read of B_{r,psi} is a cache hit."""
    fresh = BernoulliCache()
    asked = []
    kernel = fresh._gen_bernoulli_compute
    fresh._gen_bernoulli_compute = lambda ns, chi: asked.append(list(ns)) or kernel(ns, chi)
    monkeypatch.setattr(bernoulli_module, "DEFAULT_CACHE", fresh)
    rep = check(d, p)
    r = split_character(d, p).r
    assert asked == [[r, 3 * r]]
    monkeypatch.undo()
    assert check(d, p) == rep


def test_scan_walks_the_kernel_once_per_character(monkeypatch):
    """d <= 2000, p <= 200: 1089 rows over 255 non-principal characters psi
    take 255 walks (a walk per row took 1069); a warm rescan takes none."""
    _, asked = _install_fresh_cache(monkeypatch)
    cfg = ScanConfig(statement=THM1, d_max=2000, p_max=200)
    result = scan(cfg)
    assert len(result.reports) == 1089 and not result.errors
    psis = {split_character(d, p).psi for _, d, p, _ in build_instances(cfg)}
    assert len(asked) == sum(not psi.is_principal for psi in psis) == 255
    asked.clear()
    assert [r.to_json_line() for r in scan(cfg).reports] == [
        r.to_json_line() for r in result.reports]
    assert asked == []


@pytest.mark.parametrize("cfg", [
    ScanConfig(statement=COR_EXACT_DIV, d_max=1500, p_max=60),
    ScanConfig(statement=SUPER_AACM_CRIT, d_max=300, p_max=50),
], ids=lambda cfg: cfg.statement)
def test_phase_one_statements_scan_alike_serially_and_in_parallel(monkeypatch, cfg):
    """From a fresh cache, --jobs 1 and --jobs 2 give the same rows and the
    same character entries, and no row computes a B_{n,chi}: phase 1 did.
    Under --jobs 2 the plain B_n stay in the workers, so only the character
    entries, the ones the cache file stores, are compared."""
    monkeypatch.setattr(suite_module, "_worker", _worker_refusing_character_entries)
    seen = []
    for jobs in (1, 2):
        fresh, _ = _install_fresh_cache(monkeypatch)
        result = scan(replace(cfg, jobs=jobs))
        assert len(result.reports) > 3 and not result.errors
        seen.append(([r.to_json_line() for r in result.reports],
                     [e for e in fresh.entries() if e[1] is not None]))
    assert seen[0] == seen[1]
    assert seen[0][1]


def test_phase_one_failure_leaves_the_rows_to_report_it(monkeypatch):
    """A kernel that raises does not abort the scan: each row of the
    character retries it and lands in errors."""
    fresh, _ = _install_fresh_cache(monkeypatch)

    def broken(ns, chi):
        raise ArithmeticError(f"kernel refused {chi.discriminant}")

    fresh._gen_bernoulli_compute = broken
    result = scan(ScanConfig(statement=THM1, d_max=60, p_max=13))
    assert result.errors and all("kernel refused" in e for e in result.errors)
    assert result.reports and all(r.d == r.p for r in result.reports)  # only principal psi rows got through


def test_json_lines_are_the_lines_json_dumps_writes():
    """to_json_line, which formats its line directly, gives the bytes of
    json.dumps(to_json_obj(), sort_keys=True, separators=(",", ":")) on the
    rows of all eight statements, an advisory p = 5 THM1 row and failing
    rows among them, and on a detector row whose valuation is inf."""
    rows = []
    for statement in STATEMENTS:
        rows += scan(ScanConfig(statement=statement, d_max=150, p_min=3, p_max=31, k_max=3,
                                include_p5=True)).reports
    assert {r.statement_id for r in rows} == set(STATEMENTS)
    assert any(r.statement_id == THM1 and r.p == 5 and r.advisory for r in rows)
    assert any(not r.holds for r in rows)
    b9 = Fraction(-2256633)
    rows.append(make_report(SUPER_AACM_CRIT, b9, b9, 7, depth=2, d=14))
    assert rows[-1].difference_valuation == INF and rows[-1].holds
    for r in rows:
        assert r.to_json_line() == json.dumps(r.to_json_obj(), sort_keys=True,
                                              separators=(",", ":")), r
