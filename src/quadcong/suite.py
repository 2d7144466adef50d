"""Named congruence checks and grid scans.

Each check evaluates both sides of one published congruence exactly and
returns a CongruenceReport whose verdict is the valuation test
v_p(lhs - rhs) >= depth.  Detector statements (super-AACM, super-Wilson)
are one-directional: a failed congruence disproves the super property,
a held one proves nothing.

Two displayed identities are implemented in corrected form, with the
printed variants preserved in the regression tests:

* the Wilson-quotient depth-2 identity carries k^2 (not k) on the
  Bernoulli-difference block -- forced by its own derivation through the
  series coefficient a_1 and confirmed numerically (the printed form
  already fails at p = 7, k = 2);
* the depth-1 Wilson congruence B_{k(p-1)} + 1/p - 1 = k W_p (mod p) is
  checked as printed, but it is genuinely false at p = 3 (k = 4 is the
  smallest counterexample), consistent with every derivation in sight
  assuming p > 3.  The default scan floor p_min = 7 keeps it out of
  gates; lowering p_min to 3 reproduces the failure honestly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from multiprocessing import get_context
from typing import Callable, Iterator

from .bernoulli import DEFAULT_CACHE, bernoulli, gen_bernoulli_many
from .characters import CharacterSplit, split_character
from .lseries import (a0_closed_principal, a1_closed_principal, lp1_via_class_number,
                      lp_interp_value, wilson_quotient)
from .primes import is_prime, is_squarefree, primes_up_to
from .quadfield import class_number, fundamental_unit, vp_u
from .reports import CongruenceReport, make_report

AAC_CLASSICAL = "AAC_CLASSICAL"
THM1 = "THM1"
COR_EXACT_DIV = "COR_EXACT_DIV"
SUPER_AACM_CRIT = "SUPER_AACM_CRIT"
LEHMER_THM2 = "LEHMER_THM2"
LEHMER_DIFF = "LEHMER_DIFF"
THM3 = "THM3"
SUPER_WILSON_CRIT = "SUPER_WILSON_CRIT"


def _require_split_shape(d: int, p: int, p_floor: int) -> CharacterSplit:
    """The split of Q(sqrt(d)) at p, after the statement's own p floor and d > 5.

    split_character checks the rest: p prime, p exactly dividing d, d squarefree.
    """
    if p <= p_floor:
        raise ValueError(f"need a prime p > {p_floor}, got {p}")
    if d <= 5:
        raise ValueError(f"need d > 5, got {d}")
    return split_character(d, p)


def check_aac_classical(p: int) -> CongruenceReport:
    """Depth-1 congruence 2 h u / t = -B_r / r (mod p) for prime d = p = 1 mod 4."""
    if p < 5 or p % 4 != 1 or not is_prime(p):
        raise ValueError(f"need a prime p = 1 mod 4, p >= 5; got {p}")
    unit = fundamental_unit(p)
    r = (p - 1) // 2
    lhs = Fraction(2 * class_number(p).h * unit.u, unit.t)
    rhs = -bernoulli(r) / r
    return make_report(AAC_CLASSICAL, lhs, rhs, p, depth=1, d=p)


def check_theorem1(d: int, p: int) -> CongruenceReport:
    """Depth-2 unit/class-number congruence for d = p m squarefree, d > 5.

    (4h/delta)(u/t + (d/3)(u/t)^3)
        = -3 (1 - psi(p) p^(r-1)) B_{r,psi}/r + B_{3r,psi}/(3r)  (mod p^2),
    whose first term is 3 L_p(1-r, psi).

    Defined for p > 3; at p = 5 the truncation argument behind the left
    side thins out, so callers gate p = 5 separately (the check itself
    stays faithful and simply reports the verdict).
    """
    split = _require_split_shape(d, p, p_floor=3)
    r = split.r
    lhs = 2 * lp1_via_class_number(d, p)
    _, b3r = gen_bernoulli_many((r, 3 * r), split.psi)  # lp_interp_value reads B_r back
    lp = lp_interp_value(r, split)
    # 3 lp + b3r/(3r) over the denominator 3r lp_den b3r_den
    rhs = Fraction(9 * r * lp.numerator * b3r.denominator + b3r.numerator * lp.denominator,
                   3 * r * lp.denominator * b3r.denominator)
    return make_report(THM1, lhs, rhs, p, depth=2, d=d)


def check_corollary_exact_division(d: int, p: int) -> CongruenceReport:
    """Depth-1 congruence for p exactly dividing u (p > 5).

    (2h/delta)(u/(pt)) = (1/p)(3 B_{r,psi} - B_{3r,psi}/3)  (mod p).
    Raises if v_p(u) != 1: the statement's hypothesis fails and no verdict
    is meaningful.
    """
    split = _require_split_shape(d, p, p_floor=5)
    v = vp_u(d, p)
    if v != 1:
        raise ValueError(f"statement needs v_p(u) = 1; v_{p}(u) = {v} for d = {d}")
    unit = fundamental_unit(d)
    r = split.r
    lhs = Fraction(2 * class_number(d).h * unit.u, unit.delta * p * unit.t)
    br, b3r = gen_bernoulli_many((r, 3 * r), split.psi)
    # (3 br - b3r/3)/p over the denominator 3p br_den b3r_den
    rhs = Fraction(9 * br.numerator * b3r.denominator - b3r.numerator * br.denominator,
                   3 * p * br.denominator * b3r.denominator)
    return make_report(COR_EXACT_DIV, lhs, rhs, p, depth=1, d=d)


def check_super_aacm_criterion(d: int, p: int) -> CongruenceReport:
    """Depth-2 detector 9 B_{r,psi} = B_{3r,psi} (mod p^2), p > 5, p | d.

    Contrapositive use only: failure certifies p^2 does not divide u.
    """
    split = _require_split_shape(d, p, p_floor=5)
    r = split.r
    br, b3r = gen_bernoulli_many((r, 3 * r), split.psi)
    return make_report(SUPER_AACM_CRIT, 9 * br, b3r, p, depth=2, d=d)


def check_lehmer_thm2(p: int, k: int) -> CongruenceReport:
    """Depth-1 Wilson-quotient congruence B_{k(p-1)} + 1/p - 1 = k W_p (mod p).

    Checked literally for any odd prime; genuinely false at p = 3 for
    k = 1 mod 3, k > 1 (see module docstring), true for p > 3.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = bernoulli(k * (p - 1)) + Fraction(1, p) - 1
    rhs = k * wilson_quotient(p)
    return make_report(LEHMER_THM2, lhs, rhs, p, depth=1, k=k)


def check_lehmer_diff(p: int) -> CongruenceReport:
    """Depth-1 congruence B_{2(p-1)} - B_{p-1} = W_p (mod p)."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    lhs = bernoulli(2 * (p - 1)) - bernoulli(p - 1)
    rhs = wilson_quotient(p)
    return make_report(LEHMER_DIFF, lhs, rhs, p, depth=1)


def check_theorem3(p: int, k: int) -> CongruenceReport:
    """Depth-2 Wilson-quotient identity, k^2-corrected.

    k(p-1) W_p (1 + p W_p / 2)
        = -B_{k(p-1)} + R + k^2 (B_{2(p-1)} - B_{p-1}) - (k^2/2)(B_{2(p-1)} - R)
    (mod p^2), R = 1 - 1/p.  Both sides are read from the series of
    L_p(1-s, chi_0): the left is k(p-1) a_0, and the Bernoulli block is
    -k^2 (p-1)^2 a_1.  The variant with k in place of k^2 appears in
    print but contradicts its own proof and fails numerically for every
    k >= 2; both facts are pinned by tests.
    """
    if p <= 5 or not is_prime(p):
        raise ValueError(f"need a prime p > 5, got {p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    R = 1 - Fraction(1, p)
    lhs = k * (p - 1) * a0_closed_principal(p)
    rhs = -bernoulli(k * (p - 1)) + R - (k * (p - 1)) ** 2 * a1_closed_principal(p)
    return make_report(THM3, lhs, rhs, p, depth=2, k=k)


def check_super_wilson_criterion(p: int) -> CongruenceReport:
    """Depth-2 detector 4(B_{p-1} - R) = B_{2(p-1)} - R (mod p^2).

    Contrapositive use only: failure certifies p is not super-Wilson
    (p^2 does not divide W_p).
    """
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")
    R = 1 - Fraction(1, p)
    lhs = 4 * (bernoulli(p - 1) - R)
    rhs = bernoulli(2 * (p - 1)) - R
    return make_report(SUPER_WILSON_CRIT, lhs, rhs, p, depth=2)


# -- the statement table ------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """Everything the scans and the CLI know about one named congruence.

    `check` takes (d, p), (p, k) or (p) as `takes_d` / `takes_k` say.  A
    scan offers it the primes p_min <= p <= p_max passing `p_ok`, and for
    `takes_d` statements every squarefree d = p m > 5 (p not dividing m)
    up to d_max that `admits` accepts.  A detector's "holds" is the
    anomaly, not the expectation.  run_instance flags the rows at
    `advisory_p` advisory: reported, never gating.  Scans of `takes_d`
    statements flag v_p(u) >= kappa.
    """

    id: str
    cli_name: str
    check: Callable[..., CongruenceReport]
    p_ok: Callable[[int], bool]
    takes_d: bool = False
    takes_k: bool = False
    admits: Callable[[int, int], bool] | None = None
    detector: bool = False
    advisory_p: int | None = None


REGISTRY: dict[str, Statement] = {s.id: s for s in (
    Statement(AAC_CLASSICAL, "aac", check_aac_classical,
              p_ok=lambda p: p % 4 == 1 and p >= 5),
    Statement(THM1, "thm1", check_theorem1, p_ok=lambda p: p >= 7, takes_d=True,
              advisory_p=5),
    Statement(COR_EXACT_DIV, "cor-exact-div", check_corollary_exact_division,
              p_ok=lambda p: p >= 7, takes_d=True, admits=lambda d, p: vp_u(d, p) == 1),
    Statement(SUPER_AACM_CRIT, "super-aacm", check_super_aacm_criterion,
              p_ok=lambda p: p >= 7, takes_d=True, detector=True),
    Statement(LEHMER_THM2, "lehmer2", check_lehmer_thm2, p_ok=lambda p: p >= 3, takes_k=True),
    Statement(LEHMER_DIFF, "lehmer-diff", check_lehmer_diff, p_ok=lambda p: p >= 3),
    Statement(THM3, "thm3", check_theorem3, p_ok=lambda p: p > 5, takes_k=True),
    Statement(SUPER_WILSON_CRIT, "super-wilson", check_super_wilson_criterion,
              p_ok=lambda p: p > 3, detector=True),
)}

STATEMENTS = tuple(REGISTRY)
DETECTORS = frozenset(s.id for s in REGISTRY.values() if s.detector)


def lookup(statement_id: str) -> Statement:
    """The table row of a statement id; ValueError for an unknown id."""
    if statement_id not in REGISTRY:
        raise ValueError(f"unknown statement {statement_id!r}")
    return REGISTRY[statement_id]


# -- scans --------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Grid description for a scan over one statement."""

    statement: str
    d_max: int | None = None
    p_min: int = 7
    p_max: int | None = None
    k_max: int = 5
    include_p5: bool = False
    jobs: int = 1
    kappa: int = 2

    def __post_init__(self) -> None:
        lookup(self.statement)
        if self.kappa < 2:
            raise ValueError("kappa must be >= 2")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _squarefree_pm_grid(d_max: int, ps: list[int]) -> list[tuple[int, int]]:
    grid = []
    for p in ps:
        for m in range(1, d_max // p + 1):
            d = p * m
            if d > 5 and m % p != 0 and is_squarefree(d):
                grid.append((d, p))
    return sorted(grid)


def build_instances(cfg: ScanConfig) -> list[tuple]:
    """The instance list for a scan config, in report order: ascending (d, p, k)."""
    st = lookup(cfg.statement)
    if st.takes_d and (cfg.d_max is None or cfg.p_max is None):
        raise ValueError(f"{st.id} scans need d_max and p_max")
    if cfg.p_max is None:
        raise ValueError(f"{st.id} scans need p_max")
    ps = [p for p in primes_up_to(cfg.p_max) if p >= cfg.p_min and st.p_ok(p)]
    if cfg.include_p5 and st.advisory_p is not None and cfg.p_max >= st.advisory_p:
        ps = [st.advisory_p] + ps  # advisory instances, outside the default gate
    if st.takes_d:
        return [(st.id, d, p, None) for d, p in _squarefree_pm_grid(cfg.d_max, ps)
                if st.admits is None or st.admits(d, p)]
    ks = range(1, cfg.k_max + 1) if st.takes_k else (None,)
    return [(st.id, None, p, k) for p in ps for k in ks]


def run_instance(instance: tuple) -> CongruenceReport:
    """Evaluate one (statement, d, p, k) instance against the default cache;
    the row carries its advisory flag."""
    stmt, d, p, k = instance
    st = lookup(stmt)
    args = ((d,) if st.takes_d else ()) + (p,) + ((k,) if st.takes_k else ())
    report = st.check(*args)
    return replace(report, advisory=True) if p == st.advisory_p else report


def _worker(instance: tuple):
    """(report, v_p(u) or None, error); v_p(u) is read for every row that has
    a d, from the unit this process already memoized for the row."""
    try:
        report = run_instance(instance)
        _, d, p, _ = instance
        return report, None if d is None else vp_u(d, p), None
    except Exception as exc:  # aggregated, never aborts the scan
        return None, None, f"{instance}: {exc}"


def _kernel_jobs(instances: list[tuple]) -> list[tuple]:
    """(psi, sorted r and 3r over its rows) for each non-principal
    character psi of the (d, p) instances, largest conductor times top index
    first.  A principal psi has no job: its rows read plain B_n.

    psi(-1) = (-1)^r, so all indices of one psi share its parity and one
    kernel walk up to the largest serves them all.
    """
    wanted: dict = {}
    for _, d, p, _ in instances:
        try:
            split = split_character(d, p)
        except Exception:  # the row raises again in phase 2 and lands in errors
            continue
        if not split.psi.is_principal:
            wanted.setdefault(split.psi, set()).update((split.r, 3 * split.r))
    return sorted(((psi, sorted(ns)) for psi, ns in wanted.items()),
                  key=lambda job: job[0].conductor * job[1][-1], reverse=True)


def _kernel_worker(job: tuple) -> list[tuple[int, int, Fraction]]:
    """Phase 1 for one character: its (n, disc, B_{n,psi}) triples, or [] if
    the kernel raises; the rows then report the failure."""
    psi, ns = job
    try:
        return [(n, psi.discriminant, v) for n, v in zip(ns, gen_bernoulli_many(ns, psi))]
    except Exception:
        return []


def _fan_out(work: Callable, items: list, jobs: int) -> Iterator:
    """work(item) for item in items, yielded in order as the calls return.
    With jobs > 1 and several items, `jobs` forked workers, each a copy of
    this process, take the calls in order, four chunks per worker."""
    if jobs < 2 or len(items) < 2:
        yield from map(work, items)
        return
    with get_context("fork").Pool(processes=jobs) as pool:
        yield from pool.imap(work, items, chunksize=max(1, len(items) // (4 * jobs)))


@dataclass
class ScanResult:
    reports: list[CongruenceReport] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    alerts: list[str] = field(default_factory=list)


def scan(cfg: ScanConfig) -> ScanResult:
    """Run every instance of the configured grid; reports in instance order.

    A scan of a statement that takes d runs in two phases.  Phase 1 makes
    one gen_bernoulli_many call per non-principal character psi of the
    grid, for the union of r and 3r over its rows, so each psi costs one
    kernel walk (none on a warm cache).  Phase 2 runs the rows, whose
    B_{n,psi} reads and splits are then hits.  Both go through _fan_out,
    phase 1 by character, largest first; its values are merged as they
    return, so phase 2's forked workers inherit every B_{n,psi}.  Rows
    return no entries: plain B_n a forked row computes stay in its worker.
    """
    instances = build_instances(cfg)
    if lookup(cfg.statement).takes_d:
        for entries in _fan_out(_kernel_worker, _kernel_jobs(instances), cfg.jobs):
            DEFAULT_CACHE.merge(entries)
    result = ScanResult()
    for report, v, err in _fan_out(_worker, instances, cfg.jobs):
        if err is not None:
            result.errors.append(err)
            continue
        result.reports.append(report)
        # weak-divisibility alert (d^kappa | u never expected): v_p(u) >= kappa
        if v is not None and v >= cfg.kappa:
            result.alerts.append(
                f"v_{report.p}(u) = {v} >= kappa = {cfg.kappa} at d = {report.d}"
            )
    return result
