"""Command-line front end: verify, scan, table1, bernoulli, lfun.

Exit codes: 0 every checked congruence holds (or, for detector scans,
finished cleanly), 1 a congruence check failed, 2 usage or input error.
Report rows go to stdout (or --out) as JSON-lines or CSV with rationals
serialized exactly; the run manifest goes to stderr so that the report
stream stays byte-for-byte reproducible.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import __version__
from .bernoulli import BernoulliCache, DEFAULT_CACHE, bernoulli, gen_bernoulli
from .characters import QuadChar, is_fundamental_discriminant, split_character
from .lseries import (
    a0_closed_principal,
    a1_closed_principal,
    a1_closed_quadratic,
    a_coefficients_direct,
)
from .padic import vp
from .primes import factorize, is_prime
from .quadfield import field_invariants
from .reports import CSV_HEADER, CongruenceReport, rational_str
from .suite import DETECTORS, REGISTRY, ScanConfig, run_instance, scan

CACHE_FILE = "bernoulli-cache-v1.json"
CACHE_VERSION = 1

_STATEMENT_NAMES = {s.cli_name: s.id for s in REGISTRY.values()}

# Reproduction targets: (d, factorization, h, p, v_p(u), long_running)
TABLE1_ROWS = (
    (4099215, {3: 1, 5: 1, 273281: 1}, 4, 3, 3, False),
    (125854178626, {2: 1, 11: 1, 17: 1, 336508499: 1}, 8, 11, 2, True),
    (20256129307923, {3: 1, 569: 1, 2659: 1, 4462771: 1}, 16, 3, 2, True),
)


@dataclass
class RunManifest:
    command: str
    config: dict
    version: str
    wall_time_s: float
    instances: int
    passed: int
    failed: int
    errors: int

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "config": self.config,
            "version": self.version,
            "wall_time_s": round(self.wall_time_s, 3),
            "instances": self.instances,
            "passed": self.passed,
            "failed": self.failed,
            "errors": self.errors,
        }
        return json.dumps(obj, sort_keys=True)

    def consistent(self) -> bool:
        return self.passed + self.failed + self.errors == self.instances


# -- bernoulli cache persistence ----------------------------------------------


def _entry_valid(n, disc, num, den) -> bool:
    """Well-formedness and arithmetic sanity of one cache entry.

    Beyond shape checks this enforces invariants a tampered value is
    likely to break: lowest terms, the square-free denominator with its
    exact prime set for plain even-index values (von Staudt-Clausen),
    vanishing at odd indices > 1, and the parity/sign laws.
    """
    if not (isinstance(n, int) and n >= 0):
        return False
    if disc is not None and disc != 1 and not is_fundamental_discriminant(disc):
        return False
    if not (isinstance(num, int) and isinstance(den, int) and den > 0):
        return False
    if gcd(num, den) != 1:
        return False
    if disc is None:
        if n == 0:
            return (num, den) == (1, 1)
        if n == 1:
            return (num, den) == (-1, 2)
        if n % 2 == 1:
            return (num, den) == (0, 1)
        expected_den = 1
        for q in range(2, n + 2):
            if n % (q - 1) == 0 and is_prime(q):
                expected_den *= q
        if den != expected_den:
            return False
        if (num < 0) != (n % 4 == 0):  # sign of B_{2k} alternates
            return False
    else:
        parity = 1 if disc > 0 else -1
        if disc != 1 and n >= 1 and parity != (-1) ** n:
            return num == 0 and den == 1
    return True


class CacheDirError(Exception):
    """Cache directory unusable (unwritable, or a file where a dir belongs)."""


def load_cache(cache_dir: str, cache: BernoulliCache | None = None) -> tuple[int, int]:
    """Load the versioned cache file; returns (accepted, rejected)."""
    path = os.path.join(cache_dir, CACHE_FILE)
    c = cache or DEFAULT_CACHE
    if not os.path.exists(path):
        return 0, 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: unreadable cache file {path}: {exc}", file=sys.stderr)
        return 0, 0
    if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
        print(f"warning: cache version mismatch in {path}; rebuilding", file=sys.stderr)
        return 0, 0
    accepted = rejected = 0
    good = []
    for entry in payload.get("entries", []):
        try:
            n = entry["n"]
            disc = entry["disc"]
            num = int(entry["num"])
            den = int(entry["den"])
        except (KeyError, TypeError, ValueError):
            rejected += 1
            continue
        if not _entry_valid(n, disc, num, den):
            rejected += 1
            continue
        good.append((n, disc, Fraction(num, den)))
        accepted += 1
    if rejected:
        print(f"warning: dropped {rejected} corrupt cache entries from {path}", file=sys.stderr)
    c.merge(good)
    return accepted, rejected


def store_cache(cache_dir: str, cache: BernoulliCache | None = None) -> str:
    c = cache or DEFAULT_CACHE
    entries = [
        {"n": n, "disc": disc, "num": str(v.numerator), "den": str(v.denominator)}
        for n, disc, v in c.entries()
    ]
    payload = {"version": CACHE_VERSION, "entries": entries}
    try:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, CACHE_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise CacheDirError(f"cache directory {cache_dir} is not writable: {exc}")
    return path


# -- output helpers -----------------------------------------------------------


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_reports(reports: list[CongruenceReport], fmt: str,
                    advisory_flags: list[bool] | None = None) -> list[str]:
    flags = advisory_flags or [False] * len(reports)
    if fmt == "csv":
        return [CSV_HEADER] + [r.to_csv_row(advisory=f) for r, f in zip(reports, flags)]
    return [r.to_json_line(advisory=f) for r, f in zip(reports, flags)]


def _is_advisory(report: CongruenceReport) -> bool:
    return REGISTRY[report.statement_id].advisory_p == report.p


def scan_exit_code(statement: str, verdicts: list[tuple[bool, bool]], n_errors: int) -> int:
    """Exit code for a scan over (holds, advisory) verdict pairs.

    Internal errors dominate (2); detector statements exit 0 regardless of
    verdicts (failing the congruence is their expected, informative
    outcome); otherwise any non-advisory failure means 1.
    """
    if n_errors:
        return 2
    if statement in DETECTORS:
        return 0
    return 1 if any(not holds for holds, advisory in verdicts if not advisory) else 0


# -- subcommands --------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    st = REGISTRY[_STATEMENT_NAMES[args.statement]]
    if args.p is None:
        raise ValueError("--p is required")
    for flag, takes in (("d", st.takes_d), ("k", st.takes_k)):
        if takes != (getattr(args, flag) is not None):
            need = "needs" if takes else "does not take"
            raise ValueError(f"{args.statement} {need} --{flag}")
    report = run_instance((st.id, args.d, args.p, args.k))
    _emit(_render_reports([report], args.format, [_is_advisory(report)]), args.out)
    manifest = RunManifest(
        command="verify", config=_echo_config(args), version=__version__,
        wall_time_s=time.perf_counter() - t0, instances=1,
        passed=int(report.holds), failed=int(not report.holds), errors=0,
    )
    print(manifest.to_json(), file=sys.stderr)
    return 0 if report.holds else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    stmt = _STATEMENT_NAMES[args.statement]
    result = scan(ScanConfig(
        statement=stmt,
        d_max=args.d_max,
        p_min=args.p_min,
        p_max=args.p_max,
        k_max=args.k_max,
        include_p5=args.include_p5,
        jobs=args.jobs,
        kappa=args.kappa,
    ))
    flags = [_is_advisory(r) for r in result.reports]
    _emit(_render_reports(result.reports, args.format, flags), args.out)
    manifest = RunManifest(
        command="scan", config=_echo_config(args), version=__version__,
        wall_time_s=time.perf_counter() - t0, instances=len(result.reports),
        passed=sum(r.holds for r in result.reports),
        failed=sum(not r.holds for r in result.reports),
        errors=len(result.errors),
    )
    print(manifest.to_json(), file=sys.stderr)
    for err in result.errors:
        print(f"error: {err}", file=sys.stderr)
    for alert in result.alerts:
        print(f"alert: {alert}", file=sys.stderr)
    if stmt in DETECTORS:
        for r in result.reports:
            if r.holds:
                print(f"attention: detector congruence holds at {r.to_json_line()}", file=sys.stderr)
    verdicts = [(r.holds, f) for r, f in zip(result.reports, flags)]
    return scan_exit_code(stmt, verdicts, len(result.errors))


def _cmd_table1(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    lines = []
    passed = failed = skipped = 0
    for d, fac, h_ref, p, vpu_ref, long_run in TABLE1_ROWS:
        if long_run and not args.long_running:
            lines.append(json.dumps({"d": d, "skipped": "requires --long-running"},
                                    sort_keys=True))
            skipped += 1
            continue
        fac_got = factorize(d)
        inv = field_invariants(d, p)
        v_got = vp(inv.u, p)
        ok = fac_got == fac and inv.h == h_ref and v_got == vpu_ref
        lines.append(json.dumps({
            "d": d,
            "factorization": {str(q): e for q, e in sorted(fac_got.items())},
            "h": inv.h,
            "h_expected": h_ref,
            "p": p,
            "vp_u": v_got,
            "vp_u_expected": vpu_ref,
            "u_bits": inv.u_bit_length,
            "cf_period": inv.cf_period,
            "match": ok,
        }, sort_keys=True))
        passed += int(ok)
        failed += int(not ok)
    _emit(lines, args.out)
    manifest = RunManifest(
        command="table1", config=_echo_config(args), version=__version__,
        wall_time_s=time.perf_counter() - t0, instances=passed + failed + skipped,
        passed=passed, failed=failed, errors=skipped,
    )
    print(manifest.to_json(), file=sys.stderr)
    return 0 if failed == 0 else 1


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.disc is None:
        value = bernoulli(args.n)
    else:
        value = gen_bernoulli(args.n, QuadChar(args.disc))
    _emit([json.dumps({"n": args.n, "disc": args.disc, "value": rational_str(value)},
                      sort_keys=True)], args.out)
    return 0


def _cmd_lfun(args: argparse.Namespace) -> int:
    p = args.p
    if args.d is None:
        bundle = a_coefficients_direct(QuadChar.principal(), p)
        closed0 = a0_closed_principal(p)
        closed1 = a1_closed_principal(p)
        obj = {
            "character": "principal",
            "p": p,
            "F": bundle.F,
            "a_minus1": rational_str(bundle.a_minus1),
            "a0_direct": rational_str(bundle.a0),
            "a1_direct": rational_str(bundle.a1),
            "a0_closed": rational_str(closed0),
            "a1_closed": rational_str(closed1),
            "v_p_a0_agreement": str(vp(bundle.a0 - closed0, p)),
            "v_p_a1_agreement": str(vp(bundle.a1 - closed1, p)),
        }
    else:
        split = split_character(args.d, p, check=False)
        bundle = a_coefficients_direct(split.chi_d, p)
        closed1 = a1_closed_quadratic(split)
        obj = {
            "character": f"quadratic disc {split.chi_d.discriminant}",
            "p": p,
            "d": args.d,
            "psi_disc": split.psi.discriminant,
            "F": bundle.F,
            "a_minus1": rational_str(bundle.a_minus1),
            "a0_direct": rational_str(bundle.a0),
            "a1_direct": rational_str(bundle.a1),
            "a1_closed": rational_str(closed1),
            "v_p_a1_agreement": str(vp(bundle.a1 - closed1, p)),
        }
    _emit([json.dumps(obj, sort_keys=True)], args.out)
    return 0


# -- argument plumbing --------------------------------------------------------


def _echo_config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with the defaults of the --config file named in argv."""
    parser = argparse.ArgumentParser(
        prog="quadcong",
        description="Exact verification of quadratic-field and Wilson-quotient congruences",
    )
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="check one statement instance")
    pv.add_argument("statement", choices=sorted(_STATEMENT_NAMES))
    pv.add_argument("--d", type=int, default=None)
    pv.add_argument("--p", type=int, default=None)
    pv.add_argument("--k", type=int, default=None)
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("scan", help="check a statement over a grid")
    ps.add_argument("statement", choices=sorted(_STATEMENT_NAMES))
    ps.add_argument("--d-max", type=int, default=None)
    ps.add_argument("--p-min", type=int, default=7)
    ps.add_argument("--p-max", type=int, default=None)
    ps.add_argument("--k-max", type=int, default=5)
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--kappa", type=int, default=2)
    advisory = "/".join(s.cli_name for s in REGISTRY.values() if s.advisory_p == 5)
    ps.add_argument("--include-p5", action="store_true",
                    help=f"add advisory p=5 instances to {advisory} scans")
    ps.set_defaults(func=_cmd_scan)

    pt = sub.add_parser("table1", help="recompute the reference d rows (h and v_p(u))")
    pt.add_argument("--long-running", action="store_true",
                    help="include the two large rows (no time bound)")
    pt.set_defaults(func=_cmd_table1)

    pb = sub.add_parser("bernoulli", help="print B_n or B_{n,chi}")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--disc", type=int, default=None,
                    help="fundamental discriminant of the character (omit for plain B_n)")
    pb.set_defaults(func=_cmd_bernoulli)

    pl = sub.add_parser("lfun", help="print the series coefficient bundle at (chi, p)")
    pl.add_argument("--p", type=int, required=True)
    pl.add_argument("--d", type=int, default=None,
                    help="squarefree d = p*m for the quadratic character (omit for principal)")
    pl.set_defaults(func=_cmd_lfun)
    for sp in (pv, ps, pt, pb, pl):
        sp.add_argument("--out", default=None,
                        help="write report rows to this file instead of stdout")
    for sp in (pv, ps):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    for sp in (pv, ps, pb, pl):
        sp.add_argument("--cache-dir", default=None, help="directory for the Bernoulli cache")
    _install_config(argv or [], sub.choices)
    return parser


def _install_config(argv: list[str], subcommands: dict[str, argparse.ArgumentParser]) -> None:
    """Make each key=value line of the --config file named in argv the default
    of that flag in every subcommand that has it; explicit flags still win.

    argparse converts a string default through the flag's `type`.  A switch
    (`store_true`) is turned on by true, 1 or yes.
    """
    if "--config" not in argv or argv.index("--config") + 1 == len(argv):
        return
    path = argv[argv.index("--config") + 1]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            pairs = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
    except OSError as exc:
        raise SystemExit(f"error: cannot read config file {path}: {exc}")
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"error: malformed config line {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        flag = "--" + key.replace("_", "-")
        owners = [(sp, action) for sp in subcommands.values() for action in sp._actions
                  if flag in action.option_strings and action.default is not argparse.SUPPRESS]
        if not owners:
            raise SystemExit(f"error: config key {key!r} is not a flag of any subcommand")
        for sp, action in owners:
            switch = action.nargs == 0
            if switch and value.lower() not in ("true", "1", "yes"):
                raise SystemExit(f"error: config switch {key!r} takes true, 1 or yes")
            sp.set_defaults(**{action.dest: True if switch else value})
            action.required = False


def main(argv: list[str] | None = None) -> int:
    try:  # exact-rational output legitimately exceeds the int/str guard rail
        sys.set_int_max_str_digits(0)
    except AttributeError:
        pass
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser(argv)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # the only cache load and store: a subcommand that returns, with any
    # exit code, is persisted; one that raises an input error is not
    cache_dir = getattr(args, "cache_dir", None)
    try:
        if cache_dir:
            load_cache(cache_dir)
        code = args.func(args)
        if cache_dir:
            store_cache(cache_dir)
        return code
    except (ValueError, ArithmeticError, CacheDirError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
