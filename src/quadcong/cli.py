"""Command-line front end: verify, scan, table1, bernoulli, lfun.

Exit codes: 0 every checked congruence holds (or, for detector scans,
finished cleanly), 1 a congruence check failed, 2 usage, input or I/O
error (an unreadable config, an unwritable --out or cache directory).
Report rows go to stdout (or --out) as JSON-lines or CSV with rationals
serialized exactly; the run manifest goes to stderr so that the report
stream stays byte-for-byte reproducible.  There is one parser: the
key=value lines of a --config file become flags right after the
subcommand, so each value is checked as a typed flag is, and a typed
flag wins.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time
from contextlib import suppress
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lgamma, log, log10

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
from .primes import factorize
from .quadfield import class_number, fundamental_unit, vp_u
from .reports import CSV_HEADER, CongruenceReport, rational_str
from .suite import DETECTORS, REGISTRY, ScanConfig, run_instance, scan

CACHE_FILE = "bernoulli-cache-v2.json"
CACHE_VERSION = 2

_STATEMENT_NAMES = {s.cli_name: s.id for s in REGISTRY.values()}

# Reproduction targets: (d, factorization, h, p, v_p(u), long_running)
TABLE1_ROWS = (
    (4099215, {3: 1, 5: 1, 273281: 1}, 4, 3, 3, False),
    (125854178626, {2: 1, 11: 1, 17: 1, 336508499: 1}, 8, 11, 2, True),
    (20256129307923, {3: 1, 569: 1, 2659: 1, 4462771: 1}, 16, 3, 2, True),
)


# -- bernoulli cache persistence ----------------------------------------------


def _is_int(x) -> bool:
    """An int and not a bool: JSON true/false and 5.0 are no index or discriminant."""
    return isinstance(x, int) and not isinstance(x, bool)


def _max_digits(n: int, disc: int) -> int:
    """The most decimal digits the num or den of B_{n,chi} can have, chi of
    conductor f = |disc| (taken as at most 2^32, the validator's bound).

    The kernel gives B_{n,chi} = 2 acc / (L f) with acc an integer and
    L = lcm(den B_j, j <= n), which divides the product of the primes up to
    n + 1, below 4^(n+1); so den < 4^(n+1) f.  And |B_{n,chi}| <=
    f^n max_{0<=x<=1} |B_n(x)| <= f^n sum_j C(n,j) |B_j| <= e n! f^n, since
    |B_j| <= j!.  So both are below e n! (4f)^(n+1).  TypeError or ValueError
    for an n or disc no entry can have.
    """
    f = min(abs(disc), 2 ** 32)
    return int((lgamma(n + 1) + 1) / log(10) + (n + 1) * log10(4 * f)) + 2


def _json_int(literal: str) -> int | str:
    """json.load's parse_int: a literal of at most 10 digits, sign aside (so
    every |disc| < 2^32), becomes an int; a longer one stays a string, so a
    long num or den meets _max_digits before int() reads it, and a long n
    or disc is refused as no int."""
    return int(literal) if len(literal.removeprefix("-")) <= 10 else literal


# A canonical decimal, as str(int) writes it: ASCII digits, no sign but a
# leading minus, no leading zero, and no "-0".
_CANONICAL_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _cache_int(x, max_digits: int) -> int | None:
    """A stored num or den: a non-bool int or a canonical decimal string (as
    store_cache writes it, or a literal _json_int left alone), of at most
    max_digits digits.  A longer string is refused before int() reads it,
    since reading is quadratic in its length."""
    if isinstance(x, str):
        if len(x) - x.startswith("-") <= max_digits and _CANONICAL_DECIMAL.fullmatch(x):
            return int(x)
        return None
    return x if _is_int(x) else None


@lru_cache(maxsize=1024)
def _discriminant_valid(disc: int) -> bool:
    """Whether a non-bool int is the discriminant of a cache entry; memoized,
    since a cache file repeats each discriminant over its indices."""
    # refused before trial division: the kernel's tables for such a conductor
    # would hold f/2 Python ints, far beyond any machine's memory
    return abs(disc) < 2 ** 32 and is_fundamental_discriminant(disc)


def _entry_valid(n, disc, num, den) -> bool:
    """Well-formedness and arithmetic sanity of one B_{n,chi} cache entry.

    Beyond shape checks this enforces lowest terms and vanishing: B_{0,chi}
    and every B_{n,chi} with chi(-1) != (-1)^n are 0.  A plain entry (disc
    None) is refused, because plain B_n are never read from disk.
    """
    if not (_is_int(n) and n >= 0 and _is_int(disc) and _discriminant_valid(disc)):
        return False
    if not (isinstance(num, int) and isinstance(den, int) and den > 0 and gcd(num, den) == 1):
        return False
    if n == 0 or (disc > 0) == (n % 2 == 1):  # chi(-1) = 1 exactly when disc > 0
        return (num, den) == (0, 1)
    return True


def load_cache(cache_dir: str, cache: BernoulliCache | None = None) -> tuple[int, int]:
    """Load the versioned cache file of B_{n,chi}; returns (accepted, rejected)."""
    path = os.path.join(cache_dir, CACHE_FILE)
    c = cache or DEFAULT_CACHE
    if not os.path.exists(path):
        return 0, 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_int=_json_int)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"warning: unreadable cache file {path}: {exc}", file=sys.stderr)
        return 0, 0
    if not (isinstance(payload, dict) and payload.get("version") == CACHE_VERSION
            and isinstance(payload.get("entries", []), list)):
        print(f"warning: cache version or layout mismatch in {path}; rebuilding",
              file=sys.stderr)
        return 0, 0
    entries = payload.get("entries", [])
    good = []
    for entry in entries:
        try:
            n, disc = entry["n"], entry["disc"]
            digits = _max_digits(n, disc)
            num, den = _cache_int(entry["num"], digits), _cache_int(entry["den"], digits)
        except (KeyError, TypeError, ValueError, OverflowError):  # also past int_max_str_digits
            continue
        if _entry_valid(n, disc, num, den):
            good.append((n, disc, Fraction(num, den)))
    rejected = len(entries) - len(good)
    if rejected:
        print(f"warning: dropped {rejected} corrupt cache entries from {path}", file=sys.stderr)
    c.merge(good)
    return len(good), rejected


def store_cache(cache_dir: str, cache: BernoulliCache | None = None) -> str:
    """Write the cache's B_{n,chi} to the cache file; plain B_n are not stored."""
    c = cache or DEFAULT_CACHE
    entries = [
        {"n": n, "disc": disc, "num": str(v.numerator), "den": str(v.denominator)}
        for n, disc, v in c.entries() if disc is not None
    ]
    path = os.path.join(cache_dir, CACHE_FILE)
    tmp = path + ".tmp"
    try:
        os.makedirs(cache_dir, exist_ok=True)
        # the C encoder takes the entries in batches, so no whole-file string is
        # held; written aside and renamed, an interrupted store keeps the old file
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write('{"entries": [')
            for i in range(0, len(entries), 256):
                fh.write((", " if i else "") + json.dumps(entries[i:i + 256], sort_keys=True)[1:-1])
            fh.write(f'], "version": {CACHE_VERSION}}}\n')
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            os.remove(tmp)
        raise OSError(f"cache directory {cache_dir} is not writable: {exc}") from exc
    return path


# -- output helpers -----------------------------------------------------------


def _check_writable(path: str) -> None:
    """Raise the OSError that opening `path` for writing would raise, without
    creating or truncating it, so an unwritable --out fails before any work."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(path) or "."
        try:
            os.stat(parent)
        except OSError as exc:
            code = exc.errno
        else:
            if not os.path.isdir(parent):
                code = errno.ENOTDIR
            else:
                code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_reports(reports: list[CongruenceReport], fmt: str) -> list[str]:
    if fmt == "csv":
        return [CSV_HEADER] + [r.to_csv_row() for r in reports]
    return [r.to_json_line() for r in reports]


def _print_manifest(args: argparse.Namespace, t0: float, passed: int, failed: int,
                    errors: int = 0) -> None:
    """The run manifest on stderr: `instances` counts the rows with a verdict."""
    print(json.dumps({
        "command": args.command,
        "config": _echo_config(args),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "instances": passed + failed,
        "passed": passed,
        "failed": failed,
        "errors": errors,
    }, sort_keys=True), file=sys.stderr)


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
    for flag, takes in (("d", st.takes_d), ("k", st.takes_k)):
        if takes != (getattr(args, flag) is not None):
            need = "needs" if takes else "does not take"
            raise ValueError(f"{args.statement} {need} --{flag}")
    report = run_instance((st.id, args.d, args.p, args.k))
    _emit(_render_reports([report], args.format), args.out)
    _print_manifest(args, t0, int(report.holds), int(not report.holds))
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
    _emit(_render_reports(result.reports, args.format), args.out)
    passed = sum(r.holds for r in result.reports)
    _print_manifest(args, t0, passed, len(result.reports) - passed, len(result.errors))
    for err in result.errors:
        print(f"error: {err}", file=sys.stderr)
    for alert in result.alerts:
        print(f"alert: {alert}", file=sys.stderr)
    if stmt in DETECTORS:
        for r in result.reports:
            if r.holds:
                print(f"attention: detector congruence holds at {r.to_json_line()}", file=sys.stderr)
    verdicts = [(r.holds, r.advisory) for r in result.reports]
    return scan_exit_code(stmt, verdicts, len(result.errors))


def _cmd_table1(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    lines = []
    passed = failed = 0
    for d, fac, h_ref, p, vpu_ref, long_run in TABLE1_ROWS:
        if long_run and not args.long_running:
            lines.append(json.dumps({"d": d, "skipped": "requires --long-running"},
                                    sort_keys=True))
            continue
        fac_got = factorize(d)
        unit = fundamental_unit(d)
        h = class_number(d).h
        v_got = vp_u(d, p)
        ok = fac_got == fac and h == h_ref and v_got == vpu_ref
        lines.append(json.dumps({
            "d": d,
            "factorization": {str(q): e for q, e in sorted(fac_got.items())},
            "h": h,
            "h_expected": h_ref,
            "p": p,
            "vp_u": v_got,
            "vp_u_expected": vpu_ref,
            "u_bits": unit.u.bit_length(),
            "cf_period": unit.cf_period,
            "match": ok,
        }, sort_keys=True))
        passed += int(ok)
        failed += int(not ok)
    _emit(lines, args.out)
    _print_manifest(args, t0, passed, failed)
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
            "a0_closed": rational_str(closed0),
            "v_p_a0_agreement": str(vp(bundle.a0 - closed0, p)),
        }
    else:
        split = split_character(args.d, p)
        bundle = a_coefficients_direct(split.chi_d, p)
        closed1 = a1_closed_quadratic(split)
        obj = {
            "character": f"quadratic disc {split.D}",
            "d": args.d,
            "psi_disc": split.psi.discriminant,
        }
    obj.update({
        "p": p,
        "F": bundle.F,
        "a_minus1": rational_str(bundle.a_minus1),
        "a0_direct": rational_str(bundle.a0),
        "a1_direct": rational_str(bundle.a1),
        "a1_closed": rational_str(closed1),
        "v_p_a1_agreement": str(vp(bundle.a1 - closed1, p)),
    })
    _emit([json.dumps(obj, sort_keys=True)], args.out)
    return 0


# -- argument plumbing --------------------------------------------------------


def _echo_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and never changed; a --config
    file reaches it as argv (_config_argv)."""
    parser = argparse.ArgumentParser(
        prog="quadcong",
        description="Exact verification of quadratic-field and Wilson-quotient congruences",
    )
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flags after the subcommand (typed flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="check one statement instance")
    pv.add_argument("statement", choices=sorted(_STATEMENT_NAMES))
    pv.add_argument("--d", type=int, default=None)
    pv.add_argument("--p", type=int, required=True)
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
    return parser


@cache
def _config_pre_parser() -> argparse.ArgumentParser:
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config", default=None)
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    return pre


def _config_argv(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """argv with the --config file's lines inserted right after the subcommand,
    so the parser checks each value as it checks a typed flag, and a typed
    flag, which comes later, wins.

    The file is named as the parser reads it: `--config FILE`, `--config=FILE`
    or an abbreviation, before the subcommand; a malformed use is left for the
    parser to report.  Each key=value line becomes `--key=value`, or `--key`
    for a switch (`store_true`), which takes true, 1 or yes.  It is inserted
    only if the subcommand has the flag; a key no subcommand has, like a bad
    file, raises ValueError.
    """
    try:
        pre = _config_pre_parser().parse_known_args(argv)[0]
    except argparse.ArgumentError:
        return argv
    if pre.config is None:
        return argv
    try:
        with open(pre.config, "r", encoding="utf-8") as fh:
            pairs = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
    except OSError as exc:
        raise ValueError(f"cannot read config file {pre.config}: {exc}") from exc
    subcommands = next(a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    command = pre.rest[0] if pre.rest else None
    tokens = []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"malformed config line {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        flag = "--" + key.replace("_", "-")
        owners = {name: action for name, sp in subcommands.items() for action in sp._actions
                  if flag in action.option_strings and action.default is not argparse.SUPPRESS}
        if not owners:
            raise ValueError(f"config key {key!r} is not a flag of any subcommand")
        switch = any(action.nargs == 0 for action in owners.values())
        if switch and value.lower() not in ("true", "1", "yes"):
            raise ValueError(f"config switch {key!r} takes true, 1 or yes")
        if command in owners:
            tokens.append(flag if switch else f"{flag}={value}")
    at = len(argv) - len(pre.rest) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact-rational output exceeds the guard rail
        sys.set_int_max_str_digits(0)
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_config_argv(argv, parser))
        if args.out:
            _check_writable(args.out)
        # the only cache load and store: a subcommand that returns, with any
        # exit code, is persisted, and so is one that is interrupted; one that
        # raises an input or I/O error is not.  The file is stored only when
        # the run changed it: it was missing, unreadable, of another version
        # or empty, an entry of it was dropped, or the run added an entry.
        # on_disk counts the B_{n,chi} after the load's merge, not the
        # accepted entries, since a file can repeat a key; -1 forces a store.
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir:
            accepted, rejected = load_cache(cache_dir)
            on_disk = -1 if rejected or not accepted else DEFAULT_CACHE.character_count()

        def persist() -> None:
            if cache_dir and DEFAULT_CACHE.character_count() > on_disk:
                store_cache(cache_dir)

        try:
            code = args.func(args)
        except KeyboardInterrupt:
            persist()
            raise
        persist()
        return code
    except SystemExit as exc:  # argparse has printed its message; 0 after --help
        return 0 if exc.code in (0, None) else 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
