import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from fractions import Fraction

from quadcong.bernoulli import BernoulliCache
from quadcong.characters import QuadChar
from quadcong.cli import (
    CACHE_FILE,
    CACHE_VERSION,
    _entry_valid,
    load_cache,
    main,
    store_cache,
)
from quadcong.primes import is_prime
from quadcong.reports import CSV_HEADER, rederive_holds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_thm1_json(capsys):
    code, out, err = run_cli(capsys, "verify", "thm1", "--d", "14", "--p", "7", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["statement"] == "THM1" and obj["holds"] is True
    assert obj["lhs"] == "7192/10125"
    assert obj["difference_valuation"] == 2
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["passed"] == 1 and manifest["instances"] == 1


def test_verify_lehmer2(capsys):
    code, out, _ = run_cli(capsys, "verify", "lehmer2", "--p", "7", "--k", "1")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "verify", "thm1", "--d", "12", "--p", "3")
    assert code == 2
    assert "error" in err
    code, *_ = run_cli(capsys, "verify", "thm1", "--p", "7")  # missing --d
    assert code == 2
    code, *_ = run_cli(capsys, "verify", "nonsense", "--p", "7")
    assert code == 2


def test_verify_rejects_flags_the_statement_does_not_take(capsys):
    code, out, err = run_cli(capsys, "verify", "aac", "--p", "13", "--d", "99", "--k", "3")
    assert code == 2 and out == ""
    assert "error: aac does not take --d" in err
    code, out, err = run_cli(capsys, "verify", "thm1", "--d", "14", "--p", "7", "--k", "3")
    assert code == 2 and out == ""
    assert "error: thm1 does not take --k" in err


def test_verify_failing_congruence_exits_1(capsys):
    # super-wilson fails at every known prime; verify reports it honestly
    code, out, _ = run_cli(capsys, "verify", "super-wilson", "--p", "5")
    assert code == 1
    assert json.loads(out)["holds"] is False


def test_verify_p5_thm1_is_advisory(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1", "--d", "10", "--p", "5")
    obj = json.loads(out)
    assert obj.get("advisory") is True
    assert code in (0, 1)  # verdict stays honest


def test_validator_rederives_holds(capsys):
    _, out, _ = run_cli(capsys, "verify", "thm1", "--d", "21", "--p", "7")
    assert rederive_holds(out.strip()) is True


def test_validator_rejects_tampered_row(capsys):
    _, out, _ = run_cli(capsys, "verify", "thm1", "--d", "21", "--p", "7")
    row = json.loads(out)
    row["holds"] = False
    with pytest.raises(ValueError):
        rederive_holds(json.dumps(row))
    row = json.loads(out)
    row["lhs"] = "1/3"
    with pytest.raises(ValueError):
        rederive_holds(json.dumps(row))


def test_scan_csv_and_exit_codes(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code, out, err = run_cli(
        capsys, "scan", "thm1", "--d-max", "100", "--p-max", "19",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert all(line.split(",")[8] == "1" for line in lines[1:])
    manifest = json.loads(err.strip().splitlines()[0])
    assert manifest["instances"] == len(lines) - 1
    assert manifest["failed"] == 0


def test_scan_empty_grid_exits_0(capsys):
    code, out, _ = run_cli(capsys, "scan", "thm1", "--d-max", "5", "--p-max", "100")
    assert code == 0
    assert out == ""


def test_scan_detector_exits_0_despite_failures(capsys):
    code, out, err = run_cli(capsys, "scan", "super-wilson", "--p-min", "5", "--p-max", "30")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows and all(r["holds"] is False for r in rows)


def test_scan_missing_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "scan", "thm1", "--p-max", "19")
    assert code == 2
    assert "error" in err


def test_scan_determinism_byte_identical(tmp_path, capsys):
    args = ("scan", "lehmer2", "--p-min", "5", "--p-max", "40", "--k-max", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2 and out1


def test_scan_include_p5_advisory_rows(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "thm1", "--d-max", "60", "--p-max", "11", "--include-p5",
    )
    rows = [json.loads(line) for line in out.strip().splitlines()]
    p5 = [r for r in rows if r["p"] == 5]
    assert p5 and all(r.get("advisory") for r in p5)
    assert all(not r.get("advisory") for r in rows if r["p"] != 5)
    assert code == 0  # p = 5 verdicts are excluded from the gate


def test_scan_all_statements_smoke(capsys):
    cases = [
        (("scan", "aac", "--p-min", "5", "--p-max", "60"), 0),
        (("scan", "cor-exact-div", "--d-max", "100", "--p-max", "30"), 0),
        (("scan", "super-aacm", "--d-max", "60", "--p-max", "11"), 0),
        (("scan", "thm3", "--p-min", "7", "--p-max", "30", "--k-max", "2"), 0),
        (("scan", "lehmer-diff", "--p-min", "3", "--p-max", "40"), 0),
    ]
    for argv, want in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == want, argv
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows, argv
        if argv[1] == "cor-exact-div":
            assert any(r["d"] == 46 and r["p"] == 23 for r in rows)
            assert all(r["holds"] for r in rows)
        if argv[1] in ("aac", "thm3", "lehmer-diff"):
            assert all(r["holds"] for r in rows)


def test_scan_kappa_alert_machinery(capsys, monkeypatch):
    """v_p(u) >= kappa raises a stderr alert.  Honest instances do reach
    kappa = 2 (d = 721, see the test below), but none with d <= 60, so here
    the hook is exercised with a stubbed valuation, serially and in workers."""
    import quadcong.suite as suite_mod

    for jobs in ("1", "2"):
        argv = ("scan", "super-aacm", "--d-max", "60", "--p-max", "11", "--jobs", jobs)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and "alert" not in err
        with monkeypatch.context() as m:
            m.setattr(suite_mod, "vp_u", lambda d, p: 2)
            code, _, err = run_cli(capsys, *argv)
        assert code == 0 and "alert: v_" in err


@pytest.mark.parametrize("statement", ["thm1", "super-aacm", "cor-exact-div"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_kappa_alert_at_d_721(capsys, statement, jobs):
    """d = 721 = 7 * 103 has v_7(u) = 2, the only alert of the d <= 2000, p <= 200 grid.
    COR admits only rows with v_p(u) = 1, so its scan never alerts."""
    code, _, err = run_cli(capsys, "scan", statement, "--d-max", "721", "--p-max", "7",
                           "--jobs", jobs)
    assert code == 0
    alerts = [ln for ln in err.splitlines() if ln.startswith("alert:")]
    expected = [] if statement == "cor-exact-div" else ["alert: v_7(u) = 2 >= kappa = 2 at d = 721"]
    assert alerts == expected


def test_scan_without_fork_exits_2(capsys, monkeypatch):
    """Where the fork start method is unavailable, --jobs N is an input error,
    also where the first fan-out is the rows' (lehmer2 has no phase 1)."""
    import quadcong.suite as suite_mod

    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(suite_mod, "get_context", no_fork)
    for argv in (("thm1", "--d-max", "60", "--p-max", "11"), ("lehmer2", "--p-max", "11")):
        code, out, err = run_cli(capsys, "scan", *argv, "--jobs", "2")
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err


def test_table1_mandatory_row(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    first = rows[0]
    assert first["d"] == 4099215 and first["match"] is True
    assert first["h"] == 4 and first["vp_u"] == 3
    assert first["factorization"] == {"3": 1, "5": 1, "273281": 1}
    assert all("skipped" in r for r in rows[1:])


def test_bernoulli_command(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--n", "12")
    assert code == 0
    assert json.loads(out)["value"] == "-691/2730"
    code, out, _ = run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5")
    assert json.loads(out)["value"] == "4/5"
    code, *_ = run_cli(capsys, "bernoulli", "--n", "2", "--disc", "6")
    assert code == 2


def test_lfun_command(capsys):
    code, out, _ = run_cli(capsys, "lfun", "--p", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["a_minus1"] == "-4/5"
    assert obj["a0_closed"] == "135/2"
    assert int(obj["v_p_a0_agreement"]) >= 2
    code, out, _ = run_cli(capsys, "lfun", "--p", "7", "--d", "14")
    obj = json.loads(out)
    assert obj["psi_disc"] == -8
    assert int(obj["v_p_a1_agreement"]) >= 2
    code, *_ = run_cli(capsys, "lfun", "--p", "7", "--d", "15")
    assert code == 2


def _fresh_default_cache(monkeypatch) -> BernoulliCache:
    """A fresh default cache for the commands a test runs in process."""
    from importlib import import_module

    fresh = BernoulliCache()
    for name in ("quadcong.bernoulli", "quadcong.suite", "quadcong.cli"):
        monkeypatch.setattr(import_module(name), "DEFAULT_CACHE", fresh)
    return fresh


def test_cache_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path)
    code, *_ = run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5", "--cache-dir", cache_dir)
    assert code == 0
    path = os.path.join(cache_dir, CACHE_FILE)
    payload = json.loads(open(path).read())
    assert payload["version"] == CACHE_VERSION
    entries = {(e["n"], e["disc"]): (e["num"], e["den"]) for e in payload["entries"]}
    assert entries[(2, 5)] == ("4", "5")
    assert all(disc is not None for _, disc in entries)
    fresh = BernoulliCache()
    accepted, rejected = load_cache(cache_dir, fresh)
    assert accepted == len(payload["entries"]) and rejected == 0
    assert fresh.get(2, 5) == Fraction(4, 5)


def test_cache_rejects_tampering(tmp_path, capsys, monkeypatch):
    chi5 = QuadChar(5)
    for n, num, den in ((2, "8", "10"),  # B_{2,chi_5} = 4/5, not in lowest terms
                        (0, "7", "1")):  # B_{0,chi} = 0 for every non-principal chi
        cache_dir = str(tmp_path / str(n))
        cache = BernoulliCache()
        true = cache.gen_bernoulli(n, chi5)
        path = store_cache(cache_dir, cache)
        payload = json.loads(open(path).read())
        for e in payload["entries"]:
            if (e["n"], e["disc"]) == (n, 5):
                e["num"], e["den"] = num, den
        with open(path, "w") as fh:
            json.dump(payload, fh)
        fresh = BernoulliCache()
        accepted, rejected = load_cache(cache_dir, fresh)
        assert rejected == 1
        assert fresh.get(n, 5) is None
        assert fresh.gen_bernoulli(n, chi5) == true  # recomputed
        _fresh_default_cache(monkeypatch)
        code, out, err = run_cli(capsys, "bernoulli", "--n", str(n), "--disc", "5",
                                 "--cache-dir", cache_dir)
        assert code == 0 and "dropped 1" in err
        assert json.loads(out)["value"] == f"{true.numerator}/{true.denominator}"


def test_cache_version_mismatch_ignored(tmp_path):
    cache_dir = str(tmp_path)
    with open(os.path.join(cache_dir, CACHE_FILE), "w") as fh:
        json.dump({"version": 99, "entries": [{"n": 2, "disc": 5, "num": "4", "den": "5"}]}, fh)
    fresh = BernoulliCache()
    accepted, rejected = load_cache(cache_dir, fresh)
    assert accepted == 0
    assert fresh.get(2, 5) is None


# Each entry would load but for the one field under test: B_{2,chi_5} = 4/5,
# B_{1,chi_-8} = -1.
@pytest.mark.parametrize("entries", [
    [{"n": 2, "disc": "5", "num": "4", "den": "5"}],   # string discriminant
    [{"n": 2, "disc": 5.0, "num": "4", "den": "5"}],   # float discriminant
    [{"n": True, "disc": -8, "num": "-1", "den": "1"}],  # bool index
    [5, "entry", None],                                # entries that are no objects
    [{"n": 2, "disc": 5, "num": 4.9, "den": 5}],       # float num, int() would truncate it
    [{"n": 2, "disc": 5, "num": True, "den": 5}],      # bool num
    [{"n": 2, "disc": 5, "num": "4.9", "den": "5"}],   # no decimal integer string
    [{"n": 2, "disc": 5, "num": "4", "den": " 5"}],    # not as store_cache writes it
    [{"n": 2, "disc": 5, "num": "004", "den": "5"}],   # leading zeros
    [{"n": 2, "disc": 5, "num": "4", "den": "+5"}],    # a plus sign
    [{"n": 2, "disc": -8, "num": "-0", "den": "1"}],   # B_{2,chi_-8} = 0 with a sign
    [{"n": 2, "disc": 5, "num": "٤", "den": "5"}],     # ARABIC-INDIC DIGIT FOUR
    [{"n": 2, "disc": 5, "num": "4", "den": "５"}],    # FULLWIDTH DIGIT FIVE
    [{"n": 2, "disc": 5, "num": "4\n", "den": "5"}],   # a trailing newline
])
def test_cache_drops_entries_of_the_wrong_type(tmp_path, capsys, entries):
    with open(tmp_path / CACHE_FILE, "w") as fh:
        json.dump({"version": CACHE_VERSION, "entries": entries}, fh)
    fresh = BernoulliCache()
    before = list(fresh.entries())
    assert load_cache(str(tmp_path), fresh) == (0, len(entries))
    assert list(fresh.entries()) == before
    code, out, err = run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["value"] == "4/5"
    assert "dropped" in err
    stored = json.loads((tmp_path / CACHE_FILE).read_text())["entries"]
    assert stored and all(type(e["disc"]) is int for e in stored)


def test_cache_drops_principal_character_key(tmp_path, capsys):
    """Nothing stores (n, 1): the principal character reads plain B_n."""
    assert not _entry_valid(3, 1, 7, 1) and not _entry_valid(2, 1, 7, 1)
    with open(tmp_path / CACHE_FILE, "w") as fh:
        json.dump({"version": CACHE_VERSION, "entries": [
            {"n": n, "disc": 1, "num": "7", "den": "1"} for n in (2, 3)]}, fh)
    assert load_cache(str(tmp_path), BernoulliCache()) == (0, 2)
    code, out, err = run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5", "--cache-dir", str(tmp_path))
    assert code == 0 and "dropped 2" in err
    stored = json.loads((tmp_path / CACHE_FILE).read_text())["entries"]
    assert stored and all(e["disc"] != 1 for e in stored)


def test_cache_accepts_int_and_canonical_string_fields(tmp_path):
    entries = [{"n": 2, "disc": 5, "num": 4, "den": 5},
               {"n": 3, "disc": -8, "num": "9", "den": "1"}]
    with open(tmp_path / CACHE_FILE, "w") as fh:
        json.dump({"version": CACHE_VERSION, "entries": entries}, fh)
    fresh = BernoulliCache()
    assert load_cache(str(tmp_path), fresh) == (2, 0)
    assert fresh.get(2, 5) == Fraction(4, 5) and fresh.get(3, -8) == 9


def test_cache_entries_not_a_list_rebuilds(tmp_path, capsys):
    with open(tmp_path / CACHE_FILE, "w") as fh:
        json.dump({"version": CACHE_VERSION, "entries": 5}, fh)
    assert load_cache(str(tmp_path), BernoulliCache()) == (0, 0)
    code, out, err = run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5", "--cache-dir", str(tmp_path))
    assert code == 0 and "rebuilding" in err
    assert json.loads((tmp_path / CACHE_FILE).read_text())["entries"]


def test_cache_file_not_utf8_rebuilds(tmp_path, capsys):
    """A byte that is no UTF-8 makes the file unreadable: warned about and
    rebuilt, as for a JSON syntax error, never an aborted command."""
    (tmp_path / CACHE_FILE).write_bytes(b'{"version": 2, "entries": [\xff]}')
    assert load_cache(str(tmp_path), BernoulliCache()) == (0, 0)
    code, out, err = run_cli(capsys, "bernoulli", "--n", "4", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["value"] == "-1/30"
    assert "unreadable cache file" in err
    assert json.loads((tmp_path / CACHE_FILE).read_text())["version"] == CACHE_VERSION


def test_entry_validation_rules():
    assert not _entry_valid(12, None, -691, 2730)   # plain B_n are never loaded
    assert not _entry_valid(2, -8, 5, 1)            # odd character: even index vanishes
    assert _entry_valid(2, -8, 0, 1)
    assert _entry_valid(3, -8, 9, 1)
    assert not _entry_valid(3, -8, 18, 2)           # not lowest terms
    assert not _entry_valid(0, 5, 7, 1)             # B_{0,chi} = 0
    assert not _entry_valid(0, -8, 1, 1)
    assert _entry_valid(0, 5, 0, 1)
    assert _entry_valid(2, 5, 4, 5)
    assert not _entry_valid(2, 6, 1, 1)             # 6 is no discriminant
    assert not _entry_valid(2, True, 1, 1)          # a bool is no discriminant


def test_entry_valid_bounds_the_discriminant_before_factoring_it(tmp_path):
    """A product of two primes = 1 mod 4 near 10^7 is a fundamental
    discriminant that trial division takes about half a second to confirm;
    it is past the bound and refused at once.  The largest discriminant of
    the d <= 2000 thm1 grid still loads."""
    from quadcong.suite import THM1, ScanConfig, _kernel_jobs, build_instances

    p, q = [q for q in range(10 ** 7 + 1, 10 ** 7 + 400, 4) if is_prime(q)][:2]
    t0 = time.perf_counter()
    assert not _entry_valid(2, p * q, 1, 1)
    assert time.perf_counter() - t0 < 0.01
    psi, ns = max(_kernel_jobs(build_instances(ScanConfig(THM1, d_max=2000, p_max=200))),
                  key=lambda job: job[0].conductor)
    cache = BernoulliCache()
    assert cache.gen_bernoulli(ns[0], psi)
    store_cache(str(tmp_path), cache)
    assert load_cache(str(tmp_path), BernoulliCache()) == (1, 0)


def test_cache_refuses_an_overlong_digit_string_before_parsing(tmp_path, monkeypatch):
    """A 100k-digit numerator passes every shape check, but it is longer
    than any B_{2,chi_5} can be, so it is refused before int() reads it,
    with the digit guard lifted as main lifts it.  Every entry of a real
    thm1 cache still loads, the longest numerator (846 digits and a sign)
    included."""
    path = tmp_path / CACHE_FILE
    path.write_text(json.dumps({"version": CACHE_VERSION, "entries": [
        {"n": 2, "disc": 5, "num": "7" * 100_000, "den": "1"}]}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = time.perf_counter()
        assert load_cache(str(tmp_path), BernoulliCache()) == (0, 1)
        assert time.perf_counter() - t0 < 0.01
    finally:
        sys.set_int_max_str_digits(limit)
    from quadcong.suite import THM1, ScanConfig, scan

    fresh = _fresh_default_cache(monkeypatch)
    scan(ScanConfig(THM1, d_max=2000, p_max=200))
    store_cache(str(tmp_path), fresh)
    entries = json.loads(path.read_text())["entries"]
    assert max(len(e["num"]) for e in entries) == 847
    assert load_cache(str(tmp_path), BernoulliCache()) == (len(entries), 0)


def test_cache_refuses_an_overlong_integer_literal_before_parsing(tmp_path):
    """A 100k-digit num written as a JSON integer literal, not a string,
    stays a string through json.load, so it meets the digit bound and is
    refused before int() reads it, with the digit guard lifted as main
    lifts it; a 100k-digit n is no index.  A short literal still loads."""
    big = "7" * 100_000
    (tmp_path / CACHE_FILE).write_text(
        f'{{"version": {CACHE_VERSION}, "entries": ['
        f'{{"n": 2, "disc": 5, "num": {big}, "den": 1}}, '
        f'{{"n": {big}, "disc": 5, "num": 0, "den": 1}}, '
        f'{{"n": 2, "disc": 5, "num": 4, "den": 5}}]}}')
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        fresh = BernoulliCache()
        t0 = time.perf_counter()
        assert load_cache(str(tmp_path), fresh) == (1, 2)
        assert time.perf_counter() - t0 < 0.01
    finally:
        sys.set_int_max_str_digits(limit)
    assert fresh.get(2, 5) == Fraction(4, 5)


def test_calls_without_config_share_one_parser(monkeypatch, capsys):
    import quadcong.cli as cli_module

    built = []
    build = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(build()) or built[-1])
    for argv in (["bernoulli", "--n", "4"], ["lfun", "--p", "7"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 2 and built[0] is built[1]


def test_config_calls_share_the_parser_and_leave_it_unchanged(tmp_path, monkeypatch, capsys):
    """A --config call and the calls before and after it get the same
    parser, and its `required` flags and defaults are what they were."""
    import argparse

    import quadcong.cli as cli_module

    def settings(parser):
        subs = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return [(name, a.dest, a.required, a.default)
                for name, sp in sorted(subs.items()) for a in sp._actions]

    built = []
    build = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(build()) or built[-1])
    before = settings(build())
    conf = tmp_path / "every.conf"
    conf.write_text("n=4\np=13\nformat=csv\nk-max=1\ninclude-p5=yes\n")
    for argv in (["bernoulli", "--n", "4"],
                 ["--config", str(conf), "bernoulli"],
                 ["--config", str(conf), "verify", "aac"],
                 ["--config", str(conf), "scan", "lehmer2", "--p-max", "13"],
                 ["lfun", "--p", "7"]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert len(built) == 5 and all(b is built[0] for b in built)
    assert settings(built[0]) == before
    assert run_cli(capsys, "verify", "aac")[0] == 2  # --p is still required


@pytest.mark.parametrize("argv", [
    ["--config", "{}", "verify", "aac", "--p", "13"],
    ["verify", "aac", "--p", "13", "--format", "xml"],
], ids=["config", "flag"])
def test_config_value_is_checked_as_a_typed_flag(tmp_path, capsys, argv):
    """format=xml in a --config file is refused as --format xml is."""
    conf = tmp_path / "x.conf"
    conf.write_text("format=xml\n")
    code, out, err = run_cli(capsys, *[a.format(conf) for a in argv])
    assert code == 2 and out == ""
    assert "argument --format: invalid choice: 'xml'" in err


@pytest.mark.parametrize("text, message", [
    ("include-p5=no\n", "config switch 'include-p5' takes true, 1 or yes"),
    ("p-max 40\n", "malformed config line 'p-max 40'"),
    ("p-max=forty\n", "argument --p-max: invalid int value: 'forty'"),
    (None, "cannot read config file"),
])
def test_bad_config_file_exits_2(tmp_path, capsys, text, message):
    conf = tmp_path / "bad.conf"
    if text is not None:
        conf.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(conf), "scan", "lehmer2")
    assert code == 2 and out == "" and message in err


def test_config_call_leaves_later_calls_as_a_fresh_interpreter_runs_them(tmp_path, capsys):
    """The file's flags reach only the --config call; the calls around it
    give what a fresh interpreter gives."""
    conf = tmp_path / "scan.conf"
    conf.write_text("k-max=1\nn=12\n")
    argv = ["scan", "lehmer2", "--p-max", "13"]
    _, before, _ = run_cli(capsys, *argv)
    _, configured, _ = run_cli(capsys, "--config", str(conf), *argv)
    assert len(configured.splitlines()) < len(before.splitlines())
    code, after, _ = run_cli(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    fresh = subprocess.run([sys.executable, "-m", "quadcong.cli", *argv],
                           env=env, capture_output=True, check=True, text=True)
    assert code == 0 and after == before == fresh.stdout
    assert run_cli(capsys, "bernoulli")[0] == 2  # --n is required again


def test_cached_plain_value_never_reaches_a_character_value(tmp_path, capsys, monkeypatch):
    """A plain entry with a wrong B_12 passes every shape and denominator
    check; it is dropped on load, so B_{18,chi_8}, which is built from B_12,
    and the thm1 verdict at (26, 13) stay exact, and no plain entry is stored."""
    _fresh_default_cache(monkeypatch)
    path = tmp_path / CACHE_FILE
    path.write_text(json.dumps({"version": CACHE_VERSION, "entries": [
        {"n": 12, "disc": None, "num": "-3421", "den": "2730"}]}))
    code, out, err = run_cli(capsys, "verify", "thm1", "--d", "26", "--p", "13",
                             "--cache-dir", str(tmp_path))
    assert json.loads(out)["rhs"] == "19450718233604599/1"
    assert "dropped 1" in err
    stored = json.loads(path.read_text())["entries"]
    assert stored and all(e["disc"] is not None for e in stored)


def test_store_cache_replaces_the_file_whole(tmp_path, monkeypatch):
    """A completed store writes the same bytes as before; a store that fails
    after opening its temporary file (in the encoder or in the rename) leaves
    the previous file untouched and no temporary file."""
    cache = BernoulliCache()
    cache.gen_bernoulli_many((2, 4), QuadChar(5))
    path = Path(store_cache(str(tmp_path), cache))
    before = path.read_bytes()
    entries = [{"n": n, "disc": disc, "num": str(v.numerator), "den": str(v.denominator)}
               for n, disc, v in cache.entries() if disc is not None]
    assert [(e["n"], e["disc"]) for e in entries] == [(2, 5), (4, 5)]
    assert before == (json.dumps({"version": CACHE_VERSION, "entries": entries},
                                 sort_keys=True) + "\n").encode()
    bigger = BernoulliCache()
    bigger.gen_bernoulli_many(range(0, 40, 2), QuadChar(5))

    def encode_fails(obj, **kwargs):
        raise OSError(28, "No space left on device")

    def rename_fails(src, dst):
        raise OSError(28, "No space left on device")

    for module, name, failure in ((json, "dumps", encode_fails), (os, "replace", rename_fails)):
        with monkeypatch.context() as m:
            m.setattr(module, name, failure)
            with pytest.raises(OSError, match=f"cache directory {tmp_path} is not writable"):
                store_cache(str(tmp_path), bigger)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [CACHE_FILE]


def test_config_file_defaults_flags_win(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("p-max=40\nk-max=2\n")
    code, out, _ = run_cli(
        capsys, "--config", str(conf), "scan", "lehmer2", "--p-min", "5",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert max(r["p"] for r in rows) <= 40
    assert max(r["k"] for r in rows) == 2
    # explicit flag beats the file
    code, out, _ = run_cli(
        capsys, "--config", str(conf), "scan", "lehmer2", "--p-min", "5", "--k-max", "1",
    )
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert max(r["k"] for r in rows) == 1


@pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]])
def test_config_file_other_spellings(tmp_path, capsys, spelling):
    """--config=FILE and an abbreviation read the file as --config FILE does."""
    conf = tmp_path / "aac.conf"
    conf.write_text("p=13\n")
    code, out, _ = run_cli(capsys, *[a.format(conf) for a in spelling], "verify", "aac")
    assert code == 0
    assert json.loads(out)["p"] == 13


def test_config_file_serves_several_subcommands(tmp_path, capsys):
    """Each key is a default only of the subcommands that define its flag."""
    conf = tmp_path / "shared.conf"
    conf.write_text("p-max=11\ninclude-p5=yes\n")
    code, out, err = run_cli(capsys, "--config", str(conf), "scan", "lehmer-diff")
    assert code == 0
    assert [json.loads(line)["p"] for line in out.strip().splitlines()] == [7, 11]
    assert json.loads(err.strip().splitlines()[0])["config"]["include_p5"] is True
    code, out, err = run_cli(capsys, "--config", str(conf), "table1")
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["match"] is True
    assert "p_max" not in json.loads(err.strip().splitlines()[-1])["config"]
    conf.write_text("p-max=11\nno-such-flag=1\n")
    code, _, err = run_cli(capsys, "--config", str(conf), "table1")
    assert code == 2 and "no-such-flag" in err


def test_unwritable_cache_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the cache directory should go
    code, _, err = run_cli(
        capsys, "bernoulli", "--n", "4", "--cache-dir", str(blocker / "sub"),
    )
    assert code == 2
    assert "not writable" in err


@pytest.mark.parametrize("target", ["missing-dir", "existing-dir"])
@pytest.mark.parametrize("argv", [
    ("verify", "thm1", "--d", "14", "--p", "7"),
    ("scan", "lehmer-diff", "--p-max", "11"),
    ("table1",),
    ("lfun", "--p", "7"),
    ("bernoulli", "--n", "4"),
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, target):
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.splitlines()[0].startswith("error: ")
    assert "Traceback" not in err


def test_unwritable_out_fails_before_any_row_is_computed(tmp_path, capsys, monkeypatch):
    import quadcong.cli as cli_mod
    import quadcong.suite as suite_mod

    def no_row(instance):
        pytest.fail(f"computed {instance} before checking --out")

    for module in (suite_mod, cli_mod):
        monkeypatch.setattr(module, "run_instance", no_row)
    out = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "verify", "thm1", "--d", "14", "--p", "7", "--out", str(out))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert not out.parent.exists()


def test_input_error_leaves_an_existing_out_file_alone(tmp_path, capsys):
    out = tmp_path / "x.json"
    out.write_text("previous\n")
    code, _, _ = run_cli(capsys, "verify", "thm1", "--p", "7", "--out", str(out))
    assert code == 2
    assert out.read_text() == "previous\n"


def test_interrupted_scan_stores_every_character_value_of_its_grid(tmp_path, monkeypatch):
    """Phase 1 has filled the cache before the rows run, so a scan
    interrupted at its third row still persists every B_{r,psi}, B_{3r,psi}."""
    import quadcong.suite as suite_mod
    from quadcong.characters import split_character

    fresh = _fresh_default_cache(monkeypatch)
    rows = []
    row = suite_mod.run_instance

    def interrupted_at_the_third_row(instance):
        rows.append(instance)
        if len(rows) == 3:
            raise KeyboardInterrupt
        return row(instance)

    monkeypatch.setattr(suite_mod, "run_instance", interrupted_at_the_third_row)
    with pytest.raises(KeyboardInterrupt):
        main(["scan", "thm1", "--d-max", "150", "--p-max", "23", "--cache-dir", str(tmp_path)])
    assert len(rows) == 3
    loaded = BernoulliCache()
    accepted, rejected = load_cache(str(tmp_path), loaded)
    assert accepted and rejected == 0
    grid = suite_mod.build_instances(suite_mod.ScanConfig("THM1", d_max=150, p_max=23))
    # the rows of a principal psi read plain B_n, which are not stored
    splits = [split_character(d, p) for _, d, p, _ in grid]
    splits = [split for split in splits if not split.psi.is_principal]
    assert len(splits) > 3
    for split in splits:
        disc = split.psi.discriminant
        for n in (split.r, 3 * split.r):
            assert loaded.get(n, disc) == fresh.get(n, disc) is not None, (split, n)


def test_scan_nondetector_failure_exits_1(capsys):
    """Lowering the floor to p = 3 pulls in the documented (3, 4) failure."""
    code, out, _ = run_cli(
        capsys, "scan", "lehmer2", "--p-min", "3", "--p-max", "7", "--k-max", "5",
    )
    assert code == 1
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert sum(not r["holds"] for r in rows) == 1


def test_scan_exit_code_contract_property():
    """Synthetic pass/fail mixes against the documented exit contract."""
    from hypothesis import given, strategies as st

    from quadcong.cli import scan_exit_code
    from quadcong.suite import DETECTORS, STATEMENTS

    @given(
        statement=st.sampled_from(STATEMENTS),
        verdicts=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=30),
        n_errors=st.integers(min_value=0, max_value=3),
    )
    def check(statement, verdicts, n_errors):
        code = scan_exit_code(statement, verdicts, n_errors)
        if n_errors:
            assert code == 2
        elif statement in DETECTORS:
            assert code == 0
        elif any(not h for h, adv in verdicts if not adv):
            assert code == 1
        else:
            assert code == 0

    check()


def test_manifest_tallies_consistent(capsys):
    _, _, err = run_cli(capsys, "scan", "lehmer2", "--p-min", "5", "--p-max", "30")
    manifest = json.loads(err.strip().splitlines()[0])
    assert sorted(manifest) == ["command", "config", "errors", "failed", "instances",
                                "passed", "version", "wall_time_s"]
    assert manifest["passed"] + manifest["failed"] == manifest["instances"] > 0


def test_table1_manifest_counts_no_skipped_row_as_an_error(capsys):
    code, out, err = run_cli(capsys, "table1")
    assert code == 0
    assert sum("skipped" in json.loads(line) for line in out.splitlines()) == 2
    manifest = json.loads(err.strip().splitlines()[-1])
    assert (manifest["instances"], manifest["passed"], manifest["errors"]) == (1, 1, 0)


def test_serial_and_parallel_scans_persist_the_same_cache(tmp_path):
    """--jobs 1 and --jobs 2, each from an empty cache in a fresh interpreter,
    write the same report bytes and the same cache file bytes.  The lehmer2
    scan reads only plain B_n, so its file holds no entry."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in (("thm1", "--d-max", "150", "--p-max", "23"),
                 ("lehmer2", "--p-max", "60", "--k-max", "3")):
        written = []
        for jobs in ("1", "2"):
            cache_dir = tmp_path / f"{argv[0]}-jobs{jobs}"
            run = subprocess.run(
                [sys.executable, "-m", "quadcong.cli", "scan", *argv,
                 "--jobs", jobs, "--cache-dir", str(cache_dir)],
                env=env, capture_output=True, check=True,
            )
            written.append((run.stdout, (cache_dir / CACHE_FILE).read_bytes()))
        assert written[0][0] and written[0] == written[1], argv
    assert json.loads(written[0][1])["entries"] == []


@pytest.mark.parametrize("argv", [
    ("table1", "--cache-dir", "{dir}"),
    ("table1", "--format", "csv"),
    ("bernoulli", "--n", "4", "--format", "csv"),
    ("lfun", "--p", "7", "--format", "csv"),
])
def test_flags_a_subcommand_does_not_use_are_rejected(argv, tmp_path, capsys):
    code, out, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_usage_error_writes_no_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code, out, err = run_cli(capsys, "verify", "thm1", "--p", "7", "--cache-dir", str(cache_dir))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: thm1 needs --d"]
    assert not (cache_dir / CACHE_FILE).exists()


def test_failing_verdict_still_stores_the_cache(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "verify", "super-aacm", "--d", "14", "--p", "7",
                         "--cache-dir", str(tmp_path))
    assert code == 1
    fresh = BernoulliCache()
    accepted, rejected = load_cache(str(tmp_path), fresh)
    assert accepted and not rejected
    assert (fresh.get(3, -8), fresh.get(9, -8)) == (9, -2256633)


def _scan_in_a_fresh_interpreter(cache_dir, *argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "quadcong.cli", *argv, "--cache-dir", str(cache_dir)],
                          env=env, capture_output=True, check=True).stdout


def _file_state(path: Path) -> tuple[bytes, int, int]:
    stat = path.stat()
    return path.read_bytes(), stat.st_mtime_ns, stat.st_ino


def test_warm_scan_leaves_the_cache_file_untouched(tmp_path):
    """A scan that adds no entry to a file it read whole does not store it:
    bytes, st_mtime_ns and inode stay, and the report is the cold one."""
    argv = ("scan", "thm1", "--d-max", "300", "--p-max", "50")
    cold = _scan_in_a_fresh_interpreter(tmp_path, *argv)
    before = _file_state(tmp_path / CACHE_FILE)
    assert json.loads(before[0])["entries"]
    assert _scan_in_a_fresh_interpreter(tmp_path, *argv) == cold
    assert _file_state(tmp_path / CACHE_FILE) == before


def _cache_file(path: Path, entries: list[dict]) -> tuple[bytes, int, int]:
    path.write_text(json.dumps({"version": CACHE_VERSION, "entries": entries}))
    return _file_state(path)


def _stored_keys(path: Path) -> list[tuple[int, int]]:
    return [(e["n"], e["disc"]) for e in json.loads(path.read_text())["entries"]]


B2_CHI5 = {"n": 2, "disc": 5, "num": "4", "den": "5"}


def test_a_run_that_adds_an_entry_rewrites_the_cache_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / CACHE_FILE
    before = _cache_file(path, [B2_CHI5])
    _fresh_default_cache(monkeypatch)
    assert run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5", "--cache-dir", str(tmp_path))[0] == 0
    assert _file_state(path) == before
    _fresh_default_cache(monkeypatch)
    assert run_cli(capsys, "bernoulli", "--n", "4", "--disc", "5", "--cache-dir", str(tmp_path))[0] == 0
    assert _file_state(path) != before
    assert _stored_keys(path) == [(2, 5), (4, 5)]


def test_a_run_that_dropped_an_entry_rewrites_the_cache_file(tmp_path, capsys, monkeypatch):
    """The run adds nothing, but the file it loaded had an entry rejected."""
    path = tmp_path / CACHE_FILE
    before = _cache_file(path, [B2_CHI5, {"n": 4, "disc": 5, "num": "1", "den": "0"}])
    _fresh_default_cache(monkeypatch)
    code, _, err = run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5", "--cache-dir", str(tmp_path))
    assert code == 0 and "dropped 1" in err
    assert _file_state(path) != before
    assert _stored_keys(path) == [(2, 5)]


def test_a_run_that_adds_an_entry_to_a_file_with_a_repeated_key_rewrites_it(
        tmp_path, capsys, monkeypatch):
    """A repeated key is accepted twice but held once, so the file's
    accepted count equals its entry count after one more entry is added:
    the count compared is the cache's after the load's merge."""
    path = tmp_path / CACHE_FILE
    before = _cache_file(path, [B2_CHI5, B2_CHI5])
    assert load_cache(str(tmp_path), BernoulliCache()) == (2, 0)
    _fresh_default_cache(monkeypatch)
    assert run_cli(capsys, "bernoulli", "--n", "2", "--disc", "5", "--cache-dir", str(tmp_path))[0] == 0
    assert _file_state(path) == before
    _fresh_default_cache(monkeypatch)
    assert run_cli(capsys, "bernoulli", "--n", "4", "--disc", "5", "--cache-dir", str(tmp_path))[0] == 0
    assert _file_state(path) != before
    assert _stored_keys(path) == [(2, 5), (4, 5)]


def test_canonical_decimal_pattern_keeps_the_round_trip_rule():
    """The pattern accepts exactly the strings the former rule did: decimal
    digits after an optional minus that int() reads back to the same string."""
    from hypothesis import given, strategies as st

    from quadcong.cli import _cache_int

    def round_trip_rule(x: str) -> bool:
        digits = x.removeprefix("-")
        return len(digits) <= 20 and digits.isdecimal() and str(int(x)) == x

    @given(st.text(alphabet="0123456789-+ .\n٤５", max_size=8))
    def check(x):
        assert (_cache_int(x, 20) is not None) == round_trip_rule(x), x

    check()


def test_verify_refuses_a_conductor_past_the_kernel_bound(capsys):
    """Table 1 row 2's psi has conductor 45765155864, whose kernel tables
    would hold about 2.3 * 10^10 ints: refused before any is allocated, as
    an input error (exit 2), well within a second."""
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "super-aacm", "--d", "125854178626", "--p", "11")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.startswith("error: B_{15,chi} for conductor 45765155864 needs about")


def test_memory_error_exits_2(capsys, monkeypatch):
    import quadcong.cli as cli_module

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli_module, "run_instance", exhausted)
    code, out, err = run_cli(capsys, "verify", "thm1", "--d", "14", "--p", "7")
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"
