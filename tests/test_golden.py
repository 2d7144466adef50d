"""Byte-identity guard for the report stream.

Each case runs `cli.main` in-process and pins the sha256 of its stdout
and its exit code.  The hashes were taken at commit 343f482 and hold for
every change that leaves report bytes alone; a change that means to
alter them must say so and update the table.
"""
import hashlib

import pytest

from quadcong.cli import main

THM1_GRID = ("--d-max", "400", "--p-max", "60")

GOLDEN = [
    (("verify", "thm1", "--d", "14", "--p", "7"), 0,
     "b0e3bff344f7f772f9aed2062d5b320a3193a0bb972a9a5c8a3ef70711b7dc2e"),
    (("verify", "super-wilson", "--p", "563"), 1,
     "c230abd4d2c1e7dfa0412eb2f1a02524e12fbbb2f1159415edcd93965c2ec071"),
    (("scan", "thm1", *THM1_GRID, "--jobs", "1"), 0,
     "8bbf147d71707d075b6e5ec4282e3abc23c3c895fc6b0baa2b2be575732ba517"),
    (("scan", "thm1", *THM1_GRID, "--jobs", "2"), 0,
     "8bbf147d71707d075b6e5ec4282e3abc23c3c895fc6b0baa2b2be575732ba517"),
    (("scan", "thm1", *THM1_GRID, "--format", "csv", "--include-p5"), 0,
     "668e370d7e432e0702b0bc59e5cc8dcfac6f96530942040ee6273bfd64fc7867"),
    (("scan", "cor-exact-div", *THM1_GRID), 0,
     "2bdc2313cf9820ef908d4e7d2035d2e4fb75f7d751ce0adbf4808b47d9dd2544"),
    (("scan", "super-aacm", *THM1_GRID), 0,
     "48d91151c87278239e64fc06cd41d9d070ae49836fd647578df6148b5aabf5f0"),
    (("scan", "aac", "--p-max", "200"), 0,
     "b217c4e7fb02249b1c9515b18ef5b736313bbf48f65c200277055125156e7c6b"),
    (("scan", "lehmer2", "--p-min", "3", "--p-max", "60"), 1,
     "92ebd32869c19eecf096bc7b87943f96857b7323cf91c0e3ca947f1ebe0a22ce"),
    (("scan", "lehmer-diff", "--p-max", "100"), 0,
     "f1091d400d4f99c5919a690ffe41040b7d9ee6df0399d32f0e4d2ba05fd350df"),
    (("scan", "thm3", "--p-max", "60"), 0,
     "d55600398d9a2b0818dca867fc372c19b9434c52fad617b54430f6b1c51eefeb"),
    (("scan", "super-wilson", "--p-max", "100"), 0,
     "88b235264fd4d06766af9e7c12f104348dab1dd63589c4ed9b5d368b38030a51"),
    (("table1",), 0,
     "801dd1e9510d6da0d79cf11ba4a78f413eb84c9b8b861d52f837cb33dec9e2d3"),
    (("lfun", "--p", "7"), 0,
     "20ddd6882e489d23470abd2f9ae1e75cf5efdd10c023fad00ab0c500f25f22df"),
    (("lfun", "--p", "7", "--d", "14"), 0,
     "3cee81753d88c2328a22c5082c839add8a68cc7d9235d757aeb518338776d24d"),
    (("lfun", "--p", "11", "--d", "33"), 0,
     "397705ca84dd6931661cb7dd9c45f782f3036a82a67e72c13c8ea78d11095ecc"),
    (("bernoulli", "--n", "40"), 0,
     "17cd383aa8c2dec67570903357d89e6b599f493c2a4a1f53d1413135e11502eb"),
    (("bernoulli", "--n", "21", "--disc", "-7"), 0,
     "10410c1fc14ad356ecb7f276c5701579b1eb5841ca2bbeaea28fdf0e840f596c"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_stdout_bytes_and_exit_code_are_pinned(capsys, argv, code, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
