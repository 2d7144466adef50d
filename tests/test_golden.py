"""Byte-identity guard for the report stream and the stderr lines.

Each case runs `cli.main` in-process and pins its exit code, the sha256
of its stdout and the sha256 of its stderr with the manifest's
`wall_time_s` removed (stderr carries the run manifest and the `error:`,
`alert:` and `attention:` lines).  The stdout hashes were taken at
commit 343f482, the stderr hashes at commit 603c3d4, and both hashes of
`lfun --p 293` and `lfun --p 29 --d 2929` (conductor 2929, the largest
direct L-series sum pinned here) at commit f5aed2c; all hold for every
change that leaves those bytes alone, and a change that means to alter
them must say so and update the table.
"""
import hashlib
import re

import pytest

from quadcong.cli import main

THM1_GRID = ("--d-max", "400", "--p-max", "60")
NO_STDERR = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    (("verify", "thm1", "--d", "14", "--p", "7"), 0,
     "b0e3bff344f7f772f9aed2062d5b320a3193a0bb972a9a5c8a3ef70711b7dc2e",
     "29134f937bdf04887f3a6c9c311a108f539e6c31cfed1f193a20599aae0eda1b"),
    (("verify", "super-wilson", "--p", "563"), 1,
     "c230abd4d2c1e7dfa0412eb2f1a02524e12fbbb2f1159415edcd93965c2ec071",
     "f0778da8002b849439e3d60885918201992d248c81741d1cbffa51b24a7a8199"),
    (("scan", "thm1", *THM1_GRID, "--jobs", "1"), 0,
     "8bbf147d71707d075b6e5ec4282e3abc23c3c895fc6b0baa2b2be575732ba517",
     "4d2260cf11551a8643d0527ee2f5368b0cc7ff52032559a036aa90cdc74c3213"),
    (("scan", "thm1", *THM1_GRID, "--jobs", "2"), 0,
     "8bbf147d71707d075b6e5ec4282e3abc23c3c895fc6b0baa2b2be575732ba517",
     "e659e5f48c63b8f94a2d88560403d9043ce226bfd1e60b492657c6c4af2d7706"),
    (("scan", "thm1", *THM1_GRID, "--format", "csv", "--include-p5"), 0,
     "668e370d7e432e0702b0bc59e5cc8dcfac6f96530942040ee6273bfd64fc7867",
     "0f57574491a7bde2bc3856ebbb2be4b971f97b7721d1ba4cee45029e972e2b2e"),
    (("scan", "cor-exact-div", *THM1_GRID), 0,
     "2bdc2313cf9820ef908d4e7d2035d2e4fb75f7d751ce0adbf4808b47d9dd2544",
     "9f6b7747f2843ab0a50fd1e5ca38e0654c1f728c6e4b7b09c69c4275b379a64e"),
    (("scan", "super-aacm", *THM1_GRID), 0,
     "48d91151c87278239e64fc06cd41d9d070ae49836fd647578df6148b5aabf5f0",
     "19c827a3c3dad7ca85a82632b096b548f6cdb150f358821a4c78a1894c27891f"),
    (("scan", "aac", "--p-max", "200"), 0,
     "b217c4e7fb02249b1c9515b18ef5b736313bbf48f65c200277055125156e7c6b",
     "9d2c7e33a1e3eb9f18e99269aae05f5bff1fd6054af7036d3892d108d6e98e54"),
    (("scan", "lehmer2", "--p-min", "3", "--p-max", "60"), 1,
     "92ebd32869c19eecf096bc7b87943f96857b7323cf91c0e3ca947f1ebe0a22ce",
     "369546f233c830e3f9ecd14afb0091d7fe1b8d853533de366da53e4ef732c4de"),
    (("scan", "lehmer-diff", "--p-max", "100"), 0,
     "f1091d400d4f99c5919a690ffe41040b7d9ee6df0399d32f0e4d2ba05fd350df",
     "c7581190dc89a7af36345a987fe69bf35bbe616b694500762cd42332e1635b97"),
    (("scan", "thm3", "--p-max", "60"), 0,
     "d55600398d9a2b0818dca867fc372c19b9434c52fad617b54430f6b1c51eefeb",
     "4be4977a05358b485338780a9c1e5908e2007780f447c28276b968cf03a29687"),
    (("scan", "super-wilson", "--p-max", "100"), 0,
     "88b235264fd4d06766af9e7c12f104348dab1dd63589c4ed9b5d368b38030a51",
     "59493ff0fd37ceb48f412d917ca052e8943f5893f6ba749e2b6728e8f046f7fd"),
    (("table1",), 0,
     "801dd1e9510d6da0d79cf11ba4a78f413eb84c9b8b861d52f837cb33dec9e2d3",
     "0ab8087803103e271e1d15415a11d0966fffdbd452bb9c0233a71122e0b88536"),
    (("lfun", "--p", "7"), 0,
     "20ddd6882e489d23470abd2f9ae1e75cf5efdd10c023fad00ab0c500f25f22df", NO_STDERR),
    (("lfun", "--p", "7", "--d", "14"), 0,
     "3cee81753d88c2328a22c5082c839add8a68cc7d9235d757aeb518338776d24d", NO_STDERR),
    (("lfun", "--p", "11", "--d", "33"), 0,
     "397705ca84dd6931661cb7dd9c45f782f3036a82a67e72c13c8ea78d11095ecc", NO_STDERR),
    (("lfun", "--p", "293"), 0,
     "c81f3c36df5cf62d5421118e4bd09de86fa1c26bf44911338ab0ddc69451d8fe", NO_STDERR),
    (("lfun", "--p", "29", "--d", "2929"), 0,
     "1d317ab6487e4817aeb3fd29b43629988e317e79fe29ef736eb233874aa69c35", NO_STDERR),
    (("bernoulli", "--n", "40"), 0,
     "17cd383aa8c2dec67570903357d89e6b599f493c2a4a1f53d1413135e11502eb", NO_STDERR),
    (("bernoulli", "--n", "21", "--disc", "-7"), 0,
     "10410c1fc14ad356ecb7f276c5701579b1eb5841ca2bbeaea28fdf0e840f596c", NO_STDERR),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, digest, err_digest", GOLDEN,
                         ids=[" ".join(a) for a, *_ in GOLDEN])
def test_stdout_bytes_and_exit_code_are_pinned(capsys, argv, code, digest, err_digest):
    got = main(list(argv))
    out, err = capsys.readouterr()
    assert got == code
    assert _sha256(out) == digest
    assert _sha256(re.sub(r', "wall_time_s": [^,}]+', "", err)) == err_digest
