"""Verdict records for congruence checks, with exact re-derivable payloads."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .padic import INF, difference_verdict


def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


@dataclass(frozen=True)
class CongruenceReport:
    """One theorem-instance verdict.

    lhs and rhs are the exact rational sides; holds is equivalent to
    difference_valuation >= depth by construction.  elapsed is wall time
    in seconds and is deliberately excluded from serialized rows so that
    report streams are byte-reproducible.
    """

    statement_id: str
    lhs: Fraction
    rhs: Fraction
    p: int
    depth: int
    difference_valuation: int | float
    holds: bool
    d: int | None = None
    k: int | None = None
    elapsed: float = 0.0

    def to_json_obj(self, advisory: bool = False) -> dict:
        obj = {
            "statement": self.statement_id,
            "d": self.d,
            "p": self.p,
            "k": self.k,
            "depth": self.depth,
            "lhs": rational_str(self.lhs),
            "rhs": rational_str(self.rhs),
            "difference_valuation": "inf" if self.difference_valuation == INF
            else int(self.difference_valuation),
            "holds": self.holds,
        }
        if advisory:
            obj["advisory"] = True
        return obj

    def to_json_line(self, advisory: bool = False) -> str:
        return json.dumps(self.to_json_obj(advisory), sort_keys=True, separators=(",", ":"))

    def to_csv_row(self, advisory: bool = False) -> str:
        o = self.to_json_obj(advisory=False)
        return ",".join(
            [
                o["statement"],
                "" if o["d"] is None else str(o["d"]),
                str(o["p"]),
                "" if o["k"] is None else str(o["k"]),
                str(o["depth"]),
                o["lhs"],
                o["rhs"],
                str(o["difference_valuation"]),
                "1" if o["holds"] else "0",
                "1" if advisory else "0",
            ]
        )


CSV_HEADER = "statement,d,p,k,depth,lhs,rhs,difference_valuation,holds,advisory"


def make_report(
    statement_id: str,
    lhs: Fraction,
    rhs: Fraction,
    p: int,
    depth: int,
    d: int | None = None,
    k: int | None = None,
    started: float | None = None,
) -> CongruenceReport:
    val, holds = difference_verdict(lhs, rhs, p, depth)
    return CongruenceReport(
        statement_id=statement_id,
        lhs=lhs,
        rhs=rhs,
        p=p,
        depth=depth,
        difference_valuation=val,
        holds=holds,
        d=d,
        k=k,
        elapsed=0.0 if started is None else time.perf_counter() - started,
    )


def rederive_holds(json_line: str) -> bool:
    """Re-decide a serialized report's verdict from its exact payload alone."""
    obj = json.loads(json_line)
    lhs = parse_rational(obj["lhs"])
    rhs = parse_rational(obj["rhs"])
    val, holds = difference_verdict(lhs, rhs, obj["p"], obj["depth"])
    recorded = obj["difference_valuation"]
    recorded_val = INF if recorded == "inf" else recorded
    if recorded_val != val or holds != obj["holds"]:
        raise ValueError(f"report line is inconsistent with its own payload: {json_line}")
    return holds
