"""Verdict records for congruence checks, with exact re-derivable payloads."""
from __future__ import annotations

import json
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
    difference_valuation >= depth by construction.  An advisory row is
    reported but never gates an exit code.
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
    advisory: bool = False

    def to_json_obj(self) -> dict:
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
        if self.advisory:
            obj["advisory"] = True
        return obj

    def to_json_line(self) -> str:
        """json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":")),
        formatted directly: the keys in sorted order, and no field needs
        escaping (the statement id is ASCII, the rest digits, '-' and '/')."""
        head = '{"advisory":true,' if self.advisory else "{"
        d = "null" if self.d is None else self.d
        k = "null" if self.k is None else self.k
        val = '"inf"' if self.difference_valuation == INF else int(self.difference_valuation)
        holds = "true" if self.holds else "false"
        return (
            f'{head}"d":{d},"depth":{self.depth},"difference_valuation":{val},'
            f'"holds":{holds},"k":{k},"lhs":"{rational_str(self.lhs)}","p":{self.p},'
            f'"rhs":"{rational_str(self.rhs)}","statement":"{self.statement_id}"}}'
        )

    def to_csv_row(self) -> str:
        o = self.to_json_obj()
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
                "1" if self.advisory else "0",
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
