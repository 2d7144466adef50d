"""Workload grids and the quadcong CLI calls each workload makes.

Seed 0 is the named grid of each workload.  Any other seed draws a nearby
grid from `random.Random(seed)`: different (d, p) or p rows, nearly the same
cost.  The draw is kept narrow on purpose.  A thm1 scan's cost grows like
d_max^1.5 and the Wilson scans' cost is set by the largest B_n they need,
so a wide draw would move the run-to-run spread past the bounds in
BENCHMARK.json without measuring anything new.  For the same reason p_max
stays at 200 for thm1: it sets the largest plain B_n every scan needs
(n up to 3 (p - 1) / 2), and each --jobs 2 worker computes those again.
"""
from __future__ import annotations

import random

WORKLOADS = ("thm1-cold", "thm1-warm", "thm1-jobs2", "wilson-lfun")

# thm1 grid: the main user job (depth-2 unit/class-number scan).
THM1_D_MAX = 2000
THM1_P_MAX = 200
THM1_D_SPREAD = 0.01  # relative half-width of the d_max draw

# Wilson/lfun grid: plain B_n up to n = k_max * (293 - 1) = 1460.  The top
# prime is held fixed (a shift to 283 or 307 changes the cost by ~10%), so
# other seeds vary the low end of the prime range instead.
WILSON_P_MAX = 300
WILSON_K_MAX = 5
WILSON_P_MINS = (5, 7, 11, 13)

WILSON_SCANS = ("lehmer2", "lehmer-diff", "thm3", "super-wilson")


def resolve_grid(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The grid a workload runs for a seed; `scale` shrinks it for smoke tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    if workload == "wilson-lfun":
        p_min = 7 if seed == 0 else rng.choice(WILSON_P_MINS)
        return {
            "p_min": p_min,
            "p_max": max(p_min, round(WILSON_P_MAX * scale)),
            "k_max": WILSON_K_MAX,
        }
    d_max = THM1_D_MAX
    if seed != 0:
        d_max = round(d_max * (1 + rng.uniform(-THM1_D_SPREAD, THM1_D_SPREAD)))
    return {
        "d_max": max(100, round(d_max * scale)),
        "p_max": max(11, round(THM1_P_MAX * scale)),
        "jobs": 2 if workload == "thm1-jobs2" else 1,
    }


def commands(workload: str, grid: dict, cache_dir: str) -> list[tuple[str, list[str]]]:
    """(stream name, CLI argv) pairs, in the order one job runs them.

    `--out` is appended by the caller.  Only jobs call this, so quadcong is
    imported here and not at module level, where the orchestrator would
    import it too.
    """
    if workload == "wilson-lfun":
        from quadcong.primes import primes_up_to

        span = ["--p-min", str(grid["p_min"]), "--p-max", str(grid["p_max"]),
                "--k-max", str(grid["k_max"])]
        calls = [(name, ["scan", name] + span) for name in WILSON_SCANS]
        for p in primes_up_to(grid["p_max"]):
            if p >= max(grid["p_min"], 5):
                calls.append(("lfun", ["lfun", "--p", str(p)]))
        return calls
    scan = ["scan", "thm1", "--d-max", str(grid["d_max"]), "--p-max", str(grid["p_max"]),
            "--jobs", str(grid["jobs"]), "--cache-dir", cache_dir]
    calls = [("thm1", scan)]
    if workload == "thm1-warm":
        calls.append(("table1", ["table1"]))
    return calls
