"""quadcong benchmark: one closed-loop client running whole CLI jobs.

Usage (from the repository root):

    python3 perfbench/run.py --workload thm1-cold --seed 0 --seconds 20 --trace 0

Each job is a fresh interpreter (`job.py`), so the in-memory Bernoulli
cache starts cold as it does for a user.  Jobs run back to back until
`--seconds` is used up (at least three, four when traced); the next job
starts only after the previous one returned.  Every job's output is
checked.  The last stdout line is the result object; the line before it
records the machine, the inputs and every job.

`--trace 0` reports the end-to-end metrics (medians over jobs).
`--trace 1` alternates untraced and traced jobs and reports the per-layer
metrics (medians over traced jobs) and the tracing overhead.
`--scale` shrinks the grids (smoke tests only).
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
TIME_LIMIT_S = 170.0  # one run must end within 180 s
SETUP_PROBES = 7  # set-up-only jobs per run, on top of each job's own set-up

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verified_frac": "ratio",
}

# Per-layer metrics and their units, layer by layer.
PER_LAYER = {
    "bernoulli.gen.calls": "count", "bernoulli.gen.computed": "count",
    "bernoulli.gen.self_s": "s",
    "bernoulli.plain.calls": "count", "bernoulli.plain.computed": "count",
    "bernoulli.plain.max_n": "count", "bernoulli.plain.self_s": "s",
    "bernoulli.cache.entries": "count",
    "characters.split_character.calls": "count", "characters.split_character.self_s": "s",
    "characters.char_values.calls": "count", "characters.char_values.self_s": "s",
    "quadfield.fundamental_unit.calls": "count", "quadfield.fundamental_unit.self_s": "s",
    "quadfield.fundamental_unit.distinct_d": "count",
    "quadfield.class_number.calls": "count", "quadfield.class_number.self_s": "s",
    "quadfield.vp_u.calls": "count", "quadfield.vp_u.self_s": "s",
    "padic.vp.calls": "count", "padic.vp.self_s": "s",
    "padic.unit_log_series.calls": "count", "padic.unit_log_series.self_s": "s",
    "padic.fermat_quotient.calls": "count", "padic.fermat_quotient.self_s": "s",
    "lseries.a_coefficients_direct.calls": "count", "lseries.a_coefficients_direct.self_s": "s",
    "lseries.wilson_quotient.calls": "count", "lseries.wilson_quotient.self_s": "s",
    "suite.build_instances.s": "s",
    "suite.run_instance.calls": "count", "suite.run_instance.self_s": "s",
    "suite.scan.parent_s": "s", "suite.scan.child_cpu_s": "s",
    "cli.load_cache.s": "s", "cli.load_cache.accepted": "count",
    "cli.load_cache.rejected": "count", "cli.store_cache.s": "s",
    "cli.cache_file_bytes": "bytes",
    "reports.make_report.calls": "count", "reports.make_report.self_s": "s",
    "reports.to_json_line.calls": "count", "reports.to_json_line.self_s": "s",
    "reports.stream_bytes": "bytes",
    "trace.overhead_s": "s",
}


class JobFailed(Exception):
    """A job process crashed, timed out or printed no result."""


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def run_job(workload: str, grid: dict, work_root: str, fixture: str | None,
            trace: bool, deadline: float, setup_only: bool = False) -> dict:
    """Spawn one job and wait for it; its work directory is left in place."""
    work = tempfile.mkdtemp(dir=work_root)
    spec = {"workload": workload, "grid": grid, "work_dir": work,
            "fixture": fixture, "trace": trace, "setup_only": setup_only}
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except BaseException as exc:  # timeout, or SIGTERM/Ctrl-C: stop the job first
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise JobFailed(f"{workload} job timed out") from None
        raise
    if proc.returncode != 0 or not out.strip():
        raise JobFailed(f"{workload} job exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.splitlines()[-1])
    res["setup_s"] = res["ready"] - spawned
    res["duration_s"] = time.monotonic() - spawned
    res["work_dir"] = work
    res["traced"] = trace
    return res


class Checker:
    """Compares each stream with its reference and counts checked rows."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, job: dict) -> int:
        """Fold in one job; returns its verified row count."""
        verified = 0
        self.problems.extend(job["problems"])
        for name, s in job["streams"].items():
            failed = s["failed"]
            ref = self.expected.setdefault(name, s["sha256"])
            if s["sha256"] != ref:
                self.problems.append(f"stream {name}: sha256 {s['sha256']} != {ref}")
                failed = s["rows"]
            self.attempted += s["rows"]
            self.failed += failed
            verified += s["rows"] - failed
        return verified


def measure(workload: str, seed: int, seconds: int, trace: bool, scale: float) -> dict:
    grid = workloads.resolve_grid(workload, seed, scale)
    expected = {}
    if seed == 0 and scale == 1.0:
        expected = json.loads(REFERENCE.read_text(encoding="utf-8"))
    checker = Checker(expected)
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(dir=ROOT / ".perfbench-work")
    try:
        fixture = None
        priming = None
        if workload in ("thm1-warm", "thm1-jobs2"):
            # A serial cold scan of the same grid: its stream is the reference
            # for this run, and its cache directory is thm1-warm's fixture.
            cold_grid = dict(grid, jobs=1)
            priming = run_job("thm1-cold", cold_grid, work_root, None, False, deadline)
            checker.add(priming)
            if workload == "thm1-warm":
                fixture = os.path.join(priming["work_dir"], "cache")
        # Set-up is ~0.1 s and noisy, so it gets more samples than the jobs give.
        setups = [run_job(workload, grid, work_root, fixture, False, deadline,
                          setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        stop = time.monotonic() + seconds
        jobs: list[dict] = []
        verified: list[int] = []
        min_jobs = 4 if trace else 3
        while True:
            job = run_job(workload, grid, work_root, fixture,
                          trace and len(jobs) % 2 == 1, deadline)
            shutil.rmtree(job.pop("work_dir"))
            verified.append(checker.add(job))
            jobs.append(job)
            typical = statistics.median(j["duration_s"] for j in jobs)
            if len(jobs) >= min_jobs and time.monotonic() + typical / 2 > stop:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(ROOT / ".perfbench-work")

    untraced = [(j, v) for j, v in zip(jobs, verified) if not j["traced"]]
    if trace:
        traced = [j for j in jobs if j["traced"]]
        metrics = {k: statistics.median(j["layers"][k] for j in traced)
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(j["wall_s"] for j in traced)
                                       - statistics.median(j["wall_s"] for j, _ in untraced))
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(j["wall_s"] for j, _ in untraced),
            "rows_per_s": statistics.median(v / j["wall_s"] for j, v in untraced),
            "cpu_s": statistics.median(j["cpu_s"] for j, _ in untraced),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j, _ in untraced),
            "setup_s": statistics.median(setups + [j["setup_s"] for j, _ in untraced]),
            "verified_frac": (checker.attempted - checker.failed) / checker.attempted,
        }
        units = END_TO_END
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "grid": grid, "machine": machine(),
        "priming_s": priming["duration_s"] if priming else None,
        "setup_probes_s": setups,
        "jobs": [{k: j[k] for k in ("traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                 for j in jobs],
        "problems": checker.problems[:20],
    }
    return {
        "info": info,
        "result": {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running job is killed and waited
    # for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "quadcong" / "__init__.py").is_file():
        print(f"error: no quadcong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in out["info"]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
