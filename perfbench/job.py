"""One job of a workload, in a fresh interpreter: set up, run the CLI, check.

Usage: python3 perfbench/job.py SPEC_JSON

SPEC_JSON holds `workload`, `grid`, `work_dir` (an empty directory this job
owns), `fixture` (a cache directory to restore, or null), `trace` and
`setup_only` (stop after set-up).  The job prints one JSON line: when
set-up ended (`time.monotonic`, comparable with the parent's clock), the
timed region's wall, CPU and peak RSS, and, per report stream, its sha256
and row counts.  Every row is checked after the timed region; `problems`
lists what failed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quadcong import cli  # noqa: E402  (set-up time includes this import)
from quadcong.bernoulli import DEFAULT_CACHE  # noqa: E402
from quadcong.padic import INF  # noqa: E402
from quadcong.reports import rederive_holds  # noqa: E402
from quadcong.suite import DETECTORS  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0  # ru_maxrss is in KiB on Linux


def _manifest(stderr_text: str) -> dict | None:
    for line in stderr_text.splitlines():
        if line.startswith("{"):
            return json.loads(line)
    return None


def check_scan(argv: list[str], rc: int, lines: list[str], stderr_text: str) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, problems) for one `scan` call."""
    problems: list[str] = []
    manifest = _manifest(stderr_text)
    if manifest is None:
        return max(len(lines), 1), max(len(lines), 1), [f"{argv}: no run manifest"]
    errors = manifest["errors"]
    attempted = manifest["instances"] + errors
    failed = errors
    if errors:
        problems.append(f"{argv}: {errors} instances errored")
    if manifest["instances"] != len(lines):
        problems.append(f"{argv}: {len(lines)} rows for {manifest['instances']} instances")
        failed += abs(manifest["instances"] - len(lines))
    verdicts = []
    for line in lines:
        row = json.loads(line)
        try:
            holds = rederive_holds(line)
        except ValueError as exc:
            problems.append(str(exc)[:200])
            failed += 1
            continue
        if row["statement"] not in DETECTORS and row["p"] >= 7 and not holds:
            problems.append(f"{argv}: unexpected failure at d={row['d']} p={row['p']} k={row['k']}")
            failed += 1
        verdicts.append((holds, bool(row.get("advisory"))))
    statement = cli._STATEMENT_NAMES[argv[1]]
    expected_rc = cli.scan_exit_code(statement, verdicts, errors)
    if rc != expected_rc:
        problems.append(f"{argv}: exit code {rc}, contract gives {expected_rc}")
        failed = attempted
    return attempted, min(failed, attempted), problems


def check_table1(argv: list[str], rc: int, lines: list[str]) -> tuple[int, int, list[str]]:
    """Every row that ran must match, and row 1 must be among them."""
    rows = [r for r in map(json.loads, lines) if "skipped" not in r]
    if rc != 0 or not rows or rows[0]["d"] != cli.TABLE1_ROWS[0][0]:
        return max(len(rows), 1), max(len(rows), 1), [f"table1: exit code {rc}, row 1 missing"]
    bad = [r["d"] for r in rows if r["match"] is not True]
    return len(rows), len(bad), [f"table1: no match for d={d}" for d in bad]


def _agreement(value: str) -> float:
    return INF if value == "inf" else int(value)


def check_lfun(argv: list[str], rc: int, lines: list[str]) -> tuple[int, int, list[str]]:
    p = int(argv[2])
    if rc != 0 or len(lines) != 1:
        return 1, 1, [f"lfun p={p}: exit code {rc}, {len(lines)} rows"]
    row = json.loads(lines[0])
    # direct and closed a_0, a_1 agree mod p^2 (see tests/test_lseries.py)
    if row["p"] != p or min(_agreement(row["v_p_a0_agreement"]),
                            _agreement(row["v_p_a1_agreement"])) < 2:
        return 1, 1, [f"lfun p={p}: direct and closed coefficients disagree mod p^2"]
    return 1, 0, []


def run(spec: dict) -> dict:
    work = Path(spec["work_dir"])
    cache_dir = work / "cache"
    cache_dir.mkdir()
    if spec["fixture"]:
        shutil.copyfile(Path(spec["fixture"]) / cli.CACHE_FILE, cache_dir / cli.CACHE_FILE)
    calls = workloads.commands(spec["workload"], spec["grid"], str(cache_dir))
    outs = [str(work / f"out-{i}.jsonl") for i in range(len(calls))]
    ready = time.monotonic()
    if spec["setup_only"]:
        return {"ready": ready}

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    codes: list[int] = []
    stderrs: list[str] = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for (_, argv), out in zip(calls, outs):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                codes.append(cli.main(argv + ["--out", out]))
        except Exception:  # a crashed call fails its rows; the job goes on
            codes.append(-1)
            err.write(traceback.format_exc())
        stderrs.append(err.getvalue())
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()

    streams: dict[str, dict] = {}
    problems: list[str] = []
    stream_bytes = 0
    for (stream, argv), out, rc, stderr_text in zip(calls, outs, codes, stderrs):
        data = Path(out).read_bytes() if os.path.exists(out) else b""
        stream_bytes += len(data)
        lines = data.decode("utf-8").splitlines()
        if rc == -1:
            problems.append(f"{argv}: crashed: {stderr_text.strip().splitlines()[-1]}")
        if argv[0] == "scan":
            attempted, failed, probs = check_scan(argv, rc, lines, stderr_text)
        elif argv[0] == "table1":
            attempted, failed, probs = check_table1(argv, rc, lines)
        else:
            attempted, failed, probs = check_lfun(argv, rc, lines)
        problems.extend(probs)
        s = streams.setdefault(stream, {"sha": hashlib.sha256(), "rows": 0, "failed": 0})
        s["sha"].update(data)
        s["rows"] += attempted
        s["failed"] += failed

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "streams": {k: {"sha256": v["sha"].hexdigest(), "rows": v["rows"], "failed": v["failed"]}
                    for k, v in streams.items()},
        "problems": problems[:20],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(DEFAULT_CACHE), stream_bytes)
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
