#!/usr/bin/env python3
"""Tiny-scale self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --scale tiny with --trace 0 and
--trace 1 (seconds each, after the first build), and checks each result
line: exactly the keys correct/attempted/failed/metrics, every output check
passed, and every metric BENCHMARK.json names present with its unit (the
end-to-end ones also non-zero).  It also checks that run.py refuses, with a
non-zero exit and no result, in a directory holding only BENCHMARK.json and
perfbench/.  Exit code 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def check_result(proc, expected, nonzero):
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output checks failed")
    if not result.get("attempted", 0) >= 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: value {got.get('value')!r}")
        elif nonzero and got["value"] <= 0:
            problems.append(f"{m['name']}: {got['value']} is not positive")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def check_bare_directory():
    """run.py must refuse quickly where only the benchmark files exist."""
    bare = REPO / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(REPO / "BENCHMARK.json", bare)
    shutil.copytree(REPO / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "call-host",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(REPO / "perfbench" / "run.py"),
                 "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"],
                cwd=REPO, capture_output=True, text=True, timeout=900)
            expected = spec["per_layer" if trace else "end_to_end"]
            problems = check_result(proc, expected, nonzero=not trace)
            print(f"{workload['name']} --trace {trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
    problems = check_bare_directory()
    print(f"bare directory refusal: {'ok' if not problems else '; '.join(problems)}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
