"""Tiny-size smoke run of every workload, untraced and traced.

    python3 bench/smoke.py

Each workload runs one small round (``--tiny``) in both modes and must exit
0, verify (``correct``), and print exactly the metrics BENCHMARK.json
lists for the mode.  In-process workloads must have no failed op; on
``cli_verify`` the only failed ops may be the known defects.  Last, the
benchmark is run in a directory holding only BENCHMARK.json and ``bench/``
and must exit nonzero without a result line.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny")
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-1000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: not verified: {detail['failures']}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ expected[trace])}")
            if result["failed"] != detail["known_defect_ops"] * (workload == "cli_verify"):
                problems.append(f"{label}: {result['failed']} failed ops, {detail['known_defect_ops']} known defects")
            print(f"{label}: ok, {result['attempted']} ops, {result['failed']} failed", flush=True)

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "law_checks", "--seed", str(SEED), "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without program sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print(f"without program sources: exit {proc.returncode}, no result: ok")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
