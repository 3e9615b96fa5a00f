"""Run the benchmark on seeds 1 to 10 and summarize each metric's spread.

    python3 bench/sweep.py --out bench/results/baseline.json

Seeds are interleaved across workloads (seed 1 of every workload, then
seed 2, ...), so a slow or fast phase of the host falls on every workload
instead of on one.  Each run is ``bench/run.py`` with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``, one run at a time; then every workload
gets one ``--trace 1`` run on seed 1.  Per end-to-end metric the output has
the median, the quartiles and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound; under ``record``, the same for the plain
order statistics and the unscaled times of the run records.  Each run's
result line and the environment of the first run are kept as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # plain order statistics next to the Harrell-Davis ones, and unscaled times next to scaled ones
    raw_keys = ("op_p50_ms_plain", "op_tail_ms_order_statistic", "setup_s_raw", "op_p50_ms_raw",
                "op_tail_ms_raw", "busy_s_raw", "pace_probe_ms_median")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    env = None
    for seed in SEEDS:
        for workload in workloads:
            result, detail = run_once(workload, seed, seconds, 0)
            env = env or detail.get("env")
            runs[workload].append({
                "seed": seed,
                "result": result,
                "op_tail_percentile": detail["op_tail_percentile"],
                "op_tail_samples": detail["op_tail_samples"],
                "props": detail["props"],
                "raw": {k: detail[k] for k in raw_keys},
            })
            print(workload, seed, json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}), flush=True)

    summary = {"seconds": seconds, "seeds": list(SEEDS), "env": env, "workloads": {}}
    for workload in workloads:
        entry_runs = runs[workload]
        metrics = {}
        for name in entry_runs[0]["result"]["metrics"]:
            s = spread([r["result"]["metrics"][name]["value"] for r in entry_runs])
            s["bound"] = bounds[name]
            s["within_third_of_bound"] = s["spread"] is not None and s["spread"] < s["bound"] / 3
            metrics[name] = s
        raw = {k: spread([r["raw"][k] for r in entry_runs]) for k in raw_keys}
        traced, detail = run_once(workload, SEEDS[0], seconds, 1)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "record": raw,
            "correct": all(r["result"]["correct"] for r in entry_runs),
            "attempted": [r["result"]["attempted"] for r in entry_runs],
            "failed": [r["result"]["failed"] for r in entry_runs],
            "runs": entry_runs,
            "traced": {"seed": SEEDS[0], "result": traced, "props": detail["props"]},
        }
        print(workload, json.dumps({k: round(v["spread"], 4) if v["spread"] is not None else None
                                    for k, v in metrics.items()}), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
