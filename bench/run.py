"""orderunit benchmark: one seeded workload per call, one JSON result line.

    python3 bench/run.py --workload law_checks --seed 3 --seconds 10 --trace 0

Workloads: cli_verify, law_checks, extension_query, extension_build (see
bench/README.md for why each exists).  The load generator is this one
process with one thread and one client in a closed loop: the next op starts
when the previous one has returned.  Ops run in rounds whose content
depends only on ``--seed`` and the round number.  A run measures a fixed
number of rounds, ``--seconds`` divided by the workload's nominal round
time, so every run of a workload does the same amount of work and its
percentiles sit at the same ranks; a faster program finishes sooner.

Every time is reported at reference host pace: a fixed probe kernel runs
between ops (about 5 % of op time, never inside a timed span), and each
span is scaled by how much slower than reference the probes near it ran
(``common.Pace``).  The run pins itself, and so its children, to one
core, where the probes run too.  The unscaled figures are in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half as
many rounds untraced, replays them with spans around every
call into the library, and prints the per-layer metrics, including the
traced-to-untraced op-time ratio.  Every op's output is verified after
the timed region.  The last line of standard output is the result object;
the full record (environment, tail percentile, workload properties, failure
reasons) goes to ``.bench_out/`` in the checkout, and the spans of a traced
run next to it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ORACLES, OUT_DIR, SRC, Pace, Result, Tracer, hd_quantile, run_env, tail_percentile  # noqa: E402

WORKLOADS = ("cli_verify", "law_checks", "extension_query", "extension_build")
SETUP_REPEATS = 3
IMPORT_REPEATS = 7  # a fresh interpreter's import time is noisier than set-up, and cheaper
PACE_SHARE = 0.05  # probe time between ops, as a share of the previous op's time
SETUP_PACE_S = 0.03  # probe time around each set-up repetition

# Every per-layer metric the traced run reports; a workload that does not
# exercise a layer reports 0 for it.
PER_LAYER = {
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.gallery_ms": "ms",
    "cli.check_ms": "ms",
    "cli.light_ms": "ms",
    "cli.error_ms": "ms",
    "spaces.validate_space.cold_ms": "ms",
    "spaces.validate_space.warm_ms": "ms",
    "spaces.order_norm.us_per_call": "us",
    "spaces.cone_contains.us_per_call": "us",
    "spaces.ray_thresholds.us_per_call": "us",
    "sampling.shift_samples.busy_s": "s",
    "sampling.comparable_pairs.busy_s": "s",
    "sampling.cone_points.busy_s": "s",
    "sampling.pairs_within.busy_s": "s",
    "sampling.ball_points.busy_s": "s",
    "sampling.box_points.busy_s": "s",
    "sampling.share": "ratio",
    "functionals.check_weak_additivity.busy_s": "s",
    "functionals.check_order_preserving.busy_s": "s",
    "functionals.check_positive.busy_s": "s",
    "functionals.lipschitz_defect.busy_s": "s",
    "functionals.samples_checked": "count",
    "functionals.samples_per_call": "count",
    "functionals.evaluate.us_per_point.linear": "us",
    "functionals.evaluate.us_per_point.choquet": "us",
    "functionals.evaluate.us_per_point.maxplus": "us",
    "functionals.evaluate.us_per_point.sqrt_gap": "us",
    "operators.check_weakly_additive_op.busy_s": "s",
    "operators.check_order_preserving_op.busy_s": "s",
    "operators.certify_equicontinuity.busy_s": "s",
    "operators.graph_check.busy_s": "s",
    "operators.openness_check.busy_s": "s",
    "operators.openness_check.evals_used": "count",
    "operators.openness_check.budget_used_ratio": "ratio",
    "dual.subsequence_limit.busy_s": "s",
    "dual.check_state.busy_s": "s",
    "dual.weak_metric.busy_s": "s",
    "extension.extension_interval.busy_s": "s",
    "extension.extension_interval.us_per_line": "us",
    "extension.canonical_eval.busy_s": "s",
    "extension.ray_threshold_evals": "count",
    "extension.partial_functional.busy_s": "s",
    "extension.extend_all.busy_s": "s",
    "extension.check_partial_consistency.busy_s": "s",
    "extension.consistency_pairs": "count",
    "extension.queries_per_pf": "ratio",
    "extension.m_mean": "count",
    "extension.m_max": "count",
    "cli.failed": "count",
    "spaces.failed": "count",
    "sampling.failed": "count",
    "functionals.failed": "count",
    "operators.failed": "count",
    "dual.failed": "count",
    "extension.failed": "count",
    "fail_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
LAYERS = ("cli", "spaces", "sampling", "functionals", "operators", "dual", "extension")


def measure(plan, rounds: int, pace: Pace, tr: Tracer | None = None) -> list[Result]:
    """Run ``rounds`` rounds, one op at a time, with pace probes between ops.

    The timed loop keeps only outputs and times; the ops are rebuilt
    from their round number afterwards, so the objects a run retains (and
    the garbage collector has to scan) grow by about one per op.
    """
    records = []
    last = 0.0
    for r in range(rounds):
        for op in plan.round(r):
            pace.sample(PACE_SHARE * last)
            if tr is not None:
                tr.op_id = len(records)
            t0 = time.perf_counter()
            try:
                output, error = op.run(tr), None
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                output, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            records.append((output, t0, t1, error))
            last = t1 - t0
    pace.sample()
    ops = [op for r in range(rounds) for op in plan.round(r)]
    return [
        Result(op=op, output=out, latency_s=(t1 - t0) * pace.scale(t0, t1), raw_s=t1 - t0, error=err)
        for op, (out, t0, t1, err) in zip(ops, records)
    ]


def verify(plan, results: list[Result]) -> None:
    """Set ``reason`` on every result whose output does not verify."""
    for res in results:
        if res.error is not None:
            res.reason = res.error
            continue
        try:
            res.reason = res.op.check(res.output)
        except Exception as exc:  # a checker that cannot parse the output is a failed verification
            res.reason = f"verification raised {type(exc).__name__}: {exc}"
    for idx, reason in plan.verify_all(results).items():
        if results[idx].reason is None:
            results[idx].reason = reason


def compare_replay(plan, first: list[Result], second: list[Result]) -> None:
    """The traced replay must reproduce the untraced outputs op by op."""
    for a, b in zip(first, second):
        if b.reason is None and a.error is None and not plan.same(a.output, b.output):
            b.reason = "traced output differs from the untraced output"


def summarize_failures(results: list[Result]) -> tuple[int, int, list[dict]]:
    failed = [r for r in results if r.reason is not None]
    unexpected = [r for r in failed if r.op.known_defect is None]
    sample = [
        {"kind": r.op.kind, "reason": r.reason[:300], "known_defect": r.op.known_defect}
        for r in (unexpected + [r for r in failed if r.op.known_defect])[:12]
    ]
    return len(failed), len(unexpected), sample


def layer_failures(results: list[Result], tr: Tracer) -> dict:
    out = {f"{layer}.failed": 0.0 for layer in LAYERS}
    for r in results:
        # an op that raised was charged to its innermost span by the tracer
        if r.reason is not None and r.error is None:
            out[f"{r.op.layer}.failed"] += 1
    for name, value in tr.counts.items():
        if name.endswith(".failed") and name in out:
            out[name] += value
    return out


def child_import_s(pace: Pace) -> tuple[float, float]:
    """Import time of numpy and the library in a fresh interpreter, as the child measures it,
    unscaled and at reference pace.

    An import happens once per process, so set-up time takes its import part
    from children, which can repeat it.
    """
    code = "import time; t = time.perf_counter(); import numpy, orderunit; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    pace.sample(SETUP_PACE_S)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=SRC.parent, capture_output=True, text=True, timeout=120, check=True)
    t1 = time.perf_counter()
    pace.sample(SETUP_PACE_S)
    raw = float(proc.stdout)
    return raw, raw * pace.scale(t0, t1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes: one small round")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    missing = [p for p in (SRC / "orderunit" / "__init__.py", ORACLES) if not p.is_file()]
    if missing:
        print(f"error: program sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if hasattr(os, "sched_setaffinity"):
        # probes, ops and child processes share one core, so the probes see the pace the ops see
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pace = Pace()
    repeats = 1 if args.tiny else SETUP_REPEATS
    imports = [child_import_s(pace) for _ in range(1 if args.tiny else IMPORT_REPEATS)]
    workload = importlib.import_module(args.workload)

    setups = []
    plan = None
    for _ in range(repeats):
        if plan is not None:
            plan.close()
        pace.sample(SETUP_PACE_S)
        t0 = time.perf_counter()
        plan = workload.setup(args.seed, args.tiny)
        t1 = time.perf_counter()
        pace.sample(SETUP_PACE_S)
        setups.append((t1 - t0, (t1 - t0) * pace.scale(t0, t1)))
    setup = {
        "setup_s": statistics.median(s for _, s in imports) + statistics.median(s for _, s in setups),
        "setup_s_raw": statistics.median(r for r, _ in imports) + statistics.median(r for r, _ in setups),
        "import_s_raw": [r for r, _ in imports],
        "setup_repeats_s_raw": [r for r, _ in setups],
    }

    try:
        record = run_plan(plan, args, pace, setup)
    finally:
        plan.close()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["env"] = run_env()
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"detail": {k: v for k, v in record.items() if k != "result"}}, sort_keys=True))
    print(json.dumps(record["result"], sort_keys=True))
    return 0


def tail(latencies: list[float]) -> float:
    """The order statistic at ``tail_percentile``: the 11th-largest, or the largest of ten or fewer."""
    ranked = sorted(latencies)
    return ranked[-11 if len(ranked) > 10 else -1]


def run_plan(plan, args, pace: Pace, setup: dict) -> dict:
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        **setup,
    }
    rounds = 1 if args.tiny else max(1, round(args.seconds / plan.round_s))
    if args.trace == 0:
        results = measure(plan, rounds, pace)
        verify(plan, results)
        all_results = results
    else:
        rounds = max(1, round(rounds / 2))
        results = measure(plan, rounds, pace)
        tr = Tracer()
        traced_from = time.perf_counter()
        replay = measure(plan, rounds, pace, tr)
        verify(plan, results)
        verify(plan, replay)
        compare_replay(plan, results, replay)
        all_results = results + replay

    failed, unexpected, failure_sample = summarize_failures(all_results)
    lat = [r.latency_s for r in results]
    raw = [r.raw_s for r in results]
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r.latency_s)
    tail_pct = tail_percentile(len(lat))
    detail.update(
        rounds=rounds,
        ops=len(results),
        busy_s=sum(lat),
        busy_s_raw=sum(raw),
        pace_probes=len(pace.took),
        pace_probe_ms_median=1e3 * statistics.median(pace.took),
        op_tail_percentile=tail_pct,
        op_tail_samples=len(lat),
        op_p50_ms_plain=1e3 * statistics.median(lat),
        op_tail_ms_order_statistic=1e3 * tail(lat),
        op_p50_ms_raw=1e3 * statistics.median(raw),
        op_tail_ms_raw=1e3 * tail(raw),
        op_p50_ms_by_kind={k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())},
        op_ms=[1e3 * v for v in lat],
        failures=failure_sample,
        failed=failed,
        unexpected_failures=unexpected,
        known_defect_ops=sum(1 for r in all_results if r.op.known_defect),
        props=plan.props(results),
    )

    if args.trace == 0:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "ops_per_s": (len(results) / sum(lat), "1/s"),
            "op_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms"),
            "op_tail_ms": (1e3 * hd_quantile(lat, tail_pct / 100.0), "ms"),
            "peak_rss_mib": (plan.peak_rss_mib(), "MiB"),
            "verified_ratio": (1.0 - failed / len(all_results), "ratio"),
        }
    else:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(plan.layers(tr, replay))
        pace.sample()
        # layer times at reference pace, like the end-to-end ones
        scale = pace.scale(traced_from, time.perf_counter())
        values = {name: v * scale if PER_LAYER[name] in ("s", "ms", "us") else v for name, v in values.items()}
        values.update(layer_failures(replay, tr))
        values["fail_ratio"] = failed / len(all_results)
        values["trace.overhead_ratio"] = sum(r.latency_s for r in replay) / sum(lat)
        detail["layer_pace_scale"] = scale
        metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tr.to_json()))
        detail["spans_file"] = str(spans_path.relative_to(OUT_DIR.parent))
        detail["span_count"] = len(tr.spans)

    result = {
        "correct": unexpected == 0,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, **detail}


if __name__ == "__main__":
    sys.exit(main())
