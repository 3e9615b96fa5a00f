"""cli_verify: a fixed desk session of ``python -m orderunit`` subprocesses.

One round is one session: ``gallery``; ``check`` on a passing Choquet
functional, on ``sqrt_gap`` (fails with its witness), on a normed positive
linear functional over the HS4 cone and on the clamp operator, all at the
CLI default ``--samples``; ``norm``; ``extend`` (midpoint); ``openness`` off
the band; ``compact``; and three bad inputs.  One child runs at a time.
Its cost is interpreter start, import, ``validate_space`` (SciPy) and the
checkers; the extension layer does almost no work here.

Two of the bad inputs are known defects (ROADMAP item 5): a space whose unit
lies on the cone boundary makes ``norm`` print ``Infinity`` with exit 0, and
``--point nan,1`` makes it print ``NaN`` with exit 0.  They are verified
against the item 5 contract (exit 1 or 2, strict JSON, no traceback), so
they fail at the baseline and count in ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from orderunit import (
    capacity_to_json,
    check_normed,
    check_order_preserving,
    check_order_preserving_op,
    check_positive,
    check_weak_additivity,
    check_weakly_additive_op,
    functional_from_json,
    halfspace_space,
    operator_from_json,
    partial_functional,
    sampling,
    space_from_json,
    validate_space,
)

from common import HS4_ROWS, SRC, WORK_DIR, Op, Plan, call, load_oracles, positive_weights, seed_for

CLI_SAMPLES = 2**14  # the CLI's default --samples, which the session does not override
CHILD_TIMEOUT_S = 120
SQRT_GAP_WITNESS = ([0.25, 0.5], [0.5, 0.5])
DEFECT_BOUNDARY = "ROADMAP item 5: norm on a boundary-unit space prints Infinity with exit 0"
DEFECT_NAN = "ROADMAP item 5: norm --point nan,1 prints NaN with exit 0"
HELPER_REPEATS = 5

IMPORT_PROBE = "import time; t = time.perf_counter(); import orderunit.cli; print(time.perf_counter() - t)"
VALIDATE_PROBE = (
    "import time; from orderunit import halfspace_space, validate_space; "
    f"s = halfspace_space({HS4_ROWS!r}, [1.0] * 4); "
    "t0 = time.perf_counter(); validate_space(s); t1 = time.perf_counter(); validate_space(s); "
    "print(t1 - t0, time.perf_counter() - t1)"
)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def strict_json(text: str):
    """Parse JSON that may not contain NaN or Infinity."""

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def fmt_point(p) -> str:
    return ",".join(repr(float(v)) for v in p)


class CliPlan(Plan):
    round_s = 10.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.oracles = load_oracles()
        rng = np.random.default_rng(seed_for(seed, 0xC1))
        self.work = WORK_DIR / f"cli_verify-{os.getpid()}-{time.monotonic_ns()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.samples = ["--samples", "256"] if tiny else []

        hs4 = halfspace_space(HS4_ROWS, [1.0] * 4)
        w = positive_weights(hs4, rng)
        self.w = w / (w @ hs4.unit)
        self.hs4 = hs4
        self.norm_points = rng.normal(scale=3.0, size=(8, 4))
        base = rng.uniform(-3.0, 3.0, size=(4, 4))
        self.pf_data = (base, base @ self.w, float(self.w @ hs4.unit))
        self.target = rng.uniform(-3.0, 3.0, size=4)
        caps = self.oracles.convergent_monotone_capacities(rng, n_terms=100, n=3)
        files = {
            "orth2.json": {"dim": 2, "cone": "orthant", "unit": [1.0, 1.0]},
            "hs4.json": {"dim": 4, "cone": {"halfspaces": HS4_ROWS}, "unit": [1.0] * 4},
            "boundary.json": {"dim": 2, "cone": "orthant", "unit": [1.0, 0.0]},
            "choquet.json": {
                "kind": "choquet",
                "capacity": capacity_to_json(self.oracles.random_monotone_capacity(2, rng)),
            },
            "gap.json": {"kind": "sqrt_gap"},
            "linear_hs4.json": {"kind": "linear", "weights": self.w.tolist()},
            "clamp.json": {"kind": "clamp"},
            "pf.json": {"base_points": base.tolist(), "values": (base @ self.w).tolist(), "unit_value": self.pf_data[2]},
            "caps.json": {"n": 3, "sequence": [{"values": capacity_to_json(c)["values"]} for c in caps]},
        }
        for name, obj in files.items():
            (self.work / name).write_text(json.dumps(obj))
        (self.work / "broken.json").write_text('{"dim": 2,')
        self.session = self._session()

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def child(self, argv):
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _op(self, kind, category, args, check, known_defect=None) -> Op:
        argv = ["-m", "orderunit", *args]

        def run(tr):
            return call(tr, f"cli.{category}", self.child, argv)

        return Op(kind, "cli", run, check, known_defect=known_defect, meta=(category, args))

    def _session(self) -> list[Op]:
        s = str(self.seed)
        common = ["--seed", s, "--format", "json", *self.samples]
        return [
            self._op("gallery", "gallery", ["gallery", "--seed", s, "--format", "json"], check_gallery),
            self._op("check_choquet", "check", ["check", "--space", "orth2.json", "--functional", "choquet.json", *common], expect_check(0)),
            self._op("check_sqrt_gap", "check", ["check", "--space", "orth2.json", "--functional", "gap.json", *common], expect_sqrt_gap),
            self._op("check_linear_hs4", "check", ["check", "--space", "hs4.json", "--functional", "linear_hs4.json", *common], expect_check(0)),
            self._op("check_clamp", "check", ["check", "--space", "orth2.json", "--operator", "clamp.json", *common], expect_check(0)),
            self._op(
                "norm",
                "light",
                ["norm", "--space", "hs4.json", *[f"--point={fmt_point(p)}" for p in self.norm_points], "--format", "json"],
                self.check_norm,
            ),
            self._op(
                "extend",
                "light",
                ["extend", "--space", "hs4.json", "--partial", "pf.json", f"--target={fmt_point(self.target)}", "--rule", "midpoint", "--format", "json"],
                self.check_extend,
            ),
            self._op(
                "openness_off_band",
                "light",
                ["openness", "--space", "orth2.json", "--operator", "clamp.json", "--at", "2,4", "--epsilon", "1", "--delta", "0.1", "--seed", s, "--format", "json"],
                check_openness,
            ),
            self._op("compact", "light", ["compact", "--capacities", "caps.json", "--seed", s, "--format", "json"], check_compact),
            self._op("malformed_descriptor", "error", ["check", "--space", "broken.json", "--functional", "choquet.json", "--format", "json"], expect_rejected),
            self._op("boundary_unit_norm", "error", ["norm", "--space", "boundary.json", "--point", "1,2", "--format", "json"], expect_rejected, DEFECT_BOUNDARY),
            self._op("nan_point", "error", ["norm", "--space", "orth2.json", "--point", "nan,1", "--format", "json"], expect_rejected, DEFECT_NAN),
        ]

    def round(self, r: int) -> list[Op]:
        return self.session

    def same(self, a, b) -> bool:
        return a[:2] == b[:2]

    def check_norm(self, out):
        rc, stdout, _ = out
        if rc != 0:
            return f"norm exited {rc}"
        got = np.array([e["norm"] for e in strict_json(stdout)["points"]])
        want = self.oracles.norms_by_bisection(self.hs4, self.norm_points)
        err = float(np.max(np.abs(got - want)))
        return None if err <= 1e-9 else f"norms differ from norms_by_bisection by {err}"

    def check_extend(self, out):
        rc, stdout, _ = out
        if rc != 0:
            return f"extend exited {rc}"
        entry = strict_json(stdout)["targets"][0]
        lo, hi, value = entry["p_minus"], entry["p_plus"], entry["value"]
        wy = float(self.w @ self.target)
        if not lo <= value <= hi or abs(value - 0.5 * (lo + hi)) > 1e-12:
            return f"midpoint {value} is not the middle of [{lo}, {hi}]"
        if not lo - 1e-9 <= wy <= hi + 1e-9:
            return f"w.y = {wy} outside [{lo}, {hi}]"
        pf = partial_functional(self.hs4, *self.pf_data)
        o_lo, o_hi = self.oracles.interval_by_line_search(pf, self.target)
        if abs(o_lo - lo) > 1e-7 or abs(o_hi - hi) > 1e-7:
            return f"interval [{lo}, {hi}] differs from the line-search oracle [{o_lo}, {o_hi}]"
        return None

    def verify_all(self, results):
        galleries = [(i, r.output[1]) for i, r in enumerate(results) if r.op.kind == "gallery" and r.output]
        return {i: "gallery bytes differ between calls" for i, out in galleries if out != galleries[0][1]}

    def props(self, results):
        galleries = {hashlib.sha256(r.output[1].encode()).hexdigest() for r in results if r.op.kind == "gallery" and r.output}
        return {
            "session_ops": len(self.session),
            "sessions": len(results) // len(self.session),
            "gallery_sha256": sorted(galleries),
            "check_samples": CLI_SAMPLES if not self.samples else int(self.samples[1]),
            "known_defect_share": sum(1 for op in self.session if op.known_defect) / len(self.session),
        }

    def layers(self, tr, results):
        tr.op_id = -1  # the spans below belong to no op of the session
        out = {}
        for category in ("gallery", "check", "light", "error"):
            durations = tr.durations(f"cli.{category}")
            out[f"cli.{category}_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
        starts, imports, cold, warm = [], [], [], []
        for _ in range(HELPER_REPEATS):
            t0 = time.perf_counter()
            self.child(["-c", "pass"])
            starts.append(time.perf_counter() - t0)
            imports += self.probe(tr, IMPORT_PROBE)
        for _ in range(3):
            times = self.probe(tr, VALIDATE_PROBE)
            cold += times[:1]
            warm += times[1:]
        out["cli.interp_start_ms"] = 1e3 * statistics.median(starts)
        out["cli.import_ms"] = 1e3 * median_or_zero(imports)
        out["spaces.validate_space.cold_ms"] = 1e3 * median_or_zero(cold)
        out["spaces.validate_space.warm_ms"] = 1e3 * median_or_zero(warm)
        out.update(self._replay_checks(tr, results))
        return out

    def probe(self, tr, code: str) -> list[float]:
        """Seconds printed by a helper child; a failing child is charged to ``cli``."""
        rc, stdout, _ = self.child(["-c", code])
        try:
            if rc == 0:
                return [float(t) for t in stdout.split()]
        except ValueError:
            pass
        tr.add("cli.failed")
        return []

    def _replay_checks(self, tr, results) -> dict:
        """Redo each ``check`` command's work in-process with pre-drawn samples,
        so sampling and checking are timed apart; the reports must match the child's."""
        n = int(self.samples[1]) if self.samples else CLI_SAMPLES
        seed = self.seed
        checks_by_kind = {r.op.kind: r for r in results if r.op.meta[0] == "check" and r.output}
        start = time.perf_counter()
        mismatches = []
        for kind, res in checks_by_kind.items():
            args = res.op.meta[1]
            argv = dict(zip(args[1::2], args[2::2]))
            space = space_from_json(json.loads((self.work / argv["--space"]).read_text()))
            validate_space(space)  # the first call imports SciPy; time the warm one
            reports = [{"name": "space_valid", "passed": tr.call("spaces.validate_space", validate_space, space).ok}]
            if "--functional" in argv:
                f = functional_from_json(space, json.loads((self.work / argv["--functional"]).read_text()))
                shifts = tr.call("sampling.shift_samples", sampling.shift_samples, space, n, sampling.rng_from(seed))
                pairs = tr.call("sampling.comparable_pairs", sampling.comparable_pairs, space, n, sampling.rng_from(seed))
                cone = tr.call("sampling.cone_points", sampling.cone_points, space, min(n, 4096), sampling.rng_from(seed))
                reports += [
                    tr.call("functionals.check_weak_additivity", check_weak_additivity, f, shifts).to_json(),
                    tr.call("functionals.check_order_preserving", check_order_preserving, f, pairs).to_json(),
                    check_normed(f).to_json(),
                    tr.call("functionals.check_positive", check_positive, f, cone).to_json(),
                ]
            else:
                T = operator_from_json(space, json.loads((self.work / argv["--operator"]).read_text()))
                m = min(n, 8192)
                shifts = tr.call("sampling.shift_samples", sampling.shift_samples, space, m, sampling.rng_from(seed))
                pairs = tr.call("sampling.comparable_pairs", sampling.comparable_pairs, space, m, sampling.rng_from(seed))
                reports += [
                    tr.call("operators.check_weakly_additive_op", check_weakly_additive_op, T, shifts).to_json(),
                    tr.call("operators.check_order_preserving_op", check_order_preserving_op, T, pairs).to_json(),
                ]
            child = strict_json(res.output[1])["checks"]
            for mine, theirs in zip(reports, child):
                if any(mine[k] != theirs.get(k) for k in mine):
                    mismatches.append(kind)
        total = time.perf_counter() - start
        if mismatches:
            tr.add("cli.failed", len(mismatches))
        out = {
            f"{name}.busy_s": tr.busy(name)
            for name in (
                "sampling.shift_samples",
                "sampling.comparable_pairs",
                "sampling.cone_points",
                "functionals.check_weak_additivity",
                "functionals.check_order_preserving",
                "functionals.check_positive",
                "operators.check_weakly_additive_op",
                "operators.check_order_preserving_op",
            )
        }
        out["sampling.share"] = tr.busy_prefix("sampling.") / total
        samples = [
            r["samples"]
            for res in checks_by_kind.values()
            if "--functional" in res.op.meta[1]
            for r in strict_json(res.output[1])["checks"]
            if r["name"] != "space_valid"
        ]
        out["functionals.samples_checked"] = float(sum(samples))
        out["functionals.samples_per_call"] = sum(samples) / max(len(samples), 1)
        return out


def check_gallery(out):
    rc, stdout, _ = out
    payload = strict_json(stdout)
    bad = [f["name"] for f in payload["fixtures"] if not f["matched"]]
    if rc != 0 or bad:
        return f"gallery exited {rc}; unmatched fixtures {bad}"
    return None


def expect_check(code: int):
    def check(out):
        rc, stdout, _ = out
        payload = strict_json(stdout)
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        if rc != code or failed:
            return f"check exited {rc} (expected {code}); failed checks {failed}"
        return None

    return check


def expect_sqrt_gap(out):
    rc, stdout, _ = out
    checks = {c["name"]: c for c in strict_json(stdout)["checks"]}
    failed = sorted(name for name, c in checks.items() if not c["passed"])
    if rc != 1 or failed != ["order_preserving"]:
        return f"sqrt_gap check exited {rc} with failed checks {failed}"
    w = checks["order_preserving"]["witness"]
    if (w["x"], w["y"]) != SQRT_GAP_WITNESS:
        return f"sqrt_gap witness {w['x']} vs {w['y']}, expected (1/4,1/2) vs (1/2,1/2)"
    return None


def check_openness(out):
    rc, stdout, _ = out
    verdict = strict_json(stdout)["verdict"]
    if rc != 1 or verdict["passed"] or verdict["witness"] is None:
        return f"openness off the band exited {rc}, passed={verdict['passed']}"
    w0, w1 = verdict["witness"]
    if max(abs(w0 - 2.0), abs(w1 - 3.0)) > 0.1 or abs(w1 - w0 - 1.0) <= 1e-9:
        return f"openness witness {verdict['witness']} is not an off-band image point near (2, 3)"
    return None


def check_compact(out):
    rc, stdout, _ = out
    payload = strict_json(stdout)
    if rc != 0 or not payload["checks"][0]["passed"] or len(payload["indices"]) < 2:
        return f"compact exited {rc}: {payload['checks'][0]}"
    return None


def expect_rejected(out):
    """The item 5 contract for bad input: exit 1 or 2, strict JSON, no traceback."""
    rc, stdout, stderr = out
    if "Traceback" in stderr:
        return "bad input produced a traceback"
    if stdout.strip():
        try:
            strict_json(stdout)
        except ValueError as exc:
            return f"bad input: exit {rc}, output is not strict JSON ({exc})"
    if rc not in (1, 2):
        return f"bad input accepted with exit {rc}"
    return None


def setup(seed: int, tiny: bool) -> CliPlan:
    return CliPlan(seed, tiny)
