"""law_checks: in-process calls to every law checker at its library default ``n``.

Subjects are linear, Choquet, max-plus and ``sqrt_gap`` functionals and
clamp, stack and positive-matrix operators over ``orthant(2..4)``, HS2 and
HS4, all drawn from the seed.  A round calls every checker on each of its
subjects with fresh checker seeds, so all rounds cost about the same and the
mix of a run does not depend on how many rounds fit.  The untraced path calls
each checker exactly as a library user would; the traced path draws the
same samples with ``sampling.*`` first and passes them in, so sampling and
checking are timed apart with identical results.  Never touches
``extension`` or SciPy.
"""

from __future__ import annotations

import inspect
import itertools

import numpy as np

from orderunit import (
    OperatorFamily,
    certify_equicontinuity,
    check_order_preserving,
    check_order_preserving_op,
    check_positive,
    check_state,
    check_weak_additivity,
    check_weakly_additive_op,
    choquet_functional,
    clamp_operator,
    equicontinuity_modulus,
    evaluate,
    graph_check,
    halfspace_space,
    linear_functional,
    linear_positive,
    lipschitz_defect,
    maxplus_functional,
    openness_check,
    order_norm,
    orthant,
    sampling,
    sqrt_gap_functional,
    stack_operator,
    subsequence_limit,
    weak_metric,
)

from common import HS4_ROWS, Op, Plan, call, load_oracles, positive_weights, seed_for, space_kernel_timings, time_calls

HS2_ROWS = [[1.0, 0.0], [1.0, 1.0]]
EPS = 0.5  # equicontinuity target
FAMILY_SIZE = 8
SQRT_GAP_WITNESS = ([0.25, 0.5], [0.5, 0.5])
TINY_N = 256
STATE_SUBJECTS = ("choquet/orth3", "sqrt_gap/orth2")


def default_n(fn) -> int:
    return inspect.signature(fn).parameters["n"].default


class Subject:
    """A functional with the verdicts its laws must get."""

    def __init__(self, label, f, lawful=True):
        self.label, self.f, self.lawful = label, f, lawful


def make_subjects(rng, oracles):
    spaces = {
        "orth2": orthant(2),
        "orth3": orthant(3),
        "orth4": orthant(4),
        "hs2": halfspace_space(HS2_ROWS, [1.0, 1.0]),
        "hs4": halfspace_space(HS4_ROWS, [1.0] * 4),
    }
    fs = []
    w = rng.uniform(0.1, 1.0, size=2)
    fs.append(Subject("linear/orth2", linear_functional(spaces["orth2"], w / w.sum())))
    cap = oracles.random_monotone_capacity(3, rng)
    fs.append(Subject("choquet/orth3", choquet_functional(spaces["orth3"], cap)))
    v = rng.uniform(-1.0, 0.0, size=4)
    fs.append(Subject("maxplus/orth4", maxplus_functional(spaces["orth4"], v - v.max())))
    for name in ("hs2", "hs4"):
        space = spaces[name]
        w = positive_weights(space, rng)
        fs.append(Subject(f"linear/{name}", linear_functional(space, w / (w @ space.unit))))
    fs.append(Subject("sqrt_gap/orth2", sqrt_gap_functional(spaces["orth2"]), lawful=False))

    o2, o3, o4 = spaces["orth2"], spaces["orth3"], spaces["orth4"]

    def stack(k):
        return stack_operator(
            o3, [choquet_functional(o3, oracles.random_monotone_capacity(3, rng)) for _ in range(k)]
        )

    ops = [
        ("clamp/orth2", clamp_operator(o2)),
        ("stack/orth3", stack(2)),
        ("matrix/orth4", linear_positive(o4, o4, rng.uniform(0.0, 1.0, size=(4, 4)))),
    ]
    family = OperatorFamily(tuple(stack(2) for _ in range(FAMILY_SIZE)))
    caps = oracles.convergent_monotone_capacities(rng, n_terms=100, n=3)
    return spaces, fs, ops, family, caps


class LawPlan(Plan):
    round_s = 10.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.oracles = load_oracles()
        rng = np.random.default_rng(seed_for(seed, 0x1A))
        self.spaces, self.fs, self.ops, self.family, self.caps = make_subjects(rng, self.oracles)
        self.n = {
            fn.__name__: (TINY_N if tiny else default_n(fn))
            for fn in (
                check_weak_additivity,
                check_order_preserving,
                check_positive,
                lipschitz_defect,
                check_weakly_additive_op,
                check_order_preserving_op,
                certify_equicontinuity,
                graph_check,
                check_state,
            )
        }
        # the untraced path leaves ``n`` to the library unless sizes are tiny
        self.kw = {"n": TINY_N} if tiny else {}

    def round(self, r: int) -> list[Op]:
        """Every checker on each of its subjects, so every round has the same mix."""
        seeds = (seed_for(self.seed, r, j) % (1 << 31) for j in itertools.count())
        ops = []
        for s in self.fs:
            ops += [
                self._weak_additivity(s, next(seeds)),
                self._order_preserving(s, next(seeds)),
                self._positive(s, next(seeds)),
                self._lipschitz(s, next(seeds)),
            ]
        for T in self.ops:
            ops += [
                self._weakly_additive_op(T, next(seeds)),
                self._order_preserving_op(T, next(seeds)),
                self._graph(T, next(seeds)),
            ]
        ops += [
            self._equicontinuity(next(seeds)),
            self._openness("openness_at_zero", [0.0, 0.0], 0.25, 0.25, True, next(seeds)),
            self._openness("openness_off_band", [2.0, 4.0], 1.0, 0.1, False, next(seeds)),
            *(self._state(s, next(seeds)) for s in self.fs if s.label in STATE_SUBJECTS),
            self._subsequence(next(seeds)),
        ]
        return ops

    def _weak_additivity(self, s: Subject, seed: int) -> Op:
        n = self.n["check_weak_additivity"]

        def run(tr):
            if tr is None:
                return check_weak_additivity(s.f, seed=seed, **self.kw)
            samples = tr.call("sampling.shift_samples", sampling.shift_samples, s.f.space, n, sampling.rng_from(seed))
            return tr.call("functionals.check_weak_additivity", check_weak_additivity, s.f, samples)

        return Op("check_weak_additivity", "functionals", run, expect_report(True, n), meta=s)

    def _order_preserving(self, s: Subject, seed: int) -> Op:
        n = self.n["check_order_preserving"]

        def run(tr):
            if tr is None:
                return check_order_preserving(s.f, seed=seed, **self.kw)
            pairs = tr.call("sampling.comparable_pairs", sampling.comparable_pairs, s.f.space, n, sampling.rng_from(seed))
            return tr.call("functionals.check_order_preserving", check_order_preserving, s.f, pairs)

        check = expect_report(True, n) if s.lawful else expect_sqrt_gap_witness(n)
        return Op("check_order_preserving", "functionals", run, check, meta=s)

    def _positive(self, s: Subject, seed: int) -> Op:
        n = self.n["check_positive"]

        def run(tr):
            if tr is None:
                return check_positive(s.f, seed=seed, **self.kw)
            pts = tr.call("sampling.cone_points", sampling.cone_points, s.f.space, n, sampling.rng_from(seed))
            return tr.call("functionals.check_positive", check_positive, s.f, pts)

        return Op("check_positive", "functionals", run, expect_report(True, n), meta=s)

    def _lipschitz(self, s: Subject, seed: int) -> Op:
        n = self.n["lipschitz_defect"]

        def run(tr):
            if tr is None:
                return lipschitz_defect(s.f, seed=seed, **self.kw)
            rng = sampling.rng_from(seed)
            xs = tr.call("sampling.box_points", sampling.box_points, s.f.space, n, rng)
            ys = tr.call("sampling.box_points", sampling.box_points, s.f.space, n, rng)
            return tr.call("functionals.lipschitz_defect", lipschitz_defect, s.f, list(zip(xs, ys)))

        def check(defect):
            if s.lawful and not defect <= 1e-9:
                return f"Lipschitz defect {defect} of {s.label} exceeds 1e-9"
            if not s.lawful and not defect > 1e-9:
                return f"sqrt_gap is not order-preserving, yet its Lipschitz defect is {defect}"
            return None

        return Op("lipschitz_defect", "functionals", run, check, meta=s)

    def _weakly_additive_op(self, labelled, seed: int) -> Op:
        label, T = labelled
        n = self.n["check_weakly_additive_op"]

        def run(tr):
            if tr is None:
                return check_weakly_additive_op(T, seed=seed, **self.kw)
            samples = tr.call("sampling.shift_samples", sampling.shift_samples, T.domain, n, sampling.rng_from(seed))
            return tr.call("operators.check_weakly_additive_op", check_weakly_additive_op, T, samples)

        return Op("check_weakly_additive_op", "operators", run, expect_report(True, n), meta=label)

    def _order_preserving_op(self, labelled, seed: int) -> Op:
        label, T = labelled
        n = self.n["check_order_preserving_op"]

        def run(tr):
            if tr is None:
                return check_order_preserving_op(T, seed=seed, **self.kw)
            pairs = tr.call("sampling.comparable_pairs", sampling.comparable_pairs, T.domain, n, sampling.rng_from(seed))
            return tr.call("operators.check_order_preserving_op", check_order_preserving_op, T, pairs)

        return Op("check_order_preserving_op", "operators", run, expect_report(True, n), meta=label)

    def _equicontinuity(self, seed: int) -> Op:
        family = self.family
        n = self.n["certify_equicontinuity"]

        def run(tr):
            if tr is None:
                return certify_equicontinuity(family, EPS, seed=seed, **self.kw)
            width = min(equicontinuity_modulus(family).delta(EPS), 1e6)
            pairs = tr.call("sampling.pairs_within", sampling.pairs_within, family.domain, width, n, sampling.rng_from(seed))
            return tr.call("operators.certify_equicontinuity", certify_equicontinuity, family, EPS, pairs)

        return Op("certify_equicontinuity", "operators", run, expect_report(True, n * len(family)), meta="family")

    def _graph(self, labelled, seed: int) -> Op:
        label, T = labelled
        n = self.n["graph_check"]

        def run(tr):
            if tr is None:
                return graph_check(T, seed=seed, **self.kw)
            samples = tr.call("sampling.box_points", sampling.box_points, T.domain, n, sampling.rng_from(seed))
            return tr.call("operators.graph_check", graph_check, T, samples)

        return Op("graph_check", "operators", run, expect_report(True, 5 * n), meta=label)

    def _openness(self, kind, at, epsilon, delta, expect_pass, seed: int) -> Op:
        T = self.ops[0][1]

        def run(tr):
            return call(tr, "operators.openness_check", openness_check, T, at, epsilon, delta, seed=seed)

        def check(v):
            if v.passed != expect_pass:
                return f"{kind}: openness verdict {v.passed}, expected {expect_pass}"
            if not expect_pass:
                w = np.array(v.witness)
                if order_norm(T.codomain, w - np.array([2.0, 3.0])) > 0.1 or abs(w[1] - w[0] - 1.0) <= 1e-9:
                    return f"{kind}: witness {v.witness} is not an off-band image point near (2, 3)"
            return None

        return Op(kind, "operators", run, check, meta="clamp/orth2")

    def _state(self, s: Subject, seed: int) -> Op:
        def run(tr):
            if tr is None:
                return check_state(s.f, seed=seed, **self.kw)
            return tr.call("dual.check_state", check_state, s.f, seed=seed, n=self.n["check_state"])

        def check(report):
            if report.passed != s.lawful:
                return f"check_state({s.label}) passed={report.passed}, expected {s.lawful}"
            if not s.lawful and report.witness.get("failed_check") != "order_preserving":
                return f"check_state(sqrt_gap) failed for the wrong law: {report.witness}"
            return None

        return Op("check_state", "dual", run, check, meta=s)

    def _subsequence(self, seed: int) -> Op:
        caps, space = self.caps, self.spaces["orth3"]

        def run(tr):
            res = call(tr, "dual.subsequence_limit", subsequence_limit, caps, space, seed=seed)
            return tuple(res.indices), res.report

        def check(out):
            indices, report = out
            if not report.passed:
                return f"subsequence_limit failed: {report.witness}"
            limit = caps[indices[-1]].values
            spread = max(float(np.max(np.abs(caps[i].values - limit))) for i in indices)
            return None if spread <= 1e-6 else f"extracted subsequence spreads {spread} > 1e-6"

        return Op("subsequence_limit", "dual", run, check, meta="caps")

    def verify_all(self, results):
        """Closed forms of the subjects against the independent oracles, on seeded points."""
        rng = np.random.default_rng(seed_for(self.seed, 0x1B))
        reasons = {}
        for space in self.spaces.values():
            pts = rng.normal(scale=3.0, size=(64, space.dim))
            closed = np.array([order_norm(space, p) for p in pts])
            if np.max(np.abs(closed - self.oracles.norms_by_bisection(space, pts))) > 1e-9:
                reasons[0] = "order_norm disagrees with norms_by_bisection"
        for s in self.fs:
            if s.f.kind == "choquet":
                for p in rng.normal(scale=2.0, size=(16, s.f.space.dim)):
                    if abs(s.f(p) - self.oracles.choquet_layer_cake(s.f.capacity, p)) > 1e-12:
                        reasons[0] = f"choquet {s.label} disagrees with choquet_layer_cake at {p.tolist()}"
        return reasons

    def layers(self, tr, results):
        out = {}
        for name in (
            "sampling.shift_samples",
            "sampling.comparable_pairs",
            "sampling.cone_points",
            "sampling.pairs_within",
            "sampling.box_points",
            "functionals.check_weak_additivity",
            "functionals.check_order_preserving",
            "functionals.check_positive",
            "functionals.lipschitz_defect",
            "operators.check_weakly_additive_op",
            "operators.check_order_preserving_op",
            "operators.certify_equicontinuity",
            "operators.graph_check",
            "operators.openness_check",
            "dual.subsequence_limit",
            "dual.check_state",
        ):
            out[f"{name}.busy_s"] = tr.busy(name)
        op_wall = sum(r.latency_s for r in results)
        out["sampling.share"] = tr.busy_prefix("sampling.") / op_wall
        samples, calls = 0, 0
        evals, budget = 0, 0
        for r in results:
            if r.op.layer == "functionals" and r.output is not None:
                calls += 1
                samples += r.output.samples if r.op.kind != "lipschitz_defect" else self.n["lipschitz_defect"]
            if r.op.kind.startswith("openness") and r.output is not None:
                evals += r.output.evals_used
                budget += r.output.budget * r.output.targets_tested
        out["functionals.samples_checked"] = float(samples)
        out["functionals.samples_per_call"] = samples / max(calls, 1)
        out["operators.openness_check.evals_used"] = float(evals)
        out["operators.openness_check.budget_used_ratio"] = evals / max(budget, 1)
        out.update(self._direct(tr))
        return out

    def _direct(self, tr) -> dict:
        """Kernel costs on the workload's own spaces and subjects, by direct calls."""
        rng = np.random.default_rng(seed_for(self.seed, 0x1C))
        pts = {name: sampling.box_points(space, 500, rng) for name, space in self.spaces.items()}
        norm_args = [(space, p) for name, space in self.spaces.items() for p in pts[name]]
        pair_args = [(space, p, q) for name, space in self.spaces.items() for p, q in zip(pts[name], pts[name][::-1])]
        out = space_kernel_timings(norm_args, pair_args)
        for kind in ("linear", "choquet", "maxplus", "sqrt_gap"):
            subjects = [s.f for s in self.fs if s.f.kind == kind]
            args = [(f, p) for f in subjects for p in pts[space_key(self.spaces, f.space)][:300]]
            out[f"functionals.evaluate.us_per_point.{kind}"] = time_calls(evaluate, args, repeat=3)
        for space in self.spaces.values():
            tr.call("sampling.ball_points", sampling.ball_points, space, np.zeros(space.dim), 1.0, 256, rng)
        out["sampling.ball_points.busy_s"] = tr.busy("sampling.ball_points")
        limit = choquet_functional(self.spaces["orth3"], self.caps[-1])
        for cap in self.caps[:16]:
            tr.call("dual.weak_metric", weak_metric, choquet_functional(self.spaces["orth3"], cap), limit)
        out["dual.weak_metric.busy_s"] = tr.busy("dual.weak_metric")
        return out

    def props(self, results):
        per_checker = {}
        for r in results:
            out = r.output
            if hasattr(out, "samples"):
                per_checker.setdefault(r.op.kind, set()).add(out.samples)
        return {
            "samples_per_call": {k: sorted(v) for k, v in sorted(per_checker.items())},
            "library_default_n": self.n,
            "functional_subjects": [s.label for s in self.fs],
            "operator_subjects": [label for label, _ in self.ops],
            "family_size": len(self.family),
        }


def space_key(spaces: dict, space) -> str:
    return next(name for name, s in spaces.items() if s is space)


def expect_report(passed: bool, samples: int):
    def check(report):
        if report.passed != passed:
            return f"{report.name}: passed={report.passed}, expected {passed}; witness {report.witness}"
        if report.samples != samples:
            return f"{report.name}: {report.samples} samples, expected {samples}"
        return None

    return check


def expect_sqrt_gap_witness(samples: int):
    def check(report):
        if report.passed or report.samples != samples:
            return f"sqrt_gap order check: passed={report.passed}, samples={report.samples}"
        if (report.witness["x"], report.witness["y"]) != SQRT_GAP_WITNESS:
            return f"sqrt_gap witness {report.witness['x']} vs {report.witness['y']}, expected (1/4,1/2) vs (1/2,1/2)"
        return None

    return check


def setup(seed: int, tiny: bool) -> LawPlan:
    return LawPlan(seed, tiny)
