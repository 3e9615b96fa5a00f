"""extension_build: writes, where every partial functional is short-lived.

A round builds partial functionals from raw data (with points on the axis
line and duplicate lines that construction must merge), grows them with
``extend_all`` under the lower, midpoint and ``given`` rules, and runs
``check_partial_consistency`` on inconsistent data, on both spaces.  Each partial
functional answers about one query before it is rebuilt, so work moved
into construction costs here: a read-side gain on ``extension_query``
bought by precomputing at construction would show up as a loss here.
"""

from __future__ import annotations

import numpy as np

from orderunit import check_partial_consistency, extend_all, halfspace_space, orthant, partial_functional

from common import HS4_ROWS, Op, Plan, call, load_oracles, positive_weights, seed_for, space_kernel_timings

# (space, distinct lines, axis points, duplicate points) of the raw data
BUILDS = (("hs4", 32, 4, 4), ("orth3", 12, 2, 2))
BUILDS_TINY = (("hs4", 6, 1, 1), ("orth3", 4, 1, 1))
# (space, rule, targets) of the extend_all batches
EXTENDS = (("hs4", "lower", 4), ("orth3", "midpoint", 6), ("hs4", "given", 3))
EXTENDS_TINY = (("hs4", "lower", 2), ("orth3", "midpoint", 2), ("hs4", "given", 2))
INCONSISTENT_M = 24
INCONSISTENT_M_TINY = 6
ORACLE_CHECKED = 3  # extend ops replayed step by step against the line-search oracle


def raw_data(space, w, m, axis, dups, rng):
    """``m`` distinct lines plus axis-line points and shifted copies of listed
    points, shuffled, with the values a linear ``w`` gives them."""
    pts = rng.uniform(-3.0, 3.0, size=(m, space.dim))
    extra = [t * space.unit for t in rng.uniform(-2.0, 2.0, size=axis)]
    extra += [pts[i] + t * space.unit for i, t in zip(rng.integers(m, size=dups), rng.uniform(-2.0, 2.0, size=dups))]
    allpts = np.vstack([pts, *extra]) if extra else pts
    allpts = allpts[rng.permutation(len(allpts))]
    return allpts, allpts @ w, float(w @ space.unit)


class BuildPlan(Plan):
    round_s = 0.4

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.oracles = load_oracles()
        self.spaces = {"hs4": halfspace_space(HS4_ROWS, [1.0] * 4), "orth3": orthant(3, unit=[1.0, 2.0, 1.0])}
        self.builds = BUILDS_TINY if tiny else BUILDS
        self.extends = EXTENDS_TINY if tiny else EXTENDS
        self.inconsistent_m = INCONSISTENT_M_TINY if tiny else INCONSISTENT_M

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng(seed_for(self.seed, 0xB0, r))
        ops, built = [], {}
        for name, m, axis, dups in self.builds:
            space = self.spaces[name]
            w = positive_weights(space, rng)
            data = raw_data(space, w, m, axis, dups, rng)
            op = self._build(name, space, w, m, data)
            ops.append(op)
            built[name] = (op, w)
        for name, rule, k in self.extends:
            build_op, w = built[name]
            space = self.spaces[name]
            ys = rng.uniform(-3.0, 3.0, size=(k, space.dim))
            value = None
            if rule == "given":
                # one value shared by the batch: shift every target along the unit onto w.y = value
                value = float(w @ ys[0])
                ys = ys + np.outer((value - ys @ w) / (w @ space.unit), space.unit)
            ops.append(self._extend(build_op, space, w, rule, ys, value))
        # one consistency check per space: with seven ops a round, the median op is
        # inside a cluster of like ops rather than on the gap between two
        ops += [self._inconsistent(self.spaces[name], rng) for name, *_ in self.builds]
        return ops

    @staticmethod
    def _build(name, space, w, m, data) -> Op:
        box = {}

        def run(tr):
            box["pf"] = call(tr, "extension.partial_functional", partial_functional, space, *data)
            return box["pf"]

        def check(pf):
            box["pf"] = pf  # ops rebuilt for verification read their base from here
            if pf.subspace.m != m or not pf.consistent:
                return f"{name}: built {pf.subspace.m} lines (expected {m}), consistent={pf.consistent}"
            err = float(np.max(np.abs(pf.values - pf.subspace.base @ w))) if m else 0.0
            return None if err <= 1e-9 else f"{name}: stored line values differ from w by {err}"

        return Op("partial_functional", "extension", run, check, meta=("build", box, space))

    def _extend(self, build_op, space, w, rule, ys, value) -> Op:
        box = build_op.meta[1]

        def run(tr):
            return call(tr, "extension.extend_all", extend_all, box["pf"], ys, rule=rule, value=value)

        def check(pf):
            old = box["pf"]
            if not pf.consistent:
                return f"extend_all ({rule}) produced an inconsistent partial functional"
            if pf.subspace.m != old.subspace.m + len(ys):
                return f"extend_all ({rule}) added {pf.subspace.m - old.subspace.m} lines for {len(ys)} targets"
            # re-canonicalizing a canonical point may move its value by rounding only
            if np.max(np.abs(pf.values[: old.subspace.m] - old.values), initial=0.0) > 1e-12:
                return f"extend_all ({rule}) changed the values on the original lines"
            if rule == "given" and np.max(np.abs(pf.values[old.subspace.m:] - (pf.subspace.base[old.subspace.m:] @ w))) > 1e-9:
                return "extend_all (given) stored values other than the given one"
            if not check_partial_consistency(pf).passed:
                return f"extend_all ({rule}) result fails check_partial_consistency"
            return None

        return Op(f"extend_all_{rule}", "extension", run, check, meta=("extend", box, space, rule, ys, value))

    def _inconsistent(self, space, rng) -> Op:
        w = positive_weights(space, rng)
        pts = rng.uniform(-3.0, 3.0, size=(self.inconsistent_m, space.dim))
        vals = pts @ w
        bad = int(rng.integers(self.inconsistent_m))
        # lift one line above its neighbours by more than any threshold allows
        vals[bad] += 10.0 * (1.0 + float(np.max(np.abs(vals))))
        c = float(w @ space.unit)

        def run(tr):
            pf = call(tr, "extension.partial_functional", partial_functional, space, pts, vals, c, strict=False)
            return call(tr, "extension.check_partial_consistency", check_partial_consistency, pf), pf

        def check(out):
            report, pf = out
            if report.passed or pf.consistent or report.witness is None:
                return "inconsistent data passed the consistency check"
            wit = report.witness
            xs = np.vstack([np.zeros(space.dim), pf.subspace.base])
            d = xs[wit["line_i"]] - xs[wit["line_j"]]
            t_ij = float(np.max((space.cone.rows @ d) / space.unit_pairings))
            if not wit["g_j"] + t_ij * c < wit["g_i"] - 1e-9:
                return f"consistency witness {wit} does not violate its inequality"
            return None

        return Op("check_partial_consistency", "extension", run, check, meta=("inconsistent", pts))

    def same(self, a, b) -> bool:
        if isinstance(a, tuple):
            return a[0] == b[0]
        return np.array_equal(a.values, b.values) and np.array_equal(a.subspace.base, b.subspace.base)

    def verify_all(self, results):
        """Replay a seeded few extend ops step by step against the line-search oracle."""
        rng = np.random.default_rng(seed_for(self.seed, 0xB1, len(results)))
        extends = [i for i, r in enumerate(results) if r.op.meta[0] == "extend" and r.reason is None]
        reasons = {}
        for i in rng.permutation(extends)[:ORACLE_CHECKED]:
            res = results[int(i)]
            _, box, space, rule, ys, value = res.op.meta
            pf = res.output
            old = box["pf"]
            m0 = old.subspace.m
            for step in range(len(ys)):
                prefix = partial_functional(space, pf.subspace.base[: m0 + step], pf.values[: m0 + step], pf.unit_value)
                lo, hi = self.oracles.interval_by_line_search(prefix, ys[step])
                got = pf.values[m0 + step] + (ys[step] - pf.subspace.base[m0 + step]) @ space.unit / (space.unit @ space.unit) * pf.unit_value
                want = {"lower": lo, "midpoint": 0.5 * (lo + hi), "given": value}[rule]
                if abs(got - want) > 1e-7:
                    reasons[int(i)] = f"extend_all ({rule}) step {step}: value {got}, oracle gives {want}"
                    break
        return reasons

    def layers(self, tr, results):
        pfs = sum(1 for r in results if r.op.meta[0] in ("build", "inconsistent"))
        queries = 0
        pairs = 0
        for r in results:
            kind = r.op.meta[0]
            if kind == "extend" and r.output is not None:
                m0 = r.op.meta[1]["pf"].subspace.m
                k = len(r.op.meta[4])
                queries += k
                pfs += k  # extend_one rebuilds the partial functional once per target
                pairs += sum((m + 1) * m for m in range(m0 + 1, m0 + k + 1))
            elif kind == "build" and r.output is not None:
                m = r.output.subspace.m
                pairs += (m + 1) * m
            elif kind == "inconsistent" and r.output is not None:
                m = r.output[1].subspace.m
                pairs += 2 * (m + 1) * m  # at construction and again in the check
        ms = [r.output.subspace.m for r in results if r.op.meta[0] in ("build", "extend") and r.output is not None]
        out = {
            "extension.partial_functional.busy_s": tr.busy("extension.partial_functional"),
            "extension.extend_all.busy_s": tr.busy("extension.extend_all"),
            "extension.check_partial_consistency.busy_s": tr.busy("extension.check_partial_consistency"),
            "extension.consistency_pairs": float(pairs),
            "extension.queries_per_pf": queries / max(pfs, 1),
            "extension.m_mean": float(np.mean(ms)),
            "extension.m_max": float(np.max(ms)),
        }
        out.update(self._kernels(results))
        return out

    def _kernels(self, results) -> dict:
        """Space kernels on the workload's own base lines, by direct calls."""
        line_pairs, points = [], []
        for r in results:
            if r.op.meta[0] == "build" and r.output is not None:
                base = r.output.subspace.base
                space = r.op.meta[2]
                points += [(space, x) for x in base]
                line_pairs += [(space, x, y) for x, y in zip(base, base[::-1])]
            if len(points) >= 2000:
                break
        return space_kernel_timings(points, line_pairs)

    def props(self, results):
        pfs, queries = 0, 0
        for r in results:
            kind = r.op.meta[0]
            if kind in ("build", "inconsistent"):
                pfs += 1
            elif kind == "extend":
                queries += len(r.op.meta[4])
                pfs += len(r.op.meta[4])
        ms = [r.output.subspace.m for r in results if r.op.meta[0] in ("build", "extend") and r.output is not None]
        values, counts = np.unique(ms, return_counts=True)
        return {
            "partial_functionals_built": pfs,
            "queries_per_pf": queries / max(pfs, 1),
            "m_histogram_of_results": {str(int(v)): int(c) for v, c in zip(values, counts)},
            "builds": [list(b) for b in self.builds],
            "extends": [list(e) for e in self.extends],
            "inconsistent_m": self.inconsistent_m,
        }


def setup(seed: int, tiny: bool) -> BuildPlan:
    return BuildPlan(seed, tiny)
