"""extension_query: read-only queries against prebuilt partial functionals.

Set-up builds partial functionals with m base lines, m spread from 0 to
128, from a positive linear ``w`` on the HS4 cone and on
``orthant(3, unit=[1, 2, 1])``; that construction is counted in set-up.
Each op takes the next partial functional in turn and resolves a batch of
64 random targets one by one, with ``extension_interval`` or by evaluating a
``canonical_extension`` (lower or midpoint).  Every partial
functional answers about 1,800 queries in a 20 s run, so this is where batching or
precomputing the interval map shows.
"""

from __future__ import annotations

import numpy as np

from orderunit import canonical_extension, extension_interval, halfspace_space, orthant, partial_functional

from common import HS4_ROWS, Op, Plan, call, load_oracles, positive_weights, seed_for, space_kernel_timings

M_VALUES = (0, 1, 2, 4, 8, 16, 32, 64, 128)
M_VALUES_TINY = (0, 2, 8)
TARGETS_PER_OP = 64
KINDS = ("interval", "lower", "midpoint")
ORACLE_CHECKED = 6  # seeded queries also checked against the line-search oracle


def spaces():
    return [halfspace_space(HS4_ROWS, [1.0] * 4), orthant(3, unit=[1.0, 2.0, 1.0])]


class Entry:
    def __init__(self, space, m, rng):
        self.space = space
        self.w = positive_weights(space, rng)
        self.points = rng.uniform(-3.0, 3.0, size=(m, space.dim))
        self.pf = partial_functional(space, self.points, self.points @ self.w, float(self.w @ space.unit))
        self.m = self.pf.subspace.m
        self.f = {mode: canonical_extension(self.pf, mode=mode) for mode in ("lower", "midpoint")}

    def reference_intervals(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(p_minus, p_plus)`` of every target, vectorized over targets and lines.

        Per line ``i`` (the axis line first, valued 0) the ray thresholds of
        ``y - x_i`` are the least and greatest cone-row ratio; the endpoints
        are the max of ``g_i + c * lo`` and the min of ``g_i + c * hi``.
        """
        cone = self.space.cone.rows
        xs = np.vstack([np.zeros(self.space.dim), self.pf.subspace.base])
        gs = np.concatenate([[0.0], self.pf.values])
        ratios = (ys[:, None, :] - xs[None, :, :]) @ cone.T / self.space.unit_pairings
        c = self.pf.unit_value
        return np.max(gs + c * ratios.min(axis=2), axis=1), np.min(gs + c * ratios.max(axis=2), axis=1)


class QueryPlan(Plan):
    round_s = 0.04

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        rng = np.random.default_rng(seed_for(seed, 0xE0))
        ms = M_VALUES_TINY if tiny else M_VALUES
        self.entries = [Entry(space, m, rng) for space in spaces() for m in ms]

    def round(self, r: int) -> list[Op]:
        """One op: a batch of random targets resolved one by one against one partial functional.

        Rounds cycle through the partial functionals, and then through the
        kinds, so every run has the same mix of m.  Batching keeps the op
        count near five hundred in a 20 s run, so the tail percentile falls inside
        the cluster of m = 128 batches instead of on the ten slowest of tens
        of thousands of single queries, which measured host stalls rather
        than the program.
        """
        rng = np.random.default_rng(seed_for(self.seed, 0xE1, r))
        e = self.entries[r % len(self.entries)]
        kind = KINDS[(r // len(self.entries)) % len(KINDS)]
        ys = rng.uniform(-3.0, 3.0, size=(TARGETS_PER_OP, e.space.dim))
        return [self._op(e, kind, ys)]

    @staticmethod
    def _op(e: Entry, kind: str, ys: np.ndarray) -> Op:
        if kind == "interval":
            def run(tr):
                return [call(tr, "extension.extension_interval", extension_interval, e.pf, y) for y in ys]
        else:
            f = e.f[kind]

            def run(tr):
                return [call(tr, "extension.canonical_eval", f, y) for y in ys]

        def check(out):
            """Every query against the vectorized interval; ``w.y`` must lie in it."""
            lo, hi = e.reference_intervals(ys)
            wy = ys @ e.w
            if np.any(lo > hi + 1e-9 * (1.0 + np.abs(hi))):
                return f"empty reference interval (m={e.m})"
            if np.any(wy < lo - 1e-9 * (1.0 + np.abs(wy))) or np.any(wy > hi + 1e-9 * (1.0 + np.abs(wy))):
                return f"w.y outside its interval (m={e.m})"
            if kind == "interval":
                got = np.array([[iv.p_minus, iv.p_plus] for iv in out])
                want = np.column_stack([lo, hi])
            else:
                got = np.asarray(out, dtype=float)
                want = lo if kind == "lower" else 0.5 * (lo + hi)
            err = np.abs(got - want) - 1e-9 * (1.0 + np.abs(want))
            if np.any(~np.isfinite(got)) or np.any(err > 0):
                j = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
                return f"{kind} query {j}: got {got.flat[j]}, reference {want.flat[j]} (m={e.m})"
            return None

        return Op(kind=kind, layer="extension", run=run, check=check, meta=(e, kind, ys))

    def verify_all(self, results):
        """Compare a seeded few queries with the line-search oracle, and require
        the canonical extensions to return the stored value on every base line."""
        reasons = {}
        rng = np.random.default_rng(seed_for(self.seed, 0xE2, len(results)))
        picks = zip(rng.integers(len(results), size=ORACLE_CHECKED), rng.integers(TARGETS_PER_OP, size=ORACLE_CHECKED))
        oracles = load_oracles()
        for i, j in picks:
            res = results[int(i)]
            if res.reason is not None:
                continue
            e, _, ys = res.op.meta
            lo, hi = oracles.interval_by_line_search(e.pf, ys[j])
            ref_lo, ref_hi = (v[0] for v in e.reference_intervals(ys[j:j + 1]))
            if abs(lo - ref_lo) > 1e-7 or abs(hi - ref_hi) > 1e-7:
                reasons[int(i)] = f"oracle interval [{lo}, {hi}] vs [{ref_lo}, {ref_hi}]"
        first_use = {}
        for i, res in enumerate(results):
            first_use.setdefault(id(res.op.meta[0]), i)
        for e in self.entries:
            if id(e) not in first_use:
                continue
            for mode, f in e.f.items():
                for x, g in zip(e.pf.subspace.base, e.pf.values):
                    if abs(f(x) - g) > 1e-9 * (1.0 + abs(g)):
                        reasons.setdefault(first_use[id(e)], f"{mode} extension gives {f(x)} on a base line valued {g}")
                        break
        return reasons

    def layers(self, tr, results):
        evals = {"interval": 0, "canonical": 0}
        for res in results:
            e, kind, ys = res.op.meta
            evals["interval" if kind == "interval" else "canonical"] += (e.m + 1) * len(ys)
        interval_busy = tr.busy("extension.extension_interval")
        ms = query_ms(results)
        out = {
            "extension.extension_interval.busy_s": interval_busy,
            "extension.canonical_eval.busy_s": tr.busy("extension.canonical_eval"),
            "extension.ray_threshold_evals": float(evals["interval"] + evals["canonical"]),
            "extension.extension_interval.us_per_line": 1e6 * interval_busy / max(evals["interval"], 1),
            "extension.queries_per_pf": len(ms) / len(self.entries),
            "extension.m_mean": float(np.mean(ms)),
            "extension.m_max": float(np.max(ms)),
        }
        out.update(kernel_timings(results[:200]))
        return out

    def props(self, results):
        ms = query_ms(results)
        values, counts = np.unique(ms, return_counts=True)
        return {
            "partial_functionals": len(self.entries),
            "targets_per_op": TARGETS_PER_OP,
            "queries_per_pf": len(ms) / len(self.entries),
            "m_histogram_of_queries": {str(int(v)): int(c) for v, c in zip(values, counts)},
            "m_of_pfs": [e.m for e in self.entries],
        }


def query_ms(results) -> list[int]:
    """The m of the partial functional behind every single query."""
    return [res.op.meta[0].m for res in results for _ in res.op.meta[2]]


def kernel_timings(results) -> dict:
    """Direct calls of the space kernels on the workload's own lines and targets."""
    line_pairs, targets = [], []
    for res in results:
        e, _, ys = res.op.meta
        base = e.pf.subspace.base
        for y in ys:
            targets.append((e.space, y))
            x = base[len(targets) % len(base)] if len(base) else np.zeros(e.space.dim)
            line_pairs.append((e.space, x, y))
    return space_kernel_timings(targets, line_pairs)


def setup(seed: int, tiny: bool) -> QueryPlan:
    return QueryPlan(seed, tiny)
