"""Shared pieces of the benchmark: checkout paths, ops, the tracer, host pace, statistics.

Nothing here imports ``orderunit`` at import time; ``run.py`` checks that the sources are
present before any workload module is loaded.
"""

from __future__ import annotations

import bisect
import importlib.util
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# the 4-d cone the workloads share with the test suite
HS4_ROWS = [
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
    [1.0, 0.0, 0.0, 1.0],
]


def positive_weights(space, rng):
    """A linear functional that is positive on the cone: a positive mix of its rows."""
    mu = rng.uniform(0.1, 1.0, size=space.cone.rows.shape[0])
    return mu @ space.cone.rows


def load_oracles():
    """Import ``tests/oracles.py`` as a module without putting ``tests`` on the path."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Op:
    """One timed operation.

    ``layer`` is the library module the op exercises, which its failures
    are charged to.  ``run(tr)`` does the work and returns its output; ``tr`` is a
    :class:`Tracer` in the traced phase and ``None`` otherwise, and both
    paths must return the same output.  ``check(output)`` runs after the
    timed region and returns ``None`` when the output verifies, else a
    reason.  ``known_defect`` names a documented program defect that makes
    this op fail verification at the baseline commit; the op still counts
    as failed, but not as an unexpected failure.  ``meta`` holds the op's
    inputs for checks that span several ops.
    """

    kind: str
    layer: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    known_defect: str | None = None
    meta: Any = None


@dataclass
class Result:
    """An op's output and latency; ``latency_s`` is scaled to reference pace, ``raw_s`` is not."""

    op: Op
    output: Any
    latency_s: float
    raw_s: float
    error: str | None = None
    reason: str | None = None


class Plan:
    """The inputs of one workload, made by its ``setup(seed, tiny)``.

    ``round_s`` is the nominal duration of one round: about what it took at
    the commit that added the benchmark, on a 2-core x86-64 sandbox.  It
    turns ``--seconds`` into a fixed number of rounds.
    """

    round_s: float = 1.0

    def round(self, r: int) -> list[Op]:
        """The ops of round ``r``; a function of the seed and ``r`` only."""
        raise NotImplementedError

    def verify_all(self, results: list[Result]) -> dict[int, str]:
        """Checks across ops (and oracle subsamples): failure reason by result index."""
        return {}

    def same(self, a, b) -> bool:
        """Do an untraced and a traced output agree?"""
        return a == b

    def layers(self, tr: "Tracer", results: list[Result]) -> dict[str, float]:
        """Per-layer metrics of the traced phase, plus direct kernel timings."""
        return {}

    def props(self, results: list[Result]) -> dict:
        """Input properties that caching or precomputation would depend on."""
        return {}

    def peak_rss_mib(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def call(tr, name, fn, *args, **kwargs):
    """Call ``fn``, inside a span named ``name`` when tracing."""
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, *args, **kwargs)


class Tracer:
    """Spans ``(name, start, end, parent, op)`` kept in memory, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # charge a raise to the innermost span's layer only
            if not getattr(exc, "_bench_charged", False):
                self.add(name.split(".")[0] + ".failed")
                exc._bench_charged = True
            raise
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def busy(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def busy_prefix(self, prefix: str) -> float:
        """Wall time in spans under ``prefix`` that are not nested in another such span."""
        total = 0.0
        for s in self.spans:
            if s[0].startswith(prefix) and not self._has_ancestor(s, prefix):
                total += s[2] - s[1]
        return total

    def _has_ancestor(self, span, prefix: str) -> bool:
        parent = span[3]
        while parent is not None:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def to_json(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


PACE_REF_S = 1.0e-3  # the pace probe's duration on the reference host
PACE_WINDOW_S = 0.1  # probes this close to a timed span set its scale; the pace changes within a second
_PACE_ROWS = np.random.default_rng(0).normal(size=(5, 4))


def _pace_probe() -> float:
    """A fixed kernel like the library's inner loops: small NumPy ops driven from Python."""
    s = 0.0
    unit = _PACE_ROWS @ np.ones(4)
    for i in range(100):
        s += float(np.max(np.abs(_PACE_ROWS @ np.full(4, i * 1e-3)) / unit))
    return s


class Pace:
    """How fast the host runs right now, from a fixed probe kernel run between ops.

    On a shared host the same CPU-bound code runs up to twice as slow in
    phases that last minutes, with shorter swings inside them, in process
    CPU time as much as in wall time, so runs of one workload differ by the
    phase they land in.  A timed span is scaled by ``PACE_REF_S`` over the
    median probe duration within ``PACE_WINDOW_S`` of it, which gives its
    duration at reference pace.  Probe time is never inside a timed span.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, min_s: float = 0.0) -> None:
        """Run the probe at least once and until ``min_s`` seconds of probing."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            _pace_probe()
            took = time.perf_counter() - t0
            self.at.append(t0)
            self.took.append(took)
            spent += took
            if spent >= min_s:
                return

    def scale(self, start: float, end: float) -> float:
        """Reference-pace factor for the span ``[start, end]``."""
        lo = bisect.bisect_left(self.at, start - PACE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PACE_WINDOW_S)
        return PACE_REF_S / statistics.median(self.took[lo:hi])


def time_calls(fn, args_list, repeat: int = 1) -> float:
    """Median over ``repeat`` passes of the mean microseconds per call of ``fn(*args)``."""
    per_pass = []
    for _ in range(repeat):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        per_pass.append((time.perf_counter() - start) / max(len(args_list), 1))
    return statistics.median(per_pass) * 1e6


def space_kernel_timings(points, line_pairs) -> dict:
    """Direct calls of the space kernels on a workload's own ``(space, x)`` points and ``(space, x, y)`` lines."""
    from orderunit import cone_contains, order_norm, ray_thresholds

    return {
        "spaces.order_norm.us_per_call": time_calls(order_norm, points, repeat=3),
        "spaces.cone_contains.us_per_call": time_calls(cone_contains, points, repeat=3),
        "spaces.ray_thresholds.us_per_call": time_calls(ray_thresholds, line_pairs, repeat=3),
    }


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it (100 when n <= 10)."""
    return 100.0 if n <= 10 else 100.0 * (n - 10) / n


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of the order statistics.

    Op latencies come in clusters (a ``cli_verify`` session is half
    start-up-bound commands and half compute-bound ones), and a single
    order statistic at a cluster edge jumps with the noise of one or two
    ops.  The Harrell-Davis weights spread over the neighbouring ranks.
    The weights are integrated numerically around the Beta mode.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 1 or q >= 1.0:
        return float(xs[-1])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    mean = a / (a + b)
    sd = (a * b / ((a + b) ** 2 * (a + b + 1))) ** 0.5
    grid = np.linspace(max(0.0, mean - 12 * sd), min(1.0, mean + 12 * sd), 20001)
    grid = grid[(grid > 0.0) & (grid < 1.0)]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ xs)


def seed_for(*parts: int) -> int:
    """Stable derived seed from integer parts (independent of ``hash`` randomization)."""
    h = 1469598103934665603
    for p in parts:
        h = ((h ^ (int(p) & 0xFFFFFFFFFFFFFFFF)) * 1099511628211) % (1 << 64)
    return h


def run_env() -> dict:
    """Where a result was measured: source identity, interpreter, libraries, threads."""
    import hashlib
    import platform

    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")  # without importing it
    except metadata.PackageNotFoundError:
        scipy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "orderunit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    threads = {
        k: os.environ.get(k)
        for k in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
    }
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": threads,
        "machine": platform.machine(),
    }


def _git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None
