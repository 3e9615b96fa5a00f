"""States of a space and the pointwise-convergence topology at desk scale.

A *state* is a weakly additive, order-preserving functional with value 1 at
the unit.  The states of a fixed space form the natural dual object here;
its topology is pointwise convergence, whose basic neighbourhoods pin the
functional at finitely many probe points within an ``eps``.

For a separable space the topology on any uniformly bounded family is
metrizable: a fixed countable dense probe sequence turns pointwise
closeness into the summable metric :func:`weak_metric`.  Compactness then
becomes a sequential statement, checkable on concrete parametric families:
:func:`subsequence_limit` runs an iterated interval-halving extraction on
capacity-parametrized Choquet states and verifies that the extracted limit
is again a state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .functionals import (
    Capacity,
    Functional,
    PropertyReport,
    _all_of,
    check_normed,
    check_order_preserving,
    check_weak_additivity,
    choquet_functional,
)
from .spaces import TOL, OrderedSpace, as_rows, as_vec, order_norm


@dataclass(frozen=True, eq=False)
class WeakNeighborhood:
    """Basic pointwise-convergence neighbourhood: center functional,
    finitely many probes, tolerance ``eps``."""

    center: Functional
    probes: tuple
    eps: float

    def __post_init__(self):
        probes = tuple(as_vec(p, self.center.space.dim) for p in self.probes)
        if not probes:
            raise ValueError("a neighbourhood needs at least one probe")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        object.__setattr__(self, "probes", probes)


def weak_nbhd_contains(nbhd: WeakNeighborhood, g: Functional) -> bool:
    """Is ``g`` within ``eps`` of the center at every probe?"""
    P = as_rows(nbhd.probes, g.space.dim)
    return bool(np.all(np.abs(nbhd.center.batch(P) - g.batch(P)) < nbhd.eps))


def absorbing_factor(space: OrderedSpace, x, eps: float) -> float:
    """Least scale ``gamma`` with ``x`` inside ``gamma`` copies of the
    radius-``eps`` ball at zero (up to closure): ``order_norm(x) / eps``."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return order_norm(space, x) / eps


DYADIC_DEPTH = 6
"""Deepest level :func:`dense_sequence` enumerates, coordinates ``k / 2**6``."""


def dense_sequence(space: OrderedSpace, limit: int = 64) -> list[np.ndarray]:
    """Deterministic dyadic-rational probe sequence, at most ``limit`` long.

    Level ``j`` contributes the vectors with coordinates ``k / 2**j`` for
    ``|k| <= 2**(j+1)``, enumerated lexicographically; points seen at an
    earlier level, those with every ``k`` even, are skipped.  The levels, up
    to ``DYADIC_DEPTH``, exhaust the dyadic rationals of an ever-growing box,
    so the full sequence is dense in every bounded region.
    """
    out = []
    for j in range(DYADIC_DEPTH + 1):
        step = 1.0 / 2**j
        ks = range(-(2 ** (j + 1)), 2 ** (j + 1) + 1)
        for combo in itertools.product(ks, repeat=space.dim):
            if j and not any(k & 1 for k in combo):
                continue
            out.append(np.array(combo, dtype=float) * step)
            if len(out) >= limit:
                return out
    return out


def weak_metric(f: Functional, g: Functional, seq=None, truncation: int = 64) -> float:
    """Summable pointwise metric over a dense probe sequence:
    ``sum_k 2**-k * min(1, |f(x_k) - g(x_k)|)``, summed in order of ``k``."""
    if seq is None:
        seq = dense_sequence(f.space, limit=truncation)
    X = as_rows(seq[:truncation], f.space.dim)
    return _summed_gaps(f.batch(X), g.batch(X))


def _summed_gaps(fx: np.ndarray, gx: np.ndarray) -> float:
    """:func:`weak_metric` from the two functionals' values at the probes."""
    total = 0.0
    for k, gap in enumerate(np.abs(fx - gx).tolist(), start=1):
        total += 2.0**-k * min(1.0, gap)
    return total


def check_state(f: Functional, *, seed: int = 0, n: int = 2**12, tol: float = TOL) -> PropertyReport:
    """Membership of ``f`` in the state space: weakly additive,
    order-preserving, and normed at the unit."""
    parts = [
        check_weak_additivity(f, seed=seed, n=n, tol=tol),
        check_order_preserving(f, seed=seed, n=n, tol=tol),
        check_normed(f, tol=tol),
    ]
    return _all_of("state_membership", parts)


@dataclass(frozen=True)
class SubsequenceResult:
    """Extraction outcome: surviving indices, the limit state, distances of
    the surviving functionals to it, and the aggregated report."""

    indices: list[int]
    limit_capacity: Capacity
    limit: Functional
    distances: list[float]
    report: PropertyReport


def subsequence_limit(
    caps,
    space: OrderedSpace,
    *,
    conv_tol: float = 1e-6,
    min_length: int = 8,
    truncation: int = 64,
    seed: int = 0,
) -> SubsequenceResult:
    """Extract a coordinatewise-convergent subsequence of capacities and
    return its limit as a Choquet state.

    One free coordinate (subset value) at a time, the current index set is
    repeatedly halved over the value interval, keeping the better-populated
    half (upper half on ties), until the interval width drops below
    ``conv_tol``.  Raises when the sequence has fewer than ``min_length``
    members or the halving would keep fewer than two.  The limit is the last
    surviving member, so monotonicity and normalization transfer by
    inspection; the report re-checks them, runs the state-membership checks
    on the limit, and requires the last three pointwise-metric distances,
    over the first ``truncation`` probes, to sit at or below ``1e-4``.  A
    member whose Choquet values at the probes are not finite (a sum past the
    largest float) has distance NaN, since the metric is not defined there.
    """
    if min_length < 1 or truncation < 1:
        raise ValueError("min_length and truncation must be at least 1")
    if not conv_tol >= 0:  # NaN too; below 0 the halving never ends on equal values
        raise ValueError(f"conv_tol must be a nonnegative number, got {conv_tol}")
    caps = list(caps)
    if len(caps) < min_length:
        raise ValueError(f"sequence too short: {len(caps)} < configured minimum {min_length}")
    n = caps[0].n
    for c in caps:
        if c.n != n:
            raise ValueError("all capacities must share the ground size")
        if abs(c.total - 1.0) > 1e-7:
            raise ValueError("all capacities must be normalized (value 1 on the full set)")

    V = np.array([c.values for c in caps])  # (members, 2**n)
    indices = np.arange(len(caps))
    for mask in range(1, 2**n - 1):  # the free coordinates
        v = V[indices, mask]
        while (hi := float(v.max())) - (lo := float(v.min())) > conv_tol:
            # v == hi keeps the upper half nonempty where the midpoint rounds up to hi or overflows, so this shrinks
            upper = (v > 0.5 * (lo + hi)) | (v == hi)
            keep = upper if 2 * np.count_nonzero(upper) >= len(v) else ~upper
            if np.count_nonzero(keep) < 2:
                raise ValueError(
                    f"sequence too short for convergence tolerance {conv_tol:g} "
                    f"(coordinate mask {mask} exhausted the halving)"
                )
            indices, v = indices[keep], v[keep]
    indices = indices.tolist()

    X = as_rows(dense_sequence(space, limit=truncation), space.dim)
    members = [choquet_functional(space, caps[i]) for i in indices]
    with np.errstate(over="ignore"):  # a sum past the largest float makes that member's distance NaN
        at_probes = [f.batch(X) for f in members]
    limit_cap, limit = caps[indices[-1]], members[-1]
    distances = [_summed_gaps(fx, at_probes[-1]) if np.isfinite(fx).all() else np.nan for fx in at_probes]

    checks = {
        "limit_monotone": limit_cap.is_monotone(),
        "limit_normalized": abs(limit_cap.total - 1.0) <= 1e-7,
    }
    membership = check_state(limit, seed=seed)
    checks["limit_state"] = membership.passed
    checks["metric_tail"] = all(d <= 1e-4 for d in distances[-3:])  # false at a NaN, wherever it stands
    passed = all(checks.values())
    report = PropertyReport(
        name="subsequence_limit",
        passed=passed,
        samples=len(caps),
        witness=None if passed else {"checks": checks, "membership": membership.to_json()},
    )
    return SubsequenceResult(
        indices=indices,
        limit_capacity=limit_cap,
        limit=limit,
        distances=distances,
        report=report,
    )
