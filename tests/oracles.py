"""Independent reference computations for the test suite.

Everything here is deliberately dumb: bisection on raw membership
predicates, piecewise-exact integration over thresholds, Monte-Carlo
suprema, monotone closure by lattice sweep.  None of it shares a code path
with the closed forms it cross-checks.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from orderunit import (
    TOL,
    Capacity,
    ExtensionInterval,
    PropertyReport,
    apply,
    cone_contains,
    equicontinuity_modulus,
    evaluate,
    order_norm,
    ray_thresholds,
)
from orderunit.dual import DYADIC_DEPTH
from orderunit.operators import PREIMAGE_TOL
from orderunit.sampling import ball_point, box_points, probe_pairs, rng_from


def norm_by_bisection(space, x, iters=80):
    """Order norm via bisection on the two-sided cone membership predicate."""
    x = np.asarray(x, dtype=float)

    def member(lam):
        shift = lam * space.unit
        return cone_contains(space, shift - x, tol=1e-15) and cone_contains(
            space, shift + x, tol=1e-15
        )

    hi = 1.0
    for _ in range(200):
        if member(hi):
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


def norms_by_bisection(space, points, iters=80):
    """Vectorized variant of :func:`norm_by_bisection` for large batches."""
    pts = np.asarray(points, dtype=float)
    pairings = space.unit_pairings
    absrows = np.abs(space.cone.rows @ pts.T)

    def member(lam):
        return np.all(lam[None, :] * pairings[:, None] - absrows >= -1e-15, axis=0)

    hi = np.ones(pts.shape[0])
    for _ in range(200):
        inside = member(hi)
        if inside.all():
            break
        hi[~inside] *= 2.0
    lo = np.zeros_like(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = member(mid)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return hi


def exact_rank(rows):
    """Rank of a matrix with rational (e.g. integer) entries, by Gaussian
    elimination over ``Fraction``: no floating point, no SVD."""
    M = [[Fraction(a) for a in row] for row in rows]
    rank = 0
    for col in range(len(M[0])):
        pivot = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for r in range(rank + 1, len(M)):
            factor = M[r][col] / M[rank][col]
            M[r] = [a - factor * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def choquet_layer_cake(cap: Capacity, x):
    """Choquet value by exact integration of the level-set step function.

    Splits the real line at the distinct coordinate values and zero; on each
    piece the super-level set is constant, so the integral is a finite sum.
    Positive side integrates v({x >= t}), negative side v({x >= t}) - v(full).
    """
    x = np.asarray(x, dtype=float)
    pts = sorted(set(x.tolist()) | {0.0})
    v_full = cap.values[cap.full_mask]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        mask = 0
        for i, xi in enumerate(x):
            if xi >= b:
                mask |= 1 << i
        seg = cap.values[mask] * (b - a)
        if b <= 0:
            seg -= v_full * (b - a)
        total += seg
    return float(total)


def slack(size, tol=TOL):
    """``tol * (1 + size)``, the one tolerance of the extension engine's value
    comparisons, for two values compared whose size, with their slopes'
    share, is ``size``."""
    return tol * (1.0 + size)


def pair_size(g_i, g_j, c, a_i, a_j):
    """``|g_i| + |g_j| + c * max(max|a_i|, max|a_j|)``: the size of two line
    values ``g_i``, ``g_j`` whose unit-scaled pairings are ``a_i``, ``a_j``."""
    return abs(g_i) + abs(g_j) + c * max(_magnitude(a_i), _magnitude(a_j))


def _magnitude(a):
    return max(abs(float(v)) for v in np.ravel(a))


def interval_by_line_search(pf, y, iters=80):
    """Extension interval endpoints by per-line bisection.

    For each line (the axis line plus every base line) the set of its points
    sitting above the target starts at a parameter threshold, and the set
    below ends at one; both thresholds are found by bisection on the raw
    membership predicates and converted to functional values.
    """
    space = pf.space
    y = np.asarray(y, dtype=float)
    unit = space.unit
    c = pf.unit_value
    lines = [(np.zeros(space.dim), 0.0)]
    lines += list(zip(pf.subspace.base, pf.values.tolist()))

    def threshold(pred, increasing):
        # bracket the flip of a monotone boolean predicate, then bisect
        lo, hi = -1.0, 1.0
        for _ in range(200):
            if pred(hi) == increasing:
                break
            hi *= 2.0
        for _ in range(200):
            if pred(lo) != increasing:
                break
            lo *= 2.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if pred(mid) == increasing:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    p_plus, p_minus = np.inf, -np.inf
    for x_i, g_i in lines:
        above = lambda t, x_i=x_i: cone_contains(space, x_i + t * unit - y, tol=1e-15)
        below = lambda t, x_i=x_i: cone_contains(space, y - x_i - t * unit, tol=1e-15)
        t_plus = threshold(above, increasing=True)
        t_minus = threshold(lambda t: not below(t), increasing=True)
        p_plus = min(p_plus, g_i + c * t_plus)
        p_minus = max(p_minus, g_i + c * t_minus)
    return p_minus, p_plus


def _lines(pf):
    """The axis line (origin, value 0) followed by the base lines."""
    xs = [np.zeros(pf.space.dim), *pf.subspace.base]
    gs = [0.0, *pf.values.tolist()]
    return xs, gs


def interval_by_ray_thresholds(pf, y, tol=1e-9):
    """Extension interval endpoints by one scalar ray-threshold call per line.

    The per-line loop the extension engine ran before it stacked its lines;
    vectorized code must reproduce its endpoints bit for bit.
    """
    y = np.asarray(y, dtype=float)
    xs, gs = _lines(pf)
    c = pf.unit_value
    bounds = []
    for x_i, g_i in zip(xs, gs):
        lo, hi = ray_thresholds(pf.space, x_i, y)
        bounds.append((g_i + c * lo, g_i + c * hi))
    R, pairings = _line_pairings(pf)
    return _nonempty(bounds, gs, c, pairings, R @ y, tol)


def _nonempty(bounds, gs, c, pairings, ay, tol):
    """Fold per-line ``(lower, upper)`` bounds with Python ``max`` and ``min``.
    Endpoints crossed beyond the slack of the two lines that set them, with
    ``c * max|ay|`` added for the query ``ay``, raise."""
    p_plus, p_minus, a, b = np.inf, -np.inf, 0, 0
    for k, (lower, upper) in enumerate(bounds):
        if upper < p_plus:
            p_plus, a = upper, k
        if lower > p_minus:
            p_minus, b = lower, k
    if p_minus > p_plus:
        size = abs(gs[a]) + abs(gs[b]) + c * (max(_magnitude(pairings[a]), _magnitude(pairings[b])) + _magnitude(ay))
        if p_minus > p_plus + slack(size, tol):
            raise ValueError(
                f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent"
            )
    return float(p_minus), float(p_plus)


def _first_violation(pf, threshold, tol):
    """Row-major over ``(line_i, line_j)``, ``i != j``, with the axis line
    first: the first pair with ``g_j + t_ij * c < g_i - s``, where
    ``t_ij = threshold(i, j)`` and ``s`` is the :func:`slack` of the pair's
    :func:`pair_size`, as a witness; ``None`` when none is violated."""
    gs = _lines(pf)[1]
    c = pf.unit_value
    pairings = _line_pairings(pf)[1]
    for i, g_i in enumerate(gs):
        for j, g_j in enumerate(gs):
            if i == j:
                continue
            t_ij = threshold(i, j)
            if g_j + t_ij * c < g_i - slack(pair_size(g_i, g_j, c, pairings[i], pairings[j]), tol):
                return {
                    "line_i": i,
                    "line_j": j,
                    "threshold": float(t_ij),
                    "g_i": float(g_i),
                    "g_j": float(g_j),
                    "slope": float(c),
                }
    return None


def consistency_witness_by_pairs(pf, tol=1e-9):
    """First violated pairwise consistency inequality, one scalar
    ray-threshold call per pair, on the difference ``x_i - x_j``."""
    xs = _lines(pf)[0]
    return _first_violation(pf, lambda i, j: ray_thresholds(pf.space, xs[j], xs[i])[1], tol)


# References over the unit-scaled pairings ``R @ x_i`` of each line, where
# ``R`` holds the cone rows in multiples of the unit.  The threshold
# ``R @ (y - x)`` equals ``R @ y - R @ x`` by linearity but rounds
# differently; the extension engine stores the pairings and must reproduce
# these loops bit for bit, and the difference-first references above within
# a stated bound.


def unit_rows_by_rows(space, rows=None):
    """The unit-scaled rows, built here one row at a time: each cone row over
    its largest absolute entry, then over that scaled row's pairing with the
    unit.  The pairings are one matrix-vector product, as the library forms
    them, since a product per row rounds differently.  ``rows`` are the cone
    rows as given, by default the stored ones."""
    scaled = np.array([row / max(abs(row)) for row in (space.cone.rows if rows is None else rows)])
    pairings = scaled @ space.unit
    return np.array([row / p for row, p in zip(scaled, pairings)])


def _line_pairings(pf):
    """The unit-scaled rows and one matrix-vector product ``R @ x_i`` per line, the axis line first."""
    R = unit_rows_by_rows(pf.space)
    return R, [R @ x for x in _lines(pf)[0]]


def interval_by_pairings(pf, y, tol=1e-9):
    """Extension interval endpoints from the unit-scaled pairings, one line at a time.

    Per line the thresholds are ``R @ y - R @ x_i``; the least and the
    greatest threshold and the fold over the lines are Python ``min`` and
    ``max``.
    """
    R, pairings = _line_pairings(pf)
    ay = R @ np.asarray(y, dtype=float)
    c = pf.unit_value
    gs = _lines(pf)[1]
    bounds = [(g_i + c * min(ay - ax), g_i + c * max(ay - ax)) for ax, g_i in zip(pairings, gs)]
    return _nonempty(bounds, gs, c, pairings, ay, tol)


def interval_by_one_sided_fold(pf, y):
    """``(p_minus, p_plus)`` as the extension engine folded them one side at a
    time before its signed block: the thresholds ``unit_rows @ y - AT``, their
    least and greatest entry per line, then Python's ``min`` over
    ``g_i + c * greatest`` and ``max`` over ``g_i + c * least`` (NaN never wins,
    ties keep the first, the sign of a zero is kept).  Endpoints crossed beyond
    the slack of the two lines that set them, plus ``c * max|unit_rows @ y|``,
    raise; the signed fold must reproduce this bit for bit."""
    G, c = pf.G, pf.unit_value
    with np.errstate(over="ignore", invalid="ignore"):
        ry = pf.space.unit_rows @ np.asarray(y, dtype=float)
        t = ry[:, None] - pf.AT
        above, below = (G + c * t.max(axis=0)).tolist(), (G + c * t.min(axis=0)).tolist()
        p_plus, p_minus = min(np.inf, *above), max(-np.inf, *below)
        if p_minus > p_plus:
            a, b = above.index(p_plus), below.index(p_minus)
            size = abs(G[a]) + abs(G[b]) + c * (np.abs(pf.AT[:, [a, b]]).max() + np.abs(ry).max())
            if p_minus > p_plus + slack(size):
                raise ValueError(f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent")
    return float(p_minus), float(p_plus)


def extend_all_by_one_sided_fold(pf, ys, rule):
    """What ``extend_all`` (and the CLI's ``extend``) must do with ``ys`` under an
    endpoint rule, one target at a time over the lines stored so far.

    A target on a stored line (:func:`span_contains_by_lines`) is skipped.
    Otherwise its interval is :func:`interval_by_one_sided_fold` over the lines
    so far, each stored by its point, its value and its pairings ``unit_rows @ x``,
    and its value the rule's endpoint or their midpoint by the rule of
    :class:`orderunit.ExtensionInterval`; the target and that value become a
    line.  Returns ``(steps, X, G)``: per target ``None`` (skipped) or
    ``(p_minus, p_plus, value)``, ending at the first target whose interval
    raises or whose value or pairings are not finite (its error message), or
    whose endpoints crossed within the slack (``"crossed"``), where the
    engine's value is no endpoint rule."""
    space, c, R = pf.space, pf.unit_value, pf.space.unit_rows
    xs, gs, cols = list(pf.X), list(pf.G), list(pf.AT.T)
    steps = []
    for y in ys:
        y = np.asarray(y, dtype=float)
        X = np.array(xs)
        lines = SimpleNamespace(space=space, unit_value=c, G=np.array(gs), AT=np.column_stack(cols),
                                subspace=SimpleNamespace(base=X[1:]), values=np.array(gs[1:]))
        with np.errstate(over="ignore", invalid="ignore"):
            if span_contains_by_lines(lines, y):
                steps.append(None)
                continue
            ry = R @ y
        try:
            p_minus, p_plus = interval_by_one_sided_fold(lines, y)
        except ValueError as exc:
            steps.append(str(exc))
            break
        if p_minus > p_plus:
            steps.append("crossed")
            break
        value = {"lower": p_minus, "upper": p_plus, "midpoint": ExtensionInterval(p_minus, p_plus).midpoint}[rule]
        if not (math.isfinite(value) and np.isfinite(ry).all()):
            steps.append(f"target {y.tolist()}: its value or a unit-scaled pairing is not finite")
            break
        steps.append((p_minus, p_plus, value))
        xs.append(y)
        gs.append(value)
        cols.append(ry)
    return steps, np.array(xs), np.array(gs)


def line_slacks(pf, x, g, tol=TOL):
    """The :func:`slack` of each pair that a new line through ``x`` with value
    ``g`` forms with a line of ``pf``, the axis line first."""
    R, pairings = _line_pairings(pf)
    return [slack(pair_size(g, g_j, pf.unit_value, R @ x, a_j), tol) for g_j, a_j in zip(_lines(pf)[1], pairings)]


def consistency_witness_by_pairings(pf, tol=1e-9):
    """First violated pairwise consistency inequality, from the unit-scaled
    pairings: the threshold ``t_ij`` is the Python ``max`` of ``R @ x_i - R @ x_j``."""
    ax = _line_pairings(pf)[1]
    return _first_violation(pf, lambda i, j: max(ax[i] - ax[j]), tol)


# Exact references: every float is a ``Fraction`` exactly, so these values
# carry no rounding and do not depend on the order of any sum.  They read the
# raw cone rows, not the unit-scaled ones.


def _dot(a, b):
    return sum((p * q for p, q in zip(a, b)), Fraction(0))


def unit_ratios_exact(space, v):
    """``a_k.v / a_k.unit`` for every cone row ``a_k``, as Fractions; ``v`` may hold floats or Fractions."""
    v = [Fraction(x) for x in v]
    u = [Fraction(x) for x in space.unit]
    rows = [[Fraction(a) for a in row] for row in space.cone.rows]
    return [_dot(a, v) / _dot(a, u) for a in rows]


def order_norm_exact(space, x):
    """The order norm ``max_k |a_k.x| / a_k.unit``, exactly."""
    return max(abs(r) for r in unit_ratios_exact(space, [float(a) for a in x]))


def ray_thresholds_exact(space, x, y):
    """``(lambda_minus, lambda_plus)`` of :func:`orderunit.ray_thresholds`, exactly,
    for the exact difference ``y - x``."""
    d = [Fraction(float(b)) - Fraction(float(a)) for a, b in zip(x, y)]
    ratios = unit_ratios_exact(space, d)
    return min(ratios), max(ratios)


def extension_interval_exact(pf, y):
    """The per-line bounds of :func:`orderunit.extension_interval` over the
    stored lines, exactly: per line ``i`` the lower and the upper bound
    ``g_i + c * t`` at the exact ray thresholds of ``y - x_i``, as the lists
    ``(lowers, uppers)``; ``p_minus`` is ``max(lowers)`` and ``p_plus`` is
    ``min(uppers)``."""
    c = Fraction(pf.unit_value)
    xs, gs = _lines(pf)
    bounds = [ray_thresholds_exact(pf.space, x, y) for x in xs]
    lowers = [Fraction(g) + c * lo for g, (lo, _) in zip(gs, bounds)]
    uppers = [Fraction(g) + c * hi for g, (_, hi) in zip(gs, bounds)]
    return lowers, uppers


def consistency_pairs_exact(pf):
    """Row-major over ``(line_i, line_j)``, ``i != j``, with the axis line
    first: ``(i, j, t_ij, excess)`` with the exact threshold ``t_ij``, the
    greatest ratio of ``x_i - x_j``, and the exact excess
    ``g_i - g_j - t_ij * c``.  The pair is violated when the excess passes
    the slack, so the exact witness at a slack is the first such pair."""
    c = Fraction(pf.unit_value)
    xs, gs = _lines(pf)
    out = []
    for i, (x_i, g_i) in enumerate(zip(xs, gs)):
        for j, (x_j, g_j) in enumerate(zip(xs, gs)):
            if i != j:
                t_ij = ray_thresholds_exact(pf.space, x_j, x_i)[1]
                out.append((i, j, t_ij, Fraction(g_i) - Fraction(g_j) - t_ij * c))
    return out


def unit_ratio_scale(space, magnitudes, ratios):
    """``max_k (|a_k|.m + |r_k| * |a_k|.|unit|) / a_k.unit``, exactly, for the
    entrywise magnitudes ``m`` of the terms a ratio sums and the ratios ``r_k``.

    The size of the terms in ``a_k.v / a_k.unit`` and in the pairing it
    divides by: a float evaluation that rounds each term a bounded number of
    times is off by a bounded multiple of ``eps`` times this scale."""
    m = [Fraction(float(x)) for x in magnitudes]
    u = [Fraction(x) for x in space.unit]
    scales = []
    for row, r in zip(space.cone.rows, ratios):
        a = [Fraction(x) for x in row]
        size = [abs(x) for x in a]
        scales.append((_dot(size, m) + abs(r) * _dot(size, [abs(x) for x in u])) / _dot(a, u))
    return max(scales)


def _holds(a, b):
    """Whether the line through the point of unit-scaled column ``b`` holds the
    point of column ``a``: every entry of ``a - b`` finite and their order-norm
    distance ``(max - min) / 2`` finite (a spread past the largest float holds
    no point, even where the slack overflows too) and within the :func:`slack`
    of ``max|a| + max|b|``."""
    diffs = [x - y for x, y in zip(a, b)]
    if not all(map(math.isfinite, diffs)):
        return False
    d = 0.5 * (max(diffs) - min(diffs))
    return math.isfinite(d) and d <= slack(_magnitude(a) + _magnitude(b))


def lines_by_pairs(space, points, values, unit_value):
    """The lines of the data, each kept by the first point on it as given, by
    one line test per pair.

    Pairs each point with the unit-scaled rows, one row at a time.  A point
    joins the first line, the axis line first, that holds it (:func:`_holds`).
    Its value conflicts, raising as the extension engine does, when the pair
    fails either consistency inequality, ``g_k + max(a - b) * c >= g - s`` or
    ``g + max(b - a) * c >= g_k - s``, at the :func:`slack` ``s`` of the
    pair's :func:`pair_size`.  Returns ``(base, vals)``.
    """
    R = unit_rows_by_rows(space)
    c = float(unit_value)
    lines = [(np.zeros(space.dim), np.zeros(len(R)), 0.0)]  # point, R @ point, value
    for p, g in zip(points, values):
        p, g = np.asarray(p, dtype=float), float(g)
        a = R @ p
        for k, (_, b, g_k) in enumerate(lines):
            if not _holds(a, b):
                continue
            s = slack(pair_size(g, g_k, c, a, b))
            if g_k + max(a - b) * c < g - s or g + max(b - a) * c < g_k - s:
                if k == 0:
                    raise ValueError(
                        f"value conflict on the axis line: point {p.tolist()} carries {g}, "
                        f"but the unit slope forces {c * (0.5 * (max(a) + min(a)))}"
                    )
                raise ValueError(f"value conflict on a duplicate line: {g_k} vs {g}")
            break
        else:
            lines.append((p, a, g))
    base = np.array([line[0] for line in lines[1:]]).reshape(-1, space.dim)
    return base, np.array([line[2] for line in lines[1:]])


def span_contains_by_lines(pf, v):
    """Span membership by one line test per stored line, the axis line first."""
    R, pairings = _line_pairings(pf)
    a = R @ np.asarray(v, dtype=float)
    return any(_holds(a, b) for b in pairings)


def mc_sup_abs(f, n=4096, seed=0):
    """Monte-Carlo supremum of |f| over the open unit ball of the order norm."""
    from orderunit.sampling import ball_point, rng_from

    rng = rng_from(seed)
    zero = np.zeros(f.space.dim)
    return max(abs(f(ball_point(f.space, zero, 1.0, rng))) for _ in range(n))


def random_monotone_capacity(n, rng, normalized=True, floor=0.0):
    """Random monotone capacity via the running-max lattice closure."""
    raw = rng.uniform(floor, 1.0, size=2**n)
    raw[0] = 0.0
    vals = raw.copy()
    for mask in range(1, 2**n):
        best = vals[mask]
        for i in range(n):
            if mask & (1 << i):
                best = max(best, vals[mask & ~(1 << i)])
        vals[mask] = best
    if normalized:
        top = vals[-1]
        if top <= 0:
            vals[-1] = 1.0
            top = 1.0
        vals = vals / top
    return Capacity(n=n, values=vals)


def monotonicity_witness_by_loop(cap):
    """The covering pairs in loop order, masks ascending and then bits: the first pair
    ``(S minus {i}, S)`` whose value drops by more than ``TOL``, or None."""
    for mask in range(1, 2**cap.n):
        for i in range(cap.n):
            if mask & (1 << i):
                sub = mask & ~(1 << i)
                if cap.values[mask] < cap.values[sub] - TOL:
                    return sub, mask
    return None


def halving_by_loop(caps, conv_tol):
    """The interval halving of ``subsequence_limit``, one dict of values and two index lists per mask:
    the surviving indices, or the ValueError that names the mask that exhausted it."""
    n = caps[0].n
    indices = list(range(len(caps)))
    for mask in range(1, 2**n - 1):  # the free coordinates
        vals = {i: float(caps[i].values[mask]) for i in indices}
        lo, hi = min(vals.values()), max(vals.values())
        while hi - lo > conv_tol:
            mid = 0.5 * (lo + hi)
            lower = [i for i in indices if vals[i] <= mid]
            upper = [i for i in indices if vals[i] > mid]
            # both halves are nonempty while lo < hi, so this strictly shrinks
            chosen = upper if len(upper) >= len(lower) else lower
            if len(chosen) < 2:
                raise ValueError(
                    f"sequence too short for convergence tolerance {conv_tol:g} "
                    f"(coordinate mask {mask} exhausted the halving)"
                )
            indices = chosen
            lo, hi = min(vals[i] for i in indices), max(vals[i] for i in indices)
    return indices


def convergent_monotone_capacities(rng, n_terms=100, n=3, ratio=0.85, scale=0.08):
    """Random monotone capacities converging geometrically to a random target.

    Mixing a random monotone capacity with the cardinality capacity leaves
    slack of at least 1/(2n) on every covering pair, so a one-direction
    perturbation of size <= ``scale`` keeps the whole sequence monotone.
    The top value stays pinned at 1.
    """
    import numpy as np

    base = random_monotone_capacity(n, rng, floor=0.3)
    mixed = 0.5 * base.values + 0.5 * np.array(
        [bin(m).count("1") / n for m in range(2**n)]
    )
    target = Capacity(n=n, values=mixed)
    direction = rng.uniform(-1.0, 1.0, size=2**n)
    direction[0] = 0.0
    direction[-1] = 0.0
    return [
        Capacity(n=n, values=target.values + scale * ratio**k * direction)
        for k in range(n_terms)
    ]


def grid_comparable_pairs(space):
    """Every comparable pair on the grid ``{0, 0.5, 1}^dim``; exhaustive for dim <= 3."""
    pts = np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=space.dim)))
    return [(x, y) for x in pts for y in pts if cone_contains(space, y - x)]


# Per-row references for the batched evaluators, law checkers and samplers:
# the loops the library ran before it evaluated whole sample arrays, one
# scalar ``evaluate``/``apply``/``order_norm``/``cone_contains`` per point.
# The batched code must reproduce their values, reports and random streams
# bit for bit.


def evaluate_by_rows(f, X):
    """Values of a functional at the rows of ``X``, shape ``(n,)``."""
    return np.array([evaluate(f, x) for x in X], dtype=float).reshape(len(X))


def apply_by_rows(T, X):
    """Images of an operator at the rows of ``X``, shape ``(n, codomain dim)``."""
    return np.array([apply(T, x) for x in X], dtype=float).reshape(len(X), T.codomain.dim)


def _max_abs(v):
    return float(np.max(np.abs(v)))


def _shift_by_loop(name, fn, unit, unit_image, samples, size, shown, tol):
    for x, lam in samples:
        defect = fn(x + lam * unit) - fn(x) - lam * unit_image
        if size(defect) > tol:
            witness = {"x": list(map(float, x)), "lam": float(lam), "defect": shown(defect)}
            return PropertyReport(name=name, passed=False, samples=len(samples), witness=witness)
    return PropertyReport(name=name, passed=True, samples=len(samples))


def _order_by_loop(name, fn, pairs, broken, image, shown):
    for x, y in pairs:
        fx, fy = fn(x), fn(y)
        if broken(fx, fy):
            witness = {
                "x": list(map(float, x)),
                "y": list(map(float, y)),
                f"{image}_x": shown(fx),
                f"{image}_y": shown(fy),
            }
            return PropertyReport(name=name, passed=False, samples=len(pairs), witness=witness)
    return PropertyReport(name=name, passed=True, samples=len(pairs))


def weak_additivity_by_loop(f, samples, tol=TOL):
    fn = lambda x: evaluate(f, x)
    return _shift_by_loop("weak_additivity", fn, f.space.unit, f.unit_value, samples, abs, float, tol)


def order_preserving_by_loop(f, pairs, tol=TOL):
    fn = lambda x: evaluate(f, x)
    return _order_by_loop("order_preserving", fn, pairs, lambda fx, fy: fx > fy + tol, "f", float)


def weakly_additive_op_by_loop(T, samples, tol=TOL):
    fn = lambda x: apply(T, x)
    return _shift_by_loop("weakly_additive", fn, T.domain.unit, T.unit_image, samples, _max_abs, _max_abs, tol)


def order_preserving_op_by_loop(T, pairs, tol=TOL):
    fn = lambda x: apply(T, x)
    broken = lambda tx, ty: not cone_contains(T.codomain, ty - tx, tol=tol)
    return _order_by_loop("order_preserving", fn, pairs, broken, "T", lambda v: list(map(float, v)))


def positive_by_loop(f, samples, tol=TOL):
    for x in samples:
        fx = evaluate(f, x)
        if fx < -tol:
            witness = {"x": list(map(float, x)), "f_x": float(fx)}
            return PropertyReport(name="positive", passed=False, samples=len(samples), witness=witness)
    return PropertyReport(name="positive", passed=True, samples=len(samples))


def lipschitz_defect_by_loop(f, pairs):
    """The worst defect, pair by pair; the first NaN defect is the result."""
    worst = -np.inf
    for y, z in pairs:
        defect = abs(evaluate(f, z) - evaluate(f, y)) - f.unit_value * order_norm(f.space, z - y)
        if math.isnan(defect):
            return math.nan
        worst = max(worst, defect)
    return float(worst)


def limit_by_loop(Ts, probes, x):
    """The value of ``pointwise_limit(Ts, probes)`` at ``x``, one probe line at a
    time: the first line (the zero probe last) at the least finite distance
    ``(hi - lo) / 2`` by ``ray_thresholds``, shifted along the unit by
    ``(hi + lo) / 2``; NaN where no line is at a finite distance."""
    dom, last = Ts[0].domain, Ts[-1]
    best, best_dist = None, np.inf
    for p in [*probes, np.zeros(dom.dim)]:
        lo, hi = ray_thresholds(dom, p, x)
        dist = 0.5 * (hi - lo)
        if dist < best_dist:
            best, best_dist = (p, 0.5 * (hi + lo)), dist
    if best is None:
        return np.full(last.codomain.dim, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        return apply(last, best[0]) + best[1] * apply(last, dom.unit)


def graph_check_by_loop(T, samples, lambdas=(-2.0, -1.0, 0.0, 1.0, 2.0), tol=TOL):
    unit = T.domain.unit
    gu = np.concatenate([unit, T.unit_image])
    count = 0
    for x in samples:
        tx = apply(T, x)
        gx = np.concatenate([x, tx])
        for lam in lambdas:
            count += 1
            shifted = np.concatenate([x + lam * unit, tx if lam == 0.0 else apply(T, x + lam * unit)])
            defect = float(np.max(np.abs(gx + lam * gu - shifted)))
            if defect > tol:
                witness = {"x": list(map(float, x)), "lam": float(lam), "defect": defect}
                return PropertyReport(name="graph_shift_closure", passed=False, samples=count, witness=witness)
    return PropertyReport(name="graph_shift_closure", passed=True, samples=count)


def equicontinuity_by_loop(family, eps, pairs, cap=1e6, tol=TOL):
    """The sampled part of ``certify_equicontinuity``, member by member, pair by pair."""
    assert not equicontinuity_modulus(family, cap=cap).unbounded
    for k, T in enumerate(family):
        for x, y in pairs:
            gap = order_norm(family.codomain, apply(T, x) - apply(T, y))
            if gap >= eps + tol:
                witness = {"member": k, "x": list(map(float, x)), "y": list(map(float, y)), "image_gap": float(gap)}
                return PropertyReport(
                    name="equicontinuity", passed=False, samples=len(pairs) * len(family), witness=witness
                )
    return PropertyReport(name="equicontinuity", passed=True, samples=len(pairs) * len(family))


def _refuse_unless_interior(space):
    """The samplers' refusal, before any draw: some cone row, scaled to
    largest absolute entry 1, pairs with the unit to ``TOL`` or less, or to a
    value that is not finite."""
    with np.errstate(all="ignore"):
        pairings = [(row / max(abs(row))) @ space.unit for row in space.cone.rows]
    if not all(np.isfinite(p) and p > TOL for p in pairings):
        raise ValueError("ball sampling needs an interior order unit")


def ball_point_by_loop(space, center, radius, rng):
    """One ball point in the single-draw order: a direction, drawn again
    until its order norm is finite and positive, then a signed length."""
    _refuse_unless_interior(space)
    center = np.asarray(center, dtype=float)
    while True:
        d = rng.normal(size=space.dim)
        nrm = order_norm(space, d)
        if np.isfinite(nrm) and nrm > 0:
            break
    t = rng.uniform(-1.0, 1.0) * radius * (1.0 - 1e-12)
    return center + d * (t / nrm)


def ball_offsets_by_loop(space, n, rng, radius=None, scale=1.0):
    """``(radii, offsets)`` of ``n`` ball draws, one generator call per value:
    with ``radius`` None all ``n`` radii, then all ``n`` directions, then the
    redraws of the rejected directions in row order, then all ``n`` lengths."""
    _refuse_unless_interior(space)
    radii = [radius] * n if radius is not None else [abs(rng.normal()) * scale + 1e-12 for _ in range(n)]
    dirs = [rng.normal(size=space.dim) for _ in range(n)]
    for k in range(n):
        while not 0.0 < order_norm(space, dirs[k]) < np.inf:
            dirs[k] = rng.normal(size=space.dim)
    lengths = [rng.uniform(-1.0, 1.0) * r * (1.0 - 1e-12) for r in radii]
    return radii, [d * (t / order_norm(space, d)) for d, t in zip(dirs, lengths)]


def ball_points_by_loop(space, center, radius, n, rng):
    center = np.asarray(center, dtype=float)
    points = [center + w for w in ball_offsets_by_loop(space, n, rng, radius=radius)[1]]
    return np.array(points).reshape(n, space.dim)


def cone_points_by_loop(space, n, rng, scale=2.0):
    out = []
    for c in box_points(space, 3 * n, rng, half_width=scale):
        if len(out) >= n // 2:
            break
        if cone_contains(space, c):
            out.append(c)
    zero = np.zeros(space.dim)
    lams, offsets = ball_offsets_by_loop(space, n - len(out), rng, scale=scale)
    out.extend(lam * space.unit + (zero + w) for lam, w in zip(lams, offsets))
    return np.array(out).reshape(n, space.dim)


def comparable_pairs_by_loop(space, n, rng, scale=2.0, include_probes=True):
    pairs = probe_pairs(space) if include_probes else []
    need = max(0, n - len(pairs))
    xs = box_points(space, need, rng, half_width=scale)
    steps = cone_points_by_loop(space, need, rng, scale=scale / 2.0)
    pairs.extend((x, x + s) for x, s in zip(xs, steps))
    return pairs[:n]


def pairs_within_by_loop(space, delta, n, rng, half_width=2.0):
    xs = box_points(space, n, rng, half_width=half_width)
    return [(x, x + y) for x, y in zip(xs, ball_points_by_loop(space, np.zeros(space.dim), delta, n, rng))]


def norm_bounds_by_loop(space, samples=256, seed=0):
    """The ``norm_bounds`` witness of ``validate_space``, one sample at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = rng.normal(scale=2.0, size=space.dim)
        lam = order_norm(space, x)
        if np.isfinite(lam):
            shift = (lam + TOL) * space.unit
            if cone_contains(space, shift - x) and cone_contains(space, shift + x):
                continue
        return {"x": x.tolist(), "norm": float(lam) if np.isfinite(lam) else None}
    return None


def dense_sequence_by_keys(space, limit=64):
    """The dyadic probe sequence with a set of the points seen so far, each
    kept as its integer numerator over ``2**DYADIC_DEPTH``."""
    out, seen = [], set()
    for j in range(DYADIC_DEPTH + 1):
        step = 1.0 / 2**j
        ks = range(-(2 ** (j + 1)), 2 ** (j + 1) + 1)
        for combo in itertools.product(ks, repeat=space.dim):
            key = tuple(k * 2 ** (DYADIC_DEPTH - j) for k in combo)
            if key in seen:
                continue
            seen.add(key)
            out.append(np.array(combo, dtype=float) * step)
            if len(out) >= limit:
                return out
    return out


def weak_metric_by_loop(f, g, seq=None, truncation=64):
    """``sum_k 2**-k * min(1, |f(x_k) - g(x_k)|)``, one probe at a time."""
    if seq is None:
        seq = dense_sequence_by_keys(f.space, limit=truncation)
    total = 0.0
    for k, x in enumerate(seq[:truncation], start=1):
        total += 2.0**-k * min(1.0, abs(evaluate(f, x) - evaluate(g, x)))
    return total


def weak_nbhd_contains_by_loop(nbhd, g):
    f = nbhd.center
    return all(abs(evaluate(f, p) - evaluate(g, p)) < nbhd.eps for p in nbhd.probes)


def open_ball_forward_by_loop(T, epsilon, seed=0, n=64):
    """The forward side of ``open_ball_image_check``, point by point: the
    witness of the first ball point whose image norm reaches
    ``epsilon + PREIMAGE_TOL``, or None."""
    zero = np.zeros(T.domain.dim)
    for x in ball_points_by_loop(T.domain, zero, epsilon, n, rng_from(seed)):
        nrm = order_norm(T.codomain, apply(T, x))
        if nrm >= epsilon + PREIMAGE_TOL:
            return {"side": "forward", "x": list(map(float, x)), "image_norm": float(nrm)}
    return None


def preimage_search_by_loop(T, y, x0, epsilon, budget, rng):
    """The preimage search of ``openness_check``, through the public
    ``order_norm``, ``apply`` and ``ball_point``: the same starts, the same
    coordinate moves and the same budget check before every candidate, so
    ``(x or None, best residual, evals)`` match bit for bit wherever
    ``r @ r`` is finite."""
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    evals = 0

    def inside(x):
        return order_norm(T.domain, x - x0) < epsilon * (1.0 - 1e-12)

    def residual(x):
        nonlocal evals
        evals += 1
        r = apply(T, x) - y
        return float(np.sqrt(r @ r))

    starts = [x0.copy()]
    if T.codomain.dim == T.domain.dim and inside(y):
        starts.append(y.copy())
    if T.matrix is not None:
        sol = np.linalg.lstsq(T.matrix, y, rcond=None)[0]
        if inside(sol):
            starts.append(sol)
    for _ in range(6):
        starts.append(ball_point(T.domain, x0, epsilon * 0.95, rng))

    best_x, best = None, np.inf
    for s in starts:
        if evals >= budget:
            break
        x = s.copy()
        val = residual(x)
        step = epsilon / 2.0
        while evals < budget and val > PREIMAGE_TOL and step > 1e-14:
            improved = False
            for i in range(T.domain.dim):
                for sign in (1.0, -1.0):
                    cand = x.copy()
                    cand[i] += sign * step
                    if evals >= budget or not inside(cand):
                        continue
                    v = residual(cand)
                    if v < val - 1e-15:
                        x, val, improved = cand, v, True
                        break
                if evals >= budget or val <= PREIMAGE_TOL:
                    break
            if not improved:
                step *= 0.5
        if val < best:
            best, best_x = val, x
        if best <= PREIMAGE_TOL:
            return best_x, best, evals
    return (best_x if best <= PREIMAGE_TOL else None), best, evals


def preimage_searches_by_loop(T, ys, x0, epsilon, budget, rng):
    """:func:`preimage_search_by_loop` on each target in order, through the
    first target without a preimage: the results the openness checks read."""
    results = []
    for y in ys:
        results.append(preimage_search_by_loop(T, y, x0, epsilon, budget, rng))
        if results[-1][0] is None:
            break
    return results


def openness_targets_by_loop(T, x0, epsilon, delta, targets, rng):
    """The targets of ``openness_check``, one try at a time: for the clamp and
    for a matrix of full row rank, up to ``200 * targets`` :func:`ball_point`
    draws, each kept where the clamp's band holds or always for the matrix;
    for every other operator, up to ``500 * targets`` forward images
    ``apply(T, x0 + normal)``, each kept where its order-norm distance to
    ``T(x0)`` is below ``delta``."""
    x0 = np.asarray(x0, dtype=float)
    center = apply(T, x0)
    onto = T.matrix is not None and np.linalg.matrix_rank(T.matrix) == T.codomain.dim
    sampled, tries = [], 0
    if onto or T.kind == "clamp":
        while len(sampled) < targets and tries < 200 * targets:
            y = ball_point(T.codomain, center, delta, rng)
            tries += 1
            if onto or abs(float(y[1]) - float(y[0])) <= 1.0 + TOL:
                sampled.append(y)
    else:
        while len(sampled) < targets and tries < 500 * targets:
            tries += 1
            x = x0 + rng.normal(scale=max(2.0 * epsilon, 1.0), size=T.domain.dim)
            y = apply(T, x)
            if order_norm(T.codomain, y - center) < delta:
                sampled.append(y)
    return sampled
