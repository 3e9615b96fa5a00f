"""Independent reference computations for the test suite.

Everything here is deliberately dumb: bisection on raw membership
predicates, piecewise-exact integration over thresholds, Monte-Carlo
suprema, monotone closure by lattice sweep.  None of it shares a code path
with the closed forms it cross-checks.
"""

import itertools
from fractions import Fraction

import numpy as np

from orderunit import (
    TOL,
    Capacity,
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
from orderunit.sampling import box_points, probe_pairs, rng_from


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
    p_plus = np.inf
    p_minus = -np.inf
    for x_i, g_i in zip(xs, gs):
        lo, hi = ray_thresholds(pf.space, x_i, y)
        p_plus = min(p_plus, g_i + c * hi)
        p_minus = max(p_minus, g_i + c * lo)
    if p_minus > p_plus + tol:
        raise ValueError(
            f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent"
        )
    return float(p_minus), float(p_plus)


def _first_violation(pf, threshold, tol):
    """Row-major over ``(line_i, line_j)``, ``i != j``, with the axis line
    first: the first pair with ``g_j + t_ij * c < g_i - tol``, where
    ``t_ij = threshold(i, j)``, as a witness; ``None`` when none is violated."""
    gs = _lines(pf)[1]
    c = pf.unit_value
    for i, g_i in enumerate(gs):
        for j, g_j in enumerate(gs):
            if i == j:
                continue
            t_ij = threshold(i, j)
            if g_j + t_ij * c < g_i - tol:
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


def unit_rows_by_rows(space):
    """The unit-scaled rows, built here one row at a time: each cone row over
    its largest absolute entry, then over that scaled row's pairing with the
    unit.  The pairings are one matrix-vector product, as the library forms
    them, since a product per row rounds differently."""
    scaled = np.array([row / max(abs(row)) for row in space.cone.rows])
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
    p_plus = np.inf
    p_minus = -np.inf
    for ax, g_i in zip(pairings, _lines(pf)[1]):
        t = ay - ax
        p_plus = min(p_plus, g_i + c * max(t))
        p_minus = max(p_minus, g_i + c * min(t))
    if p_minus > p_plus + tol:
        raise ValueError(
            f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent"
        )
    return float(p_minus), float(p_plus)


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


def _unit_rep(space, p):
    """Projection of ``p`` off the unit direction, plus the removed multiple."""
    u = space.unit
    mu = float(p @ u) / float(u @ u)
    return p - mu * u, mu


def _negligible(space, v, tol):
    return bool(np.max(np.abs(v)) <= tol * (1.0 + float(np.max(np.abs(space.unit)))))


def canonical_lines_by_pairs(space, points, values=None, unit_value=0.0, tol=1e-9):
    """Base points modulo the unit line, merged by one zero test per pair.

    Projects each point off the unit, drops points on the axis line and
    merges points on an already listed line, raising on value conflicts
    exactly as the extension engine does.  Returns ``(base, vals)``.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    vals = [0.0] * len(pts) if values is None else [float(v) for v in values]
    base, out_vals = [], []
    for p, g in zip(pts, vals):
        rep, mu = _unit_rep(space, p)
        g_rep = g - mu * unit_value
        if _negligible(space, rep, tol):
            if values is not None and abs(g_rep) > 1e-7:
                raise ValueError(
                    f"value conflict on the axis line: point {p.tolist()} carries {g}, "
                    f"but the unit slope forces {mu * unit_value}"
                )
            continue
        merged = False
        for i, b in enumerate(base):
            if _negligible(space, rep - b, tol):
                if values is not None and abs(out_vals[i] - g_rep) > 1e-7:
                    raise ValueError(
                        f"value conflict on a duplicate line: {out_vals[i]} vs {g_rep}"
                    )
                merged = True
                break
        if not merged:
            base.append(rep)
            out_vals.append(g_rep)
    return np.array(base).reshape(-1, space.dim), np.array(out_vals)


def span_contains_by_lines(span, v, tol=1e-9):
    """Span membership by one zero test per line, the axis line first."""
    rep, _ = _unit_rep(span.space, np.asarray(v, dtype=float))
    return _negligible(span.space, rep, tol) or any(
        _negligible(span.space, rep - b, tol) for b in span.base
    )


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
    worst = -np.inf
    for y, z in pairs:
        defect = abs(evaluate(f, z) - evaluate(f, y)) - f.unit_value * order_norm(f.space, z - y)
        worst = max(worst, defect)
    return float(worst)


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


def ball_point_by_loop(space, center, radius, rng):
    """One ball point in the single-draw order: a direction, drawn again
    until its order norm is finite and positive, then a signed length."""
    center = np.asarray(center, dtype=float)
    while True:
        d = rng.normal(size=space.dim)
        nrm = order_norm(space, d)
        if np.isfinite(nrm) and nrm > 0:
            break
        if np.any(space.unit_pairings <= TOL):
            raise ValueError("ball sampling needs an interior order unit")
    t = rng.uniform(-1.0, 1.0) * radius * (1.0 - 1e-12)
    return center + d * (t / nrm)


def ball_offsets_by_loop(space, n, rng, radius=None, scale=1.0):
    """``(radii, offsets)`` of ``n`` ball draws, one generator call per value:
    with ``radius`` None all ``n`` radii, then all ``n`` directions, then the
    redraws of the rejected directions in row order, then all ``n`` lengths."""
    radii = [radius] * n if radius is not None else [abs(rng.normal()) * scale + 1e-12 for _ in range(n)]
    dirs = [rng.normal(size=space.dim) for _ in range(n)]
    for k in range(n):
        while not 0.0 < order_norm(space, dirs[k]) < np.inf:
            if np.any(space.unit_pairings <= TOL):
                raise ValueError("ball sampling needs an interior order unit")
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
