"""Independent reference computations for the test suite.

Everything here is deliberately dumb: bisection on raw membership
predicates, piecewise-exact integration over thresholds, Monte-Carlo
suprema, monotone closure by lattice sweep.  None of it shares a code path
with the closed forms it cross-checks.
"""

from fractions import Fraction

import numpy as np

from orderunit import Capacity, cone_contains, ray_thresholds


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


def consistency_witness_by_pairs(pf, tol=1e-9):
    """First violated pairwise consistency inequality, one scalar call per pair.

    Row-major over ``(line_i, line_j)``, ``i != j``, with the axis line first;
    ``None`` when every inequality ``g_j + t_ij * c >= g_i - tol`` holds.
    """
    xs, gs = _lines(pf)
    c = pf.unit_value
    for i, (x_i, g_i) in enumerate(zip(xs, gs)):
        for j, (x_j, g_j) in enumerate(zip(xs, gs)):
            if i == j:
                continue
            _, t_ij = ray_thresholds(pf.space, x_j, x_i)
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
