"""Constructive extension of order-preserving functionals from unit-line spans.

The domain of a partially defined functional here is a *unit span*: the
union of the axis line ``{lam * unit}`` with finitely many parallel lines
``x_i + {lam * unit}``.  Such a set is exactly what stays invariant under
shifts along the order unit, so a weakly additive functional is pinned down
on it by one value per line plus the slope ``c = f(unit)``.

Extending to a new point ``y`` means choosing ``f(y)`` inside the interval

    p_minus(y) <= f(y) <= p_plus(y)

whose endpoints are the best bounds the existing lines impose through the
order: ``p_plus`` is the least value of ``f`` over span points sitting
above ``y`` in the cone order, ``p_minus`` the greatest over points sitting
below.  Over a polyhedral cone both reduce to one ray threshold per line
(:func:`orderunit.spaces.ray_thresholds`), so the interval is exact and
cheap.  Consistency of the given line values (the pairwise inequalities
that make the partial functional order-preserving on its span) is precisely
what guarantees ``p_minus <= p_plus``.  Every comparison of two values allows
one slack, ``TOL * (1 + size)`` for their size with the slope's share (``1e3``
at ``1e12``), so rounding refuses neither consistent data nor the engine's own
endpoints.  The one line test reads the same slack: a point is on a stored
line when the order-norm gap between their unit-scaled columns is within the
slack of the point's and the line's order norms, so points far along the unit
still find their lines; values merged onto one line may also differ by
``c * gap``, the most a functional of slope ``c`` moves over the gap.

A partial functional stores its lines once, stacked: ``X`` holds the origin
(the axis line) and then the base points, ``G`` their values and ``AT`` the
unit-scaled pairings ``R @ x_i``: every line in multiples of the unit along
each of the space's unit-scaled rows ``R`` (``OrderedSpace.unit_rows``),
one column per line.  By linearity the thresholds ``R @ (y - x_i)`` are
then ``R @ y - R @ x_i`` (equal in exact arithmetic, rounding differently),
so a query costs one ``R @ y`` and a subtraction against the stored
columns, and an extension step appends one column and its order norm
``max|R @ x|`` (kept in ``norms``).  Construction is one chunked block of
pairwise column differences, with no matvec per pair: the merge of points
onto lines reads the gaps ``max|a_i - a_k|`` from it and the consistency scan
the thresholds ``max(a_i - a_k)``, chunked over ``i`` so that no temporary
passes :data:`_BLOCK` items.  A line whose value or
pairings overflow would bound nothing, so it raises :class:`NonFiniteError`.
Results on a unit that is not interior are unspecified; where a row pairs
to zero with it, its unit-scaled row is not finite and every line is refused.

Beyond one-point and finite-list extension, :func:`canonical_extension`
turns the endpoint maps themselves into a total functional: both
``p_minus`` and the midpoint ``(p_minus + p_plus) / 2`` shift exactly along
the unit and grow with the cone order, so either choice is a total weakly
additive, order-preserving functional restricting to the given values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import Functional, PropertyReport
from .spaces import TOL, OrderedSpace, _finite, as_vec, matvecs


class NonFiniteError(ValueError):
    """A line value or unit-scaled pairing derived from finite input is not finite, so it would bound nothing."""


def _unit_component(space: OrderedSpace, v: np.ndarray) -> float:
    """Coefficient of ``v`` along the unit direction (orthogonal projection)."""
    u = space.unit
    return float(v @ u) / float(u @ u)


def canonicalize(space: OrderedSpace, v) -> tuple[np.ndarray, float]:
    """Representative of ``v`` modulo the unit line, plus the removed multiple.

    Two points lie on the same unit line iff their representatives agree;
    the representative of the axis line itself is the zero vector.
    """
    w = as_vec(v, space.dim)
    mu = _unit_component(space, w)
    return w - mu * space.unit, mu


_BLOCK = 1 << 17
"""Float64 items in one temporary block of the pairwise scans (1 MiB)."""


def _chunks(n: int, per_row: int):
    """Ranges ``(s, e)`` over ``n`` rows of ``per_row`` items each, as many rows
    a range as fit in one :data:`_BLOCK`, at least one."""
    step = max(1, _BLOCK // max(per_row, 1))
    return ((s, min(s + step, n)) for s in range(0, n, step))


@dataclass(frozen=True, eq=False)
class UnitSpan:
    """Finitely generated unit span: canonical base points, one per line.

    ``base`` has shape ``(m, dim)``; the axis line is always implied and not
    listed.  Base points arriving on the axis line or on an already listed
    line are merged away by :func:`partial_functional`.
    """

    space: OrderedSpace
    base: np.ndarray

    @property
    def m(self) -> int:
        return self.base.shape[0]


def _canonical_lines(space: OrderedSpace, points, values, unit_value: float):
    """Canonicalize points (adjusting values along), merge points on one line.

    Returns ``(base, vals)``.  Line 0 is the axis line.  Point ``i``, with
    multiple ``mu_i`` of the unit and unit-scaled column ``a_i``, is held by the
    axis line when ``max|a_i|`` is within the slack of ``|mu_i| + max|a_i|``, and
    by an earlier point ``k`` when their gap ``max|a_i - a_k|`` is finite and within
    the slack of ``|mu_i| + max|a_i| + |mu_k| + max|a_k|``.  Every gap and slack
    comes from one chunked block of pairwise column differences; only the points
    held by something then pass in order, joining the axis line first, else the
    first earlier point still kept that holds them.  A non-finite input raises,
    and so does a joining value that differs from the line's beyond ``c * gap``,
    the most a functional of slope ``c`` moves over the gap, plus the slack of
    the two values and ``c * mu``.
    """
    _finite("unit_value", unit_value)
    P = np.array([as_vec(p, space.dim) for p in points]).reshape(-1, space.dim)
    _finite("base_points", P)
    g = _finite("values", [float(v) for v in values])
    if len(g) != len(P):
        raise ValueError("one value per base point required")
    u, c, n = space.unit, abs(unit_value), len(P)
    kept, joins = np.ones(n, dtype=bool), []  # joins: (point, line held by, gap); line 0 is the axis line
    with np.errstate(over="ignore", invalid="ignore"):  # a gap that is not finite holds no point
        mus = matvecs(u[None], P)[:, 0] / float(u @ u)
        reps = P - mus[:, None] * u
        cols = matvecs(space.unit_rows, reps)
        G, mu_abs, norms = g - mus * unit_value, np.abs(mus), np.abs(cols).max(axis=1)
        size = mu_abs + norms
        on_axis = np.isfinite(norms) & (norms <= _slack(size))
        CT = np.ascontiguousarray(cols.T)
        for s, e in _chunks(n, CT.shape[0] * n):
            gap = np.abs(CT[:, s:e, None] - CT[:, None, :e]).max(axis=0)  # to every earlier point, and some later
            held = np.isfinite(gap) & (gap <= _slack((size[s:e, None] + mu_abs[:e]) + norms[:e]))
            held &= np.arange(e) < np.arange(s, e)[:, None]
            for r in np.flatnonzero(on_axis[s:e] | held.any(axis=1)):
                i = s + r
                if on_axis[i]:
                    kept[i] = False
                    joins.append((i, 0, norms[i]))
                    continue
                ks = np.flatnonzero(held[r, :i] & kept[:i])
                if ks.size:
                    kept[i] = False
                    joins.append((i, ks[0] + 1, gap[r, ks[0]]))
        if joins:
            i, k, gap = map(np.array, zip(*joins))
            G_k, g_k, mu_k = (np.concatenate([[0.0], x])[k] for x in (G, np.abs(g), mu_abs))
            conflict = np.abs(G_k - G[i]) > c * gap + _slack(g_k + np.abs(g[i]) + c * np.maximum(mu_k, mu_abs[i]))
            if conflict.any():
                i, k = int(i[conflict][0]), int(k[conflict][0])
                if k == 0:
                    raise ValueError(
                        f"value conflict on the axis line: point {P[i].tolist()} carries {float(g[i])}, "
                        f"but the unit slope forces {float(mus[i]) * unit_value}"
                    )
                raise ValueError(f"value conflict on a duplicate line: {G[k - 1]} vs {float(G[i])}")
    return reps[kept], G[kept]


@dataclass(frozen=True, eq=False)
class PartialFunctional:
    """Line values ``g_i = f(x_i)`` on a unit span, plus the slope ``c = f(unit)``.

    The lines are stacked: row 0 of ``X`` is the origin, standing for the
    axis line, and the rows after it are the canonical base points; ``G``
    holds their values, ``0`` first.  ``AT`` holds the unit-scaled pairings
    ``unit_rows @ x_i``, one column per line, ``norms`` each column's largest
    absolute entry (the order norm of ``x_i``), and ``_witness`` the first
    violated consistency inequality, or None.  Build instances with
    :func:`partial_functional`.  Strict construction (its default) rejects
    inconsistent data; diagnostic code can hold an inconsistent instance and
    inspect :func:`check_partial_consistency`, but the extension operations
    refuse to run on it.
    """

    space: OrderedSpace
    X: np.ndarray
    G: np.ndarray
    AT: np.ndarray
    norms: np.ndarray
    unit_value: float
    _witness: dict | None

    @property
    def consistent(self) -> bool:
        return self._witness is None

    @property
    def values(self) -> np.ndarray:
        """The base-line values, a view of ``G``."""
        return self.G[1:]

    @property
    def subspace(self) -> UnitSpan:
        """The span of the base lines, a view of ``X``."""
        return UnitSpan(space=self.space, base=self.X[1:])


def _from_lines(space: OrderedSpace, X: np.ndarray, G: np.ndarray, unit_value: float) -> PartialFunctional:
    """Partial functional over stacked lines: the unit-scaled pairings of
    every line, their norms and the full consistency scan.  A value or a
    pairing that is not finite raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        AT = np.ascontiguousarray(matvecs(space.unit_rows, X).T)
    if not (np.isfinite(AT).all() and np.isfinite(G).all()):
        raise NonFiniteError("a base line's value or unit-scaled pairing is not finite")
    norms = np.abs(AT).max(axis=0)
    return PartialFunctional(space, X, G, AT, norms, unit_value, _consistency_witness(AT, G, norms, unit_value))


def _spanned(pf: PartialFunctional, col: np.ndarray, size) -> bool:
    """Is the point of unit-scaled column ``col`` on a stored line of ``pf``: at a
    finite order-norm gap ``max|col - AT[:, k]|`` within the slack of ``size``
    (its ``|mu| + max|col|``) plus the line's ``max|AT[:, k]|``?  Call under ``np.errstate``."""
    gap = np.abs(col[:, None] - pf.AT).max(axis=0)
    return bool((np.isfinite(gap) & (gap <= _slack(size + pf.norms))).any())


def span_contains(pf: PartialFunctional, v) -> bool:
    """Is ``v`` on one of the stored lines of ``pf``, the axis line first (:func:`_spanned`)?"""
    rep, mu = canonicalize(pf.space, v)
    with np.errstate(over="ignore", invalid="ignore"):
        col = pf.space.unit_rows @ rep
        return _spanned(pf, col, abs(mu) + np.abs(col).max())


def partial_functional(
    space: OrderedSpace, points, values, unit_value: float, strict: bool = True
) -> PartialFunctional:
    """Build a partial functional, canonicalizing points and values together.

    With ``strict`` (default) the pairwise order-consistency of the data is
    required; pass ``strict=False`` to hold inconsistent data for diagnosis.
    """
    base, vals = _canonical_lines(space, points, values, unit_value)
    if unit_value < 0:
        raise ValueError("unit_value must be nonnegative (order preservation on the axis line)")
    X = np.vstack([np.zeros(space.dim), base])
    pf = _from_lines(space, X, np.concatenate([[0.0], vals]), float(unit_value))
    if strict and not pf.consistent:
        raise ValueError(f"inconsistent partial functional: {pf._witness}")
    return pf


def _slack(size):
    """``TOL * (1 + size)``: the one tolerance of every value comparison here."""
    return TOL * (1.0 + size)


def _consistency_witness(AT: np.ndarray, G: np.ndarray, norms: np.ndarray, c: float):
    """First violated pairwise inequality in row-major order, or None.

    Line ``j`` dominates line ``i`` once shifted up by the threshold
    ``t_ij = inf { t : x_j + t*unit >= x_i }``, the greatest entry of
    ``unit_rows @ (x_i - x_j)``, so the values must satisfy
    ``g_j + t_ij * c >= g_i`` up to the pair's slack, of the size
    ``|g_i| + |g_j| + c * max(a_i, a_j)`` with ``a_k = max|unit_rows @ x_k|``
    (``norms``).  The thresholds come from one chunked block of pairwise column
    differences, ``T[i, j] = max_r(AT[r, i] - AT[r, j])``; a chunk's pairs pass
    the least slack of any pair with their line ``i`` first, and only the pairs
    that fail it are held to their own slack.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(G)
        floor = G - _slack(size)  # below the least slack of any pair with line i
        for s, e in _chunks(len(G), AT.shape[0] * len(G)):
            T = (AT[:, s:e, None] - AT[:, None, :]).max(axis=0)
            h = G + T * c
            r, j = np.nonzero(h < floor[s:e, None])
            i = r + s
            fails = np.flatnonzero(h[r, j] < G[i] - _slack(size[i] + size[j] + c * np.maximum(norms[i], norms[j])))
            if fails.size:
                r, i, j = r[fails[0]], int(i[fails[0]]), int(j[fails[0]])
                return {"line_i": i, "line_j": j, "threshold": float(T[r, j]),
                        "g_i": float(G[i]), "g_j": float(G[j]), "slope": float(c)}
    return None


def check_partial_consistency(pf: PartialFunctional) -> PropertyReport:
    """Report on the pairwise order-consistency inequalities of ``pf``: the
    witness found at construction."""
    k = len(pf.G)
    return PropertyReport(
        name="partial_consistency", passed=pf.consistent, samples=max(k * (k - 1), 1), witness=pf._witness
    )


@dataclass(frozen=True)
class ExtensionInterval:
    """Admissible value interval ``[p_minus, p_plus]`` at one target point."""

    p_minus: float
    p_plus: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.p_minus + self.p_plus)

    @property
    def width(self) -> float:
        return self.p_plus - self.p_minus


def _fold_min(v: np.ndarray) -> float:
    """``min(inf, v_0, v_1, ...)`` as Python folds it: NaN never wins, ties keep the first."""
    least = v.min()
    if least != 0 and least == least:  # neither zero nor NaN, so every tie has the same bits
        return float(least)
    v = np.where(np.isnan(v), np.inf, v)
    return float(v[np.argmin(v)])


def _thresholds(pf: PartialFunctional, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per stored line, the least and greatest entry of ``r - unit_rows @ x_i``; call under ``np.errstate``."""
    t = r[:, None] - pf.AT
    return t.min(axis=0), t.max(axis=0)


def extension_interval(pf: PartialFunctional, y) -> ExtensionInterval:
    """Exact admissible interval for ``f(y)``.

    Per line ``i``, the part of the line above ``y`` starts at the ray
    threshold ``lambda_plus(x_i, y)`` and the part below ends at
    ``lambda_minus(x_i, y)``; the interval endpoints are the min/max of the
    corresponding line values.  Consistency of ``pf`` makes the interval
    nonempty; endpoints crossed within the slack of the two lines that set them,
    plus ``c * max|unit_rows @ y|`` for the query, are rounding and are returned.
    """
    if not pf.consistent:
        raise ValueError("extension requires a consistent partial functional")
    y = as_vec(y, pf.space.dim)
    G, c = pf.G, pf.unit_value
    with np.errstate(over="ignore", invalid="ignore"):
        ry = pf.space.unit_rows @ y
        lo_t, hi_t = _thresholds(pf, ry)
        above, below = G + c * hi_t, G + c * lo_t
        p_plus, p_minus = _fold_min(above), -_fold_min(-below)
        if p_minus > p_plus:
            a, b = np.flatnonzero(above == p_plus)[0], np.flatnonzero(below == p_minus)[0]
            size = abs(G[a]) + abs(G[b]) + c * (np.abs(pf.AT[:, [a, b]]).max() + np.abs(ry).max())
            if p_minus > p_plus + _slack(size):
                raise ValueError(f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent")
    return ExtensionInterval(p_minus=float(p_minus), p_plus=float(p_plus))


_RULES = ("lower", "upper", "midpoint", "given")
_OUTSIDE = "value {} outside the admissible interval [{}, {}]"


def _pick_value(interval: ExtensionInterval, rule: str, value) -> float:
    if rule == "lower":
        return interval.p_minus
    if rule == "upper":
        return interval.p_plus
    if rule == "midpoint":
        return interval.midpoint
    if rule == "given":
        if value is None:
            raise ValueError("rule 'given' requires a value")
        p = float(value)
        if not math.isfinite(p):  # no line value, so in no interval
            raise ValueError(_OUTSIDE.format(p, interval.p_minus, interval.p_plus))
        return p
    raise ValueError(f"unknown extension rule {rule!r}; expected one of {_RULES}")


def _step(pf: PartialFunctional, y, rule: str, value):
    """One extension step: None for a target already in the span of ``pf``,
    else ``(extended, interval, chosen value)``.

    ``y`` is canonicalized once: its representative ``rep``, multiple ``mu`` of the
    unit and column ``unit_rows @ rep`` serve the span test, the stored value and
    the new column.  The rule picks ``p`` in the interval at ``y``, stored as
    ``g = p - mu * c`` on the line of ``rep`` and checked there with each pair's
    slack, as the scan checks the new pairs.  A ``given`` value that fails raises; another
    rule's value fails only by the rounding of ``mu * c`` far along the unit, and is
    moved into the bounds at ``rep``.  Non-finite lines and empty intervals raise.
    """
    y = as_vec(y, pf.space.dim)
    rep, mu = canonicalize(pf.space, y)
    with np.errstate(over="ignore", invalid="ignore"):
        col = pf.space.unit_rows @ rep
        norm = np.abs(col).max()
        if _spanned(pf, col, abs(mu) + norm):
            return None
    interval = extension_interval(pf, y)
    p = _pick_value(interval, rule, value)
    G, c = pf.G, pf.unit_value
    g = p - mu * c
    with np.errstate(over="ignore", invalid="ignore"):
        if not (math.isfinite(g) and np.isfinite(col).all()):
            raise NonFiniteError(f"target {y.tolist()}: its line value or a unit-scaled pairing is not finite")
        lo_t, hi_t = _thresholds(pf, col)
        above, below = G + hi_t * c, g - lo_t * c  # the scan's sides of the pairs (new, j) and (j, new)
        s = _slack(abs(g))  # below the slack of every pair with the new line
        if ((above < g - s) | (below < G - s)).any():
            s = _slack(abs(g) + np.abs(G) + c * np.maximum(norm, pf.norms))
            if ((above < g - s) | (below < G - s)).any():
                if rule == "given":
                    raise ValueError(_OUTSIDE.format(p, interval.p_minus, interval.p_plus))
                lo, hi = -_fold_min(-(G + c * lo_t)), _fold_min(G + c * hi_t)
                if lo > hi:  # crossed within the slacks: take the middle of what they admit
                    lo = hi = 0.5 * (_fold_min(above + s) - _fold_min(s - (G + c * lo_t)))
                g = min(max(g, lo), hi)
    X, AT = np.vstack([pf.X, rep]), np.column_stack([pf.AT, col])
    return PartialFunctional(pf.space, X, np.append(G, g), AT, np.append(pf.norms, norm), c, None), interval, p


def extend_one(pf: PartialFunctional, y, rule: str = "midpoint", value=None) -> PartialFunctional:
    """Extend ``pf`` by one point off its span; the restriction to the old
    lines is untouched and the result stays consistent."""
    step = _step(pf, y, rule, value)
    if step is None:
        raise ValueError("target point already lies in the span")
    return step[0]


def extend_all(pf: PartialFunctional, ys, rule: str = "midpoint", value=None) -> PartialFunctional:
    """Fold :func:`extend_one` over the targets, skipping points already spanned.

    The fold order matters with the midpoint rule: earlier choices narrow
    later intervals.  Any order yields a consistent result.
    """
    for y in ys:
        step = _step(pf, y, rule, value)
        if step is not None:
            pf = step[0]
    return pf


def canonical_extension(pf: PartialFunctional, mode: str = "midpoint") -> Functional:
    """Total weakly additive, order-preserving functional extending ``pf``.

    ``mode='lower'`` evaluates the lower endpoint map ``p_minus``;
    ``mode='midpoint'`` averages both endpoints.  Both shift exactly along
    the unit and are monotone in the cone order, and both return the stored
    value on every base line.
    """
    if mode not in ("lower", "midpoint"):
        raise ValueError("mode must be 'lower' or 'midpoint'")
    if not pf.consistent:
        raise ValueError("extension requires a consistent partial functional")

    endpoint = "p_minus" if mode == "lower" else "midpoint"

    def _eval(x):
        return getattr(extension_interval(pf, x), endpoint)

    return Functional(space=pf.space, kind="extended", fn=_eval)


def partial_from_json(space: OrderedSpace, obj: dict, strict: bool = True) -> PartialFunctional:
    """Build from ``{"base_points": [[...]], "values": [...], "unit_value": c}``."""
    try:
        points = obj.get("base_points", [])
        values = obj.get("values", [])
        c = float(obj["unit_value"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad partial-functional descriptor: {exc}") from exc
    return partial_functional(space, points, values, c, strict=strict)


def partial_to_json(pf: PartialFunctional) -> dict:
    return {
        "base_points": pf.subspace.base.tolist(),
        "values": pf.values.tolist(),
        "unit_value": pf.unit_value,
    }
