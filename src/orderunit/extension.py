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
columns, the consistency scan subtracts stored columns with no matvec per
pair, and an extension step appends one column.  A line whose value or
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


def _line_gaps(AT: np.ndarray, a: np.ndarray, size):
    """The order-norm gap ``max|a - AT[:, k]|`` from the unit-scaled column ``a``
    to each stored line ``k``, and which lines hold it: those at a finite gap
    within the slack of ``size`` plus ``max|AT[:, k]|``.  Call under ``np.errstate``."""
    gap = np.abs(a[:, None] - AT).max(axis=0)
    return gap, np.isfinite(gap) & (gap <= _slack(size + np.abs(AT).max(axis=0)))


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

    Returns ``(base, vals)``.  Line 0 is the axis line.  A point joins the first
    line that holds it (:func:`_line_gaps`, the size being its ``|mu| + max|R rep|``
    plus the kept point's ``|mu|``), else starts a line.  A non-finite input raises,
    and so does a joining value that differs from the line's beyond ``c * gap``,
    the most a functional of slope ``c`` moves over the gap, plus the slack of
    the two values and ``c * mu``.
    """
    _finite("unit_value", unit_value)
    P = np.array([as_vec(p, space.dim) for p in points]).reshape(-1, space.dim)
    _finite("base_points", P)
    vals = [float(v) for v in values]
    _finite("values", vals)
    if len(vals) != len(P):
        raise ValueError("one value per base point required")
    u, c, n, keep = space.unit, abs(unit_value), 1, []
    AT = np.zeros((space.unit_rows.shape[0], len(P) + 1))
    G, g_read, mu_read = np.zeros((3, len(P) + 1))  # per line, its value and the |value| and |mu| it was read from
    with np.errstate(over="ignore", invalid="ignore"):  # a gap that is not finite holds no point
        mus = matvecs(u[None], P)[:, 0] / float(u @ u)
        reps = P - mus[:, None] * u
        cols = matvecs(space.unit_rows, reps)
        for i, (a, g) in enumerate(zip(cols, vals)):
            mu = float(mus[i])
            g_rep = g - mu * unit_value
            gap, on = _line_gaps(AT[:, :n], a, abs(mu) + np.abs(a).max() + mu_read[:n])
            if on.any():
                k = int(np.argmax(on))
                if abs(G[k] - g_rep) > c * gap[k] + _slack(g_read[k] + abs(g) + c * max(mu_read[k], abs(mu))):
                    if k == 0:
                        raise ValueError(
                            f"value conflict on the axis line: point {P[i].tolist()} carries {g}, "
                            f"but the unit slope forces {mu * unit_value}"
                        )
                    raise ValueError(f"value conflict on a duplicate line: {G[k]} vs {g_rep}")
                continue
            AT[:, n], G[n], g_read[n], mu_read[n] = a, g_rep, abs(g), abs(mu)
            keep.append(i)
            n += 1
    return reps[keep], G[1:n]


@dataclass(frozen=True, eq=False)
class PartialFunctional:
    """Line values ``g_i = f(x_i)`` on a unit span, plus the slope ``c = f(unit)``.

    The lines are stacked: row 0 of ``X`` is the origin, standing for the
    axis line, and the rows after it are the canonical base points; ``G``
    holds their values, ``0`` first.  ``AT`` holds the unit-scaled pairings
    ``unit_rows @ x_i``, one column per line, and ``_witness`` the first violated
    consistency inequality, or None.  Build instances with
    :func:`partial_functional`.  Strict construction (its default) rejects
    inconsistent data; diagnostic code can hold an inconsistent instance and
    inspect :func:`check_partial_consistency`, but the extension operations
    refuse to run on it.
    """

    space: OrderedSpace
    X: np.ndarray
    G: np.ndarray
    AT: np.ndarray
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
    every line and the full consistency scan.  A value or a pairing that is
    not finite raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        AT = np.ascontiguousarray(matvecs(space.unit_rows, X).T)
    if not (np.isfinite(AT).all() and np.isfinite(G).all()):
        raise NonFiniteError("a base line's value or unit-scaled pairing is not finite")
    return PartialFunctional(space, X, G, AT, unit_value, _consistency_witness(AT, G, unit_value))


def span_contains(pf: PartialFunctional, v) -> bool:
    """Is ``v`` on one of the stored lines of ``pf``, the axis line first (:func:`_line_gaps`)?"""
    rep, mu = canonicalize(pf.space, v)
    with np.errstate(over="ignore", invalid="ignore"):
        a = pf.space.unit_rows @ rep
        return bool(_line_gaps(pf.AT, a, abs(mu) + np.abs(a).max())[1].any())


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


def _consistency_witness(AT: np.ndarray, G: np.ndarray, c: float):
    """First violated pairwise inequality, or None.

    Line ``j`` dominates line ``i`` once shifted up by the threshold
    ``t_ij = inf { t : x_j + t*unit >= x_i }``, the greatest entry of
    ``unit_rows @ (x_i - x_j)``, so the values must satisfy
    ``g_j + t_ij * c >= g_i`` up to the pair's slack, of the size
    ``|g_i| + |g_j| + c * max(a_i, a_j)`` with ``a_k = max|unit_rows @ x_k|``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, size = np.abs(AT).max(axis=0), np.abs(G)
        floor = G - _slack(size)  # below the least slack of any pair with line i
        for i in range(len(G)):
            t = (AT[:, i : i + 1] - AT).max(axis=0)
            h = G + t * c
            js = np.flatnonzero(h < floor[i])
            if js.size:
                js = js[h[js] < G[i] - _slack(size[i] + size[js] + c * np.maximum(a[i], a[js]))]
                if js.size:
                    j = int(js[0])
                    return {"line_i": i, "line_j": j, "threshold": float(t[j]),
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

    The rule picks ``p`` in the interval at ``y``, stored as ``g = p - mu * c`` on the
    line of ``y``'s representative ``rep`` and checked there with each pair's slack,
    as the scan checks the new pairs.  A ``given`` value that fails raises; another
    rule's value fails only by the rounding of ``mu * c`` far along the unit, and is
    moved into the bounds at ``rep``.  Non-finite lines and empty intervals raise.
    """
    y = as_vec(y, pf.space.dim)
    if span_contains(pf, y):
        return None
    interval = extension_interval(pf, y)
    p = _pick_value(interval, rule, value)
    rep, mu = canonicalize(pf.space, y)
    G, c = pf.G, pf.unit_value
    g = p - mu * c
    with np.errstate(over="ignore", invalid="ignore"):
        col = pf.space.unit_rows @ rep
        if not (math.isfinite(g) and np.isfinite(col).all()):
            raise NonFiniteError(f"target {y.tolist()}: its line value or a unit-scaled pairing is not finite")
        lo_t, hi_t = _thresholds(pf, col)
        above, below = G + hi_t * c, g - lo_t * c  # the scan's sides of the pairs (new, j) and (j, new)
        s = _slack(abs(g))  # below the slack of every pair with the new line
        if ((above < g - s) | (below < G - s)).any():
            s = _slack(abs(g) + np.abs(G) + c * np.maximum(np.abs(col).max(), np.abs(pf.AT).max(axis=0)))
            if ((above < g - s) | (below < G - s)).any():
                if rule == "given":
                    raise ValueError(_OUTSIDE.format(p, interval.p_minus, interval.p_plus))
                lo, hi = -_fold_min(-(G + c * lo_t)), _fold_min(G + c * hi_t)
                if lo > hi:  # crossed within the slacks: take the middle of what they admit
                    lo = hi = 0.5 * (_fold_min(above + s) - _fold_min(s - (G + c * lo_t)))
                g = min(max(g, lo), hi)
    X, AT = np.vstack([pf.X, rep]), np.column_stack([pf.AT, col])
    return PartialFunctional(pf.space, X, np.append(G, g), AT, c, None), interval, p


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
