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
what guarantees ``p_minus <= p_plus``.

A partial functional stores its lines once, stacked: ``X`` holds the origin
(the axis line) and then the base points, ``G`` their values and ``AT`` the
unit-scaled pairings ``R @ x_i``: every line in multiples of the unit along
each of the space's unit-scaled rows ``R`` (``OrderedSpace.unit_rows``),
one column per line.  Its ``values`` and ``subspace`` are views of ``G``
and ``X``.  By linearity the thresholds ``R @ (y - x_i)`` are then
``R @ y - R @ x_i``, so a query costs one ``R @ y`` and a subtraction
against the stored columns, the consistency scan subtracts stored columns
with no matvec per pair, and an extension step appends one column.  The
two forms are equal in exact arithmetic but round differently, by a few
units in the last place of the larger term.  A line whose value or pairings overflow would bound nothing,
so it is refused with :class:`NonFiniteError`.  Results on a unit that is
not interior are unspecified; where a row pairs to zero with it, its
unit-scaled row is not finite and every line is refused.

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


def _is_zero(space: OrderedSpace, v: np.ndarray):
    """Zero test at ``TOL`` along the last axis: one verdict per vector."""
    scale = 1.0 + float(np.max(np.abs(space.unit)))
    return np.max(np.abs(v), axis=-1) <= TOL * scale


def _on_lines(space: OrderedSpace, rep: np.ndarray, base: np.ndarray):
    """Does representative ``rep`` lie on the line of each row of ``base``?"""
    with np.errstate(over="ignore"):  # a difference that overflows is no zero
        return _is_zero(space, rep - base)


@dataclass(frozen=True, eq=False)
class UnitSpan:
    """Finitely generated unit span: canonical base points, one per line.

    ``base`` has shape ``(m, dim)``; the axis line is always implied and not
    listed.  Base points arriving on the axis line or on an already listed
    line are merged away by :func:`unit_span`.
    """

    space: OrderedSpace
    base: np.ndarray

    @property
    def m(self) -> int:
        return self.base.shape[0]


def _canonical_lines(space: OrderedSpace, points, values, unit_value: float):
    """Canonicalize points (adjusting values along), merge duplicate lines.

    Returns ``(base, vals)``.  A non-finite input or a value conflict between
    merged duplicates raises.
    """
    _finite("unit_value", unit_value)
    pts = [as_vec(p, space.dim) for p in points]
    _finite("base_points", pts)
    vals = [float(v) for v in values]
    _finite("values", vals)
    if len(vals) != len(pts):
        raise ValueError("one value per base point required")
    base = np.empty((len(pts), space.dim))
    out_vals = []
    for p, g in zip(pts, vals):
        rep, mu = canonicalize(space, p)
        g_rep = g - mu * unit_value
        if _is_zero(space, rep):
            # the point sits on the axis line, where the value is forced
            if abs(g_rep) > 1e-7:
                raise ValueError(
                    f"value conflict on the axis line: point {p.tolist()} carries {g}, "
                    f"but the unit slope forces {mu * unit_value}"
                )
            continue
        dup = np.flatnonzero(_on_lines(space, rep, base[: len(out_vals)]))
        if dup.size:
            if abs(out_vals[dup[0]] - g_rep) > 1e-7:
                raise ValueError(
                    f"value conflict on a duplicate line: {out_vals[dup[0]]} vs {g_rep}"
                )
            continue
        base[len(out_vals)] = rep
        out_vals.append(g_rep)
    return base[: len(out_vals)], np.array(out_vals)


def unit_span(space: OrderedSpace, points=()) -> UnitSpan:
    """Span of the given points; ``points=()`` is the bare axis line."""
    base, _ = _canonical_lines(space, points, np.zeros(len(points)), 0.0)
    return UnitSpan(space=space, base=base)


def span_contains(span: UnitSpan, v) -> bool:
    """Is ``v`` on the axis line or on one of the base lines?"""
    rep, _ = canonicalize(span.space, v)
    return bool(_is_zero(span.space, rep) or np.any(_on_lines(span.space, rep, span.base)))


@dataclass(frozen=True, eq=False)
class PartialFunctional:
    """Line values ``g_i = f(x_i)`` on a unit span, plus the slope ``c = f(unit)``.

    The lines are stacked: row 0 of ``X`` is the origin, standing for the
    axis line, and the rows after it are the canonical base points; ``G``
    holds their values, ``0`` first.  ``AT`` holds the unit-scaled pairings
    ``unit_rows @ x_i``, one column per line, and ``_witness`` the first violated
    consistency inequality at ``TOL``, or None.  Build instances with
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


def _consistency_witness(AT: np.ndarray, G: np.ndarray, c: float):
    """First violated pairwise inequality at ``TOL``, or None.

    Line ``j`` dominates line ``i`` once shifted up by the threshold
    ``t_ij = inf { t : x_j + t*unit >= x_i }``, the greatest entry of
    ``unit_rows @ (x_i - x_j)``, so the values must satisfy
    ``g_j + t_ij * c >= g_i``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(G)):
            t = (AT[:, i : i + 1] - AT).max(axis=0)
            violated = G + t * c < G[i] - TOL
            violated[i] = False
            js = np.flatnonzero(violated)
            if js.size:
                return _violation(G, c, i, int(js[0]), t[js[0]])
    return None


def _violation(G: np.ndarray, c: float, i: int, j: int, t_ij) -> dict:
    return {
        "line_i": i,
        "line_j": j,
        "threshold": float(t_ij),
        "g_i": float(G[i]),
        "g_j": float(G[j]),
        "slope": float(c),
    }


def _last_line_witness(AT: np.ndarray, G: np.ndarray, c: float):
    """First violated inequality at ``TOL`` that involves the last line, in the
    order of :func:`_consistency_witness`.

    When every pair among the other lines holds, this is the witness the full
    scan returns: row ``i < k`` can fail only in column ``k``, so the column
    comes first and row ``k`` after it.
    """
    k = len(G) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        t = (AT[:, :k] - AT[:, k:]).max(axis=0)  # t_ik, i < k
        hits = np.flatnonzero(G[k] + t * c < G[:k] - TOL)
        if hits.size:
            return _violation(G, c, int(hits[0]), k, t[hits[0]])
        t = (AT[:, k:] - AT[:, :k]).max(axis=0)  # t_kj, j < k
        hits = np.flatnonzero(G[:k] + t * c < G[k] - TOL)
        if hits.size:
            return _violation(G, c, k, int(hits[0]), t[hits[0]])
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


def extension_interval(pf: PartialFunctional, y) -> ExtensionInterval:
    """Exact admissible interval for ``f(y)``.

    Per line ``i``, the part of the line above ``y`` starts at the ray
    threshold ``lambda_plus(x_i, y)`` and the part below ends at
    ``lambda_minus(x_i, y)``; the interval endpoints are the min/max of the
    corresponding line values.  Consistency of ``pf`` makes the interval
    nonempty.
    """
    if not pf.consistent:
        raise ValueError("extension requires a consistent partial functional")
    y = as_vec(y, pf.space.dim)
    c = pf.unit_value
    with np.errstate(over="ignore", invalid="ignore"):
        t = (pf.space.unit_rows @ y)[:, None] - pf.AT
        p_plus = _fold_min(pf.G + c * t.max(axis=0))
        p_minus = -_fold_min(-(pf.G + c * t.min(axis=0)))
    if p_minus > p_plus + TOL:
        raise ValueError(
            f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent"
        )
    return ExtensionInterval(p_minus=float(p_minus), p_plus=float(p_plus))


_RULES = ("lower", "upper", "midpoint", "given")


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
        if not interval.p_minus - TOL <= p <= interval.p_plus + TOL:  # NaN is outside too
            raise ValueError(
                f"value {p} outside the admissible interval [{interval.p_minus}, {interval.p_plus}]"
            )
        return p
    raise ValueError(f"unknown extension rule {rule!r}; expected one of {_RULES}")


def _step(pf: PartialFunctional, y, rule: str, value):
    """One extension step: None for a target already in the span of ``pf``,
    else ``(extended, interval, chosen value)``.

    An empty interval raises as :func:`extension_interval` does; so do a
    value the rule cannot pick, a new line that breaks consistency and, as
    :class:`NonFiniteError`, a new line whose value or unit-scaled pairings
    are not finite.  The stored lines are carried over as they are; only the
    inequalities between them and the new line are evaluated, since the
    others hold already in the consistent ``pf``.
    """
    y = as_vec(y, pf.space.dim)
    if span_contains(pf.subspace, y):
        return None
    interval = extension_interval(pf, y)
    p = _pick_value(interval, rule, value)
    rep, mu = canonicalize(pf.space, y)
    g = p - mu * pf.unit_value
    with np.errstate(over="ignore", invalid="ignore"):
        col = pf.space.unit_rows @ rep
    if not (math.isfinite(g) and np.isfinite(col).all()):
        raise NonFiniteError(f"target {y.tolist()}: its line value or a unit-scaled pairing is not finite")
    G = np.append(pf.G, g)
    AT = np.column_stack([pf.AT, col])
    witness = _last_line_witness(AT, G, pf.unit_value)
    if witness is not None:
        raise ValueError(f"inconsistent partial functional: {witness}")
    return PartialFunctional(pf.space, np.vstack([pf.X, rep]), G, AT, pf.unit_value, None), interval, p


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
