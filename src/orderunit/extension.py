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

Beyond one-point and finite-list extension, :func:`canonical_extension`
turns the endpoint maps themselves into a total functional: both
``p_minus`` and the midpoint ``(p_minus + p_plus) / 2`` shift exactly along
the unit and grow with the cone order, so either choice is a total weakly
additive, order-preserving functional restricting to the given values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functionals import Functional, PropertyReport
from .spaces import TOL, OrderedSpace, _finite, as_vec, matvecs


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


def _is_zero(space: OrderedSpace, v: np.ndarray, tol: float):
    """Zero test along the last axis: one verdict per vector."""
    scale = 1.0 + float(np.max(np.abs(space.unit)))
    return np.max(np.abs(v), axis=-1) <= tol * scale


@dataclass(frozen=True, eq=False)
class UnitSpan:
    """Finitely generated unit span: canonical base points, one per line.

    ``base`` has shape ``(m, dim)``; the axis line is always implied and not
    listed.  Base points arriving on the axis line or on an already listed
    line are merged away at construction.
    """

    space: OrderedSpace
    base: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.base, dtype=float).reshape(-1, self.space.dim)
        object.__setattr__(self, "base", pts)

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
        if _is_zero(space, rep, TOL):
            # the point sits on the axis line, where the value is forced
            if abs(g_rep) > 1e-7:
                raise ValueError(
                    f"value conflict on the axis line: point {p.tolist()} carries {g}, "
                    f"but the unit slope forces {mu * unit_value}"
                )
            continue
        dup = np.flatnonzero(_is_zero(space, rep - base[: len(out_vals)], TOL))
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


def span_contains(span: UnitSpan, v, tol: float = TOL) -> bool:
    """Is ``v`` on the axis line or on one of the base lines?"""
    rep, _ = canonicalize(span.space, v)
    return bool(_is_zero(span.space, rep, tol) or np.any(_is_zero(span.space, rep - span.base, tol)))


@dataclass(frozen=True, eq=False)
class PartialFunctional:
    """Line values ``g_i = f(x_i)`` on a unit span, plus the slope ``c = f(unit)``.

    ``consistent`` caches the pairwise order-consistency verdict computed at
    construction.  Strict construction (the default of
    :func:`partial_functional`) rejects inconsistent data; diagnostic code
    can hold an inconsistent instance and inspect
    :func:`check_partial_consistency`, but the extension operations refuse
    to run on it.
    """

    subspace: UnitSpan
    values: np.ndarray
    unit_value: float
    X: np.ndarray = field(init=False, repr=False)  # origin (axis line), then base points
    G: np.ndarray = field(init=False, repr=False)  # their values: 0, then ``values``
    _witness: dict | None = field(init=False, repr=False)  # first violated inequality at ``TOL``
    consistent: bool = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.shape[0] != self.subspace.m:
            raise ValueError("one value per base line required")
        if self.unit_value < 0:
            raise ValueError("unit_value must be nonnegative (order preservation on the axis line)")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "unit_value", float(self.unit_value))
        object.__setattr__(self, "X", np.vstack([np.zeros(self.space.dim), self.subspace.base]))
        object.__setattr__(self, "G", np.concatenate([[0.0], vals]))
        object.__setattr__(self, "_witness", _consistency_witness(self))
        object.__setattr__(self, "consistent", self._witness is None)

    @property
    def space(self) -> OrderedSpace:
        return self.subspace.space

    @classmethod
    def _stacked(cls, space: OrderedSpace, X: np.ndarray, G: np.ndarray, unit_value: float, witness):
        """Instance over already stacked lines whose witness is known, bypassing ``__post_init__``."""
        pf = object.__new__(cls)
        for name, value in (
            ("subspace", UnitSpan(space=space, base=X[1:])),
            ("values", G[1:]),
            ("unit_value", unit_value),
            ("X", X),
            ("G", G),
            ("_witness", witness),
            ("consistent", witness is None),
        ):
            object.__setattr__(pf, name, value)
        return pf


def partial_functional(
    space: OrderedSpace, points, values, unit_value: float, strict: bool = True
) -> PartialFunctional:
    """Build a partial functional, canonicalizing points and values together.

    With ``strict`` (default) the pairwise order-consistency of the data is
    required; pass ``strict=False`` to hold inconsistent data for diagnosis.
    """
    base, vals = _canonical_lines(space, points, values, unit_value)
    pf = PartialFunctional(subspace=UnitSpan(space=space, base=base), values=vals, unit_value=unit_value)
    if strict and not pf.consistent:
        raise ValueError(f"inconsistent partial functional: {pf._witness}")
    return pf


def _thresholds(space: OrderedSpace, d: np.ndarray) -> np.ndarray:
    """The ratios of :func:`orderunit.spaces.ray_thresholds`, one row per row ``d_i``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return matvecs(space.cone.rows, d) / space.unit_pairings


def _consistency_witness(pf: PartialFunctional, tol: float = TOL):
    """First violated pairwise inequality, or None.

    Line ``j`` dominates line ``i`` once shifted up by the threshold
    ``t_ij = inf { t : x_j + t*unit >= x_i }``, so the values must satisfy
    ``g_j + t_ij * c >= g_i``.
    """
    X, G = pf.X, pf.G
    c = pf.unit_value
    for i in range(len(G)):
        t = _thresholds(pf.space, X[i] - X).max(axis=1)
        with np.errstate(invalid="ignore"):
            violated = G + t * c < G[i] - tol
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


def _last_line_witness(space: OrderedSpace, X: np.ndarray, G: np.ndarray, c: float):
    """First violated inequality at ``TOL`` that involves the last line, in the
    order of :func:`_consistency_witness`.

    When every pair among the other lines holds, this is the witness the full
    scan returns: row ``i < k`` can fail only in column ``k``, so the column
    comes first and row ``k`` after it.
    """
    k = len(G) - 1
    with np.errstate(invalid="ignore"):
        t = _thresholds(space, X[:k] - X[k]).max(axis=1)  # t_ik, i < k
        hits = np.flatnonzero(G[k] + t * c < G[:k] - TOL)
        if hits.size:
            return _violation(G, c, int(hits[0]), k, t[hits[0]])
        t = _thresholds(space, X[k] - X[:k]).max(axis=1)  # t_kj, j < k
        hits = np.flatnonzero(G[:k] + t * c < G[k] - TOL)
        if hits.size:
            return _violation(G, c, k, int(hits[0]), t[hits[0]])
    return None


def check_partial_consistency(pf: PartialFunctional, tol: float = TOL) -> PropertyReport:
    """Report on the pairwise order-consistency inequalities of ``pf``.

    At the default ``tol`` this is the witness found at construction.
    """
    witness = pf._witness if tol == TOL else _consistency_witness(pf, tol)
    n_pairs = (pf.subspace.m + 1) * pf.subspace.m
    return PropertyReport(
        name="partial_consistency", passed=witness is None, samples=max(n_pairs, 1), witness=witness
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
    v = np.where(np.isnan(v), np.inf, v)
    return float(v[np.argmin(v)])


def extension_interval(pf: PartialFunctional, y, tol: float = TOL) -> ExtensionInterval:
    """Exact admissible interval for ``f(y)``.

    Per line ``i``, the part of the line above ``y`` starts at the ray
    threshold ``lambda_plus(x_i, y)`` and the part below ends at
    ``lambda_minus(x_i, y)``; the interval endpoints are the min/max of the
    corresponding line values.  Consistency of ``pf`` makes the interval
    nonempty.
    """
    if not pf.consistent:
        raise ValueError("extension requires a consistent partial functional")
    ratios = _thresholds(pf.space, as_vec(y, pf.space.dim) - pf.X)
    c = pf.unit_value
    with np.errstate(invalid="ignore"):
        p_plus = _fold_min(pf.G + c * ratios.max(axis=1))
        p_minus = -_fold_min(-(pf.G + c * ratios.min(axis=1)))
    if p_minus > p_plus + tol:
        raise ValueError(
            f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent"
        )
    return ExtensionInterval(p_minus=float(p_minus), p_plus=float(p_plus))


_RULES = ("lower", "upper", "midpoint", "given")


def _pick_value(interval: ExtensionInterval, rule: str, value, tol: float) -> float:
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
        if not interval.p_minus - tol <= p <= interval.p_plus + tol:  # NaN is outside too
            raise ValueError(
                f"value {p} outside the admissible interval [{interval.p_minus}, {interval.p_plus}]"
            )
        return p
    raise ValueError(f"unknown extension rule {rule!r}; expected one of {_RULES}")


def _step(pf: PartialFunctional, y, rule: str, value, tol: float):
    """One extension step: None for a target already in the span of ``pf``,
    else ``(extended, interval, chosen value)``.

    An empty interval raises as :func:`extension_interval` does; so do a
    value the rule cannot pick and a new line that breaks consistency.  The
    stored lines are carried over as they are; only the inequalities
    between them and the new line are evaluated, since the others hold
    already in the consistent ``pf``.
    """
    y = as_vec(y, pf.space.dim)
    if span_contains(pf.subspace, y, tol):
        return None
    interval = extension_interval(pf, y, tol)
    p = _pick_value(interval, rule, value, tol)
    rep, mu = canonicalize(pf.space, y)
    X = np.vstack([pf.X, rep])
    G = np.append(pf.G, p - mu * pf.unit_value)
    witness = _last_line_witness(pf.space, X, G, pf.unit_value)
    if witness is not None:
        raise ValueError(f"inconsistent partial functional: {witness}")
    return PartialFunctional._stacked(pf.space, X, G, pf.unit_value, witness), interval, p


def extend_one(
    pf: PartialFunctional, y, rule: str = "midpoint", value=None, tol: float = TOL
) -> PartialFunctional:
    """Extend ``pf`` by one point off its span; the restriction to the old
    lines is untouched and the result stays consistent."""
    step = _step(pf, y, rule, value, tol)
    if step is None:
        raise ValueError("target point already lies in the span")
    return step[0]


def extend_all(pf: PartialFunctional, ys, rule: str = "midpoint", value=None, tol: float = TOL) -> PartialFunctional:
    """Fold :func:`extend_one` over the targets, skipping points already spanned.

    The fold order matters with the midpoint rule: earlier choices narrow
    later intervals.  Any order yields a consistent result.
    """
    for y in ys:
        step = _step(pf, y, rule, value, tol)
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
