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
endpoints.

A line is stored by the point that introduced it, exactly as given (a data
point or an extension target), with its given value: ``f`` is fixed on the
line by any one of its points and the slope, so no representative is needed.
A partial functional stacks its lines: ``X`` holds the origin (the axis line)
and then the base points, ``GS`` their values once as the signed pair
``[G; -G]`` and ``AT`` the unit-scaled pairings ``R @ x_i``: every point in
multiples of the unit along each of the space's unit-scaled rows ``R``
(``OrderedSpace.unit_rows``), one column per line, with the order norms
``max|R @ x_i|`` in ``norms``.  By linearity the thresholds ``R @ (y - x_i)``
are then ``R @ y - R @ x_i`` (equal in exact arithmetic, rounding
differently), so a query costs one ``R @ y`` and a subtraction against the
stored columns.  Since ``R @ unit`` is all ones, the
order-norm distance from ``y`` to the line of ``x_i`` is half the spread
``max t - min t`` of those thresholds ``t``.  The one line test, for span
membership and merging alike, holds a point on a line when that distance is
finite and within the slack of the two points' order norms.  One pair rule,
:func:`_pair_fails`, decides merge conflicts and consistency, and an extension
step reads the same two inequalities off its signed block for its new pairs.

Both endpoints come from one signed block ``[t, -t]`` of the thresholds: one
``max`` over the rows gives ``w = [hi, -lo]`` per line, ``w *= c`` and
``w += GS`` add both sides of the values at once (``a - b`` is ``a + (-b)``),
and one ``min`` over the lines gives ``[p_plus, -p_minus]``, bit for bit the
two one-sided folds (:func:`_endpoints`).  An extension step reads the same
block for its span test, its interval and the check of its new pairs, and
writes its line in place into blocks that :func:`extend_all` allocates once
for all its targets (:func:`_place`).  Construction is one
chunked pass over one block of pairwise column differences, with no matvec
per pair and no temporary past :data:`_BLOCK` items: the greatest and least
difference of each pair serve the merge of points onto lines (the axis line
first, as the origin) and the consistency scan alike (:func:`_canonical_lines`).
A line whose pairings overflow would bound nothing, so it raises
:class:`NonFiniteError`.  Results on a unit that is not interior are
unspecified; where a row pairs to zero with it, its unit-scaled row is not
finite and every line is refused.

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
from .spaces import TOL, OrderedSpace, _finite, _json_field, _json_number, _json_numbers, _max_abs_rows, _unit_products, as_rows, as_vec


class NonFiniteError(ValueError):
    """A chosen value or unit-scaled pairing derived from finite input is not finite, so it would bound nothing."""


class _Refused(ValueError):
    """An extension step refuses its target: rule ``given`` without a value, or
    with a value outside the admissible interval."""


_BLOCK = 1 << 17
"""Float64 items in one temporary block of the pairwise scans (1 MiB)."""


def _chunks(n: int, per_row: int):
    """Ranges ``(s, e)`` over ``n`` rows of ``per_row`` items each, as many rows
    a range as fit in one :data:`_BLOCK`, at least one."""
    step = max(1, _BLOCK // max(per_row, 1))
    return ((s, min(s + step, n)) for s in range(0, n, step))


@dataclass(frozen=True, eq=False)
class UnitSpan:
    """Finitely generated unit span: one base point per line, as it was given.

    ``base`` has shape ``(m, dim)``; the axis line is always implied and not
    listed.  Base points arriving on the axis line or on an already listed
    line are merged away by :func:`partial_functional`.
    """

    space: OrderedSpace
    base: np.ndarray

    @property
    def m(self) -> int:
        return self.base.shape[0]


def _held(spread, size):
    """Is a point on a line, given the ``spread = hi - lo`` of the greatest and
    least entry of the thresholds ``R y - R x`` from the line's point ``x`` to it:
    is its order-norm distance ``spread / 2`` to the line finite and within the
    slack of ``size``, the two points' order norms summed?  Elementwise; call
    under ``np.errstate``."""
    d = 0.5 * spread
    return np.isfinite(d) & (d <= _slack(size))


def _canonical_lines(space: OrderedSpace, points, values, unit_value: float):
    """The lines of the data, each stored by the first point on it as given, and
    the first violated consistency inequality in row-major order over them.

    Returns ``(X, G, AT, norms, witness)`` of :class:`PartialFunctional`; line 0
    is the axis line, the origin put before the points.  One chunked block of the
    differences ``a_i - a_k`` of the columns ``a = R x`` gives each pair its
    greatest entry ``t_ik`` and least, ``-t_ki``.  Line ``k`` holds point ``i`` by
    :func:`_held`; the held points pass in order, each joining the first line
    still kept that holds it, and a joining value raises if its pair fails
    :func:`_pair_fails`.  Then the pairs ``(i, k)`` of kept lines, and ``(k, i)``
    for ``k`` before the chunk, pass the least slack of any pair with their first
    line; only those that fail it are held to their own.
    """
    _finite("unit_value", unit_value)
    if unit_value < 0:
        raise ValueError("unit_value must be nonnegative (order preservation on the axis line)")
    P = _finite("base_points", as_rows(points, space.dim))
    g = _finite("values", [float(v) for v in values])
    if len(g) != len(P):
        raise ValueError("one value per base point required")
    X, G = np.vstack([np.zeros(space.dim), P]), np.concatenate([[0.0], g])  # line 0 is the axis line
    c, n = float(unit_value), len(X)
    kept, joins = np.ones(n, dtype=bool), []  # joins: (point i, line k, max and min of a_i - a_k)
    top, floor = G.copy(), G - _slack(np.abs(G))  # a screen below any pair's slack; a merged line gets inf, -inf
    first = n * n  # row-major position i * n + j of the first violated pair (i, j) found
    with np.errstate(over="ignore", invalid="ignore"):  # a distance that is not finite holds no point
        cols = _unit_products(space, X)
        norms = _max_abs_rows(cols)
        AT = np.ascontiguousarray(cols.T)

        def fails(i, j, t):  # the pairs (i, j) of lines with thresholds t, at their own slack
            return _pair_fails(G[i], G[j], t, c, _pair_slack(G[i], G[j], c, norms[i], norms[j]))

        def first_fail(i, j, t):  # row-major position of the first of them that fails, or n * n
            return min((i * n + j)[fails(i, j, t)].tolist(), default=n * n) if i.size else n * n

        for s, e in _chunks(n, AT.shape[0] * n):
            D = AT[:, s:e, None] - AT[:, None, :e]  # to every earlier line, and some later
            hi, lo = D.max(axis=0), D.min(axis=0)
            held = _held(hi - lo, norms[s:e, None] + norms[:e]) & (np.arange(e) < np.arange(s, e)[:, None])
            for r in np.flatnonzero(held.any(axis=1)):
                i = s + r
                ks = np.flatnonzero(held[r, :i] & kept[:i])
                if ks.size:
                    kept[i], top[i], floor[i] = False, np.inf, -np.inf
                    joins.append((i, ks[0], hi[r, ks[0]], lo[r, ks[0]]))
            r, k = np.nonzero(top[:e] + hi * c < floor[s:e, None])  # pairs (i, k); a later k reads (k, i)
            first = min(first, first_fail(r + s, k, hi[r, k]))
            if s:  # pairs (k, i) of the earlier chunks
                r, k = np.nonzero(top[s:e, None] - lo[:, :s] * c < floor[:s])
                first = min(first, first_fail(k, r + s, -lo[r, k]))
        if joins:
            i, k, hi, lo = map(np.array, zip(*joins))
            conflict = fails(i, k, hi) | fails(k, i, -lo)
            if conflict.any():
                j = np.flatnonzero(conflict)[0]
                i, k = int(i[j]), int(k[j])
                if k:
                    raise ValueError(f"value conflict on a duplicate line: {G[k]} vs {float(G[i])}")
                raise ValueError(f"value conflict on the axis line: point {X[i].tolist()} carries {float(G[i])}, "
                                 f"but the unit slope forces {c * (0.5 * (hi[j] + lo[j]))}")
        witness = None
        if first < n * n:
            i, j = divmod(first, n)
            line_i, line_j = (int(np.count_nonzero(kept[:x])) for x in (i, j))  # numbered among the kept lines
            witness = {"line_i": line_i, "line_j": line_j, "threshold": float((AT[:, i] - AT[:, j]).max()),
                       "g_i": float(G[i]), "g_j": float(G[j]), "slope": c}
    return X[kept], G[kept], np.ascontiguousarray(AT[:, kept]), norms[kept], witness


@dataclass(frozen=True, eq=False)
class PartialFunctional:
    """Line values ``g_i = f(x_i)`` on a unit span, plus the slope ``c = f(unit)``.

    The lines are stacked: row 0 of ``X`` is the origin, standing for the axis
    line, and the rows after it are the base points, each the data point or
    extension target that introduced its line, as given.  ``GS`` holds their
    values once, signed: row 0 is ``G``, ``0`` first, and row 1 is ``-G``, the
    two sides a query adds in one step (:func:`_endpoints`).  ``AT`` holds the
    unit-scaled pairings ``unit_rows @ x_i``, one column per line, ``norms`` the
    order norms ``max|unit_rows @ x_i|``, and ``_witness`` the first violated
    consistency inequality in row-major order over the lines, or None.  Build
    instances with :func:`partial_functional`; the extension operations refuse
    an inconsistent one.
    """

    space: OrderedSpace
    X: np.ndarray
    GS: np.ndarray
    AT: np.ndarray
    norms: np.ndarray
    unit_value: float
    _witness: dict | None

    @property
    def consistent(self) -> bool:
        return self._witness is None

    @property
    def G(self) -> np.ndarray:
        """The line values, a view of row 0 of ``GS``."""
        return self.GS[0]

    @property
    def values(self) -> np.ndarray:
        """The base-line values, a view of ``GS``."""
        return self.GS[0, 1:]

    @property
    def subspace(self) -> UnitSpan:
        """The span of the base lines, a view of ``X``."""
        return UnitSpan(space=self.space, base=self.X[1:])


_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)
"""The two sides of the threshold block: ``max(S * t)`` over the rows is the
greatest threshold of each line, and minus the least."""


def _signed(ry: np.ndarray, AT: np.ndarray) -> np.ndarray:
    """``[hi, -lo]``, shape ``(2, lines)``: per stored line, the greatest entry of
    the thresholds ``ry - AT`` and minus the least, by one ``max`` over the rows
    of the signed block ``S * (ry - AT)``; the one block of a query or a step.
    Call under ``np.errstate``."""
    return np.maximum.reduce(_SIGNS * (ry[:, None] - AT), axis=1)


def _spanned(hl: np.ndarray, norm, norms: np.ndarray) -> bool:
    """Does a stored line hold the point of order norm ``norm`` whose signed
    thresholds to the lines (of order norms ``norms``) are ``hl`` (:func:`_held`)?"""
    return bool(_held(hl[0] + hl[1], norm + norms).any())


@np.errstate(over="ignore", invalid="ignore")
def span_contains(pf: PartialFunctional, v) -> bool:
    """Is ``v`` on one of the stored lines of ``pf``, the axis line included (:func:`_spanned`)?"""
    ry = pf.space.unit_rows @ as_vec(v, pf.space.dim)
    return _spanned(_signed(ry, pf.AT), np.abs(ry).max(), pf.norms)


def partial_functional(
    space: OrderedSpace, points, values, unit_value: float, strict: bool = True
) -> PartialFunctional:
    """Build a partial functional over the lines of the data, with the witness of
    their consistency from the same pass (:func:`_canonical_lines`).

    With ``strict`` (default) the pairwise order-consistency of the data is
    required; pass ``strict=False`` to hold inconsistent data for diagnosis.
    A line whose unit-scaled pairings are not finite raises :class:`NonFiniteError`
    before any witness is used.
    """
    X, G, AT, norms, witness = _canonical_lines(space, points, values, unit_value)
    if not np.isfinite(AT).all():
        raise NonFiniteError("a base line's unit-scaled pairing is not finite")
    if strict and witness:
        raise ValueError(f"inconsistent partial functional: {witness}")
    return PartialFunctional(space, X, np.array([G, -G]), AT, norms, float(unit_value), witness)


def _slack(size):
    """``TOL * (1 + size)``: the one tolerance of every value comparison here."""
    return TOL * (1.0 + size)


def _pair_slack(g_i, g_j, c, a_i, a_j):
    """The slack of a pair of lines: :func:`_slack` of ``|g_i| + |g_j| + c * max(a_i, a_j)``, ``a`` their ``norms``."""
    return _slack(np.abs(g_i) + np.abs(g_j) + c * np.maximum(a_i, a_j))


def _pair_fails(g_i, g_j, t_ij, c, s):
    """The pair rule, elementwise: does ``g_j + t_ij * c >= g_i`` fail by more than ``s``?
    Line ``j`` shifted up by ``t_ij = inf { t : x_j + t*unit >= x_i }``, the greatest
    entry of ``unit_rows @ (x_i - x_j)``, dominates line ``i``; ``t_ji`` is minus its
    least entry, exactly.  A pair fails at its :func:`_pair_slack`; a smaller ``s`` screens."""
    return g_j + t_ij * c < g_i - s


def check_partial_consistency(pf: PartialFunctional) -> PropertyReport:
    """Report on the pairwise order-consistency inequalities of ``pf``: the
    witness found at construction."""
    k = len(pf.G)
    return PropertyReport(
        name="partial_consistency", passed=pf.consistent, samples=max(k * (k - 1), 1), witness=pf._witness
    )


def _midpoint(p_minus: float, p_plus: float) -> float:
    """``0.5 * (p_minus + p_plus)``, or ``0.5 * p_minus + 0.5 * p_plus`` when
    only the sum of two finite endpoints overflows: the one midpoint rule of
    :class:`ExtensionInterval` and the ``midpoint`` canonical extension."""
    mid = 0.5 * (p_minus + p_plus)
    if math.isinf(mid) and math.isfinite(p_minus) and math.isfinite(p_plus):
        return 0.5 * p_minus + 0.5 * p_plus
    return mid


@dataclass(frozen=True)
class ExtensionInterval:
    """Admissible value interval ``[p_minus, p_plus]`` at one target point."""

    p_minus: float
    p_plus: float

    @property
    def midpoint(self) -> float:
        """The interval's midpoint by :func:`_midpoint`'s rule."""
        return _midpoint(self.p_minus, self.p_plus)


def _fold_min(v: np.ndarray) -> float:
    """``min(inf, v_0, v_1, ...)`` as Python folds it: NaN never wins, ties keep the first."""
    least = v.min()
    if least != 0 and least == least:  # neither zero nor NaN, so every tie has the same bits
        return float(least)
    v = np.where(np.isnan(v), np.inf, v)
    return float(v[np.argmin(v)])


def _one_sided(G: np.ndarray, AT: np.ndarray, c: float, ry: np.ndarray) -> tuple[float, float]:
    """``(p_minus, p_plus)`` folded one side at a time with :func:`_fold_min` from the
    least and greatest entry per line of the thresholds ``ry - AT``, the emptiness
    test on crossed endpoints included, which reads the query's order norm
    ``max|ry|``; call under ``np.errstate``."""
    t = ry[:, None] - AT
    above, below = G + c * t.max(axis=0), G + c * t.min(axis=0)
    p_plus, p_minus = _fold_min(above), -_fold_min(-below)
    if p_minus > p_plus:
        a, b = np.flatnonzero(above == p_plus)[0], np.flatnonzero(below == p_minus)[0]
        size = abs(G[a]) + abs(G[b]) + c * (np.abs(AT[:, [a, b]]).max() + np.abs(ry).max())
        if p_minus > p_plus + _slack(size):
            raise ValueError(f"empty extension interval [{p_minus}, {p_plus}]; partial data inconsistent")
    return float(p_minus), float(p_plus)


def _fold(w: np.ndarray, GS: np.ndarray, AT: np.ndarray, c: float, ry: np.ndarray) -> tuple[float, float]:
    """``(p_minus, p_plus)`` from ``w = c * [hi, -lo] + GS`` (:func:`_signed`), bit for
    bit :func:`_one_sided`: one ``min`` over the lines gives ``[p_plus, -p_minus]``.

    ``a - b`` is ``a + (-b)`` and negation is exact, and so are ``max`` and
    ``min``, so a winner that is neither zero nor NaN has the bits of the
    one-sided fold.  A zero winner (where only the sign of a zero can differ),
    a NaN and crossed endpoints take the one-sided fold.  Call under ``np.errstate``.
    """
    p_plus, neg_minus = np.minimum.reduce(w, axis=1).tolist()
    if p_plus and neg_minus and -neg_minus <= p_plus:  # no zero, no NaN, not crossed
        return -neg_minus, p_plus
    return _one_sided(GS[0], AT, c, ry)


@np.errstate(over="ignore", invalid="ignore")
def _endpoints(pf: PartialFunctional, y: np.ndarray) -> tuple[float, float]:
    """``(p_minus, p_plus)`` at the vector ``y``: the signed block of
    ``unit_rows @ y``, scaled by ``c`` and added to ``GS`` in one step, then folded (:func:`_fold`)."""
    ry = pf.space.unit_rows @ y
    w = _signed(ry, pf.AT)
    w *= pf.unit_value
    w += pf.GS
    return _fold(w, pf.GS, pf.AT, pf.unit_value, ry)


def extension_interval(pf: PartialFunctional, y) -> ExtensionInterval:
    """Exact admissible interval for ``f(y)``.

    Per line ``i``, the part of the line above ``y`` starts at the ray
    threshold ``lambda_plus(x_i, y)``, the greatest entry of
    ``unit_rows @ y - AT[:, i]``, and the part below ends at
    ``lambda_minus(x_i, y)``, the least; the endpoints are the least of
    ``g_i + c * lambda_plus`` and the greatest of ``g_i + c * lambda_minus``,
    both read from one signed block (:func:`_endpoints`).  Consistency of
    ``pf`` makes the interval nonempty; endpoints crossed within the slack
    of the two lines that set them, plus ``c * max|unit_rows @ y|`` for the
    query, are rounding and are returned.
    """
    if not pf.consistent:
        raise ValueError("extension requires a consistent partial functional")
    p_minus, p_plus = _endpoints(pf, as_vec(y, pf.space.dim))
    return ExtensionInterval(p_minus=p_minus, p_plus=p_plus)


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
            raise _Refused("rule 'given' requires a value")
        p = float(value)
        if not math.isfinite(p):  # no line value, so in no interval
            raise _Refused(_OUTSIDE.format(p, interval.p_minus, interval.p_plus))
        return p
    raise ValueError(f"unknown extension rule {rule!r}; expected one of {_RULES}")


def _blocks(pf: PartialFunctional, k: int) -> tuple:
    """``(X, GS, AT, norms)`` of ``pf`` copied into blocks with room for ``k`` more lines."""
    n = len(pf.norms)
    X, GS = np.empty((n + k, pf.space.dim)), np.empty((2, n + k))
    AT, norms = np.empty((pf.AT.shape[0], n + k)), np.empty(n + k)
    X[:n], GS[:, :n], AT[:, :n], norms[:n] = pf.X, pf.GS, pf.AT, pf.norms
    return X, GS, AT, norms


def _grown(pf: PartialFunctional, blocks: tuple, n: int) -> PartialFunctional:
    """The partial functional on the first ``n`` lines of ``blocks`` (:func:`_blocks` of ``pf``)."""
    X, GS, AT, norms = blocks
    GS, AT = np.ascontiguousarray(GS[:, :n]), np.ascontiguousarray(AT[:, :n])
    return PartialFunctional(pf.space, X[:n], GS, AT, norms[:n], pf.unit_value, None)


@np.errstate(over="ignore", invalid="ignore")
def _place(pf: PartialFunctional, blocks: tuple, n: int, y, rule: str, value):
    """One extension step on the first ``n`` lines of ``blocks`` (:func:`_blocks` of
    ``pf``): None for a target already in their span, else ``(interval, chosen
    value)``, with the new line written in place as line ``n``.

    One signed block ``[hi, -lo]`` of the thresholds ``unit_rows @ y - AT``
    (:func:`_signed`) serves the span test, the interval (:func:`_fold`, the
    bits of :func:`extension_interval`) and the check of the new pairs.  The
    rule picks ``p`` in the interval, and the step stores ``(y, p)`` as given
    once every pair the new line forms, in both orders, passes the pair rule:
    ``V[0] < p - s`` and ``p + c * (-lo) < G - s`` are :func:`_pair_fails` of
    ``(new, j)`` and ``(j, new)``, read off ``V = c * [hi, -lo] + GS``.  A
    ``given`` value that fails raises :class:`_Refused`.  Another rule's value fails only where
    rounding crossed the endpoints by more than a new pair's slack; it is then
    the middle of what the pairs admit.  Non-finite lines and empty intervals raise.
    """
    X, GS, AT, norms = blocks
    y = as_vec(y, pf.space.dim)
    c, gs, at = pf.unit_value, GS[:, :n], AT[:, :n]
    ry = pf.space.unit_rows @ y
    w, norm = _signed(ry, at), np.abs(ry).max()
    if _spanned(w, norm, norms[:n]):
        return None
    if not pf.consistent:
        raise ValueError("extension requires a consistent partial functional")
    w *= c  # [c * hi, c * (-lo)]
    V = w + gs
    interval = ExtensionInterval(*_fold(V, gs, at, c, ry))
    p = _pick_value(interval, rule, value)
    if not (math.isfinite(p) and np.isfinite(ry).all()):
        raise NonFiniteError(f"target {y.tolist()}: its value or a unit-scaled pairing is not finite")

    def fails(s):
        return ((V[0] < p - s) | (p + w[1] < gs[0] - s)).any()

    s = _slack(abs(p))  # below the slack of every pair (new, j) and (j, new)
    if fails(s):
        s = _pair_slack(p, gs[0], c, norm, norms[:n])
        if fails(s):
            if rule == "given" or interval.p_minus <= interval.p_plus:
                raise _Refused(_OUTSIDE.format(p, interval.p_minus, interval.p_plus))
            # endpoints crossed by the rounding of a line far along the unit: the middle of what the pairs admit
            p = 0.5 * (_fold_min(V[0] + s) - _fold_min(V[1] + s))
    X[n], GS[:, n], AT[:, n], norms[n] = y, (p, -p), ry, norm
    return interval, p


def _extend(pf: PartialFunctional, ys, k: int, rule: str, value, steps: list) -> PartialFunctional:
    """Fold :func:`_place` over the ``k`` targets ``ys``, the lines growing in
    one block allocated for all of them, and append each target's step to
    ``steps`` as it is placed (None for one already spanned), so a caller
    that catches a refusal holds the steps before it; one instance is built
    at the end, ``pf`` itself when no line was added."""
    n0 = n = len(pf.norms)
    blocks = _blocks(pf, k)
    for y in ys:
        steps.append(_place(pf, blocks, n, y, rule, value))
        n += steps[-1] is not None
    return pf if n == n0 else _grown(pf, blocks, n)


def extend_one(pf: PartialFunctional, y, rule: str = "midpoint", value=None) -> PartialFunctional:
    """Extend ``pf`` by one point off its span; the restriction to the old
    lines is untouched and the result stays consistent."""
    steps = []
    grown = _extend(pf, [y], 1, rule, value, steps)
    if steps[0] is None:
        raise ValueError("target point already lies in the span")
    return grown


def extend_all(pf: PartialFunctional, ys, rule: str = "midpoint", value=None) -> PartialFunctional:
    """Fold the extension step over the targets, skipping points already spanned.

    The fold order matters with the midpoint rule: earlier choices narrow
    later intervals.  Any order yields a consistent result.
    """
    ys = list(ys)
    return _extend(pf, ys, len(ys), rule, value, [])


def canonical_extension(pf: PartialFunctional, mode: str = "midpoint") -> Functional:
    """Total weakly additive, order-preserving functional extending ``pf``.

    ``mode='lower'`` evaluates the lower endpoint map ``p_minus``;
    ``mode='midpoint'`` averages both endpoints.  Both shift exactly along
    the unit and are monotone in the cone order, and both return the stored
    value on every base line.  Consistency is checked here, once; each
    evaluation reads the endpoints from :func:`_endpoints` with the bits of
    :func:`extension_interval`.
    """
    if mode not in ("lower", "midpoint"):
        raise ValueError("mode must be 'lower' or 'midpoint'")
    if not pf.consistent:
        raise ValueError("extension requires a consistent partial functional")

    if mode == "lower":
        def _eval(x):
            return _endpoints(pf, x)[0]
    else:
        def _eval(x):
            return _midpoint(*_endpoints(pf, x))

    return Functional(space=pf.space, kind="extended", fn=_eval)


def partial_from_json(space: OrderedSpace, obj: dict, strict: bool = True) -> PartialFunctional:
    """Build from ``{"base_points": [[...]], "values": [...], "unit_value": c}``."""
    c = _json_number("unit_value", _json_field(obj, "unit_value", "partial-functional"))
    points = _json_numbers("base_points", obj.get("base_points", []), 2)
    values = _json_numbers("values", obj.get("values", []), 1)
    return partial_functional(space, points, values, c, strict=strict)


def partial_to_json(pf: PartialFunctional) -> dict:
    return {
        "base_points": pf.X[1:].tolist(),
        "values": pf.values.tolist(),
        "unit_value": pf.unit_value,
    }
