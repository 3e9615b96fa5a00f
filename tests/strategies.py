"""Generated spaces for the property tests."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import orderunit as ou

MAX_EXPONENT = 6
"""Rows are scaled by powers of ten from ``1e-6`` to ``1e6``."""


def entries(bound):
    """Floats in ``[-bound, bound]`` that are zero or at least ``1e-6`` in
    magnitude, so no product of two scaled entries leaves the normal range
    (where rounding is absolute, not relative)."""
    return st.floats(-bound, bound).map(lambda v: v if abs(v) >= 1e-6 else 0.0)


@st.composite
def interior_unit_spaces(draw):
    """A pointed polyhedral cone with an interior unit, by construction.

    ``dim`` 2–5 and ``dim`` to ``2 * dim`` rows.  The unit is drawn first;
    each row is then shifted along the unit until it pairs with it at least
    at its drawn margin, and scaled by a power of ten up to ``1e±6``.  A
    space is kept only if :func:`orderunit.validate_space` passes.
    """
    dim = draw(st.integers(2, 5))
    k = draw(st.integers(dim, 2 * dim))
    unit = draw(arrays(float, dim, elements=entries(2.0)))
    uu = float(unit @ unit)
    assume(uu >= 0.25)
    rows = draw(arrays(float, (k, dim), elements=entries(1.0)))
    margins = draw(arrays(float, k, elements=st.floats(0.05, 1.0)))
    rows = rows + (np.maximum(margins - rows @ unit, 0.0) / uu)[:, None] * unit
    exponents = draw(arrays(int, k, elements=st.integers(-MAX_EXPONENT, MAX_EXPONENT)))
    space = ou.halfspace_space(rows * 10.0 ** exponents[:, None], unit)
    assume(ou.validate_space(space, samples=16).ok)
    return space


def point_arrays(dim, n, bound=4.0):
    """``n`` points with coordinates up to ``bound``, shape ``(n, dim)``."""
    return arrays(float, (n, dim), elements=entries(bound))


@st.composite
def positive_functionals(draw, slopes=(0, 12)):
    """``(space, w)``: a generated space and the weights of a positive linear
    functional on it, a nonnegative combination of the unit-scaled rows, whose
    slope ``w @ unit`` is ``[0.5, 1] * 10**e`` for ``e`` in ``slopes``."""
    space = draw(interior_unit_spaces())
    weights = draw(arrays(float, space.cone.rows.shape[0], elements=st.floats(0.0, 1.0)))
    assume(weights.sum() > 0.1)
    w = weights @ space.unit_rows
    w *= draw(st.floats(0.5, 1.0)) * 10.0 ** draw(st.integers(*slopes)) / float(w @ space.unit)
    return space, w


@st.composite
def positive_partial_data(draw, max_points=4, slopes=(0, 12)):
    """``(space, points, values, c)``: up to ``max_points`` points, their values
    under a positive linear functional of :func:`positive_functionals` and its slope."""
    space, w = draw(positive_functionals(slopes))
    pts = draw(point_arrays(space.dim, draw(st.integers(0, max_points))))
    return space, pts, pts @ w, float(w @ space.unit)


@st.composite
def fold_queries(draw):
    """A partial functional on a generated space, at the slope ``c = 0`` (all
    values 0) or read off a positive linear functional of slope 1 or 2.5, and
    targets for it: entries NaN, ±0, ±inf, ±1e308 or subnormal among plain
    coordinates, the stored ``X`` and ``X`` shifted along the unit."""
    space = draw(interior_unit_spaces())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.sampled_from((0.0, 1.0, 2.5)))
    w = rng.uniform(0.0, 1.0, size=space.cone.rows.shape[0]) @ space.unit_rows
    w *= c / float(w @ space.unit)
    pts = rng.uniform(-3.0, 3.0, size=(draw(st.integers(0, 6)), space.dim))
    pf = ou.partial_functional(space, pts, pts @ w, c)
    special = st.sampled_from((np.nan, 0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324))
    entry = st.one_of(special, st.floats(-3.0, 3.0))
    shift = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
    stored = st.builds(lambda i, lam: pf.X[i % len(pf.X)] + lam * space.unit, st.integers(0, 99), shift)
    ys = draw(st.lists(st.one_of(st.lists(entry, min_size=space.dim, max_size=space.dim), stored), min_size=1, max_size=20))
    return pf, ys
