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
