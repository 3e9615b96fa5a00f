"""The order norm and the ray thresholds against exact rational references,
on generated spaces whose rows span twelve orders of magnitude.

The bound is ``K * eps * scale``, where ``scale`` (``oracles.unit_ratio_scale``)
is the size of the terms that the ratio and its pairing with the unit sum.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import orderunit as ou
from oracles import order_norm_exact, ray_thresholds_exact, unit_ratio_scale, unit_ratios_exact
from strategies import entries, interior_unit_spaces

EPS = np.finfo(float).eps
K = 2
"""The accuracy claim in units of ``eps * scale`` (README, Conventions)."""


def points(space, n):
    """``n`` points with coordinates up to 4, scaled together by a power of ten up to ``1e±3``."""
    return st.tuples(arrays(float, (n, space.dim), elements=entries(4.0)), st.integers(-3, 3)).map(
        lambda a: a[0] * 10.0 ** a[1]
    )


def within(got, exact, scale) -> bool:
    return abs(Fraction(got) - exact) <= K * Fraction(EPS) * scale


class TestExactReferences:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_order_norm(self, data):
        space = data.draw(interior_unit_spaces())
        X = data.draw(points(space, 4))
        norms = ou.spaces.order_norms(space, X)
        for x, norm in zip(X, norms):
            scale = unit_ratio_scale(space, np.abs(x), unit_ratios_exact(space, x))
            assert within(norm, order_norm_exact(space, x), scale)
            assert norm == ou.order_norm(space, x)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ray_thresholds(self, data):
        space = data.draw(interior_unit_spaces())
        x, y = data.draw(points(space, 2))
        d = [Fraction(float(b)) - Fraction(float(a)) for a, b in zip(x, y)]
        scale = unit_ratio_scale(space, np.abs(x) + np.abs(y), unit_ratios_exact(space, d))
        lo, hi = ou.ray_thresholds(space, x, y)
        exact_lo, exact_hi = ray_thresholds_exact(space, x, y)
        assert within(lo, exact_lo, scale) and within(hi, exact_hi, scale)
