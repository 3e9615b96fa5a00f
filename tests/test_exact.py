"""The order norm, the ray thresholds and the extension engine against exact
rational references, on generated spaces whose rows span twelve orders of
magnitude, with slopes ``c = f(unit)`` up to ``1e12`` for the engine.

The bound is ``K * eps * scale``, where ``scale`` (``oracles.unit_ratio_scale``)
is the size of the terms that the ratio and its pairing with the unit sum;
for a line value ``g + c * t`` it is ``|g| + c`` times the scale of ``t``.
The engine's errors also sit far below its slack, the one tolerance of its
value comparisons.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import orderunit as ou
from oracles import (
    consistency_pairs_exact,
    extension_interval_exact,
    order_norm_exact,
    pair_size,
    ray_thresholds_exact,
    slack,
    unit_ratio_scale,
    unit_ratios_exact,
    unit_rows_by_rows,
)
from strategies import entries, interior_unit_spaces, point_arrays, positive_partial_data

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


def threshold_scale(space, x, y):
    """The scale of the greatest or least ratio of ``y - x``."""
    d = [Fraction(float(b)) - Fraction(float(a)) for a, b in zip(x, y)]
    return unit_ratio_scale(space, np.abs(x) + np.abs(y), unit_ratios_exact(space, d))


SLACK_SHARE = Fraction(1, 1000)
"""The engine's errors stay below this share of the slack they are compared with
(measured: under 1e-5)."""


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


def check_interval(pf, y):
    """The endpoints at ``y`` are within the bound of the exact ones, and within
    a share of the least slack of a crossing that a line setting the endpoint
    takes part in.  Any line whose exact bound lies within the bound of the
    endpoint may win the float fold, so the share is taken over all of them."""
    space, c = pf.space, pf.unit_value
    R = unit_rows_by_rows(space)
    interval = ou.extension_interval(pf, y)
    scale = max(abs(Fraction(g)) + Fraction(c) * threshold_scale(space, x, y) for x, g in zip(pf.X, pf.G))
    sizes = [abs(g) + c * (np.max(np.abs(R @ x)) + np.max(np.abs(R @ y))) for x, g in zip(pf.X, pf.G)]
    lowers, uppers = extension_interval_exact(pf, y)
    for got, bounds, want in ((interval.p_minus, lowers, max(lowers)), (interval.p_plus, uppers, min(uppers))):
        assert within(got, want, scale)
        near = [k for k, b in enumerate(bounds) if within(b, want, scale)]
        share = SLACK_SHARE * max(Fraction(slack(sizes[k])) for k in near)
        assert abs(Fraction(got) - want) <= share


class TestExactExtension:
    @settings(max_examples=200, deadline=None)
    @given(data=positive_partial_data(), draws=st.data())
    def test_extension_interval(self, data, draws):
        space, pts, values, c = data
        pf = ou.partial_functional(space, pts, values, c)
        for y in draws.draw(point_arrays(space.dim, 2)):
            check_interval(pf, y)

    def test_a_line_within_rounding_of_the_endpoint_may_set_it(self):
        # At the origin both exact bounds meet at 0.  Line 0 sets them exactly,
        # but line 1's exact lower bound, -8.5e-12, is within its rounding of
        # 2.7e-10 and wins the float fold as 7.28e-12; its slack is 9.0e-5.
        space = ou.halfspace_space(
            [[0.035396203643838164, 0.014685572812178617]] * 2 + [[0.26125168814116717, -0.5296872497933844]],
            [1.2051352744812378, 0.5],
        )
        pf = ou.partial_functional(space, [[0.14685572812178627, -0.3539620364383816]], [45171.09689946581], 10000.000000000007)
        y = np.zeros(2)
        interval = ou.extension_interval(pf, y)
        assert interval.p_minus > 0.0 == interval.p_plus
        check_interval(pf, y)

    @settings(max_examples=200, deadline=None)
    @given(
        data=positive_partial_data(),
        lift=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(-6, 1), st.sampled_from((-1.0, 1.0)))),
    )
    def test_consistency_witness(self, data, lift):
        """The witness is the first pair whose exact excess ``g_i - g_j - t_ij * c``
        passes the slack, with its threshold within the bound of the exact one."""
        space, pts, values, c = data
        values = values.copy()
        if lift is not None and len(values):
            k, exponent, sign = lift
            values[k % len(values)] += sign * 10.0**exponent * (1.0 + np.max(np.abs(values)))
        try:
            pf = ou.partial_functional(space, pts, values, c, strict=False)
        except ValueError:
            return  # a value conflict between merged points
        R = unit_rows_by_rows(space)
        bound = K * Fraction(EPS)
        expected = None
        for i, j, t_ij, excess in consistency_pairs_exact(pf):
            s = Fraction(slack(pair_size(pf.G[i], pf.G[j], c, R @ pf.X[i], R @ pf.X[j])))
            t_scale = threshold_scale(space, pf.X[j], pf.X[i])
            size = abs(Fraction(pf.G[i])) + abs(Fraction(pf.G[j])) + Fraction(c) * t_scale
            # a pair whose exact excess is within rounding of the slack may go either way
            assume(abs(excess - s) > bound * size)
            if excess > s:
                expected = (i, j, t_ij, t_scale)
                break
        witness = ou.check_partial_consistency(pf).witness
        if expected is None:
            assert witness is None
            return
        i, j, t_ij, t_scale = expected
        assert (witness["line_i"], witness["line_j"]) == (i, j)
        assert within(witness["threshold"], t_ij, t_scale)
