"""The extension engine's one slack, ``TOL * (1 + size)`` for two values of
that size with their slopes' share, on generated spaces with slopes
``c = f(unit)`` up to ``1e12``.

The engine never refuses its own endpoint choices or data read off a
positive linear functional, and its results rebuild consistent, also for
targets far along the unit; a ``given`` value is accepted within half the
least slack of the pairs it forms past an endpoint and refused at twice the
largest; data lifted beyond those slacks gives the oracle's witness.  The
line test reads the same slack: targets on a stored line far along the unit
are spanned, a point within the slack of a line merges into it, and a merged
value conflicts only where the pair fails the consistency scan.  A guard keeps
small numeric literals, which would be a second tolerance, out of the engine.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orderunit as ou
from oracles import consistency_witness_by_pairings, line_slacks, lines_by_pairs, slack, unit_rows_by_rows
from strategies import point_arrays, positive_functionals, positive_partial_data

ENGINE = Path(__file__).resolve().parent.parent / "src" / "orderunit" / "extension.py"


far_multiples = st.tuples(st.floats(-1.0, 1.0), st.integers(0, 8)).map(lambda t: t[0] * 10.0 ** t[1])
"""Multiples of the unit up to ``1e8`` in magnitude, spread over the scales."""


def rebuilt(pf, values=None):
    """``pf`` built again from its base points and values (or ``values``), not strict."""
    values = pf.values if values is None else values
    return ou.partial_functional(pf.space, pf.subspace.base, values, pf.unit_value, strict=False)


class TestChains:
    @settings(max_examples=200, deadline=None)
    @given(data=positive_partial_data(), rule=st.sampled_from(("lower", "upper", "midpoint")), draws=st.data())
    def test_the_engine_never_refuses_its_own_endpoints(self, data, rule, draws):
        space, pts, values, c = data
        pf = ou.partial_functional(space, pts, values, c)
        targets = draws.draw(point_arrays(space.dim, 4))
        out = ou.extend_all(pf, targets[:3], rule=rule)
        ou.extension_interval(out, targets[3])
        again = rebuilt(out)
        assert again.consistent and consistency_witness_by_pairings(again) is None

    @settings(max_examples=200, deadline=None)
    @given(
        data=positive_partial_data(slopes=(10, 10)),
        rule=st.sampled_from(("lower", "upper", "midpoint")),
        shifts=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        exponent=st.integers(6, 8),
        draws=st.data(),
    )
    def test_targets_far_along_the_unit(self, data, rule, shifts, exponent, draws):
        """Targets far along the unit are stored as given with the value chosen
        there, and the result rebuilds consistent.  A target on a stored line,
        shifted along the unit by up to ``1e8``, is skipped as spanned."""
        space, pts, values, c = data
        pf = ou.partial_functional(space, pts, values, c)
        lams = draws.draw(st.lists(far_multiples, min_size=len(pf.X), max_size=len(pf.X)))
        spanned = [x + lam * space.unit for x, lam in zip(pf.X, lams)]  # the axis line first
        assert all(ou.span_contains(pf, t) for t in spanned)
        fresh = draws.draw(point_arrays(space.dim, 3)) + np.outer(shifts, space.unit) * 10.0**exponent
        out = ou.extend_all(pf, [*spanned, *fresh, *spanned], rule=rule)
        assert out.subspace.m <= pf.subspace.m + len(fresh)
        assert out.X[: len(pf.X)].tobytes() == pf.X.tobytes()
        again = rebuilt(out)
        assert again.consistent and consistency_witness_by_pairings(again) is None


    def test_endpoints_crossed_by_a_line_far_along_the_unit(self):
        """The second target, 3e8 along the unit, stores a line whose thresholds
        round by about 6e-8; at the third target it sets ``p_minus`` 2.1e-8 above
        the ``p_plus`` of a small line, past that pair's slack of 1e-8.  The
        ``lower`` value is then the middle of what the pairs admit, and the
        result rebuilds consistent."""
        space = ou.halfspace_space([[-1.0, 0.46544150139737267], [-1.0, 0.6166823122961673]], [-0.99999, -0.99999])
        points = [[1.5514858155389826, 0.25], [-0.30310926940601524, 3.5067870195599973],
                  [0.7109746712364222, -1.723648967622235]]
        values = [-2.6175487955572123, 3.5298499625788082, -2.7600094219529017]
        pf = ou.partial_functional(space, points, values, 0.9749802509651996)
        targets = [[3.216468339939624, 0.0], [303106238.31331116, 303106239.3133212], [-2.4777782790017713, 0.0]]
        step = ou.extend_all(pf, targets[:2], rule="lower")
        interval = ou.extension_interval(step, targets[2])
        assert interval.p_minus > interval.p_plus
        out = ou.extend_one(step, targets[2], rule="lower")
        assert interval.p_plus < out.values[-1] < interval.p_minus
        assert rebuilt(out).consistent


class TestGiven:
    @settings(max_examples=200, deadline=None)
    @given(
        data=positive_partial_data(),
        end=st.sampled_from(("p_minus", "p_plus")),
        offset=st.sampled_from((-0.5, 0.5, 2.0)),
        shift=st.floats(-1.0, 1.0),
        exponent=st.integers(0, 3),
        draws=st.data(),
    )
    def test_accepted_within_the_slack_and_refused_beyond(self, data, end, offset, shift, exponent, draws):
        space, pts, values, c = data
        pf = ou.partial_functional(space, pts, values, c)
        y = draws.draw(point_arrays(space.dim, 1))[0] + shift * 10.0**exponent * space.unit
        if ou.span_contains(pf, y):
            return
        interval = ou.extension_interval(pf, y)
        edge = getattr(interval, end)
        slacks = line_slacks(pf, y, edge)
        s = min(slacks) if offset < 1 else max(slacks)
        value = edge + (offset if end == "p_plus" else -offset) * s  # a positive offset points outward
        if offset == 2.0:
            message = f"value {value} outside the admissible interval [{interval.p_minus}, {interval.p_plus}]"
            with pytest.raises(ValueError, match=re.escape(message)):
                ou.extend_one(pf, y, rule="given", value=value)
            return
        out = ou.extend_one(pf, y, rule="given", value=value)
        assert out.values[-1] == value and out.X[-1].tobytes() == y.tobytes()
        assert rebuilt(out).consistent


class TestDuplicates:
    @settings(max_examples=200, deadline=None)
    @given(data=positive_functionals(slopes=(10, 12)), draws=st.data())
    def test_shifted_and_axis_points_merge_without_conflict(self, data, draws):
        space, w = data
        pts = draws.draw(point_arrays(space.dim, draws.draw(st.integers(1, 3))))
        shifts = draws.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * len(pts), max_size=2 * len(pts)))
        scales = 10.0 ** np.array(draws.draw(st.lists(st.integers(0, 3), min_size=len(shifts), max_size=len(shifts))))
        lams = np.array(shifts) * scales
        k = len(pts)
        points = np.vstack([pts, pts + lams[:k, None] * space.unit, lams[k:, None] * space.unit])
        pf = ou.partial_functional(space, points, points @ w, float(w @ space.unit))
        assert pf.subspace.m <= k


class TestLineTest:
    """A point is on a stored line when its order-norm distance to the line is
    within the slack of both points' order norms; a merged value conflicts
    where the pair fails the consistency scan."""

    def test_a_point_off_the_axis_line_beyond_the_slack_keeps_its_line(self):
        # (0.00390625, 0) is 1.95e-9 units off the axis line, beyond its slack
        # of 1.0e-9, and its value under the third unit-scaled row, a positive
        # functional of slope 1, is consistent as a line of its own
        space = ou.halfspace_space([[1, 1e-6], [1, 1e-6], [0.999999, 1.000001]], [1, 1e-6])
        x = np.array([0.00390625, 0.0])
        pf = ou.partial_functional(space, [[0, 0], x], [0, unit_rows_by_rows(space)[2] @ x], 1.0)
        assert pf.consistent and pf.subspace.m == 1

    @staticmethod
    def near_pair(space, draws):
        """A point ``x``, the origin or a drawn point, a point ``y`` and the
        order-norm distance ``gap`` of ``y`` to the line of ``x`` (rounding
        aside), up to 0.9 of the least slack of the line test between them."""
        x, d = draws.draw(point_arrays(space.dim, 2))
        x = x * draws.draw(st.sampled_from((0.0, 1.0)))  # on the axis line or on a line of its own
        rd = space.unit_rows @ d
        step = 0.5 * (np.max(rd) - np.min(rd))  # the distance of x + d to the line of x
        assume(step > 1e-3 * np.max(np.abs(d)))
        gap = draws.draw(st.floats(0.0, 0.9)) * slack(np.max(np.abs(space.unit_rows @ x)))
        y = x + gap / step * d
        return x, y, gap

    @settings(max_examples=200, deadline=None)
    @given(data=positive_functionals(), draws=st.data())
    def test_a_point_within_the_slack_merges_without_conflict(self, data, draws):
        space, w = data
        c = float(w @ space.unit)
        x, y, _ = self.near_pair(space, draws)
        alone = ou.partial_functional(space, [x], [x @ w], c)
        pf = ou.partial_functional(space, [x, y], [x @ w, y @ w], c)
        assert pf.subspace.m == alone.subspace.m
        base, vals = lines_by_pairs(space, [x, y], [x @ w, y @ w], c)
        assert pf.subspace.base.tobytes() == base.tobytes() and pf.values.tobytes() == vals.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=positive_functionals(), sign=st.sampled_from((-1.0, 1.0)), draws=st.data())
    def test_a_value_beyond_the_gap_and_the_slack_conflicts(self, data, sign, draws):
        space, w = data
        c = float(w @ space.unit)
        x, y, gap = self.near_pair(space, draws)
        # the pair admits values for y within 2 * c * gap of y @ w, plus its slack
        R = unit_rows_by_rows(space)
        norm = max(np.max(np.abs(R @ x)), np.max(np.abs(R @ y)))
        bound = 2.0 * c * gap + slack(abs(x @ w) + abs(y @ w) + c * norm)
        value = y @ w + sign * 3.0 * bound
        alone = ou.partial_functional(space, [x], [x @ w], c)
        if alone.subspace.m:
            message = f"value conflict on a duplicate line: {alone.values[0]} vs {value}"
        else:
            a = R @ y
            message = (
                f"value conflict on the axis line: point {y.tolist()} carries {value}, "
                f"but the unit slope forces {c * (0.5 * (max(a) + min(a)))}"
            )
        with pytest.raises(ValueError) as got:
            ou.partial_functional(space, [x, y], [x @ w, value], c)
        assert str(got.value) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            lines_by_pairs(space, [x, y], [x @ w, value], c)


class TestLifted:
    @settings(max_examples=200, deadline=None)
    @given(
        data=positive_partial_data(),
        rule=st.sampled_from(("lower", "upper")),
        factor=st.floats(2.0, 1e3),
        draws=st.data(),
    )
    def test_data_lifted_beyond_the_slack_gives_the_oracle_witness(self, data, rule, factor, draws):
        space, pts, values, c = data
        pf = ou.partial_functional(space, pts, values, c)
        y = draws.draw(point_arrays(space.dim, 1))[0]
        if ou.span_contains(pf, y):
            return
        out = ou.extend_one(pf, y, rule=rule)
        lifted = out.values.copy()
        lifted[-1] += (factor if rule == "upper" else -factor) * max(line_slacks(pf, out.X[-1], out.G[-1]))
        bad = rebuilt(out, lifted)
        witness = ou.check_partial_consistency(bad).witness
        assert witness is not None
        assert repr(witness) == repr(consistency_witness_by_pairings(bad))
        with pytest.raises(ValueError, match=re.escape(f"inconsistent partial functional: {witness}")):
            ou.partial_functional(space, out.subspace.base, lifted, c)


class TestPerPair:
    """Each comparison allows the slack of the two values it compares, so a
    large line elsewhere hides nothing between small ones."""

    def test_a_far_line_hides_no_violation(self):
        space = ou.orthant(2)
        # (2, 0) >= (1, 0), yet f(2, 0) = 0 < 400 = f(1, 0)
        for points, values in (([[1, 0], [2, 0]], [400, 0]), ([[1, 0], [2, 0], [1e12, 0]], [400, 0, 5e11])):
            with pytest.raises(ValueError, match="inconsistent partial functional"):
                ou.partial_functional(space, points, values, 1.0)
            pf = ou.partial_functional(space, points, values, 1.0, strict=False)
            assert repr(ou.check_partial_consistency(pf).witness) == repr(consistency_witness_by_pairings(pf))

    def test_a_far_line_hides_no_value_conflict(self):
        space = ou.orthant(2)
        for points, values in (([[1, 0], [1, 0]], [1, 1 + 1e-6]), ([[1e12, 0], [1, 0], [1, 0]], [1e12, 1, 1 + 1e-6])):
            with pytest.raises(ValueError, match="value conflict on a duplicate line"):
                ou.partial_functional(space, points, values, 1.0)

    def test_a_far_line_widens_no_given_range(self):
        # f(x) = x_1 on the lines of (1, 0) and (0, 1e12); the axis line sets p_plus = 2 at (2, 0)
        pf = ou.partial_functional(ou.orthant(2), [[1, 0], [0, 1e12]], [1, 0], 1.0)
        interval = ou.extension_interval(pf, [2, 0])
        assert (interval.p_minus, interval.p_plus) == (1.0, 2.0)
        ou.extend_one(pf, [2, 0], rule="given", value=2.0)
        with pytest.raises(ValueError, match="outside the admissible interval"):
            ou.extend_one(pf, [2, 0], rule="given", value=2.0 + 1e-6)


def test_the_engine_has_no_second_tolerance():
    """Every value comparison in the engine allows the one slack; a numeric
    literal in ``(0, 1e-3)`` would be a tolerance of its own."""
    tree = ast.parse(ENGINE.read_text())
    small = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and 0 < node.value < 1e-3
    ]
    assert small == []
