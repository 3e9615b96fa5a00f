import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderunit as ou
from oracles import (
    canonical_lines_by_pairs,
    consistency_pairs_exact,
    consistency_witness_by_pairings,
    consistency_witness_by_pairs,
    interval_by_line_search,
    interval_by_pairings,
    interval_by_ray_thresholds,
    line_slacks,
    pair_size,
    slack,
    span_contains_by_lines,
    unit_rows_by_rows,
)
from strategies import interior_unit_spaces

FIXED_SPACES = None


def _spaces():
    global FIXED_SPACES
    if FIXED_SPACES is None:
        FIXED_SPACES = [
            ou.orthant(2),
            ou.orthant(3, unit=[1.0, 2.0, 1.0]),
            ou.orthant(4),
            ou.halfspace_space([[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0]),
        ]
    return FIXED_SPACES


def dual_cone_weights(space, rng, scale=1.0):
    """Weights of a linear functional nonnegative on the cone."""
    mu = rng.uniform(0.0, scale, size=space.cone.rows.shape[0])
    return mu @ space.cone.rows


def consistent_instance(space, rng, m=3):
    """Partial data read off a random positive linear ground truth."""
    w = dual_cone_weights(space, rng)
    pts = rng.uniform(-3.0, 3.0, size=(m, space.dim))
    values = pts @ w
    c = float(w @ space.unit)
    return ou.partial_functional(space, pts, values, c)


PROPERTY_SPACES = (
    ou.orthant(2),
    ou.orthant(3, unit=[1.0, 2.0, 1.0]),
    ou.halfspace_space([[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0]),
    ou.halfspace_space(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], [1.0, 1.0, 1.0, 1.0]
    ),
    # rows and units off the 0/1 grid, so the inner products round
    ou.halfspace_space([[1.0, 0.1], [0.3, 1.0], [0.7, 0.6]], [0.9, 1.1]),
    ou.halfspace_space([[1.0, 0.3, 0.0], [0.2, 1.0, 0.1], [0.0, 0.4, 1.0]], [1.0, 0.7, 1.3]),
)

coords = st.one_of(st.floats(-3.0, 3.0, allow_nan=False), st.integers(-3, 3).map(float))


@st.composite
def partial_data(draw, max_points=12):
    """Points and values read off a random positive linear functional.

    Axis-line points, repeated lines and up to two perturbed values (which
    may make the data inconsistent or conflicting) are mixed in.
    """
    space = draw(st.sampled_from(PROPERTY_SPACES))
    k = space.cone.rows.shape[0]
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))) @ space.cone.rows
    points = []
    for _ in range(draw(st.integers(0, max_points))):
        kind = draw(st.sampled_from(("fresh", "fresh", "axis", "repeat")))
        lam = draw(coords)
        if kind == "axis":
            points.append(lam * space.unit)
        elif kind == "repeat" and points:
            points.append(points[draw(st.integers(0, len(points) - 1))] + lam * space.unit)
        else:
            points.append(np.array(draw(st.lists(coords, min_size=space.dim, max_size=space.dim))))
    values = [float(p @ w) for p in points]
    if values and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            values[draw(st.integers(0, len(values) - 1))] += draw(st.floats(-4.0, 4.0))
    return space, points, values, float(w @ space.unit)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _build(space, points, values, c):
    """The partial functional, or the construction error of the reference."""
    try:
        canonical_lines_by_pairs(space, points, values, c)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ou.partial_functional(space, points, values, c, strict=False)
        assert str(got.value) == str(exc)
        return None
    return ou.partial_functional(space, points, values, c, strict=False)


OVERFLOW_SPACE = ou.halfspace_space([[1e300, 0.0], [0.0, 1.0]], [1e-308, 1.0])
"""Its unit-scaled first row is ``(1e308, 0)``: pairings near ``1e308`` and gaps
between them that overflow, so that lines at an infinite gap hold no point."""


@st.composite
def many_points(draw, max_points=60):
    """Up to ``max_points`` points on a generated space or on :data:`OVERFLOW_SPACE`,
    with axis-line points, repeated lines and up to three values perturbed on the
    scale of the largest, read off a positive linear functional; numpy draws them from a drawn seed."""
    space = draw(st.one_of(interior_unit_spaces(), st.just(OVERFLOW_SPACE)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1.0, size=space.cone.rows.shape[0]) @ space.cone.rows
    points = []
    for kind in rng.integers(0, 4, size=draw(st.integers(0, max_points))):
        lam = rng.uniform(-3.0, 3.0)
        if kind == 0:
            points.append(lam * space.unit)
        elif kind == 1 and points:
            points.append(points[rng.integers(len(points))] + lam * space.unit)
        else:
            points.append(rng.uniform(-1.0, 1.0, size=space.dim))
    values = [float(p @ w) for p in points]
    if values and draw(st.booleans()):
        scale = 1.0 + max(map(abs, values))
        for i in rng.integers(0, len(values), size=draw(st.integers(1, 3))):
            values[i] += rng.uniform(-4.0, 4.0) * scale
    return space, points, values, float(w @ space.unit)


class TestScalarReferences:
    """The stacked-line engine reproduces the per-line scalar loops bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=partial_data())
    def test_canonical_lines(self, data):
        space, points, values, c = data
        pf = _build(space, points, values, c)
        if pf is not None:
            base, vals = canonical_lines_by_pairs(space, points, values, c)
            assert pf.subspace.base.shape == base.shape
            assert _bits(pf.subspace.base) == _bits(base)
            assert _bits(pf.values) == _bits(vals)
        # the lines alone: zero values at slope zero never conflict
        zeros = np.zeros(len(points))
        span_base, _ = canonical_lines_by_pairs(space, points, zeros, 0.0)
        span = ou.partial_functional(space, points, zeros, 0.0, strict=False).subspace
        assert span.base.shape == span_base.shape and _bits(span.base) == _bits(span_base)

    @settings(max_examples=200, deadline=None)
    @given(data=partial_data())
    def test_consistency_witness(self, data):
        pf = _build(*data)
        if pf is None:
            return
        expected = consistency_witness_by_pairings(pf)
        report = ou.check_partial_consistency(pf)
        assert repr(report.witness) == repr(expected)
        assert pf.consistent == (expected is None)
        if not pf.consistent:
            space, points, values, c = data
            message = f"inconsistent partial functional: {expected}"
            with pytest.raises(ValueError) as got:
                ou.partial_functional(space, points, values, c)
            assert str(got.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        data=partial_data(),
        targets=st.lists(st.lists(coords, min_size=4, max_size=4), min_size=1, max_size=6),
    )
    def test_interval_span_and_canonical_values(self, data, targets):
        pf = _build(*data)
        if pf is None or not pf.consistent:
            return
        space = pf.space
        ys = [np.array(t[: space.dim]) for t in targets]
        ys += [2.5 * space.unit, *pf.subspace.base, *(b - 1.5 * space.unit for b in pf.subspace.base)]
        lower = ou.canonical_extension(pf, mode="lower")
        mid = ou.canonical_extension(pf, mode="midpoint")
        for y in ys:
            assert ou.span_contains(pf, y) == span_contains_by_lines(pf, y)
            try:
                lo, hi = interval_by_pairings(pf, y)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    ou.extension_interval(pf, y)
                assert str(got.value) == str(exc)
                continue
            interval = ou.extension_interval(pf, y)
            assert (interval.p_minus.hex(), interval.p_plus.hex()) == (lo.hex(), hi.hex())
            assert lower(y).hex() == lo.hex()
            assert mid(y).hex() == (0.5 * (lo + hi)).hex()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @settings(max_examples=100, deadline=None)
    @given(data=many_points(), block=st.integers(1, 4000))
    def test_chunk_edges_inside_the_data(self, data, block):
        """With blocks of a few rows, chunk edges fall inside the pairwise gaps
        and the threshold scan; lines, values, witnesses and messages keep their bits."""
        space, points, values, c = data
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ou.extension, "_BLOCK", block)
            try:
                base, vals = canonical_lines_by_pairs(space, points, values, c)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    ou.extension._canonical_lines(space, points, values, c)
                assert str(got.value) == str(exc)
                return
            got_base, got_vals = ou.extension._canonical_lines(space, points, values, c)
            assert got_base.shape == base.shape and _bits(got_base) == _bits(base)
            assert _bits(got_vals) == _bits(vals)
            try:
                pf = ou.partial_functional(space, points, values, c, strict=False)
            except ou.NonFiniteError:
                assert not np.isfinite(base @ unit_rows_by_rows(space).T).all()
                return
            assert repr(ou.check_partial_consistency(pf).witness) == repr(consistency_witness_by_pairings(pf))

    def test_many_lines_seeded(self, rng):
        for k in range(60):
            space = PROPERTY_SPACES[k % len(PROPERTY_SPACES)]
            w = dual_cone_weights(space, rng)
            pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(0, 40)), space.dim))
            values = pts @ w
            if k % 3 == 0 and len(values):
                values[rng.integers(0, len(values), size=3)] += rng.uniform(-1.0, 1.0, size=3)
            pf = ou.partial_functional(space, pts, values, float(w @ space.unit), strict=False)
            witness = ou.check_partial_consistency(pf).witness
            assert repr(witness) == repr(consistency_witness_by_pairings(pf))
            if not pf.consistent:
                continue
            for y in rng.uniform(-3.0, 3.0, size=(8, space.dim)):
                interval = ou.extension_interval(pf, y)
                lo, hi = interval_by_pairings(pf, y)
                assert (interval.p_minus.hex(), interval.p_plus.hex()) == (lo.hex(), hi.hex())


STEP_SPACES = (PROPERTY_SPACES[0], PROPERTY_SPACES[3], PROPERTY_SPACES[4])  # orth2, HS4, rows off the 0/1 grid


@st.composite
def step_data(draw):
    """A consistent partial functional with up to 40 lines, read off a maximum of
    positive linear functionals that all take the value 1 at the unit, and a target."""
    space = draw(st.sampled_from(STEP_SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 4)), space.cone.rows.shape[0])) @ space.cone.rows
    W /= (W @ space.unit)[:, None]
    pts = rng.uniform(-3.0, 3.0, size=(draw(st.integers(0, 40)), space.dim))
    pf = ou.partial_functional(space, pts, np.max(pts @ W.T, axis=1, initial=-np.inf), 1.0)
    return pf, rng.uniform(-3.0, 3.0, size=space.dim)


class TestExtensionStep:
    """One extension step appends a line.  Its value is checked against the
    thresholds at the new line's stored pairings with the slack of each pair,
    so a ``given`` value is accepted exactly when the full scan passes."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=step_data(),
        rule=st.sampled_from(("lower", "upper", "midpoint", "given")),
        end=st.sampled_from(("p_minus", "p_plus")),
        offset=st.sampled_from((-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 10.0)),
    )
    def test_step(self, data, rule, end, offset):
        pf, y = data
        m, space, c = pf.subspace.m, pf.space, pf.unit_value
        if ou.span_contains(pf, y):
            return
        interval = ou.extension_interval(pf, y)
        rep, mu = ou.canonicalize(space, y)
        # the largest slack of a pair that the new line forms at the interval's end
        edge = getattr(interval, end)
        s = max(line_slacks(pf, rep, edge - mu * c))
        value = edge + offset * s if rule == "given" else None
        p = {"lower": interval.p_minus, "upper": interval.p_plus, "midpoint": interval.midpoint, "given": value}[rule]
        g = p - mu * c
        # the result the step must describe, checked by the full scan at construction
        full = ou.extension._from_lines(space, np.vstack([pf.X, rep]), np.append(pf.G, g), c)
        assert repr(full._witness) == repr(consistency_witness_by_pairings(full))
        assert full.consistent or rule == "given"
        if not full.consistent:
            with pytest.raises(ValueError) as got:
                ou.extend_one(pf, y, rule=rule, value=value)
            interval_text = f"[{interval.p_minus}, {interval.p_plus}]"
            assert str(got.value) == f"value {value} outside the admissible interval {interval_text}"
            return
        out = ou.extend_one(pf, y, rule=rule, value=value)
        assert out.subspace.m == m + 1 and out.consistent
        assert _bits(out.subspace.base[:m]) == _bits(pf.subspace.base)
        assert _bits(out.values[:m]) == _bits(pf.values)
        assert _bits(out.subspace.base[m]) == _bits(rep)
        assert _bits(out.values[m]) == _bits(g)
        assert _bits(out.X) == _bits(full.X) and _bits(out.G) == _bits(full.G)
        assert out.AT.shape == full.AT.shape and _bits(out.AT) == _bits(full.AT)
        assert _bits(out.norms) == _bits(full.norms) == _bits(np.abs(out.AT).max(axis=0))
        assert ou.extension._consistency_witness(out.AT, out.G, out.norms, out.unit_value) is None
        assert consistency_witness_by_pairings(out) is None

    @settings(max_examples=100, deadline=None)
    @given(data=step_data(), rule=st.sampled_from(("lower", "upper", "midpoint")), k=st.integers(1, 6))
    def test_extend_all_folds_the_step(self, data, rule, k):
        pf, y = data
        ys = [y, *np.random.default_rng((k, 1)).uniform(-3.0, 3.0, size=(k, pf.space.dim)), y + 2.0 * pf.space.unit]
        out = ou.extend_all(pf, ys, rule=rule)
        step = pf
        for target in ys:
            if not ou.span_contains(step, target):
                step = ou.extend_one(step, target, rule=rule)
        assert _bits(out.subspace.base) == _bits(step.subspace.base)
        assert _bits(out.values) == _bits(step.values)
        # the last target shares the first one's line
        assert out.subspace.m == pf.subspace.m + k + (not ou.span_contains(pf, y))
        assert out.consistent and consistency_witness_by_pairings(out) is None
        # the incremental steps leave what the full scan builds over the same lines
        full = ou.extension._from_lines(out.space, out.X, out.G, out.unit_value)
        assert full.AT.shape == out.AT.shape and _bits(full.AT) == _bits(out.AT)
        assert full._witness is None


def _within(got, want, values=()):
    """``got`` within ``1e-12 * (1 + |v|)`` of ``want``, ``v`` the largest of
    ``want`` and ``values`` in magnitude; equal infinities agree."""
    if got == want:
        return True
    scale = max((abs(v) for v in (want, *values)), default=0.0)
    return abs(got - want) <= 1e-12 * (1.0 + scale)


class TestDifferenceFirstReferences:
    """The stored-pairing arithmetic ``R @ y - R @ x`` on the unit-scaled rows
    ``R`` rounds differently from the difference-first ``R @ (y - x)`` of the
    per-line ray-threshold references, by ``1e-12 * (1 + |value|)`` at most."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=partial_data(),
        targets=st.lists(st.lists(coords, min_size=4, max_size=4), min_size=1, max_size=6),
    )
    def test_interval_endpoints(self, data, targets):
        pf = _build(*data)
        if pf is None or not pf.consistent:
            return
        ys = [np.array(t[: pf.space.dim]) for t in targets] + list(pf.subspace.base)
        for y in ys:
            # an infinite tolerance skips the empty-interval test, which each
            # side makes at its own rounding
            got = interval_by_pairings(pf, y, tol=np.inf)
            want = interval_by_ray_thresholds(pf, y, tol=np.inf)
            assert _within(got[0], want[0]) and _within(got[1], want[1]), (got, want)

    @settings(max_examples=200, deadline=None)
    @given(data=partial_data(), tol=st.sampled_from((1e-9, 0.0, 1e-3)))
    def test_witness_verdicts(self, data, tol):
        pf = _build(*data)
        if pf is None:
            return
        got = consistency_witness_by_pairings(pf, tol)
        want = consistency_witness_by_pairs(pf, tol)
        pair = lambda w: None if w is None else (w["line_i"], w["line_j"])
        if pair(got) == pair(want):
            assert got is None or _within(got["threshold"], want["threshold"])
            return
        # The verdicts part at the earlier of the two pairs, in the scan's
        # row-major order: there the excess g_i - g_j - t_ij * c must sit
        # within the bound of the pair's slack at tol.
        i, j = min(p for p in (pair(got), pair(want)) if p is not None)
        xs, G, c = pf.X, pf.G, pf.unit_value
        t_ij = ou.ray_thresholds(pf.space, xs[j], xs[i])[1]
        excess = G[i] - G[j] - t_ij * c
        R = unit_rows_by_rows(pf.space)
        s = slack(pair_size(G[i], G[j], c, R @ xs[i], R @ xs[j]), tol)
        assert _within(excess, s, (G[i], G[j], t_ij * c)), (got, want)


fold_entries = st.one_of(st.sampled_from((np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0)), st.floats())


class TestFoldMin:
    @settings(max_examples=500, deadline=None)
    @given(v=st.lists(fold_entries, min_size=1, max_size=40))
    def test_python_fold(self, v):
        """NaN never wins, ties keep the first, and the sign of a zero is kept."""
        a = np.array(v, dtype=float)
        assert _bits(ou.extension._fold_min(a)) == _bits(min(np.inf, *v))
        assert _bits(-ou.extension._fold_min(-a)) == _bits(max(-np.inf, *v))


class TestOverflowWarnings:
    """Complements the CLI-level ``TestOverflow``: at 1e308 scale the
    thresholds and the differences of the stored unit-scaled pairings
    overflow to infinities, and nothing warns."""

    def test_no_runtime_warning(self):
        big = 1e308
        spaces = (ou.halfspace_space([[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0]), ou.orthant(2, unit=[0.5, 0.5]))
        # extend_one runs only on targets whose unit component is finite, so
        # that each has a representative modulo the unit line
        targets = ([big, -big], [-big, big], [1.7e308, -1.7e308], [0.5 * big, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for space in spaces:
                # lines whose largest unit-scaled pairing is 1e308, so the pairings
                # are finite and their differences of 2e308 in the consistency scan are not
                s = big / np.abs(space.unit_rows).max()
                ou.partial_functional(space, [[s, -s], [-s, s]], [-big, big], 1.0, strict=False)
                w = space.cone.rows[0]  # (1, 0) on both spaces: a positive linear functional
                pf = ou.partial_functional(space, [[1.0, 0.0], [s, -s]], [1.0, s], float(w @ space.unit))
                ou.extension_interval(pf, [big, big])
                for y in targets:
                    ou.extension_interval(pf, y)
                    for rule in ("lower", "upper", "midpoint"):
                        try:
                            ou.extend_one(pf, y, rule=rule)
                        except ValueError:
                            pass  # a target in the span, or a value that breaks consistency


class TestNonFiniteLines:
    """A line whose value or unit-scaled pairing overflows is refused: every
    comparison with it would be false, so it would bound nothing.  Over its
    pairing 1 with the unit (0.5, 0.5), each row below scales to (2, 0) or
    (0, 2), so the pairings of (1e308, -1e308) overflow."""

    def test_base_line_with_an_overflowing_pairing(self):
        space = ou.halfspace_space([[2.0, 0.0], [0.0, 2.0]], [0.5, 0.5])
        for strict in (True, False):
            with pytest.raises(ou.NonFiniteError, match="not finite"):
                ou.partial_functional(space, [[1e308, -1e308]], [0.0], 1.0, strict=strict)

    @pytest.mark.parametrize("rule", ["lower", "upper", "midpoint"])
    def test_step_with_an_infinite_interval(self, rule):
        # the interval at the target is [-inf, inf], so no rule picks a finite value
        pf = ou.partial_functional(ou.orthant(2, unit=[0.5, 0.5]), [], [], 1.0)
        with pytest.raises(ou.NonFiniteError, match="not finite"):
            ou.extend_one(pf, [1e308, -1e308], rule=rule)
        with pytest.raises(ou.NonFiniteError):
            ou.extend_all(pf, [[1.0, 0.0], [1e308, -1e308]], rule=rule)

    def test_step_with_an_overflowing_pairing(self):
        space = ou.halfspace_space([[2.0, 0.0], [0.0, 2.0]], [0.5, 0.5])
        pf = ou.partial_functional(space, [], [], 1.0)
        with pytest.raises(ou.NonFiniteError, match="not finite"):
            ou.extend_one(pf, [1e308, -1e308], rule="given", value=0.0)

    def test_given_value_whose_line_value_overflows(self):
        # the value 0 lies in the interval [0, inf] at the target, but stored as
        # 0 - mu * c on the line of the target's representative it is -inf;
        # that raises before the value is checked against the stored lines
        pf = ou.partial_functional(ou.orthant(2, unit=[0.5, 0.5]), [], [], 1e10)
        with pytest.raises(ou.NonFiniteError, match="not finite"):
            ou.extend_one(pf, [1e300, 0.0], rule="given", value=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_given_value_that_is_not_finite_is_outside(self, value):
        # no line value, so in no interval, also where the interval is unbounded on that side
        pf = ou.partial_functional(ou.orthant(2, unit=[0.5, 0.5]), [], [], 1.0)
        with pytest.raises(ValueError, match=f"value {value} outside the admissible interval") as got:
            ou.extend_one(pf, [1e308, -1e308], rule="given", value=value)
        assert not isinstance(got.value, ou.NonFiniteError)

    def test_is_a_value_error(self):
        assert issubclass(ou.NonFiniteError, ValueError)


class TestSpan:
    """Span membership reads the stored lines of a partial functional; zero
    values at slope zero give the lines alone."""

    def test_examples(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [0.0], 0.0)
        assert ou.span_contains(pf, [3.0, 2.0])
        assert ou.span_contains(pf, [5.0, 5.0])
        assert not ou.span_contains(pf, [1.0, 2.0])

    def test_empty_span_is_axis_line(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 0.0)
        assert pf.subspace.m == 0
        assert ou.span_contains(pf, [-2.0, -2.0])
        assert not ou.span_contains(pf, [1.0, 0.0])

    def test_duplicate_lines_merge(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0], [3.0, 2.0], [2.0, 2.0]], [0.0, 0.0, 0.0], 0.0)
        assert pf.subspace.m == 1


class TestPartialFunctional:
    def test_consistent_fixture(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [0.5], 1.0)
        assert pf.consistent
        assert ou.check_partial_consistency(pf).passed

    def test_inconsistent_fixture(self, orth2):
        with pytest.raises(ValueError, match="inconsistent"):
            ou.partial_functional(orth2, [[1.0, 0.0]], [2.0], 1.0)
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [2.0], 1.0, strict=False)
        report = ou.check_partial_consistency(pf)
        assert not report.passed and report.witness is not None

    def test_strict_rejection_computes_witness_once(self, orth2, monkeypatch):
        calls = []
        real = ou.extension._consistency_witness

        def spy(pf, *args, **kwargs):
            calls.append(pf)
            return real(pf, *args, **kwargs)

        monkeypatch.setattr(ou.extension, "_consistency_witness", spy)
        with pytest.raises(ValueError, match="inconsistent partial functional: {'line_i'"):
            ou.partial_functional(orth2, [[1.0, 0.0]], [2.0], 1.0)
        assert len(calls) == 1

    def test_axis_only_always_consistent(self, orth2):
        for c in (0.0, 0.5, 3.0):
            assert ou.partial_functional(orth2, [], [], c).consistent

    def test_negative_slope_rejected(self, orth2):
        with pytest.raises(ValueError, match="nonnegative"):
            ou.partial_functional(orth2, [], [], -0.1)

    def test_axis_point_value_forced(self, orth2):
        # a base point on the axis line must carry the slope-determined value
        pf = ou.partial_functional(orth2, [[2.0, 2.0]], [2.0], 1.0)
        assert pf.subspace.m == 0
        with pytest.raises(ValueError, match="axis line"):
            ou.partial_functional(orth2, [[2.0, 2.0]], [1.5], 1.0)

    def test_duplicate_value_conflict(self, orth2):
        with pytest.raises(ValueError, match="duplicate"):
            ou.partial_functional(orth2, [[1.0, 0.0], [2.0, 1.0]], [0.5, 0.9], 1.0)

    def test_canonical_values_adjusted(self, orth2):
        # (2,1) = (1,0) + unit, so both describe one line and must agree
        pf = ou.partial_functional(orth2, [[1.0, 0.0], [2.0, 1.0]], [0.5, 1.5], 1.0)
        assert pf.subspace.m == 1


class TestBlockMerge:
    """Pins of the block construction: only points that something holds pass in
    order, the axis line first, a point merged away is never a line, and the
    first violated pair is the row-major first at any chunk size."""

    @staticmethod
    def point(mu, r):
        """``mu * unit + (r, -r)`` on ``orthant(2)``: its representative and its
        unit-scaled column are ``(r, -r)``, its order norm ``|r|``."""
        return mu * np.ones(2) + np.array([r, -r])

    def test_a_point_held_only_by_a_merged_point_starts_a_line(self, orth2):
        # the line slack is 1e-9 * (1 + both |mu| + both order norms): about 0.2 for
        # (p0, p1), 0.1 for (p0, p2) and (p1, p2), at gaps 0.15, 0.2 and 0.05
        p0, p1, p2 = self.point(1e8, 1.0), self.point(-1e8, 1.15), self.point(0.0, 1.2)
        zeros = [0.0, 0.0, 0.0]
        assert ou.partial_functional(orth2, [p0, p1], zeros[:2], 0.0).subspace.m == 1
        assert ou.partial_functional(orth2, [p1, p2], zeros[:2], 0.0).subspace.m == 1
        assert ou.partial_functional(orth2, [p0, p2], zeros[:2], 0.0).subspace.m == 2
        pf = ou.partial_functional(orth2, [p0, p1, p2], zeros, 0.0)
        base, _ = canonical_lines_by_pairs(orth2, [p0, p1, p2], zeros, 0.0)
        assert pf.subspace.m == 2 and _bits(pf.subspace.base) == _bits(base)
        assert _bits(pf.subspace.base[1]) == _bits(ou.canonicalize(orth2, p2)[0])

    def test_a_point_held_by_the_axis_line_and_a_line_joins_the_axis_line(self, orth2):
        # p1 is within the slack (about 0.1) of the axis line and of p0's line; the axis
        # line gives it the value c * mu, p0's line the value 0.5 of their representative
        p0, p1 = self.point(0.0, 0.05), self.point(1e8, 0.06)
        pf = ou.partial_functional(orth2, [p0, p1], [0.5, 1e8], 1.0, strict=False)
        assert pf.subspace.m == 1 and _bits(pf.values) == _bits([0.5])
        message = (
            "value conflict on the axis line: point [100000000.06, 99999999.94] carries 100000000.5, "
            "but the unit slope forces 100000000.0"
        )
        for build in (ou.extension._canonical_lines, canonical_lines_by_pairs):
            with pytest.raises(ValueError) as got:
                build(orth2, [p0, p1], [0.5, 1e8 + 0.5], 1.0)
            assert str(got.value) == message

    def test_the_first_violated_pair_in_row_major_order(self, orth2, monkeypatch):
        points = [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0], [3.0, -1.0]]
        values = [0.5, 0.5, 0.5, 4.0, 4.0]  # lines 4 and 5 lifted above lines 0 to 3
        want = {"line_i": 4, "line_j": 0, "threshold": 1.0, "g_i": 3.0, "g_j": 0.0, "slope": 1.0}
        # 6 lines of 2 unit-scaled rows: one block, rows one by one, rows in pairs
        for block in (ou.extension._BLOCK, 12, 24):
            monkeypatch.setattr(ou.extension, "_BLOCK", block)
            pf = ou.partial_functional(orth2, points, values, 1.0, strict=False)
            assert pf._witness == want
            assert repr(pf._witness) == repr(consistency_witness_by_pairings(pf))
        violated = [(i, j) for i, j, _, excess in consistency_pairs_exact(pf) if excess > 0]
        assert violated == [(4, 0), (4, 1), (4, 2), (4, 3), (5, 0), (5, 1), (5, 2), (5, 3)]

    def test_the_first_conflict_in_the_order_of_the_data_keeps_its_message(self, orth2):
        # (2, 1) = (1, 0) + unit, with line values -0.5 and 3.5 at slope 1; (1, 1)
        # lies on the axis line, where the slope forces 1.0
        points, values = [[1.0, 0.0], [2.0, 1.0], [1.0, 1.0]], [0.0, 5.0, 7.0]
        expected = (
            "value conflict on a duplicate line: -0.5 vs 3.5",
            "value conflict on the axis line: point [1.0, 1.0] carries 7.0, but the unit slope forces 1.0",
        )
        for order, message in zip(([0, 1, 2], [2, 1, 0]), expected):
            ps, vs = [points[k] for k in order], [values[k] for k in order]
            for build in (ou.partial_functional, canonical_lines_by_pairs):
                with pytest.raises(ValueError) as got:
                    build(orth2, ps, vs, 1.0)
                assert str(got.value) == message


class TestMemory:
    """The pairwise blocks are chunked to about 1 MiB each: one unchunked block
    of the gaps between 3,000 points on HS4 would take about 360 MB."""

    BOUND = 32 * 2**20

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_partial_functional_on_3000_points(self, hs4, rng):
        w = dual_cone_weights(hs4, rng)
        points = rng.uniform(-3.0, 3.0, size=(3000, hs4.dim))
        pf, peak = self.peak(lambda: ou.partial_functional(hs4, points, points @ w, float(w @ hs4.unit)))
        assert pf.subspace.m == 3000 and pf.consistent
        assert peak < self.BOUND

    def test_consistency_scan_on_400_lines(self, hs4, rng):
        w = dual_cone_weights(hs4, rng)
        points = rng.uniform(-3.0, 3.0, size=(400, hs4.dim))
        values = points @ w
        values[-1] += 100.0  # the last line, so the scan passes every chunk
        c = float(w @ hs4.unit)
        report, peak = self.peak(
            lambda: ou.check_partial_consistency(ou.partial_functional(hs4, points, values, c, strict=False))
        )
        assert not report.passed and report.witness["line_i"] == 400
        assert peak < self.BOUND


class TestExtensionInterval:
    def test_axis_only_fixture(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        interval = ou.extension_interval(pf, [1.0, 0.0])
        assert interval.p_minus == pytest.approx(0.0, abs=1e-12)
        assert interval.p_plus == pytest.approx(1.0, abs=1e-12)

    def test_axis_point_collapses(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        interval = ou.extension_interval(pf, 2.0 * orth2.unit)
        assert interval.p_minus == pytest.approx(2.0, abs=1e-12)
        assert interval.p_plus == pytest.approx(2.0, abs=1e-12)

    def test_one_line_fixture(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [0.5], 1.0)
        interval = ou.extension_interval(pf, [0.0, 1.0])
        assert interval.p_minus == pytest.approx(0.0, abs=1e-12)
        assert interval.p_plus == pytest.approx(1.0, abs=1e-12)

    def test_rejects_inconsistent(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [2.0], 1.0, strict=False)
        with pytest.raises(ValueError):
            ou.extension_interval(pf, [0.0, 1.0])

    def test_matches_line_search_oracle(self, rng):
        for k in range(40):
            space = _spaces()[k % len(_spaces())]
            pf = consistent_instance(space, rng, m=int(rng.integers(0, 5)))
            for _ in range(2):
                y = rng.uniform(-3.0, 3.0, size=space.dim)
                interval = ou.extension_interval(pf, y)
                lo, hi = interval_by_line_search(pf, y)
                assert interval.p_minus == pytest.approx(lo, abs=1e-7)
                assert interval.p_plus == pytest.approx(hi, abs=1e-7)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
        )
    )
    def test_interval_never_empty(self, data):
        space = ou.orthant(2)
        x1, g_shift, y1, y2 = data
        w = np.array([0.25, 0.75])
        pt = np.array([x1, g_shift])
        pf = ou.partial_functional(space, [pt], [float(w @ pt)], 1.0)
        interval = ou.extension_interval(pf, np.array([y1, y2]))
        assert interval.p_minus <= interval.p_plus + 1e-12


class TestExtendOne:
    def test_midpoint_value(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        out = ou.extend_one(pf, [1.0, 0.0], rule="midpoint")
        pinned = ou.extension_interval(out, [1.0, 0.0])
        assert pinned.p_minus == pytest.approx(0.5, abs=1e-12)
        assert pinned.p_plus == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_keep_consistency(self, rng):
        for k in range(30):
            space = _spaces()[k % len(_spaces())]
            pf = consistent_instance(space, rng, m=2)
            y = rng.uniform(-3.0, 3.0, size=space.dim)
            if ou.span_contains(pf, y):
                continue
            interval = ou.extension_interval(pf, y)
            for rule in ("lower", "upper", "midpoint"):
                assert ou.extend_one(pf, y, rule=rule).consistent
            given = ou.extend_one(pf, y, rule="given", value=interval.p_minus)
            assert given.consistent

    def test_axis_target_rejected(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        with pytest.raises(ValueError, match="span"):
            ou.extend_one(pf, [3.0, 3.0])

    def test_given_outside_interval_rejected(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        with pytest.raises(ValueError, match="outside"):
            ou.extend_one(pf, [1.0, 0.0], rule="given", value=1.5)

    def test_restriction_unchanged(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [0.5], 1.0)
        out = ou.extend_one(pf, [0.0, 1.0], rule="midpoint")
        again = ou.extension_interval(out, [1.0, 0.0])
        assert again.p_minus == pytest.approx(0.5, abs=1e-12)
        assert again.p_plus == pytest.approx(0.5, abs=1e-12)


class TestExtendAll:
    def test_empty_targets_noop(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [0.5], 1.0)
        out = ou.extend_all(pf, [])
        assert out is pf

    def test_grid_fold_stays_consistent(self, orth2, rng):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        targets = [np.array([a, b]) for a in (-1.0, 0.0, 1.5) for b in (-0.5, 1.0, 2.0)]
        for rule in ("lower", "upper", "midpoint"):
            out = ou.extend_all(pf, targets, rule=rule)
            assert out.consistent
            assert ou.check_partial_consistency(out).passed

    def test_span_members_skipped(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        out = ou.extend_all(pf, [[2.0, 2.0], [1.0, 0.0], [2.0, 1.0]])
        assert out.subspace.m == 1

    def test_order_dependence_witness(self, orth3):
        # midpoint values can depend on the fold order; both stay consistent
        base = np.array([-0.7, 1.2, -0.8])
        y0 = np.array([-0.2, -1.8, -0.5])
        y1 = np.array([-1.5, -1.2, 1.25])
        start = ou.extend_one(ou.partial_functional(orth3, [], [], 1.0), base, rule="lower")

        first = ou.extend_all(start, [y0, y1], rule="midpoint")
        second = ou.extend_all(start, [y1, y0], rule="midpoint")
        v_first = ou.extension_interval(first, y1).midpoint
        v_second = ou.extension_interval(second, y1).midpoint
        assert v_first == pytest.approx(-0.4, abs=1e-12)
        assert v_second == pytest.approx(-0.125, abs=1e-12)
        assert first.consistent and second.consistent


class TestCanonicalExtension:
    def test_lower_mode_fixture(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 1.0)
        f = ou.canonical_extension(pf, mode="lower")
        assert f([1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert ou.canonical_extension(pf, mode="midpoint")([1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_axis_line_exact(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [0.5], 1.0)
        f = ou.canonical_extension(pf)
        for lam in (-2.0, 0.0, 0.75, 3.0):
            assert f(lam * orth2.unit) == pytest.approx(lam, abs=1e-12)

    def test_restriction_identity(self, rng):
        for k in range(20):
            space = _spaces()[k % len(_spaces())]
            w = dual_cone_weights(space, rng)
            pts = rng.uniform(-3.0, 3.0, size=(3, space.dim))
            values = pts @ w
            pf = ou.partial_functional(space, pts, values, float(w @ space.unit))
            for mode in ("lower", "midpoint"):
                f = ou.canonical_extension(pf, mode=mode)
                for p, g in zip(pts, values):
                    assert f(p) == pytest.approx(g, abs=1e-12)

    def test_shift_equivariance(self, rng):
        space = _spaces()[3]
        pf = consistent_instance(space, rng, m=3)
        for mode in ("lower", "midpoint"):
            f = ou.canonical_extension(pf, mode=mode)
            for _ in range(50):
                x = rng.uniform(-3.0, 3.0, size=space.dim)
                lam = rng.uniform(-2.0, 2.0)
                assert f(x + lam * space.unit) == pytest.approx(
                    f(x) + lam * pf.unit_value, abs=1e-12
                )

    def test_monotone_endpoints(self, rng):
        space = _spaces()[0]
        pf = consistent_instance(space, rng, m=3)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=2)
            step = rng.uniform(0.0, 2.0, size=2)
            a = ou.extension_interval(pf, x)
            b = ou.extension_interval(pf, x + step)
            assert a.p_minus <= b.p_minus + 1e-12
            assert a.p_plus <= b.p_plus + 1e-12

    def test_passes_both_checkers(self, rng):
        space = _spaces()[1]
        pf = consistent_instance(space, rng, m=3)
        for mode in ("lower", "midpoint"):
            f = ou.canonical_extension(pf, mode=mode)
            assert ou.check_weak_additivity(f, n=128).passed
            assert ou.check_order_preserving(f, n=128).passed

    def test_degenerate_zero_slope(self, orth2):
        pf = ou.partial_functional(orth2, [], [], 0.0)
        f = ou.canonical_extension(pf)
        for x in ([1.0, 0.0], [3.0, -2.0], [0.0, 0.0]):
            assert f(x) == pytest.approx(0.0, abs=1e-12)


class TestJson:
    def test_roundtrip(self, orth2):
        pf = ou.partial_functional(orth2, [[1.0, 0.0]], [0.5], 1.0)
        again = ou.partial_from_json(orth2, ou.partial_to_json(pf))
        assert again.consistent
        assert again.unit_value == 1.0
        assert again.subspace.m == 1

    def test_malformed(self, orth2):
        with pytest.raises(ValueError):
            ou.partial_from_json(orth2, {"base_points": []})
