"""The batched evaluators, law checkers and samplers against their per-row references.

Every comparison is exact: equal values, equal signs of zero, equal NaN
positions, equal report bytes and equal random streams.  The references are
the per-row loops in ``oracles.py``.
"""

import itertools
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import orderunit as ou
from orderunit import cli, sampling
from oracles import (
    apply_by_rows,
    ball_offsets_by_loop,
    ball_point_by_loop,
    ball_points_by_loop,
    comparable_pairs_by_loop,
    cone_points_by_loop,
    dense_sequence_by_keys,
    equicontinuity_by_loop,
    evaluate_by_rows,
    graph_check_by_loop,
    lipschitz_defect_by_loop,
    norm_bounds_by_loop,
    open_ball_forward_by_loop,
    order_preserving_by_loop,
    order_preserving_op_by_loop,
    pairs_within_by_loop,
    positive_by_loop,
    weak_additivity_by_loop,
    weak_metric_by_loop,
    weak_nbhd_contains_by_loop,
    weakly_additive_op_by_loop,
)
from strategies import interior_unit_spaces, point_arrays

# coordinates with ties, signed zeros and units, so sorts, maxima and signs get exercised
coords = st.one_of(
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
)
seeds = st.integers(0, 2**16)
sizes = st.one_of(st.sampled_from([0, 1, 3, 7]), st.integers(0, 41))


# overflowing, non-finite and subnormal coordinates
SPECIAL_COORDS = [np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -1e-310]


def non_finite_rows(data, dim):
    """One to three rows mixing ``coords`` and ``SPECIAL_COORDS``, each holding a NaN or an infinity."""
    rows = data.draw(arrays(float, (data.draw(st.integers(1, 3)), dim), elements=st.one_of(coords, st.sampled_from(SPECIAL_COORDS))))
    for row in rows:
        row[data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return rows


def same(a, b) -> bool:
    """Bit-for-bit array equality: shape, values, NaN positions and signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def same_json(report, reference) -> bool:
    """Equal reports down to the last bit: ``json.dumps`` writes every float exactly, ``-0.0`` and ``NaN`` too."""
    return json.dumps(report.to_json(), sort_keys=True) == json.dumps(reference.to_json(), sort_keys=True)


def points(dim, max_rows=12):
    return st.integers(0, max_rows).flatmap(lambda n: arrays(float, (n, dim), elements=coords))


def capacity(dim, seed):
    """A capacity on ``dim`` points, monotone or not, with repeated values."""
    rng = np.random.default_rng(seed)
    vals = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform()], size=2**dim)
    vals[0] = 0.0
    return ou.Capacity(n=dim, values=vals)


def functionals(dim, seed):
    rng = np.random.default_rng(seed)
    space = ou.orthant(dim)
    weights = rng.choice([-0.0, 0.0, -1.0, 0.5, rng.normal()], size=dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fs = [
            ou.linear_functional(space, weights),
            ou.choquet_functional(space, capacity(dim, seed)),
            ou.maxplus_functional(space, weights),
            ou.custom_functional(space, lambda x: x[0] ** 2 - x[-1]),
            ou.canonical_extension(ou.partial_functional(space, [np.eye(dim)[0]], [0.5], 1.0)),
        ]
    if dim == 2:
        fs.append(ou.sqrt_gap_functional(space))
    return fs


def operators(dim, seed):
    rng = np.random.default_rng(seed)
    space = ou.orthant(dim)
    cod = int(rng.integers(1, 5))
    matrix = rng.choice([-0.0, 0.0, 1.0, 0.25, rng.uniform()], size=(cod, dim))
    Ts = [
        ou.linear_positive(space, ou.orthant(cod), matrix, strict=False),
        ou.stack_operator(space, functionals(dim, seed)[:4]),
        ou.custom_operator(space, ou.orthant(2), lambda x: np.array([x[0] * x[-1], max(x)])),
    ]
    if dim == 2:
        Ts.append(ou.clamp_operator(space))
    return Ts


class TestBatchEvaluators:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 5), seed=seeds)
    def test_functionals_equal_the_row_loop(self, data, dim, seed):
        X = data.draw(points(dim))
        for f in functionals(dim, seed):
            assert same(f.batch(X), evaluate_by_rows(f, X)), f.kind

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 5), seed=seeds)
    def test_operators_equal_the_row_loop(self, data, dim, seed):
        X = data.draw(points(dim))
        for T in operators(dim, seed):
            assert same(T.batch(X), apply_by_rows(T, X)), T.kind

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 20))  # past 16 columns the row kernels reduce instead of folding
    def test_space_kernels_equal_the_scalar_ones(self, data, dim):
        rows = data.draw(arrays(float, (data.draw(st.integers(1, 2 * dim)), dim), elements=coords))
        space = ou.halfspace_space(rows, np.ones(dim))
        X = data.draw(points(dim, max_rows=20))
        # rows holding NaN and infinities, in the middle so the folds meet them after finite rows
        X = np.insert(X, len(X) // 2, non_finite_rows(data, dim), axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert same(ou.spaces.order_norms(space, X), [ou.order_norm(space, x) for x in X])
            assert same(ou.spaces._max_abs_rows(X), [np.max(np.abs(x)) for x in X])
        assert same(ou.spaces.cone_contains_rows(space, X), [ou.cone_contains(space, x) for x in X])


class TestMaxplusRows:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 20))
    def test_the_column_fold_equals_the_scalar_maxplus(self, data, dim):
        """Up to 16 columns the rows are folded column by column, past that reduced; ties of
        ``+0.0`` and ``-0.0``, NaN of either sign and infinities keep the one-row reduction's bits."""
        ties = st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0])
        w = data.draw(arrays(float, dim, elements=st.sampled_from([0.0, -0.0, -1.0, 1.0, -0.5])))
        X = data.draw(arrays(float, (data.draw(st.integers(0, 12)), dim), elements=st.one_of(ties, coords)))
        got = ou.functionals._maxplus_rows(w, X)
        assert np.array_equal(got.view(np.int64), np.array([ou.functionals._maxplus(w, x) for x in X], dtype=float).view(np.int64))


@st.composite
def membership_blocks(draw):
    """``(space, X, tol)`` for the block cone membership.

    A generated space with each cone row scaled by a power of ten in
    ``1e±12`` (the space stores it scaled back to largest entry 1), and
    points scaled the same way.  Most points are moved along the unit onto
    the face ``a.x = -tol`` of a drawn stored cone row ``a`` (exact up to
    rounding) and then nudged up to two ulps along one coordinate, so
    their verdicts rest on the last bits; a few coordinates are NaN, ``±inf``,
    ``±1e308`` or subnormal.
    """
    space = draw(interior_unit_spaces())
    k, dim = space.cone.rows.shape
    rows = space.cone.rows * 10.0 ** draw(arrays(int, k, elements=st.integers(-12, 12)))[:, None]
    space, unit = ou.halfspace_space(rows, space.unit), space.unit
    rows = space.cone.rows
    tol = draw(st.sampled_from([0.0, ou.spaces.TOL, 1e-6]))
    n = draw(st.integers(1, 24))
    X = draw(point_arrays(dim, n)) * 10.0 ** draw(arrays(int, n, elements=st.integers(-12, 12)))[:, None]
    faces = draw(arrays(int, n, elements=st.integers(-1, k - 1)))  # -1 leaves the point where it is
    nudges = draw(arrays(int, n, elements=st.integers(-2, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(faces >= 0):
            a = rows[faces[i]]
            X[i] -= (a @ X[i] + tol) / (a @ unit) * unit
            for _ in range(abs(nudges[i])):
                X[i, i % dim] = np.nextafter(X[i, i % dim], nudges[i] * np.inf)
    for _ in range(draw(st.integers(0, 3))):
        X[draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))] = draw(st.sampled_from(SPECIAL_COORDS))
    return space, X, tol


class TestBlockMembership:
    """``cone_contains_rows`` decides rows from one block product with a
    rounding filter, and sends every row the filter cannot decide through the
    exact per-row products of ``matvecs``: its verdicts are ``cone_contains``'s."""

    @settings(max_examples=200, deadline=None)
    @given(case=membership_blocks(), block=st.one_of(st.integers(1, 40), st.just(ou.spaces._BLOCK)))
    def test_verdicts_equal_the_scalar_predicate(self, case, block):
        space, X, tol = case
        with mock.patch.object(ou.spaces, "_BLOCK", block):  # small blocks put block edges inside the data
            got = ou.spaces.cone_contains_rows(space, X, tol)
        assert same(got, [ou.cone_contains(space, x, tol) for x in X])

    def test_face_rows_take_the_exact_path(self, monkeypatch):
        # the identity rows without the orthant tag: a tagged orthant decides finite rows by their signs alone
        orth4, real, exact = ou.halfspace_space(np.eye(4), np.ones(4)), ou.spaces.matvecs, []

        def spy(M, X):
            exact.append(X.copy())
            return real(M, X)

        monkeypatch.setattr(ou.spaces, "matvecs", spy)
        below = np.nextafter(-1e-9, -np.inf)
        X = np.array(
            [
                [1.0, 2.0, 3.0, 4.0],  # interior: in by the filter
                [0.0, 2.0, 3.0, 4.0],  # on a face
                [-1.0, 2.0, 3.0, 4.0],  # out by the filter
                [-1e-9, 1.0, 1.0, 1.0],  # exactly at -TOL: in
                [below, 1.0, 1.0, 1.0],  # one ulp below -TOL: out
                [np.nan, 1.0, 1.0, 1.0],
            ]
        )
        assert list(ou.spaces.cone_contains_rows(orth4, X)) == [True, True, False, True, False, False]
        assert same(np.concatenate(exact), X[3:])
        exact.clear()
        assert list(ou.spaces.cone_contains_rows(orth4, X, tol=0.0)) == [True, True, False, False, False, False]
        assert same(np.concatenate(exact), X[[1, 5]])

    def test_cone_predicates_stay_silent_on_overflow(self):
        space = ou.halfspace_space([[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0])
        big = np.array([1e308, 1e308])
        X = np.array([big, -big, [1e308, -1e308], [-1e308, 1e308], [np.inf, 1.0], [np.nan, 0.0], [1e308, 5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ou.cone_contains(space, big) and ou.interior_contains(space, big)
            assert ou.leq(space, -0.5 * big, 0.5 * big) and not ou.leq(space, big, -big)
            assert ou.nbhd_contains(space, big, 1.0, big) and not ou.nbhd_contains(space, -big, 1.0, big)
            for tol in (0.0, ou.spaces.TOL):
                got = ou.spaces.cone_contains_rows(space, X, tol)
                assert same(got, [ou.cone_contains(space, x, tol) for x in X])
        assert list(got) == [True, False, False, True, False, False, True]  # 0 * inf is NaN, never in

    def test_cone_points_memory(self):
        """Blocks of 4,096 points peak at about 12.7 MiB here, mostly the 6 MiB of
        box candidates; one block over all 196,608 candidates peaks at 25.7 MiB."""
        tracemalloc.start()
        try:
            points = sampling.cone_points(ou.orthant(4), 2**16, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.shape == (2**16, 4)
        assert peak < 16 * 2**20


def subject_functionals():
    orth2 = ou.orthant(2)
    hs2 = ou.halfspace_space([[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    return [
        ou.linear_functional(hs2, [0.25, 0.5]),
        ou.choquet_functional(orth2, ou.capacity_from_dict(2, {1: 0.3, 2: 0.6, 3: 1.0})),
        ou.choquet_functional(orth2, ou.capacity_from_dict(2, {1: 0.9, 2: 0.6, 3: 0.7})),
        ou.sqrt_gap_functional(orth2),
        ou.linear_functional(orth2, [1.0, -1.0]),
        ou.custom_functional(orth2, lambda x: x[0] ** 2),
        ou.custom_functional(orth2, lambda x: x[0] if x[1] < 1.5 else x[0] - 1.0),
    ]


def subject_operators():
    orth2, orth3 = ou.orthant(2), ou.orthant(3)
    return [
        ou.clamp_operator(orth2),
        ou.linear_positive(orth2, orth2, [[1.0, 0.0], [0.0, -1.0]], strict=False),
        ou.linear_positive(orth3, orth3, [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]]),
        ou.custom_operator(orth2, orth2, lambda x: np.array([x[0] ** 2, x[1]])),
        ou.custom_operator(orth2, orth2, lambda x: np.array([max(x[0], 0.0), x[1]])),
        ou.stack_operator(orth2, subject_functionals()[1:4]),
    ]


class TestBatchCheckers:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_functional_checkers_equal_the_loops(self, seed, n):
        for f in subject_functionals():
            space = f.space
            shifts = sampling.shift_samples(space, n, seed)
            pairs = comparable_pairs_by_loop(space, n, sampling.rng_from(seed))
            cone = cone_points_by_loop(space, n, sampling.rng_from(seed))
            assert same_json(ou.check_weak_additivity(f, shifts), weak_additivity_by_loop(f, shifts))
            assert same_json(ou.check_weak_additivity(f, seed=seed, n=n), weak_additivity_by_loop(f, shifts))
            assert same_json(ou.check_order_preserving(f, pairs), order_preserving_by_loop(f, pairs))
            assert same_json(ou.check_order_preserving(f, seed=seed, n=n), order_preserving_by_loop(f, pairs))
            assert same_json(ou.check_positive(f, list(cone)), positive_by_loop(f, cone))
            assert same_json(ou.check_positive(f, seed=seed, n=n), positive_by_loop(f, cone))
            rng = sampling.rng_from(seed)
            boxes = list(zip(sampling.box_points(space, n, rng), sampling.box_points(space, n, rng)))
            assert same(ou.lipschitz_defect(f, boxes), lipschitz_defect_by_loop(f, boxes))
            assert same(ou.lipschitz_defect(f, seed=seed, n=n), lipschitz_defect_by_loop(f, boxes))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_operator_checkers_equal_the_loops(self, seed, n):
        for T in subject_operators():
            space = T.domain
            shifts = sampling.shift_samples(space, n, seed)
            pairs = comparable_pairs_by_loop(space, n, sampling.rng_from(seed))
            boxes = sampling.box_points(space, n, seed)
            assert same_json(ou.check_weakly_additive_op(T, shifts), weakly_additive_op_by_loop(T, shifts))
            assert same_json(ou.check_weakly_additive_op(T, seed=seed, n=n), weakly_additive_op_by_loop(T, shifts))
            assert same_json(ou.check_order_preserving_op(T, pairs), order_preserving_op_by_loop(T, pairs))
            assert same_json(ou.check_order_preserving_op(T, seed=seed, n=n), order_preserving_op_by_loop(T, pairs))
            assert same_json(ou.graph_check(T, list(boxes)), graph_check_by_loop(T, boxes))
            assert same_json(ou.graph_check(T, seed=seed, n=n), graph_check_by_loop(T, boxes))
            lambdas = (0.5, 0.0, -3.0)
            assert same_json(ou.graph_check(T, boxes, lambdas), graph_check_by_loop(T, boxes, lambdas))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, eps=st.sampled_from([0.05, 0.5, 2.0]))
    def test_equicontinuity_equals_the_loop(self, seed, n, eps):
        orth2 = ou.orthant(2)
        members = [
            ou.identity_operator(orth2),
            ou.clamp_operator(orth2),
            ou.custom_operator(orth2, orth2, lambda x: np.floor(4.0 * x) / 4.0 + 0.25),
        ]
        family = ou.OperatorFamily(tuple(members))
        delta = ou.equicontinuity_modulus(family).delta(eps)
        pairs = pairs_within_by_loop(orth2, delta, n, sampling.rng_from(seed))
        expected = equicontinuity_by_loop(family, eps, pairs)
        assert same_json(ou.certify_equicontinuity(family, eps, pairs), expected)
        assert same_json(ou.certify_equicontinuity(family, eps, seed=seed, n=n), expected)

    def test_failing_and_passing_subjects_are_covered(self):
        verdicts = {
            ou.check_order_preserving(f, n=64).passed for f in subject_functionals()
        } | {ou.check_weakly_additive_op(T, n=64).passed for T in subject_operators()}
        assert verdicts == {True, False}


class TestBatchProbeSets:
    """The weak metric, the neighbourhood test and the open-ball forward side
    evaluate their point sets in one batch; the loops evaluate point by point."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4), seed=seeds, truncation=st.integers(1, 12))
    def test_weak_metric_equals_the_loop(self, data, dim, seed, truncation):
        fs = functionals(dim, seed)
        seq = list(data.draw(points(dim, max_rows=2 * truncation)))  # shorter and longer than the truncation
        for f in fs:
            for g in fs:
                assert same(ou.weak_metric(f, g, seq, truncation), weak_metric_by_loop(f, g, seq, truncation))
                assert same(ou.weak_metric(f, g, truncation=truncation), weak_metric_by_loop(f, g, truncation=truncation))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4), seed=seeds, eps=st.sampled_from([1e-9, 0.1, 1.0, 4.0]))
    def test_weak_nbhd_contains_equals_the_loop(self, data, dim, seed, eps):
        fs = functionals(dim, seed)
        probes = data.draw(points(dim).filter(len))
        for f in fs:
            nbhd = ou.WeakNeighborhood(f, tuple(probes), eps)
            for g in fs:
                assert ou.weak_nbhd_contains(nbhd, g) is weak_nbhd_contains_by_loop(nbhd, g)

    def test_dense_sequence_equals_the_seen_set(self):
        for dim, limit in [(1, 10**6), (2, 10**6), (3, 20000), (4, 5000)]:
            space = ou.orthant(dim)
            assert same(ou.dense_sequence(space, limit=limit), dense_sequence_by_keys(space, limit=limit))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds, epsilon=st.sampled_from([0.05, 0.5, 2.0]))
    def test_open_ball_forward_side_equals_the_loop(self, seed, epsilon):
        orth2 = ou.orthant(2)
        # unit to unit, but the gap x1 - x2 is tripled, so images leave the matching ball
        matrix = [[2.0, -1.0], [-1.0, 2.0]]
        for T in (
            ou.linear_positive(orth2, orth2, matrix, strict=False),
            ou.custom_operator(orth2, orth2, lambda x: np.array(matrix) @ x),
        ):
            expected = open_ball_forward_by_loop(T, epsilon, seed=seed, n=16)
            assert expected is not None
            report = ou.open_ball_image_check(T, epsilon, seed=seed, n=16)
            assert not report.passed and report.samples == 16
            assert json.dumps(report.witness) == json.dumps(expected)


def spaces():
    return [
        ou.orthant(2),
        ou.orthant(4),
        ou.orthant(3, unit=[1.0, 2.0, 1.0]),
        ou.halfspace_space([[1.0, 0.0], [1.0, 1.0]], [1.0, -0.0]),
        ou.halfspace_space(
            [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]],
            [1.0, 1.0, 1.0, 1.0],
        ),
    ]


class ZeroedNormals(np.random.Generator):
    """A generator whose normal draws at the given positions of its stream of
    normals are zero; every other draw is ``default_rng(seed)``'s."""

    def __init__(self, seed, zeroed):
        super().__init__(np.random.PCG64(seed))
        self._zeroed, self._drawn = set(zeroed), 0

    def _script(self, draws):
        a = np.array(draws, dtype=float)
        flat = a.reshape(-1)
        for i in range(flat.size):
            if self._drawn + i in self._zeroed:
                flat[i] = 0.0
        self._drawn += flat.size
        return a if a.ndim else float(a)

    def normal(self, size=None):
        return self._script(super().normal(size=size))

    def standard_normal(self, size=None):
        return self._script(super().standard_normal(size))


def stacked(pairs, dim):
    return np.array([np.stack(p) for p in pairs]).reshape(len(pairs), 2, dim)


class TestBatchSamplers:
    """Equal points and the generator left in the same state."""

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_cone_points(self, seed, n):
        for space in spaces():
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same(sampling.cone_points(space, n, rng), cone_points_by_loop(space, n, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_comparable_pairs(self, seed, n):
        for space in spaces():
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampling.comparable_pairs(space, n, rng)
            assert same(stacked(got, space.dim), stacked(comparable_pairs_by_loop(space, n, ref), space.dim))
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, delta=st.sampled_from([1e-3, 0.5, 3.0]))
    def test_pairs_within(self, seed, n, delta):
        for space in spaces():
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampling.pairs_within(space, delta, n, rng)
            assert same(stacked(got, space.dim), stacked(pairs_within_by_loop(space, delta, n, ref), space.dim))
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, radius=st.sampled_from([1e-3, 1.0, 7.5]))
    def test_ball_points(self, seed, n, radius):
        for space in spaces():
            center = np.arange(space.dim) - 0.5
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same(sampling.ball_points(space, center, radius, n, rng), ball_points_by_loop(space, center, radius, n, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, radius=st.sampled_from([1e-3, 1.0, 7.5]))
    def test_ball_point_keeps_the_single_draw_order(self, seed, radius):
        """A direction, its redraws, then the length: the openness searches' stream."""
        for space in spaces():
            center = np.arange(space.dim) - 0.5
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert same(sampling.ball_point(space, center, radius, rng), ball_point_by_loop(space, center, radius, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, k=st.integers(1, 60), radius=st.sampled_from([1e-3, 1.0, 7.5]))
    def test_a_run_of_ball_points_keeps_their_bits(self, seed, k, radius):
        """The openness searches draw their ball starts as one run: ``k``
        ``ball_point`` calls, bit for bit, the generator left where they leave it."""
        for space in spaces():
            center = np.arange(space.dim) - 0.5
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            want = np.array([sampling.ball_point(space, center, radius, ref) for _ in range(k)])
            assert same(sampling._ball_point_run(space, center, radius, k, rng), want)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_a_run_that_needs_a_redraw_goes_back(self):
        """A direction that needs a redraw sends the run back to the
        generator's state on entry and through the calls one by one; a
        ``Generator`` subclass goes that way from the start."""
        space, center, k = spaces()[2], [1.0, 2.0, 0.5], 6
        ref = np.random.default_rng(11)
        want = np.array([sampling.ball_point(space, center, 0.5, ref) for _ in range(k)])
        rng, norms = np.random.default_rng(11), sampling.order_norms
        with mock.patch.object(sampling, "order_norms", lambda s, X: np.where(np.arange(len(X)) == 3, 0.0, norms(s, X))):
            assert same(sampling._ball_point_run(space, center, 0.5, k, rng), want)
        assert rng.bit_generator.state == ref.bit_generator.state
        zeroed = range(3, 3 + space.dim)  # the second direction is zero and is drawn again
        rng, ref = ZeroedNormals(7, zeroed), ZeroedNormals(7, zeroed)
        want = np.array([ball_point_by_loop(space, center, 0.5, ref) for _ in range(k)])
        assert same(sampling._ball_point_run(space, center, 0.5, k, rng), want)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_a_zero_direction_reaches_the_redraws(self):
        """A direction of norm 0 is drawn again, in the loop's order.  On an
        interior unit only underflow reaches it, so the generator is scripted:
        the second direction of the first block is zero."""
        n = 5
        for space, radius in itertools.product(spaces(), [None, 0.5]):
            first = (0 if radius else n) + space.dim  # normals before the second direction
            zeroed = range(first, first + space.dim)
            rng, ref, plain = ZeroedNormals(7, zeroed), ZeroedNormals(7, zeroed), np.random.default_rng(7)
            got = sampling._ball_draws(space, n, rng, radius)
            expected = ball_offsets_by_loop(space, n, ref, radius=radius)
            assert same(np.broadcast_to(got[0], n), expected[0]) and same(got[1], np.array(expected[1]))
            assert rng.bit_generator.state == ref.bit_generator.state
            sampling._ball_draws(space, n, plain, radius)
            assert rng.bit_generator.state != plain.bit_generator.state  # the redraw took normals past the blocks
        space = spaces()[0]
        rng, ref = ZeroedNormals(7, range(2)), ZeroedNormals(7, range(2))
        assert same(sampling.ball_point(space, [1.0, 2.0], 0.5, rng), ball_point_by_loop(space, [1.0, 2.0], 0.5, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), seed=seeds)
    def test_norm_bounds_witness(self, data, dim, seed):
        """Random rows and units: mostly unbounded or boundary spaces, so the witness shows."""
        rows = data.draw(arrays(float, (data.draw(st.integers(1, 2 * dim)), dim), elements=coords))
        unit = data.draw(arrays(float, dim, elements=coords))
        space = ou.halfspace_space(rows, unit)
        samples = data.draw(st.sampled_from([0, 1, 5, 256]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = norm_bounds_by_loop(space, samples, seed)
        entry = ou.validate_space(space, samples=samples, seed=seed).checks[2]
        assert json.dumps(entry["detail"]) == json.dumps(expected)
        assert entry["passed"] == (expected is None)


class TestSamplerInvariants:
    """What the samplers promise, whatever order they draw in.  Each order
    norm is taken of the offset over the radius and compared with 1."""

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, radius=st.sampled_from([1e-3, 1.0, 7.5]))
    def test_ball_points_lie_in_the_open_ball(self, seed, n, radius):
        for space in spaces():
            center = np.arange(space.dim) - 0.5
            for p in sampling.ball_points(space, center, radius, n, seed):
                assert ou.order_norm(space, (p - center) / radius) < 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_cone_points_lie_in_the_cone(self, seed, n):
        for space in spaces():
            points = sampling.cone_points(space, n, seed)
            assert points.shape == (n, space.dim)
            assert all(ou.cone_contains(space, p) for p in points)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_comparable_pairs_are_ordered(self, seed, n):
        for space in spaces():
            pairs = sampling.comparable_pairs(space, n, seed)
            assert len(pairs) == n and all(ou.leq(space, x, y) for x, y in pairs)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, delta=st.sampled_from([1e-3, 0.5, 3.0]))
    def test_pairs_within_are_within_delta(self, seed, n, delta):
        for space in spaces():
            pairs = sampling.pairs_within(space, delta, n, seed)
            assert len(pairs) == n and all(ou.order_norm(space, (y - x) / delta) < 1.0 for x, y in pairs)


class TestEmptyInputs:
    def test_every_checker_passes_on_no_samples(self, orth2):
        f = ou.linear_functional(orth2, [0.5, 0.5])
        T = ou.clamp_operator(orth2)
        reports = [
            ou.check_weak_additivity(f, []),
            ou.check_order_preserving(f, []),
            ou.check_positive(f, []),
            ou.check_weakly_additive_op(T, []),
            ou.check_order_preserving_op(T, []),
            ou.graph_check(T, []),
            ou.certify_equicontinuity(ou.OperatorFamily((T,)), 0.5, []),
        ]
        for report in reports:
            assert report.passed and report.samples == 0 and report.witness is None, report.name

    def test_lipschitz_defect_of_no_pairs(self, orth2):
        assert ou.lipschitz_defect(ou.linear_functional(orth2, [0.5, 0.5]), []) == -np.inf

    def test_a_nan_defect_is_the_result(self, orth2):
        f = ou.custom_functional(orth2, lambda x: np.nan if x[0] > 1.5 else x[0])
        pairs = [(np.array([-1.0, 0.0]), np.array([-0.5, 0.0])), (np.array([1.0, 0.0]), np.array([2.0, 0.0]))]
        for some in (pairs, pairs[::-1], pairs[1:]):
            assert np.isnan(ou.lipschitz_defect(f, some)) and np.isnan(lipschitz_defect_by_loop(f, some))
        assert ou.lipschitz_defect(f, pairs[:1]) == lipschitz_defect_by_loop(f, pairs[:1]) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_zero_points_keep_the_dimension(self, dim):
        space = ou.orthant(dim)
        assert sampling.cone_points(space, 0, 0).shape == (0, dim)
        assert sampling.ball_points(space, np.zeros(dim), 1.0, 0, 0).shape == (0, dim)


@pytest.fixture
def small_eye(monkeypatch):
    """``np.eye`` that raises above 16 rows, so a missed bound fails without allocating."""
    real = np.eye

    def eye(k, *args, **kwargs):
        if k > 16:
            raise AssertionError(f"a dense {k} x {k} identity was allocated")
        return real(k, *args, **kwargs)

    monkeypatch.setattr(np, "eye", eye)


TOO_BIG = ou.spaces.MAX_ORTHANT_DIM + 1


@pytest.mark.usefixtures("small_eye")
class TestDescriptorSizedIdentities:
    """Orthants sized by a descriptor are refused before ``np.eye`` allocates."""

    def test_orthant_space(self):
        with pytest.raises(ValueError, match="exceeds the bound"):
            ou.space_from_json({"dim": TOO_BIG, "cone": "orthant", "unit": [1.0] * TOO_BIG})

    def test_matrix_codomain(self, orth2):
        with pytest.raises(ValueError, match="exceeds the bound"):
            ou.operator_from_json(orth2, {"kind": "linear_positive", "matrix": [[1.0, 0.0]] * TOO_BIG})

    def test_stack_codomain(self, orth2):
        with pytest.raises(ValueError, match="exceeds the bound"):
            ou.operator_from_json(orth2, {"kind": "stack", "functionals": [{"kind": "sqrt_gap"}] * TOO_BIG})

    @pytest.mark.parametrize(
        "name, obj, message",
        [
            ("caps", {"n": 10**6, "sequence": []}, "capacity ground size must lie in [0, 16]"),
            ("space", {"dim": TOO_BIG, "cone": "orthant", "unit": [1.0] * TOO_BIG}, "exceeds the bound"),
            ("operator", {"kind": "linear_positive", "matrix": [[1.0, 0.0]] * TOO_BIG}, "exceeds the bound"),
        ],
    )
    def test_cli_exits_2(self, tmp_path, capsys, name, obj, message):
        files = {"space": {"dim": 2, "cone": "orthant", "unit": [1.0, 1.0]}, "operator": {"kind": "clamp"}, name: obj}
        for key, value in files.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(value))
        if name == "caps":
            argv = ["compact", "--capacities", str(tmp_path / "caps.json")]
        else:
            argv = ["check", "--space", str(tmp_path / "space.json"), "--operator", str(tmp_path / "operator.json")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err
