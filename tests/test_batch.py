"""The batched evaluators, law checkers and samplers against their per-row references.

Every comparison is exact: equal values, equal signs of zero, equal NaN
positions, equal report bytes and equal random streams.  The references are
the per-row loops in ``oracles.py``.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import orderunit as ou
from orderunit import cli, sampling
from oracles import (
    apply_by_rows,
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

# coordinates with ties, signed zeros and units, so sorts, maxima and signs get exercised
coords = st.one_of(
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
)
seeds = st.integers(0, 2**16)
sizes = st.one_of(st.sampled_from([0, 1, 3, 7]), st.integers(0, 41))


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
    @given(data=st.data(), dim=st.integers(2, 9))
    def test_space_kernels_equal_the_scalar_ones(self, data, dim):
        rows = data.draw(arrays(float, (data.draw(st.integers(1, 2 * dim)), dim), elements=coords))
        space = ou.halfspace_space(rows, np.ones(dim))
        X = data.draw(points(dim, max_rows=20))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert same(ou.spaces.order_norms(space, X), [ou.order_norm(space, x) for x in X])
        assert same(ou.spaces.cone_contains_rows(space, X), [ou.cone_contains(space, x) for x in X])


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
        # a unit-scaled first row (1e308, 0) that overflows on about 7 % of the
        # normal directions: the ball draws reject some
        ou.halfspace_space([[1e300, 0.0], [0.0, 1.0]], [1e-308, 1.0]),
        ou.orthant(2),
        ou.orthant(4),
        ou.orthant(3, unit=[1.0, 2.0, 1.0]),
        ou.halfspace_space([[1.0, 0.0], [1.0, 1.0]], [1.0, -0.0]),
        ou.halfspace_space(
            [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]],
            [1.0, 1.0, 1.0, 1.0],
        ),
    ]


def stacked(pairs, dim):
    return np.array([np.stack(p) for p in pairs]).reshape(len(pairs), 2, dim)


@pytest.mark.filterwarnings("ignore:overflow encountered")
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

    def test_the_overflow_row_reaches_the_redraws(self):
        """About 7 % of the directions overflow the first row, so 64 draws take more than the blocks."""
        space, n = spaces()[0], 64
        rng, blocks = np.random.default_rng(0), np.random.default_rng(0)
        sampling.ball_points(space, np.zeros(2), 1.0, n, rng)
        blocks.normal(size=(n, 2))
        blocks.random(n)
        assert rng.bit_generator.state != blocks.bit_generator.state

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


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestSamplerInvariants:
    """What the samplers promise, whatever order they draw in.

    The order norms are taken of the offsets divided by the radius: the
    unit-scaled ``1e308`` row of the first space overflows on offsets past
    about 1.8, and the norm is positively homogeneous.
    """

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

    def test_nan_defects_are_skipped_like_pythons_max(self, orth2):
        f = ou.custom_functional(orth2, lambda x: np.nan if x[0] > 1.5 else x[0])
        pairs = [(np.array([1.0, 0.0]), np.array([2.0, 0.0])), (np.array([-1.0, 0.0]), np.array([-0.5, 0.0]))]
        assert ou.lipschitz_defect(f, pairs) == lipschitz_defect_by_loop(f, pairs) == 0.0
        assert ou.lipschitz_defect(f, pairs[:1]) == -np.inf

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
