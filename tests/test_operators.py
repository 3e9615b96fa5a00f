import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import orderunit as ou
from oracles import (
    limit_by_loop,
    openness_targets_by_loop,
    preimage_search_by_loop,
    preimage_searches_by_loop,
    random_monotone_capacity,
)
from strategies import interior_unit_spaces
from test_functionals import DESCRIPTORS as FUNCTIONAL_DESCRIPTORS

DESCRIPTORS = {
    "linear_positive": {"kind": "linear_positive", "matrix": [[0.5, 0.5], [0.25, 0.75]]},
    "clamp": {"kind": "clamp"},
    "stack": {"kind": "stack", "functionals": [FUNCTIONAL_DESCRIPTORS[k] for k in sorted(FUNCTIONAL_DESCRIPTORS)]},
}

SEARCH_OPERATORS = {
    "clamp": lambda orth2, space: ou.clamp_operator(orth2),
    "linear_square": lambda orth2, space: ou.operator_from_json(orth2, DESCRIPTORS["linear_positive"]),
    "linear_tall": lambda orth2, space: ou.linear_positive(orth2, ou.orthant(3), [[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]]),
    "stack": lambda orth2, space: ou.operator_from_json(orth2, DESCRIPTORS["stack"]),
    "identity": lambda orth2, space: ou.identity_operator(space),
    "custom": lambda orth2, space: ou.custom_operator(orth2, orth2, lambda x: np.array([x[0] * x[-1], max(x)])),
}
"""The operators the preimage search serves, by kind; ``identity`` acts on ``space``, the others on ``orth2``."""

radii = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


def search_bits(result):
    """``(x or None, best residual, evals)`` of a search, as bits."""
    x, best, evals = result
    return (None if x is None else x.tobytes()), float(best).hex(), evals


def search_case(data, kind):
    """An operator of ``kind`` and a point of its domain."""
    space = data.draw(interior_unit_spaces()) if kind == "identity" else ou.orthant(2)
    T = SEARCH_OPERATORS[kind](ou.orthant(2), space)
    return T, data.draw(arrays(float, T.domain.dim, elements=st.floats(-4.0, 4.0)))


def choquet_stack(space, caps):
    fs = [ou.choquet_functional(space, c) for c in caps]
    return ou.stack_operator(space, fs)


class TestApply:
    def test_clamp_fixture_points(self, orth2):
        T = ou.clamp_operator(orth2)
        assert np.allclose(T([2, 4]), [2, 3])
        assert np.allclose(T([0, 0]), [0, 0])
        assert np.allclose(T([5, 3]), [5, 4])

    def test_clamp_piecewise_grid(self, orth2):
        T = ou.clamp_operator(orth2)
        axis = np.linspace(-5.0, 5.0, 41)
        for x1 in axis:
            for x2 in axis:
                got = T([x1, x2])
                if x2 <= x1 - 1.0:
                    want = (x1, x1 - 1.0)
                elif x2 >= x1 + 1.0:
                    want = (x1, x1 + 1.0)
                else:
                    want = (x1, x2)
                assert np.allclose(got, want)

    def test_linear_and_stack(self, orth2, cap2):
        M = np.array([[0.5, 0.5], [0.25, 0.75]])
        T = ou.linear_positive(orth2, orth2, M)
        assert np.allclose(T([2, 4]), M @ [2, 4])
        S = choquet_stack(orth2, [cap2, cap2])
        assert np.allclose(S([1, 2]), [1.6, 1.6])

    def test_dimension_mismatch(self, orth2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ou.clamp_operator(orth2)([1, 2, 3])

    def test_strict_construction_rejects_bad_matrix(self, orth2):
        with pytest.raises(ValueError, match="cone"):
            ou.linear_positive(orth2, orth2, [[1.0, 0.0], [0.0, -1.0]])
        loose = ou.linear_positive(orth2, orth2, [[1.0, 0.0], [0.0, -1.0]], strict=False)
        assert np.allclose(loose([0, 1]), [0, -1])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), cod=st.integers(1, 4))
    def test_strict_construction_reads_the_generators_off_the_columns(self, data, dim, cod):
        """On an orthant domain the generators' images are the matrix's columns: the verdict, the first
        failing point and the message are those of pushing the 128 cone points and ``np.eye(dim)`` through it."""
        entries = st.sampled_from([0.0, -0.0, 1.0, 0.25, -1e-12, -1e-8, -0.5])
        m = data.draw(arrays(float, (cod, dim), elements=entries))
        domain, codomain = ou.orthant(dim), ou.orthant(cod)
        points = np.concatenate([ou.sampling.cone_points(domain, 128, 0), np.eye(dim)])
        bad = [i for i, p in enumerate(points) if not ou.cone_contains(codomain, m @ p)]
        if not bad:
            ou.linear_positive(domain, codomain, m)
            return
        with pytest.raises(ValueError) as refused:
            ou.linear_positive(domain, codomain, m)
        image = np.round(points[bad[0]], 6).tolist()
        assert str(refused.value) == f"matrix does not preserve the cone: image of {image} leaves the codomain cone"

    def test_zero_at_origin(self, orth2, cap2):
        for T in (
            ou.clamp_operator(orth2),
            ou.identity_operator(orth2),
            choquet_stack(orth2, [cap2, cap2]),
        ):
            assert np.allclose(T([0.0, 0.0]), 0.0)


class TestLawCheckers:
    def test_clamp_passes_both(self, orth2):
        T = ou.clamp_operator(orth2)
        assert ou.check_weakly_additive_op(T, n=2048).passed
        assert ou.check_order_preserving_op(T, n=2048).passed

    def test_linear_passes(self, orth2):
        T = ou.linear_positive(orth2, orth2, [[0.5, 0.5], [0.25, 0.75]])
        assert ou.check_weakly_additive_op(T, n=1024).passed
        assert ou.check_order_preserving_op(T, n=1024).passed

    def test_square_hook_fails_with_witness(self, orth2):
        T = ou.custom_operator(orth2, orth2, lambda x: np.array([x[0] ** 2, x[1]]))
        report = ou.check_weakly_additive_op(T, n=256)
        assert not report.passed and report.witness is not None

    def test_negative_entry_fails_order(self, orth2):
        T = ou.linear_positive(orth2, orth2, [[1.0, 0.0], [0.0, -1.0]], strict=False)
        report = ou.check_order_preserving_op(T, n=512)
        assert not report.passed
        x, y = np.array(report.witness["x"]), np.array(report.witness["y"])
        assert ou.leq(orth2, x, y)
        assert not ou.leq(orth2, T(x), T(y))

    def test_stack_of_choquets_passes(self, orth2, cap2, rng):
        caps = [cap2, random_monotone_capacity(2, rng)]
        T = choquet_stack(orth2, caps)
        assert ou.check_weakly_additive_op(T, n=1024).passed
        assert ou.check_order_preserving_op(T, n=1024).passed


class TestUnitImage:
    def test_clamp_interior(self, orth2):
        assert ou.unit_image_interior(ou.clamp_operator(orth2))

    def test_projection_boundary(self, orth2):
        proj = ou.linear_positive(orth2, orth2, [[1.0, 0.0], [0.0, 0.0]])
        assert not ou.unit_image_interior(proj)

    def test_strictly_positive_matrix(self, orth2):
        T = ou.linear_positive(orth2, orth2, [[0.7, 0.3], [0.2, 0.8]])
        assert ou.unit_image_interior(T)


class TestModulus:
    def test_clamp_is_one(self, orth2):
        assert ou.operator_modulus(ou.clamp_operator(orth2)) == pytest.approx(1.0)

    def test_zero_operator(self, orth2, rng):
        Z = ou.linear_positive(orth2, orth2, np.zeros((2, 2)))
        assert ou.operator_modulus(Z) == 0.0
        for _ in range(32):
            assert np.allclose(Z(rng.normal(size=2)), 0.0)

    def test_double_identity(self, orth2):
        T = ou.linear_positive(orth2, orth2, 2.0 * np.eye(2))
        assert ou.operator_modulus(T) == pytest.approx(2.0)

    def test_lipschitz_modulus_sampled(self, orth2, cap2, rng):
        for T in (
            ou.clamp_operator(orth2),
            ou.linear_positive(orth2, orth2, [[0.5, 0.5], [0.25, 0.75]]),
            choquet_stack(orth2, [cap2, cap2]),
        ):
            mod = ou.operator_modulus(T)
            for _ in range(500):
                x, y = rng.normal(scale=2.0, size=2), rng.normal(scale=2.0, size=2)
                lhs = ou.order_norm(T.codomain, T(x) - T(y))
                assert lhs <= mod * ou.order_norm(T.domain, x - y) + 1e-9

    def test_bounded_on_balls(self, orth2, rng):
        T = ou.clamp_operator(orth2)
        mod = ou.operator_modulus(T)
        zero = np.zeros(2)
        for R in (1.0, 2.0, 5.0):
            for x in ou.sampling.ball_points(orth2, zero, R, 200, rng):
                assert ou.order_norm(orth2, T(x)) <= R * mod + 1e-9


class TestEquicontinuity:
    def test_choquet_family_modulus(self, orth3, rng):
        members = []
        for _ in range(10):
            caps = [random_monotone_capacity(3, rng) for _ in range(2)]
            members.append(choquet_stack(orth3, caps))
        family = ou.OperatorFamily(tuple(members))
        modulus = ou.equicontinuity_modulus(family)
        assert not modulus.unbounded
        assert modulus.delta(0.5) == pytest.approx(0.5)

    def test_modulus_that_is_not_finite_is_unbounded(self):
        # the unit (1, 0) pairs to zero with the second row, so the order norm of the unit image is NaN
        modulus = ou.equicontinuity_modulus(ou.OperatorFamily((ou.identity_operator(ou.orthant(2, unit=[1.0, 0.0])),)))
        assert np.isnan(modulus.bound) and modulus.unbounded
        # a NaN after a finite modulus, which Python's max would drop
        orth2 = ou.orthant(2)
        hook = ou.custom_operator(orth2, orth2, lambda x: np.array([np.nan, x[1]]))
        family = ou.OperatorFamily((ou.identity_operator(orth2), hook))
        assert np.isnan(ou.operator_modulus(hook))
        modulus = ou.equicontinuity_modulus(family)
        assert np.isnan(modulus.bound) and modulus.unbounded
        assert not ou.certify_equicontinuity(family, 0.5).passed

    def test_single_member_scaled(self, orth2):
        T = ou.linear_positive(orth2, orth2, 2.0 * np.eye(2))
        modulus = ou.equicontinuity_modulus(ou.OperatorFamily((T,)))
        assert modulus.delta(1.0) == pytest.approx(0.5)

    def test_zero_family_has_infinite_modulus(self, orth2):
        Z = ou.linear_positive(orth2, orth2, np.zeros((2, 2)))
        modulus = ou.equicontinuity_modulus(ou.OperatorFamily((Z,)))
        assert modulus.delta(0.25) == float("inf")

    def test_growing_family_reported_unbounded(self, orth2):
        members = tuple(
            ou.linear_positive(orth2, orth2, float(n) * np.eye(2)) for n in range(1, 51)
        )
        modulus = ou.equicontinuity_modulus(ou.OperatorFamily(members), cap=25.0)
        assert modulus.unbounded
        with pytest.raises(ValueError, match="unbounded"):
            modulus.delta(1.0)
        report = ou.certify_equicontinuity(ou.OperatorFamily(members), 0.5, cap=25.0)
        assert not report.passed
        assert report.witness["reason"] == "unbounded orbit at the unit"

    def test_certificate_passes(self, orth3, rng):
        members = tuple(
            choquet_stack(orth3, [random_monotone_capacity(3, rng) for _ in range(2)])
            for _ in range(8)
        )
        report = ou.certify_equicontinuity(ou.OperatorFamily(members), 0.5, n=128)
        assert report.passed

    def test_family_validation(self, orth2, orth3, hs2):
        with pytest.raises(ValueError, match="at least one"):
            ou.OperatorFamily(())
        with pytest.raises(ValueError, match="share"):
            ou.OperatorFamily((ou.identity_operator(orth2), ou.identity_operator(orth3)))
        # the same cone with rows scaled by 1e-3 and 7 is the same domain
        rescaled = ou.halfspace_space(hs2.cone.rows * np.array([[1e-3], [7.0]]), hs2.unit)
        assert len(ou.OperatorFamily((ou.identity_operator(hs2), ou.identity_operator(rescaled)))) == 2


class TestGraph:
    def test_clamp_lambda_grid(self, orth2):
        assert ou.graph_check(ou.clamp_operator(orth2), n=256).passed

    def test_linear(self, orth2):
        T = ou.linear_positive(orth2, orth2, [[0.5, 0.5], [0.25, 0.75]])
        assert ou.graph_check(T, n=256).passed

    def test_non_weakly_additive_fails(self, orth2):
        T = ou.custom_operator(orth2, orth2, lambda x: np.array([max(x[0], 0.0), x[1]]))
        assert not ou.graph_check(T, n=256).passed

    def test_five_evaluations_per_sample(self, orth2):
        calls = []

        def hook(x):
            calls.append(x)
            return x

        T = ou.custom_operator(orth2, orth2, hook)
        calls.clear()  # the constructor evaluates the unit image once
        report = ou.graph_check(T, n=100)
        assert report.passed and report.samples == 500
        assert len(calls) == 500

    def test_witness_matches_one_evaluation_per_shift(self, orth2):
        """The failing report equals the one of a loop that evaluates every shift, ``lam = 0`` too."""
        lambdas = (-2.0, -1.0, 0.0, 1.0, 2.0)
        hooks = (
            lambda x: np.array([max(x[0], 0.0), x[1]]),
            lambda x: np.array([x[0] ** 2, x[1]]),
            lambda x: np.array([x[0], x[1] + 1e-6 * x[0] * x[1]]),
        )
        for hook in hooks:
            T = ou.custom_operator(orth2, orth2, hook)
            samples = ou.sampling.box_points(orth2, 256, ou.sampling.rng_from(3))
            expected = None
            gu = np.concatenate([orth2.unit, T.unit_image])
            for count, (x, lam) in enumerate(((x, lam) for x in samples for lam in lambdas), start=1):
                gx = np.concatenate([x, T(x)])
                shifted = np.concatenate([x + lam * orth2.unit, T(x + lam * orth2.unit)])
                defect = float(np.max(np.abs(gx + lam * gu - shifted)))
                if defect > ou.TOL:
                    witness = {"x": list(map(float, x)), "lam": lam, "defect": defect}
                    expected = {"name": "graph_shift_closure", "passed": False, "samples": count, "witness": witness}
                    break
            assert expected is not None
            assert ou.graph_check(T, samples, lambdas).to_json() == expected


class TestPointwiseLimit:
    def test_shrinking_multiples_of_identity(self, orth2):
        Ts = [
            ou.linear_positive(orth2, orth2, (1.0 + 1.0 / n) * np.eye(2))
            for n in range(1, 301)
        ]
        probes = [np.array([a, b]) for a in (0.0, 0.5, 1.0, 2.0) for b in (0.0, 1.0, 2.0)]
        limit, report = ou.pointwise_limit(Ts, probes, tol=1e-4)
        assert report.passed
        for p in probes:
            assert np.allclose(limit(p), p, atol=0.01)

    def test_choquet_capacity_limit(self, orth2, rng):
        target = random_monotone_capacity(2, rng)
        d = rng.uniform(-0.05, 0.05, size=2)

        def cap_n(n):
            vals = target.values.copy()
            vals[1] += d[0] * 0.5**n
            vals[2] += d[1] * 0.5**n
            return ou.Capacity(n=2, values=np.clip(vals, 0.0, None))

        Ts = [choquet_stack(orth2, [cap_n(n), cap_n(n)]) for n in range(1, 31)]
        probes = [np.array([a, b]) for a in (0.0, 0.5, 1.5) for b in (0.0, 1.0, 2.0)]
        limit, report = ou.pointwise_limit(Ts, probes, tol=1e-6)
        assert report.passed
        want = choquet_stack(orth2, [target, target])
        for p in probes:
            assert np.allclose(limit(p), want(p), atol=1e-6)

    def test_divergent_sequence_raises(self, orth2):
        Ts = [ou.linear_positive(orth2, orth2, float(n) * np.eye(2)) for n in range(1, 20)]
        with pytest.raises(ValueError, match="diverges at probe"):
            ou.pointwise_limit(Ts, [np.array([1.0, 0.5])])

    def test_a_member_nan_at_every_probe_diverges(self, orth2):
        nan = ou.custom_operator(orth2, orth2, lambda x: np.full(2, np.nan))
        Ts = [nan, ou.identity_operator(orth2), ou.identity_operator(orth2)]
        with pytest.raises(ValueError, match=r"diverges at probe 0 \(\[1.0, 0.5\]\): tail spread nan"):
            ou.pointwise_limit(Ts, [[1.0, 0.5], [2.0, 0.0], [0.0, 3.0]])

    @pytest.mark.parametrize("space", ["orth2", "orth3", "hs2"])
    def test_nearest_line_block_equals_the_probe_loop(self, space, orth2, hs2, rng):
        space = {"orth2": orth2, "orth3": ou.orthant(3, unit=[1.0, 2.0, 1.5]), "hs2": hs2}[space]
        d = space.dim
        for _ in range(4):
            M, E = rng.uniform(0.0, 1.0, size=(d, d)), rng.normal(size=(d, d))
            Ts = [ou.linear_positive(space, space, M + 0.5**n * E, strict=False) for n in range(1, 40)]
            probes = rng.integers(-3, 4, size=(5, d)) * 0.5
            probes = np.vstack([probes, probes[0] + 1.5 * space.unit, probes[1]])  # a line twice, a probe twice
            limit, _ = ou.pointwise_limit(Ts, probes)
            xs = [*rng.uniform(-4.0, 4.0, size=(8, d)), *(probes - 0.25 * space.unit), *probes, 0.5 * (probes[2] + probes[3]),
                  -0.0 * space.unit, np.full(d, 1e308), np.full(d, -1e308), np.r_[np.inf, np.zeros(d - 1)], np.full(d, np.nan)]
            for x in xs:
                assert limit(x).tobytes() == limit_by_loop(Ts, probes, x).tobytes(), x
        assert np.isnan(limit(np.full(d, np.nan))).all()

    def test_a_failing_limit_names_its_law(self, orth2):
        Ts = [ou.stack_operator(orth2, [ou.sqrt_gap_functional(orth2)])] * 2
        _, report = ou.pointwise_limit(Ts, [[0.25, 0.5], [0.5, 0.5]])
        assert not report.passed and report.witness["failed_check"] == "order_preserving"
        assert (report.witness["x"], report.witness["y"]) == ([0.25, 0.5], [0.5, 0.5])


class TestOpenness:
    def test_clamp_open_at_zero(self, orth2):
        verdict = ou.openness_check(
            ou.clamp_operator(orth2), [0.0, 0.0], 0.25, 0.25, targets=24, budget=800
        )
        assert verdict.passed
        assert verdict.targets_tested == 24

    def test_clamp_fails_off_band(self, orth2):
        verdict = ou.openness_check(
            ou.clamp_operator(orth2), [2.0, 4.0], 1.0, 0.1, targets=24, budget=800
        )
        assert not verdict.passed
        w = np.array(verdict.witness)
        assert ou.order_norm(orth2, w - [2.0, 3.0]) <= 0.1
        assert abs(w[1] - w[0] - 1.0) > 1e-9

    def test_identity_open_anywhere(self, orth2):
        T = ou.identity_operator(orth2)
        for x0 in ([0.0, 0.0], [-1.0, 3.0], [2.5, -4.0]):
            assert ou.openness_check(T, x0, 0.3, 0.3, targets=12, budget=400).passed

    def test_invalid_radii(self, orth2):
        with pytest.raises(ValueError):
            ou.openness_check(ou.clamp_operator(orth2), [0.0, 0.0], 0.0, 0.1)

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_radii_must_be_finite(self, orth2, radius):
        # at epsilon = inf no candidate lies in the ball, so the step never halves and the search never ended
        T = ou.clamp_operator(orth2)
        for epsilon, delta in ((radius, 0.1), (0.1, radius)):
            with pytest.raises(ValueError, match="^epsilon and delta must be positive and finite$"):
                ou.openness_check(T, [2.0, 4.0], epsilon, delta)
        with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
            ou.open_ball_image_check(T, radius)

    def test_search_never_exceeds_its_budget(self, orth2, hs2):
        zero = np.zeros(2)
        for kind, build in SEARCH_OPERATORS.items():
            T = build(orth2, hs2)
            # reachable, reachable after a move on each axis, and 1.4 away on every other axis (off the clamp's band)
            targets = [T([0.3, 0.2]), T([-0.2, 0.35]), T(zero) + 1.4 * (np.arange(T.codomain.dim) % 2)]
            for budget in range(1, 40):
                for y in targets:
                    _, _, evals = ou.operators._preimage_searches(T, [y], zero, 0.5, budget, ou.sampling.rng_from(budget))[0]
                    assert evals <= budget, (kind, budget, y)

    def test_no_sampled_target_fails(self, orth2):
        # the band |y1 - y0| <= 1 is too thin for 200 * targets draws in so wide a ball
        verdict = ou.openness_check(ou.clamp_operator(orth2), [0.0, 0.0], 1.0, 1e6)
        assert (verdict.passed, verdict.witness, verdict.targets_tested, verdict.evals_used) == (False, None, 0, 0)
        assert verdict.note == "no image points found inside the target ball"
        # at a smaller delta the probe fails on a target, so a larger delta must not pass
        assert not ou.openness_check(ou.clamp_operator(orth2), [0.0, 0.0], 1.0, 1e4).passed

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e12])
    def test_a_matrix_into_a_plane_takes_forward_images(self, orth2, s):
        """``linear_tall``'s image is a plane in its 3-d codomain, which a ball
        point misses, so its targets are forward images; a least-squares test
        with an absolute residual took none of them."""
        T = SEARCH_OPERATORS["linear_tall"](orth2, orth2)
        verdict = ou.openness_check(T, [s, 3.0 * s], s, s, targets=8)
        assert (verdict.passed, verdict.targets_tested) == (True, 8)
        assert verdict.note.startswith("no image oracle")

    def test_an_onto_matrix_takes_every_ball_point(self):
        """A matrix of full row rank maps onto its codomain, so every ball point
        is a target at any scale; an absolute residual of ``1e-8`` kept 1 of 8
        at ``1e9``."""
        space = ou.orthant(4)
        T = ou.linear_positive(space, space, np.random.default_rng(0).uniform(0.1, 1.0, (4, 4)))
        verdict = ou.openness_check(T, 1e9 * np.ones(4), 1e9, 1e9, targets=8)
        assert verdict.targets_tested == 8 and verdict.note == "search budget exhausted without a preimage"

    def test_a_large_target_count_draws_bounded_blocks(self, orth2):
        """Forward-image tries are drawn in blocks of at most
        ``_BLOCK_ENTRIES[1]`` entries however many targets are asked for; a
        hook stops the probe at its first try."""

        class Stop(Exception):
            pass

        calls = []

        def hook(x):
            calls.append(x)
            if len(calls) > 2:  # the unit image and the probe point come first
                raise Stop
            return x

        T = ou.custom_operator(orth2, orth2, hook)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                ou.openness_check(T, [0.0, 0.0], 1.0, 1e-12, targets=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 3 and peak < 2**20

    def test_no_forward_image_target_fails(self, orth2):
        T = ou.custom_operator(orth2, orth2, lambda x: 2.0 * x)
        verdict = ou.openness_check(T, [0.0, 0.0], 1.0, 1e-12, targets=2)
        assert (verdict.passed, verdict.witness, verdict.targets_tested) == (False, None, 0)
        assert verdict.note.startswith("no image oracle")

    def test_a_residual_past_the_square_overflow_stays_finite(self, orth2):
        T = ou.identity_operator(orth2)
        _, best, evals = ou.operators._preimage_searches(T, [[1e200, -1e200]], [-1e200, 1e200], 1e200, 3, ou.sampling.rng_from(0))[0]
        assert evals == 3 and 1e199 < best < np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert ou.operators._norm2(np.array([3.0, -4.0]) * 2.0**700) == 5.0 * 2.0**700
            assert ou.operators._norm2(np.array([np.inf, 1.0])) == np.inf
            assert np.isnan(ou.operators._norm2(np.array([np.nan, 1e300])))


    def test_clamp_image_oracle_matches_forward_grid(self, orth2):
        """The oracle is a row mask: it keeps every image of a grid and no point off the band."""
        T = ou.clamp_operator(orth2)
        axis = np.linspace(-4.0, 4.0, 17)
        grid = np.array([[x1, x2] for x1 in axis for x2 in axis])
        assert T.image_oracle(T.batch(grid)).all()
        assert T.image_oracle(np.array([[0.0, 1.5], [2.0, 0.5], [0.0, 1.0]])).tolist() == [False, False, True]


class TestPreimageSearchOracle:
    """``_preimage_searches``, on one target and on many, and the two checks
    that run it against ``oracles.preimage_search_by_loop``, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(SEARCH_OPERATORS)), budget=st.integers(1, 1200), radius=radii, seed=st.integers(0, 2**16))
    def test_search_equals_the_loop(self, data, kind, budget, radius, seed):
        T, x0 = search_case(data, kind)
        # near T(x0) at the radius's scale: on and off the clamp's band, in and out of a matrix's range
        y = T(x0) + radius * data.draw(arrays(float, T.codomain.dim, elements=st.floats(-2.0, 2.0)))
        got = ou.operators._preimage_searches(T, [y], x0, radius, budget, ou.sampling.rng_from(seed))[0]
        want = preimage_search_by_loop(T, y, x0, radius, budget, ou.sampling.rng_from(seed))
        assert search_bits(got) == search_bits(want)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(sorted(SEARCH_OPERATORS)),
        epsilon=radii,
        delta=radii,
        count=st.integers(1, 6),
        budget=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    def test_checks_equal_the_loop(self, data, kind, epsilon, delta, count, budget, seed):
        T, x0 = search_case(data, kind)
        checks = (
            lambda: ou.openness_check(T, x0, epsilon, delta, targets=count, budget=budget, seed=seed),
            lambda: ou.open_ball_image_check(T, epsilon, seed=seed, n=count, budget=budget),
        )
        for check in checks:
            plain = json.dumps(check().to_json(), sort_keys=True)
            with mock.patch.object(ou.operators, "_preimage_searches", preimage_searches_by_loop):
                assert json.dumps(check().to_json(), sort_keys=True) == plain

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(sorted(SEARCH_OPERATORS)),
        count=st.integers(1, 40),
        budget=st.integers(1, 1200),
        radius=radii,
        seed=st.integers(0, 2**16),
        blocks=st.sampled_from([None, (2, 2, 0, 2), (2, 6, 32, 8), (6, 40, 0, 64), (32, 1 << 14, 10**9, 4096)]),
    )
    def test_searches_equal_the_loop(self, data, kind, count, budget, radius, seed, blocks):
        """Every target's result, in order through the first failure: the
        window, the starts run ahead and their cut back to a share of the
        budget change no bit.  ``blocks`` sets the block bounds,
        ``_BATCH_MIN`` and ``_SPECULATION``, so blocks that end inside a
        sweep, steps that always batch, steps where the loop always runs
        itself, and a few open targets whose rows are reused are drawn in
        two dimensions as well."""
        T, x0 = search_case(data, kind)
        offsets = data.draw(arrays(float, (count, T.codomain.dim), elements=st.floats(-2.0, 2.0)))
        ys = T(x0) + radius * offsets
        want = preimage_searches_by_loop(T, ys, x0, radius, budget, ou.sampling.rng_from(seed))
        lo, hi, batch_min, speculation = blocks or (*ou.operators._BLOCK_ENTRIES, ou.operators._BATCH_MIN, ou.operators._SPECULATION)
        with mock.patch.multiple(ou.operators, _BLOCK_ENTRIES=(lo, hi), _BATCH_MIN=batch_min, _SPECULATION=speculation):
            got = ou.operators._preimage_searches(T, ys, x0, radius, budget, ou.sampling.rng_from(seed))
        assert [search_bits(r) for r in got] == [search_bits(r) for r in want]

    @pytest.mark.parametrize("batch_min", [0, 10**9])
    def test_points_keep_their_signed_zeros(self, orth2, batch_min):
        """A hook that reads the sign of zero sees the loop's points: a start
        of ``-0.0`` is evaluated as ``-0.0``, in a block (``_BATCH_MIN`` 0)
        and one point at a time alike."""
        T = ou.custom_operator(orth2, orth2, lambda x: np.copysign(1.0, x))
        x0 = np.array([-0.0, -0.0])
        ys = [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
        want = preimage_searches_by_loop(T, ys, x0, 0.5, 40, ou.sampling.rng_from(2))
        with mock.patch.object(ou.operators, "_BATCH_MIN", batch_min):
            got = ou.operators._preimage_searches(T, ys, x0, 0.5, 40, ou.sampling.rng_from(2))
        assert [search_bits(r) for r in got] == [search_bits(r) for r in want]
        assert want[0][2] == 1 and len(want) == 3

    def test_one_open_target_at_a_time(self, orth2):
        """With ``_SPECULATION`` at 2 one target is open at a time in two
        dimensions, so a lead that a start run ahead moved on must wait to
        join before its own starts run ahead; rows of finished targets are
        reused all along."""
        T = ou.clamp_operator(orth2)
        for seed in range(40):
            ys = T(np.zeros(2)) + 0.25 * np.random.default_rng(seed).uniform(-2.0, 2.0, size=(12, 2))
            want = preimage_searches_by_loop(T, ys, np.zeros(2), 0.25, 1000, ou.sampling.rng_from(seed))
            with mock.patch.multiple(ou.operators, _SPECULATION=2, _BATCH_MIN=0):
                got = ou.operators._preimage_searches(T, ys, np.zeros(2), 0.25, 1000, ou.sampling.rng_from(seed))
            assert [search_bits(r) for r in got] == [search_bits(r) for r in want], seed

    def test_a_high_dimension_is_bounded(self):
        """A block holds at most ``_BLOCK_ENTRIES[1]`` entries, so a search in
        the largest orthant the descriptors allow stays small and equals the
        loop.  The stack's maximum has no smooth descent, so the first
        target spends its budget."""
        space = ou.orthant(ou.spaces.MAX_ORTHANT_DIM)
        w = np.linspace(0.5, 1.5, space.dim)
        T = ou.stack_operator(space, [ou.linear_functional(space, w / w.sum()), ou.maxplus_functional(space, np.zeros(space.dim))])
        x0 = np.ones(space.dim)
        ys = T(x0) + np.array([[0.3, -0.2], [0.1, 0.4]])
        tracemalloc.start()
        try:
            got = ou.operators._preimage_searches(T, ys, x0, 0.5, 150, ou.sampling.rng_from(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = preimage_searches_by_loop(T, ys, x0, 0.5, 150, ou.sampling.rng_from(1))
        assert [search_bits(r) for r in got] == [search_bits(r) for r in want]
        assert got[0][2] == 150 and peak < 16 * 2**20

    def test_hooks_see_only_points_in_the_ball(self, orth2):
        """Candidates past a move are evaluated in vain, but a ``custom``
        hook is only ever called inside the search ball."""
        x0, epsilon = np.array([0.5, -1.0]), 0.75
        seen = []

        def hook(x):
            seen.append(np.array(x, dtype=float))
            return np.array([x[0] * x[-1], max(x)])

        T = ou.custom_operator(orth2, orth2, hook)
        ys = T(x0) + epsilon * np.random.default_rng(3).uniform(-2.0, 2.0, size=(24, 2))
        seen.clear()
        ou.operators._preimage_searches(T, ys, x0, epsilon, 400, ou.sampling.rng_from(5))
        assert len(seen) > 24 and all(ou.order_norm(orth2, p - x0) < epsilon for p in seen)

    def test_no_warning_at_overflow_scale(self, orth2):
        """Residuals near ``1e200`` overflow their squares, and the suite
        turns a ``RuntimeWarning`` into an error.  ``linear_tall``'s targets,
        off its image plane, go to the search directly."""
        x0 = np.array([1e200, -3e200])
        identity = SEARCH_OPERATORS["identity"](orth2, orth2)
        verdict = ou.openness_check(identity, x0, 1e200, 1e200, targets=24, budget=60, seed=1)
        assert verdict.targets_tested == 24 and verdict.evals_used > 24
        assert ou.open_ball_image_check(identity, 1e200, n=24, budget=60, seed=2).samples == 48
        tall = SEARCH_OPERATORS["linear_tall"](orth2, orth2)
        ys = tall(x0) + 1e200 * np.random.default_rng(4).uniform(-2.0, 2.0, size=(24, 3))
        results = ou.operators._preimage_searches(tall, ys, x0, 1e200, 60, ou.sampling.rng_from(3))
        assert results and all(1e199 < best < np.inf for _, best, _ in results)


class TestOpennessTargets:
    """The targets of ``openness_check`` against
    ``oracles.openness_targets_by_loop``, the loop of one try at a time: the
    same target bytes, the same generator state where the search begins and,
    for a ``custom`` hook, the same calls.  ``hooked`` runs the kind's
    evaluator as a hook, whose targets are forward images."""

    @staticmethod
    def kept(T, x0, epsilon, delta, count, seed, hooked):
        """The targets the stage kept, once it has matched the loop."""
        calls = [0]
        if hooked:
            fn = T.fn

            def hook(x):
                calls[0] += 1
                return fn(x)

            T = ou.custom_operator(T.domain, T.codomain, hook)
        seen = []

        def spy(T, ys, x0, epsilon, budget, rng):
            seen.append((np.array(ys, dtype=float).reshape(-1, T.codomain.dim).tobytes(), rng.bit_generator.state))
            return []

        start = calls[0]
        with mock.patch.object(ou.operators, "_preimage_searches", spy):
            verdict = ou.openness_check(T, x0, epsilon, delta, targets=count, budget=1, seed=seed)
        used, start = calls[0] - start, calls[0]
        rng = ou.sampling.rng_from(seed)
        want = openness_targets_by_loop(T, x0, epsilon, delta, count, rng)
        assert calls[0] - start == used
        assert seen == [(np.array(want, dtype=float).reshape(-1, T.codomain.dim).tobytes(), rng.bit_generator.state)]
        assert verdict.targets_tested == len(want)
        return len(want)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(sorted(SEARCH_OPERATORS)),
        hooked=st.booleans(),
        epsilon=radii,
        delta=st.floats(-14.0, 6.0).map(lambda e: 10.0**e),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_targets_equal_the_loop(self, data, kind, hooked, epsilon, delta, count, seed):
        T, x0 = search_case(data, kind)
        self.kept(T, x0, epsilon, delta, count, seed, hooked)

    @pytest.mark.parametrize(
        "kind, hooked, delta, kept",
        [
            ("clamp", False, 0.25, "full"),
            ("clamp", False, 1e3, "some"),  # the band keeps few of a wide ball, and the tries reach 200 * 8
            ("clamp", False, 1e6, "none"),
            ("clamp", True, 0.25, "full"),
            ("clamp", True, 0.05, "some"),  # few forward images lie so near, and the tries reach 500 * 8
            ("clamp", True, 1e-12, "none"),
            ("linear_square", False, 1e6, "full"),
            ("linear_tall", False, 1e-12, "none"),
        ],
    )
    def test_every_try_kept_to_none(self, orth2, kind, hooked, delta, kept):
        T = SEARCH_OPERATORS[kind](orth2, orth2)
        n = self.kept(T, np.zeros(2), 0.25, delta, 8, 0, hooked)
        assert kept == ("full" if n == 8 else "some" if n else "none")


class TestOpenBallImage:
    def test_identity_passes(self, orth2):
        report = ou.open_ball_image_check(ou.identity_operator(orth2), 1.0, n=32)
        assert report.passed

    def test_order_isomorphism_passes(self, orth2):
        # coordinate swap: positive inverse, so the two-ball identity holds
        T = ou.linear_positive(orth2, orth2, [[0.0, 1.0], [1.0, 0.0]])
        report = ou.open_ball_image_check(T, 1.0, n=32)
        assert report.passed

    def test_positive_matrix_without_positive_inverse_fails(self, orth2):
        # unit maps to unit, but the inverse leaves the cone: some ball
        # points pull back only outside the matching ball
        T = ou.linear_positive(orth2, orth2, [[0.5, 0.5], [0.25, 0.75]])
        report = ou.open_ball_image_check(T, 1.0, n=32)
        assert not report.passed
        assert report.witness["side"] == "preimage"

    def test_clamp_fails_preimage_half(self, orth2):
        report = ou.open_ball_image_check(ou.clamp_operator(orth2), 1.0, n=48, budget=500)
        assert not report.passed
        assert report.witness["side"] == "preimage"
        y = np.array(report.witness["y"])
        assert abs(y[1] - y[0]) > 1.0

    def test_boundary_unit_image_rejected(self, orth2):
        proj = ou.linear_positive(orth2, orth2, [[1.0, 0.0], [0.0, 0.0]])
        report = ou.open_ball_image_check(proj, 1.0, n=8)
        assert not report.passed
        assert "interior" in report.witness["reason"]


class TestJson:
    def test_linear_roundtrip(self, orth2):
        T = ou.operator_from_json(orth2, {"kind": "linear_positive", "matrix": [[0.5, 0.5], [0.25, 0.75]]})
        assert T.kind == "linear_positive"
        again = ou.operator_from_json(orth2, ou.operator_to_json(T))
        assert np.allclose(again.matrix, T.matrix)

    def test_clamp_and_stack(self, orth2):
        T = ou.operator_from_json(orth2, {"kind": "clamp"})
        assert np.allclose(T([2, 4]), [2, 3])
        S = ou.operator_from_json(
            orth2,
            {
                "kind": "stack",
                "functionals": [
                    {"kind": "linear", "weights": [0.5, 0.5]},
                    {"kind": "maxplus", "weights": [0.0, -1.0]},
                ],
            },
        )
        assert np.allclose(S([2, 5]), [3.5, 4.0])

    def test_unknown_kind(self, orth2):
        with pytest.raises(ValueError):
            ou.operator_from_json(orth2, {"kind": "rotation"})

    @pytest.mark.parametrize("kind", sorted(DESCRIPTORS))
    def test_descriptor_roundtrip(self, orth2, kind):
        obj = DESCRIPTORS[kind]
        T = ou.operator_from_json(orth2, obj)
        assert T.kind == kind
        assert ou.operator_to_json(T) == obj
        again = ou.operator_from_json(orth2, ou.operator_to_json(T))
        for x in ([1.0, 3.0], [-0.5, 0.25], [2.0, 2.0]):
            assert np.array_equal(again(x), T(x))

    def test_kinds_without_descriptor_form(self, orth2):
        custom = ou.custom_operator(orth2, orth2, lambda x: x)
        custom_member = ou.stack_operator(orth2, [ou.custom_functional(orth2, lambda x: x[0])])
        for T in (custom, custom_member):
            with pytest.raises(ValueError, match="no descriptor form"):
                ou.operator_to_json(T)
        with pytest.raises(ValueError, match="unknown operator kind"):
            ou.operator_from_json(orth2, {"kind": ["linear_positive"]})

    @pytest.mark.parametrize(
        "obj, message", [({}, "missing field 'kind'"), ([], "expected an object, got list")], ids=["no_kind", "list"]
    )
    def test_bad_descriptor_message(self, orth2, obj, message):
        with pytest.raises(ValueError) as info:
            ou.operator_from_json(orth2, obj)
        assert str(info.value) == f"bad operator descriptor: {message}"
