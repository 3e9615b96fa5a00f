import numpy as np
import pytest

import orderunit as ou
from oracles import random_monotone_capacity
from test_functionals import DESCRIPTORS as FUNCTIONAL_DESCRIPTORS

DESCRIPTORS = {
    "linear_positive": {"kind": "linear_positive", "matrix": [[0.5, 0.5], [0.25, 0.75]]},
    "clamp": {"kind": "clamp"},
    "stack": {"kind": "stack", "functionals": [FUNCTIONAL_DESCRIPTORS[k] for k in sorted(FUNCTIONAL_DESCRIPTORS)]},
}


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

    def test_family_validation(self, orth2, orth3):
        with pytest.raises(ValueError, match="at least one"):
            ou.OperatorFamily(())
        with pytest.raises(ValueError, match="share"):
            ou.OperatorFamily((ou.identity_operator(orth2), ou.identity_operator(orth3)))


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

    def test_search_never_exceeds_its_budget(self, orth2):
        T = ou.clamp_operator(orth2)
        # reachable, reachable after a move on each axis, and off the band (never found)
        targets = ([0.3, 0.2], [-0.2, 0.35], [0.0, 1.4])
        for budget in range(1, 40):
            for y in targets:
                _, _, evals = ou.operators._preimage_search(T, y, [0.0, 0.0], 0.5, budget, ou.sampling.rng_from(budget))
                assert evals <= budget, (budget, y)

    def test_clamp_image_oracle_matches_forward_grid(self, orth2):
        T = ou.clamp_operator(orth2)
        oracle = T.image_oracle
        axis = np.linspace(-4.0, 4.0, 17)
        for x1 in axis:
            for x2 in axis:
                assert oracle(T([x1, x2]))
        assert not oracle([0.0, 1.5])
        assert not oracle([2.0, 0.5])


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

    @pytest.mark.parametrize("obj, message", [({}, "'kind'"), ([], "list indices must be integers or slices, not str")])
    def test_bad_descriptor_message(self, orth2, obj, message):
        with pytest.raises(ValueError) as info:
            ou.operator_from_json(orth2, obj)
        assert str(info.value) == f"bad operator descriptor: {message}"
