import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderunit as ou
from oracles import choquet_layer_cake, grid_comparable_pairs, mc_sup_abs, monotonicity_witness_by_loop, random_monotone_capacity

unit_floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)

DESCRIPTORS = {
    "linear": {"kind": "linear", "weights": [0.25, 0.75]},
    "maxplus": {"kind": "maxplus", "weights": [0.0, -1.0]},
    "choquet": {"kind": "choquet", "capacity": {"n": 2, "values": {"1": 0.3, "2": 0.6, "3": 1.0}}},
    "sqrt_gap": {"kind": "sqrt_gap"},
}


class TestEvaluate:
    def test_linear(self, orth2):
        f = ou.linear_functional(orth2, [0.5, 0.5])
        assert f([1, 3]) == pytest.approx(2.0, abs=1e-12)

    def test_sqrt_gap_values(self, orth2):
        f = ou.sqrt_gap_functional(orth2)
        assert f([0.25, 0.5]) == pytest.approx(0.625, abs=1e-12)
        assert f([0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
        assert ou.sqrt_gap([0, 0]) == 0.0

    def test_sqrt_gap_needs_dim2(self, orth3):
        with pytest.raises(ValueError):
            ou.sqrt_gap_functional(orth3)

    def test_maxplus(self, orth2):
        f = ou.maxplus_functional(orth2, [0.0, -1.0])
        assert f([2, 5]) == pytest.approx(4.0, abs=1e-12)
        assert ou.maxplus([0.0, 0.0], [3.0, -1.0]) == 3.0

    def test_maxplus_constant_vector(self, orth2):
        f = ou.maxplus_functional(orth2, [0.0, -1.0])
        for c in (-2.0, 0.0, 1.7):
            assert f([c, c]) == pytest.approx(c, abs=1e-12)

    def test_maxplus_empty_weights(self):
        with pytest.raises(ValueError):
            ou.maxplus([], [])

    def test_maxplus_unnormalized_warns(self, orth2):
        with pytest.warns(UserWarning, match="not normalized"):
            ou.maxplus_functional(orth2, [-0.2, -0.5])

    def test_unit_value_cached(self, orth2, cap2):
        f = ou.choquet_functional(orth2, cap2)
        assert f.unit_value == ou.evaluate(f, orth2.unit)

    def test_zero_at_origin_all_kinds(self, orth2, cap2):
        zero = [0.0, 0.0]
        assert ou.linear_functional(orth2, [0.3, 0.7])(zero) == 0.0
        assert ou.sqrt_gap_functional(orth2)(zero) == 0.0
        assert ou.choquet_functional(orth2, cap2)(zero) == 0.0
        assert ou.maxplus_functional(orth2, [0.0, -1.0])(zero) == 0.0


class TestChoquet:
    def test_fixture_values(self, orth2, cap2):
        assert ou.choquet(cap2, [1, 2]) == pytest.approx(1.6, abs=1e-12)
        assert ou.choquet(cap2, [2, 3]) == pytest.approx(2.6, abs=1e-12)

    def test_shift_by_one_adds_total(self, cap2):
        # the (2,3) value witnesses weak additivity against (1,2)
        assert ou.choquet(cap2, [2, 3]) == pytest.approx(
            ou.choquet(cap2, [1, 2]) + cap2.total, abs=1e-12
        )

    def test_constant_vector(self, cap2):
        for c in (-1.5, 0.0, 2.0):
            assert ou.choquet(cap2, [c, c]) == pytest.approx(c * cap2.total, abs=1e-12)

    def test_matches_layer_cake(self, rng):
        for n in (1, 2, 3, 4):
            for _ in range(200):
                cap = random_monotone_capacity(n, rng)
                x = rng.normal(scale=2.0, size=n)
                assert ou.choquet(cap, x) == pytest.approx(choquet_layer_cake(cap, x), abs=1e-12)

    def test_ties_match_sortfree_oracle(self, rng):
        # layer-cake integration never sorts, so agreement on tie-heavy
        # inputs shows the index tie-break does not change the value
        for _ in range(200):
            cap = random_monotone_capacity(3, rng)
            x = rng.integers(-2, 3, size=3).astype(float)
            assert ou.choquet(cap, x) == pytest.approx(choquet_layer_cake(cap, x), abs=1e-12)

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="empty set"):
            ou.Capacity(n=2, values=[0.5, 0.3, 0.6, 1.0])
        with pytest.raises(ValueError):
            ou.Capacity(n=2, values=[0.0, 0.3, 0.6])

    @pytest.mark.parametrize("n", [-1, 17, 10**6])
    def test_ground_size_bounded_before_allocation(self, n):
        # each n is rejected before np.zeros(2**n) runs
        with pytest.raises(ValueError, match="ground size"):
            ou.capacity_from_dict(n, {})

    @pytest.mark.parametrize("mask", [-1, "-4", 4, "1000"])
    def test_mask_outside_the_ground_set_refused(self, mask):
        # NumPy would read -1 as the full set and refuse 4 only with an IndexError
        with pytest.raises(ValueError, match=f"capacity mask {mask} outside \\[0, 4\\)"):
            ou.capacity_from_dict(2, {mask: 1.0})

    @pytest.mark.parametrize("values", [5, [0.3, 0.6], "x"])
    def test_values_that_are_not_an_object_refused(self, values):
        with pytest.raises(ValueError, match="capacity values must be an object of masks"):
            ou.capacity_from_dict(2, values)

    def test_monotonicity_witness(self):
        cap = ou.capacity_from_dict(2, {1: 0.9, 2: 0.6, 3: 0.7})
        assert not cap.is_monotone()
        sub, sup = cap.monotonicity_witness()
        assert cap.values[sup] < cap.values[sub]

    def test_the_witness_at_sixteen_points(self):
        # the cardinality capacity is monotone; lowering the value on {0, 1, 3} below its subset
        # {0, 3} drops at mask 11 for bit 1 and bit 3, while bit 0 meets the lowered {1, 3}
        cardinality = np.array([bin(mask).count("1") for mask in range(2**16)]) / 16
        monotone = ou.Capacity(n=16, values=cardinality)
        assert monotone.monotonicity_witness() is None is monotonicity_witness_by_loop(monotone)
        dropped = cardinality.copy()
        dropped[[10, 11, 40000]] = 1 / 16, 1.5 / 16, 0.0
        cap = ou.Capacity(n=16, values=dropped)
        assert cap.monotonicity_witness() == monotonicity_witness_by_loop(cap) == (9, 11)

    @pytest.mark.parametrize(
        "values, first, second",
        [
            ({"01": 0.2, "1": 0.7, "3": 1.0}, "01", "1"),
            ({"1": 0.7, "01": 0.2, "3": 1.0}, "1", "01"),
            ({"0": 0.0, "-0": 0.0, "3": 1.0}, "0", "-0"),
            ({"3": 1.0, "2": 0.5, "003": 1.0}, "3", "003"),
        ],
    )
    def test_two_mask_keys_that_name_one_subset_are_refused(self, values, first, second):
        # a dict of masks would keep the later value only
        with pytest.raises(ValueError) as info:
            ou.capacity_from_json({"n": 2, "values": values})
        assert str(info.value) == f"capacity masks {first!r} and {second!r} name one subset"

    def test_capacity_json_roundtrip(self, cap2):
        again = ou.capacity_from_json(ou.capacity_to_json(cap2))
        assert np.array_equal(again.values, cap2.values)


class TestWeakAdditivity:
    def test_sqrt_gap_passes(self, orth2):
        report = ou.check_weak_additivity(ou.sqrt_gap_functional(orth2), n=2048)
        assert report.passed

    def test_choquet_passes(self, orth2, cap2):
        report = ou.check_weak_additivity(ou.choquet_functional(orth2, cap2), n=2048)
        assert report.passed

    def test_square_fails_with_witness(self, orth2):
        f = ou.custom_functional(orth2, lambda x: x[0] ** 2)
        report = ou.check_weak_additivity(f, n=256)
        assert not report.passed
        x = np.array(report.witness["x"])
        lam = report.witness["lam"]
        replay = f(x + lam * orth2.unit) - f(x) - lam * f.unit_value
        assert abs(replay) > 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.tuples(unit_floats, unit_floats).map(np.array),
        lam=st.floats(-4, 4, allow_nan=False),
    )
    def test_choquet_shift_property(self, x, lam):
        cap = ou.capacity_from_dict(2, {1: 0.2, 2: 0.8, 3: 1.0})
        got = ou.choquet(cap, x + lam)
        assert got == pytest.approx(ou.choquet(cap, x) + lam * cap.total, abs=1e-9)


class TestOrderPreserving:
    def test_linear_nonneg_passes(self, orth2):
        report = ou.check_order_preserving(ou.linear_functional(orth2, [0.4, 0.6]), n=1024)
        assert report.passed

    def test_sqrt_gap_fails_with_canonical_witness(self, orth2):
        report = ou.check_order_preserving(ou.sqrt_gap_functional(orth2), n=1024)
        assert not report.passed
        assert report.witness["x"] == [0.25, 0.5]
        assert report.witness["y"] == [0.5, 0.5]
        assert report.witness["f_x"] == pytest.approx(0.625, abs=1e-12)
        assert report.witness["f_y"] == pytest.approx(0.5, abs=1e-12)

    def test_choquet_monotone_passes_on_grid(self, orth3, rng):
        pairs = grid_comparable_pairs(orth3)
        for _ in range(10):
            cap = random_monotone_capacity(3, rng)
            f = ou.choquet_functional(orth3, cap)
            assert ou.check_order_preserving(f, pairs=pairs).passed

    def test_non_monotone_capacity_fails_on_grid(self, orth2, orth3, rng):
        # monotone <=> order preserving, exhaustively on the half-step grid
        bad2 = ou.capacity_from_dict(2, {1: 0.9, 2: 0.6, 3: 0.7})
        pairs2 = grid_comparable_pairs(orth2)
        assert not ou.check_order_preserving(ou.choquet_functional(orth2, bad2), pairs=pairs2).passed
        bad3 = ou.capacity_from_dict(3, {1: 0.5, 2: 0.1, 4: 0.1, 3: 0.2, 5: 0.6, 6: 0.3, 7: 1.0})
        pairs3 = grid_comparable_pairs(orth3)
        assert not ou.check_order_preserving(ou.choquet_functional(orth3, bad3), pairs=pairs3).passed


class TestNormedPositiveBound:
    def test_normed(self, orth2, cap2):
        assert ou.check_normed(ou.choquet_functional(orth2, cap2)).passed
        assert ou.check_normed(ou.linear_functional(orth2, [0.5, 0.5])).passed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = ou.maxplus_functional(orth2, [-0.2, -1.0])
        report = ou.check_normed(f)
        assert not report.passed
        assert report.witness["unit_value"] == pytest.approx(0.8, abs=1e-12)

    def test_positive(self, orth2, cap2):
        assert ou.check_positive(ou.sqrt_gap_functional(orth2), n=1024).passed
        assert ou.check_positive(ou.choquet_functional(orth2, cap2), n=1024).passed
        report = ou.check_positive(ou.linear_functional(orth2, [1.0, -1.0]), n=1024)
        assert not report.passed

    def test_bound_values(self, orth2, cap2):
        assert ou.bound(ou.choquet_functional(orth2, cap2)) == pytest.approx(1.0)
        cap_double = ou.capacity_from_dict(2, {1: 0.6, 2: 1.2, 3: 2.0})
        assert ou.bound(ou.choquet_functional(orth2, cap_double)) == pytest.approx(2.0)

    def test_bound_dominates_sampled_sup(self, orth2, cap2):
        for f in (
            ou.choquet_functional(orth2, cap2),
            ou.maxplus_functional(orth2, [0.0, -1.0]),
            ou.linear_functional(orth2, [0.25, 0.75]),
        ):
            assert mc_sup_abs(f, n=2048) <= ou.bound(f) + 1e-9
            # the bound is attained along the unit direction
            inside = (1.0 - 1e-9) * orth2.unit
            assert f(inside) == pytest.approx(ou.bound(f), abs=1e-6)


class TestLipschitz:
    def test_identical_points(self, orth2, cap2):
        f = ou.choquet_functional(orth2, cap2)
        y = np.array([0.3, -1.2])
        assert ou.lipschitz_defect(f, pairs=[(y, y)]) == 0.0

    def test_choquet_and_maxplus_within_tol(self, orth2, cap2):
        assert ou.lipschitz_defect(ou.choquet_functional(orth2, cap2), n=2048) <= 1e-9
        assert ou.lipschitz_defect(ou.maxplus_functional(orth2, [0.0, -1.0]), n=2048) <= 1e-9

    def test_continuity_modulus_for_passing_functionals(self, orth2, cap2, rng):
        # |f(z) - f(y)| <= f(unit) * ||z - y|| for everything passing both checkers
        for f in (
            ou.linear_functional(orth2, [0.4, 0.6]),
            ou.choquet_functional(orth2, cap2),
            ou.maxplus_functional(orth2, [0.0, -1.0]),
        ):
            assert ou.check_weak_additivity(f, n=512).passed
            assert ou.check_order_preserving(f, n=512).passed
            fu = f.unit_value
            for _ in range(500):
                y, z = rng.normal(scale=2.0, size=2), rng.normal(scale=2.0, size=2)
                assert abs(f(z) - f(y)) <= fu * ou.order_norm(orth2, z - y) + 1e-9


class TestJsonDescriptors:
    def test_linear_roundtrip(self, orth2):
        f = ou.functional_from_json(orth2, {"kind": "linear", "weights": [0.5, 0.5]})
        assert f([1, 3]) == pytest.approx(2.0)
        assert ou.functional_to_json(f)["weights"] == [0.5, 0.5]

    def test_choquet_descriptor(self, orth2):
        obj = {"kind": "choquet", "capacity": {"n": 2, "values": {"1": 0.3, "2": 0.6, "3": 1.0}}}
        f = ou.functional_from_json(orth2, obj)
        assert f([1, 2]) == pytest.approx(1.6)

    def test_unknown_kind(self, orth2):
        with pytest.raises(ValueError):
            ou.functional_from_json(orth2, {"kind": "sugeno"})

    @pytest.mark.parametrize("kind", sorted(DESCRIPTORS))
    def test_descriptor_roundtrip(self, orth2, kind):
        obj = DESCRIPTORS[kind]
        f = ou.functional_from_json(orth2, obj)
        assert f.kind == kind
        assert ou.functional_to_json(f) == obj
        again = ou.functional_from_json(orth2, ou.functional_to_json(f))
        for x in ([1.0, 3.0], [-0.5, 0.25], [2.0, 2.0]):
            assert again(x) == f(x)

    def test_kinds_without_descriptor_form(self, orth2):
        custom = ou.custom_functional(orth2, lambda x: x[0])
        extended = ou.canonical_extension(ou.partial_functional(orth2, [], [], 1.0))
        for f in (custom, extended):
            with pytest.raises(ValueError, match="no descriptor form"):
                ou.functional_to_json(f)
        with pytest.raises(ValueError, match="unknown functional kind"):
            ou.functional_from_json(orth2, {"kind": ["linear"]})

    @pytest.mark.parametrize(
        "obj, message", [({}, "missing field 'kind'"), ([], "expected an object, got list")], ids=["no_kind", "list"]
    )
    def test_bad_descriptor_message(self, orth2, obj, message):
        with pytest.raises(ValueError) as info:
            ou.functional_from_json(orth2, obj)
        assert str(info.value) == f"bad functional descriptor: {message}"
