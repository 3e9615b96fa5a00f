import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import orderunit as ou
from oracles import (
    ball_offsets_by_loop,
    exact_rank,
    norm_by_bisection,
    norms_by_bisection,
    unit_rows_by_rows,
)
from strategies import interior_unit_spaces, point_arrays

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
vec2 = st.tuples(coord, coord).map(np.array)
int_rows = st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=1, max_size=8)
)


def pointed_entry(space):
    return next(c for c in ou.validate_space(space, samples=0).checks if c["name"] == "pointed")


class TestConeMembership:
    def test_orthant_boundary(self, orth2):
        assert ou.cone_contains(orth2, [1, 0])

    def test_orthant_negative(self, orth2):
        assert not ou.cone_contains(orth2, [-1, 2])

    def test_halfspace_reject(self, hs2):
        # second row evaluates to -3
        assert not ou.cone_contains(hs2, [0, -3])

    def test_interior(self, orth2, hs2):
        assert ou.interior_contains(orth2, [1, 1])
        assert not ou.interior_contains(orth2, [1, 0])
        assert ou.interior_contains(hs2, [1, -0.5])

    def test_dimension_mismatch(self, orth2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ou.cone_contains(orth2, [1, 2, 3])


class TestOrder:
    def test_leq_basic(self, orth2):
        assert ou.leq(orth2, [1, 2], [1, 3])
        assert not ou.leq(orth2, [1, 2], [0, 3])

    def test_leq_quarter_half(self, orth2):
        assert ou.leq(orth2, [0.25, 0.5], [0.5, 0.5])


class TestOrderNorm:
    def test_orthant_max_abs(self, orth2):
        assert ou.order_norm(orth2, [3, -4]) == pytest.approx(4.0, abs=1e-12)

    def test_zero(self, orth2, hs2):
        assert ou.order_norm(orth2, [0, 0]) == 0.0
        assert ou.order_norm(hs2, [0, 0]) == 0.0

    def test_halfspace_value(self, hs2):
        assert ou.order_norm(hs2, [0, -3]) == pytest.approx(1.5, abs=1e-12)
        assert norm_by_bisection(hs2, [0, -3]) == pytest.approx(1.5, abs=1e-9)

    def test_matches_bisection_oracle(self, orth2, orth3, hs2, hs4, rng):
        for space in (orth2, orth3, hs2, hs4):
            pts = rng.normal(scale=3.0, size=(200, space.dim))
            closed = np.array([ou.order_norm(space, p) for p in pts])
            assert np.max(np.abs(closed - norms_by_bisection(space, pts))) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(x=vec2, y=vec2)
    def test_triangle_inequality(self, x, y):
        space = ou.orthant(2)
        assert ou.order_norm(space, x + y) <= ou.order_norm(space, x) + ou.order_norm(space, y) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(x=vec2, a=st.floats(-5, 5, allow_nan=False))
    def test_absolute_homogeneity(self, x, a):
        space = ou.orthant(2)
        assert ou.order_norm(space, a * x) == pytest.approx(abs(a) * ou.order_norm(space, x), abs=1e-9)

    def test_definite(self, hs2, rng):
        for _ in range(64):
            x = rng.normal(size=2)
            if np.max(np.abs(x)) > 1e-6:
                assert ou.order_norm(hs2, x) > 0


class TestUnitRows:
    def test_a_large_finite_row_does_not_overflow(self):
        space = ou.halfspace_space([[1e308, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert ou.order_norm(space, [2.0, 0.0]) == 2.0
        assert ou.ray_thresholds(space, [0.0, 0.0], [2.0, -1.0]) == (-1.0, 2.0)
        assert ou.validate_space(space).ok

    def test_every_row_pairs_to_one_with_the_unit(self, hs4):
        for space in (hs4, ou.orthant(3, unit=[1.0, 2.0, 4.0]), ou.halfspace_space([[3e-5, 1.0], [1.0, 7e6]], [1.0, 0.5])):
            assert np.allclose(space.unit_rows @ space.unit, 1.0, rtol=1e-15, atol=0.0)
            assert np.array_equal(np.sign(space.unit_rows), np.sign(space.cone.rows))

    def test_a_row_that_pairs_to_zero_is_not_finite(self):
        assert not np.isfinite(ou.orthant(2, unit=[1.0, 0.0]).unit_rows[1]).any()
        # interior at TOL, but the scaled row (1, 0) pairs to 1e-310, whose reciprocal overflows
        assert np.isinf(ou.halfspace_space([[1e308, 0.0], [0.0, 1.0]], [1e-310, 1.0]).unit_rows[0, 0])


class TestNeighborhoods:
    def test_inside(self, orth2):
        assert ou.nbhd_contains(orth2, [0, 0], 1.0, [0.5, -0.5])

    def test_boundary_excluded(self, orth2):
        assert not ou.nbhd_contains(orth2, [0, 0], 1.0, [1, 0])

    def test_shifted_center(self, orth2):
        assert ou.nbhd_contains(orth2, [2, 4], 1.0, [2.5, 3.5])

    def test_nonpositive_delta(self, orth2):
        with pytest.raises(ValueError):
            ou.nbhd_contains(orth2, [0, 0], 0.0, [0, 0])

    def test_coherent_with_norm(self, hs2, rng):
        # membership in the ball agrees with the norm comparison, off the boundary
        for _ in range(300):
            z = rng.normal(size=2)
            x = rng.normal(scale=2.0, size=2)
            delta = rng.uniform(0.1, 3.0)
            nrm = ou.order_norm(hs2, x - z)
            if abs(nrm - delta) < 1e-7:
                continue
            assert ou.nbhd_contains(hs2, z, delta, x) == (nrm < delta)


class TestProduct:
    def test_units_concatenate(self):
        e = ou.orthant(1)
        f = ou.orthant(1)
        p = ou.product(e, f)
        assert p.dim == 2
        assert p.cone.orthant
        assert np.array_equal(p.unit, [1.0, 1.0])

    def test_norm_is_max_of_components(self, orth2, hs2, rng):
        p = ou.product(orth2, hs2)
        for _ in range(200):
            x = rng.normal(scale=2.0, size=2)
            y = rng.normal(scale=2.0, size=2)
            want = max(ou.order_norm(orth2, x), ou.order_norm(hs2, y))
            assert ou.order_norm(p, np.concatenate([x, y])) == pytest.approx(want, abs=1e-12)

    def test_order_is_coordinatewise(self, orth2, hs2, rng):
        p = ou.product(orth2, hs2)
        for _ in range(200):
            x1, x2 = rng.normal(size=2), rng.normal(size=2)
            y1, y2 = rng.normal(size=2), rng.normal(size=2)
            both = ou.leq(orth2, x1, y1) and ou.leq(hs2, x2, y2)
            joint = ou.leq(p, np.concatenate([x1, x2]), np.concatenate([y1, y2]))
            assert joint == both


class TestRayThresholds:
    def test_axis_example(self, orth2):
        assert ou.ray_thresholds(orth2, [0, 0], [1, 0]) == (0.0, 1.0)

    def test_equal_points(self, orth2):
        assert ou.ray_thresholds(orth2, [1, 2], [1, 2]) == (0.0, 0.0)

    def test_antisymmetric_pair(self, orth2):
        assert ou.ray_thresholds(orth2, [1, 0], [0, 1]) == (-1.0, 1.0)

    def test_ordering_and_flip(self, hs2, rng):
        unit = hs2.unit
        for _ in range(200):
            x = rng.normal(scale=2.0, size=2)
            y = rng.normal(scale=2.0, size=2)
            lo, hi = ou.ray_thresholds(hs2, x, y)
            assert lo <= hi + 1e-12
            h = 1e-6
            assert ou.cone_contains(hs2, x + (hi + h) * unit - y)
            assert not ou.cone_contains(hs2, x + (hi - h) * unit - y, tol=1e-12) or hi == lo


class TestValidate:
    def test_good_space(self, orth2):
        report = ou.validate_space(orth2)
        assert report.ok and not report.failures

    def test_boundary_unit_fails_interiority(self):
        bad = ou.orthant(2, unit=[1.0, 0.0])
        report = ou.validate_space(bad)
        assert not report.ok
        assert any(c["name"] == "unit_interior" for c in report.failures)

    def test_single_halfspace_fails_pointedness(self):
        flat = ou.halfspace_space([[1.0, 0.0]], [1.0, 0.0])
        report = ou.validate_space(flat)
        names = [c["name"] for c in report.failures]
        assert "pointed" in names
        witness = next(c for c in report.failures if c["name"] == "pointed")["detail"]
        v = np.array(witness["line_direction"])
        assert ou.cone_contains(flat, v, tol=1e-6) and ou.cone_contains(flat, -v, tol=1e-6)
        assert np.max(np.abs(v)) > 1e-6


class TestPointedness:
    @settings(max_examples=300, deadline=None)
    @given(rows=int_rows)
    def test_unpointed_iff_rank_deficient(self, rows):
        dim = len(rows[0])
        space = ou.halfspace_space(rows, np.ones(dim))
        entry = pointed_entry(space)
        assert entry["passed"] == (exact_rank(rows) == dim)
        if not entry["passed"]:
            v = np.array(entry["detail"]["line_direction"])
            assert np.max(np.abs(v)) == 1.0
            assert ou.cone_contains(space, v, tol=ou.TOL) and ou.cone_contains(space, -v, tol=ou.TOL)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6, 1e-8])
    def test_near_singular_full_rank_is_pointed(self, eps):
        # full column rank, so no line: the smallest singular value is small, not zero
        space = ou.halfspace_space([[1.0, 0.0], [1.0, eps]], [1.0, 1.0])
        assert pointed_entry(space)["passed"]
        assert ou.validate_space(space).ok

    def test_flat_plane_witness(self):
        flat = ou.halfspace_space([[1.0, 0.0]], [1.0, 0.0])
        assert pointed_entry(flat)["detail"] == {"line_direction": [0.0, 1.0]}

    def test_orthants_and_halfspace_spaces_are_pointed(self, orth2, orth3, hs2, hs4):
        spaces = (orth2, orth3, ou.orthant(3, unit=[1.0, 2.0, 1.0]), ou.orthant(6), hs2, hs4)
        assert all(pointed_entry(space)["passed"] for space in spaces)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rows_rejected(self, bad):
        with pytest.raises(ValueError, match="cone rows must be finite"):
            ou.halfspace_space([[1.0, 0.0], [bad, 1.0]], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unit_rejected(self, bad):
        with pytest.raises(ValueError, match="order unit must be finite"):
            ou.orthant(2, unit=[1.0, bad])


BAD_UNITS = [[1.0, 0.0], [-1.0, -1.0], [1e-320, 1.0], [1.0, -1.0]]

# stored rows (1, 0) and (0, 1): the first pairs to 1e-308 with the unit, below TOL
TINY_PAIRING = ([[1e300, 0.0], [0.0, 1.0]], [1e-308, 1.0])
# both pairings overflow, so every unit-scaled row would be zero and every order norm 0
OVERFLOWING_UNIT = ([[1.0, 1.0], [1.0, 0.9]], [1e308, 1e308])


def samplers(space):
    """Every sampler that draws from the order ball, each as a function of its generator."""
    zero = np.zeros(space.dim)
    return (
        lambda rng: ou.sampling.cone_points(space, 8, rng),
        lambda rng: ou.sampling.ball_points(space, zero, 1.0, 8, rng),
        lambda rng: ou.sampling.ball_point(space, zero, 1.0, rng),
        lambda rng: ou.sampling.pairs_within(space, 0.5, 8, rng),
        lambda rng: ou.sampling.comparable_pairs(space, 8, rng),
    )


def refusal(space):
    """The samplers' refusal message, or None when the first sampler draws."""
    try:
        samplers(space)[0](np.random.default_rng(0))
    except ValueError as exc:
        return str(exc)
    return None


def assert_refused_before_drawing(space):
    for draw in samplers(space):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="interior order unit"):
            draw(rng)
        assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="interior order unit"):  # the loop references refuse too
        ball_offsets_by_loop(space, 0, np.random.default_rng(0))


class TestBoundaryUnitSampling:
    @pytest.mark.parametrize("unit", BAD_UNITS)
    def test_cone_points_raise_instead_of_looping(self, unit):
        space = ou.orthant(2, unit=unit)
        with pytest.raises(ValueError, match="interior order unit"):
            ou.sampling.cone_points(space, 8, 0)

    @pytest.mark.parametrize("unit", BAD_UNITS)
    def test_ball_points_raise_instead_of_looping(self, unit):
        space = ou.orthant(2, unit=unit)
        with pytest.raises(ValueError, match="interior order unit"):
            ou.sampling.ball_points(space, np.zeros(2), 1.0, 8, 0)

    @pytest.mark.parametrize("unit", BAD_UNITS)
    def test_pairs_within_raise_instead_of_looping(self, unit):
        space = ou.orthant(2, unit=unit)
        with pytest.raises(ValueError, match="interior order unit"):
            ou.sampling.pairs_within(space, 0.5, 8, 0)

    @pytest.mark.parametrize("unit", BAD_UNITS)
    def test_no_draw_before_the_refusal(self, unit):
        assert_refused_before_drawing(ou.orthant(2, unit=unit))

    @pytest.mark.parametrize(
        "rows, unit, least", [(*TINY_PAIRING, 1e-308), (*OVERFLOWING_UNIT, None)], ids=["tiny_pairing", "overflowing_unit"]
    )
    def test_the_scaled_pairings_decide_the_refusal(self, rows, unit, least):
        space = ou.halfspace_space(rows, unit)
        detail = {"min_row_pairing": least, "row": 0}  # a pairing that is not finite is null, so the JSON stays strict
        assert ou.validate_space(space).checks[0] == {"name": "unit_interior", "passed": False, "detail": detail}
        assert_refused_before_drawing(space)

    def test_a_unit_outside_the_cone_is_refused_by_the_checkers(self):
        # (1, -1) pairs to -1 with the second row: every ball draw is accepted, so only the guard refuses
        space = ou.orthant(2, unit=[1.0, -1.0])
        family = ou.OperatorFamily((ou.identity_operator(space),))
        with pytest.raises(ValueError, match="interior order unit"):
            ou.certify_equicontinuity(family, 0.5)
        with pytest.raises(ValueError, match="interior order unit"):
            ou.check_positive(ou.linear_functional(space, [1.0, 0.0]))

    def test_an_infinite_unit_scaled_row_raises_instead_of_looping(self):
        """The stored first row ``(1, 0)`` pairs to ``1e-310`` with the unit, so the
        unit is not interior and the unit-scaled first row is infinite, as is
        every direction's order norm; a child process with a timeout turns a
        sampler that never accepts a draw into a failure."""
        code = (
            "import numpy as np, orderunit as ou\n"
            "space = ou.halfspace_space([[1e308, 0.0], [0.0, 1.0]], [1e-310, 1.0])\n"
            "assert not ou.interior_contains(space, space.unit) and np.isinf(space.unit_rows[0, 0])\n"
            "for draw in (lambda: ou.sampling.ball_points(space, np.zeros(2), 1.0, 8, 0),\n"
            "             lambda: ou.sampling.cone_points(space, 8, 0)):\n"
            "    try:\n"
            "        draw()\n"
            "    except ValueError as exc:\n"
            "        assert 'interior order unit' in str(exc), exc\n"
            "    else:\n"
            "        raise SystemExit('no refusal')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def bits(space):
    """The stored rows and unit, to compare bit for bit."""
    return space.cone.rows.tobytes(), space.unit.tobytes()


class TestRowScale:
    """A positive multiple of a half-space row cuts out the same cone, so the
    stored rows, every predicate and the samplers' refusal ignore it."""

    def test_a_tiny_row_cuts_out_the_orthant(self):
        tiny = ou.halfspace_space([[1e-10, 0.0], [0.0, 1.0]], [1.0, 1.0])
        plain = ou.halfspace_space([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert bits(tiny) == bits(plain)
        assert ou.validate_space(tiny).ok and ou.validate_space(tiny) == ou.validate_space(plain)
        for draw_tiny, draw_plain in zip(samplers(tiny), samplers(plain)):
            got = np.asarray(draw_tiny(np.random.default_rng(3)))
            assert got.tobytes() == np.asarray(draw_plain(np.random.default_rng(3))).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(space=interior_unit_spaces(), data=st.data())
    def test_a_power_of_two_per_row_changes_no_bit(self, space, data):
        k, dim = space.cone.rows.shape
        raw = space.cone.rows * 2.0 ** data.draw(arrays(int, k, elements=st.integers(-40, 40)))[:, None]
        scaled = ou.halfspace_space(raw, space.unit)
        assert bits(scaled) == bits(space)
        assert ou.validate_space(scaled) == ou.validate_space(space)
        assert refusal(scaled) == refusal(space)
        X = data.draw(point_arrays(dim, data.draw(st.integers(0, 16))))
        for tol in (0.0, ou.TOL, 1e-6):
            assert np.array_equal(ou.spaces.cone_contains_rows(scaled, X, tol), ou.spaces.cone_contains_rows(space, X, tol))
        M = data.draw(arrays(float, (dim, dim), elements=st.floats(-0.25, 1.0)))
        T, T_scaled = (ou.linear_positive(s, s, M, strict=False) for s in (space, scaled))
        for tol in (0.0, ou.TOL, 1e-6):
            a = ou.check_order_preserving_op(T, seed=1, n=64, tol=tol).to_json()
            assert a == ou.check_order_preserving_op(T_scaled, seed=1, n=64, tol=tol).to_json()

    @settings(max_examples=100, deadline=None)
    @given(space=interior_unit_spaces(), data=st.data())
    def test_a_power_of_ten_per_row_keeps_the_verdicts(self, space, data):
        k = space.cone.rows.shape[0]
        raw = space.cone.rows * 10.0 ** data.draw(arrays(int, k, elements=st.integers(-12, 12)))[:, None]
        scaled = ou.halfspace_space(raw, space.unit)
        assert ou.validate_space(scaled).ok == ou.validate_space(space).ok
        assert refusal(scaled) == refusal(space)
        # the stored rows are the given ones over their largest entries, so the
        # unit-scaled rows are the formula of the raw rows, bit for bit
        expected = unit_rows_by_rows(scaled, raw)
        assert expected.tobytes() == scaled.unit_rows.tobytes()
        assert bits(ou.space_from_json(ou.space_to_json(scaled))) == bits(scaled)


class TestJson:
    def test_roundtrip_orthant(self, orth2):
        loaded = ou.space_from_json(ou.space_to_json(orth2))
        assert loaded.cone.orthant
        assert np.array_equal(loaded.unit, orth2.unit)

    def test_roundtrip_halfspaces(self, hs2):
        loaded = ou.space_from_json(ou.space_to_json(hs2))
        assert np.array_equal(loaded.cone.rows, hs2.cone.rows)

    def test_malformed(self):
        with pytest.raises(ValueError):
            ou.space_from_json({"dim": 2, "unit": [1, 1]})
        with pytest.raises(ValueError):
            ou.space_from_json({"dim": 2, "cone": "simplex", "unit": [1, 1]})

    def test_unit_length_checked_before_the_orthant_is_built(self, monkeypatch):
        # np.eye(200000) would ask for 320 GB; fail instead of building it
        monkeypatch.setattr(ou.ConeSpec, "nonneg_orthant", staticmethod(lambda dim: pytest.fail("built the orthant")))
        with pytest.raises(ValueError, match="dimension mismatch"):
            ou.space_from_json({"dim": 200000, "cone": "orthant", "unit": [1]})


def raw_bits(a):
    """The raw bits of a float array: equal bits mean equal values, signs of zero and NaN payloads."""
    return np.asarray(a, dtype=float).view(np.int64)


# entries with signed zeros, subnormals, values near the overflow, infinities and NaN; the finite ones are drawn more often
FINITE_ENTRIES = [0.0, -0.0, 1.5, -2.0, 3e-5, 5e-324, -1e-310, 1e308, -1.7976931348623157e308, 4e300]
ODD_ENTRIES = [np.nan, np.inf, -np.inf]


@st.composite
def orthant_twins(draw):
    """``(tagged, untagged, X)``: ``orthant(d, unit)``, the same cone as ``halfspace_space(np.eye(d), unit)``
    without the tag, and up to 12 rows of entries from ``FINITE_ENTRIES``, normals and, in some rows,
    ``ODD_ENTRIES``.  The unit is interior, on the boundary, outside or subnormal, so both paths run."""
    dim = draw(st.sampled_from([1, 2, 3, 4, 7, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = [1.0, 0.5, 3.0, 1e-8, 2e-9, 7e5, 1e300, 1e-9, 5e-324, 0.0, -1.0]
    unit = np.where(rng.random(dim) < 0.5, rng.choice(units, size=dim), rng.uniform(1e-3, 1e3, size=dim))
    if draw(st.booleans()):
        unit = np.abs(unit) + 1.0  # interior, so the orthant path runs
    n = draw(st.integers(0, 12))
    X = np.where(rng.random((n, dim)) < 0.6, rng.choice(FINITE_ENTRIES, size=(n, dim)), rng.normal(size=(n, dim)))
    odd = rng.random((n, dim)) < draw(st.sampled_from([0.0, 0.02, 0.3]))
    X[odd] = rng.choice(ODD_ENTRIES, size=int(odd.sum()))
    return ou.orthant(dim, unit=unit), ou.halfspace_space(np.eye(dim), unit), X


class TestOrthantPath:
    """An orthant's kernels skip the dense identity products; the untagged identity rows are the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(case=orthant_twins())
    def test_the_orthant_path_keeps_the_dense_bits(self, case):
        tagged, dense, X = case
        assert tagged.cone.orthant and not dense.cone.orthant
        assert np.array_equal(raw_bits(tagged.unit_rows), raw_bits(dense.unit_rows))
        with np.errstate(all="ignore"):
            assert np.array_equal(raw_bits(ou.spaces._unit_products(tagged, X)), raw_bits(ou.spaces.matvecs(dense.unit_rows, X)))
            assert np.array_equal(raw_bits(ou.spaces.order_norms(tagged, X)), raw_bits(ou.spaces.order_norms(dense, X)))
        for tol in (0.0, ou.TOL, np.inf):
            assert np.array_equal(ou.spaces.cone_contains_rows(tagged, X, tol), ou.spaces.cone_contains_rows(dense, X, tol))
        assert ou.validate_space(tagged, samples=32) == ou.validate_space(dense, samples=32)
        if tagged.unit_is_interior:  # the limit's thresholds: every probe line's, read through the limit's values
            probes = X[np.isfinite(X).all(axis=1)][:3]
            limits = [
                ou.pointwise_limit([ou.identity_operator(space)] * 2, probes)[0] for space in (tagged, dense)
            ]
            with np.errstate(all="ignore"):
                for x in X:
                    assert np.array_equal(raw_bits(limits[0](x)), raw_bits(limits[1](x)))

    def test_validating_the_largest_orthant_takes_no_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("an orthant needs no SVD to be pointed")

        monkeypatch.setattr(np.linalg, "svd", svd)
        assert ou.validate_space(ou.orthant(ou.spaces.MAX_ORTHANT_DIM)).ok

    def test_an_orthant_tag_needs_identity_rows(self):
        # the tag picks the kernels, so a tagged cone with other rows would get wrong verdicts
        for rows in ([[1, 1], [0, 1]], -np.eye(2), np.eye(3)[:2], [[0, 1], [1, 0]]):
            with pytest.raises(ValueError, match=r"^orthant=True requires the identity as cone rows$"):
                ou.ConeSpec(rows=rows, orthant=True)
        assert np.array_equal(ou.ConeSpec(rows=2.0 * np.eye(3), orthant=True).rows, np.eye(3))  # stored scaled
