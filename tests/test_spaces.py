import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderunit as ou
from oracles import exact_rank, norm_by_bisection, norms_by_bisection

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
        space = ou.orthant(2, unit=unit)
        samplers = (
            lambda rng: ou.sampling.cone_points(space, 8, rng),
            lambda rng: ou.sampling.ball_points(space, np.zeros(2), 1.0, 8, rng),
            lambda rng: ou.sampling.ball_point(space, np.zeros(2), 1.0, rng),
            lambda rng: ou.sampling.pairs_within(space, 0.5, 8, rng),
            lambda rng: ou.sampling.comparable_pairs(space, 8, rng),
        )
        for draw in samplers:
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="interior order unit"):
                draw(rng)
            assert rng.bit_generator.state == state

    def test_a_unit_outside_the_cone_is_refused_by_the_checkers(self):
        # (1, -1) pairs to -1 with the second row: every ball draw is accepted, so only the guard refuses
        space = ou.orthant(2, unit=[1.0, -1.0])
        family = ou.OperatorFamily((ou.identity_operator(space),))
        with pytest.raises(ValueError, match="interior order unit"):
            ou.certify_equicontinuity(family, 0.5)
        with pytest.raises(ValueError, match="interior order unit"):
            ou.check_positive(ou.linear_functional(space, [1.0, 0.0]))

    def test_an_infinite_unit_scaled_row_raises_instead_of_looping(self):
        """Interior at ``TOL``, but the unit-scaled first row is infinite, so every
        direction's order norm is too; a child process with a timeout turns a
        sampler that never accepts a draw into a failure."""
        code = (
            "import numpy as np, orderunit as ou\n"
            "space = ou.halfspace_space([[1e308, 0.0], [0.0, 1.0]], [1e-310, 1.0])\n"
            "assert ou.interior_contains(space, space.unit)\n"
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
