import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderunit as ou
from oracles import convergent_monotone_capacities, halving_by_loop, monotonicity_witness_by_loop, random_monotone_capacity


def table_functional(space, table, default=0.0):
    """Functional given by a lookup table on exact points (test scaffolding)."""
    entries = [(np.asarray(k, dtype=float), v) for k, v in table]

    def hook(x):
        for key, val in entries:
            if np.array_equal(x, key):
                return val
        return default

    return ou.custom_functional(space, hook)


class TestWeakNeighborhood:
    def test_center_always_inside(self, orth2, cap2):
        f = ou.choquet_functional(orth2, cap2)
        nbhd = ou.WeakNeighborhood(center=f, probes=([1.0, 0.0], [0.0, 1.0]), eps=0.1)
        assert ou.weak_nbhd_contains(nbhd, f)

    def test_probe_gap_decides(self, orth2, cap2):
        f = ou.choquet_functional(orth2, cap2)
        other = ou.choquet_functional(orth2, ou.capacity_from_dict(2, {1: 0.6, 2: 0.6, 3: 1.0}))
        # the two differ by 0.3 at the probe (1, 0)
        assert abs(f([1.0, 0.0]) - other([1.0, 0.0])) == pytest.approx(0.3, abs=1e-12)
        tight = ou.WeakNeighborhood(center=f, probes=([1.0, 0.0],), eps=0.2)
        loose = ou.WeakNeighborhood(center=f, probes=([1.0, 0.0],), eps=0.5)
        assert not ou.weak_nbhd_contains(tight, other)
        assert ou.weak_nbhd_contains(loose, other)

    def test_validation(self, orth2, cap2):
        f = ou.choquet_functional(orth2, cap2)
        with pytest.raises(ValueError):
            ou.WeakNeighborhood(center=f, probes=(), eps=0.1)
        with pytest.raises(ValueError):
            ou.WeakNeighborhood(center=f, probes=([1.0, 0.0],), eps=0.0)


class TestAbsorbingFactor:
    def test_scaled_ball(self, orth2):
        assert ou.absorbing_factor(orth2, [4.0, 0.0], 2.0) == pytest.approx(2.0)

    def test_zero_vector(self, orth2):
        assert ou.absorbing_factor(orth2, [0.0, 0.0], 0.7) == 0.0

    def test_unit_ball(self, orth2):
        assert ou.absorbing_factor(orth2, [1.0, -1.0], 1.0) == pytest.approx(1.0)

    def test_bad_eps(self, orth2):
        with pytest.raises(ValueError):
            ou.absorbing_factor(orth2, [1.0, 0.0], 0.0)


class TestDenseSequence:
    def test_deterministic(self, orth2):
        a = ou.dense_sequence(orth2, limit=32)
        b = ou.dense_sequence(orth2, limit=32)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_head_is_coarse_integer_grid(self, orth2):
        seq = ou.dense_sequence(orth2, limit=30)
        assert np.array_equal(seq[0], [-2.0, -2.0])
        # the first level is the integer grid with |k| <= 2, 25 points
        assert all(np.all(v == np.round(v)) for v in seq[:25])
        assert len({tuple(v) for v in seq}) == 30

    def test_later_levels_refine(self, orth2):
        seq = ou.dense_sequence(orth2, limit=40)
        assert any(np.any(v != np.round(v)) for v in seq[25:])


class TestWeakMetric:
    def test_identity(self, orth2, cap2):
        f = ou.choquet_functional(orth2, cap2)
        assert ou.weak_metric(f, f) == 0.0

    def test_single_probe_difference(self, orth2):
        seq = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        f = table_functional(orth2, [])
        g = table_functional(orth2, [(seq[0], 0.4)])
        assert ou.weak_metric(f, g, seq=seq, truncation=4) == pytest.approx(0.2, abs=1e-12)

    def test_saturated_difference(self, orth2):
        f = table_functional(orth2, [], default=0.0)
        g = table_functional(orth2, [], default=1.5)
        assert ou.weak_metric(f, g, truncation=4) == pytest.approx(0.9375, abs=1e-12)

    def test_separates_distinct_functionals(self, orth2, cap2):
        other = ou.choquet_functional(orth2, ou.capacity_from_dict(2, {1: 0.6, 2: 0.6, 3: 1.0}))
        assert ou.weak_metric(ou.choquet_functional(orth2, cap2), other) > 0.0

    def test_convergence_iff_pointwise_on_probes(self, orth2, rng):
        # d(f_k, f) -> 0 exactly when every probe value converges
        seq = ou.dense_sequence(orth2, limit=16)
        target = random_monotone_capacity(2, rng)
        f = ou.choquet_functional(orth2, target)

        def perturbed(eps):
            vals = target.values.copy()
            vals[1] = vals[1] * (1.0 - eps)
            return ou.choquet_functional(orth2, ou.Capacity(n=2, values=vals))

        shrinking = [perturbed(0.5**k) for k in range(1, 12)]
        dists = [ou.weak_metric(g, f, seq=seq, truncation=16) for g in shrinking]
        assert dists[-1] < 1e-3 and dists[-1] < dists[0]
        for j, x in enumerate(seq):
            gaps = [abs(g(x) - f(x)) for g in shrinking]
            assert gaps[-1] <= gaps[0] + 1e-12

        stuck = [perturbed(0.5 + 0.01 * (k % 2)) for k in range(12)]
        stuck_dists = [ou.weak_metric(g, f, seq=seq, truncation=16) for g in stuck]
        probe_gap = max(abs(stuck[-1](x) - f(x)) for x in seq)
        if probe_gap > 1e-6:
            assert min(stuck_dists) > 1e-6

    def test_metric_axioms_on_samples(self, orth2, rng):
        fs = [
            ou.choquet_functional(orth2, random_monotone_capacity(2, rng)) for _ in range(6)
        ]
        seq = ou.dense_sequence(orth2, limit=32)
        for f in fs:
            assert ou.weak_metric(f, f, seq=seq, truncation=32) == 0.0
        for f in fs:
            for g in fs:
                d_fg = ou.weak_metric(f, g, seq=seq, truncation=32)
                assert d_fg == pytest.approx(ou.weak_metric(g, f, seq=seq, truncation=32), abs=1e-12)
                for h in fs:
                    d_fh = ou.weak_metric(f, h, seq=seq, truncation=32)
                    d_hg = ou.weak_metric(h, g, seq=seq, truncation=32)
                    assert d_fg <= d_fh + d_hg + 1e-12


class TestStateMembership:
    def test_choquet_state(self, orth2, cap2):
        assert ou.check_state(ou.choquet_functional(orth2, cap2), n=1024).passed

    def test_maxplus_state(self, orth2):
        assert ou.check_state(ou.maxplus_functional(orth2, [0.0, -1.0]), n=1024).passed

    def test_sqrt_gap_rejected_for_order(self, orth2):
        report = ou.check_state(ou.sqrt_gap_functional(orth2), n=1024)
        assert not report.passed
        assert report.witness["failed_check"] == "order_preserving"

    def test_unnormalized_rejected(self, orth2):
        cap = ou.capacity_from_dict(2, {1: 0.3, 2: 0.6, 3: 2.0})
        report = ou.check_state(ou.choquet_functional(orth2, cap), n=256)
        assert not report.passed
        assert report.witness["failed_check"] == "normed"

    def test_states_bounded_by_norm(self, orth2, rng):
        # |f(x)| <= ||x|| * f(unit) = ||x|| for every state, on samples
        for _ in range(5):
            f = ou.choquet_functional(orth2, random_monotone_capacity(2, rng))
            for _ in range(200):
                x = rng.normal(scale=2.5, size=2)
                assert abs(f(x)) <= ou.order_norm(orth2, x) + 1e-9


def oscillating_caps(n_terms=100):
    caps = []
    for k in range(n_terms):
        v1 = 0.5 + (0.1 if k % 2 == 0 else -0.1)
        caps.append(ou.capacity_from_dict(2, {1: v1, 2: 0.6, 3: 1.0}))
    return caps


class TestSubsequenceLimit:
    def test_oscillating_keeps_even_indices(self, orth2):
        result = ou.subsequence_limit(oscillating_caps(), orth2)
        assert result.indices
        assert all(i % 2 == 0 for i in result.indices)
        assert result.limit_capacity.values[1] == pytest.approx(0.6, abs=1e-12)
        assert result.report.passed

    def test_constant_sequence_is_its_own_limit(self, orth2, cap2):
        result = ou.subsequence_limit([cap2] * 20, orth2)
        assert result.indices == list(range(20))
        assert np.array_equal(result.limit_capacity.values, cap2.values)
        assert result.report.passed

    def test_decaying_random_sequence(self, orth3, rng):
        caps = convergent_monotone_capacities(rng)
        assert all(c.is_monotone() for c in caps)
        result = ou.subsequence_limit(caps, orth3)
        spread = max(
            float(np.max(np.abs(caps[i].values - result.limit_capacity.values)))
            for i in result.indices
        )
        assert spread <= 1e-6
        assert result.report.passed
        assert all(b <= a + 1e-15 for a, b in zip(result.distances, result.distances[1:]))

    def test_too_short_raises(self, orth2, cap2):
        with pytest.raises(ValueError, match="too short"):
            ou.subsequence_limit([cap2] * 3, orth2)

    def test_halving_exhaustion_raises(self, orth2, rng):
        # eight scattered capacities cannot converge to 1e-6
        caps = [
            ou.capacity_from_dict(2, {1: v, 2: 0.6, 3: 1.0})
            for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        ]
        with pytest.raises(ValueError, match="too short"):
            ou.subsequence_limit(caps, orth2)

    def test_unnormalized_rejected(self, orth2):
        caps = [ou.capacity_from_dict(2, {1: 0.3, 2: 0.6, 3: 2.0})] * 20
        with pytest.raises(ValueError, match="normalized"):
            ou.subsequence_limit(caps, orth2)

    def test_mixed_ground_size_rejected(self, orth2, cap2, rng):
        caps = [cap2] * 10 + [random_monotone_capacity(3, rng)] * 10
        with pytest.raises(ValueError, match="ground size"):
            ou.subsequence_limit(caps, orth2)

    def test_a_member_whose_values_overflow_has_distance_nan(self, orth2):
        # 4 * 1e308 at the probe (2, -2): a NaN gap counted 1, as if the metric were defined there
        caps = [ou.capacity_from_dict(2, {1: v, 3: 1.0}) for v in (0.5, 1e308, 0.5)]
        result = ou.subsequence_limit(caps, orth2, conv_tol=float("inf"), min_length=1)
        assert result.indices == [0, 1, 2]
        assert result.distances[0] == result.distances[2] == 0.0 and np.isnan(result.distances[1])
        assert result.report.witness["checks"] == {
            "limit_monotone": True, "limit_normalized": True, "limit_state": True, "metric_tail": False
        }

    def test_limit_inherits_monotonicity(self, orth3, rng):
        # every input is monotone and normalized, so the member chosen as
        # the limit is too; the report asserts it explicitly
        caps = convergent_monotone_capacities(rng, n_terms=60)
        result = ou.subsequence_limit(caps, orth3)
        assert result.limit_capacity.is_monotone()
        assert result.limit_capacity.total == pytest.approx(1.0, abs=1e-9)


def _outcome(fn):
    """``fn()``, or the message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@st.composite
def capacity_sequences(draw):
    """``(n, values, conv_tol)``: 2 to 12 normalized value rows on 0 to 10 points.

    Each row is a base capacity plus a jitter, one for the whole sequence or
    one per member, that some members skip and that may shrink
    geometrically along the sequence.  Both are drawn
    on a grid of quarters, so the halving often meets a value equal to its
    midpoint, and a sequence that settles with ``conv_tol = 0`` keeps its
    ties.  A base drawn without its monotone closure drops at many masks and
    bits.
    """
    n = draw(st.sampled_from(range(11)))
    members = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = np.arange(2**n)
    base = rng.integers(0, 5, size=2**n) / 4.0
    base[0] = 0.0
    if draw(st.booleans()):
        for i in range(n):  # the monotone closure: each value becomes the largest below it
            base = np.maximum(base, base[masks & ~(1 << i)])
    shape = (1 if draw(st.booleans()) else members, 2**n)
    jitter = rng.integers(0, 5, size=shape) / 4.0
    jitter *= rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))  # at some masks
    jitter = jitter * (rng.random((members, 1)) < draw(st.sampled_from([0.25, 1.0])))  # of some members
    jitter *= draw(st.sampled_from([1e-9, 1e-3, 1.0])) * draw(st.sampled_from([1.0, 0.5])) ** np.arange(members)[:, None]
    values = base + jitter
    values[:, -1], values[:, 0] = 1.0, 0.0  # in this order, so at n = 0 the one value is the empty set's
    return n, values, draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.3]))


class TestTheArrayLoopsKeepTheBits:
    """``Capacity.monotonicity_witness`` and the halving of :func:`subsequence_limit`
    against the loops they replaced (``tests/oracles.py``)."""

    @settings(max_examples=100, deadline=None)
    @given(capacity_sequences())
    def test_witnesses_indices_and_exhaustion_match_the_loops(self, drawn):
        n, values, conv_tol = drawn
        caps = [ou.Capacity(n=n, values=row) for row in values]
        for cap in caps:
            assert cap.monotonicity_witness() == monotonicity_witness_by_loop(cap)
        if n == 0:  # one value, both empty and full: no sequence is normalized
            return
        want = _outcome(lambda: halving_by_loop(caps, conv_tol))
        got = _outcome(lambda: ou.subsequence_limit(caps, ou.orthant(n), conv_tol=conv_tol, min_length=1).indices)
        assert got == want

    def test_a_value_at_the_midpoint_counts_as_lower(self, orth2):
        # mask 1 spans [0.25, 0.75]: the three values at 0.5 sit on the midpoint and outnumber the upper half
        caps = [ou.capacity_from_dict(2, {1: v, 2: 0.6, 3: 1.0}) for v in (0.25, 0.5, 0.75, 0.5, 0.5, 0.75)]
        result = ou.subsequence_limit(caps, orth2, min_length=1)
        assert result.indices == halving_by_loop(caps, 1e-6) == [1, 3, 4]

    @pytest.mark.parametrize("pair", ["1 + 2.0**-52, 1 + 2 * 2.0**-52", "1e308, 1.5e308"], ids=["adjacent_floats", "overflow"])
    def test_a_midpoint_at_or_past_the_top_still_halves(self, pair):
        """The midpoint rounds half to even up to ``hi``, or overflows: no value lay above it, and the
        halving kept every member forever.  A child process with a timeout turns that into a failure."""
        code = (
            "import numpy as np, orderunit as ou\n"
            f"lo, hi = {pair}\n"
            "assert 0.5 * (lo + hi) >= hi\n"
            "caps = [ou.capacity_from_dict(2, {1: v, 3: 1.0}) for v in (lo, hi, lo, hi, hi)]\n"
            "with np.errstate(over='ignore', invalid='ignore'):  # Choquet sums near the largest float overflow\n"
            "    print(ou.subsequence_limit(caps, ou.orthant(2), conv_tol=0.0, min_length=1).indices)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[1, 3, 4]\n"), proc.stderr
