"""Reports of the sampled law checkers: the golden bytes of the checks that
fail away from the gallery, and the one pass rule that decides them all.

``tests/data/reports_parent.json`` holds the sorted-key ``to_json()`` of each
report below, recorded before the functional and operator kinds shared one
evaluator field and one pair of law-check loops.  Regenerate it (only when a
change to the witnesses is intended) with

    PYTHONPATH=src python tests/test_reports.py > tests/data/reports_parent.json
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import orderunit as ou

GOLDEN = Path(__file__).parent / "data" / "reports_parent.json"


def golden_reports() -> dict:
    orth2 = ou.orthant(2)
    square = ou.custom_functional(orth2, lambda x: x[0] ** 2)
    bad_cap = ou.capacity_from_dict(2, {1: 0.9, 2: 0.6, 3: 0.7})
    gap = ou.sqrt_gap_functional(orth2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        unnormed = ou.maxplus_functional(orth2, [-0.2, -1.0])
    square_op = ou.custom_operator(orth2, orth2, lambda x: np.array([x[0] ** 2, x[1]]))
    negative = ou.linear_positive(orth2, orth2, [[1.0, 0.0], [0.0, -1.0]], strict=False)
    clamp = ou.clamp_operator(orth2)
    reports = {
        "weak_additivity/custom_square": ou.check_weak_additivity(square, n=256),
        "order_preserving/choquet_non_monotone": ou.check_order_preserving(
            ou.choquet_functional(orth2, bad_cap), n=1024
        ),
        "order_preserving/sqrt_gap": ou.check_order_preserving(gap, n=1024),
        "normed/maxplus_unnormalized": ou.check_normed(unnormed),
        "positive/linear_1_-1": ou.check_positive(ou.linear_functional(orth2, [1.0, -1.0]), n=1024),
        "weakly_additive_op/custom_square": ou.check_weakly_additive_op(square_op, n=256),
        "order_preserving_op/custom_square": ou.check_order_preserving_op(square_op, n=256),
        "weakly_additive_op/negative_matrix": ou.check_weakly_additive_op(negative, n=256),
        "order_preserving_op/negative_matrix": ou.check_order_preserving_op(negative, n=512),
        "state/sqrt_gap": ou.check_state(gap),
        "open_ball_image/clamp": ou.open_ball_image_check(clamp, 1.0, n=48, budget=500),
        "openness/clamp_at_zero": ou.openness_check(clamp, [0.0, 0.0], 0.25, 0.25, targets=24, budget=800),
        "openness/clamp_off_band": ou.openness_check(clamp, [2.0, 4.0], 1.0, 0.1, targets=24, budget=800),
    }
    return {name: report.to_json() for name, report in reports.items()}


def render() -> str:
    return json.dumps(golden_reports(), sort_keys=True, indent=1) + "\n"


def test_reports_match_golden_bytes():
    assert render() == GOLDEN.read_text()


def _half_sum_nan_left(x):
    """``(x1 + x2) / 2``, normed at the all-ones unit, and NaN where ``x1 < -0.5``."""
    return np.nan if x[0] < -0.5 else 0.5 * (x[0] + x[1])


NAN_AT = [-1.0, 0.0]  # the given sample whose defect is NaN; every sample before it passes


def _nan_reports():
    """``name -> (report, witness key of the NaN value)``: each checker on given
    samples, or drawn ones for ``open_ball_image``, through ``_half_sum_nan_left``."""
    orth2 = ou.orthant(2)
    f = ou.custom_functional(orth2, _half_sum_nan_left)
    T = ou.stack_operator(orth2, [f])  # into the orthant of dim 1, whose unit is T(unit)
    shifts = [([0.0, 0.0], 1.0), (NAN_AT, 1.0), ([2.0, 0.0], 1.0)]
    pairs = [([0.0, 0.0], [1.0, 1.0]), (NAN_AT, [0.0, 0.0])]
    near = [([0.0, 0.0], [0.1, 0.0]), (NAN_AT, [-0.9, 0.0])]
    return {
        "weak_additivity": (lambda: ou.check_weak_additivity(f, shifts), "defect"),
        "weakly_additive_op": (lambda: ou.check_weakly_additive_op(T, shifts), "defect"),
        "order_preserving": (lambda: ou.check_order_preserving(f, pairs), "f_x"),
        "order_preserving_op": (lambda: ou.check_order_preserving_op(T, pairs), "T_x"),
        "positive": (lambda: ou.check_positive(f, [[1.0, 0.0], NAN_AT]), "f_x"),
        "equicontinuity": (lambda: ou.certify_equicontinuity(ou.OperatorFamily((T,)), 1.0, near), "image_gap"),
        "graph_shift_closure": (lambda: ou.graph_check(T, [[3.0, 3.0], NAN_AT]), "defect"),
        "open_ball_image": (lambda: ou.open_ball_image_check(T, 1.0, n=64), "image_norm"),
    }


class TestPassRule:
    """A sampled checker passes a sample only where its inequality holds, so a
    NaN defect fails, the first one is the witness, and a functional and the
    stack of it agree."""

    @pytest.mark.parametrize("name", sorted(_nan_reports()))
    def test_a_nan_defect_fails_and_is_the_witness(self, name):
        run, value = _nan_reports()[name]
        report = run()
        assert not report.passed and np.isnan(report.witness[value]).all()
        if name == "open_ball_image":  # the first drawn ball point left of -0.5, on the forward side
            xs = ou.sampling.ball_points(ou.orthant(2), np.zeros(2), 1.0, 64, ou.sampling.rng_from(0))
            assert (report.witness["side"], report.witness["x"]) == ("forward", xs[xs[:, 0] < -0.5][0].tolist())
        else:
            assert report.witness["x"] == NAN_AT
        if name == "graph_shift_closure":  # the five shifts of the first sample, then the first of the second
            assert (report.witness["lam"], report.samples) == (-2.0, 6)

    @pytest.mark.parametrize("law", ["order", "shift"])
    def test_sqrt_gap_and_its_stack_fail_alike(self, law):
        orth2 = ou.orthant(2)
        f = ou.sqrt_gap_functional(orth2)
        T = ou.stack_operator(orth2, [f])
        if law == "order":
            pair = [([0.0, 0.0], [np.inf, np.inf])]  # f(inf, inf) is NaN
            reports = ou.check_order_preserving(f, pair), ou.check_order_preserving_op(T, pair)
        else:
            shift = [([np.inf, 0.0], 1.0)]  # f(x + unit) - f(x) is inf - inf
            reports = ou.check_weak_additivity(f, shift), ou.check_weakly_additive_op(T, shift)
        assert [r.passed for r in reports] == [False, False]
        assert reports[0].witness["x"] == reports[1].witness["x"]

    def test_weak_additivity_fails_at_its_first_nan_sample(self):
        # the unit's second pairing is the largest float, so lam * unit overflows on some samples
        space = ou.space_from_json({"dim": 2, "cone": {"halfspaces": [[1, 0], [0, 1]]}, "unit": [1, 1.7976931348623157e308]})
        f = ou.linear_functional(space, [1, 1])
        samples = ou.sampling.shift_samples(space, 16, ou.sampling.rng_from(0))
        with np.errstate(over="ignore", invalid="ignore"):
            defects = [f(x + lam * space.unit) - f(x) - lam * f.unit_value for x, lam in samples]
        x, lam = samples[int(np.flatnonzero(np.isnan(defects))[0])]
        report = ou.check_weak_additivity(f, seed=0, n=16)
        assert not report.passed and report.samples == 16
        assert (report.witness["x"], report.witness["lam"]) == (x.tolist(), lam) and np.isnan(report.witness["defect"])

    def test_a_nan_lipschitz_defect_is_the_result(self):
        pair = [([1e308, -1e308], [-1e308, 1e308])]  # |f(z) - f(y)| is inf, and so is f(unit) times the distance
        assert np.isnan(ou.lipschitz_defect(ou.sqrt_gap_functional(ou.orthant(2)), pairs=pair))

    def test_sample_steps_do_not_warn_on_overflow(self):
        clamp = ou.clamp_operator(ou.orthant(2))
        pair = [([1e308, -1e308], [-1e308, 1e308])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ou.certify_equicontinuity(ou.OperatorFamily((clamp,)), 0.5, pairs=pair)
            ou.lipschitz_defect(ou.sqrt_gap_functional(ou.orthant(2)), pairs=pair)
            ou.graph_check(ou.clamp_operator(ou.orthant(2, unit=[1e308, 1e308])), samples=[[1.0, 0.0]])


if __name__ == "__main__":
    print(render(), end="")
