"""Golden reports: the checks that fail away from the gallery, byte for byte.

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


if __name__ == "__main__":
    print(render(), end="")
