"""Golden ``extend`` runs: stdout, stderr and exit code, byte for byte.

``tests/data/extend_parent.json`` holds one entry per case below, recorded
before the CLI and the library shared one extension step.  Regenerate it
(only when a change to the output is intended) with

    PYTHONPATH=src python tests/test_extend_parent.py > tests/data/extend_parent.json
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "extend_parent.json"

ORTH2 = {"dim": 2, "cone": "orthant", "unit": [1, 1]}
HS2 = {"dim": 2, "cone": {"halfspaces": [[1.0, 0.0], [1.0, 1.0]]}, "unit": [1.0, 1.0]}
HS4 = {
    "dim": 4,
    "cone": {
        "halfspaces": [
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    },
    "unit": [1.0, 1.0, 1.0, 1.0],
}
ONE_LINE = {"base_points": [[1.0, 0.0]], "values": [0.5], "unit_value": 1.0}
AXIS = {"base_points": [], "values": [], "unit_value": 1.0}

# name -> (space, partial functional, extend arguments besides --space/--partial/--format)
CASES = {
    "midpoint_with_spanned_target": (ORTH2, ONE_LINE, ["--target=0,1", "--target=3,2", "--target=2,-1"]),
    "lower_hs2": (HS2, AXIS, ["--target=1,0", "--target=0,1", "--rule", "lower"]),
    "upper_hs2": (HS2, AXIS, ["--target=1,0", "--target=0,1", "--rule", "upper"]),
    "midpoint_hs4": (
        HS4,
        {"base_points": [[1.0, 0.0, 0.0, 0.0]], "values": [0.25], "unit_value": 0.5},
        ["--target=0,1,0,0", "--target=0.5,-0.25,2,1", "--target=-1,0,0,3"],
    ),
    "given_inside": (ORTH2, ONE_LINE, ["--target=0,1", "--rule", "given", "--value", "0.5"]),
    "only_spanned_targets": (ORTH2, ONE_LINE, ["--target=2,1", "--target=4,4"]),
    "given_outside_interval": (ORTH2, ONE_LINE, ["--target=0,1", "--target=-3,0", "--rule", "given", "--value", "0.5"]),
    "given_without_value": (ORTH2, AXIS, ["--target=1,0", "--rule", "given"]),
    "wrong_length_target": (ORTH2, ONE_LINE, ["--target=0,1", "--target=1,2,3"]),
    "inconsistent_partial": (ORTH2, {"base_points": [[1.0, 0.0]], "values": [2.0], "unit_value": 1.0}, ["--target=0,1"]),
    # the stored value is an endpoint at a slope of 3.3e8, so rounding crosses the interval at the
    # target by one unit in the last place (1.5e-8); the slack of the two lines that set the
    # endpoints is 0.46 there, and the step succeeds
    "empty_interval": (
        ORTH2,
        {
            "base_points": [[-0.204107103013073, 0.8165518797304734]],
            "values": [-66800248.92760163],
            "unit_value": 327280373.5954407,
        },
        ["--target=-0.38179346263815317,0.18781019686152156"],
    ),
}


def run_case(name: str) -> dict:
    space, partial, args = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        space_path, partial_path = Path(tmp) / "space.json", Path(tmp) / "partial.json"
        space_path.write_text(json.dumps(space))
        partial_path.write_text(json.dumps(partial))
        proc = subprocess.run(
            [sys.executable, "-m", "orderunit", "extend", "--space", str(space_path),
             "--partial", str(partial_path), *args, "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


@pytest.mark.parametrize("name", list(CASES))
def test_extend_matches_golden_bytes(name):
    assert run_case(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: run_case(name) for name in CASES}, sort_keys=True, indent=1))
