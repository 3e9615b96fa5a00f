"""Golden ``extend`` runs: stdout, stderr and exit code, byte for byte.

``tests/data/extend_parent.json`` holds one entry per case below.  Each
result, fed back as ``--partial`` with the same targets, skips them all and
prints the same result.  Regenerate the file (only when a change to the
output is intended) with

    PYTHONPATH=src python tests/test_extend_parent.py > tests/data/extend_parent.json
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from orderunit import cli

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
    # the line of (-0.97, 0.87) carries 9.6e7 times its first coordinate, and at the target
    # it sets p_plus where the axis line sets p_minus, one unit in the last place (1.5e-8)
    # above it; the slack of the two lines is 0.26, and the step succeeds
    "empty_interval": (
        ORTH2,
        {
            "base_points": [[-0.9709274392723735, 0.8664478004508673]],
            "values": [-92812962.09666918],
            "unit_value": 95592068.30762194,
        },
        ["--target=-0.82834841782634,0.68985360294722"],
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


def test_each_result_fed_back_is_the_same_partial_functional(tmp_path, capsys):
    """A line is stored by a point as given, so a printed result reads back as
    the same partial functional: its own targets all lie in its span, and the
    result it prints has the same bytes."""
    fed = 0
    for name, golden in json.loads(GOLDEN.read_text()).items():
        if golden["returncode"] != 0:
            continue
        space, _, args = CASES[name]
        result = json.loads(golden["stdout"])["result"]
        (tmp_path / "space.json").write_text(json.dumps(space))
        (tmp_path / "partial.json").write_text(json.dumps(result))
        targets = [arg for arg in args if arg.startswith("--target=")]
        argv = ["extend", "--space", str(tmp_path / "space.json"), "--partial", str(tmp_path / "partial.json")]
        assert cli.main([*argv, *targets, "--format", "json"]) == 0, name
        out = json.loads(capsys.readouterr().out)
        assert all("skipped" in entry for entry in out["targets"]), name
        assert json.dumps(out["result"], sort_keys=True) == json.dumps(result, sort_keys=True), name
        fed += 1
    assert fed == 7


if __name__ == "__main__":
    print(json.dumps({name: run_case(name) for name in CASES}, sort_keys=True, indent=1))
