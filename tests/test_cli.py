"""The command-line interface: exit codes, formats and the gallery bytes.

``GALLERY_SEED7`` (``tests/data/gallery_seed7.json``) holds the bytes of
``gallery --seed 7 --format json``.  Regenerate it (only when a change to the
gallery output is intended) with

    PYTHONPATH=src python -m orderunit gallery --seed 7 --format json > tests/data/gallery_seed7.json
"""

import ast
import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderunit as ou
from orderunit import cli, dual, extension
from oracles import extend_all_by_one_sided_fold
from strategies import fold_queries, interior_unit_spaces, point_arrays

PYTHON = sys.executable
GALLERY_SEED7 = Path(__file__).parent / "data" / "gallery_seed7.json"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, timeout=None):
    return subprocess.run(
        [PYTHON, "-m", "orderunit", *args], capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("descriptors")

    def write(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    space2 = write("space2.json", {"dim": 2, "cone": "orthant", "unit": [1, 1]})
    flat = write("flat.json", {"dim": 2, "cone": {"halfspaces": [[1.0, 0.0]]}, "unit": [1.0, 0.0]})
    # json.dumps writes the Infinity and NaN tokens that json.load accepts
    inf_unit = write("inf_unit.json", {"dim": 2, "cone": "orthant", "unit": [1.0, float("inf")]})
    nan_row = write("nan_row.json", {"dim": 2, "cone": {"halfspaces": [[1.0, 0.0], [float("nan"), 1.0]]}, "unit": [1, 1]})
    boundary = write("boundary.json", {"dim": 2, "cone": "orthant", "unit": [1, 0]})
    half = write("half.json", {"dim": 2, "cone": "orthant", "unit": [0.5, 0.5]})
    overflow_unit = write("overflow_unit.json", {"dim": 2, "cone": {"halfspaces": [[1, 1], [1, 0.9]]}, "unit": [1e308, 1e308]})
    linear = write("linear.json", {"kind": "linear", "weights": [1.0, 1.0]})
    gap = write("gap.json", {"kind": "sqrt_gap"})
    choq = write(
        "choq.json",
        {"kind": "choquet", "capacity": {"n": 2, "values": {"1": 0.3, "2": 0.6, "3": 1.0}}},
    )
    clamp = write("clamp.json", {"kind": "clamp"})
    partial = write("partial.json", {"base_points": [], "values": [], "unit_value": 1.0})
    bad_partial = write(
        "bad_partial.json", {"base_points": [[1.0, 0.0]], "values": [2.0], "unit_value": 1.0}
    )
    osc = write(
        "osc.json",
        {
            "n": 2,
            "sequence": [
                {"values": {"1": 0.5 + (0.1 if k % 2 == 0 else -0.1), "2": 0.6, "3": 1.0}}
                for k in range(60)
            ],
        },
    )
    broken = root / "broken.json"
    broken.write_text('{"dim": 2,')
    return {
        "space2": space2,
        "flat": flat,
        "inf_unit": inf_unit,
        "nan_row": nan_row,
        "boundary": boundary,
        "half": half,
        "overflow_unit": overflow_unit,
        "linear": linear,
        "gap": gap,
        "choq": choq,
        "clamp": clamp,
        "partial": partial,
        "bad_partial": bad_partial,
        "osc": osc,
        "broken": str(broken),
    }


class TestCheck:
    def test_sqrt_gap_violation_exit_and_witness(self, files):
        proc = run_cli(
            "check", "--space", files["space2"], "--functional", files["gap"],
            "--samples", "2048", "--format", "json",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        failing = [c for c in payload["checks"] if not c["passed"]]
        assert len(failing) == 1
        assert failing[0]["name"] == "order_preserving"
        assert failing[0]["witness"]["x"] == [0.25, 0.5]
        assert failing[0]["witness"]["y"] == [0.5, 0.5]

    def test_choquet_passes(self, files):
        proc = run_cli(
            "check", "--space", files["space2"], "--functional", files["choq"],
            "--samples", "2048", "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert all(c["passed"] for c in payload["checks"])

    def test_operator_subject(self, files):
        proc = run_cli(
            "check", "--space", files["space2"], "--operator", files["clamp"],
            "--samples", "1024", "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["subject"]["unit_image_interior"] is True

    @pytest.mark.parametrize("tol, shown", [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0")])
    def test_tol_must_be_nonnegative_and_finite(self, files, capsys, tol, shown):
        # at inf every law passed, sqrt_gap's order law too; below 0 or at NaN every check failed
        argv = ["check", "--space", files["space2"], "--functional", files["gap"], f"--tol={tol}", "--format", "json"]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: tol must be a nonnegative finite number, got {shown}\n")

    def test_malformed_json_is_input_error(self, files):
        proc = run_cli("check", "--space", files["broken"], "--functional", files["gap"])
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize(
        "space, message", [("inf_unit", "the order unit must be finite"), ("nan_row", "cone rows must be finite")]
    )
    def test_non_finite_space_is_input_error(self, files, space, message):
        # the timeout turns a sampler that never accepts a point into a failure
        proc = run_cli("check", "--space", files[space], "--functional", files["choq"], "--format", "json", timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_descriptor_matrix_loads_without_the_cone_check(self, files, tmp_path):
        # a cone-violating matrix is a failed law (exit 1), not a rejected descriptor (exit 2)
        flip = tmp_path / "flip.json"
        flip.write_text(json.dumps({"kind": "linear_positive", "matrix": [[1, 0], [0, -1]]}))
        proc = run_cli(
            "check", "--space", files["space2"], "--operator", str(flip), "--samples", "256", "--format", "json"
        )
        assert proc.returncode == 1
        entry = next(c for c in json.loads(proc.stdout)["checks"] if c["name"] == "order_preserving")
        assert entry["witness"] == {"x": [0.0, 0.0], "y": [1.0, 1.0], "T_x": [0.0, 0.0], "T_y": [1.0, -1.0]}

    def test_valid_space_entry(self, files):
        proc = run_cli(
            "check", "--space", files["space2"], "--functional", files["choq"], "--samples", "256", "--format", "json"
        )
        entry = json.loads(proc.stdout)["checks"][0]
        assert entry == {"name": "space_valid", "passed": True, "samples": 256, "witness": None}

    def test_space_valid_carries_the_line_direction(self, files):
        proc = run_cli(
            "check", "--space", files["flat"], "--functional", files["choq"], "--samples", "256", "--format", "json"
        )
        assert proc.returncode == 1
        entry = json.loads(proc.stdout)["checks"][0]
        assert entry["name"] == "space_valid" and not entry["passed"] and entry["samples"] == 256
        assert list(entry["witness"]) == ["pointed"]
        v = np.array(entry["witness"]["pointed"]["line_direction"])
        flat = ou.space_from_json(json.loads(Path(files["flat"]).read_text()))
        assert ou.cone_contains(flat, v, tol=ou.TOL) and ou.cone_contains(flat, -v, tol=ou.TOL)

    def test_boundary_unit_reports_only_the_space(self, files):
        proc = run_cli(
            "check", "--space", files["boundary"], "--functional", files["choq"], "--format", "json", timeout=60
        )
        # the law checkers are skipped: every order ball is unbounded along the second axis
        assert proc.returncode == 1
        (entry,) = json.loads(proc.stdout)["checks"]
        assert entry["witness"]["unit_interior"] == {"min_row_pairing": 0.0, "row": 1}
        assert entry["witness"]["norm_bounds"]["norm"] is None

    def test_infinite_unit_scaled_row_reports_only_the_space(self, tmp_path):
        """The stored first row ``(1, 0)`` pairs to ``1e-310`` with the unit, so the
        unit is not interior and the unit-scaled first row is infinite, as are
        the norms: the samplers would refuse, and the checkers are skipped."""
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dim": 2, "cone": {"halfspaces": [[1e308, 0.0], [0.0, 1.0]]}, "unit": [1e-310, 1.0]}))
        functional = tmp_path / "f.json"
        functional.write_text(json.dumps({"kind": "linear", "weights": [1.0, 1.0]}))
        proc = run_cli("check", "--space", str(space), "--functional", str(functional), "--format", "json")
        assert proc.returncode == 1, proc.stderr
        checks = json.loads(proc.stdout)["checks"]
        assert [c["name"] for c in checks] == ["space_valid"]
        assert sorted(checks[0]["witness"]) == ["norm_bounds", "unit_interior"]
        assert checks[0]["witness"]["unit_interior"] == {"min_row_pairing": 1e-310, "row": 0}

    def test_overflowing_unit_reports_only_the_space(self, files):
        """Both pairings of the unit overflow: every unit-scaled row would be zero
        and every order norm 0, so the ball draws would never be accepted.  The
        Choquet functional is finite at the unit; the linear one with weights
        (1, 1) is not, so its descriptor is refused first."""
        proc = run_cli(
            "check", "--space", files["overflow_unit"], "--functional", files["choq"], "--format", "json", timeout=60
        )
        assert proc.returncode == 1, proc.stderr
        (entry,) = json.loads(proc.stdout)["checks"]
        assert entry["witness"] == {"unit_interior": {"min_row_pairing": None, "row": 0}}
        proc = run_cli("check", "--space", files["overflow_unit"], "--functional", files["linear"], "--format", "json")
        assert proc.returncode == 2
        assert proc.stderr == "error: bad functional descriptor: its value at the unit, inf, is not finite\n"

    def test_check_does_not_import_scipy(self, files):
        code = (
            "import sys; from orderunit import cli; "
            f"rc = cli.main(['check', '--space', {files['space2']!r}, '--functional', {files['choq']!r}, "
            "'--samples', '256', '--format', 'json']); "
            "print('scipy' in sys.modules); sys.exit(rc)"
        )
        proc = subprocess.run([PYTHON, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "False"


class TestLayerImports:
    """Each command loads only the layers it calls, after it has read its input."""

    @pytest.mark.parametrize(
        "argv, code, layers",
        [
            (["norm", "--space", "space2", "--point", "1,2"], 0, ["spaces"]),
            (["check", "--space", "space2", "--functional", "choq", "--samples", "64"], 0, ["functionals", "sampling", "spaces"]),
            (
                ["check", "--space", "space2", "--operator", "clamp", "--samples", "64"],
                0,
                ["functionals", "operators", "sampling", "spaces"],
            ),
            (
                ["extend", "--space", "space2", "--partial", "partial", "--target", "1,0"],
                0,
                ["extension", "functionals", "sampling", "spaces"],
            ),
            (["compact", "--capacities", "osc"], 0, ["dual", "functionals", "sampling", "spaces"]),
            (["check", "--space", "broken", "--functional", "linear"], 2, []),
            (["norm", "--space", "broken", "--point", "1,2"], 2, []),
        ],
        ids=["norm", "check_functional", "check_operator", "extend", "compact", "check_malformed", "norm_malformed"],
    )
    def test_loaded_modules(self, files, argv, code, layers):
        argv = [files.get(a, a) for a in argv] + ["--format", "json"]
        script = (
            "import sys; from orderunit import cli; "
            f"rc = cli.main({argv!r}); "
            "print(sorted(m for m in sys.modules if m.startswith('orderunit.')), 'numpy' in sys.modules); sys.exit(rc)"
        )
        proc = subprocess.run([PYTHON, "-c", script], capture_output=True, text=True)
        assert proc.returncode == code
        expected = sorted(f"orderunit.{m}" for m in ["cli", *layers])
        assert proc.stdout.splitlines()[-1] == f"{expected} {bool(layers)}"


class TestNonFiniteDescriptors:
    # json.dumps writes the NaN and Infinity tokens that json.load accepts
    @pytest.mark.parametrize(
        "flag, obj, field",
        [
            ("--functional", {"kind": "linear", "weights": [float("nan"), 1.0]}, "linear weights"),
            ("--functional", {"kind": "maxplus", "weights": [0.0, float("inf")]}, "maxplus weights"),
            (
                "--functional",
                {"kind": "choquet", "capacity": {"n": 2, "values": {"1": float("nan"), "3": 1.0}}},
                "capacity values",
            ),
            ("--operator", {"kind": "linear_positive", "matrix": [[1.0, 0.0], [0.0, float("inf")]]}, "linear_positive matrix"),
        ],
        ids=["linear_weights", "maxplus_weights", "capacity_values", "matrix"],
    )
    def test_check_rejects_the_field(self, files, tmp_path, flag, obj, field):
        path = tmp_path / "descriptor.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("check", "--space", files["space2"], flag, str(path), "--format", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {field} must be finite\n"

    @pytest.mark.parametrize(
        "flag, obj, refused",
        [
            ("--functional", {"kind": "linear", "weights": [2, 1]}, "functional descriptor: its value at the unit, inf"),
            (
                "--operator",
                {"kind": "linear_positive", "matrix": [[2, 0], [0, 1]]},
                "operator descriptor: its value at the unit, [inf, 1.0]",
            ),
            (
                "--operator",
                {"kind": "stack", "functionals": [{"kind": "linear", "weights": [2, 1]}]},
                "functional descriptor: its value at the unit, inf",
            ),
        ],
        ids=["functional", "operator", "stacked_functional"],
    )
    def test_check_rejects_a_value_at_the_unit_that_overflows(self, tmp_path, flag, obj, refused):
        # 2e308 + 1 at the unit (1e308, 1): one error line, no overflow warning
        space, path = tmp_path / "space.json", tmp_path / "descriptor.json"
        space.write_text(json.dumps({"dim": 2, "cone": "orthant", "unit": [1e308, 1]}))
        path.write_text(json.dumps(obj))
        proc = run_cli("check", "--space", str(space), flag, str(path), "--samples", "64", "--format", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: bad {refused}, is not finite\n"

    @pytest.mark.parametrize(
        "partial, field",
        [
            ({"base_points": [[float("nan"), 0.0]], "values": [0.5], "unit_value": 1.0}, "base_points"),
            ({"base_points": [[1.0, 0.0]], "values": [float("inf")], "unit_value": 1.0}, "values"),
            ({"base_points": [], "values": [], "unit_value": float("nan")}, "unit_value"),
        ],
        ids=["base_points", "values", "unit_value"],
    )
    def test_extend_rejects_the_field(self, files, tmp_path, partial, field):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(partial))
        proc = run_cli("extend", "--space", files["space2"], "--partial", str(path), "--target", "0,1", "--format", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {field} must be finite\n"


class TestDescriptorShapes:
    """A descriptor of the wrong JSON shape exits 2 with one error line, not a traceback."""

    @pytest.mark.parametrize("partial", [[], "x"], ids=["list", "string"])
    def test_extend_partial_that_is_not_an_object(self, files, tmp_path, capsys, partial):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(partial))
        code = cli.main(["extend", "--space", files["space2"], "--partial", str(path), "--target", "0,1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: bad partial-functional descriptor: expected an object, got {type(partial).__name__}\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            (5, "capacity values must be an object of masks, got int"),
            ({"values": {"-1": 1.0}}, "capacity mask -1 outside [0, 4)"),
            ({"values": {"4": 1.0}}, "capacity mask 4 outside [0, 4)"),
        ],
        ids=["number", "negative_mask", "mask_past_the_full_set"],
    )
    def test_compact_entry_refused(self, tmp_path, capsys, entry, message):
        path = tmp_path / "sequence.json"
        path.write_text(json.dumps({"n": 2, "sequence": [entry] * 10}))
        code = cli.main(["compact", "--capacities", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("rows", [[], [[]], [[], []]], ids=["no_row", "empty_row", "empty_rows"])
    def test_cone_without_entries_refused(self, tmp_path, capsys, rows):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"dim": 2, "cone": {"halfspaces": rows}, "unit": [1, 1]}))
        code = cli.main(["norm", "--space", str(path), "--point", "1,1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: cone requires a nonempty 2-d array of half-space rows\n"


class TestMatrixDescriptor:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            (5, "must be a list, got int"),  # the field reader refuses a number where rows belong
            ([], "must be a nonempty 2-d array, got shape (0,)"),
            ([[]], "must be a nonempty 2-d array, got shape (1, 0)"),
        ],
        ids=["scalar", "empty", "empty_row"],
    )
    def test_shape_checked_before_use(self, files, tmp_path, matrix, message):
        path = tmp_path / "operator.json"
        path.write_text(json.dumps({"kind": "linear_positive", "matrix": matrix}))
        proc = run_cli("check", "--space", files["space2"], "--operator", str(path), "--format", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: linear_positive matrix {message}\n"


class TestNorm:
    def test_values(self, files):
        proc = run_cli(
            "norm", "--space", files["space2"], "--point", "3,-4", "--point", "0,0",
            "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["points"][0]["norm"] == 4.0
        assert payload["points"][1]["norm"] == 0.0

    def test_bad_point_is_input_error(self, files):
        proc = run_cli("norm", "--space", files["space2"], "--point", "a,b")
        assert proc.returncode == 2

    @pytest.mark.parametrize("point", ["nan,1", "1,inf", "0,-inf"])
    def test_non_finite_point_is_input_error(self, files, point):
        proc = run_cli("norm", "--space", files["space2"], "--point", point, "--format", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "coordinates must be finite" in proc.stderr and "Traceback" not in proc.stderr

    def test_overflowing_unit_fails_instead_of_a_zero_norm(self, files):
        proc = run_cli("norm", "--space", files["overflow_unit"], "--point", "1,-1", "--format", "json")
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {
            "checks": [
                {"name": "unit_interior", "passed": False, "detail": {"min_row_pairing": None, "row": 0}}
            ],
            "command": "norm",
            "exit_status": 1,
        }

    def test_boundary_unit_fails_without_scipy(self, files):
        code = (
            "import sys; from orderunit import cli; "
            f"rc = cli.main(['norm', '--space', {files['boundary']!r}, '--point', '1,2', '--format', 'json']); "
            "print('scipy' in sys.modules); sys.exit(rc)"
        )
        proc = subprocess.run([PYTHON, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1
        payload, scipy_loaded = proc.stdout.splitlines()
        assert json.loads(payload) == {
            "checks": [
                {"name": "unit_interior", "passed": False, "detail": {"min_row_pairing": 0.0, "row": 1}}
            ],
            "command": "norm",
            "exit_status": 1,
        }
        assert scipy_loaded == "False"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_overflowing_norm_is_an_error_not_infinity(self, files, fmt):
        proc = run_cli("norm", "--space", files["half"], "--point", "1e308,1e308", "--format", fmt)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith("error: ") and "Traceback" not in proc.stderr


class TestOverflow:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["norm", "extend"])
    def test_only_the_error_line_on_stderr(self, files, command, fmt):
        # unit (0.5, 0.5): the order norm and the ray thresholds of 1e308 overflow
        if command == "norm":
            args = ["--point", "1e308,1e308"]
        else:
            args = ["--partial", files["partial"], "--target", "1e308,1e308"]
        proc = run_cli(command, "--space", files["half"], *args, "--format", fmt)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "space, flag, obj",
        [
            ({"dim": 2, "cone": "orthant", "unit": [1, 1]}, "--functional",
             {"kind": "choquet", "capacity": {"n": 2, "values": {"1": 5.4553663690341545e307, "2": 0.6, "3": 1.0}}}),
            ({"dim": 2, "cone": "orthant", "unit": [1, 1]}, "--operator", {"kind": "linear_positive", "matrix": [[-1.7976931348623157e308, 0], [0, 1]]}),
            ({"dim": 2, "cone": {"halfspaces": [[1, 0], [0, 1]]}, "unit": [1, 1.7976931348623157e308]}, "--functional", {"kind": "linear", "weights": [1, 1]}),
            ({"dim": 2, "cone": "orthant", "unit": [1, 1]}, "--functional", {"kind": "maxplus", "weights": [0, 5]}),
        ],
        ids=["capacity_value", "matrix_entry", "unit", "unnormed_maxplus"],
    )
    def test_check_reports_without_a_warning(self, tmp_path, capsys, space, flag, obj):
        """Finite descriptors whose samples overflow, and maxplus weights not normed at the unit, fail
        ``check`` (exit 1) through the report or the one error line, with no warning."""
        (tmp_path / "space.json").write_text(json.dumps(space))
        (tmp_path / "descriptor.json").write_text(json.dumps(obj))
        argv = ["check", "--space", str(tmp_path / "space.json"), flag, str(tmp_path / "descriptor.json"), "--samples", "64"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([*argv, "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1
        if out:
            assert err == "" and json.loads(out, parse_constant=_no_constant)["exit_status"] == 1
        else:
            assert err.startswith("error: result is not finite") and err.count("\n") == 1


class TestNonFiniteLines:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "space, partial, target",
        [
            # the base line's unit-scaled pairings overflow: over their pairing 1
            # with the unit (0.5, 0.5), the rows scale to (2, 0) and (0, 2)
            (
                {"dim": 2, "cone": {"halfspaces": [[2.0, 0.0], [0.0, 2.0]]}, "unit": [0.5, 0.5]},
                {"base_points": [[1e308, -1e308]], "values": [0.0], "unit_value": 1.0},
                "1,0",
            ),
            # the interval at the target is [-inf, inf], so its midpoint is NaN
            (
                {"dim": 2, "cone": "orthant", "unit": [0.5, 0.5]},
                {"base_points": [], "values": [], "unit_value": 1.0},
                "1e308,-1e308",
            ),
        ],
        ids=["base_line_pairing", "target_value"],
    )
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, space, partial, target, fmt):
        for name, obj in (("space", space), ("partial", partial)):
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        argv = ["extend", "--space", str(tmp_path / "space.json"), "--partial", str(tmp_path / "partial.json")]
        assert cli.main([*argv, "--target", target, "--format", fmt]) == cli.EXIT_VIOLATION
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "not finite" in err


class TestExtend:
    def test_midpoint_interval(self, files):
        proc = run_cli(
            "extend", "--space", files["space2"], "--partial", files["partial"],
            "--target", "1,0", "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        entry = payload["targets"][0]
        assert entry["p_minus"] == 0.0
        assert entry["p_plus"] == 1.0
        assert entry["value"] == 0.5

    def test_midpoint_of_endpoints_whose_sum_overflows(self, files, tmp_path, capsys):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"base_points": [[1.0, 0.0]], "values": [1.5e308], "unit_value": 1.6e308}))
        argv = ["extend", "--space", files["space2"], "--partial", str(partial), "--target", "1,0.5", "--format", "json"]
        assert cli.main(argv) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        (entry,) = json.loads(out)["targets"]
        assert (entry["p_minus"], entry["p_plus"], entry["value"]) == (1.5e308, 1.6e308, 1.55e308)

    def test_given_outside_interval_fails(self, files):
        proc = run_cli(
            "extend", "--space", files["space2"], "--partial", files["partial"],
            "--target", "1,0", "--rule", "given", "--value", "5.0", "--format", "json",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert "error" in payload["targets"][0]

    def test_inconsistent_partial_reported(self, files):
        proc = run_cli(
            "extend", "--space", files["space2"], "--partial", files["bad_partial"],
            "--target", "0,1", "--format", "json",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert not payload["checks"][0]["passed"]

    def test_inconsistent_partial_computes_witness_once(self, files, monkeypatch, capsys):
        # the witness comes from the one construction pass over the pairs
        calls = []
        real = extension._canonical_lines

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(extension, "_canonical_lines", spy)
        code = cli.main(
            ["extend", "--space", files["space2"], "--partial", files["bad_partial"], "--target", "0,1", "--format", "json"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["checks"][0]["witness"]["line_i"] == 1
        assert len(calls) == 1

    def test_one_span_test_and_one_interval_per_target(self, files, monkeypatch, capsys):
        # one signed threshold block per target serves its span test and its
        # interval; the one-sided fold runs only where a zero endpoint wins
        counts = {"_signed": 0, "_one_sided": 0, "extension_interval": 0}
        for name in counts:
            real = getattr(extension, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(extension, name, counted)
        targets = ["1,0", "0,1", "2,1", "3,-1"]  # the third lies on the line of the first
        code = cli.main(
            ["extend", "--space", files["space2"], "--partial", files["partial"], "--format", "json"]
            + [arg for t in targets for arg in ("--target", t)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [("skipped" in e) for e in payload["targets"]] == [False, False, True, False]
        zero_ends = [0.0 in (e["p_minus"], e["p_plus"]) for e in payload["targets"] if "skipped" not in e]
        assert zero_ends == [True, True, False]
        assert counts == {"_signed": 4, "_one_sided": 2, "extension_interval": 0}
        assert len(payload["result"]["base_points"]) == 3

    def test_a_target_whose_unit_multiple_is_near_the_float_limit_is_skipped(self, tmp_path):
        # (1e308, 1e308) is 1e308 times the unit, on the axis line; its
        # unit-scaled pairings (1e308, 1e308) are finite
        space, partial = tmp_path / "hs2.json", tmp_path / "axis.json"
        space.write_text(json.dumps({"dim": 2, "cone": {"halfspaces": [[1, 0], [1, 1]]}, "unit": [1, 1]}))
        partial.write_text(json.dumps({"base_points": [], "values": [], "unit_value": 1.0}))
        proc = run_cli(
            "extend", "--space", str(space), "--partial", str(partial), "--target=1e308,1e308", "--format", "json"
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["targets"] == [{"skipped": "already in span", "target": [1e308, 1e308]}]

    def test_boundary_unit_fails(self, files):
        proc = run_cli(
            "extend", "--space", files["boundary"], "--partial", files["partial"],
            "--target", "0,1", "--format", "json",
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["checks"][0]["name"] == "unit_interior"

    def test_nan_given_value_rejected(self, files):
        proc = run_cli(
            "extend", "--space", files["space2"], "--partial", files["partial"],
            "--target", "1,0", "--rule", "given", "--value", "nan", "--format", "json",
        )
        assert proc.returncode == 1
        assert "outside the admissible interval" in json.loads(proc.stdout)["targets"][0]["error"]


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@st.composite
def extend_runs(draw):
    """``extend`` arguments on a generated space whose unit is scaled by
    ``10**e``, ``|e| <= 308``, with base points, values, targets and a given
    value at the same magnitude, read off a positive linear functional."""
    space = draw(interior_unit_spaces())
    scale = 10.0 ** draw(st.sampled_from(range(-308, 309)))  # every scale alike
    with np.errstate(all="ignore"):
        unit = space.unit * scale
        w = draw(point_arrays(space.cone.rows.shape[0], 1, bound=1.0))[0] ** 2 @ space.cone.rows
        points = draw(point_arrays(space.dim, draw(st.integers(0, 3)))) * scale
        targets = np.vstack([draw(point_arrays(space.dim, draw(st.integers(1, 3)))) * scale, 2.0 * unit])
        partial = {"base_points": points.tolist(), "values": (points @ w).tolist(), "unit_value": float(w @ unit)}
        rule = draw(st.sampled_from(("lower", "upper", "midpoint", "given")))
        extra = [f"--value={float(targets[0] @ w)!r}"] if rule == "given" else []
    space_obj = {"dim": space.dim, "cone": {"halfspaces": space.cone.rows.tolist()}, "unit": unit.tolist()}
    args = [f"--target={','.join(map(repr, t.tolist()))}" for t in targets]
    return space_obj, partial, [*args, "--rule", rule, *extra]


class TestExtendContract:
    @settings(max_examples=100, deadline=None)
    @given(run=extend_runs())
    def test_exit_code_strict_json_and_a_quiet_stderr(self, run):
        """At every scale of the unit ``extend`` exits 0, 1 or 2, prints strict
        JSON, and sends no warning or traceback to stderr."""
        space, partial, args = run
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: Path(tmp) / f"{name}.json" for name in ("space", "partial")}
            for name, obj in (("space", space), ("partial", partial)):
                paths[name].write_text(json.dumps(obj))
            out, err = io.StringIO(), io.StringIO()
            argv = ["extend", "--space", str(paths["space"]), "--partial", str(paths["partial"]), *args]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([*argv, "--format", "json"])
        assert code in (0, 1, 2)
        assert caught == [] and "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_no_constant)
        assert bool(out.getvalue()) != bool(err.getvalue())


class TestExtendSteps:
    @settings(max_examples=100, deadline=None)
    @given(query=fold_queries(), rule=st.sampled_from(("lower", "upper", "midpoint")))
    def test_each_entry_against_the_one_sided_fold(self, query, rule):
        """Each ``extend`` entry reports the one-sided fold's endpoints over the
        lines before it and the rule's value, bit for bit, or the skip; the
        first target the fold refuses ends the run with its message, and the
        result holds the fold's lines.  Targets run up to endpoints crossed
        within the slack, where the value is no endpoint."""
        pf, ys = query
        targets = [[float(v) for v in y] for y in ys if np.isfinite(y).all()]  # the CLI reads finite coordinates
        space = ou.space_from_json(ou.space_to_json(pf.space))
        partial = ou.partial_to_json(pf)
        steps, X, G = extend_all_by_one_sided_fold(ou.partial_from_json(space, partial), targets, rule)
        if steps and steps[-1] == "crossed":
            steps.pop()
        targets = targets[: len(steps)]
        if not targets:  # extend requires one
            return
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: Path(tmp) / f"{name}.json" for name in ("space", "partial")}
            paths["space"].write_text(json.dumps(ou.space_to_json(space)))
            paths["partial"].write_text(json.dumps(partial))
            argv = ["extend", "--space", str(paths["space"]), "--partial", str(paths["partial"]), "--rule", rule]
            argv += [f"--target={','.join(map(repr, t))}" for t in targets]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--format", "json"])
        if steps and isinstance(steps[-1], str):  # a refused target: its message, exit 1 if not finite, else 2
            assert (code, out.getvalue()) == (1 if steps[-1].startswith("target ") else 2, "")
            assert err.getvalue() == f"error: {steps[-1]}\n"
            return
        if not all(map(math.isfinite, (v for step in steps if step for v in step))):
            assert code == 1 and err.getvalue().startswith("error: result is not finite, so not strict JSON")
            return
        assert (code, err.getvalue()) == (0, "")
        payload = json.loads(out.getvalue())
        want = [
            {"target": t, "skipped": "already in span"} if step is None
            else {"target": t, "p_minus": step[0], "p_plus": step[1], "value": step[2]}
            for t, step in zip(targets, steps)
        ]
        assert _bits(payload["targets"]) == _bits(want)
        assert _bits(payload["result"]) == _bits({"base_points": X[1:].tolist(), "unit_value": pf.unit_value,
                                                   "values": G[1:].tolist()})


def _bits(obj):
    """``obj`` with every float replaced by its bytes, so that ``-0.0`` and ``0.0`` differ."""
    if isinstance(obj, float):
        return np.float64(obj).tobytes()
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


HUGE = 10**400
"""A JSON integer past the largest float."""

WRONG_TYPES = {
    "bool": True,
    "float": 2.0,
    "string": "2",
    "null": None,
    "list": [2],
    "object": {"v": 2},
    "past_the_largest_float": HUGE,
}
"""One value of each JSON type, put where a value of another type belongs."""

CAPACITY = {"n": 2, "values": {"1": 0.3, "2": 0.6, "3": 1.0}}
LINEAR = {"kind": "linear", "weights": [0.5, 0.5]}
WELL_TYPED = {  # name -> (family, descriptor); a capacity runs in the CLI inside a choquet functional
    "space": ("space", {"dim": 2, "cone": "orthant", "unit": [1, 1]}),
    "halfspace_space": ("space", {"dim": 2, "cone": {"halfspaces": [[1, 0], [0, 1]]}, "unit": [1, 1]}),
    "linear": ("functional", LINEAR),
    "maxplus": ("functional", {"kind": "maxplus", "weights": [0, 0]}),
    "choquet": ("functional", {"kind": "choquet", "capacity": CAPACITY}),
    "sqrt_gap": ("functional", {"kind": "sqrt_gap"}),
    "capacity": ("capacity", CAPACITY),
    "linear_positive": ("operator", {"kind": "linear_positive", "matrix": [[1, 0], [0, 1]]}),
    "clamp": ("operator", {"kind": "clamp"}),
    "stack": ("operator", {"kind": "stack", "functionals": [LINEAR]}),
    "partial": ("partial", {"base_points": [[1, 0]], "values": [0.5], "unit_value": 1.0}),
    "sequence": ("sequence", {"n": 2, "sequence": [{"values": CAPACITY["values"]}] * 10}),
}
READERS = {
    "space": ou.space_from_json,
    "functional": lambda obj: ou.functional_from_json(ou.orthant(2), obj),
    "capacity": ou.capacity_from_json,
    "operator": lambda obj: ou.operator_from_json(ou.orthant(2), obj),
    "partial": lambda obj: ou.partial_from_json(ou.orthant(2), obj),
}


def _argv(family, space, path):
    """The command that reads a descriptor of ``family`` from ``path``."""
    return {
        "space": ["norm", "--space", path, "--point", "1,1"],
        "functional": ["check", "--space", space, "--functional", path, "--samples", "16"],
        "operator": ["check", "--space", space, "--operator", path, "--samples", "16"],
        "partial": ["extend", "--space", space, "--partial", path, "--target", "0,1"],
        "sequence": ["compact", "--capacities", path],
    }[family] + ["--format", "json"]


def _put(obj, path, value):
    """A copy of ``obj`` with ``value`` at ``path`` (keys and list indices)."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    parent[last] = value
    return obj


def _t(v):
    return type(v).__name__


# each rule maps a value put in the field to the refusal, or to None where it has the field's type
def _whole(noun, first):  # a descriptor, or a field that holds one
    return lambda v: f"bad {noun} descriptor: " + (f"missing field '{first}'" if isinstance(v, dict) else f"expected an object, got {_t(v)}")


def _integer(name, past):  # a JSON integer; ``past`` is the range error of HUGE
    return lambda v: past if v == HUGE else f"{name} must be an integer, got {_t(v)}"


def _numbers(name, depth):  # finite JSON numbers in ``depth`` levels of lists
    def rule(v):
        if depth == 0:
            return None if isinstance(v, float) else f"{name} must be finite" if v == HUGE else f"{name} must be a number, got {_t(v)}"
        if isinstance(v, list):  # [2] is a number where a row belongs, or a vector of the wrong length
            return f"{name} must be a list, got int" if depth == 2 else None
        return f"{name} must be a list, got {_t(v)}"

    return rule


def _list(name, entry):  # a JSON list; ``entry`` is the refusal of its entry 2
    return lambda v: entry if isinstance(v, list) else f"{name} must be a list, got {_t(v)}"


def _masks(v):  # an object of capacity masks
    return "capacity mask 'v' must be a decimal integer" if isinstance(v, dict) else f"capacity values must be an object of masks, got {_t(v)}"


GROUND_SIZE = _integer("capacity ground size n", f"capacity ground size must lie in [0, 16], got {HUGE}")
FIELDS = [
    ("space", (), _whole("space", "dim")),
    ("space", ("dim",), _integer("dim", f"dimension mismatch: expected a vector of length {HUGE}, got shape (2,)")),
    ("space", ("cone",), _whole("cone", "halfspaces")),
    ("space", ("unit",), _numbers("the order unit", 1)),
    ("halfspace_space", ("cone", "halfspaces"), _numbers("cone rows", 2)),
    *((kind, (), _whole("functional", "kind")) for kind in ("linear", "maxplus", "choquet", "sqrt_gap")),
    *((kind, ("kind",), lambda v: f"unknown functional kind {v!r}") for kind in ("linear", "maxplus", "choquet", "sqrt_gap")),
    ("linear", ("weights",), _numbers("linear weights", 1)),
    ("maxplus", ("weights",), _numbers("maxplus weights", 1)),
    ("choquet", ("capacity",), _whole("capacity", "n")),
    ("capacity", ("n",), GROUND_SIZE),
    ("capacity", ("values",), _masks),
    ("capacity", ("values", "3"), _numbers("capacity values", 0)),
    *((kind, (), _whole("operator", "kind")) for kind in ("linear_positive", "clamp", "stack")),
    *((kind, ("kind",), lambda v: f"unknown operator kind {v!r}") for kind in ("linear_positive", "clamp", "stack")),
    ("linear_positive", ("matrix",), _numbers("linear_positive matrix", 2)),
    ("stack", ("functionals",), _list("stack functionals", "bad functional descriptor: expected an object, got int")),
    ("stack", ("functionals", 0), _whole("functional", "kind")),
    ("partial", (), _whole("partial-functional", "unit_value")),
    ("partial", ("unit_value",), _numbers("unit_value", 0)),
    ("partial", ("base_points",), _numbers("base_points", 2)),
    ("partial", ("values",), _numbers("values", 1)),
    ("sequence", (), _whole("capacity-sequence", "sequence")),
    ("sequence", ("n",), GROUND_SIZE),
    ("sequence", ("sequence",), _list("capacity sequence", "capacity values must be an object of masks, got int")),
    ("sequence", ("sequence", 0), _masks),
]
"""Every field of every descriptor kind, with the rule of its refusals."""

NESTED = [
    ("halfspace_space", ("cone", "halfspaces", 1, 0), True, "cone rows must be a number, got bool"),
    ("halfspace_space", ("cone", "halfspaces", 1), 1, "cone rows must be a list, got int"),
    ("space", ("unit",), [True, 2], "the order unit must be a number, got bool"),
    ("linear", ("weights",), [True, 2], "linear weights must be a number, got bool"),
    ("maxplus", ("weights",), [0, "0"], "maxplus weights must be a number, got str"),
    ("linear_positive", ("matrix", 1, 0), True, "linear_positive matrix must be a number, got bool"),
    ("partial", ("base_points", 0, 0), "1", "base_points must be a number, got str"),
    ("partial", ("values",), [True], "values must be a number, got bool"),
    ("capacity", ("values", "3"), "1.0", "capacity values must be a number, got str"),
    ("stack", ("functionals", 0, "weights", 0), True, "linear weights must be a number, got bool"),
    ("choquet", ("capacity", "values", "3"), [1.0], "capacity values must be a number, got list"),
    ("space", ("unit",), [HUGE, 1], "the order unit must be finite"),
    ("halfspace_space", ("cone", "halfspaces", 0, 0), HUGE, "cone rows must be finite"),
    ("linear", ("weights", 0), HUGE, "linear weights must be finite"),
    ("maxplus", ("weights", 0), -HUGE, "maxplus weights must be finite"),
    ("linear_positive", ("matrix", 0, 0), HUGE, "linear_positive matrix must be finite"),
    ("partial", ("base_points", 0, 0), HUGE, "base_points must be finite"),
    ("partial", ("values", 0), HUGE, "values must be finite"),
    ("halfspace_space", ("cone", "halfspaces"), [[1, 0], [0]], "cone rows: every row must have the length of the first, 2; row 1 has 1"),
    ("halfspace_space", ("cone", "halfspaces"), [[1], [0, 1], [1, 1]], "cone rows: every row must have the length of the first, 1; row 1 has 2"),
    ("linear_positive", ("matrix",), [[1, 0], [0]], "linear_positive matrix: every row must have the length of the first, 2; row 1 has 1"),
    ("linear_positive", ("matrix",), [[1, 0], [0, 1, 0]], "linear_positive matrix: every row must have the length of the first, 2; row 1 has 3"),
    ("partial", ("base_points",), [[1, 0], []], "base_points: every row must have the length of the first, 2; row 1 has 0"),
    ("space", ("dim",), 0, "dim must be a positive integer"),
    ("space", ("dim",), -1285988, "dim must be a positive integer"),
    ("space", ("dim",), -HUGE, "dim must be a positive integer"),
]
"""Wrong entries inside number lists, ragged rows, dimensions below 1, and an integer past the largest float in each."""


def _wrong_type_cases():
    for name, path, rule in FIELDS:
        where = ".".join(map(str, path)) or "descriptor"
        for type_id, value in WRONG_TYPES.items():
            message = rule(value)
            if message is not None:
                yield pytest.param(name, path, value, message, id=f"{name}-{where}-{type_id}")
    for name, path, value, message in NESTED:
        yield pytest.param(name, path, value, message, id=f"{name}-{'.'.join(map(str, path))}-nested-{_t(value)}")


class TestFieldTypes:
    """An integer field is a JSON integer, a number a finite JSON number (never
    a bool or a string) and a mask key a decimal string: any other JSON type
    exits 2 with one error line naming the field, and is not coerced."""

    @pytest.mark.parametrize("name, path, value, message", _wrong_type_cases())
    def test_wrong_type_refused(self, files, tmp_path, capsys, name, path, value, message):
        family, obj = WELL_TYPED[name]
        obj = _put(obj, path, value)
        if family in READERS:
            with pytest.raises(ValueError) as info:
                READERS[family](obj)
            assert str(info.value) == message
        if family == "capacity":
            family, obj = "functional", {"kind": "choquet", "capacity": obj}
        descriptor = tmp_path / "descriptor.json"
        descriptor.write_text(json.dumps(obj))
        assert cli.main(_argv(family, files["space2"], str(descriptor))) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("name", sorted(WELL_TYPED))
    def test_the_well_typed_descriptors_are_read(self, files, tmp_path, capsys, name):
        family, obj = WELL_TYPED[name]
        if family == "capacity":
            family, obj = "functional", {"kind": "choquet", "capacity": obj}
        descriptor = tmp_path / "descriptor.json"
        descriptor.write_text(json.dumps(obj))
        assert cli.main(_argv(family, files["space2"], str(descriptor))) in (0, 1)
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)

    @pytest.mark.parametrize("key", ["1_0", " 3 ", "+3", "\u0663", "1.0", "", "0x3", "3\n", "--3"])
    def test_mask_key_refused(self, files, tmp_path, capsys, key):
        message = f"capacity mask {key!r} must be a decimal integer"
        with pytest.raises(ValueError) as info:
            ou.capacity_from_json({"n": 2, "values": {key: 0.5, "3": 1.0}})
        assert str(info.value) == message
        descriptor = tmp_path / "descriptor.json"
        descriptor.write_text(json.dumps({"n": 2, "sequence": [{"values": {key: 0.5, "3": 1.0}}] * 10}))
        assert cli.main(["compact", "--capacities", str(descriptor), "--format", "json"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("key, mask", [("3", 3), ("03", 3), ("0001", 1)])
    def test_a_decimal_mask_key_is_read(self, key, mask):
        assert ou.capacity_from_json({"n": 2, "values": {key: 1.0}}).values[mask] == 1.0

    def test_an_integer_is_a_number_while_a_float_holds_it(self):
        # 2**1024 - 2**970 is the least integer that float() rounds past the largest float
        assert ou.capacity_from_json({"n": 1, "values": {"1": 2**1024 - 2**970 - 1}}).values[1] == sys.float_info.max
        for v in (2**1024 - 2**970, -(2**1024)):
            with pytest.raises(ValueError, match="^capacity values must be finite$"):
                ou.capacity_from_json({"n": 1, "values": {"1": v}})

    def test_a_negative_mask_key_keeps_its_range_message(self):
        with pytest.raises(ValueError, match=r"^capacity mask -4 outside \[0, 4\)$"):
            ou.capacity_from_json({"n": 2, "values": {"-4": 1.0}})

    @pytest.mark.parametrize("key", ["1" * 5000, "-" + "1" * 5000, "100000"], ids=["5000_digits", "negative", "6_digits"])
    def test_a_mask_key_longer_than_every_mask_is_refused_by_its_length(self, files, tmp_path, capsys, key):
        # decided before int(), which reads at most 4,300 digits; the message does not echo the key
        message = f"capacity mask of {len(key.removeprefix('-'))} digits outside [0, 2**16)"
        with pytest.raises(ValueError) as info:
            ou.capacity_from_json({"n": 2, "values": {key: 1.0}})
        assert str(info.value) == message
        descriptor = tmp_path / "descriptor.json"
        descriptor.write_text(json.dumps({"kind": "choquet", "capacity": {"n": 2, "values": {key: 1.0}}}))
        assert cli.main(["check", "--space", files["space2"], "--functional", str(descriptor), "--format", "json"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_leading_zeros_do_not_count_as_digits(self):
        assert ou.capacity_from_json({"n": 2, "values": {"0" * 5000 + "3": 1.0}}).values[3] == 1.0

    @pytest.mark.parametrize("n", [True, 2.9, 2.0, "2", None, [2]], ids=["bool", "float", "integral_float", "string", "null", "list"])
    def test_capacity_n(self, files, tmp_path, capsys, n):
        message = f"capacity ground size n must be an integer, got {type(n).__name__}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ou.capacity_from_json({"n": n, "values": {"3": 1.0}})
        for obj, argv in (
            ({"n": n, "sequence": [{"values": {"3": 1.0}}] * 10}, ["compact", "--capacities"]),
            ({"n": n, "sequence": []}, ["compact", "--capacities"]),
            ({"kind": "choquet", "capacity": {"n": n, "values": {"3": 1.0}}}, ["check", "--space", files["space2"], "--functional"]),
        ):
            path = tmp_path / "descriptor.json"
            path.write_text(json.dumps(obj))
            assert cli.main([*argv, str(path), "--format", "json"]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "c, message",
        [
            (True, "unit_value must be a number, got bool"),
            ("1.5", "unit_value must be a number, got str"),
            (None, "unit_value must be a number, got NoneType"),
            ([1.5], "unit_value must be a number, got list"),
            ({"value": 1.5}, "unit_value must be a number, got dict"),
            (10**400, "unit_value must be finite"),
        ],
        ids=["bool", "string", "null", "list", "object", "past_the_largest_float"],
    )
    def test_unit_value(self, files, tmp_path, capsys, c, message):
        obj = {"base_points": [[1.0, 0.0]], "values": [0.5], "unit_value": c}
        with pytest.raises(ValueError, match=f"^{message}$"):
            ou.partial_from_json(ou.orthant(2), obj)
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["extend", "--space", files["space2"], "--partial", str(path), "--target", "0,1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("c", [1.5, 1, 0], ids=["float", "integer", "zero"])
    def test_a_number_is_read(self, c):
        pf = ou.partial_from_json(ou.orthant(2), {"base_points": [[1.0, 0.0]], "values": [0.5 * c], "unit_value": c})
        assert type(pf.unit_value) is float and pf.unit_value == c
        assert ou.capacity_from_json({"n": 2, "values": {"3": 1.0}}).n == 2


class TestDuplicateFields:
    """``json.load`` keeps the last copy of a field named twice; every command that reads a file refuses it."""

    @pytest.mark.parametrize(
        "family, text, name",
        [
            ("space", '{"dim": 2, "cone": "orthant", "unit": [1, 1], "unit": [1, 4]}', "unit"),
            ("functional", '{"kind": "linear", "weights": [1, 1], "kind": "sqrt_gap"}', "kind"),
            ("operator", '{"kind": "clamp", "kind": "clamp"}', "kind"),
            ("openness", '{"kind": "clamp", "kind": "clamp"}', "kind"),
            ("partial", '{"base_points": [], "values": [], "unit_value": 1.0, "unit_value": 2.0}', "unit_value"),
            ("sequence", '{"n": 2, "sequence": [{"values": {"1": 0.2, "3": 1.0, "1": 0.7}}]}', "1"),
        ],
    )
    def test_a_field_named_twice_is_refused(self, files, tmp_path, capsys, family, text, name):
        path = tmp_path / "descriptor.json"
        path.write_text(text)
        if family == "openness":
            argv = ["openness", "--space", files["space2"], "--operator", str(path), "--at", "0,0", "--epsilon", "1", "--delta", "1"]
        else:
            argv = _argv(family, files["space2"], str(path))
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: a JSON object names {name!r} twice\n")


class TestOpenness:
    def test_pass_at_zero(self, files):
        proc = run_cli(
            "openness", "--space", files["space2"], "--operator", files["clamp"],
            "--at", "0,0", "--epsilon", "0.25", "--delta", "0.25",
            "--targets", "12", "--budget", "400", "--format", "json",
        )
        assert proc.returncode == 0

    def test_fail_off_band(self, files):
        proc = run_cli(
            "openness", "--space", files["space2"], "--operator", files["clamp"],
            "--at", "2,4", "--epsilon", "1", "--delta", "0.1",
            "--targets", "12", "--budget", "400", "--format", "json",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["verdict"]["witness"] is not None

    def test_no_sampled_target_fails(self, files, capsys):
        # at --delta 1e4 the same probe fails on a target; at 1e6 it samples none
        argv = ["openness", "--space", files["space2"], "--operator", files["clamp"], "--at", "0,0", "--epsilon", "1"]
        assert cli.main([*argv, "--delta", "1e4", "--format", "json"]) == 1
        capsys.readouterr()
        assert cli.main([*argv, "--delta", "1e6", "--format", "json"]) == 1
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert (verdict["passed"], verdict["witness"], verdict["targets_tested"]) == (False, None, 0)
        assert verdict["note"] == "no image points found inside the target ball"

    def test_residual_past_the_square_overflow_is_a_strict_json_verdict(self, tmp_path, capsys):
        # |T(x) - y| is about 1e196, but its square overflows
        (tmp_path / "space.json").write_text(json.dumps({"dim": 2, "cone": "orthant", "unit": [1, 1]}))
        (tmp_path / "identity.json").write_text(json.dumps({"kind": "linear_positive", "matrix": [[1, 0], [0, 1]]}))
        argv = [
            "openness", "--space", str(tmp_path / "space.json"), "--operator", str(tmp_path / "identity.json"),
            "--at=1e200,-1e200", "--epsilon", "1e200", "--delta", "1e200", "--targets", "4", "--budget", "60", "--format", "json",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and err == ""

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        verdict = json.loads(out, parse_constant=refuse)["verdict"]
        assert not verdict["passed"] and verdict["targets_tested"] == 4
        assert 1e196 < verdict["best_residual"] < 1e197

    @pytest.mark.parametrize("flag", ["--epsilon", "--delta"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_a_radius_that_is_not_positive_and_finite_is_input_error(self, files, flag, value):
        # the timeout turns a search that never ends (epsilon = inf once did) into a failure
        radii = {"--epsilon": "1", "--delta": "0.1", flag: value}
        argv = ["openness", "--space", files["space2"], "--operator", files["clamp"], "--at", "2,4"]
        proc = run_cli(*argv, *(f"{k}={v}" for k, v in radii.items()), "--format", "json", timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: epsilon and delta must be positive and finite\n"

    def test_boundary_unit_fails(self, files):
        # the timeout turns a sampler that never accepts a point into a failure
        proc = run_cli(
            "openness", "--space", files["boundary"], "--operator", files["clamp"],
            "--at", "0,0", "--epsilon", "0.25", "--delta", "0.25", "--format", "json", timeout=60,
        )
        assert proc.returncode == 1
        assert [c["name"] for c in json.loads(proc.stdout)["checks"]] == ["unit_interior"]

    def test_overflowing_unit_fails(self, files):
        proc = run_cli(
            "openness", "--space", files["overflow_unit"], "--operator", files["clamp"],
            "--at", "0,0", "--epsilon", "0.25", "--delta", "0.25", "--format", "json", timeout=60,
        )
        assert proc.returncode == 1
        assert [c["name"] for c in json.loads(proc.stdout)["checks"]] == ["unit_interior"]


INT, NUMBER, TEXT = ("int",), ("number",), ("str",)
MASKS = ("masks",)
CAPACITY_SCHEMA = ("object", {"n": INT, "values": MASKS})
LINEAR_SCHEMA = ("object", {"kind": TEXT, "weights": ("list", NUMBER)})
SPACE_SCHEMA = ("object", {"dim": INT, "cone": ("cone", ("object", {"halfspaces": ("rows", "cone rows")})), "unit": ("list", NUMBER)})
SCHEMAS = {  # the JSON type of each descriptor in WELL_TYPED, written apart from the readers;
    # ("rows", name) is a list of number lists of one length, which the readers call name
    "space": SPACE_SCHEMA,
    "halfspace_space": SPACE_SCHEMA,
    "linear": LINEAR_SCHEMA,
    "maxplus": LINEAR_SCHEMA,
    "choquet": ("object", {"kind": TEXT, "capacity": CAPACITY_SCHEMA}),
    "sqrt_gap": ("object", {"kind": TEXT}),
    "capacity": CAPACITY_SCHEMA,
    "linear_positive": ("object", {"kind": TEXT, "matrix": ("rows", "linear_positive matrix")}),
    "clamp": ("object", {"kind": TEXT}),
    # a stacked functional of any kind is well typed as far as this test tells
    "stack": ("object", {"kind": TEXT, "functionals": ("list", ("functional", LINEAR_SCHEMA))}),
    "sequence": ("object", {"n": INT, "sequence": ("list", ("entry", MASKS))}),
    "partial": ("object", {"base_points": ("rows", "base_points"), "values": ("list", NUMBER), "unit_value": NUMBER}),
}


def _is_number(v):
    """A finite JSON number: not a bool, and an integer only below ``2**1024 - 2**970``, the least that rounds to inf."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) < 2**1024 - 2**970


def _well_typed(schema, v):
    """Does ``v`` have the JSON type ``schema``?  A stacked functional is well typed when it has a kind."""
    tag = schema[0]
    if tag == "int":
        return isinstance(v, int) and not isinstance(v, bool)
    if tag == "number":
        return _is_number(v)
    if tag == "str":
        return isinstance(v, str)
    if tag == "list":
        return isinstance(v, list) and all(_well_typed(schema[1], x) for x in v)
    if tag == "rows":
        return _well_typed(("list", ("list", NUMBER)), v) and len({len(row) for row in v}) < 2
    if tag == "object":
        return isinstance(v, dict) and all(k in v and _well_typed(s, v[k]) for k, s in schema[1].items())
    if tag == "masks":
        decimal = re.compile("-?[0-9]+")
        return isinstance(v, dict) and all(decimal.fullmatch(k) and _is_number(x) for k, x in v.items())
    if tag == "cone":
        return v == "orthant" or _well_typed(schema[1], v)
    if tag == "functional":
        return isinstance(v, dict) and "kind" in v
    assert tag == "entry"  # of a capacity sequence: {"values": masks}, or the masks
    return _well_typed(MASKS, v["values"] if isinstance(v, dict) and "values" in v else v)


def _schema_at(schema, path):
    """The JSON type at ``path`` inside one of type ``schema``."""
    for key in path:
        tag = schema[0]
        if tag == "object":
            schema = schema[1][key]
        elif tag == "list":
            schema = schema[1]
        elif tag == "rows":
            schema = ("list", NUMBER)
        elif tag in ("cone", "functional"):  # their object form
            schema = schema[1][1][key]
        else:  # a mask's value, or an entry's masks
            schema = NUMBER if tag == "masks" else MASKS
    return schema


def _paths(obj, path=()):
    """Every position in ``obj``: the whole, each field and each nested entry."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def json_values():
    """Any JSON value: null, bools, integers (and one past the largest float), finite floats, strings, lists and objects."""
    scalars = st.none() | st.booleans() | st.integers() | st.just(HUGE) | st.floats(allow_nan=False, allow_infinity=False)
    scalars |= st.text(max_size=4) | st.sampled_from(["orthant", "linear", "clamp", "3", "-1"])
    return st.recursive(scalars, lambda c: st.lists(c, max_size=3) | st.dictionaries(st.text(max_size=3), c, max_size=3), max_leaves=6)


def schema_values(schema):
    """Values of the JSON type ``schema``, finite floats of every magnitude among them."""
    tag = schema[0]
    if tag == "int":
        return st.integers(-2, 20) | st.integers()
    if tag == "number":
        return st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    if tag == "str":
        return st.sampled_from(["linear", "maxplus", "choquet", "sqrt_gap", "linear_positive", "clamp", "stack", "x"])
    if tag == "list":
        return st.lists(schema_values(schema[1]), max_size=4)
    if tag == "rows":  # of one length, or ragged
        rectangular = st.integers(0, 3).flatmap(lambda k: st.lists(st.lists(schema_values(NUMBER), min_size=k, max_size=k), max_size=4))
        return rectangular | st.lists(schema_values(("list", NUMBER)), min_size=2, max_size=4)
    if tag == "object":
        return st.fixed_dictionaries({k: schema_values(s) for k, s in schema[1].items()})
    if tag == "masks":
        keys = st.integers(-1, 4).map(str) | st.from_regex("-?[0-9]+", fullmatch=True)
        return st.dictionaries(keys, schema_values(NUMBER), max_size=4)
    if tag == "cone":
        return st.just("orthant") | schema_values(schema[1])
    if tag == "functional":
        return schema_values(schema[1])
    return st.fixed_dictionaries({"values": schema_values(MASKS)}) | schema_values(MASKS)


@st.composite
def ill_typed_runs(draw, names=tuple(sorted(WELL_TYPED))):
    """``(family, descriptor, fault)``: a descriptor of WELL_TYPED named in
    ``names`` with one field or one nested entry replaced by a drawn JSON
    value, of any type or of the field's.  ``fault`` is None when the result
    has its JSON type, shape included; otherwise its one error line must
    contain ``fault``: the name of the number-rows field the value went into
    (a ragged cone row, matrix or ``base_points`` among them), or ``""``."""
    name = draw(st.sampled_from(names))
    family, obj = WELL_TYPED[name]
    path = draw(st.sampled_from(list(_paths(obj))))
    schema = _schema_at(SCHEMAS[name], path)
    value = draw(json_values() | schema_values(schema))
    whole = _put(obj, path, value)
    if _well_typed(schema, value) and _well_typed(SCHEMAS[name], whole):  # a row of another length makes its rows ragged
        return family, whole, None
    rows = [s[1] for s in (_schema_at(SCHEMAS[name], path[:i]) for i in range(len(path) + 1)) if s[0] == "rows"]
    return family, whole, rows[0] if rows else ""


def _assert_refused(code, err, fault):
    """Exit 2 with one error line that contains ``fault``."""
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and fault in err, (code, err, fault)


class TestCheckCompactContract:
    @settings(max_examples=100, deadline=None)
    @given(run=ill_typed_runs())
    def test_exit_code_strict_json_and_a_quiet_stderr(self, files, run):
        """``check``, ``compact`` and ``extend`` on a descriptor with one drawn field
        exit 0, 1 or 2, print strict JSON, send no warning or traceback to stderr,
        and exit 2 with one line whenever the field has the wrong JSON type or
        shape, naming the field of a number-rows fault."""
        family, obj, fault = run
        with tempfile.TemporaryDirectory() as tmp:
            descriptor = Path(tmp) / "descriptor.json"
            if family == "capacity":
                family, obj = "functional", {"kind": "choquet", "capacity": obj}
            descriptor.write_text(json.dumps(obj))
            if family == "space":
                argv = _argv("functional", str(descriptor), files["linear"])
            else:
                argv = _argv(family, files["space2"], str(descriptor))
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
        assert code in (0, 1, 2)
        assert caught == [] and "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_no_constant)
        assert bool(out.getvalue()) != bool(err.getvalue())
        if fault is not None:
            _assert_refused(code, err.getvalue(), fault)


class _Hang(Exception):
    """A command ran past its time limit (not an error ``cli.main`` reports)."""


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise :class:`_Hang` in the block once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise _Hang(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
"""Finite floats of every magnitude, subnormals and both zeros included."""


def _coordinates(dim):
    return st.lists(FINITE, min_size=dim, max_size=dim).map(lambda v: ",".join(map(repr, v)))


@st.composite
def scaled_spaces(draw):
    """``(dim, descriptor)``: a space of :func:`interior_unit_spaces` with its unit
    scaled by ``2**k``, ``k`` over every exponent of a float, past the largest
    float included (an infinite unit entry, written as ``Infinity``)."""
    space = draw(interior_unit_spaces())
    with np.errstate(over="ignore"):
        unit = space.unit * 2.0 ** draw(st.integers(-1074, 1023))
    return space.dim, {"dim": space.dim, "cone": {"halfspaces": space.cone.rows.tolist()}, "unit": unit.tolist()}


@st.composite
def operators_for(draw, dim):
    """A well-typed operator descriptor on ``dim``-vectors, entries finite of every
    magnitude; the clamp and ``sqrt_gap`` only where ``dim`` is 2, the one they take."""
    weights = st.lists(FINITE, min_size=dim, max_size=dim)
    functionals = [
        st.fixed_dictionaries({"kind": st.sampled_from(["linear", "maxplus"]), "weights": weights}),
        st.just({"kind": "choquet", "capacity": {"n": dim, "values": {str(2**dim - 1): 1.0}}}),
    ]
    rows = st.integers(1, 3) | st.just(dim)
    operators = [
        rows.flatmap(lambda r: st.lists(st.lists(FINITE, min_size=dim, max_size=dim), min_size=r, max_size=r)).map(
            lambda m: {"kind": "linear_positive", "matrix": m}),
    ]
    if dim == 2:
        functionals.append(st.just({"kind": "sqrt_gap"}))
        operators.append(st.just({"kind": "clamp"}))
    operators.append(st.lists(st.one_of(functionals), min_size=1, max_size=3).map(lambda fs: {"kind": "stack", "functionals": fs}))
    return draw(st.one_of(operators))


@st.composite
def light_runs(draw):
    """``(argv, files, fault)``: ``norm``, ``openness`` or ``gallery`` with drawn
    arguments; ``files`` maps each file name in ``argv`` to the descriptor it
    holds.  The space and operator are well typed, or one of them is from
    :func:`ill_typed_runs`, whose ``fault`` this passes on."""
    command = draw(st.sampled_from(["norm", "openness", "gallery"]))
    if command == "gallery":
        return ["gallery", "--seed", str(draw(st.integers(0, 2**64)))], {}, None
    ill = draw(st.sampled_from([None, "space", "operator"]))
    dim, space = draw(scaled_spaces())
    fault = None
    if ill == "space":
        dim, (_, space, fault) = 2, draw(ill_typed_runs(("space", "halfspace_space")))
    if ill == "operator":  # the descriptors of ill_typed_runs are on the plane
        dim, space = 2, {"dim": 2, "cone": "orthant", "unit": [1.0, 1.0]}
    if command == "norm":
        points = draw(st.lists(_coordinates(dim), min_size=1, max_size=3))
        return ["norm", "--space", "space.json", *(f"--point={p}" for p in points)], {"space.json": space}, fault
    operator = draw(operators_for(dim))
    if ill == "operator":
        _, operator, fault = draw(ill_typed_runs(("linear_positive", "clamp", "stack")))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    argv = ["openness", "--space", "space.json", "--operator", "operator.json", f"--at={draw(_coordinates(dim))}",
            f"--epsilon={draw(positive)!r}", f"--delta={draw(positive)!r}", "--targets", str(draw(st.integers(1, 4))),
            "--budget", str(draw(st.integers(1, 64))), "--seed", str(draw(st.integers(0, 2**32)))]
    return argv, {"space.json": space, "operator.json": operator}, fault


class TestLightContract:
    @settings(max_examples=100, deadline=None)
    @given(run=light_runs())
    def test_exit_code_strict_json_and_a_quiet_stderr(self, run):
        """``norm``, ``openness`` and ``gallery`` on drawn spaces, points, radii and
        descriptors, well typed or not, exit 0, 1 or 2 within 30 s, print strict
        JSON, and raise no warning and send no traceback to stderr; an ill-typed
        or ragged descriptor exits 2 as :func:`ill_typed_runs` says."""
        argv, files, fault = run
        with tempfile.TemporaryDirectory() as tmp:
            for name, obj in files.items():
                (Path(tmp) / name).write_text(json.dumps(obj))
            argv = [str(Path(tmp) / a) if a in files else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), _time_limit(30):
                warnings.simplefilter("error")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([*argv, "--format", "json"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_no_constant)
        assert bool(out.getvalue()) != bool(err.getvalue())
        if fault is not None:
            _assert_refused(code, err.getvalue(), fault)


class TestCompact:
    def test_oscillating_sequence(self, files):
        proc = run_cli("compact", "--capacities", files["osc"], "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert all(i % 2 == 0 for i in payload["indices"])
        assert payload["limit_capacity"]["values"]["1"] == 0.6

    @pytest.mark.parametrize(
        "argv, expected", [([], 1e-6), (["--tol", "1e-9"], 1e-9), (["--tol", "0.01"], 0.01)]
    )
    def test_tol_reaches_subsequence_limit(self, files, monkeypatch, capsys, argv, expected):
        seen = []
        real = dual.subsequence_limit

        def spy(*args, conv_tol, **kwargs):
            seen.append(conv_tol)
            return real(*args, conv_tol=conv_tol, **kwargs)

        monkeypatch.setattr(dual, "subsequence_limit", spy)
        assert cli.main(["compact", "--capacities", files["osc"], "--format", "json", *argv]) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_tol_below_zero_or_nan_is_input_error(self, tmp_path, tol):
        # on a constant sequence a negative tolerance never ended the halving
        constant = tmp_path / "constant.json"
        constant.write_text(json.dumps({"n": 2, "sequence": [{"values": {"1": 0.3, "2": 0.6, "3": 1.0}}] * 10}))
        proc = run_cli("compact", "--capacities", str(constant), "--tol", tol, "--format", "json", timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "conv_tol" in proc.stderr

    @pytest.mark.parametrize("keys", [("01", "1"), ("1", "01")])
    def test_two_mask_keys_that_name_one_subset_are_refused(self, tmp_path, capsys, keys):
        # read as a dict of masks, the later key's value became the limit's
        values = {keys[0]: 0.2, keys[1]: 0.7, "3": 1.0}
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps({"n": 2, "sequence": [{"values": values}]}))
        assert cli.main(["compact", "--capacities", str(path), "--min-length", "1", "--format", "json"]) == 2
        assert capsys.readouterr() == ("", f"error: capacity masks {keys[0]!r} and {keys[1]!r} name one subset\n")

    def test_values_that_overflow_at_the_probes_are_refused(self, tmp_path, capsys):
        # 4 * 1.5e308 at the probe (2, -2): NumPy's overflow warnings, then exit 1 on a result that was not finite, were the old outcome
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"n": 2, "sequence": [{"values": {"1": 1e308, "3": 1.0}}, {"values": {"1": 1.5e308, "3": 1.0}}] * 2}))
        assert cli.main(["compact", "--capacities", str(path), "--min-length", "1", "--format", "json"]) == 2
        assert capsys.readouterr() == ("", "error: capacity sequence member 1: its Choquet values at the probes are not finite\n")

    def test_short_sequence_is_input_error(self, files, tmp_path):
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"n": 2, "sequence": [{"values": {"3": 1.0}}] * 3}))
        proc = run_cli("compact", "--capacities", str(short))
        assert proc.returncode == 2


class TestCounts:
    @pytest.mark.parametrize(
        "command, name",
        [
            (["openness", "--targets", "0"], "targets"),
            (["openness", "--targets", "-1"], "targets"),
            (["openness", "--budget", "0"], "budget"),
            (["compact", "--capacities", "osc", "--truncation", "0"], "truncation"),
            (["compact", "--capacities", "osc", "--truncation", "-3"], "truncation"),
            (["compact", "--capacities", "empty", "--min-length", "0"], "min_length"),
        ],
    )
    def test_count_below_one_is_input_error(self, files, tmp_path, command, name):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"n": 2, "sequence": []}))
        if command[0] == "openness":
            command = ["openness", "--space", "space2", "--operator", "clamp", "--at", "0,0",
                       "--epsilon", "0.25", "--delta", "0.25", *command[1:]]
        argv = [{**files, "empty": str(empty)}.get(arg, arg) for arg in command]
        proc = run_cli(*argv, "--format", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert name in proc.stderr


class TestFlags:
    @pytest.mark.parametrize(
        "command",
        [
            ["openness", "--space", "space2", "--operator", "clamp", "--at", "0,0",
             "--epsilon", "0.25", "--delta", "0.25", "--targets", "4", "--budget", "100"],
            ["extend", "--space", "space2", "--partial", "partial", "--target", "1,0"],
            ["gallery", "--seed", "7"],
        ],
        ids=["openness", "extend", "gallery"],
    )
    def test_unread_tol_is_rejected(self, files, command):
        argv = [files.get(arg, arg) for arg in command]
        proc = run_cli(*argv, "--tol", "1e-3", "--format", "json")
        assert proc.returncode == 2
        assert "unrecognized arguments: --tol" in proc.stderr


def _main_block(path: Path) -> str:
    """The one statement of the ``if __name__ == "__main__"`` block of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    [statement] = block.body
    return ast.unparse(statement)


class TestExitPaths:
    """``cli.run`` ends the process after ``main``: the same streams and code, without the interpreter's teardown."""

    CASES = {
        "check_passes": (["check", "--space", "space2", "--functional", "choq", "--samples", "256", "--format", "json"], 0),
        "check_fails_with_witness": (["check", "--space", "space2", "--functional", "gap", "--samples", "256", "--format", "json"], 1),
        "malformed_descriptor": (["check", "--space", "broken", "--functional", "choq", "--format", "json"], 2),
        "usage_error": (["check", "--space", "space2"], 2),
        "help": (["--help"], 0),
    }
    ENTRIES = {
        "-m orderunit": lambda argv: ["-m", "orderunit", *argv],
        "-m orderunit.cli": lambda argv: ["-m", "orderunit.cli", *argv],
        "run": lambda argv: ["-c", f"from orderunit.cli import run; run({argv!r})"],
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("case", CASES)
    def test_every_entry_gives_mains_streams_and_code(self, files, capsys, monkeypatch, case, entry):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
        monkeypatch.setenv("PYTHONUNBUFFERED", "")  # a buffered stdout holds the report until run flushes it
        argv, code = self.CASES[case]
        argv = [files.get(arg, arg) for arg in argv]
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        assert got == code
        proc = subprocess.run([PYTHON, *self.ENTRIES[entry](argv)], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["print_meets_the_pipe", "flush_meets_the_pipe"])
    def test_a_closed_stdout_ends_the_command_without_a_traceback(self, monkeypatch, unbuffered):
        # unbuffered, print raises inside main; buffered, the flush in run does.  A BrokenPipeError
        # traceback from print, and exit 1, were the old outcome.
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        proc = subprocess.Popen([PYTHON, "-m", "orderunit", "gallery", "--seed", "7", "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # long before the child has started its interpreter
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_CLOSED_PIPE == 141
        assert err == b""

    def test_a_stdout_closed_at_start_still_gives_the_code(self):
        # with descriptor 1 closed, sys.stdout is None and print writes nothing
        proc = subprocess.run([PYTHON, "-m", "orderunit", "gallery", "--seed", "7", "--format", "json"],
                              stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_the_three_entries_call_one_function(self):
        tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
        script = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]["orderunit"]
        module, _, name = script.partition(":")
        assert module == "orderunit.cli"
        package = ROOT / "src" / "orderunit"
        assert f"from .cli import {name}" in {ast.unparse(node) for node in ast.parse((package / "__main__.py").read_text(encoding="utf-8")).body}
        assert _main_block(package / "__main__.py") == _main_block(package / "cli.py") == f"{name}()"


class TestGallery:
    def test_seed7_deterministic_bytes(self, files):
        a = run_cli("gallery", "--seed", "7", "--format", "json")
        b = run_cli("gallery", "--seed", "7", "--format", "json")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout == GALLERY_SEED7.read_text()
        payload = json.loads(a.stdout)
        assert all(f["matched"] for f in payload["fixtures"])

    def test_other_seed_same_verdicts(self, files):
        a = json.loads(run_cli("gallery", "--seed", "7", "--format", "json").stdout)
        b = json.loads(run_cli("gallery", "--seed", "31", "--format", "json").stdout)
        va = [(f["name"], f["matched"]) for f in a["fixtures"]]
        vb = [(f["name"], f["matched"]) for f in b["fixtures"]]
        assert va == vb

    def test_text_format_runs(self, files):
        proc = run_cli("gallery", "--seed", "7")
        assert proc.returncode == 0
        assert "extension_demo" in proc.stdout
