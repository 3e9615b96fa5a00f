"""The command-line interface: exit codes, formats and the gallery bytes.

``GALLERY_SEED7`` (``tests/data/gallery_seed7.json``) holds the bytes of
``gallery --seed 7 --format json``.  Regenerate it (only when a change to the
gallery output is intended) with

    PYTHONPATH=src python -m orderunit gallery --seed 7 --format json > tests/data/gallery_seed7.json
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orderunit as ou
from orderunit import cli, extension

PYTHON = sys.executable
GALLERY_SEED7 = Path(__file__).parent / "data" / "gallery_seed7.json"


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
        """Interior at ``TOL``, but the unit-scaled first row is infinite, so the
        norms are too: the samplers would refuse, and the checkers are skipped."""
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dim": 2, "cone": {"halfspaces": [[1e308, 0.0], [0.0, 1.0]]}, "unit": [1e-310, 1.0]}))
        functional = tmp_path / "f.json"
        functional.write_text(json.dumps({"kind": "linear", "weights": [1.0, 1.0]}))
        proc = run_cli("check", "--space", str(space), "--functional", str(functional), "--format", "json")
        assert proc.returncode == 1, proc.stderr
        checks = json.loads(proc.stdout)["checks"]
        assert [c["name"] for c in checks] == ["space_valid"]
        assert list(checks[0]["witness"]) == ["norm_bounds"]

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


class TestMatrixDescriptor:
    @pytest.mark.parametrize(
        "matrix, shape", [(5, "()"), ([], "(0,)"), ([[]], "(1, 0)")], ids=["scalar", "empty", "empty_row"]
    )
    def test_shape_checked_before_use(self, files, tmp_path, matrix, shape):
        path = tmp_path / "operator.json"
        path.write_text(json.dumps({"kind": "linear_positive", "matrix": matrix}))
        proc = run_cli("check", "--space", files["space2"], "--operator", str(path), "--format", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: linear_positive matrix must be a nonempty 2-d array, got shape {shape}\n"


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
        calls = []
        real = extension._consistency_witness

        def spy(pf, *args, **kwargs):
            calls.append(pf)
            return real(pf, *args, **kwargs)

        monkeypatch.setattr(extension, "_consistency_witness", spy)
        code = cli.main(
            ["extend", "--space", files["space2"], "--partial", files["bad_partial"], "--target", "0,1", "--format", "json"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["checks"][0]["witness"]["line_i"] == 1
        assert len(calls) == 1

    def test_one_span_test_and_one_interval_per_target(self, files, monkeypatch, capsys):
        counts = {"_spanned": 0, "extension_interval": 0}
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
        assert counts == {"_spanned": 4, "extension_interval": 3}
        assert len(payload["result"]["base_points"]) == 3

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

    def test_boundary_unit_fails(self, files):
        # the timeout turns a sampler that never accepts a point into a failure
        proc = run_cli(
            "openness", "--space", files["boundary"], "--operator", files["clamp"],
            "--at", "0,0", "--epsilon", "0.25", "--delta", "0.25", "--format", "json", timeout=60,
        )
        assert proc.returncode == 1
        assert [c["name"] for c in json.loads(proc.stdout)["checks"]] == ["unit_interior"]


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
        real = cli.subsequence_limit

        def spy(*args, conv_tol, **kwargs):
            seen.append(conv_tol)
            return real(*args, conv_tol=conv_tol, **kwargs)

        monkeypatch.setattr(cli, "subsequence_limit", spy)
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
