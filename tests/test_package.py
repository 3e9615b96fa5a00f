"""The package's import surface: every exported name resolves on first access,
to the object its layer defines, and ``import orderunit`` loads no layer."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orderunit as ou

PYTHON = sys.executable
LIBRARY = sorted((Path(__file__).resolve().parent.parent / "src" / "orderunit").glob("*.py"))

# the names the package exported when its init imported every layer eagerly
EXPORTS = {
    "spaces": """TOL ConeSpec OrderedSpace SpaceValidation as_vec cone_contains halfspace_space
        interior_contains leq nbhd_contains order_norm orthant product ray_thresholds space_from_json
        space_to_json validate_space""".split(),
    "functionals": """Capacity Functional PropertyReport bound capacity_from_dict capacity_from_json
        capacity_to_json check_normed check_order_preserving check_positive check_weak_additivity choquet
        choquet_functional custom_functional evaluate functional_from_json functional_to_json
        linear_functional lipschitz_defect maxplus maxplus_functional sqrt_gap sqrt_gap_functional""".split(),
    "extension": """ExtensionInterval NonFiniteError PartialFunctional UnitSpan canonical_extension
        check_partial_consistency extend_all extend_one extension_interval partial_from_json
        partial_functional partial_to_json span_contains""".split(),
    "operators": """EquicontinuityModulus Operator OperatorFamily OpennessVerdict apply
        certify_equicontinuity check_order_preserving_op check_weakly_additive_op clamp_operator
        custom_operator equicontinuity_modulus graph_check identity_operator linear_positive
        open_ball_image_check openness_check operator_from_json operator_modulus operator_to_json
        pointwise_limit stack_operator unit_image_interior""".split(),
    "dual": """SubsequenceResult WeakNeighborhood absorbing_factor check_state dense_sequence
        subsequence_limit weak_metric weak_nbhd_contains""".split(),
}
NAMES = [name for names in EXPORTS.values() for name in names]
LAYERS = [*EXPORTS, "sampling"]


def test_every_name_is_its_layers_object():
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"orderunit.{layer}")
        for name in names:
            assert getattr(ou, name) is getattr(module, name), name


def test_all_and_dir_list_every_name():
    assert sorted(ou.__all__) == sorted(NAMES) and len(ou.__all__) == len(NAMES)
    assert set(NAMES) | set(LAYERS) <= set(dir(ou))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from orderunit import *", namespace)
    assert all(namespace[name] is getattr(ou, name) for name in NAMES)


def test_layers_are_attributes():
    for layer in LAYERS:
        assert getattr(ou, layer) is importlib.import_module(f"orderunit.{layer}")
    assert ou.__version__ == "0.1.0"


@pytest.mark.parametrize("name", ["no_such_name", "_step"])
def test_other_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'orderunit' has no attribute '{name}'"):
        getattr(ou, name)


def test_import_loads_no_layer():
    code = (
        "import sys, orderunit; "
        "print(sorted(m for m in sys.modules if m.startswith('orderunit')), 'numpy' in sys.modules)"
    )
    proc = subprocess.run([PYTHON, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "['orderunit'] False\n"


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_every_import_is_used(path):
    """No linter runs here, so this stands in for an unused-import check: every
    name a library module imports (``__future__`` aside) is read in that module,
    and so is every private module-level constant (``_UPPER``), so a knob that
    nothing reads any more cannot stay behind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    constants = {
        node.id
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and re.fullmatch(r"_[A-Z][A-Z0-9_]*", node.id)
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted((imported | constants) - read) == []


def test_only_spaces_reads_the_orthant_tag():
    """The orthant's O(dim) kernels branch inside ``spaces.py``, so no caller
    forks on the ``orthant`` tag.  The one exception is ``linear_positive``,
    which checks an orthant domain's generators, the matrix's columns."""
    reads = set()
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> the innermost function around it (ast.walk visits outer functions first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        reads |= {(path.name, owner.get(id(node))) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "orthant"}
    assert sorted(r for r in reads if r[0] != "spaces.py" and r != ("operators.py", "linear_positive")) == []
