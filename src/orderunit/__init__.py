"""Desk-scale toolkit for partially ordered vector spaces with an order unit.

Polyhedral cone geometry and order norms, weakly additive order-preserving
functionals (Choquet, max-plus, linear, the square-root-gap counterexample)
and operators (including the band clamp), a constructive extension engine
over finitely generated unit spans, and pointwise-convergence compactness
probes for capacity-parametrized state families.

``import orderunit`` loads no layer: each exported name, and each layer as
``orderunit.<layer>``, imports its submodule on first access (PEP 562), so a
command pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# layer -> the names the package exports from it
_EXPORTS = {
    "spaces": (
        "TOL",
        "ConeSpec",
        "OrderedSpace",
        "SpaceValidation",
        "as_vec",
        "cone_contains",
        "halfspace_space",
        "interior_contains",
        "leq",
        "nbhd_contains",
        "order_norm",
        "orthant",
        "product",
        "ray_thresholds",
        "space_from_json",
        "space_to_json",
        "validate_space",
    ),
    "sampling": (),
    "functionals": (
        "Capacity",
        "Functional",
        "PropertyReport",
        "bound",
        "capacity_from_dict",
        "capacity_from_json",
        "capacity_to_json",
        "check_normed",
        "check_order_preserving",
        "check_positive",
        "check_weak_additivity",
        "choquet",
        "choquet_functional",
        "custom_functional",
        "evaluate",
        "functional_from_json",
        "functional_to_json",
        "linear_functional",
        "lipschitz_defect",
        "maxplus",
        "maxplus_functional",
        "sqrt_gap",
        "sqrt_gap_functional",
    ),
    "extension": (
        "ExtensionInterval",
        "NonFiniteError",
        "PartialFunctional",
        "UnitSpan",
        "canonical_extension",
        "check_partial_consistency",
        "extend_all",
        "extend_one",
        "extension_interval",
        "partial_from_json",
        "partial_functional",
        "partial_to_json",
        "span_contains",
    ),
    "operators": (
        "EquicontinuityModulus",
        "Operator",
        "OperatorFamily",
        "OpennessVerdict",
        "apply",
        "certify_equicontinuity",
        "check_order_preserving_op",
        "check_weakly_additive_op",
        "clamp_operator",
        "custom_operator",
        "equicontinuity_modulus",
        "graph_check",
        "identity_operator",
        "linear_positive",
        "open_ball_image_check",
        "openness_check",
        "operator_from_json",
        "operator_modulus",
        "operator_to_json",
        "pointwise_limit",
        "stack_operator",
        "unit_image_interior",
    ),
    "dual": (
        "SubsequenceResult",
        "WeakNeighborhood",
        "absorbing_factor",
        "check_state",
        "dense_sequence",
        "subsequence_limit",
        "weak_metric",
        "weak_nbhd_contains",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAYER_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
