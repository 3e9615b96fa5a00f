"""Desk-scale toolkit for partially ordered vector spaces with an order unit.

Polyhedral cone geometry and order norms, weakly additive order-preserving
functionals (Choquet, max-plus, linear, the square-root-gap counterexample)
and operators (including the band clamp), a constructive extension engine
over finitely generated unit spans, and pointwise-convergence compactness
probes for capacity-parametrized state families.
"""

from .spaces import (
    TOL,
    ConeSpec,
    OrderedSpace,
    SpaceValidation,
    as_vec,
    cone_contains,
    halfspace_space,
    interior_contains,
    leq,
    nbhd_contains,
    order_norm,
    orthant,
    product,
    ray_thresholds,
    space_from_json,
    space_to_json,
    validate_space,
)
from .functionals import (
    Capacity,
    Functional,
    PropertyReport,
    bound,
    capacity_from_dict,
    capacity_from_json,
    capacity_to_json,
    check_normed,
    check_order_preserving,
    check_positive,
    check_weak_additivity,
    choquet,
    choquet_functional,
    custom_functional,
    evaluate,
    functional_from_json,
    functional_to_json,
    linear_functional,
    lipschitz_defect,
    maxplus,
    maxplus_functional,
    sqrt_gap,
    sqrt_gap_functional,
)
from .extension import (
    ExtensionInterval,
    NonFiniteError,
    PartialFunctional,
    UnitSpan,
    canonical_extension,
    canonicalize,
    check_partial_consistency,
    extend_all,
    extend_one,
    extension_interval,
    partial_from_json,
    partial_functional,
    partial_to_json,
    span_contains,
    unit_span,
)
from .operators import (
    EquicontinuityModulus,
    Operator,
    OperatorFamily,
    OpennessVerdict,
    apply,
    certify_equicontinuity,
    check_order_preserving_op,
    check_weakly_additive_op,
    clamp_operator,
    custom_operator,
    equicontinuity_modulus,
    graph_check,
    identity_operator,
    linear_positive,
    open_ball_image_check,
    openness_check,
    operator_from_json,
    operator_modulus,
    operator_to_json,
    pointwise_limit,
    stack_operator,
    unit_image_interior,
)
from .dual import (
    SubsequenceResult,
    WeakNeighborhood,
    absorbing_factor,
    check_state,
    dense_sequence,
    subsequence_limit,
    weak_metric,
    weak_nbhd_contains,
)

__version__ = "0.1.0"
