"""tropgen: exact tropical memberships, Groebner cones and generic
tropical varieties of graded polynomial ideals over the rationals."""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    GRLEX,
    LEX,
    Ideal,
    ParseError,
    Polynomial,
    TermOrder,
    compare_monomials,
    parse_ideal_file,
    parse_polynomial,
    weight_order,
)
from .groebner import (  # noqa: F401
    MarkedGB,
    buchberger,
    contains_monomial,
    contains_one,
    krull_dimension,
    normal_form,
    reduced_gb,
)
from .fans import (  # noqa: F401
    Cone,
    Fan,
    build_W,
    cone_dim,
    lineality_space,
    member,
    permute_weight,
    same_cone,
    skeleton_membership,
)
from .weights import (  # noqa: F401
    BudgetExceededError,
    enumerate_groebner_fan,
    groebner_cone,
    in_tropical_variety,
    initial_form,
)
from .generic import (  # noqa: F401
    DisagreementError,
    GenericityReport,
    apply_transform,
    check_skeleton_equality,
    check_symmetry,
    gb_support_stability,
    generic_membership_map,
    permute_columns,
    random_transform,
    transform_ideal,
)
from .special import (  # noqa: F401
    LinearIdealMatrix,
    NonGenericMatrixError,
    check_linear_theorem,
    check_minors,
    check_principal_theorem,
    gauss_reduce,
    linear_fan_census,
    linear_groebner_cone,
    pure_power_coefficients,
)
