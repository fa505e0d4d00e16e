"""Exact symbolic computation for Z2^n-graded commutative algebra.

Truncated formal power series over Z2^n-graded superdomains with the
scalar-product sign rule, degree-preserving morphisms and their Taylor
pullbacks, graded Jacobians, graded-commutativity certification of
finite-dimensional algebras, atlases of superdomain charts, and a
constructive splitting engine that reduces an atlas to the split model of
its associated graded bundle.
"""

from .degrees import (
    Degree,
    DimensionMismatch,
    Signature,
    enumerate_nonzero_degrees,
    is_self_odd,
    parity,
    sign_factor,
)
from .coeffexpr import (
    App,
    CoeffExpr,
    UnboundSymbol,
    differentiate,
    evaluate,
)
from .exprio import ParseError, parse_coeff, print_coeff
from .gseries import (
    GSeries,
    OrderError,
    SignatureMismatch,
    mul_monomials,
    normal_form,
)
from .morphisms import (
    Morphism,
    MorphismError,
    SingularBlock,
    compose,
    enumerate_monomials,
    invert,
    jacobian,
    transformation_template,
)
from .findim import (
    BudgetExceeded,
    FinDimAlgebra,
    GradingError,
    check_graded_commutative,
    clifford_algebra,
    quaternion_algebra,
    search_degree_assignments,
)
from .atlas import (
    Atlas,
    AtlasError,
    GradedBundleData,
    build_split_model,
    extract_bundle,
    validate_atlas,
)
from .splitting import (
    EmbeddingFamily,
    MissingPartition,
    SplittingError,
    build_base_embedding,
    build_module_splitting,
    cocycle_mismatch,
    solve_coboundary,
    split,
    verify_result,
)
from . import formats

__version__ = "1.0.0"

__all__ = [
    "Degree", "DimensionMismatch", "Signature", "enumerate_nonzero_degrees",
    "is_self_odd", "parity", "sign_factor",
    "App", "CoeffExpr", "UnboundSymbol", "differentiate", "evaluate",
    "ParseError", "parse_coeff", "print_coeff",
    "GSeries", "OrderError", "SignatureMismatch", "mul_monomials", "normal_form",
    "Morphism", "MorphismError", "SingularBlock", "compose",
    "enumerate_monomials", "invert", "jacobian", "transformation_template",
    "BudgetExceeded", "FinDimAlgebra", "GradingError", "check_graded_commutative",
    "clifford_algebra", "quaternion_algebra", "search_degree_assignments",
    "Atlas", "AtlasError", "GradedBundleData", "build_split_model",
    "extract_bundle", "validate_atlas",
    "EmbeddingFamily", "MissingPartition", "SplittingError",
    "build_base_embedding", "build_module_splitting",
    "cocycle_mismatch", "solve_coboundary", "split", "verify_result",
    "formats",
]
