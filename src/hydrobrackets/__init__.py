"""Exact verification and simulation toolkit for nonlocal Poisson brackets
of hydrodynamic type and their bi-Hamiltonian hierarchies.

The symbolic core is exact: every expression is an ``Expr``, a rational
function over Q, and every ``Zero`` verdict is decided exactly.  Floating
point appears only in the pseudo-spectral simulator, the one reader of
initial data with sin/cos/exp calls.
"""

from .expr import (
    Expr,
    ParseError,
    Zeroness,
    is_zero,
    parse,
)
from .geometry import (
    Metric,
    canonical_metric,
    christoffel,
)
from .bracket import (
    CanonicalPair,
    ConstantBracket,
    HydroBracket,
    LiouvilleData,
    PoissonReport,
    build_canonical,
    check_canonical_equations,
    check_compat_constant,
    check_pencil,
    check_poisson,
    equivalence_audit,
    functional_bracket_density,
    is_total_x_derivative,
    liouville_function,
    special_liouville,
)
from .hierarchy import (
    ConservativeFlow,
    apply_recursion,
    bihamiltonian_check,
    commute_check,
    hierarchy,
    involution_check,
    translation_flow,
)

__version__ = "0.1.0"

__all__ = [
    "Expr",
    "ParseError",
    "Zeroness",
    "is_zero",
    "parse",
    "Metric",
    "canonical_metric",
    "christoffel",
    "CanonicalPair",
    "ConstantBracket",
    "HydroBracket",
    "LiouvilleData",
    "PoissonReport",
    "build_canonical",
    "check_canonical_equations",
    "check_compat_constant",
    "check_pencil",
    "check_poisson",
    "equivalence_audit",
    "functional_bracket_density",
    "is_total_x_derivative",
    "liouville_function",
    "special_liouville",
    "ConservativeFlow",
    "apply_recursion",
    "bihamiltonian_check",
    "commute_check",
    "hierarchy",
    "involution_check",
    "translation_flow",
]
