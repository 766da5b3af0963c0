"""Variable-order fractional calculus: operators on intervals and
rectangles, numerical verification of the integration-by-parts and
Green-type identities, and two-dimensional fractional variational problems
solved by a Ritz method.
"""

from .domain import (BoundMode, Interval, Rect2, SmoothFn1, SmoothFn2,
                     VariableOrder)
from .errors import (ConfigurationError, DomainError, ExpressionError,
                     OptimizationError, ValidityError, VarfracError)
from .expressions import Expression, compile_expression
from .identities import (IdentityReport, boundary_contour, contour_one_form,
                         verify_green, verify_ibp)
from .operators import (OpKind, left_caputo_derivative, left_rl_derivative,
                        left_rl_integral, partial_op, right_caputo_derivative,
                        right_rl_derivative, right_rl_integral)
from .optimize import MinimizeResult, fd_gradient, minimize_bfgs
from .quadrature import (DEFAULT_QUAD, QuadConfig, Side, SingularKernelSpec,
                         WeightShift, clustered_gl, gauss_legendre,
                         line_integral_edge, singular_integral, tensor_integral)
from .specialfn import gamma, gamma_lower_bound_check, rgamma
from .variational import (BoundaryData, ElResidualReport, Lagrangian,
                          RitzExpansion, SolveReport, el_residual,
                          first_variation, functional_eval, ritz_solve,
                          string_action)

__version__ = "0.1.0"

__all__ = [
    "BoundMode", "Interval", "Rect2", "SmoothFn1", "SmoothFn2", "VariableOrder",
    "VarfracError", "DomainError", "ValidityError", "ConfigurationError",
    "ExpressionError", "OptimizationError",
    "Expression", "compile_expression",
    "IdentityReport", "verify_ibp", "verify_green", "boundary_contour",
    "contour_one_form",
    "OpKind", "left_rl_integral", "right_rl_integral", "left_rl_derivative",
    "right_rl_derivative", "left_caputo_derivative", "right_caputo_derivative",
    "partial_op",
    "MinimizeResult", "fd_gradient", "minimize_bfgs",
    "QuadConfig", "DEFAULT_QUAD", "Side", "WeightShift", "SingularKernelSpec",
    "singular_integral", "line_integral_edge", "gauss_legendre", "clustered_gl",
    "tensor_integral",
    "gamma", "gamma_lower_bound_check", "rgamma",
    "Lagrangian", "BoundaryData", "RitzExpansion", "SolveReport",
    "ElResidualReport", "functional_eval", "string_action", "el_residual",
    "ritz_solve", "first_variation",
    "__version__",
]
