"""Log-weighted Gram matrices of shifted Legendre polynomials.

Computes N[n, m] = integral over [0, 1] of P_n(2x-1) P_m(2x-1) log(x) dx
in exact rational arithmetic from closed forms, and verifies the values
against an independent symbolic oracle (exact) and a Gauss-Legendre
product rule that is exact in range (floating).
"""

from .analysis import (
    ExpansionReport,
    bilinear_log_form,
    diag_scaling_table,
    expansion_l2_error,
    log_expansion_coeffs,
)
from .errors import OrderLimitError
from .exactmoments import (
    GramMatrix,
    entry,
    entry_diag,
    entry_offdiag,
    gram_exact,
    gram_float,
)
from .legendre import MAX_ORDER, MonomialPoly, coeffs_exact
from .oracles import (
    QuadratureRule,
    VerificationReport,
    exact_entry_oracle,
    gauss_legendre_rule,
    quad_entry_oracle,
    verify_range,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_ORDER",
    "ExpansionReport",
    "GramMatrix",
    "MonomialPoly",
    "OrderLimitError",
    "QuadratureRule",
    "VerificationReport",
    "bilinear_log_form",
    "coeffs_exact",
    "diag_scaling_table",
    "entry",
    "entry_diag",
    "entry_offdiag",
    "exact_entry_oracle",
    "expansion_l2_error",
    "gauss_legendre_rule",
    "gram_exact",
    "gram_float",
    "log_expansion_coeffs",
    "quad_entry_oracle",
    "verify_range",
]
