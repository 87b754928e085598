"""Log-weighted Gram matrices of shifted Legendre polynomials.

Computes N[n, m] = integral over [0, 1] of P_n(2x-1) P_m(2x-1) log(x) dx
in exact rational arithmetic from closed forms, and verifies the values
against an independent symbolic oracle (exact) and a Gauss-Legendre
product rule that is exact in range (floating).

``import loglegram`` loads ``errors``, ``legendre`` and ``exactmoments``
(and with them numpy).  The names from ``analysis`` and ``oracles``, and
the submodules ``analysis``, ``oracles`` and ``cli``, are imported on
first access (PEP 562), so a process that only evaluates the closed
forms never compiles the oracles.
"""

import importlib

from .errors import OrderLimitError
from .exactmoments import GramMatrix, diag_scaling_table, entry, gram_exact, gram_float
from .legendre import MAX_ORDER, MonomialPoly, coeffs_exact

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
    "exact_entry_oracle",
    "expansion_l2_error",
    "gauss_legendre_rule",
    "gram_exact",
    "gram_float",
    "log_expansion_coeffs",
    "quad_entry_oracle",
    "verify_range",
]

# each name imported on first access, and the submodule that defines it; a
# submodule maps to itself
_LAZY = {
    "analysis": "analysis",
    "ExpansionReport": "analysis",
    "bilinear_log_form": "analysis",
    "expansion_l2_error": "analysis",
    "log_expansion_coeffs": "analysis",
    "oracles": "oracles",
    "QuadratureRule": "oracles",
    "VerificationReport": "oracles",
    "exact_entry_oracle": "oracles",
    "gauss_legendre_rule": "oracles",
    "quad_entry_oracle": "oracles",
    "verify_range": "oracles",
    "cli": "cli",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)
