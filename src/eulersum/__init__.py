"""Exact and numerical verification of classical Euler-sum identities.

The package evaluates each identity through independent routes (exact
rational arithmetic, accelerated series, closed forms in zeta values,
tanh-sinh quadrature on integral representations) and reports residuals,
so a defect in any single route cannot silently certify itself.

The names below are the package-level surface; everything else is reached
through its module (eulersum.specfun, eulersum.registry, ...).
"""

from .constants import zeta
from .eulersums import EulerSumSpec, sum_gp_closed_form, sum_series, sum_via_integral
from .quad import QuadratureError, QuadratureResult, integrate, integrate2d
from .registry import builtin_registry, run_case, run_suite
from .specfun import polylog, polylog_one_minus

__version__ = "0.1.0"

__all__ = [
    "zeta",
    "EulerSumSpec",
    "sum_gp_closed_form",
    "sum_series",
    "sum_via_integral",
    "QuadratureError",
    "QuadratureResult",
    "integrate",
    "integrate2d",
    "builtin_registry",
    "run_case",
    "run_suite",
    "polylog",
    "polylog_one_minus",
    "__version__",
]
