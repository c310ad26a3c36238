"""Special functions, verified quadrature, and a check harness certifying
the corrected closed form of Gradshteyn-Ryzhik entry 3.248.5."""

__version__ = "0.1.0"

from .contour import (
    hankel_exp_integral,
    hankel_resolvent_integral,
    nested_radical,
    principal_sqrt,
)
from .elliptic import (
    carlson_rf,
    carlson_rj,
    complete_K,
    complete_Pi,
    incomplete_F,
    landen_residual,
)
from .quadrature import (
    DEFAULT_CONFIG,
    Estimate,
    IntegrandError,
    Interval,
    QuadratureConfig,
    integrate,
)
from .representations import (
    CONSTANTS,
    REPRESENTATIONS,
    Constants,
    constant_residuals,
    eval_representation,
    representation_ids,
)
from .series import (
    TAIL_TOL,
    central_binomial_ratio,
    double_series_I,
    hankel_series,
    inner_k_sum,
    u_integral,
    u_series,
    u_value,
)

__all__ = [
    "__version__",
    "hankel_exp_integral",
    "hankel_resolvent_integral",
    "nested_radical",
    "principal_sqrt",
    "carlson_rf",
    "carlson_rj",
    "complete_K",
    "complete_Pi",
    "incomplete_F",
    "landen_residual",
    "DEFAULT_CONFIG",
    "Estimate",
    "IntegrandError",
    "Interval",
    "QuadratureConfig",
    "integrate",
    "CONSTANTS",
    "REPRESENTATIONS",
    "Constants",
    "constant_residuals",
    "eval_representation",
    "representation_ids",
    "TAIL_TOL",
    "double_series_I",
    "hankel_series",
    "inner_k_sum",
    "u_integral",
    "u_series",
    "u_value",
    "central_binomial_ratio",
]
