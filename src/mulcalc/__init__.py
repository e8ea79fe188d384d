"""mulcalc: log-domain multiplicative (non-Newtonian) calculus.

The package represents positive quantities by their logarithms and
positive functions by (ln f, ln f*), which turns multiplicative
derivatives, integrals, and inequality margins into ordinary additive
arithmetic.  On top of the kernel sit exact-identity checkers, inequality
checkers with strict/robust modes, special-means checks, and a seeded
falsification CLI (`mulcalc`).
"""

from .bounds import (CHECKS, BoundReport, MBound, grid_sup_m_bound, hh_check,
                     midpoint_bound, midpoint_bound_M, midpoint_bound_geo,
                     run_checks, trapezoid_bound, trapezoid_bound_M,
                     validate_m_bound)
from .core import (FunctionModel, LogValue, Probe, check_derivative_consistency,
                   combine, geometric_mean_log, mean_log, mul_derivative_log,
                   mul_integral_log, oriented_integral_log, star_values)
from .errors import (ConsistencyError, DomainError, HypothesisWarning,
                     MBoundViolation, NumericalFailure)
from .functions import (FamilySpec, GeneratorParams, is_mul_convex_sampled,
                        make_model, random_star_convex, star_model)
from .identities import (IdentityReport, midpoint_identity, parts_identity,
                         substitution_identity, trapezoid_identity)
from .interval import Interval
from .means import (MeanPair, arithmetic, harmonic, logarithmic,
                    p_logarithmic, prop41_check, prop42_check)
from .quadrature import (QuadratureConfig, QuadratureResult,
                         composite_gauss_legendre, integrate, riemann_oracle)

__version__ = "0.1.0"

__all__ = [
    "CHECKS", "BoundReport", "MBound", "grid_sup_m_bound",
    "hh_check", "midpoint_bound", "midpoint_bound_M", "midpoint_bound_geo",
    "run_checks", "trapezoid_bound", "trapezoid_bound_M", "validate_m_bound",
    "FunctionModel", "LogValue", "Probe", "check_derivative_consistency", "combine",
    "geometric_mean_log", "mean_log", "mul_derivative_log", "mul_integral_log",
    "oriented_integral_log", "star_values",
    "ConsistencyError", "DomainError", "HypothesisWarning", "MBoundViolation",
    "NumericalFailure",
    "FamilySpec", "GeneratorParams", "is_mul_convex_sampled", "make_model",
    "random_star_convex", "star_model",
    "IdentityReport", "midpoint_identity", "parts_identity",
    "substitution_identity", "trapezoid_identity",
    "Interval",
    "MeanPair", "arithmetic", "harmonic", "logarithmic", "p_logarithmic",
    "prop41_check", "prop42_check",
    "QuadratureConfig", "QuadratureResult", "composite_gauss_legendre",
    "integrate", "riemann_oracle",
]
