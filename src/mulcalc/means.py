"""Special means of two positive numbers and the two application checks.

The application checks instantiate the general inequality machinery at
concrete functions, which turns abstract bounds into statements about the
classical means A, H, L, L_p.  They reuse BoundReport so the CLI and scan
schemas stay uniform.
"""

import dataclasses
import math

from .bounds import BoundReport, midpoint_bound_geo
from .errors import ConsistencyError
from .functions import FamilySpec, make_model
from .interval import Interval


@dataclasses.dataclass(frozen=True)
class MeanPair:
    """An ordered pair 0 < a < b, the arguments of every mean here."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < self.b:
            raise ValueError("MeanPair requires 0 < a < b, got (%r, %r)" % (self.a, self.b))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))


def arithmetic(mp):
    return 0.5 * (mp.a + mp.b)


def harmonic(mp):
    return 2.0 * mp.a * mp.b / (mp.a + mp.b)


def logarithmic(mp):
    return (mp.b - mp.a) / (math.log(mp.b) - math.log(mp.a))


def p_logarithmic(mp, p):
    """The p-logarithmic mean; p = -1 and p = 0 have different closed forms
    (L and the identric mean) and are rejected rather than special-cased."""
    p = float(p)
    if p in (-1.0, 0.0):
        raise ValueError("p_logarithmic is undefined here for p in {-1, 0}, got p=%r" % (p,))
    return _pth_power_mean(mp, p) ** (1.0 / p)


def _pth_power_mean(mp, p):
    """L_p^p without the final root, the quantity the checks actually use."""
    return (mp.b ** (p + 1.0) - mp.a ** (p + 1.0)) / ((p + 1.0) * (mp.b - mp.a))


def prop41_check(mp, p, quad=None):
    """Check A^p - L_p^p against p (b-a) (a^{p-1} + b^{p-1}) / 8 in logs.

    The left side is reported signed, exactly as stated (it is negative for
    p >= 2 since L_p >= A there, which only makes the inequality easier).
    Before reporting, |lhs| is cross-checked against the midpoint deviation
    of e^{t^p} on [a, b] computed through the quadrature pathway; the two
    are the same quantity reached by different code, so disagreement is a
    bug, not mathematics.
    """
    p = float(p)
    if p < 2.0:
        raise ValueError("this check needs p >= 2, got p=%r" % (p,))
    lhs = arithmetic(mp) ** p - _pth_power_mean(mp, p)
    rhs = p * (mp.b - mp.a) * (mp.a ** (p - 1.0) + mp.b ** (p - 1.0)) / 8.0

    iv = Interval(mp.a, mp.b)
    model = make_model(FamilySpec(kind="exp_power", params=(p,), domain=iv))
    geo = midpoint_bound_geo(model, iv, quad, mode="strict", check_hypothesis=False)
    tol = max(1e-9, 1e-14 / iv.length)
    if abs(abs(lhs) - geo.lhs_log) > tol:
        raise ConsistencyError("mean-formula |lhs|=%r vs quadrature pathway %r differ by %r (> %r)"
                               % (abs(lhs), geo.lhs_log, abs(abs(lhs) - geo.lhs_log), tol))

    margin = rhs - lhs
    return BoundReport(name="prop41", mode="strict", lhs_log=float(lhs), rhs_log=float(rhs),
                       margin=float(margin), holds=bool(margin >= -1e-12))


PROP42_VARIANTS = ("paper", "corrected")


def prop42_check(mp, variant):
    """Check 1/H - 1/L against the stated exponent for e^{1/t}.

    variant "paper": rhs = -(b-a)/(4 b^2).  Since 1/H >= 1/L always
    (harmonic below logarithmic) the left side is nonnegative and this
    variant fails for every admissible pair; it is kept as a regression
    on the discrepancy.  variant "corrected": rhs =
    +(b-a)/(4 a^2), which is what the uniform-bound corollary yields once
    the bound M is taken on |ln f*| = 1/t^2 (sup at t=a); reported in
    robust mode accordingly.
    """
    if variant not in PROP42_VARIANTS:
        raise ValueError("variant must be one of %s, got %r" % (", ".join(PROP42_VARIANTS), variant))
    lhs = 1.0 / harmonic(mp) - 1.0 / logarithmic(mp)
    if variant == "paper":
        rhs = -(mp.b - mp.a) / (4.0 * mp.b * mp.b)
        name, mode = "prop42_paper", "strict"
    else:
        rhs = (mp.b - mp.a) / (4.0 * mp.a * mp.a)
        name, mode = "prop42_corrected", "robust"
    margin = rhs - lhs
    return BoundReport(name=name, mode=mode, lhs_log=float(lhs), rhs_log=float(rhs),
                       margin=float(margin), holds=bool(margin >= -1e-12))
