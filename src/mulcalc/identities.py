"""Residual checkers for the exact integral identities.

Each checker evaluates both sides of an identity in log-domain and reports
|lhs_log - rhs_log| against a tolerance.  These are equalities, not bounds:
they hold for any admissible model, so a residual above tolerance means a
kernel, quadrature, or algebra bug rather than a mathematical surprise.
A quadrature that runs out of budget raises NumericalFailure instead of
reporting a residual.
"""

import dataclasses

import numpy as np

from .core import Probe, star_values
from .errors import DomainError
from .interval import Interval
from .quadrature import integrate

DEFAULT_IDENTITY_TOL = 1e-8

_UNIT = Interval(0.0, 1.0)


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    identity: str
    lhs_log: float
    rhs_log: float
    residual: float
    tolerance: float
    holds: bool

    def to_dict(self):
        return {"identity": self.identity, "lhs_log": self.lhs_log,
                "rhs_log": self.rhs_log, "residual": self.residual,
                "tolerance": self.tolerance, "holds": self.holds}


def _report(identity, lhs, rhs, tolerance):
    residual = abs(lhs - rhs)
    return IdentityReport(identity=identity, lhs_log=float(lhs), rhs_log=float(rhs),
                          residual=float(residual), tolerance=float(tolerance),
                          holds=bool(residual <= tolerance))


def _mapped_breakpoints(model, lo, hi):
    """Model breakpoints pulled back through u = lo + t*(hi - lo) to the
    unit t-interval, so quadrature panels align with the kinks."""
    span = hi - lo
    return tuple((s - lo) / span for s in model.breakpoints if lo < s < hi)


def _require_inside(model, iv):
    if not model.domain.contains_interval(iv):
        raise DomainError("interval %r not inside model domain %r" % (iv, model.domain))


def midpoint_identity(model, iv, quad=None, tolerance=DEFAULT_IDENTITY_TOL):
    """Identity behind the midpoint bound.

    lhs: ln f(m) minus the log integral mean.  rhs: (b-a)/4 times a pair of
    weighted integrals of ln f* over the two half-intervals, pulled back to
    [0, 1] with weights t and t-1 respectively.
    """
    return midpoint_identity_on(Probe(model, iv, quad), tolerance)


def midpoint_identity_on(probe, tolerance=DEFAULT_IDENTITY_TOL):
    """midpoint_identity with its lhs read from a shared core.Probe."""
    model, iv, quad = probe.model, probe.iv, probe.quad
    _require_inside(model, iv)
    a, b, m = iv.a, iv.b, iv.midpoint
    lhs = probe.ln_f_ends[1] - probe.mean
    left = integrate(lambda t: t * star_values(model, a + t * (m - a)),
                     _UNIT, quad, breakpoints=_mapped_breakpoints(model, a, m)).checked_value()
    right = integrate(lambda t: (t - 1.0) * star_values(model, m + t * (b - m)),
                      _UNIT, quad, breakpoints=_mapped_breakpoints(model, m, b)).checked_value()
    rhs = 0.25 * iv.length * (left + right)
    return _report("midpoint", lhs, rhs, tolerance)


def trapezoid_identity(model, iv, quad=None, tolerance=DEFAULT_IDENTITY_TOL):
    """Identity behind the trapezoid bound.

    lhs: log of G(f(a), f(b)) minus the log integral mean.  rhs: (b-a)/2
    times the integral of (2t-1) ln f* along the chord.
    """
    return trapezoid_identity_on(Probe(model, iv, quad), tolerance)


def trapezoid_identity_on(probe, tolerance=DEFAULT_IDENTITY_TOL):
    """trapezoid_identity with its lhs read from a shared core.Probe."""
    model, iv, quad = probe.model, probe.iv, probe.quad
    _require_inside(model, iv)
    a, b = iv.a, iv.b
    lhs = probe.ln_g_ab - probe.mean
    chord = integrate(lambda t: (2.0 * t - 1.0) * star_values(model, a + t * (b - a)),
                      _UNIT, quad, breakpoints=_mapped_breakpoints(model, a, b)).checked_value()
    rhs = 0.5 * iv.length * chord
    return _report("trapezoid", lhs, rhs, tolerance)


def parts_identity(model, g, g_prime, iv, quad=None, tolerance=DEFAULT_IDENTITY_TOL):
    """Integration by parts in the multiplicative setting, in logs:

        integral of g ln f*  =  g(b) ln f(b) - g(a) ln f(a) - integral of g' ln f

    g and g_prime must accept numpy arrays.
    """
    _require_inside(model, iv)
    a, b = iv.a, iv.b
    lhs = integrate(lambda t: np.asarray(g(t), dtype=float) * star_values(model, t),
                    iv, quad, breakpoints=model.breakpoints).checked_value()
    tail = integrate(lambda t: np.asarray(g_prime(t), dtype=float) * np.asarray(model.ln_f(t), dtype=float),
                     iv, quad, breakpoints=model.breakpoints).checked_value()
    rhs = float(g(b)) * float(model.ln_f(b)) - float(g(a)) * float(model.ln_f(a)) - tail
    return _report("parts", lhs, rhs, tolerance)


def substitution_identity(model, h, h_prime, g, g_prime, iv, quad=None,
                          tolerance=DEFAULT_IDENTITY_TOL, breakpoints=()):
    """Substitution form of the parts identity, endpoints taken verbatim:

        integral of h' g (ln f* o h)
            =  g(b) ln f(b) - g(a) ln f(a) - integral of g' (ln f o h)

    Note the right side evaluates ln f at the outer endpoints a, b, not at
    h(a), h(b).  That matches the stated form, which is an equality when h
    fixes the endpoints (h(a)=a, h(b)=b, as in every use that motivated
    it); for other h this checker still reports the residual of the stated
    form, it just will not be zero.  `breakpoints` are t-space knots for
    panel alignment when the caller knows them.
    """
    a, b = iv.a, iv.b
    probe = np.linspace(a, b, 65)
    h_vals = np.asarray(h(probe), dtype=float)
    if not (np.all(h_vals >= model.domain.a - 1e-12) and np.all(h_vals <= model.domain.b + 1e-12)):
        raise DomainError("h does not map %r into model domain %r" % (iv, model.domain))
    for end in (a, b):
        if not model.domain.contains(end, tol=1e-12):
            raise DomainError("endpoint t=%r outside model domain %r "
                              "(required by the stated right-hand side)" % (end, model.domain))

    def lhs_integrand(t):
        return (np.asarray(h_prime(t), dtype=float) * np.asarray(g(t), dtype=float)
                * star_values(model, np.asarray(h(t), dtype=float)))

    def tail_integrand(t):
        return np.asarray(g_prime(t), dtype=float) * np.asarray(model.ln_f(np.asarray(h(t), dtype=float)), dtype=float)

    lhs = integrate(lhs_integrand, iv, quad, breakpoints=breakpoints).checked_value()
    tail = integrate(tail_integrand, iv, quad, breakpoints=breakpoints).checked_value()
    rhs = float(g(b)) * float(model.ln_f(b)) - float(g(a)) * float(model.ln_f(a)) - tail
    return _report("substitution", lhs, rhs, tolerance)
