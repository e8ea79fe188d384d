"""Log-domain kernel for multiplicative calculus.

A positive quantity x is carried as ln x (LogValue); a positive function f
is carried as the pair (ln f, ln f*) where f* = e^{f'/f} is the
multiplicative derivative.  With that encoding:

    multiplicative integral   prod-integral of f over [a,b]
                              = exp( integral of ln f )
    multiplicative derivative ln f*(t) = (ln f)'(t)

so everything downstream is ordinary additive arithmetic on logs, and
nothing overflows no matter how violently f itself grows.
"""

import dataclasses
import functools
import math
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, DomainError, NumericalFailure
from .interval import Interval
from .quadrature import QuadratureConfig, integrate


@dataclasses.dataclass(frozen=True)
class LogValue:
    """A strictly positive real, stored as its natural log.

    Multiplication, division and powers of the represented values are
    addition, subtraction and scaling of the stored logs.
    """

    log: float

    def __post_init__(self):
        if not math.isfinite(self.log):
            raise ValueError("LogValue requires a finite log, got %r" % (self.log,))
        object.__setattr__(self, "log", float(self.log))

    @classmethod
    def from_value(cls, x):
        if not x > 0.0:
            raise ValueError("LogValue represents positive reals only, got %r" % (x,))
        return cls(math.log(x))

    @property
    def value(self):
        return math.exp(self.log)

    def __mul__(self, other):
        return LogValue(self.log + other.log)

    def __truediv__(self, other):
        return LogValue(self.log - other.log)

    def __pow__(self, exponent):
        return LogValue(self.log * float(exponent))


@dataclasses.dataclass(frozen=True)
class FunctionModel:
    """A positive function on a closed interval, in log form.

    ln_f must accept numpy arrays.  ln_f_star is optional; when absent the
    multiplicative derivative falls back to finite differences of ln_f.
    closed_form_mean_log, when set, is the analytic value of
    (1/(b-a)) * integral of ln f over the FULL domain.  ln_f_antideriv is an
    optional antiderivative of ln_f (any additive constant), which makes
    mean values on subintervals exact.  breakpoints lists interior knots of
    piecewise-defined models so quadrature panels can align with them.
    """

    ln_f: Callable
    ln_f_star: Optional[Callable]
    domain: Interval
    label: str = ""
    closed_form_mean_log: Optional[float] = None
    breakpoints: Tuple[float, ...] = ()
    ln_f_antideriv: Optional[Callable] = None

    def __post_init__(self):
        grid = np.linspace(self.domain.a, self.domain.b, 33)
        with np.errstate(all="ignore"):
            vals = np.asarray(self.ln_f(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = grid[~np.isfinite(np.broadcast_to(vals, grid.shape))][0]
            raise DomainError("ln_f is not finite at t=%r inside the declared domain %r"
                              % (float(bad), self.domain))


def _fd_ln_f_prime(ln_f, domain, ts):
    """(ln f)' by finite differences with one Richardson level.

    Centered stencils in the interior, second-order one-sided stencils when
    a point sits too close to an endpoint for the centered step to fit.
    Exact (to rounding) for polynomials of degree <= 4.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty_like(ts)
    h0 = np.maximum(1e-6, 1e-6 * np.abs(ts))
    h0 = np.minimum(h0, 0.25 * domain.length)
    d_lo = ts - domain.a
    d_hi = domain.b - ts
    centered = (d_lo >= h0) & (d_hi >= h0)
    if np.any(centered):
        t, h = ts[centered], h0[centered]

        def diff(hh):
            return (ln_f(t + hh) - ln_f(t - hh)) / (2.0 * hh)

        out[centered] = (4.0 * diff(0.5 * h) - diff(h)) / 3.0
    forward = ~centered & (d_hi >= d_lo)
    if np.any(forward):
        t = ts[forward]
        h = np.minimum(h0[forward], 0.5 * d_hi[forward])

        def diff(hh):
            return (-3.0 * ln_f(t) + 4.0 * ln_f(t + hh) - ln_f(t + 2.0 * hh)) / (2.0 * hh)

        out[forward] = (4.0 * diff(0.5 * h) - diff(h)) / 3.0
    backward = ~centered & ~forward
    if np.any(backward):
        t = ts[backward]
        h = np.minimum(h0[backward], 0.5 * d_lo[backward])

        def diff(hh):
            return (3.0 * ln_f(t) - 4.0 * ln_f(t - hh) + ln_f(t - 2.0 * hh)) / (2.0 * hh)

        out[backward] = (4.0 * diff(0.5 * h) - diff(h)) / 3.0
    return out


def star_values(model, ts):
    """Vectorized ln f* over points assumed to lie in the model's domain."""
    ts_arr = np.asarray(ts, dtype=float)
    shape = ts_arr.shape
    if model.ln_f_star is not None:
        vals = np.asarray(model.ln_f_star(ts_arr), dtype=float)
        if vals.shape != shape:
            vals = np.array(np.broadcast_to(vals, shape), dtype=float)
        return vals
    flat = _fd_ln_f_prime(model.ln_f, model.domain, ts_arr.ravel() if shape else ts_arr)
    return flat.reshape(shape) if shape else flat[0]


def mul_derivative_log(model, t):
    """ln f*(t), analytic when the model carries it, else finite difference."""
    t = float(t)
    if not model.domain.contains(t, tol=1e-12):
        raise DomainError("t=%r outside domain [%r, %r]" % (t, model.domain.a, model.domain.b))
    v = float(star_values(model, t))
    if not math.isfinite(v):
        raise NumericalFailure("ln f* not finite at t=%r" % t)
    return v


def mul_integral_log(model, iv, quad=None):
    """Log of the multiplicative integral of f over iv, i.e. the plain
    integral of ln f.

    Raises NumericalFailure (carrying the best estimate) if quadrature does
    not converge within its budget.
    """
    if not model.domain.contains_interval(iv):
        raise DomainError("interval [%r, %r] not inside model domain [%r, %r]"
                          % (iv.a, iv.b, model.domain.a, model.domain.b))
    return integrate(model.ln_f, iv, quad, breakpoints=model.breakpoints).checked_value()


def oriented_integral_log(model, a, b, quad=None):
    """mul_integral_log extended to the oriented conventions: zero width
    gives 0 and swapping the endpoints flips the sign."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    if a < b:
        return mul_integral_log(model, Interval(a, b), quad)
    return -mul_integral_log(model, Interval(b, a), quad)


def mean_log(model, iv, quad=None):
    """Log of the multiplicative integral mean over iv.

    The quadrature value is always computed.  When an analytic value is
    available (an antiderivative of ln f, or closed_form_mean_log when iv is
    the full domain) the two are cross-checked and the analytic one is
    returned; disagreement raises ConsistencyError.
    """
    if quad is None:
        quad = QuadratureConfig()
    numeric = mul_integral_log(model, iv, quad) / iv.length
    exact = None
    if model.ln_f_antideriv is not None:
        exact = (float(model.ln_f_antideriv(iv.b)) - float(model.ln_f_antideriv(iv.a))) / iv.length
    elif model.closed_form_mean_log is not None and iv == model.domain:
        exact = float(model.closed_form_mean_log)
    if exact is None:
        return numeric
    slack = max(1e-7, 100.0 * quad.tolerance_for(exact))
    if abs(numeric - exact) > slack:
        raise ConsistencyError("quadrature mean %r vs analytic mean %r differ by %r (> %r) for %s"
                               % (numeric, exact, abs(numeric - exact), slack, model.label or "model"))
    return exact


STAR_GRID_N = 257


class Probe:
    """What the inequality checks and the midpoint/trapezoid identities read
    about one model on one interval, each computed on first use and at most
    once: the log integral mean (through mean_log, so its cross-check
    runs), ln f and ln f* at a, m and b, and ln f* on a grid for M."""

    def __init__(self, model, iv, quad=None, grid_n=STAR_GRID_N):
        self.model, self.iv, self.quad, self.grid_n = model, iv, quad, grid_n

    @functools.cached_property
    def mean(self):
        return mean_log(self.model, self.iv, self.quad)

    @functools.cached_property
    def ln_f_ends(self):
        """ln f at a, m and b, one scalar call each."""
        return tuple(float(self.model.ln_f(t)) for t in (self.iv.a, self.iv.midpoint, self.iv.b))

    @property
    def ln_g_ab(self):
        """log of G(f(a), f(b))."""
        return 0.5 * (self.ln_f_ends[0] + self.ln_f_ends[2])

    @functools.cached_property
    def star_ends(self):
        """ln f* at a, m and b; ValueError unless all are finite."""
        iv = self.iv
        ends = tuple(float(v) for v in star_values(self.model, np.array([iv.a, iv.midpoint, iv.b])))
        if not all(math.isfinite(v) for v in ends):
            raise ValueError("ln f* at (a, m, b) is not finite: %r" % (ends,))
        return ends

    @functools.cached_property
    def star_grid(self):
        """(points, ln f* at the points), grid_n points over the interval."""
        ts = np.linspace(self.iv.a, self.iv.b, self.grid_n)
        return ts, np.asarray(star_values(self.model, ts), dtype=float)


def geometric_mean_log(x_log, y_log):
    """ln G(x, y) from ln x and ln y.  Written as a single symmetric sum so
    swapping the arguments is bit-identical."""
    return (x_log + y_log) / 2.0


COMBINE_OPS = ("product", "quotient", "scalar_multiple", "power_fn", "sum", "f_pow_g")


def _common_domain(f, g):
    a = max(f.domain.a, g.domain.a)
    b = min(f.domain.b, g.domain.b)
    if not a < b:
        raise DomainError("domains [%r, %r] and [%r, %r] do not overlap"
                          % (f.domain.a, f.domain.b, g.domain.a, g.domain.b))
    return Interval(a, b)


def _merged_breakpoints(domain, *models):
    pts = sorted({float(s) for m in models for s in m.breakpoints
                  if domain.a < s < domain.b})
    return tuple(pts)


def combine(op, f, g):
    """Algebra of positive functions with the multiplicative derivative
    carried along in closed form.

    op is one of product, quotient, scalar_multiple, power_fn, sum,
    f_pow_g.  For scalar_multiple g is a positive constant, for power_fn a
    real exponent; otherwise g is a second FunctionModel and the result
    lives on the domain intersection.

    The log-domain derivative rules:

        product          ls = ls_f + ls_g
        quotient         ls = ls_f - ls_g
        scalar_multiple  ls = ls_f
        power_fn p       ls = p * ls_f
        sum              ls = w_f*ls_f + w_g*ls_g,  w = f/(f+g), g/(f+g)
        f_pow_g          ls = g*ls_f + g'*ln f   (g' = g*ls_g)
    """
    if op not in COMBINE_OPS:
        raise ValueError("unknown combinator %r (expected one of %s)" % (op, ", ".join(COMBINE_OPS)))

    if op == "scalar_multiple":
        c = float(g)
        if not c > 0.0:
            raise ValueError("scalar_multiple needs a positive constant, got %r" % (g,))
        log_c = math.log(c)
        base_f, base_ad = f.ln_f, f.ln_f_antideriv
        return FunctionModel(
            ln_f=lambda t: log_c + base_f(t),
            ln_f_star=lambda t: star_values(f, t),
            domain=f.domain,
            label="%g*(%s)" % (c, f.label),
            closed_form_mean_log=None if f.closed_form_mean_log is None else log_c + f.closed_form_mean_log,
            breakpoints=f.breakpoints,
            ln_f_antideriv=None if base_ad is None else (lambda t: log_c * t + base_ad(t)),
        )

    if op == "power_fn":
        p = float(g)
        base_f, base_ad = f.ln_f, f.ln_f_antideriv
        return FunctionModel(
            ln_f=lambda t: p * base_f(t),
            ln_f_star=lambda t: p * star_values(f, t),
            domain=f.domain,
            label="(%s)^%g" % (f.label, p),
            closed_form_mean_log=None if f.closed_form_mean_log is None else p * f.closed_form_mean_log,
            breakpoints=f.breakpoints,
            ln_f_antideriv=None if base_ad is None else (lambda t: p * base_ad(t)),
        )

    domain = _common_domain(f, g)
    brk = _merged_breakpoints(domain, f, g)
    full_overlap = domain == f.domain == g.domain

    if op in ("product", "quotient"):
        sign = 1.0 if op == "product" else -1.0
        cfml = None
        if full_overlap and f.closed_form_mean_log is not None and g.closed_form_mean_log is not None:
            cfml = f.closed_form_mean_log + sign * g.closed_form_mean_log
        antideriv = None
        if f.ln_f_antideriv is not None and g.ln_f_antideriv is not None:
            fa, ga = f.ln_f_antideriv, g.ln_f_antideriv
            antideriv = lambda t, s=sign: fa(t) + s * ga(t)
        return FunctionModel(
            ln_f=lambda t, s=sign: f.ln_f(t) + s * g.ln_f(t),
            ln_f_star=lambda t, s=sign: star_values(f, t) + s * star_values(g, t),
            domain=domain,
            label="%s(%s,%s)" % (op, f.label, g.label),
            closed_form_mean_log=cfml,
            breakpoints=brk,
            ln_f_antideriv=antideriv,
        )

    if op == "sum":
        def ln_sum(t):
            return np.logaddexp(f.ln_f(t), g.ln_f(t))

        def ls_sum(t):
            lf = np.asarray(f.ln_f(t), dtype=float)
            lg = np.asarray(g.ln_f(t), dtype=float)
            tot = np.logaddexp(lf, lg)
            wf = np.exp(lf - tot)
            wg = np.exp(lg - tot)
            return wf * star_values(f, t) + wg * star_values(g, t)

        return FunctionModel(ln_f=ln_sum, ln_f_star=ls_sum, domain=domain,
                             label="sum(%s,%s)" % (f.label, g.label), breakpoints=brk)

    # f_pow_g: ln(f^g) = g ln f with g the positive function e^{ln g}
    def ln_pow(t):
        return np.exp(g.ln_f(t)) * f.ln_f(t)

    def ls_pow(t):
        gv = np.exp(g.ln_f(t))
        return gv * star_values(f, t) + gv * star_values(g, t) * f.ln_f(t)

    return FunctionModel(ln_f=ln_pow, ln_f_star=ls_pow, domain=domain,
                         label="(%s)^(%s)" % (f.label, g.label), breakpoints=brk)


def check_derivative_consistency(model, n=101):
    """Largest gap between the model's ln_f_star and a finite difference of
    its ln_f over an interior grid.  A cheap way to catch a wrong analytic
    derivative; tests pin this below 1e-6 for the built-in families."""
    pad = 1e-3 * model.domain.length
    grid = np.linspace(model.domain.a + pad, model.domain.b - pad, n)
    analytic = star_values(model, grid)
    fd = _fd_ln_f_prime(model.ln_f, model.domain, grid)
    return float(np.max(np.abs(analytic - fd)))
