"""Built-in function families and the random model generator.

Every family is an exponential e^{phi(t)}, so positivity is automatic and
the model is fully described by phi = ln f.  The random generator works the
hypothesis side: the inequality theorems constrain f via convexity of
ln f*, so it draws a convex piecewise function h directly, uses it as
ln f*, and integrates to get ln f.  That makes the hypothesis hold by
construction instead of by rejection sampling.
"""

import dataclasses
import math
from typing import Tuple

import numpy as np

from .core import FunctionModel, star_values
from .errors import DomainError
from .interval import Interval

FAMILY_KINDS = ("constant", "exp_affine", "exp_power", "exp_recip", "exp_poly",
                "random_star_convex")


@dataclasses.dataclass(frozen=True)
class FamilySpec:
    """Serializable description of a model: a kind tag, its parameters, and
    the domain it lives on.  JSON keys: kind, params, domain=[a, b]."""

    kind: str
    params: Tuple
    domain: Interval

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError("unknown family kind %r (expected one of %s)"
                             % (self.kind, ", ".join(FAMILY_KINDS)))
        object.__setattr__(self, "params", tuple(self.params))

    def to_dict(self):
        return {"kind": self.kind, "params": list(self.params),
                "domain": [self.domain.a, self.domain.b]}

    @classmethod
    def from_dict(cls, d):
        extra = set(d) - {"kind", "params", "domain"}
        if extra:
            raise ValueError("unknown FamilySpec keys: %s" % ", ".join(sorted(extra)))
        a, b = d["domain"]
        return cls(kind=d["kind"], params=tuple(d.get("params", ())), domain=Interval(a, b))


def _expect_params(spec, n):
    if len(spec.params) != n:
        raise ValueError("%s expects %d parameter(s), got %r" % (spec.kind, n, list(spec.params)))


def _constant_model(spec):
    _expect_params(spec, 1)
    c = float(spec.params[0])
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError("constant family needs c > 0, got %r" % (c,))
    log_c = math.log(c)
    return FunctionModel(
        ln_f=lambda t: np.zeros_like(np.asarray(t, dtype=float)) + log_c,
        ln_f_star=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        domain=spec.domain,
        label="constant(%g)" % c,
        closed_form_mean_log=log_c,
        ln_f_antideriv=lambda t: log_c * t,
    )


def _exp_affine_model(spec):
    _expect_params(spec, 2)
    alpha, beta = (float(p) for p in spec.params)
    iv = spec.domain
    return FunctionModel(
        ln_f=lambda t: alpha * np.asarray(t, dtype=float) + beta,
        ln_f_star=lambda t: np.zeros_like(np.asarray(t, dtype=float)) + alpha,
        domain=iv,
        label="exp_affine(%g,%g)" % (alpha, beta),
        closed_form_mean_log=alpha * iv.midpoint + beta,
        ln_f_antideriv=lambda t: 0.5 * alpha * t * t + beta * t,
    )


def _exp_power_model(spec):
    _expect_params(spec, 1)
    p = float(spec.params[0])
    iv = spec.domain
    p_is_integer = float(p).is_integer()
    if iv.a < 0.0 and not p_is_integer:
        raise ValueError("exp_power with non-integer p=%r needs a domain in [0, inf), got %r" % (p, iv))
    if p < 1.0:
        # ln f* = p t^{p-1} blows up (or t^p itself does) at t = 0
        if not (iv.a > 0.0 or iv.b < 0.0):
            raise ValueError("exp_power with p=%r < 1 needs a domain excluding 0, got %r" % (p, iv))

    def ln_f(t):
        return np.power(np.asarray(t, dtype=float), p)

    def ln_f_star(t):
        return p * np.power(np.asarray(t, dtype=float), p - 1.0)

    if p == -1.0:
        antideriv = lambda t: np.log(np.abs(np.asarray(t, dtype=float)))
    else:
        antideriv = lambda t: np.power(np.asarray(t, dtype=float), p + 1.0) / (p + 1.0)
    cfml = (float(antideriv(iv.b)) - float(antideriv(iv.a))) / iv.length
    return FunctionModel(ln_f=ln_f, ln_f_star=ln_f_star, domain=iv,
                         label="exp_power(%g)" % p, closed_form_mean_log=cfml,
                         ln_f_antideriv=antideriv)


def _exp_recip_model(spec):
    _expect_params(spec, 0)
    iv = spec.domain
    if iv.a <= 0.0 <= iv.b:
        raise ValueError("exp_recip needs a domain excluding 0, got %r" % (iv,))

    def ln_f(t):
        return 1.0 / np.asarray(t, dtype=float)

    def ln_f_star(t):
        ta = np.asarray(t, dtype=float)
        return -1.0 / (ta * ta)

    antideriv = lambda t: np.log(np.abs(np.asarray(t, dtype=float)))
    cfml = (math.log(abs(iv.b)) - math.log(abs(iv.a))) / iv.length
    return FunctionModel(ln_f=ln_f, ln_f_star=ln_f_star, domain=iv,
                         label="exp_recip", closed_form_mean_log=cfml,
                         ln_f_antideriv=antideriv)


def _exp_poly_model(spec):
    if not spec.params:
        raise ValueError("exp_poly expects at least one coefficient")
    coeffs = [float(c) for c in spec.params]
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    ipoly = poly.integ()
    iv = spec.domain
    cfml = (float(ipoly(iv.b)) - float(ipoly(iv.a))) / iv.length
    return FunctionModel(
        ln_f=lambda t: poly(np.asarray(t, dtype=float)),
        ln_f_star=lambda t: dpoly(np.asarray(t, dtype=float)),
        domain=iv,
        label="exp_poly(%s)" % ",".join("%g" % c for c in coeffs),
        closed_form_mean_log=cfml,
        ln_f_antideriv=lambda t: ipoly(np.asarray(t, dtype=float)),
    )


def make_model(spec):
    """Realize a FamilySpec as a FunctionModel with analytic ln f, ln f*,
    and an antiderivative of ln f where one exists."""
    if spec.kind == "constant":
        return _constant_model(spec)
    if spec.kind == "exp_affine":
        return _exp_affine_model(spec)
    if spec.kind == "exp_power":
        return _exp_power_model(spec)
    if spec.kind == "exp_recip":
        return _exp_recip_model(spec)
    if spec.kind == "exp_poly":
        return _exp_poly_model(spec)
    # random_star_convex: params are (seed, n_hinges, nonneg01)
    _expect_params(spec, 3)
    seed, n_hinges, nonneg = spec.params
    gp = GeneratorParams(seed=int(seed), n_hinges=int(n_hinges),
                         nonneg_star=bool(int(nonneg)))
    return random_star_convex(gp, spec.domain)


@dataclasses.dataclass(frozen=True)
class GeneratorParams:
    """Knobs for random_star_convex.  Same params + same domain give the
    same model, bit for bit.

    The generated ln f* is h(t) = q t^2 + alpha t + beta + sum of hinge
    terms c_i * max(0, t - s_i).  q and the c_i are drawn nonnegative so h
    is convex; alpha is drawn nonnegative so h is also nondecreasing on
    domains in [0, inf), which keeps ln f convex (f multiplicatively
    convex).  nonneg_star additionally shifts beta so min h = max(min h, 0),
    putting the model inside the regime where the strict-mode bounds are
    proven.
    """

    seed: int
    n_hinges: int = 3
    quad_range: Tuple[float, float] = (0.0, 1.5)
    slope_range: Tuple[float, float] = (0.0, 2.0)
    offset_range: Tuple[float, float] = (-1.0, 2.0)
    hinge_coeff_range: Tuple[float, float] = (0.0, 2.0)
    nonneg_star: bool = True

    def __post_init__(self):
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer, got %r" % (self.seed,))
        if int(self.n_hinges) < 0:
            raise ValueError("n_hinges must be >= 0, got %r" % (self.n_hinges,))
        for name in ("quad_range", "slope_range", "offset_range", "hinge_coeff_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError("%s must be (lo, hi) with lo <= hi, got %r" % (name, (lo, hi)))
        if self.quad_range[0] < 0.0 or self.hinge_coeff_range[0] < 0.0:
            raise ValueError("quadratic and hinge coefficients must be nonnegative "
                             "(convexity of ln f* by construction)")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n_hinges", int(self.n_hinges))


def _piecewise_min(q, alpha, beta, hinges, coeffs, iv):
    """Exact minimum of h over [a, b]: check both edges of every hinge
    piece plus any interior parabola vertex."""
    edges = [iv.a] + [s for s in hinges if iv.a < s < iv.b] + [iv.b]
    best = math.inf

    def h_at(t):
        acc = q * t * t + alpha * t + beta
        for s, c in zip(hinges, coeffs):
            if t > s:
                acc += c * (t - s)
        return acc

    for lo, hi in zip(edges[:-1], edges[1:]):
        best = min(best, h_at(lo), h_at(hi))
        # on this piece h(t) = q t^2 + (alpha + cum_active) t + const
        cum = sum(c for s, c in zip(hinges, coeffs) if s <= lo)
        if q > 0.0:
            vertex = -(alpha + cum) / (2.0 * q)
            if lo < vertex < hi:
                best = min(best, h_at(vertex))
    return best


def random_star_convex(params, domain):
    """Draw a model whose ln f* is convex piecewise-quadratic by
    construction; ln f is its exact piecewise integral from the left
    endpoint.

    Draw order is fixed (q, alpha, beta, hinge locations, hinge
    coefficients) so the mapping from seed to model is stable.
    """
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    q = rng.uniform(*params.quad_range)
    alpha = rng.uniform(*params.slope_range)
    beta = rng.uniform(*params.offset_range)
    hinges = np.sort(rng.uniform(domain.a, domain.b, params.n_hinges))
    coeffs = rng.uniform(*params.hinge_coeff_range, params.n_hinges)

    if params.nonneg_star:
        low = _piecewise_min(q, alpha, beta, list(hinges), list(coeffs), domain)
        if low < 0.0:
            beta -= low

    a = domain.a

    def ln_f_star(t):
        ta = np.asarray(t, dtype=float)
        hinge_part = np.sum(coeffs * np.maximum(0.0, ta[..., None] - hinges), axis=-1)
        return q * ta * ta + alpha * ta + beta + hinge_part

    def ln_f(t):
        ta = np.asarray(t, dtype=float)
        hinge_part = np.sum(0.5 * coeffs * np.maximum(0.0, ta[..., None] - hinges) ** 2, axis=-1)
        return (q * (ta ** 3 - a ** 3) / 3.0 + 0.5 * alpha * (ta * ta - a * a)
                + beta * (ta - a) + hinge_part)

    def ln_f_antideriv(t):
        ta = np.asarray(t, dtype=float)
        hinge_part = np.sum(coeffs * np.maximum(0.0, ta[..., None] - hinges) ** 3 / 6.0, axis=-1)
        return (q * (ta ** 4 / 12.0 - a ** 3 * ta / 3.0)
                + alpha * (ta ** 3 / 6.0 - 0.5 * a * a * ta)
                + beta * (0.5 * ta * ta - a * ta) + hinge_part)

    return FunctionModel(ln_f=ln_f, ln_f_star=ln_f_star, domain=domain,
                         label="random_star_convex(seed=%d)" % params.seed,
                         breakpoints=tuple(float(s) for s in hinges),
                         ln_f_antideriv=ln_f_antideriv)


def star_model(model):
    """The model whose ln_f is the given model's ln_f*.  Convexity checks
    on the multiplicative derivative run through this."""
    return FunctionModel(ln_f=lambda t: star_values(model, t), ln_f_star=None,
                         domain=model.domain,
                         label="star(%s)" % (model.label or "model"),
                         breakpoints=model.breakpoints)


def is_mul_convex_sampled(model, iv, n_pairs=1000, seed=0):
    """Randomized midpoint-style test of multiplicative (log) convexity:
    ln f((1-t)x + t y) <= (1-t) ln f(x) + t ln f(y) + slack over sampled
    triples (x, y, t).  True means no violation was found.  The slack is
    8 rounding units of the magnitudes compared, so that log-affine models
    far from the origin pass, plus 1e-12 for cancellation inside ln f near
    its zeros, which those magnitudes do not show."""
    if not model.domain.contains_interval(iv):
        raise DomainError("interval %r not inside model domain %r" % (iv, model.domain))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs = rng.uniform(iv.a, iv.b, n_pairs)
    ys = rng.uniform(iv.a, iv.b, n_pairs)
    ts = rng.uniform(0.0, 1.0, n_pairs)
    mids = (1.0 - ts) * xs + ts * ys
    lhs = np.asarray(model.ln_f(mids), dtype=float)
    fx = (1.0 - ts) * np.asarray(model.ln_f(xs), dtype=float)
    fy = ts * np.asarray(model.ln_f(ys), dtype=float)
    slack = 1e-12 + 8.0 * np.finfo(float).eps * (np.abs(lhs) + np.abs(fx) + np.abs(fy))
    return bool(np.all(lhs <= fx + fy + slack))
