"""Numerical integration backends.

Everything here integrates ordinary real-valued functions; the log-domain
bookkeeping lives in `core`.  Two methods are provided behind one config:

* ``gauss_legendre_composite`` - fixed-node Gauss-Legendre panels laid over
  the interval, refined by doubling the panel count until two successive
  resolutions agree.  Panels are aligned to any supplied breakpoints, so
  integrands that are piecewise-polynomial between their breakpoints come
  out exact (up to rounding) at the very first resolution.
* ``adaptive_simpson`` - the classic recursive Simpson scheme with the
  Richardson |S2 - S1| / 15 acceptance test.

A deliberately naive midpoint rule, `riemann_oracle`, is kept around as an
independent cross-check for tests; it shares no code with the real methods.
"""

import dataclasses
import functools
import math

import numpy as np

from .errors import NumericalFailure

_METHODS = ("gauss_legendre_composite", "adaptive_simpson")


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Settings shared by the integration routines.

    abs_tol / rel_tol combine as max(abs_tol, rel_tol * |value|); the larger
    of the two is what convergence is measured against.  `panels` is the
    starting panel count for the composite rule, `max_subdivisions` caps how
    many times it may be doubled (and doubles as the recursion depth limit
    for adaptive Simpson).
    """

    method: str = "gauss_legendre_composite"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 12
    panels: int = 64

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError("unknown quadrature method %r (expected one of %s)"
                             % (self.method, ", ".join(_METHODS)))
        if not (self.abs_tol > 0.0 and self.rel_tol >= 0.0):
            raise ValueError("tolerances must be positive, got abs_tol=%r rel_tol=%r"
                             % (self.abs_tol, self.rel_tol))
        if int(self.panels) < 1:
            raise ValueError("panels must be >= 1, got %r" % (self.panels,))
        if int(self.max_subdivisions) < 1:
            raise ValueError("max_subdivisions must be >= 1, got %r" % (self.max_subdivisions,))
        object.__setattr__(self, "abs_tol", float(self.abs_tol))
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        object.__setattr__(self, "max_subdivisions", int(self.max_subdivisions))
        object.__setattr__(self, "panels", int(self.panels))

    def tolerance_for(self, value):
        """The convergence target when the answer is near `value`."""
        return max(self.abs_tol, self.rel_tol * abs(value))

    def to_dict(self):
        return {
            "method": self.method,
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "max_subdivisions": self.max_subdivisions,
            "panels": self.panels,
        }

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError("unknown quadrature config keys: %s" % ", ".join(sorted(extra)))
        return cls(**d)


@dataclasses.dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def checked_value(self):
        """The value; NumericalFailure, carrying the estimate, when the
        refinement budget ran out before the tolerance was met."""
        if not self.converged:
            raise NumericalFailure("quadrature did not converge within budget "
                                   "(estimate %r, error estimate %r)"
                                   % (self.value, self.error_estimate),
                                   estimate=self.value, error_estimate=self.error_estimate)
        return self.value


@functools.lru_cache(maxsize=None)
def _gl_rule(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def _panel_edges(interval, panels, breakpoints):
    """Panel edges over `interval`: breakpoints become edges, and each
    resulting segment gets panels in proportion to its length (at least 1)."""
    a, b = interval.a, interval.b
    cuts = sorted({float(s) for s in breakpoints if a < s < b})
    seg_edges = [a] + cuts + [b]
    length = b - a
    edges = [a]
    for lo, hi in zip(seg_edges[:-1], seg_edges[1:]):
        n = max(1, int(round(panels * (hi - lo) / length)))
        edges.extend(lo + (hi - lo) * (k + 1) / n for k in range(n))
        edges[-1] = hi  # kill accumulated rounding at the seam
    return np.asarray(edges)


def composite_gauss_legendre(g, interval, panels, nodes=5, breakpoints=()):
    """Integral of g over the interval by `panels` Gauss-Legendre panels.

    Returns (value, evaluations).  Raises NumericalFailure if g produces a
    non-finite value anywhere on the node set.
    """
    x, w = _gl_rule(nodes)
    edges = _panel_edges(interval, panels, breakpoints)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    # shape (n_panels, nodes): every evaluation point at once
    ts = mid[:, None] + half[:, None] * x[None, :]
    with np.errstate(all="ignore"):
        vals = np.asarray(g(ts.ravel()), dtype=float).reshape(ts.shape)
    if not np.all(np.isfinite(vals)):
        bad = ts.ravel()[~np.isfinite(vals.ravel())][0]
        raise NumericalFailure("integrand not finite at t=%r" % float(bad))
    value = float(np.sum(half * (vals @ w)))
    return value, ts.size


def _adaptive_simpson(g, a, fa, b, fb, m, fm, whole, tol, depth, counter):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    counter[0] += 2
    for t, v in ((lm, flm), (rm, frm)):
        if not math.isfinite(v):
            raise NumericalFailure("integrand not finite at t=%r" % float(t))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, depth > 0
    lval, lerr, lok = _adaptive_simpson(g, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1, counter)
    rval, rerr, rok = _adaptive_simpson(g, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1, counter)
    return lval + rval, lerr + rerr, lok and rok


def integrate(g, interval, config=None, breakpoints=()):
    """Integrate g over the interval with the configured method.

    g must accept a numpy array for the composite rule; the adaptive rule
    calls it with scalars.  Returns a QuadratureResult; `converged` is False
    when the refinement budget ran out before the tolerance was met.
    """
    if config is None:
        config = QuadratureConfig()
    if config.method == "adaptive_simpson":
        a, b = interval.a, interval.b
        m = 0.5 * (a + b)
        with np.errstate(all="ignore"):
            fa, fm, fb = g(a), g(m), g(b)
            for t, v in ((a, fa), (m, fm), (b, fb)):
                if not math.isfinite(v):
                    raise NumericalFailure("integrand not finite at t=%r" % float(t))
            whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
            counter = [3]
            tol = config.tolerance_for(whole)
            value, err, ok = _adaptive_simpson(g, a, fa, b, fb, m, fm, whole, tol,
                                               config.max_subdivisions, counter)
        return QuadratureResult(value=float(value), error_estimate=float(err),
                                evaluations=counter[0], converged=bool(ok))

    panels = config.panels
    prev, n_eval = composite_gauss_legendre(g, interval, panels, breakpoints=breakpoints)
    total_eval = n_eval
    err = math.inf
    for _ in range(config.max_subdivisions):
        panels *= 2
        cur, n_eval = composite_gauss_legendre(g, interval, panels, breakpoints=breakpoints)
        total_eval += n_eval
        err = abs(cur - prev)
        if err <= config.tolerance_for(cur):
            return QuadratureResult(value=cur, error_estimate=err,
                                    evaluations=total_eval, converged=True)
        prev = cur
    return QuadratureResult(value=prev, error_estimate=err,
                            evaluations=total_eval, converged=False)


def riemann_oracle(g, interval, n=200_000):
    """Plain midpoint-rule estimate, kept independent of the real methods.

    Written in mean form (length times the average sample) so constants
    integrate exactly regardless of n.
    """
    edges = np.linspace(interval.a, interval.b, n + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return interval.length * float(np.mean(np.asarray(g(mids), dtype=float)))
