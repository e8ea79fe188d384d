"""Numerical integration.

Everything here integrates ordinary real-valued functions; the log-domain
bookkeeping lives in `core`.  One scheme does all of it: 5-node
Gauss-Legendre panels, aligned to any supplied breakpoints, refined by
bisecting only the panels whose error estimate is still too large (the
QAG policy of QUADPACK, Piessens et al. 1983, on the Gauss-Legendre rule).
Integrands that are piecewise-polynomial between their breakpoints come
out exact (up to rounding) on the first panels; an endpoint singularity
costs refinement near that endpoint only.

A deliberately naive midpoint rule, `riemann_oracle`, is kept around as an
independent cross-check for tests; it shares no code with `integrate`.
"""

import dataclasses
import functools

import numpy as np

from .errors import NumericalFailure

_NODES = 5  # Gauss-Legendre nodes per panel: exact through degree 9


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Settings shared by the integration routines.

    abs_tol / rel_tol combine as max(abs_tol, rel_tol * |value|); the larger
    of the two is what convergence is measured against.  `panels` is the
    starting panel count, `max_subdivisions` the deepest a starting panel
    may be bisected, so the finest panel is 2**max_subdivisions times
    narrower than a starting one.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 12
    panels: int = 64

    def __post_init__(self):
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
        return dataclasses.asdict(self)

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


def _panel_values(g, lo, hi, nodes=_NODES):
    """Gauss-Legendre estimate on each panel [lo[i], hi[i]], with g called
    once on every node of every panel.  Raises NumericalFailure if g
    produces a non-finite value anywhere on the node set."""
    x, w = _gl_rule(nodes)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    # shape (n_panels, nodes): every evaluation point at once
    ts = mid[:, None] + half[:, None] * x[None, :]
    with np.errstate(all="ignore"):
        vals = np.asarray(g(ts.ravel()), dtype=float).reshape(ts.shape)
    if not np.all(np.isfinite(vals)):
        bad = ts.ravel()[~np.isfinite(vals.ravel())][0]
        raise NumericalFailure("integrand not finite at t=%r" % float(bad))
    return half * (vals @ w)


def composite_gauss_legendre(g, interval, panels, nodes=_NODES, breakpoints=()):
    """Integral of g over the interval by `panels` Gauss-Legendre panels.

    Returns (value, evaluations).  Raises NumericalFailure if g produces a
    non-finite value anywhere on the node set.
    """
    edges = _panel_edges(interval, panels, breakpoints)
    values = _panel_values(g, edges[:-1], edges[1:], nodes)
    return float(np.sum(values)), values.size * nodes


def integrate(g, interval, config=None, breakpoints=()):
    """Integrate g over the interval by locally refined Gauss-Legendre panels.

    g must accept a numpy array.  The first `config.panels` panels are
    aligned to the breakpoints.  Each level bisects every active panel in
    one call of g and takes |children - parent| as that panel's error; a
    panel whose error is within its length's share of the tolerance is
    retired, and the rest are bisected again, at most
    `config.max_subdivisions` times.  The run stops once the summed error
    of all panels meets `config.tolerance_for(value)`.  Returns a
    QuadratureResult; on a budget miss it carries the finest estimate with
    `converged` False.
    """
    if config is None:
        config = QuadratureConfig()
    edges = _panel_edges(interval, config.panels, breakpoints)
    lo, hi = edges[:-1], edges[1:]
    coarse = _panel_values(g, lo, hi)
    evaluations = _NODES * coarse.size
    retired_value = retired_err = 0.0
    for _ in range(config.max_subdivisions):
        n, width = lo.size, hi - lo
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        halves = _panel_values(g, lo, hi)
        evaluations += _NODES * halves.size
        fine = halves[:n] + halves[n:]
        err = np.abs(fine - coarse)
        value = retired_value + float(np.sum(fine))
        error_estimate = retired_err + float(np.sum(err))
        tol = config.tolerance_for(value)
        if error_estimate <= tol:
            return QuadratureResult(value=value, error_estimate=error_estimate,
                                    evaluations=evaluations, converged=True)
        done = err <= tol * width / interval.length
        if done.all():  # retired errors outgrew a shrinking tolerance
            done[np.argmax(err)] = False
        retired_value += float(np.sum(fine[done]))
        retired_err += float(np.sum(err[done]))
        split = np.tile(~done, 2)  # both halves of every panel still active
        lo, hi, coarse = lo[split], hi[split], halves[split]
    return QuadratureResult(value=value, error_estimate=error_estimate,
                            evaluations=evaluations, converged=False)


def riemann_oracle(g, interval, n=200_000):
    """Plain midpoint-rule estimate, kept independent of `integrate`.

    Written in mean form (length times the average sample) so constants
    integrate exactly regardless of n.
    """
    edges = np.linspace(interval.a, interval.b, n + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return interval.length * float(np.mean(np.asarray(g(mids), dtype=float)))
