"""Inequality checkers, all reporting additive log-domain margins.

Two evaluation modes exist because the right-hand sides involve ln f*,
which the underlying proofs implicitly treat as nonnegative:

* strict - right-hand sides use ln f* exactly as stated.  Provably sound
  when ln f* >= 0 on the interval; elsewhere it can (and does) fail, which
  is precisely what the falsification scan looks for.
* robust - every ln f* term is replaced by |ln f*|.  Reported for
  comparison, asserted nowhere: no proof covers it.

The left-hand sides carry an absolute value in every statement, so lhs_log
is always |log of the stated product|, identical in both modes.

Every statement is one row of CHECKS, read off a core.Probe.  `verify`,
`scan` and its summary iterate the table through run_checks; the named
checkers below are one-group calls into it.
"""

import collections
import dataclasses
import functools
import warnings

import numpy as np

from .core import STAR_GRID_N, Probe
from .errors import HypothesisWarning, MBoundViolation
from .functions import is_mul_convex_sampled, star_model

MODES = ("strict", "robust")

# holds means margin >= -HOLDS_SLACK; the slack absorbs representation
# noise at exact-equality cases (constant models) without masking real
# violations, which show up orders of magnitude larger.
HOLDS_SLACK = 1e-12

_HYPOTHESIS_PAIRS = 128


@dataclasses.dataclass(frozen=True)
class BoundReport:
    name: str
    mode: str
    lhs_log: float
    rhs_log: float
    margin: float
    holds: bool

    def to_dict(self):
        return {"name": self.name, "mode": self.mode, "lhs_log": self.lhs_log,
                "rhs_log": self.rhs_log, "margin": self.margin, "holds": self.holds}


@dataclasses.dataclass(frozen=True)
class MBound:
    """log of a uniform bound M with f* <= M (strict) or |ln f*| <= ln M
    (robust) on the interval; validated against a grid before use."""

    m_log: float


# One statement: `name` labels its report, `check` is the group that
# `verify --check` selects, `convex` the function its hypothesis needs
# convex.  lhs(probe) and rhs(probe, s, m_log) give its two sides, where s
# shapes an ln f* term for the mode and m_log() is ln M.
Check = collections.namedtuple("Check", "name check convex lhs rhs")


def _mid_dev(p):
    return abs(p.ln_f_ends[1] - p.mean)


def _trap_dev(p):
    return abs(p.ln_g_ab - p.mean)


def _endpoint_rhs(p, s, m_log):
    return (p.iv.length / 8.0) * (s(p.star_ends[0]) + s(p.star_ends[2]))


def _uniform_rhs(p, s, m_log):
    return 0.25 * p.iv.length * m_log()


CHECKS = (
    Check("hh_left", "hh", "ln f", lambda p: p.ln_f_ends[1], lambda p, s, m_log: p.mean),
    Check("hh_right", "hh", "ln f", lambda p: p.mean, lambda p, s, m_log: p.ln_g_ab),
    Check("midpoint", "midpoint", "ln f*", _mid_dev,
          lambda p, s, m_log: (p.iv.length / 24.0) * (s(p.star_ends[0]) + 4.0 * s(p.star_ends[1])
                                                      + s(p.star_ends[2]))),
    Check("midpoint_m", "midpoint_m", "ln f*", _mid_dev, _uniform_rhs),
    Check("midpoint_geo", "midpoint_geo", "ln f*", _mid_dev, _endpoint_rhs),
    Check("trapezoid", "trapezoid", "ln f*", _trap_dev, _endpoint_rhs),
    Check("trapezoid_m", "trapezoid_m", "ln f*", _trap_dev, _uniform_rhs),
)

CHECK_NAMES = tuple(dict.fromkeys(row.check for row in CHECKS))

# per hypothesis: the model that must be multiplicatively convex, and the
# warning when sampling says it is not
_HYPOTHESES = {
    "ln f": (lambda model: model, "%(label)s does not look multiplicatively convex on %(iv)r; "
                                  "the sandwich may fail legitimately"),
    "ln f*": (star_model, "ln f* does not look convex on %(iv)r for %(label)s; the bound's "
                          "hypothesis fails and the report is advisory"),
}


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError("mode must be one of %s, got %r" % (", ".join(MODES), mode))


def _m_log(probe, m, mode):
    """ln M: the grid supremum of the mode's ln f* term when m is None,
    else m.m_log once the grid confirms it dominates that term; raises
    MBoundViolation naming the worst offending point."""
    _check_mode(mode)
    ts, ls = probe.star_grid
    shaped = np.abs(ls) if mode == "robust" else ls
    if m is None:
        return float(np.max(shaped))
    worst = int(np.argmax(shaped - m.m_log))
    if shaped[worst] > m.m_log + 1e-9:
        raise MBoundViolation("m_log=%r is not an upper bound: ln f* term %r at t=%r (mode %s)"
                              % (m.m_log, float(shaped[worst]), float(ts[worst]), mode))
    return m.m_log


def run_checks(probe, checks=CHECK_NAMES, mode="strict", m=None, check_hypothesis=True):
    """Reports of the CHECKS rows whose group is in `checks`, in table
    order.  m is an explicit MBound for the uniform-bound rows, validated
    against the grid; None takes the grid supremum for the mode.  Each
    hypothesis is sampled at most once per call."""
    _check_mode(mode)
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError("unknown checks %s (expected some of %s)"
                         % (", ".join(sorted(unknown)), ", ".join(CHECK_NAMES)))
    s = abs if mode == "robust" else (lambda x: x)
    m_log = functools.cache(lambda: _m_log(probe, m, mode))
    advised = set()
    reports = []
    for row in CHECKS:
        if row.check not in checks:
            continue
        if check_hypothesis and row.convex not in advised:
            advised.add(row.convex)
            as_model, message = _HYPOTHESES[row.convex]
            if not is_mul_convex_sampled(as_model(probe.model), probe.iv,
                                         n_pairs=_HYPOTHESIS_PAIRS, seed=0):
                warnings.warn(message % {"label": probe.model.label or "model", "iv": probe.iv},
                              HypothesisWarning, stacklevel=2)
        # rhs first: an explicit M that fails validation is reported before any quadrature
        rhs, lhs = float(row.rhs(probe, s, m_log)), float(row.lhs(probe))
        margin = rhs - lhs
        reports.append(BoundReport(name=row.name, mode=mode, lhs_log=lhs, rhs_log=rhs,
                                   margin=margin, holds=bool(margin >= -HOLDS_SLACK)))
    return reports


def validate_m_bound(model, iv, m, mode, n=STAR_GRID_N):
    """Grid check that m really dominates ln f* in the given mode's sense;
    raises MBoundViolation naming the worst offending point."""
    _m_log(Probe(model, iv, grid_n=n), m, mode)


def grid_sup_m_bound(model, iv, mode, n=STAR_GRID_N):
    """The tightest grid-based MBound for this model and mode."""
    return MBound(m_log=_m_log(Probe(model, iv, grid_n=n), None, mode))


def hh_check(model, iv, quad=None, mode="strict", check_hypothesis=True):
    """The two-sided sandwich on the log integral mean:

        ln f(m)  <=  mean  <=  (ln f(a) + ln f(b)) / 2

    Returns (left report, right report).  Needs f itself multiplicatively
    convex; no ln f* terms appear, so `mode` only labels the reports.
    """
    return tuple(run_checks(Probe(model, iv, quad), ("hh",), mode, None, check_hypothesis))


def midpoint_bound(model, iv, quad=None, mode="strict", check_hypothesis=True):
    """|ln f(m) - mean| against the Simpson-weighted endpoint combination
    (b-a)/24 * (s(ls_a) + 4 s(ls_m) + s(ls_b))."""
    return run_checks(Probe(model, iv, quad), ("midpoint",), mode, None, check_hypothesis)[0]


def midpoint_bound_M(model, iv, quad=None, m=None, mode="strict", check_hypothesis=True):
    """Midpoint deviation against the uniform-bound form (b-a)/4 * ln M.
    m defaults to the grid supremum for the mode; an explicit m is
    validated against the grid first."""
    return run_checks(Probe(model, iv, quad), ("midpoint_m",), mode, m, check_hypothesis)[0]


def midpoint_bound_geo(model, iv, quad=None, mode="strict", check_hypothesis=True):
    """Midpoint deviation against the endpoint-only form
    (b-a)/8 * (s(ls_a) + s(ls_b))."""
    return run_checks(Probe(model, iv, quad), ("midpoint_geo",), mode, None, check_hypothesis)[0]


def trapezoid_bound(model, iv, quad=None, mode="strict", check_hypothesis=True):
    """|log G(f(a), f(b)) - mean| against (b-a)/8 * (s(ls_a) + s(ls_b))."""
    return run_checks(Probe(model, iv, quad), ("trapezoid",), mode, None, check_hypothesis)[0]


def trapezoid_bound_M(model, iv, quad=None, m=None, mode="strict", check_hypothesis=True):
    """Trapezoid deviation against the uniform-bound form (b-a)/4 * ln M."""
    return run_checks(Probe(model, iv, quad), ("trapezoid_m",), mode, m, check_hypothesis)[0]
