"""Inequality checks and the strict/robust split.

The right-hand sides of the bound statements contain ln f* terms.  When
ln f* >= 0 on the interval the stated (strict) form is sound.  When ln f*
goes negative the strict right side can go negative while the left side
is an absolute value, and the bound fails; replacing each term by
|ln f*| (robust mode) restores it.  exp(1/t) is the stock example: its
ln f* = -1/t^2 is negative everywhere.
"""

import warnings

from mulcalc import (FamilySpec, HypothesisWarning, Interval, MBound, Probe,
                     make_model, run_checks)


def show(rep):
    print("  %-12s mode=%-7s lhs=% .6f rhs=% .6f margin=% .6f holds=%s"
          % (rep.name, rep.mode, rep.lhs_log, rep.rhs_log, rep.margin, rep.holds))


unit = Interval(0.0, 1.0)
f = make_model(FamilySpec("exp_power", (2.0,), unit))

# every statement is one row of the check table; run_checks goes through
# them in order, all reading one Probe (one mean, one set of ln f* values)
print("exp(t^2) on [0,1], ln f* = 2t >= 0, everything holds:")
for rep in run_checks(Probe(f, unit)):
    show(rep)

iv = Interval(1.0, 2.0)
g = make_model(FamilySpec("exp_recip", (), iv))
probe = Probe(g, iv)
print("\nexp(1/t) on [1,2], ln f* = -1/t^2 < 0:")
with warnings.catch_warnings():
    # the hypothesis advisory fires here by design; silence it for display
    warnings.simplefilter("ignore", HypothesisWarning)
    for mode in ("strict", "robust"):     # strict fails, robust holds
        for rep in run_checks(probe, ("midpoint", "trapezoid"), mode):
            show(rep)

    # uniform-bound variant.  In robust mode the tightest valid M has
    # ln M = sup |ln f*| = 1 (at t=1), giving rhs = 1/4.
    print("\nuniform-bound variant with explicit ln M = 1:")
    for rep in run_checks(probe, ("midpoint_m",), "robust", MBound(1.0)):
        show(rep)

# an undersized M is refused rather than silently reported
try:
    run_checks(probe, ("midpoint_m",), "robust", MBound(0.5), check_hypothesis=False)
except Exception as exc:
    print("\nundersized M rejected:", exc)
