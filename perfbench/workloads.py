"""The operations of each workload, drawn from (workload, seed, round).

Every round of a workload has the same make-up: the same commands in the
same order, with parameters drawn afresh for each round.  The only
commands whose inputs do not depend on the seed are the far-from-origin
`verify` cases in FAULT_OPS; they are the same in every round, so the
share of failed operations is the same in every run.

An operation is a dict:
    argv     the mulcalc command line, floats written with repr() so the
             program parses exactly the doubles the oracle uses, and each
             valued flag as one --flag=value token
    family   (kind, params, a, b) for verify/identity, None otherwise
    ...      the remaining keys the oracle needs (mode, m_log, g, h)
    fault    for a FAULT_OPS case, the name of the fault it shows

This module needs only the standard library, so the measured process and
the checking process build the same operations.
"""

import random

WORKLOADS = ("scan", "verify", "identity")

# trials per `scan` command; one command is one round
SCAN_TRIALS_PER_ROUND = 20

# Far-from-origin verify cases.  mean_log takes F(b) - F(a) of the
# antiderivative, which cancels when |F| is large (core.mean_log).
FAULT_OPS = (
    ("exp_affine", (1.1, 0.2), 1e6 + 0.3, 1e6 + 1.0,
     "mean-cancellation: hh_left reports holds=false on an exact equality"),
    ("exp_affine", (1.1, 0.2), 3e7 + 0.3, 3e7 + 1.0,
     "mean-cancellation: hh_right reports holds=false on an exact equality"),
    ("exp_power", (2.0,), 1e5 + 0.1, 1e5 + 1.0,
     "mean-cancellation: hh_left margin 0.109 against the exact L^2/12 = 0.0675"),
)

# A uniform bound on ln f* for any random_star_convex model on a domain
# inside [0, 3]: q t^2 + alpha t + beta + sum c_i (t - s_i) is at most
# 1.5*9 + 2*3 + 2 + 3*2*3 = 39.5, plus a nonneg shift of at most 1.
RANDOM_STAR_M_LOG = 45.0


def _r(x):
    return repr(float(x))


def _opt(flag, value):
    # one token: argparse reads a separate "-9e-05" or "-0.5,1" as a flag
    return "--%s=%s" % (flag, value)


def _rng(workload, seed, round_index):
    return random.Random("%s:%d:%d" % (workload, seed, round_index))


def _interval(rng, lo, hi, min_len, max_len):
    length = rng.uniform(min_len, min(max_len, hi - lo))
    a = rng.uniform(lo, hi - length)
    return a, a + length


def _fn_argv(kind, params):
    if kind == "constant":
        return ["--fn", "constant", _opt("c", _r(params[0]))]
    if kind == "exp_affine":
        return ["--fn", "exp_affine", _opt("alpha", _r(params[0])), _opt("beta", _r(params[1]))]
    if kind == "exp_power":
        return ["--fn", "exp_power", _opt("p", _r(params[0]))]
    if kind == "exp_recip":
        return ["--fn", "exp_recip"]
    if kind == "exp_poly":
        return ["--fn", "exp_poly", _opt("coeffs", ",".join(_r(c) for c in params))]
    if kind == "random_star_convex":
        return ["--fn", "random_star_convex", "--gen-seed", str(params[0]),
                "--n-hinges", str(params[1]), "--nonneg-star", "true" if params[2] else "false"]
    raise ValueError(kind)


def _verify(kind, params, a, b, mode="strict", m_log=None, fault=None):
    argv = ["verify"] + _fn_argv(kind, params) + [_opt("a", _r(a)), _opt("b", _r(b)),
                                                  "--check", "all", "--mode", mode]
    if m_log is not None:
        argv.append(_opt("m-log", _r(m_log)))
    return {"argv": argv, "family": (kind, tuple(params), float(a), float(b)),
            "mode": mode, "m_log": m_log, "fault": fault}


def _means(prop, a, b, p=None, variant=None):
    argv = ["means", "--prop", prop, _opt("a", _r(a)), _opt("b", _r(b))]
    if p is not None:
        argv.append(_opt("p", _r(p)))
    if variant is not None:
        argv += ["--variant", variant]
    return {"argv": argv, "family": None, "prop": prop, "a": float(a), "b": float(b),
            "p": p, "variant": variant, "fault": None}


def verify_round(seed, round_index):
    rng = _rng("verify", seed, round_index)
    ops = []
    a, b = _interval(rng, 0.2, 3.0, 0.25, 2.0)
    ops.append(_verify("constant", (rng.uniform(0.2, 5.0),), a, b))
    for kind, params, fa, fb, fault in FAULT_OPS:
        ops.append(_verify(kind, params, fa, fb, fault=fault))
    a, b = _interval(rng, 0.0, 3.0, 0.25, 2.0)
    ops.append(_verify("exp_affine", (rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)), a, b))
    a, b = _interval(rng, 0.0, 3.0, 0.25, 2.0)
    ops.append(_verify("exp_affine", (rng.uniform(-2.0, -0.2), rng.uniform(-1.0, 1.0)), a, b,
                       mode="robust"))
    a, b = _interval(rng, 0.1, 3.0, 0.25, 2.0)
    ops.append(_verify("exp_power", (2.0,), a, b, m_log=2.0 * b + rng.uniform(0.0, 1.0)))
    a, b = _interval(rng, 0.0, 3.0, 0.25, 2.0)
    ops.append(_verify("exp_power", (3.0,), a, b, mode="robust"))
    a, b = _interval(rng, 0.1, 3.0, 0.25, 2.0)
    ops.append(_verify("exp_power", (1.5,), a, b))
    a, b = _interval(rng, 0.5, 3.0, 0.25, 2.0)
    ops.append(_verify("exp_recip", (), a, b))
    a, b = _interval(rng, 0.5, 3.0, 0.25, 2.0)
    ops.append(_verify("exp_recip", (), a, b, mode="robust",
                       m_log=1.0 / (a * a) + rng.uniform(0.0, 1.0)))
    a, b = _interval(rng, 0.0, 3.0, 0.25, 2.0)
    coeffs = (rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
              rng.uniform(0.0, 0.5))
    ops.append(_verify("exp_poly", coeffs, a, b))
    for mode, m_log in (("strict", None), ("robust", None), ("strict", RANDOM_STAR_M_LOG)):
        a, b = _interval(rng, 0.0, 3.0, 0.25, 2.0)
        ops.append(_verify("random_star_convex", (rng.randrange(2 ** 63), 3, 1), a, b,
                           mode=mode, m_log=m_log))
    for p in (2.0, 3.0):
        a, b = _interval(rng, 0.1, 3.0, 0.25, 2.0)
        ops.append(_means("41", a, b, p=p))
    for variant in ("paper", "corrected"):
        a, b = _interval(rng, 0.2, 3.0, 0.25, 2.0)
        ops.append(_means("42", a, b, variant=variant))
    return ops


# --g expressions by name, with k as %s; oracle.G_FUNCS holds the same
# functions in mpmath under the same names
G_FORMS = {
    "sin": "sin(%s*t)",
    "cos": "cos(%s*t)",
    "expneg": "exp(-%s*t)",
    "sin_shift": "sin(%s*t)+2",
    "quad": "t*t-%s*t",
}


def _identity(kind, params, a, b, identity, g=None, h=False):
    argv = ["identity"] + _fn_argv(kind, params) + [_opt("a", _r(a)), _opt("b", _r(b)),
                                                    "--identity", identity,
                                                    "--tolerance", "1e-08"]
    if g is not None:
        argv.append(_opt("g", G_FORMS[g[0]] % _r(g[1])))
    if h:
        # u = a + (t - a)^2 / (b - a) maps [a, b] onto itself, fixing both ends
        argv.append(_opt("h", "%s+(t-%s)**2/%s" % (_r(a), _r(a), _r(b - a))))
    return {"argv": argv, "family": (kind, tuple(params), float(a), float(b)),
            "identity": identity, "g": g, "h": h, "tolerance": 1e-8, "fault": None}


def identity_round(seed, round_index):
    rng = _rng("identity", seed, round_index)
    ops = []

    def iv(lo=0.5, hi=3.0):
        return _interval(rng, lo, hi, 0.25, 2.0)

    def poly():
        return (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5),
                rng.uniform(-0.3, 0.3))

    for identity in ("midpoint", "trapezoid"):
        ops.append(_identity("exp_recip", (), *iv(), identity))
        ops.append(_identity("exp_affine", (rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)),
                             *iv(0.0), identity))
        ops.append(_identity("exp_poly", poly(), *iv(0.0), identity))
        ops.append(_identity("exp_power", (3.0,), *iv(0.0), identity))
        ops.append(_identity("exp_power", (2.0,), *iv(0.0), identity))
    ops.append(_identity("exp_recip", (), *iv(), "parts", g=("sin", rng.uniform(0.5, 3.0))))
    ops.append(_identity("exp_poly", poly(), *iv(0.0), "parts", g=("cos", rng.uniform(0.5, 3.0))))
    ops.append(_identity("exp_power", (2.0,), *iv(0.0), "parts", g=("quad", rng.uniform(0.0, 2.0))))
    ops.append(_identity("exp_affine", (rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)), *iv(0.0),
                         "parts", g=("expneg", rng.uniform(0.1, 2.0))))
    ops.append(_identity("exp_power", (2.0,), *iv(0.0), "substitution",
                         g=("cos", rng.uniform(0.5, 3.0)), h=True))
    ops.append(_identity("exp_recip", (), *iv(), "substitution",
                         g=("expneg", rng.uniform(0.1, 2.0)), h=True))
    ops.append(_identity("exp_poly", poly(), *iv(0.0), "substitution",
                         g=("sin", rng.uniform(0.5, 3.0)), h=True))
    # exp(t^1.5) from the origin: ln f* = 1.5 sqrt(t) has an unbounded
    # derivative at 0, so these need the refinement loop
    b = rng.uniform(1.5, 2.5)
    ops.append(_identity("exp_power", (1.5,), 0.0, b, "trapezoid"))
    ops.append(_identity("exp_power", (1.5,), 0.0, rng.uniform(1.5, 2.5), "midpoint"))
    ops.append(_identity("exp_power", (1.5,), 0.0, rng.uniform(1.5, 2.5), "parts",
                         g=("sin_shift", rng.uniform(0.5, 1.5))))
    return ops


def scan_round(seed, round_index):
    """One `scan` command; its master seed is drawn from (seed, round)."""
    master = _rng("scan", seed, round_index).randrange(2 ** 63)
    argv = ["scan", "--trials", str(SCAN_TRIALS_PER_ROUND), "--seed", str(master),
            "--mode", "strict", "--nonneg-star", "true", "--n-hinges", "3"]
    return [{"argv": argv, "family": None, "master_seed": master, "fault": None}]


ROUNDS = {"scan": scan_round, "verify": verify_round, "identity": identity_round}


def round_ops(workload, seed, round_index):
    return ROUNDS[workload](seed, round_index)


def ops_per_command(workload):
    """Operations one command counts for: trials for scan, else 1."""
    return SCAN_TRIALS_PER_ROUND if workload == "scan" else 1
