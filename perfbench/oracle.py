"""Independent checks of mulcalc's outputs, computed with mpmath.

Nothing here imports mulcalc.  Each model is rebuilt from its family's
definition at 50 significant digits: ln f, ln f* and the exact mean of
ln f over [a, b].  The inputs are the same doubles the program parsed.

Error bound for `verify` and `means` (see README.md): every reported
lhs_log, rhs_log and margin must lie within

    TOL_ULPS * u * max(1, S),    u = 2**-53,  TOL_ULPS = 2**10,

of the exact value, where S is the largest magnitude among the terms the
statement is made of (ln f at a, m and b, the mean, and each right-hand
side term).  Double precision holds each term to u*S; 2**10 leaves room
for the few dozen roundings of a stable evaluation.  A verdict must match
the sign of the exact margin whenever |margin| exceeds that bound, and
an exact equality (margin 0 in exact arithmetic) must be reported as
holding.
"""

import json

import mpmath as mp
import numpy as np

mp.mp.dps = 50

U = 2.0 ** -53
TOL_ULPS = 2.0 ** 10

CHECK_NAMES = ("hh_left", "hh_right", "midpoint", "midpoint_m", "midpoint_geo",
               "trapezoid", "trapezoid_m")


class Model:
    """ln f, ln f* and the exact mean of ln f for one family on [a, b]."""

    def __init__(self, kind, params, a, b):
        self.a, self.b = mp.mpf(a), mp.mpf(b)
        self.breaks = []
        L = self.b - self.a
        if kind == "constant":
            c = mp.log(mp.mpf(params[0]))
            self.lnf = lambda t: c
            self.lnfs = lambda t: mp.mpf(0)
            self.mean = c
        elif kind == "exp_affine":
            al, be = mp.mpf(params[0]), mp.mpf(params[1])
            self.lnf = lambda t: al * t + be
            self.lnfs = lambda t: al
            self.mean = al * (self.a + self.b) / 2 + be
        elif kind == "exp_power":
            p = mp.mpf(params[0])
            self.lnf = lambda t: mp.power(t, p)
            self.lnfs = lambda t: p * mp.power(t, p - 1)
            self.mean = (mp.power(self.b, p + 1) - mp.power(self.a, p + 1)) / ((p + 1) * L)
        elif kind == "exp_recip":
            self.lnf = lambda t: 1 / t
            self.lnfs = lambda t: -1 / (t * t)
            self.mean = (mp.log(self.b) - mp.log(self.a)) / L
        elif kind == "exp_poly":
            cs = [mp.mpf(c) for c in params]
            self.lnf = lambda t: sum(c * t ** k for k, c in enumerate(cs))
            self.lnfs = lambda t: sum(k * c * t ** (k - 1) for k, c in enumerate(cs) if k)
            self.mean = sum(c * (self.b ** (k + 1) - self.a ** (k + 1)) / (k + 1)
                            for k, c in enumerate(cs)) / L
        elif kind == "random_star_convex":
            self._random_star(*params)
        else:
            raise ValueError(kind)

    def _random_star(self, seed, n_hinges, nonneg):
        # the generator's documented draw order: q, alpha, beta, hinge
        # locations (sorted), hinge coefficients
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        q = mp.mpf(rng.uniform(0.0, 1.5))
        al = mp.mpf(rng.uniform(0.0, 2.0))
        be = mp.mpf(rng.uniform(-1.0, 2.0))
        a_f, b_f = float(self.a), float(self.b)
        ss = [mp.mpf(s) for s in np.sort(rng.uniform(a_f, b_f, int(n_hinges)))]
        cs = [mp.mpf(c) for c in rng.uniform(0.0, 2.0, int(n_hinges))]
        a, b = self.a, self.b

        def h(t, be):
            return q * t * t + al * t + be + sum(c * max(t - s, 0) for s, c in zip(ss, cs))

        if nonneg:
            # h is convex: its minimum is at a piece edge or a parabola vertex
            pts = [a, b] + [s for s in ss if a < s < b]
            if q > 0:
                for k in range(len(ss) + 1):
                    slope = al + sum(cs[:k])
                    v = -slope / (2 * q)
                    if a < v < b:
                        pts.append(v)
            low = min(h(t, be) for t in pts)
            if low < 0:
                be = be - low
        self.lnfs = lambda t: h(t, be)
        self.lnf = lambda t: (q * (t ** 3 - a ** 3) / 3 + al * (t * t - a * a) / 2 + be * (t - a)
                              + sum(c * max(t - s, 0) ** 2 / 2 for s, c in zip(ss, cs)))
        L = b - a
        self.mean = (q * ((b ** 4 - a ** 4) / 12 - a ** 3 * L / 3)
                     + al * ((b ** 3 - a ** 3) / 6 - a * a * L / 2) + be * L * L / 2
                     + sum(c * max(b - s, 0) ** 3 / 6 for s, c in zip(ss, cs))) / L
        self.breaks = [s for s in ss if a < s < b]

    def quad_mean(self):
        """The mean by mpmath quadrature of ln f, split at the breakpoints."""
        return mp.quad(self.lnf, [self.a] + self.breaks + [self.b]) / (self.b - self.a)


def tolerance(terms):
    return TOL_ULPS * U * max(1.0, max(abs(float(t)) for t in terms))


def _close(x, exact, tol):
    return isinstance(x, (int, float)) and abs(x - exact) <= tol


def _verdict_ok(holds, margin, tol, scale):
    if abs(margin) <= mp.mpf(10) ** -40 * scale:
        return holds is True          # exact equality must hold
    if margin > tol:
        return holds is True
    if margin < -tol:
        return holds is False
    return isinstance(holds, bool)


def check_report(rep, lhs, rhs, tol, scale):
    """Problems with one BoundReport dict against exact lhs/rhs."""
    bad = []
    margin = rhs - lhs
    for key, exact in (("lhs_log", lhs), ("rhs_log", rhs), ("margin", margin)):
        if not _close(rep.get(key), exact, tol):
            bad.append("%s %s=%r, exact %s (tol %.3g)"
                       % (rep.get("name"), key, rep.get(key), mp.nstr(exact, 17), tol))
    if not _verdict_ok(rep.get("holds"), margin, tol, scale):
        bad.append("%s holds=%r, exact margin %s" % (rep.get("name"), rep.get("holds"),
                                                      mp.nstr(margin, 17)))
    return bad


def _parse_lines(out):
    try:
        return [json.loads(line) for line in out.splitlines() if line]
    except ValueError as exc:
        return "unparsable output: %s" % exc


def expected_verify(op, model):
    """Exact (name, lhs, rhs) of each verify report, and the scale S."""
    a, b = model.a, model.b
    m = (a + b) / 2
    L = b - a
    robust = op["mode"] == "robust"
    s = (lambda x: abs(x)) if robust else (lambda x: x)
    fa, fm, fb = model.lnf(a), model.lnf(m), model.lnf(b)
    ha, hm, hb = model.lnfs(a), model.lnfs(m), model.lnfs(b)
    mean = model.mean
    # every family here has s(ln f*) monotone or convex on [a, b], so its
    # supremum (the default M) is at an endpoint
    M = mp.mpf(op["m_log"]) if op["m_log"] is not None else max(s(ha), s(hb))
    avg = (fa + fb) / 2
    mid_dev = abs(fm - mean)
    trap_dev = abs(avg - mean)
    geo = L / 8 * (s(ha) + s(hb))
    rows = [
        ("hh_left", fm, mean),
        ("hh_right", mean, avg),
        ("midpoint", mid_dev, L / 24 * (s(ha) + 4 * s(hm) + s(hb))),
        ("midpoint_m", mid_dev, L / 4 * M),
        ("midpoint_geo", mid_dev, geo),
        ("trapezoid", trap_dev, geo),
        ("trapezoid_m", trap_dev, L / 4 * M),
    ]
    terms = [fa, fm, fb, mean, L * ha, L * hm, L * hb, L * M]
    return rows, terms


def check_verify(op, rc, out):
    reps = _parse_lines(out)
    if isinstance(reps, str):
        return [reps]
    model = Model(*op["family"])
    rows, terms = expected_verify(op, model)
    tol = tolerance(terms)
    scale = max(1.0, max(abs(float(t)) for t in terms))
    names = tuple(r.get("name") for r in reps)
    if names != CHECK_NAMES:
        return ["reports %r, expected %r" % (names, CHECK_NAMES)]
    bad = []
    for rep, (name, lhs, rhs) in zip(reps, rows):
        if rep.get("mode") != op["mode"]:
            bad.append("%s mode %r" % (name, rep.get("mode")))
        bad += check_report(rep, lhs, rhs, tol, scale)
    bad += _check_rc(rc, reps)
    return bad


def _check_rc(rc, reps):
    want = 0 if all(r.get("holds") is True for r in reps) else 1
    return [] if rc == want else ["exit code %r, expected %d" % (rc, want)]


def check_means(op, rc, out):
    reps = _parse_lines(out)
    if isinstance(reps, str):
        return [reps]
    if len(reps) != 1:
        return ["%d reports, expected 1" % len(reps)]
    a, b = mp.mpf(op["a"]), mp.mpf(op["b"])
    if op["prop"] == "41":
        p = mp.mpf(op["p"])
        A = (a + b) / 2
        lp = (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))
        lhs = A ** p - lp
        rhs = p * (b - a) * (a ** (p - 1) + b ** (p - 1)) / 8
        name, mode, terms = "prop41", "strict", [A ** p, lp, rhs]
    else:
        H = 2 * a * b / (a + b)
        Lm = (b - a) / (mp.log(b) - mp.log(a))
        lhs = 1 / H - 1 / Lm
        if op["variant"] == "paper":
            rhs, name, mode = -(b - a) / (4 * b * b), "prop42_paper", "strict"
        else:
            rhs, name, mode = (b - a) / (4 * a * a), "prop42_corrected", "robust"
        terms = [1 / H, 1 / Lm, rhs]
    rep = reps[0]
    bad = []
    if (rep.get("name"), rep.get("mode")) != (name, mode):
        bad.append("report %r/%r, expected %s/%s" % (rep.get("name"), rep.get("mode"), name, mode))
    tol = tolerance(terms)
    bad += check_report(rep, lhs, rhs, tol, max(1.0, max(abs(float(t)) for t in terms)))
    return bad + _check_rc(rc, reps)


G_FUNCS = {
    "sin": lambda k: lambda t: mp.sin(k * t),
    "cos": lambda k: lambda t: mp.cos(k * t),
    "expneg": lambda k: lambda t: mp.exp(-k * t),
    "sin_shift": lambda k: lambda t: mp.sin(k * t) + 2,
    "quad": lambda k: lambda t: t * t - k * t,
}


def identity_value(op, model):
    """The exact common value of both sides of the identity."""
    a, b = model.a, model.b
    which = op["identity"]
    if which == "midpoint":
        return model.lnf((a + b) / 2) - model.mean
    if which == "trapezoid":
        return (model.lnf(a) + model.lnf(b)) / 2 - model.mean
    g = G_FUNCS[op["g"][0]](mp.mpf(op["g"][1]))
    with mp.workdps(25):
        if which == "parts":
            return mp.quad(lambda t: g(t) * model.lnfs(t), [a, b])
        # substitution through u = a + (t - a)^2 / (b - a), u' = 2 (t - a) / (b - a)
        L = b - a
        return mp.quad(lambda t: 2 * (t - a) / L * g(t) * model.lnfs(a + (t - a) ** 2 / L), [a, b])


def check_identity(op, rc, out):
    reps = _parse_lines(out)
    if isinstance(reps, str):
        return [reps]
    if len(reps) != 1:
        return ["%d reports, expected 1" % len(reps)]
    rep = reps[0]
    exact = identity_value(op, Model(*op["family"]))
    tol = op["tolerance"]
    bad = []
    if rep.get("identity") != op["identity"]:
        bad.append("identity %r" % rep.get("identity"))
    for key in ("lhs_log", "rhs_log"):
        if not _close(rep.get(key), exact, tol):
            bad.append("%s=%r, exact %s (tol %g)" % (key, rep.get(key), mp.nstr(exact, 17), tol))
    if rep.get("holds") is not True:
        bad.append("holds=%r on an exact identity" % rep.get("holds"))
    return bad + _check_rc(rc, reps)


SCAN_TOLERANCE = 1e-8  # the identity tolerance a scan runs with


def check_scan(op, rc, out, n_trials, sample):
    """Every record in the proven regime must hold: all checks hold and
    both identity residuals are within tolerance.  For the record indices
    in `sample`, the mean (hh_left's rhs) must match an mpmath integral of
    ln f split at the model's breakpoints.  Returns (problems, records by
    trial index)."""
    lines = out.splitlines()
    try:
        recs = [json.loads(line) for line in lines]
    except ValueError as exc:
        return ["unparsable output: %s" % exc], {}
    if len(recs) != n_trials + 1 or "summary" not in recs[-1]:
        return ["%d lines, expected %d records and a summary" % (len(recs), n_trials)], {}
    bad = []
    records = {}
    for i, (line, rec) in enumerate(zip(lines, recs[:-1])):
        records[i] = line
        if rec.get("trial_index") != i:
            bad.append("record %d has trial_index %r" % (i, rec.get("trial_index")))
        res = rec.get("identity_residuals", [])
        if len(res) != 2 or not all(isinstance(r, float) and 0 <= r <= SCAN_TOLERANCE for r in res):
            bad.append("trial %d identity residuals %r" % (i, res))
        checks = rec.get("checks", [])
        names_ok = tuple(c.get("name") for c in checks) == CHECK_NAMES
        if not names_ok:
            bad.append("trial %d checks %r" % (i, [c.get("name") for c in checks]))
        for c in checks:
            if c.get("holds") is not True:
                bad.append("trial %d %s does not hold: %r" % (i, c.get("name"), c))
        fam = rec.get("family", {})
        iv = rec.get("interval")
        if fam.get("kind") != "random_star_convex" or fam.get("domain") != iv \
                or fam.get("params", [None])[1:] != [3, 1]:
            bad.append("trial %d family %r" % (i, fam))
        elif names_ok and i in sample:
            model = Model("random_star_convex", fam["params"], iv[0], iv[1])
            exact = model.quad_mean()
            got = checks[0].get("rhs_log")
            tol = tolerance([model.lnf(model.a), model.lnf(model.b), exact])
            if not _close(got, exact, tol):
                bad.append("trial %d mean %r, mpmath %s (tol %.3g)"
                           % (i, got, mp.nstr(exact, 17), tol))
    summ = recs[-1]["summary"]
    want = {"trials": n_trials, "violating_trials": 0}
    if any(summ.get(k) != v for k, v in want.items()) \
            or any(summ.get("identity_failures", {"x": 1}).values()) \
            or any(summ.get("bound_violations", {"x": 1}).values()):
        bad.append("summary %r" % summ)
    if rc != 0:
        bad.append("exit code %r, expected 0" % rc)
    return bad, records


def check_op(workload, op, rc, out):
    if workload == "verify":
        return check_verify(op, rc, out) if op["family"] else check_means(op, rc, out)
    return check_identity(op, rc, out)
