"""Command-line front end.

Four subcommands: `verify` runs inequality checks on one model, `identity`
runs one exact-identity residual check, `scan` is the seeded falsification
harness over randomly generated models, and `means` runs the special-means
checks.  Reports are JSON, one object per line; scans can also emit CSV.

Exit codes: 0 everything checked holds, 1 some inequality or identity
failed, 2 usage or invalid input, 3 numerical failure (quadrature budget or
internal consistency).

Settings priority, lowest to highest: built-in defaults, the
MULCALC_QUAD_TOL environment variable, --config file entries, explicit
flags.
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from typing import Optional, Tuple

import numpy as np

from .bounds import CHECK_NAMES, CHECKS, MODES, MBound, run_checks
from .core import Probe
from .errors import ConsistencyError, DomainError, MBoundViolation, NumericalFailure
from .functions import FamilySpec, make_model
from .identities import (DEFAULT_IDENTITY_TOL, midpoint_identity, midpoint_identity_on,
                         parts_identity, substitution_identity, trapezoid_identity,
                         trapezoid_identity_on)
from .interval import Interval
from .means import MeanPair, prop41_check, prop42_check
from .quadrature import QuadratureConfig

QUAD_TOL_ENV = "MULCALC_QUAD_TOL"

# fixed CSV column order for scan records
CSV_COLUMNS = ("trial_index", "seed", "family", "a", "b", "check", "mode",
               "lhs_log", "rhs_log", "margin", "holds")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved settings for a scan; built and validated in full before any
    output is opened."""

    quad: QuadratureConfig
    mode: str
    fmt: str
    master_seed: Optional[int]
    n_trials: Optional[int]
    nonneg_star: bool
    n_hinges: int
    out_path: Optional[str]
    replay_seed: Optional[int]
    timing: bool

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("mode must be strict or robust, got %r" % (self.mode,))
        if self.fmt not in ("jsonl", "csv"):
            raise ValueError("format must be jsonl or csv, got %r" % (self.fmt,))
        if self.replay_seed is None:
            if self.n_trials is None or self.master_seed is None:
                raise ValueError("scan needs --trials and --seed (or --replay)")
            if self.n_trials < 0:
                raise ValueError("--trials must be >= 0")
        if self.n_hinges < 0:
            raise ValueError("--n-hinges must be >= 0")


@dataclasses.dataclass(frozen=True)
class ScanRecord:
    trial_index: int
    seed: int
    family: FamilySpec
    interval: Interval
    identities: Tuple  # the midpoint and trapezoid IdentityReports
    checks: Tuple

    def to_dict(self):
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "family": self.family.to_dict(),
            "interval": [self.interval.a, self.interval.b],
            "identity_residuals": [rep.residual for rep in self.identities],
            "checks": [c.to_dict() for c in self.checks],
        }


def _json_line(obj):
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# expression handling for --g / --h

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "pow": np.power, "pi": math.pi, "e": math.e,
}


def expression_fn(expr):
    """Compile an expression in the variable t (numpy semantics) into a
    vectorized callable.  Raises ValueError on syntax errors."""
    try:
        code = compile(expr, "<expr>", "eval")
    except SyntaxError as exc:
        raise ValueError("cannot parse expression %r: %s" % (expr, exc))

    def fn(t):
        ns = dict(_EXPR_NAMES)
        ns["t"] = t
        return eval(code, {"__builtins__": {}}, ns)

    try:
        np.asarray(fn(np.array([0.25, 0.5])), dtype=float)
    except Exception as exc:
        raise ValueError("expression %r does not evaluate on numbers: %s" % (expr, exc))
    return fn


def numeric_derivative(fn):
    """Derivative of an expression function by centered differences with
    one Richardson level; exact for polynomials up to degree 4."""

    def deriv(t):
        ta = np.asarray(t, dtype=float)
        h = 1e-4 * np.maximum(1.0, np.abs(ta))

        def diff(hh):
            return (np.asarray(fn(ta + hh), dtype=float)
                    - np.asarray(fn(ta - hh), dtype=float)) / (2.0 * hh)

        return (4.0 * diff(0.5 * h) - diff(h)) / 3.0

    return deriv


# ---------------------------------------------------------------------------
# flag / config / environment resolution

def _load_config_file(path):
    if path is None:
        return {}
    with open(path, "r") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("--config must contain a JSON object")
    return cfg


def resolve_quad_config(args, cfg):
    merged = QuadratureConfig().to_dict()
    env = os.environ.get(QUAD_TOL_ENV)
    if env is not None:
        try:
            tol = float(env)
        except ValueError:
            raise ValueError("%s must be a number, got %r" % (QUAD_TOL_ENV, env))
        merged["abs_tol"] = tol
        merged["rel_tol"] = tol
    file_quad = cfg.get("quadrature", {})
    if not isinstance(file_quad, dict):
        raise ValueError("config key 'quadrature' must be an object")
    merged.update(file_quad)
    for flag, key in (("quad_abs_tol", "abs_tol"), ("quad_rel_tol", "rel_tol"),
                      ("quad_panels", "panels"), ("quad_max_subdivisions", "max_subdivisions")):
        val = getattr(args, flag, None)
        if val is not None:
            merged[key] = val
    return QuadratureConfig.from_dict(merged)


def _resolve(args_value, cfg, key, default):
    if args_value is not None:
        return args_value
    if key in cfg:
        return cfg[key]
    return default


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    if text in ("true", "True", "1"):
        return True
    if text in ("false", "False", "0"):
        return False
    raise ValueError("expected true or false, got %r" % (text,))


# ---------------------------------------------------------------------------
# model construction from flags

def family_from_args(args):
    fn = args.fn
    if fn is None:
        raise ValueError("--fn is required")
    if fn.lstrip().startswith("{"):
        spec = FamilySpec.from_dict(json.loads(fn))
        if args.a is not None and args.b is not None:
            spec = FamilySpec(kind=spec.kind, params=spec.params,
                              domain=Interval(args.a, args.b))
        return spec
    if args.a is None or args.b is None:
        raise ValueError("--a and --b are required with a named family")
    domain = Interval(args.a, args.b)
    if fn == "constant":
        if args.c is None:
            raise ValueError("constant needs --c")
        return FamilySpec(kind="constant", params=(args.c,), domain=domain)
    if fn == "exp_affine":
        return FamilySpec(kind="exp_affine", params=(args.alpha, args.beta), domain=domain)
    if fn == "exp_power":
        if args.p is None:
            raise ValueError("exp_power needs --p")
        return FamilySpec(kind="exp_power", params=(args.p,), domain=domain)
    if fn == "exp_recip":
        return FamilySpec(kind="exp_recip", params=(), domain=domain)
    if fn == "exp_poly":
        if not args.coeffs:
            raise ValueError("exp_poly needs --coeffs c0,c1,...")
        coeffs = tuple(float(x) for x in args.coeffs.split(","))
        return FamilySpec(kind="exp_poly", params=coeffs, domain=domain)
    if fn == "random_star_convex":
        if args.gen_seed is None:
            raise ValueError("random_star_convex needs --gen-seed")
        nonneg = _parse_bool(args.nonneg_star if args.nonneg_star is not None else "true")
        return FamilySpec(kind="random_star_convex",
                          params=(int(args.gen_seed), int(args.n_hinges), int(nonneg)),
                          domain=domain)
    raise ValueError("unknown family %r (or pass a FamilySpec JSON object)" % (fn,))


# ---------------------------------------------------------------------------
# subcommands

def _emit(stream, text):
    stream.write(text + "\n")
    stream.flush()


def cmd_verify(args, cfg, quad):
    mode = _resolve(args.mode, cfg, "mode", "strict")
    spec = family_from_args(args)
    m = None if args.m_log is None else MBound(m_log=args.m_log)
    checks = CHECK_NAMES if args.check == "all" else (args.check,)
    reports = run_checks(Probe(make_model(spec), spec.domain, quad), checks, mode, m)
    for rep in reports:
        _emit(sys.stdout, _json_line(rep.to_dict()))
    return 0 if all(r.holds for r in reports) else 1


def cmd_identity(args, cfg, quad):
    spec = family_from_args(args)
    model = make_model(spec)
    iv = spec.domain
    tol = args.tolerance if args.tolerance is not None else DEFAULT_IDENTITY_TOL

    which = args.identity
    if which == "midpoint":
        rep = midpoint_identity(model, iv, quad, tolerance=tol)
    elif which == "trapezoid":
        rep = trapezoid_identity(model, iv, quad, tolerance=tol)
    else:
        if args.g is None:
            raise ValueError("--g is required for %s" % which)
        g = expression_fn(args.g)
        g_prime = numeric_derivative(g)
        if which == "parts":
            rep = parts_identity(model, g, g_prime, iv, quad, tolerance=tol)
        else:
            if args.h is None:
                raise ValueError("--h is required for substitution")
            h = expression_fn(args.h)
            h_prime = numeric_derivative(h)
            rep = substitution_identity(model, h, h_prime, g, g_prime, iv, quad, tolerance=tol)
    _emit(sys.stdout, _json_line(rep.to_dict()))
    return 0 if rep.holds else 1


def cmd_means(args, cfg, quad):
    if args.a is None or args.b is None:
        raise ValueError("--a and --b are required")
    mp = MeanPair(args.a, args.b)
    if args.prop == "41":
        if args.p is None:
            raise ValueError("--prop 41 needs --p")
        rep = prop41_check(mp, args.p, quad)
    else:
        variant = args.variant if args.variant is not None else "paper"
        rep = prop42_check(mp, variant)
    _emit(sys.stdout, _json_line(rep.to_dict()))
    return 0 if rep.holds else 1


def trial_seed(master_seed, index):
    """The 64-bit seed of one trial, derived from the master seed by keyed
    spawning so any record can be rerun standalone from its seed alone."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_trial(seed, run, index=0):
    """One falsification trial: draw an interval inside [0, 3], draw a
    model on it, run both identity checks and every bound check, all
    reading one Probe."""
    ss = np.random.SeedSequence(seed)
    iv_ss, model_ss = ss.spawn(2)
    rng = np.random.default_rng(iv_ss)
    a = rng.uniform(0.0, 2.5)
    length = rng.uniform(0.25, min(2.0, 3.0 - a))
    iv = Interval(a, a + length)
    model_seed = int(model_ss.generate_state(1, np.uint64)[0])
    spec = FamilySpec(kind="random_star_convex",
                      params=(model_seed, run.n_hinges, int(run.nonneg_star)),
                      domain=iv)
    probe = Probe(make_model(spec), iv, run.quad)
    return ScanRecord(trial_index=index, seed=seed, family=spec, interval=iv,
                      identities=(midpoint_identity_on(probe), trapezoid_identity_on(probe)),
                      checks=tuple(run_checks(probe, mode=run.mode, check_hypothesis=False)))


def _record_rows(record):
    """CSV rows for one record, identities first then bound checks."""
    fam = json.dumps({"kind": record.family.kind, "params": list(record.family.params)},
                     separators=(",", ":"))
    base = [record.trial_index, record.seed, fam, record.interval.a, record.interval.b]
    rows = []
    for rep in record.identities:
        rows.append(base + ["%s_identity" % rep.identity, "", rep.lhs_log, rep.rhs_log,
                            rep.tolerance - rep.residual, rep.holds])
    for rep in record.checks:
        rows.append(base + [rep.name, rep.mode, rep.lhs_log, rep.rhs_log, rep.margin, rep.holds])
    return rows


def cmd_scan(args, cfg, quad):
    nonneg_raw = _resolve(args.nonneg_star, cfg, "nonneg_star", "true")
    run = RunConfig(
        quad=quad,
        mode=_resolve(args.mode, cfg, "mode", "strict"),
        fmt=_resolve(args.format, cfg, "format", "jsonl"),
        master_seed=_resolve(args.seed, cfg, "seed", None),
        n_trials=_resolve(args.trials, cfg, "trials", None),
        nonneg_star=_parse_bool(nonneg_raw),
        n_hinges=_resolve(args.n_hinges, cfg, "n_hinges", 3),
        out_path=args.out,
        replay_seed=args.replay,
        timing=args.timing,
    )

    if run.replay_seed is not None:
        seeds = [int(run.replay_seed)]
    else:
        seeds = [trial_seed(run.master_seed, i) for i in range(run.n_trials)]

    out_stream = sys.stdout if run.out_path is None else open(run.out_path, "w", newline="")
    close_out = run.out_path is not None
    writer = None
    if run.fmt == "csv":
        writer = csv.writer(out_stream)
        writer.writerow(CSV_COLUMNS)
        out_stream.flush()

    t0 = time.perf_counter()
    identity_fail = {"midpoint": 0, "trapezoid": 0}
    bound_fail = dict.fromkeys((row.name for row in CHECKS), 0)
    violating_trials = 0
    try:
        for i, seed in enumerate(seeds):
            record = run_trial(seed, run, i)
            for rep in record.identities:
                identity_fail[rep.identity] += not rep.holds
            for rep in record.checks:
                bound_fail[rep.name] += not rep.holds
            violating_trials += not all(rep.holds for rep in record.identities + record.checks)
            if writer is not None:
                writer.writerows(_record_rows(record))
                out_stream.flush()
            else:
                _emit(out_stream, _json_line(record.to_dict()))
    finally:
        if close_out:
            out_stream.close()

    summary = {"summary": {
        "trials": len(seeds),
        "mode": run.mode,
        "nonneg_star": run.nonneg_star,
        "identity_failures": identity_fail,
        "bound_violations": bound_fail,
        "violating_trials": violating_trials,
    }}
    _emit(sys.stdout, _json_line(summary))
    if run.timing:
        elapsed_ms = 1000.0 * (time.perf_counter() - t0)
        _emit(sys.stderr, _json_line({"wall_time_ms": elapsed_ms}))
    return 1 if violating_trials else 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON settings file; flags override it")
    common.add_argument("--quad-abs-tol", type=float)
    common.add_argument("--quad-rel-tol", type=float)
    common.add_argument("--quad-panels", type=int)
    common.add_argument("--quad-max-subdivisions", type=int)

    fn_flags = argparse.ArgumentParser(add_help=False)
    fn_flags.add_argument("--fn", help="family name or FamilySpec JSON")
    fn_flags.add_argument("--a", type=float)
    fn_flags.add_argument("--b", type=float)
    fn_flags.add_argument("--c", type=float, help="constant family value")
    fn_flags.add_argument("--alpha", type=float, default=1.0)
    fn_flags.add_argument("--beta", type=float, default=0.0)
    fn_flags.add_argument("--p", type=float)
    fn_flags.add_argument("--coeffs", help="exp_poly coefficients c0,c1,...")
    fn_flags.add_argument("--gen-seed", type=int, help="random_star_convex seed")
    fn_flags.add_argument("--n-hinges", type=int, default=3)
    fn_flags.add_argument("--nonneg-star", choices=["true", "false"])

    parser = argparse.ArgumentParser(prog="mulcalc",
                                     description="log-domain multiplicative calculus checks")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_verify = sub.add_parser("verify", parents=[common, fn_flags],
                              help="run inequality checks on one model")
    p_verify.add_argument("--check", choices=list(CHECK_NAMES) + ["all"], default="all")
    p_verify.add_argument("--mode", choices=["strict", "robust"])
    p_verify.add_argument("--m-log", type=float,
                          help="log of the uniform bound M; default grid supremum")
    p_verify.set_defaults(fn_cmd=cmd_verify)

    p_identity = sub.add_parser("identity", parents=[common, fn_flags],
                                help="run one exact-identity residual check")
    p_identity.add_argument("--identity", required=True,
                            choices=["midpoint", "trapezoid", "parts", "substitution"])
    p_identity.add_argument("--g", help="expression in t, e.g. \"t\" or \"t*t-1\"")
    p_identity.add_argument("--h", help="expression in t (substitution map)")
    p_identity.add_argument("--tolerance", type=float)
    p_identity.set_defaults(fn_cmd=cmd_identity)

    p_scan = sub.add_parser("scan", parents=[common],
                            help="seeded falsification scan over generated models")
    p_scan.add_argument("--trials", type=int)
    p_scan.add_argument("--seed", type=int, help="master seed")
    p_scan.add_argument("--mode", choices=["strict", "robust"])
    p_scan.add_argument("--nonneg-star", choices=["true", "false"])
    p_scan.add_argument("--n-hinges", type=int)
    p_scan.add_argument("--out", help="write records here instead of stdout")
    p_scan.add_argument("--format", choices=["jsonl", "csv"])
    p_scan.add_argument("--replay", type=int, metavar="SEED",
                        help="rerun the single trial with this recorded seed")
    p_scan.add_argument("--timing", action="store_true",
                        help="report elapsed wall time on stderr after the run")
    p_scan.set_defaults(fn_cmd=cmd_scan)

    p_means = sub.add_parser("means", parents=[common], help="special-means checks")
    p_means.add_argument("--prop", required=True, choices=["41", "42"])
    p_means.add_argument("--a", type=float)
    p_means.add_argument("--b", type=float)
    p_means.add_argument("--p", type=float)
    p_means.add_argument("--variant", choices=["paper", "corrected"])
    p_means.set_defaults(fn_cmd=cmd_means)
    return parser


@functools.cache
def _parser():
    """The argparse tree, built once per process."""
    return build_parser()


def _join_negative_values(argv):
    """Glue a value such as -9.0e-05, -0.5,1 or -t to the flag before it:
    argparse reads a separate token of that form as an unknown flag.  The
    parser's only single-dash option is -h, so any other token with one
    leading dash is a value."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-(?!-)", token) and token != "-h"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _load_config_file(args.config)
        return args.fn_cmd(args, cfg, resolve_quad_config(args, cfg))
    except (NumericalFailure, ConsistencyError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (DomainError, MBoundViolation) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
