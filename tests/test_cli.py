"""Command-line behavior: exit codes, JSON output, settings precedence,
scan determinism and replay."""

import argparse
import csv
import json
import math

import pytest

import mulcalc.cli as cli
from mulcalc import QuadratureConfig
from mulcalc.cli import (CSV_COLUMNS, QUAD_TOL_ENV, expression_fn,
                         family_from_args, main, numeric_derivative,
                         resolve_quad_config, trial_seed)

# several fixtures run advisory hypothesis checks on models where the
# advisory fires by design; that warning is the feature, not noise
pytestmark = pytest.mark.filterwarnings(
    "ignore::mulcalc.errors.HypothesisWarning")

SQ = ["--fn", "exp_power", "--p", "2", "--a", "0", "--b", "1"]
RECIP = ["--fn", "exp_recip", "--a", "1", "--b", "2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestVerify:
    def test_midpoint_square_exponent(self, capsys):
        code, out, _ = run(capsys, ["verify", "--check", "midpoint"] + SQ)
        assert code == 0
        (rep,) = json_lines(out)
        assert rep["name"] == "midpoint" and rep["mode"] == "strict"
        assert rep["margin"] == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert rep["holds"] is True

    def test_all_checks_constant(self, capsys):
        code, out, _ = run(capsys, ["verify", "--fn", "constant", "--c", "2",
                                    "--a", "0", "--b", "1"])
        assert code == 0
        reps = json_lines(out)
        assert [r["name"] for r in reps] == ["hh_left", "hh_right", "midpoint",
                                             "midpoint_m", "midpoint_geo",
                                             "trapezoid", "trapezoid_m"]
        for r in reps:
            assert r["margin"] == pytest.approx(0.0, abs=1e-12)
            assert r["holds"] is True

    def test_strict_trapezoid_violation_exits_1(self, capsys):
        code, out, _ = run(capsys, ["verify", "--check", "trapezoid"] + RECIP)
        assert code == 1
        (rep,) = json_lines(out)
        assert rep["rhs_log"] == pytest.approx(-0.15625, abs=1e-12)
        assert rep["holds"] is False

    def test_robust_mode_flag(self, capsys):
        code, out, _ = run(capsys, ["verify", "--check", "trapezoid",
                                    "--mode", "robust"] + RECIP)
        assert code == 0
        (rep,) = json_lines(out)
        assert rep["mode"] == "robust"
        assert rep["rhs_log"] == pytest.approx(0.15625, abs=1e-12)

    def test_explicit_m_log(self, capsys):
        code, out, _ = run(capsys, ["verify", "--check", "trapezoid_m",
                                    "--m-log", "1.0", "--mode", "robust"] + RECIP)
        assert code == 0
        (rep,) = json_lines(out)
        assert rep["rhs_log"] == pytest.approx(0.25, abs=1e-12)

    def test_undersized_m_log_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify", "--check", "midpoint_m",
                                    "--m-log", "0.5", "--mode", "robust"] + RECIP)
        assert code == 2
        assert "not an upper bound" in err

    def test_family_spec_json(self, capsys):
        spec = json.dumps({"kind": "exp_power", "params": [2.0], "domain": [0.0, 1.0]})
        code, out, _ = run(capsys, ["verify", "--check", "midpoint", "--fn", spec])
        assert code == 0
        assert json_lines(out)[0]["margin"] == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_numerical_failure_exits_3(self, capsys):
        code, _, err = run(capsys, ["verify", "--check", "midpoint",
                                    "--quad-panels", "1",
                                    "--quad-max-subdivisions", "2",
                                    "--quad-abs-tol", "1e-300",
                                    "--quad-rel-tol", "1e-300"] + RECIP)
        assert code == 3
        assert "numerical failure" in err


class TestParsing:
    """argparse takes a separate token such as -9.0e-05, -0.5,1 or -t for a
    flag; main glues it to the flag before it.  The parser is built once
    per process."""

    def check_same_as_joined(self, capsys, argv, flag):
        code, out, err = run(capsys, argv)
        i = argv.index(flag)
        joined = argv[:i] + ["%s=%s" % (flag, argv[i + 1])] + argv[i + 2:]
        code_joined, out_joined, _ = run(capsys, joined)
        assert code != 2, err
        assert (code, out) == (code_joined, out_joined)
        return json_lines(out)

    def test_exponent_value_as_own_token(self, capsys):
        reps = self.check_same_as_joined(
            capsys, ["verify", "--fn", "exp_affine", "--alpha", "-1.9", "--beta", "-9.0e-05",
                     "--a", "1.4", "--b", "2.4", "--check", "hh"], "--beta")
        assert [r["name"] for r in reps] == ["hh_left", "hh_right"]

    def test_coefficient_list_as_own_token(self, capsys):
        reps = self.check_same_as_joined(
            capsys, ["verify", "--fn", "exp_poly", "--coeffs", "-0.5,1", "--a", "0", "--b", "1"],
            "--coeffs")
        assert len(reps) == 7

    def test_expression_values_as_own_tokens(self, capsys):
        (rep,) = self.check_same_as_joined(
            capsys, ["identity", "--identity", "parts", "--g", "-t"] + SQ, "--g")
        assert rep["holds"] is True
        argv = ["identity", "--identity", "substitution", "--g", "t", "--h", "-t+1"] + SQ
        (rep,) = self.check_same_as_joined(capsys, argv, "--h")
        assert rep["identity"] == "substitution"

    def test_help_and_switches_not_glued(self, capsys):
        code, out, _ = run(capsys, ["scan", "--timing", "-h"])
        assert code == 0 and "--replay" in out
        code, out, _ = run(capsys, ["identity", "--g", "--help"])
        assert code == 2 and out == ""
        code, _, err = run(capsys, ["scan", "--trials", "0", "--seed", "1", "--timing"])
        assert code == 0 and "wall_time_ms" in err

    def test_parser_built_once(self, capsys, monkeypatch):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["means", "--prop", "42", "--a", "1", "--b", "2",
                             "--variant", "corrected"]) == 0
        finally:
            cli._parser.cache_clear()
        assert builds == [1]


class TestIdentity:
    def test_midpoint_square_exponent(self, capsys):
        code, out, _ = run(capsys, ["identity", "--identity", "midpoint"] + SQ)
        assert code == 0
        (rep,) = json_lines(out)
        assert rep["identity"] == "midpoint"
        assert rep["lhs_log"] == pytest.approx(-1.0 / 12.0, abs=1e-10)
        assert rep["residual"] <= 1e-10

    def test_parts_with_expression(self, capsys):
        code, out, _ = run(capsys, ["identity", "--identity", "parts",
                                    "--g", "t", "--fn", "exp_affine",
                                    "--alpha", "1", "--beta", "0",
                                    "--a", "0", "--b", "1"])
        assert code == 0
        (rep,) = json_lines(out)
        assert rep["lhs_log"] == pytest.approx(0.5, abs=1e-9)
        assert rep["rhs_log"] == pytest.approx(0.5, abs=1e-9)

    def test_substitution_identity_map(self, capsys):
        code, out, _ = run(capsys, ["identity", "--identity", "substitution",
                                    "--g", "t", "--h", "t"] + SQ)
        assert code == 0
        assert json_lines(out)[0]["holds"] is True

    def test_missing_g_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["identity", "--identity", "parts"] + SQ)
        assert code == 2
        assert "--g" in err

    def test_quadrature_budget_miss_exits_3(self, capsys):
        code, out, err = run(capsys, ["identity", "--identity", "parts", "--g", "t",
                                      "--fn", "exp_power", "--p", "1.5", "--a", "0", "--b", "2",
                                      "--quad-panels", "1", "--quad-max-subdivisions", "1"])
        assert code == 3
        assert out == ""
        assert "numerical failure" in err

    def test_tolerance_flag_can_fail_the_check(self, capsys):
        code, out, _ = run(capsys, ["identity", "--identity", "midpoint",
                                    "--tolerance", "1e-300"] + RECIP)
        assert code == 1
        assert json_lines(out)[0]["holds"] is False


class TestMeans:
    def test_prop41(self, capsys):
        code, out, _ = run(capsys, ["means", "--prop", "41", "--a", "1",
                                    "--b", "2", "--p", "2"])
        assert code == 0
        (rep,) = json_lines(out)
        assert rep["name"] == "prop41"
        assert rep["lhs_log"] == pytest.approx(-1.0 / 12.0, abs=1e-12)
        assert rep["rhs_log"] == pytest.approx(0.75, abs=1e-12)

    def test_prop42_default_paper_fails(self, capsys):
        code, out, _ = run(capsys, ["means", "--prop", "42", "--a", "1", "--b", "2"])
        assert code == 1
        (rep,) = json_lines(out)
        assert rep["name"] == "prop42_paper"
        assert rep["rhs_log"] == pytest.approx(-0.0625, abs=1e-12)

    def test_prop42_corrected_holds(self, capsys):
        code, out, _ = run(capsys, ["means", "--prop", "42", "--a", "1",
                                    "--b", "2", "--variant", "corrected"])
        assert code == 0
        assert json_lines(out)[0]["rhs_log"] == pytest.approx(0.25, abs=1e-12)

    def test_prop41_needs_p(self, capsys):
        code, _, err = run(capsys, ["means", "--prop", "41", "--a", "1", "--b", "2"])
        assert code == 2
        assert "--p" in err


class TestUsageErrors:
    def test_missing_fn(self, capsys):
        assert run(capsys, ["verify", "--check", "midpoint"])[0] == 2

    def test_named_family_needs_interval(self, capsys):
        code, _, err = run(capsys, ["verify", "--fn", "exp_recip"])
        assert code == 2
        assert "--a" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, ["verify", "--fn", "exp_cosh",
                                    "--a", "0", "--b", "1"])
        assert code == 2

    def test_invalid_domain(self, capsys):
        assert run(capsys, ["verify", "--fn", "exp_recip", "--a", "2",
                            "--b", "1"])[0] == 2

    def test_bad_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv(QUAD_TOL_ENV, "not-a-number")
        code, _, err = run(capsys, ["verify", "--check", "midpoint"] + SQ)
        assert code == 2
        assert QUAD_TOL_ENV in err

    def test_config_file_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1,2,3]")
        assert run(capsys, ["verify", "--config", str(path), "--check",
                            "midpoint"] + SQ)[0] == 2

    def test_config_file_missing(self, capsys, tmp_path):
        assert run(capsys, ["verify", "--config", str(tmp_path / "nope.json"),
                            "--check", "midpoint"] + SQ)[0] == 2

    def test_quad_method_removed(self, capsys, tmp_path):
        code, out, err = run(capsys, ["verify", "--quad-method", "adaptive_simpson"] + SQ)
        assert code == 2 and out == ""
        assert "--quad-method" in err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"quadrature": {"method": "adaptive_simpson"}}))
        code, out, err = run(capsys, ["verify", "--config", str(path)] + SQ)
        assert code == 2 and out == ""
        assert "unknown quadrature config keys: method" in err

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "verify" in capsys.readouterr().out


class TestSettingsPrecedence:
    def args(self, **kw):
        base = dict(quad_abs_tol=None, quad_rel_tol=None,
                    quad_panels=None, quad_max_subdivisions=None)
        base.update(kw)
        return argparse.Namespace(**base)

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(QUAD_TOL_ENV, raising=False)
        quad = resolve_quad_config(self.args(), {})
        assert quad.abs_tol == 1e-10 and quad.rel_tol == 1e-10
        assert quad == QuadratureConfig()

    def test_env_sets_both_tolerances(self, monkeypatch):
        monkeypatch.setenv(QUAD_TOL_ENV, "1e-8")
        quad = resolve_quad_config(self.args(), {})
        assert quad.abs_tol == 1e-8 and quad.rel_tol == 1e-8

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv(QUAD_TOL_ENV, "1e-8")
        quad = resolve_quad_config(self.args(), {"quadrature": {"abs_tol": 1e-7}})
        assert quad.abs_tol == 1e-7
        assert quad.rel_tol == 1e-8  # untouched by the config file

    def test_flags_override_config(self, monkeypatch):
        monkeypatch.setenv(QUAD_TOL_ENV, "1e-8")
        quad = resolve_quad_config(self.args(quad_abs_tol=1e-5, quad_panels=16),
                                   {"quadrature": {"abs_tol": 1e-7, "panels": 8}})
        assert quad.abs_tol == 1e-5
        assert quad.panels == 16
        assert quad.rel_tol == 1e-8

    def test_config_flows_into_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(QUAD_TOL_ENV, raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "robust"}))
        code, out, _ = run(capsys, ["verify", "--check", "trapezoid",
                                    "--config", str(path)] + RECIP)
        assert code == 0
        assert json_lines(out)[0]["mode"] == "robust"


class TestExpressions:
    def test_polynomial_derivative_exact(self):
        fn = expression_fn("t*t*t - 2*t")
        d = numeric_derivative(fn)
        assert float(d(1.5)) == pytest.approx(3 * 1.5**2 - 2.0, abs=1e-10)

    def test_numpy_names_available(self):
        fn = expression_fn("exp(sin(t)) + pi")
        assert float(fn(0.0)) == pytest.approx(1.0 + math.pi, abs=1e-12)

    def test_syntax_error(self):
        with pytest.raises(ValueError):
            expression_fn("t**")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            expression_fn("q + 1")


class TestFamilyFromArgs:
    def ns(self, **kw):
        base = dict(fn=None, a=None, b=None, c=None, alpha=1.0, beta=0.0,
                    p=None, coeffs=None, gen_seed=None, n_hinges=3,
                    nonneg_star=None)
        base.update(kw)
        return argparse.Namespace(**base)

    def test_json_domain_override(self):
        raw = json.dumps({"kind": "exp_power", "params": [2.0], "domain": [0.0, 1.0]})
        spec = family_from_args(self.ns(fn=raw, a=0.0, b=2.0))
        assert (spec.domain.a, spec.domain.b) == (0.0, 2.0)
        assert spec.kind == "exp_power"

    def test_exp_poly_coeff_parsing(self):
        spec = family_from_args(self.ns(fn="exp_poly", a=0.0, b=1.0,
                                        coeffs="0.5,-1,2"))
        assert spec.params == (0.5, -1.0, 2.0)

    def test_generator_family(self):
        spec = family_from_args(self.ns(fn="random_star_convex", a=0.0, b=1.0,
                                        gen_seed=11, nonneg_star="false"))
        assert spec.params == (11, 3, 0)


class TestScan:
    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, ["scan", "--trials", "0", "--seed", "1"])
        assert code == 0
        (summary,) = json_lines(out)
        assert summary["summary"]["trials"] == 0
        assert summary["summary"]["violating_trials"] == 0

    def test_needs_trials_and_seed(self, capsys):
        assert run(capsys, ["scan", "--trials", "5"])[0] == 2
        assert run(capsys, ["scan", "--seed", "5"])[0] == 2

    def test_deterministic_output(self, capsys):
        argv = ["scan", "--trials", "5", "--seed", "42"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        records = json_lines(out1)
        assert len(records) == 6  # 5 records + summary
        assert records[0]["trial_index"] == 0
        assert len(records[0]["checks"]) == 7

    def test_trial_seed_keyed_derivation(self):
        assert trial_seed(42, 0) == trial_seed(42, 0)
        assert trial_seed(42, 0) != trial_seed(42, 1)
        assert trial_seed(42, 0) != trial_seed(43, 0)

    def test_record_schema(self, capsys):
        _, out, _ = run(capsys, ["scan", "--trials", "1", "--seed", "3"])
        rec = json_lines(out)[0]
        assert list(rec) == ["trial_index", "seed", "family", "interval",
                             "identity_residuals", "checks"]
        assert rec["family"]["kind"] == "random_star_convex"
        assert len(rec["identity_residuals"]) == 2
        names = [c["name"] for c in rec["checks"]]
        assert names == ["hh_left", "hh_right", "midpoint", "midpoint_m",
                         "midpoint_geo", "trapezoid", "trapezoid_m"]

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out, _ = run(capsys, ["scan", "--trials", "2", "--seed", "9",
                                    "--format", "csv", "--out", str(out_file)])
        assert code == 0
        with open(out_file, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + 2 * 9  # header + (2 identities + 7 checks) per trial
        assert rows[1][5] == "midpoint_identity" and rows[2][5] == "trapezoid_identity"
        assert rows[3][5] == "hh_left" and rows[3][6] == "strict"
        # summary still goes to stdout, not the file
        assert json_lines(out)[0]["summary"]["trials"] == 2

    def test_violations_set_exit_code(self, capsys):
        code, out, _ = run(capsys, ["scan", "--trials", "100", "--seed", "7",
                                    "--nonneg-star", "false"])
        assert code == 1
        summary = json_lines(out)[-1]["summary"]
        assert summary["violating_trials"] > 0
        assert sum(summary["bound_violations"].values()) > 0
        assert summary["nonneg_star"] is False

    def test_replay_reproduces_record(self, capsys):
        _, out, _ = run(capsys, ["scan", "--trials", "3", "--seed", "11"])
        original = json_lines(out)[2]
        code, out2, _ = run(capsys, ["scan", "--replay", str(original["seed"])])
        assert code == 0
        replayed = json_lines(out2)[0]
        assert replayed["seed"] == original["seed"]
        assert replayed["family"] == original["family"]
        assert replayed["interval"] == original["interval"]
        assert replayed["identity_residuals"] == original["identity_residuals"]
        assert replayed["checks"] == original["checks"]

    def test_timing_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, ["scan", "--trials", "1", "--seed", "2",
                                      "--timing"])
        assert code == 0
        timing = json.loads(err.splitlines()[-1])
        assert timing["wall_time_ms"] > 0.0
        assert all("wall_time_ms" not in line for line in out.splitlines())

    def test_clean_scan_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["scan", "--trials", "50", "--seed", "42"])
        assert code == 0
        summary = json_lines(out)[-1]["summary"]
        assert summary["violating_trials"] == 0
        assert summary["identity_failures"] == {"midpoint": 0, "trapezoid": 0}
