"""The shared Probe and the check table: reports read from one Probe equal,
bit for bit, those of the public single-check and identity functions,
and each shared quantity costs one pass."""

import numpy as np
import pytest

import mulcalc.bounds as bounds_mod
import mulcalc.core as core_mod
import mulcalc.identities as identities_mod
from mulcalc import (CHECKS, FamilySpec, FunctionModel, HypothesisWarning, Interval,
                     MBound, MBoundViolation, Probe, QuadratureConfig, hh_check,
                     make_model, midpoint_bound, midpoint_bound_M, midpoint_bound_geo,
                     midpoint_identity, run_checks, trapezoid_bound, trapezoid_bound_M,
                     trapezoid_identity)
from mulcalc.bounds import CHECK_NAMES
from mulcalc.cli import RunConfig, main, run_trial, trial_seed

UNIT = Interval(0.0, 1.0)


def scan_run(mode, nonneg_star):
    return RunConfig(quad=QuadratureConfig(), mode=mode, fmt="jsonl", master_seed=1234,
                     n_trials=50, nonneg_star=nonneg_star, n_hinges=3, out_path=None,
                     replay_seed=None, timing=False)


def count_calls(monkeypatch, module, name, calls=None):
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode,nonneg_star", [("strict", True), ("robust", False)])
def test_scan_records_match_single_checks(mode, nonneg_star):
    run = scan_run(mode, nonneg_star)
    for i in range(50):
        record = run_trial(trial_seed(1234, i), run)
        model = make_model(record.family)
        iv = record.interval
        single = list(hh_check(model, iv, run.quad, mode=mode, check_hypothesis=False))
        single += [fn(model, iv, run.quad, mode=mode, check_hypothesis=False)
                   for fn in (midpoint_bound, midpoint_bound_M, midpoint_bound_geo,
                              trapezoid_bound, trapezoid_bound_M)]
        assert [c.to_dict() for c in record.checks] == [c.to_dict() for c in single]
        assert record.identities == (midpoint_identity(model, iv, run.quad),
                                     trapezoid_identity(model, iv, run.quad))


def test_four_integrals_per_scan_trial(monkeypatch):
    calls = count_calls(monkeypatch, core_mod, "integrate")
    count_calls(monkeypatch, identities_mod, "integrate", calls)
    run = scan_run("strict", True)
    for i in range(5):
        run_trial(trial_seed(1234, i), run)
        assert len(calls) == 4 * (i + 1)


def test_verify_all_integrates_once_and_samples_each_hypothesis_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, core_mod, "integrate")
    sampled = count_calls(monkeypatch, bounds_mod, "is_mul_convex_sampled")
    assert main(["verify", "--fn", "exp_power", "--p", "2", "--a", "0", "--b", "1",
                 "--check", "all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(CHECKS)
    assert len(calls) == 1
    assert len(sampled) == 2


def test_failed_hypothesis_warns_once_per_call():
    iv = Interval(1.0, 2.0)
    probe = Probe(make_model(FamilySpec("exp_recip", (), iv)), iv)
    with pytest.warns(HypothesisWarning) as caught:
        run_checks(probe, mode="robust")
    assert len(caught) == 1


def test_rows_in_table_order_whatever_the_selection():
    probe = Probe(make_model(FamilySpec("exp_power", (2.0,), UNIT)), UNIT)
    reps = run_checks(probe, ("trapezoid", "hh"), check_hypothesis=False)
    assert [r.name for r in reps] == ["hh_left", "hh_right", "trapezoid"]
    assert CHECK_NAMES == ("hh", "midpoint", "midpoint_m", "midpoint_geo",
                           "trapezoid", "trapezoid_m")
    with pytest.raises(ValueError):
        run_checks(probe, ("simpson",))


def test_probe_values_match_the_model():
    model = make_model(FamilySpec("exp_power", (2.0,), UNIT))
    probe = Probe(model, UNIT)
    assert probe.ln_f_ends == (0.0, 0.25, 1.0)
    assert probe.ln_g_ab == 0.5
    assert probe.mean == core_mod.mean_log(model, UNIT)
    ts, ls = probe.star_grid
    assert len(ts) == core_mod.STAR_GRID_N
    np.testing.assert_array_equal(ls, 2.0 * ts)


def test_non_finite_star_end_rejected():
    model = FunctionModel(ln_f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                          ln_f_star=lambda t: np.where(np.asarray(t) > 0.5, np.inf, 0.0),
                          domain=UNIT)
    with pytest.raises(ValueError, match="not finite"):
        Probe(model, UNIT).star_ends


def test_bad_m_reported_before_any_quadrature(monkeypatch):
    calls = count_calls(monkeypatch, core_mod, "integrate")
    iv = Interval(1.0, 2.0)
    probe = Probe(make_model(FamilySpec("exp_recip", (), iv)), iv)
    with pytest.raises(MBoundViolation):
        run_checks(probe, ("midpoint_m",), "robust", MBound(0.5), check_hypothesis=False)
    assert calls == []
