"""Midpoint/trapezoid/sandwich inequality checkers.

Closed-form fixtures first (every number here is a hand computation from
the model's ln f), then a generated corpus sweep in strict mode where the
hypothesis holds by construction.
"""

import math
import warnings

import numpy as np
import pytest

from mulcalc import (FamilySpec, GeneratorParams, HypothesisWarning, Interval,
                     MBound, MBoundViolation, Probe, grid_sup_m_bound, hh_check,
                     make_model, midpoint_bound, midpoint_bound_M,
                     midpoint_bound_geo, random_star_convex, trapezoid_bound,
                     trapezoid_bound_M, validate_m_bound)

UNIT = Interval(0.0, 1.0)
LN2 = math.log(2.0)


def sq_model():
    return make_model(FamilySpec("exp_power", (2.0,), UNIT))


def recip_model():
    return make_model(FamilySpec("exp_recip", (), Interval(1.0, 2.0)))


class TestHH:
    def test_square_exponent_sandwich(self):
        left, right = hh_check(sq_model(), UNIT)
        assert left.name == "hh_left" and right.name == "hh_right"
        assert left.lhs_log == pytest.approx(0.25, abs=1e-12)
        assert left.rhs_log == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert right.lhs_log == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert right.rhs_log == pytest.approx(0.5, abs=1e-12)
        assert left.holds and right.holds
        assert left.margin == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert right.margin == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_constant_is_tight(self):
        m = make_model(FamilySpec("constant", (7.0,), UNIT))
        left, right = hh_check(m, UNIT)
        assert left.margin == pytest.approx(0.0, abs=1e-12)
        assert right.margin == pytest.approx(0.0, abs=1e-12)
        assert left.holds and right.holds

    def test_log_concave_model_breaks_both_sides(self):
        # ln f = -t^2 flips the sandwich: lhs -1/4 vs mean -1/3 vs avg -1/2
        m = make_model(FamilySpec("exp_poly", (0.0, 0.0, -1.0), UNIT))
        with pytest.warns(HypothesisWarning):
            left, right = hh_check(m, UNIT)
        assert left.margin == pytest.approx(-1.0 / 12.0, abs=1e-10)
        assert right.margin == pytest.approx(-1.0 / 6.0, abs=1e-10)
        assert not left.holds and not right.holds

    def test_log_affine_far_from_origin_does_not_warn(self):
        iv = Interval(1e6 + 0.3, 1e6 + 1.0)
        m = make_model(FamilySpec("exp_affine", (1.1, 0.2), iv))
        with warnings.catch_warnings():
            warnings.simplefilter("error", HypothesisWarning)
            hh_check(m, iv)


class TestMidpoint:
    def test_square_exponent_values(self):
        rep = midpoint_bound(sq_model(), UNIT)
        assert rep.name == "midpoint" and rep.mode == "strict"
        assert rep.lhs_log == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert rep.rhs_log == pytest.approx(0.25, abs=1e-12)
        assert rep.margin == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.holds

    def test_recip_strict_fails_negative_rhs(self):
        with pytest.warns(HypothesisWarning):
            rep = midpoint_bound(recip_model(), Interval(1.0, 2.0))
        assert rep.lhs_log == pytest.approx(LN2 - 2.0 / 3.0, abs=1e-12)
        assert rep.rhs_log == pytest.approx(-109.0 / 864.0, abs=1e-12)
        assert not rep.holds

    def test_recip_robust_holds(self):
        rep = midpoint_bound(recip_model(), Interval(1.0, 2.0), mode="robust",
                             check_hypothesis=False)
        assert rep.rhs_log == pytest.approx(109.0 / 864.0, abs=1e-12)
        assert rep.holds

    def test_geo_form_square_exponent(self):
        rep = midpoint_bound_geo(sq_model(), UNIT)
        assert rep.name == "midpoint_geo"
        assert rep.lhs_log == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert rep.rhs_log == pytest.approx(0.25, abs=1e-12)

    def test_geo_form_cubic_on_shifted_interval(self):
        # ln f = t^3 on [1,2]: lhs = |3.375 - 15/4| = 3/8, rhs = (3+12)/8
        m = make_model(FamilySpec("exp_power", (3.0,), Interval(1.0, 2.0)))
        rep = midpoint_bound_geo(m, Interval(1.0, 2.0))
        assert rep.lhs_log == pytest.approx(0.375, abs=1e-10)
        assert rep.rhs_log == pytest.approx(15.0 / 8.0, abs=1e-12)
        assert rep.holds


class TestTrapezoid:
    def test_square_exponent_values(self):
        rep = trapezoid_bound(sq_model(), UNIT)
        assert rep.name == "trapezoid"
        assert rep.lhs_log == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.rhs_log == pytest.approx(0.25, abs=1e-12)
        assert rep.margin == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_recip_strict_vs_robust(self):
        iv = Interval(1.0, 2.0)
        strict = trapezoid_bound(recip_model(), iv, check_hypothesis=False)
        robust = trapezoid_bound(recip_model(), iv, mode="robust",
                                 check_hypothesis=False)
        assert strict.lhs_log == pytest.approx(0.75 - LN2, abs=1e-12)
        assert strict.rhs_log == pytest.approx(-5.0 / 32.0, abs=1e-12)
        assert not strict.holds
        assert robust.lhs_log == strict.lhs_log
        assert robust.rhs_log == pytest.approx(5.0 / 32.0, abs=1e-12)
        assert robust.holds


class TestUniformBoundForms:
    def test_default_m_is_grid_sup(self):
        rep = midpoint_bound_M(sq_model(), UNIT)
        # sup of 2t on [0,1] is 2, so rhs = (1/4) * 2
        assert rep.name == "midpoint_m"
        assert rep.rhs_log == pytest.approx(0.5, abs=1e-12)
        assert rep.holds

    def test_explicit_m_strict_can_go_negative(self):
        # strict sup of -1/t^2 on [1,2] is -1/4; the bound it yields is
        # negative and the check honestly fails
        iv = Interval(1.0, 2.0)
        rep = midpoint_bound_M(recip_model(), iv, m=MBound(-0.25),
                               check_hypothesis=False)
        assert rep.rhs_log == pytest.approx(-1.0 / 16.0, abs=1e-12)
        assert not rep.holds

    def test_explicit_m_robust_holds(self):
        iv = Interval(1.0, 2.0)
        rep = trapezoid_bound_M(recip_model(), iv, m=MBound(1.0), mode="robust",
                                check_hypothesis=False)
        assert rep.rhs_log == pytest.approx(0.25, abs=1e-12)
        assert rep.holds

    def test_undersized_m_rejected_with_location(self):
        iv = Interval(1.0, 2.0)
        with pytest.raises(MBoundViolation, match="t=1.0"):
            validate_m_bound(recip_model(), iv, MBound(-0.25), "robust")
        with pytest.raises(MBoundViolation):
            midpoint_bound_M(recip_model(), iv, m=MBound(0.5), mode="robust",
                             check_hypothesis=False)

    def test_m_within_slack_accepted(self):
        iv = Interval(1.0, 2.0)
        validate_m_bound(recip_model(), iv, MBound(1.0 - 5e-10), "robust")

    def test_grid_sup_values(self):
        iv = Interval(1.0, 2.0)
        assert grid_sup_m_bound(recip_model(), iv, "strict").m_log == pytest.approx(-0.25, abs=1e-12)
        assert grid_sup_m_bound(recip_model(), iv, "robust").m_log == pytest.approx(1.0, abs=1e-12)


class TestModesAndValidation:
    def test_modes_coincide_on_nonnegative_star(self):
        # ls = 2t >= 0 on [0,1], so strict and robust agree exactly
        for fn in (midpoint_bound, midpoint_bound_geo, trapezoid_bound):
            s = fn(sq_model(), UNIT, mode="strict", check_hypothesis=False)
            r = fn(sq_model(), UNIT, mode="robust", check_hypothesis=False)
            assert s.rhs_log == r.rhs_log
            assert s.margin == r.margin

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            midpoint_bound(sq_model(), UNIT, mode="loose")
        with pytest.raises(ValueError):
            grid_sup_m_bound(sq_model(), UNIT, "absolute")

    def test_report_dict_order(self):
        d = midpoint_bound(sq_model(), UNIT).to_dict()
        assert list(d) == ["name", "mode", "lhs_log", "rhs_log", "margin", "holds"]

    def test_star_endpoints_square(self):
        assert Probe(sq_model(), UNIT).star_ends == (0.0, 1.0, 2.0)

    def test_hypothesis_check_can_be_silenced(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            midpoint_bound(recip_model(), Interval(1.0, 2.0),
                           check_hypothesis=False)
            trapezoid_bound_M(recip_model(), Interval(1.0, 2.0),
                              check_hypothesis=False)


class TestGeneratedCorpus:
    def test_1000_models_strict_nonneg(self):
        """With ln f* nonnegative and convex by construction, every strict
        bound must hold and the three midpoint right-hand sides must be
        ordered simpson <= endpoint-only <= uniform."""
        rng = np.random.default_rng(99)
        worst = np.inf
        for _ in range(1000):
            a = rng.uniform(0.0, 2.0)
            iv = Interval(a, a + rng.uniform(0.3, 1.2))
            m = random_star_convex(
                GeneratorParams(seed=int(rng.integers(2**63))), iv)
            left, right = hh_check(m, iv, check_hypothesis=False)
            reps = [
                left, right,
                midpoint_bound(m, iv, check_hypothesis=False),
                midpoint_bound_geo(m, iv, check_hypothesis=False),
                midpoint_bound_M(m, iv, check_hypothesis=False),
                trapezoid_bound(m, iv, check_hypothesis=False),
                trapezoid_bound_M(m, iv, check_hypothesis=False),
            ]
            for rep in reps:
                assert rep.margin >= -1e-10, (rep, m.label, iv)
            worst = min(worst, min(rep.margin for rep in reps))
            simpson, geo, uniform = reps[2], reps[3], reps[4]
            assert simpson.rhs_log <= geo.rhs_log + 1e-12
            assert geo.rhs_log <= uniform.rhs_log + 1e-12
        assert worst > -1e-10
