"""Integral identity checks: exact fixtures, generated corpus, FD fallback."""

import dataclasses

import numpy as np
import pytest

from mulcalc import (DomainError, FamilySpec, GeneratorParams, Interval,
                     NumericalFailure, QuadratureConfig, make_model,
                     midpoint_identity, parts_identity, random_star_convex,
                     substitution_identity, trapezoid_identity)
from mulcalc.core import FunctionModel

UNIT = Interval(0.0, 1.0)


def remove_analytic_star(model):
    """Same ln f, but force the star values through finite differences."""
    return FunctionModel(ln_f=model.ln_f, ln_f_star=None, domain=model.domain,
                         label=model.label + "/fd",
                         closed_form_mean_log=model.closed_form_mean_log,
                         breakpoints=model.breakpoints,
                         ln_f_antideriv=model.ln_f_antideriv)


class TestFixtures:
    def test_constant_both_sides_zero(self):
        m = make_model(FamilySpec("constant", (5.0,), UNIT))
        for rep in (midpoint_identity(m, UNIT), trapezoid_identity(m, UNIT)):
            assert rep.lhs_log == pytest.approx(0.0, abs=1e-14)
            assert rep.rhs_log == pytest.approx(0.0, abs=1e-14)
            assert rep.holds

    def test_exp_affine_both_sides_zero(self):
        m = make_model(FamilySpec("exp_affine", (1.3, 0.4), UNIT))
        for rep in (midpoint_identity(m, UNIT), trapezoid_identity(m, UNIT)):
            assert abs(rep.residual) <= 1e-12
            assert rep.lhs_log == pytest.approx(0.0, abs=1e-12)

    def test_exp_power_midpoint_value(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        rep = midpoint_identity(m, UNIT)
        assert rep.identity == "midpoint"
        assert rep.lhs_log == pytest.approx(-1.0 / 12.0, abs=1e-12)
        assert rep.rhs_log == pytest.approx(-1.0 / 12.0, abs=1e-12)
        assert rep.residual <= 1e-10
        assert rep.holds

    def test_exp_power_trapezoid_value(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        rep = trapezoid_identity(m, UNIT)
        assert rep.identity == "trapezoid"
        assert rep.lhs_log == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.rhs_log == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.residual <= 1e-10

    def test_exp_recip_subinterval(self):
        m = make_model(FamilySpec("exp_recip", (), Interval(0.5, 3.0)))
        iv = Interval(1.0, 2.0)
        assert midpoint_identity(m, iv).residual <= 1e-10
        assert trapezoid_identity(m, iv).residual <= 1e-10

    def test_report_serialization(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        d = midpoint_identity(m, UNIT).to_dict()
        assert list(d) == ["identity", "lhs_log", "rhs_log", "residual",
                           "tolerance", "holds"]
        assert d["identity"] == "midpoint"
        assert d["holds"] is True


class TestParts:
    def test_exp_t_with_g_identity(self):
        # f = e^t so ln f* = 1; lhs = integral of t over [0,1] = 1/2
        m = make_model(FamilySpec("exp_affine", (1.0, 0.0), UNIT))
        rep = parts_identity(m, lambda t: t, lambda t: np.ones_like(t), UNIT)
        assert rep.identity == "parts"
        assert rep.lhs_log == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs_log == pytest.approx(0.5, abs=1e-12)
        assert rep.holds

    def test_constant_g(self):
        # g' = 0 collapses the rhs to g*(ln f(b) - ln f(a))
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        rep = parts_identity(m, lambda t: 3.0 * np.ones_like(t),
                             lambda t: np.zeros_like(t), UNIT)
        assert rep.lhs_log == pytest.approx(3.0, abs=1e-10)
        assert rep.residual <= 1e-10

    def test_constant_f(self):
        # ln f* = 0 makes the lhs vanish; rhs must cancel to zero too
        m = make_model(FamilySpec("constant", (4.0,), UNIT))
        rep = parts_identity(m, lambda t: t**2, lambda t: 2.0 * t, UNIT)
        assert rep.lhs_log == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.residual) <= 1e-10

    def test_polynomial_g_on_generated_model(self):
        iv = Interval(0.25, 1.75)
        m = random_star_convex(GeneratorParams(seed=424242), iv)
        rep = parts_identity(m, lambda t: t**3 - 2.0 * t,
                             lambda t: 3.0 * t**2 - 2.0, iv)
        assert rep.residual <= 1e-8
        assert rep.holds


class TestSubstitution:
    def test_identity_map_reduces_to_direct_integral(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        rep = substitution_identity(m, lambda u: u, lambda u: np.ones_like(u),
                                    lambda t: t, lambda t: np.ones_like(t), UNIT)
        assert rep.identity == "substitution"
        # both sides equal the parts lhs for g(t)=t
        direct = parts_identity(m, lambda t: t, lambda t: np.ones_like(t), UNIT)
        assert rep.lhs_log == pytest.approx(direct.lhs_log, abs=1e-12)
        assert rep.residual <= 1e-10

    def test_square_map_fixes_endpoints(self):
        # h(u) = u^2 fixes 0 and 1; with g(t) = t - 1/2 and ln f = t^2 both
        # sides work out to exactly 3/10
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        rep = substitution_identity(
            m,
            lambda u: u**2, lambda u: 2.0 * u,
            lambda t: t - 0.5, lambda t: np.ones_like(t),
            UNIT)
        assert rep.lhs_log == pytest.approx(0.3, abs=1e-12)
        assert rep.rhs_log == pytest.approx(0.3, abs=1e-12)
        assert rep.residual <= 1e-10
        assert rep.holds

    def test_zero_g_gives_zero_both_sides(self):
        m = make_model(FamilySpec("exp_recip", (), Interval(1.0, 3.0)))
        rep = substitution_identity(
            m, lambda u: u + 0.5, lambda u: np.ones_like(u),
            lambda t: np.zeros_like(t), lambda t: np.zeros_like(t),
            Interval(1.0, 2.0))
        assert rep.lhs_log == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs_log == pytest.approx(0.0, abs=1e-14)

    def test_map_out_of_domain_rejected(self):
        m = make_model(FamilySpec("exp_recip", (), Interval(1.0, 2.0)))
        with pytest.raises(DomainError):
            substitution_identity(m, lambda u: 3.0 * u,
                                  lambda u: np.full_like(u, 3.0),
                                  lambda t: t, lambda t: np.ones_like(t), UNIT)


class TestGeneratedCorpus:
    def test_100_models_within_1e8(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(0.0, 2.0)
            iv = Interval(a, a + rng.uniform(0.3, 1.2))
            m = random_star_convex(GeneratorParams(seed=int(rng.integers(2**63))), iv)
            r1 = midpoint_identity(m, iv)
            r2 = trapezoid_identity(m, iv)
            worst = max(worst, r1.residual, r2.residual)
            assert r1.holds and r2.holds
        assert worst <= 1e-8

    def test_builtin_catalog_within_1e8(self):
        specs = [
            FamilySpec("constant", (2.0,), UNIT),
            FamilySpec("exp_affine", (0.9, -0.1), UNIT),
            FamilySpec("exp_power", (3.0,), Interval(0.5, 1.5)),
            FamilySpec("exp_recip", (), Interval(1.0, 2.5)),
            FamilySpec("exp_poly", (0.1, -0.4, 1.2, 0.3), Interval(0.25, 1.25)),
        ]
        for spec in specs:
            m = make_model(spec)
            assert midpoint_identity(m, spec.domain).residual <= 1e-8, spec.kind
            assert trapezoid_identity(m, spec.domain).residual <= 1e-8, spec.kind

    def test_fd_fallback_matches_analytic(self):
        iv = Interval(0.5, 1.5)
        m = random_star_convex(GeneratorParams(seed=2024, n_hinges=2), iv)
        fd = remove_analytic_star(m)
        ra, rf = midpoint_identity(m, iv), midpoint_identity(fd, iv)
        assert rf.rhs_log == pytest.approx(ra.rhs_log, abs=1e-5)
        assert rf.residual <= 1e-5


class TestKnobs:
    def test_tolerance_honored(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        loose = midpoint_identity(m, UNIT, tolerance=1.0)
        assert loose.tolerance == 1.0 and loose.holds
        strict = midpoint_identity(m, UNIT, tolerance=1e-300)
        assert not strict.holds  # residual is tiny but not exactly zero

    def test_quad_config_respected(self):
        m = make_model(FamilySpec("exp_recip", (), Interval(1.0, 2.0)))
        quad = QuadratureConfig(panels=1, max_subdivisions=30, abs_tol=1e-11, rel_tol=1e-11)
        rep = midpoint_identity(m, Interval(1.0, 2.0), quad=quad)
        assert rep.residual <= 1e-12
        # the same tolerance with one bisection allowed cannot be met
        with pytest.raises(NumericalFailure):
            midpoint_identity(m, Interval(1.0, 2.0),
                              quad=dataclasses.replace(quad, max_subdivisions=1))

    def test_interval_outside_domain(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        with pytest.raises(DomainError):
            midpoint_identity(m, Interval(0.5, 1.5))
        with pytest.raises(DomainError):
            trapezoid_identity(m, Interval(-0.5, 0.5))


class TestBudgetMiss:
    """exp(t^1.5) from the origin on one panel, doubled once: ln f* =
    1.5 sqrt(t) cannot converge, so the identities raise NumericalFailure
    rather than report a residual."""

    IV = Interval(0.0, 2.0)
    STARVED = QuadratureConfig(panels=1, max_subdivisions=1)

    def model(self):
        return make_model(FamilySpec("exp_power", (1.5,), self.IV))

    def test_parts_and_substitution_raise(self):
        def ident(t):
            return np.asarray(t, dtype=float)

        def one(t):
            return np.ones_like(np.asarray(t, dtype=float))

        with pytest.raises(NumericalFailure) as exc:
            parts_identity(self.model(), ident, one, self.IV, self.STARVED)
        assert exc.value.estimate is not None
        with pytest.raises(NumericalFailure):
            substitution_identity(self.model(), ident, one, ident, one, self.IV, self.STARVED)

    def test_trapezoid_chord_integral_raises(self):
        # loose enough that the mean converges, not the chord integral
        quad = QuadratureConfig(panels=1, max_subdivisions=1, abs_tol=1e-4, rel_tol=1e-4)
        with pytest.raises(NumericalFailure):
            trapezoid_identity(self.model(), self.IV, quad)
