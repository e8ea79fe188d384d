"""Family catalog and random generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcalc import (FamilySpec, GeneratorParams, Interval, QuadratureConfig,
                     integrate, is_mul_convex_sampled, make_model, mean_log,
                     random_star_convex, star_model, star_values)

UNIT = Interval(0.0, 1.0)


class TestFamilies:
    def test_constant(self):
        m = make_model(FamilySpec("constant", (3.0,), UNIT))
        ts = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(m.ln_f(ts), np.log(3.0) * np.ones(5))
        np.testing.assert_array_equal(star_values(m, ts), np.zeros(5))
        assert m.closed_form_mean_log == pytest.approx(np.log(3.0))

    def test_exp_power_p2(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        assert float(m.ln_f(0.5)) == 0.25
        assert float(star_values(m, 0.5)) == 1.0
        assert m.closed_form_mean_log == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_exp_recip(self):
        m = make_model(FamilySpec("exp_recip", (), Interval(1.0, 2.0)))
        assert float(m.ln_f(2.0)) == 0.5
        assert float(star_values(m, 2.0)) == -0.25
        assert m.closed_form_mean_log == pytest.approx(np.log(2.0), abs=1e-15)

    def test_exp_poly_matches_manual(self):
        m = make_model(FamilySpec("exp_poly", (1.0, 0.0, -0.5, 2.0), Interval(0.0, 1.0)))
        t = 0.7
        assert float(m.ln_f(t)) == pytest.approx(1.0 - 0.5 * t**2 + 2.0 * t**3, abs=1e-15)
        assert float(star_values(m, t)) == pytest.approx(-t + 6.0 * t**2, abs=1e-15)

    def test_analytic_mean_matches_quadrature(self):
        specs = [
            FamilySpec("constant", (2.0,), UNIT),
            FamilySpec("exp_affine", (0.7, 0.1), UNIT),
            FamilySpec("exp_power", (2.0,), UNIT),
            FamilySpec("exp_recip", (), Interval(1.0, 2.0)),
            FamilySpec("exp_poly", (0.2, 1.0, 3.0), Interval(0.5, 1.5)),
        ]
        for spec in specs:
            m = make_model(spec)
            res = integrate(m.ln_f, spec.domain, QuadratureConfig())
            assert res.value / spec.domain.length == pytest.approx(
                m.closed_form_mean_log, abs=1e-9), spec.kind

    def test_validation_failures(self):
        with pytest.raises(ValueError):
            make_model(FamilySpec("constant", (0.0,), UNIT))
        with pytest.raises(ValueError):
            make_model(FamilySpec("constant", (-1.0,), UNIT))
        with pytest.raises(ValueError):
            make_model(FamilySpec("exp_recip", (), Interval(-1.0, 1.0)))
        with pytest.raises(ValueError):  # ln f* singular at 0
            make_model(FamilySpec("exp_power", (0.5,), UNIT))
        with pytest.raises(ValueError):  # t^p undefined left of 0
            make_model(FamilySpec("exp_power", (2.5,), Interval(-1.0, 1.0)))
        with pytest.raises(ValueError):
            make_model(FamilySpec("constant", (1.0, 2.0), UNIT))

    def test_spec_round_trip(self):
        spec = FamilySpec("exp_poly", (0.5, -1.0), Interval(0.25, 1.75))
        again = FamilySpec.from_dict(spec.to_dict())
        assert again == spec

    def test_spec_rejects_unknown(self):
        with pytest.raises(ValueError):
            FamilySpec("exp_cosh", (), UNIT)
        with pytest.raises(ValueError):
            FamilySpec.from_dict({"kind": "constant", "params": [1.0],
                                  "domain": [0, 1], "extra": True})


class TestGenerator:
    def test_degenerate_matches_exp_power(self):
        gp = GeneratorParams(seed=0, n_hinges=0, quad_range=(0.0, 0.0),
                             slope_range=(2.0, 2.0), offset_range=(0.0, 0.0),
                             nonneg_star=False)
        m = random_star_convex(gp, UNIT)
        ref = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        ts = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(star_values(m, ts), star_values(ref, ts), atol=1e-15)
        np.testing.assert_allclose(m.ln_f(ts), ref.ln_f(ts), atol=1e-15)

    def test_constant_star_gives_affine_ln_f(self):
        k = 0.8
        gp = GeneratorParams(seed=0, n_hinges=0, quad_range=(0.0, 0.0),
                             slope_range=(0.0, 0.0), offset_range=(k, k),
                             nonneg_star=False)
        m = random_star_convex(gp, Interval(1.0, 2.0))
        ts = np.linspace(1.0, 2.0, 20)
        np.testing.assert_allclose(star_values(m, ts), np.full(20, k), atol=1e-15)
        np.testing.assert_allclose(m.ln_f(ts), k * (ts - 1.0), atol=1e-15)

    def test_reproducible_bit_exact(self):
        iv = Interval(0.3, 2.3)
        probes = np.linspace(iv.a, iv.b, 100)
        m1 = random_star_convex(GeneratorParams(seed=987654321), iv)
        m2 = random_star_convex(GeneratorParams(seed=987654321), iv)
        np.testing.assert_array_equal(star_values(m1, probes), star_values(m2, probes))
        np.testing.assert_array_equal(m1.ln_f(probes), m2.ln_f(probes))
        assert m1.breakpoints == m2.breakpoints

    def test_soundness_1000_seeds(self):
        """Generated ln f* must be convex: the sampled midpoint test on the
        star model may never find a violation."""
        rng = np.random.default_rng(20240817)
        for seed in rng.integers(0, 2**63, size=1000):
            a = rng.uniform(0.0, 2.0)
            iv = Interval(a, a + rng.uniform(0.3, 1.0))
            m = random_star_convex(GeneratorParams(seed=int(seed)), iv)
            assert is_mul_convex_sampled(star_model(m), iv, n_pairs=100,
                                         seed=int(seed) % 2**31)

    def test_nonneg_star_shifts_min_to_zero(self):
        found_shifted = False
        for seed in range(60):
            iv = Interval(0.1, 1.6)
            raw = random_star_convex(GeneratorParams(seed=seed, nonneg_star=False), iv)
            clamped = random_star_convex(GeneratorParams(seed=seed, nonneg_star=True), iv)
            grid = np.linspace(iv.a, iv.b, 501)
            assert float(np.min(star_values(clamped, grid))) >= -1e-12
            if float(np.min(star_values(raw, grid))) < 0.0:
                found_shifted = True
                assert float(np.min(star_values(clamped, grid))) <= 1e-9
        assert found_shifted  # the offset range does produce negative draws

    def test_ln_f_vanishes_at_left_endpoint(self):
        m = random_star_convex(GeneratorParams(seed=5), Interval(0.7, 2.1))
        assert float(m.ln_f(0.7)) == 0.0

    def test_antiderivative_consistency(self):
        iv = Interval(0.2, 1.9)
        m = random_star_convex(GeneratorParams(seed=31337), iv)
        # mean via exact antiderivative must agree with quadrature; mean_log
        # raises ConsistencyError internally if not
        sub = Interval(0.5, 1.5)
        got = mean_log(m, sub)
        res = integrate(m.ln_f, sub, QuadratureConfig(), breakpoints=m.breakpoints)
        assert got == pytest.approx(res.value / sub.length, abs=1e-9)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GeneratorParams(seed=-1)
        with pytest.raises(ValueError):
            GeneratorParams(seed=1, n_hinges=-2)
        with pytest.raises(ValueError):
            GeneratorParams(seed=1, quad_range=(-0.5, 1.0))
        with pytest.raises(ValueError):
            GeneratorParams(seed=1, hinge_coeff_range=(-0.1, 0.2))
        with pytest.raises(ValueError):
            GeneratorParams(seed=1, slope_range=(2.0, 1.0))

    def test_spec_kind_rebuilds_same_model(self):
        iv = Interval(0.4, 1.4)
        spec = FamilySpec("random_star_convex", (12345, 3, 1), iv)
        m1, m2 = make_model(spec), make_model(spec)
        probes = np.linspace(iv.a, iv.b, 40)
        np.testing.assert_array_equal(m1.ln_f(probes), m2.ln_f(probes))


class TestConvexitySampler:
    def test_exp_power_convex(self):
        m = make_model(FamilySpec("exp_power", (2.0,), UNIT))
        assert is_mul_convex_sampled(m, UNIT)

    def test_exp_affine_equality_case(self):
        m = make_model(FamilySpec("exp_affine", (1.5, -0.2), UNIT))
        assert is_mul_convex_sampled(m, UNIT)

    def test_concave_log_detected(self):
        m = make_model(FamilySpec("exp_poly", (0.0, 0.0, -1.0), UNIT))  # ln f = -t^2
        assert not is_mul_convex_sampled(m, UNIT)

    def test_log_affine_far_from_origin(self):
        # |ln f| ~ 1.1e6 here, so rounding alone exceeds an absolute 1e-12
        iv = Interval(1e6 + 0.3, 1e6 + 1.0)
        m = make_model(FamilySpec("exp_affine", (1.1, 0.2), iv))
        assert is_mul_convex_sampled(m, iv, n_pairs=128, seed=0)
        assert is_mul_convex_sampled(m, iv)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       a=st.floats(min_value=0.0, max_value=2.0),
       length=st.floats(min_value=0.1, max_value=1.5))
def test_nonneg_star_property(seed, a, length):
    iv = Interval(a, a + length)
    m = random_star_convex(GeneratorParams(seed=seed, nonneg_star=True), iv)
    grid = np.linspace(iv.a, iv.b, 101)
    assert float(np.min(star_values(m, grid))) >= -1e-12
