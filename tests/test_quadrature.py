"""Quadrature engine tests: fixtures with known integrals, the independent
midpoint oracle, convergence order, and the config contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcalc import (FamilySpec, Interval, NumericalFailure, QuadratureConfig,
                     composite_gauss_legendre, integrate, make_model, riemann_oracle,
                     star_values)

UNIT = Interval(0.0, 1.0)
ONE_TWO = Interval(1.0, 2.0)


class TestRiemannOracle:
    def test_constant_exact_any_n(self):
        iv = Interval(0.0, 2.0)
        for n in (1, 7, 100, 12345):
            assert riemann_oracle(lambda t: np.full_like(t, 5.0), iv, n) == 10.0

    def test_linear_exact_single_panel(self):
        assert riemann_oracle(lambda t: t, UNIT, 1) == 0.5

    def test_quadratic_high_n(self):
        got = riemann_oracle(lambda t: t * t, UNIT, 10**6)
        assert abs(got - 1.0 / 3.0) <= 1e-12


class TestIntegrate:
    def test_linear(self):
        res = integrate(lambda t: t, UNIT)
        assert res.converged
        assert abs(res.value - 0.5) <= 1e-14

    def test_quadratic(self):
        res = integrate(lambda t: t * t, UNIT)
        assert res.converged
        assert abs(res.value - 1.0 / 3.0) <= 1e-14

    def test_reciprocal(self):
        res = integrate(lambda t: 1.0 / t, ONE_TWO)
        assert res.converged
        assert abs(res.value - math.log(2.0)) <= 1e-10

    def test_reciprocal_refined_from_one_panel(self):
        cfg = QuadratureConfig(panels=1, max_subdivisions=30)
        res = integrate(lambda t: 1.0 / t, ONE_TWO, cfg)
        assert res.converged
        assert abs(res.value - math.log(2.0)) <= cfg.tolerance_for(res.value)

    def test_converged_result_meets_tolerance(self):
        cfg = QuadratureConfig()
        for g in (lambda t: np.exp(t), lambda t: 1.0 / t, lambda t: np.sin(t)):
            res = integrate(g, ONE_TWO, cfg)
            assert res.converged
            assert res.error_estimate <= cfg.tolerance_for(res.value)

    def test_oracle_agreement(self):
        cases = [
            (lambda t: t, UNIT),
            (lambda t: t * t, UNIT),
            (lambda t: np.exp(t), UNIT),
            (lambda t: 1.0 / t, ONE_TWO),
            (lambda t: np.sin(3.0 * t) + 2.0, ONE_TWO),
        ]
        for g, iv in cases:
            res = integrate(g, iv)
            oracle = riemann_oracle(g, iv, 10**5)
            assert abs(res.value - oracle) <= max(1e-7, res.error_estimate)

    def test_deterministic_bit_identical(self):
        g = lambda t: np.exp(-t * t) + 1.0 / t
        r1 = integrate(g, ONE_TWO)
        r2 = integrate(g, ONE_TWO)
        assert r1 == r2

    def test_budget_exhaustion_flagged(self):
        # tolerance far below what these coarse refinements can certify
        cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=0.0, max_subdivisions=2, panels=1)
        res = integrate(lambda t: 1.0 / t, ONE_TWO, cfg)
        assert not res.converged
        assert res.error_estimate > 0.0
        assert abs(res.value - math.log(2.0)) <= 1e-9  # estimate still good

    def test_non_finite_raises_composite(self):
        with pytest.raises(NumericalFailure):
            integrate(lambda t: np.sqrt(t - 0.5), UNIT)

    def test_non_finite_raises_adaptive(self):
        # finite on the one starting panel's nodes; the pole sits on the
        # centre node of a bisected panel, so only refinement finds it
        with pytest.raises(NumericalFailure, match="t=0.25"):
            integrate(lambda t: 1.0 / (t - 0.25), UNIT, QuadratureConfig(panels=1))
        with pytest.raises(NumericalFailure):
            integrate(lambda t: np.log(t), Interval(-1.0, 1.0))

    def test_breakpoint_alignment_makes_kinks_exact(self):
        # integral of max(0, t - 1/3) on [0, 1] = (2/3)^2 / 2
        g = lambda t: np.maximum(0.0, t - 1.0 / 3.0)
        exact = (2.0 / 3.0) ** 2 / 2.0
        aligned, _ = composite_gauss_legendre(g, UNIT, panels=4, breakpoints=(1.0 / 3.0,))
        assert abs(aligned - exact) <= 1e-15
        unaligned, _ = composite_gauss_legendre(g, UNIT, panels=4)
        assert abs(unaligned - exact) > 1e-9


def test_endpoint_singularity_refines_locally():
    """The trapezoid identity's chord integral for exp(t^1.5) on [0, 2]:
    ln f* = 1.5 sqrt(t) has a square-root singularity at the origin, and
    refining only the panels next to it keeps the cost low."""
    model = make_model(FamilySpec("exp_power", (1.5,), Interval(0.0, 2.0)))
    res = integrate(lambda t: (2.0 * t - 1.0) * star_values(model, 2.0 * t), UNIT)
    assert res.converged
    assert res.evaluations <= 5000
    assert abs(res.value - 1.5 * math.sqrt(2.0) * (4.0 / 5.0 - 2.0 / 3.0)) <= 1e-10


@pytest.mark.parametrize("g, mp_g, iv, breakpoints", [
    (np.sqrt, lambda mp, t: mp.sqrt(t), UNIT, ()),
    # the segment [0, 0.005] is narrower than half a starting panel
    (np.sqrt, lambda mp, t: mp.sqrt(t), UNIT, (0.005,)),
    (lambda t: np.abs(t - 1.0 / 3.0), lambda mp, t: abs(t - mp.mpf(1) / 3), UNIT, (1.0 / 3.0,)),
    (lambda t: np.abs(t - 1.0 / 3.0), lambda mp, t: abs(t - mp.mpf(1) / 3), UNIT, ()),
    (lambda t: np.sin(20.0 * t) * np.exp(t), lambda mp, t: mp.sin(20 * t) * mp.exp(t),
     Interval(0.0, 3.0), ()),
], ids=["sqrt_endpoint", "sqrt_narrow_segment", "aligned_kink", "unaligned_kink", "oscillatory"])
def test_agrees_with_mpmath(g, mp_g, iv, breakpoints):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        # split the reference at 1/3, the kink, where tanh-sinh needs it
        exact = mpmath.quad(lambda t: mp_g(mpmath, t), [iv.a, mpmath.mpf(1) / 3, iv.b])
    res = integrate(g, iv, breakpoints=breakpoints)
    assert res.converged
    assert abs(res.value - float(exact)) <= max(res.error_estimate, 1e-10)


def test_convergence_order_five_node_rule():
    """Refining the default composite rule gains far more than 2^4 per
    panel-width halving on a smooth integrand."""
    exact = math.log(2.0)
    errors = []
    for panels in (1, 2, 4, 8):
        value, _ = composite_gauss_legendre(lambda t: 1.0 / t, ONE_TWO, panels)
        errors.append(abs(value - exact))
    for coarse, fine in zip(errors[:-1], errors[1:]):
        assert fine == 0.0 or coarse / fine >= 16.0


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.to_dict() == {"abs_tol": 1e-10, "rel_tol": 1e-10,
                                 "max_subdivisions": 12, "panels": 64}
        assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-10
        assert cfg.panels == 64 and cfg.max_subdivisions == 12

    def test_round_trip(self):
        cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-9, max_subdivisions=20, panels=32)
        assert QuadratureConfig.from_dict(cfg.to_dict()) == cfg
        assert QuadratureConfig.from_dict(cfg.to_dict()) != QuadratureConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            QuadratureConfig.from_dict({"abs_tol": 1e-9, "nodes": 7})

    def test_invalid_values_rejected(self):
        with pytest.raises(TypeError):
            QuadratureConfig(method="gauss_legendre_composite")
        with pytest.raises(ValueError, match="unknown quadrature config keys: method"):
            QuadratureConfig.from_dict({"method": "romberg"})
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(panels=0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)

    def test_tolerance_for(self):
        cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=0.25)
        assert cfg.tolerance_for(0.0) == 1e-10
        assert cfg.tolerance_for(8.0) == 2.0


@settings(max_examples=50, deadline=None)
@given(coeffs=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=9))
def test_polynomials_integrate_exactly(coeffs):
    """The 5-node panels are exact through degree 9, so any such polynomial
    must come back at closed-form accuracy on the first refinement."""
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    exact = float(anti(1.0) - anti(0.0))
    res = integrate(lambda t: poly(t), UNIT)
    assert res.converged
    assert abs(res.value - exact) <= 1e-11 * max(1.0, abs(exact))
