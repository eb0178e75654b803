"""Scaled Hermite basis: closed values, recurrences, projections, round trips."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from holofrft.closedform import coherent_state
from holofrft.core import CoherentLabel, CoherentSum, HermiteRep, Samples
from holofrft.errors import SupportError
from holofrft.hermite import (
    MAX_DEGREE,
    gram_matrix,
    hermite_analyze,
    hermite_basis,
    hermite_poly,
    hermite_synthesize,
    poly_coeffs_heat,
    poly_coeffs_ladder,
    poly_coeffs_rodrigues,
)
from holofrft.quadrature import QuadratureRule


def reference_poly(n: int, s: float, x: np.ndarray) -> np.ndarray:
    """Independent oracle: the scale-s family rescales the probabilists'
    polynomials, H_n^s(x) = s^{-n/2} He_n(x / sqrt(s))."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return s ** (-n / 2) * np.polynomial.hermite_e.hermeval(
        x / math.sqrt(s), coeffs)


class TestPolynomialFamily:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_degree_two_closed_form(self, s):
        x = np.linspace(-3, 3, 25)
        np.testing.assert_allclose(
            hermite_poly(2, s, x), (x * x - s) / s ** 2, rtol=1e-13)

    def test_degree_zero_and_one(self):
        x = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(hermite_poly(0, 0.7, x), 1.0)
        np.testing.assert_allclose(hermite_poly(1, 0.7, x), x / 0.7,
                                   rtol=1e-14)

    @given(st.integers(min_value=1, max_value=15),
           st.floats(min_value=0.3, max_value=3.0))
    def test_three_term_recurrence(self, n, s):
        x = np.linspace(-4, 4, 17)
        lhs = hermite_poly(n + 1, s, x)
        rhs = (x * hermite_poly(n, s, x) - n * hermite_poly(n - 1, s, x)) / s
        scale = np.max(np.abs(lhs)) or 1.0
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 20])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.3])
    def test_matches_rescaled_probabilists_polynomials(self, n, s):
        x = np.linspace(-5, 5, 41)
        got = hermite_poly(n, s, x)
        ref = reference_poly(n, s, x)
        np.testing.assert_allclose(got, ref, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", [-1, MAX_DEGREE + 1])
    def test_degree_out_of_range_rejected(self, n):
        with pytest.raises(ValueError, match="degree"):
            hermite_poly(n, 1.0, 0.0)


class TestCoefficientRoutes:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.3])
    def test_three_construction_routes_agree(self, s):
        for n in range(13):
            heat = poly_coeffs_heat(n, s)
            rodr = poly_coeffs_rodrigues(n, s)
            ladd = poly_coeffs_ladder(n, s)
            scale = np.max(np.abs(heat))
            np.testing.assert_allclose(heat, rodr, atol=1e-9 * scale,
                                       rtol=1e-9)
            np.testing.assert_allclose(heat, ladd, atol=1e-9 * scale,
                                       rtol=1e-9)

    def test_routes_match_recurrence_values(self):
        s = 0.8
        x = np.linspace(-3, 3, 11)
        for n in range(10):
            values = np.polynomial.polynomial.polyval(
                x, poly_coeffs_heat(n, s))
            expected = hermite_poly(n, s, x)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(values, expected, atol=1e-11 * scale)

    def test_heat_route_matches_symbolic_derivatives(self):
        # symbolic oracle: H_n^s = (-1)^n e^{x^2/2s} d^n/dx^n e^{-x^2/2s}
        x = sympy.symbols("x")
        s = sympy.Rational(7, 10)
        gauss = sympy.exp(-x ** 2 / (2 * s))
        for n in range(7):
            expr = sympy.expand((-1) ** n
                                * sympy.diff(gauss, x, n) / gauss)
            exact = [float(expr.coeff(x, k)) for k in range(n + 1)]
            np.testing.assert_allclose(poly_coeffs_heat(n, 0.7), exact,
                                       rtol=1e-12, atol=1e-14)


class TestBasisFunctions:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_ground_state_peak_value(self, s):
        got = float(hermite_basis(0, s, np.array(0.0))[0])
        assert got == pytest.approx((2 * s) ** -0.25 * math.pi ** -0.5,
                                    rel=1e-15)

    def test_basis_stack_matches_polynomial_times_gaussian(self):
        s = 1.3
        x = np.linspace(-4, 4, 33)
        basis = hermite_basis(8, s, x)
        envelope = np.exp(-x * x / (4 * s))
        for n in range(9):
            # normalization a_{s,n} = (2s)^{-1/4} (pi n!)^{-1/2} s^{n/2}
            amp = (2 * s) ** -0.25 * (math.pi * math.factorial(n)) ** -0.5 \
                * s ** (n / 2)
            expected = amp * hermite_poly(n, s, x) * envelope
            np.testing.assert_allclose(basis[n], expected, atol=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_gram_matrix_is_identity(self, s):
        gram = gram_matrix(s, 20)
        err = float(np.max(np.abs(gram - np.eye(21))))
        assert err <= 1e-10

    def test_gram_stable_under_order_increase(self):
        base = gram_matrix(1.0, 12)
        refined = gram_matrix(1.0, 12, order=200)
        assert float(np.max(np.abs(base - refined))) <= 1e-12

    def test_plain_lebesgue_norm_differs_from_weighted_norm(self):
        # unit norm holds under the sqrt(pi)-weighted product only: the
        # plain Lebesgue squared norm of the ground state is pi^{-1/2}
        s = 1.0
        rule = QuadratureRule.gauss_hermite(64, scale=math.sqrt(2 * s))
        h0 = hermite_basis(0, s, rule.nodes)[0]
        plain = float(h0 * h0 @ rule.absorbed)
        assert plain == pytest.approx(math.pi ** -0.5, rel=1e-12)
        assert math.pi ** 0.5 * plain == pytest.approx(1.0, rel=1e-12)


class TestAnalyzeSynthesize:
    def test_single_basis_function_projects_to_unit_vector(self):
        s = 0.9
        coeffs = hermite_analyze(lambda x: hermite_basis(3, s, x)[3]
                                 .astype(complex), s, 8)
        expected = np.zeros(9)
        expected[3] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    def test_sampled_basis_function_projects_to_unit_vector(self):
        s = 0.9
        xs = np.linspace(-12, 12, 1201)
        sig = Samples(xs, hermite_basis(3, s, xs)[3].astype(complex))
        coeffs = hermite_analyze(sig, s, 8)
        expected = np.zeros(9)
        expected[3] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-10)

    def test_same_scale_representation_passes_through(self):
        coeffs = np.array([0.2, 0.0, -0.5j, 1.0])
        got = hermite_analyze(HermiteRep(1.2, coeffs), 1.2, 6)
        np.testing.assert_array_equal(got[:4], coeffs)
        np.testing.assert_array_equal(got[4:], 0.0)

    def test_analyze_inverts_synthesize(self, rng):
        s = 1.1
        coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
        coeffs /= np.linalg.norm(coeffs)
        got = hermite_analyze(lambda x: hermite_synthesize(coeffs, s, x),
                              s, 11)
        np.testing.assert_allclose(got, coeffs, atol=1e-10)

    def test_packet_coefficients_satisfy_parseval(self):
        signal = CoherentSum((1.0,), (CoherentLabel(0.6, -0.4),))
        coeffs = hermite_analyze(signal, 1.0, 40)
        total = float(np.sum(np.abs(coeffs) ** 2))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_cross_scale_expansion_resynthesizes_signal(self, rng):
        source = HermiteRep(0.7, rng.normal(size=8) + 0j)
        coeffs = hermite_analyze(source, 1.2, 60)
        x = np.linspace(-5, 5, 101)
        resynth = hermite_synthesize(coeffs, 1.2, x)
        original = hermite_synthesize(source.coeffs, 0.7, x)
        scale = np.max(np.abs(original))
        np.testing.assert_allclose(resynth, original, atol=1e-9 * scale)

    def test_coarse_samples_rejected_with_spacing_suggestion(self):
        xs = np.linspace(-10, 10, 41)  # spacing 0.5
        sig = Samples(xs, np.exp(-xs * xs / 4).astype(complex))
        with pytest.raises(SupportError, match="too coarse") as exc:
            hermite_analyze(sig, 1.0, 30)
        assert 0 < exc.value.suggestion < 0.5

    def test_short_sample_range_rejected(self):
        xs = np.linspace(-1.5, 1.5, 61)
        sig = Samples(xs, np.exp(-xs * xs / 4).astype(complex))
        with pytest.raises(SupportError, match="extend the sample range"):
            hermite_analyze(sig, 1.0, 4)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            hermite_analyze(CoherentSum((1.0,), (CoherentLabel(0, 0),)),
                            -1.0, 4)
