"""Gauss-Hermite and trapezoid rules: exactness, oscillation budget, errors.

Integrals are absorbed-weight sums of the full integrand, as the engine forms
them; non-finite integrands are checked where the engine builds its rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holofrft import engine, quadrature
from holofrft.core import PlaneGrid, TransformParameter
from holofrft.errors import IntegrationDomainError, SupportError
from holofrft.quadrature import (
    MAX_ORDER,
    OSCILLATION_COEFF,
    QuadratureRule,
    required_order,
    tail_fraction,
)

SQRT_PI = math.sqrt(math.pi)


def gaussian(rule: QuadratureRule, x=None) -> np.ndarray:
    """The rule's Gaussian part e^{-((x - center)/scale)^2}, at its nodes by default."""
    v = ((rule.nodes if x is None else x) - rule.center) / rule.scale
    with np.errstate(under="ignore"):
        return np.exp(-v * v)


def raw_weights(rule: QuadratureRule) -> np.ndarray:
    """Gauss weights for integrands written as e^{-v^2} g(v)."""
    return rule.absorbed * gaussian(rule)


def integral(rule: QuadratureRule, g) -> complex:
    """Integral of e^{-v^2} g as the absorbed-weight sum of the full integrand."""
    return complex((gaussian(rule) * g(rule.nodes)) @ rule.absorbed)


def gaussian_moment(k: int) -> float:
    """Exact integral of x^k e^{-x^2} over the line, by the moment recursion
    I_n = (2n - 1)/2 * I_{n-1} with I_0 = sqrt(pi) (k = 2n)."""
    if k % 2:
        return 0.0
    val = SQRT_PI
    for n in range(1, k // 2 + 1):
        val *= (2 * n - 1) / 2
    return val


class TestGaussHermiteRule:
    def test_single_node_rule_is_center_with_sqrt_pi_weight(self):
        rule = QuadratureRule.gauss_hermite(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.absorbed[0] == pytest.approx(SQRT_PI, rel=1e-15)

    def test_two_node_rule_has_symmetric_nodes_at_inverse_sqrt_two(self):
        rule = QuadratureRule.gauss_hermite(2)
        np.testing.assert_allclose(
            np.sort(rule.nodes), [-2.0 ** -0.5, 2.0 ** -0.5], rtol=1e-15)
        np.testing.assert_allclose(raw_weights(rule), SQRT_PI / 2, rtol=1e-14)

    def test_sixth_moment_matches_moment_recursion(self):
        # I_3 = (1/2)(3/2)(5/2) sqrt(pi) = 15 sqrt(pi) / 8 = 3.3234...
        rule = QuadratureRule.gauss_hermite(8)
        got = integral(rule, lambda x: x ** 6)
        assert got.imag == 0.0
        assert got.real == pytest.approx(15 * SQRT_PI / 8, rel=1e-14)
        assert got.real == pytest.approx(gaussian_moment(6), rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 64, 128, 256, 512])
    @pytest.mark.parametrize("scale", [1.0, 0.37, 2.5])
    def test_raw_weights_sum_to_scale_sqrt_pi(self, order, scale):
        rule = QuadratureRule.gauss_hermite(order, center=0.3, scale=scale)
        assert float(raw_weights(rule).sum()) == pytest.approx(
            scale * SQRT_PI, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 7, 32, 511])
    def test_nodes_increase_and_are_symmetric_about_center(self, order):
        rule = QuadratureRule.gauss_hermite(order, center=1.25, scale=0.8)
        assert np.all(np.diff(rule.nodes) > 0)
        np.testing.assert_allclose(
            rule.nodes + rule.nodes[::-1], 2 * 1.25, atol=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_absorbed_weights_match_reference_construction(self, order):
        # reference: numpy's own Golub-Welsch weights, stable at these orders
        rule = QuadratureRule.gauss_hermite(order)
        _, ref = np.polynomial.hermite.hermgauss(order)
        got = raw_weights(rule)
        assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(ref.max())

    @pytest.mark.parametrize("order", [0, -3, MAX_ORDER + 1])
    def test_out_of_range_order_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            QuadratureRule.gauss_hermite(order)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            QuadratureRule.gauss_hermite(8, scale=0.0)

    def test_rule_construction_is_deterministic(self):
        a = QuadratureRule.gauss_hermite(96, center=0.5, scale=1.7)
        b = QuadratureRule.gauss_hermite(96, center=0.5, scale=1.7)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.absorbed, b.absorbed)


@st.composite
def rule_order_and_degree(draw):
    order = draw(st.integers(min_value=1, max_value=64))
    degree = draw(st.integers(min_value=0, max_value=2 * order - 1))
    scale = draw(st.sampled_from([0.37, 1.0, 2.5]))
    return order, degree, scale


class TestPolynomialExactness:
    @given(rule_order_and_degree())
    def test_rule_of_order_n_integrates_degree_up_to_2n_minus_1(self, case):
        order, degree, scale = case
        rule = QuadratureRule.gauss_hermite(order, scale=scale)
        got = integral(rule, lambda x: x ** degree).real
        exact = scale ** (degree + 1) * gaussian_moment(degree)
        if exact == 0.0:
            # odd moments vanish; compare against the even neighbor's size
            bound = 1e-12 * scale ** (degree + 2) * gaussian_moment(degree + 1)
            assert abs(got) <= bound
        else:
            assert got == pytest.approx(exact, rel=1e-11)

    def test_random_polynomial_matches_moment_oracle(self, rng):
        order = 24
        rule = QuadratureRule.gauss_hermite(order, scale=0.9)
        coeffs = rng.normal(size=2 * order)  # degree 2*order - 1
        got = integral(rule, lambda x: np.polynomial.polynomial.polyval(
            x, coeffs)).real
        exact = sum(c * 0.9 ** (k + 1) * gaussian_moment(k)
                    for k, c in enumerate(coeffs))
        assert got == pytest.approx(exact, rel=1e-11)


class TestIntegrate1D:
    def test_unit_integrand_gives_sqrt_pi(self):
        rule = QuadratureRule.gauss_hermite(16)
        assert integral(rule, np.ones_like).real == \
            pytest.approx(SQRT_PI, rel=1e-12)

    def test_odd_integrand_vanishes(self):
        rule = QuadratureRule.gauss_hermite(16)
        assert abs(integral(rule, lambda x: x)) <= 1e-14

    def test_unit_frequency_oscillation(self):
        # exact: integral e^{ix} e^{-x^2} dx = sqrt(pi) e^{-1/4}
        rule = QuadratureRule.gauss_hermite(24)
        got = integral(rule, lambda x: np.exp(1j * x))
        exact = SQRT_PI * math.exp(-0.25)
        assert abs(got - exact) <= 1e-10

    def test_integration_is_deterministic(self):
        f = lambda x: np.exp(1j * 0.7 * x) * (1 + x * x)  # noqa: E731
        first = integral(QuadratureRule.gauss_hermite(64), f)
        quadrature._standard_rule.cache_clear()  # rebuild the unit rule
        assert integral(QuadratureRule.gauss_hermite(64), f) == first

    def test_non_finite_value_names_offending_node(self):
        seen = []

        def signal(x):
            seen.append(x)
            values = np.exp(-x * x / 2).astype(complex)
            values[..., 3] = np.inf
            return values

        with pytest.raises(IntegrationDomainError) as exc:
            engine.sb_kernel_apply(1.0, signal, np.array([0.4 + 0.3j]))
        assert f"x' = {seen[0][0, 3]:.17g}" in str(exc.value)

    def test_non_finite_callable_result_rejected(self):
        def overflowing(x):
            out = np.ones_like(x, dtype=complex)
            out[..., -1] = np.inf
            return out

        grid = PlaneGrid.regular(2.0, 2.0, 5, 5)
        with pytest.raises(IntegrationDomainError):
            engine.hfrft_apply(TransformParameter.from_t(0.6), overflowing,
                               grid)

    def test_wrong_shape_rejected(self):
        # one value per node: a broadcastable constant is not accepted
        with pytest.raises(ValueError, match="shape"):
            engine.sb_kernel_apply(1.0, lambda x: np.ones(7),
                                   np.array([0.5j]))


class TestIntegrate2D:
    def make_rule(self, nx=24, np_=20):
        return (QuadratureRule.gauss_hermite(nx),
                QuadratureRule.gauss_hermite(np_))

    def integral_2d(self, rules, f) -> complex:
        """Product-rule sum: rows over p first, then over x."""
        rx, rp = rules
        x, p = rx.nodes[:, None], rp.nodes[None, :]
        full = gaussian(rx, x) * gaussian(rp, p) * f(x, p)
        return complex(rx.absorbed @ (full @ rp.absorbed))

    def test_unit_integrand_gives_pi(self):
        got = self.integral_2d(self.make_rule(), lambda x, p: np.ones(
            np.broadcast_shapes(x.shape, p.shape)))
        assert got.real == pytest.approx(math.pi, rel=1e-12)

    def test_odd_product_integrand_vanishes(self):
        assert abs(self.integral_2d(self.make_rule(),
                                    lambda x, p: x * p)) <= 1e-14

    def test_separable_integrand_factorizes(self):
        rules = self.make_rule()
        g = lambda x: x * x + 0.5  # noqa: E731
        h = lambda p: np.exp(1j * p)  # noqa: E731
        got = self.integral_2d(rules, lambda x, p: g(x) * h(p))
        expected = integral(rules[0], g) * integral(rules[1], h)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_non_finite_value_names_both_indices(self):
        # a grid build names the offending node and the row's real part
        grid = PlaneGrid.regular(2.0, 2.0, 5, 5)
        seen = []

        def signal(x):
            seen.append(x)
            values = np.exp(-x * x / 2).astype(complex)
            values[2, 4] = np.nan
            return values

        with pytest.raises(IntegrationDomainError) as exc:
            engine.sb_field(1.0, signal, grid)
        msg = str(exc.value)
        assert f"x' = {seen[0][2, 4]:.17g}" in msg
        assert f"real part {grid.xs[2]:.17g}" in msg

    def test_wrong_shape_rejected(self):
        # a callable that drops the row axis would broadcast silently
        grid = PlaneGrid.regular(2.0, 2.0, 5, 5)
        with pytest.raises(ValueError, match="shape"):
            engine.sb_field(1.0, lambda x: np.exp(-x[0] ** 2 / 2), grid)


class TestTrapezoid:
    def test_refinement_converges_at_second_order_or_better(self):
        # Gaussian integrand over a fixed window: error must at least
        # quarter on each grid doubling until it hits the roundoff floor.
        exact = SQRT_PI
        errors = []
        for n in (9, 17, 33, 65, 129):
            xs = np.linspace(-8.0, 8.0, n)
            rule = QuadratureRule.trapezoid(xs)
            got = float(np.exp(-xs * xs) @ rule.absorbed)
            errors.append(abs(got - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 4 + 1e-13
        assert errors[-1] <= 1e-13

    def test_matches_reference_trapezoid_on_nonuniform_grid(self, rng):
        xs = np.sort(rng.uniform(-3, 3, size=41))
        xs += np.linspace(0, 1e-3, 41)  # enforce strict increase
        values = np.exp(-xs * xs) * (1 + 0.3j * xs)
        rule = QuadratureRule.trapezoid(xs)
        reference = getattr(np, "trapezoid", None) or np.trapz
        assert complex(values @ rule.absorbed) == pytest.approx(
            complex(reference(values, xs)), rel=1e-14)

    def test_raw_and_absorbed_weights_coincide(self):
        # no Gaussian part to absorb: the weights are the plain trapezoid ones
        rule = QuadratureRule.trapezoid(np.linspace(0, 1, 11))
        expected = np.full(11, 0.1)
        expected[[0, -1]] = 0.05
        np.testing.assert_allclose(rule.absorbed, expected, rtol=1e-14)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            QuadratureRule.trapezoid(np.array([0.0, 1.0, 0.5]))


class TestOscillationBudget:
    def test_limit_formula(self):
        rule = QuadratureRule.gauss_hermite(128, scale=0.5)
        expected = OSCILLATION_COEFF * math.sqrt(2 * 128) / 0.5
        assert rule.oscillation_limit() == pytest.approx(expected, rel=1e-15)

    def test_frequencies_inside_budget_pass_and_are_accurate(self):
        for order in (32, 128, 512):
            rule = QuadratureRule.gauss_hermite(order)
            k = 0.99 * rule.oscillation_limit()
            rule.check_oscillation(k)  # must not raise
            got = integral(rule, lambda x, k=k: np.exp(1j * k * x))
            exact = SQRT_PI * math.exp(-k * k / 4)
            assert abs(got - exact) <= 1e-14

    def test_frequency_beyond_budget_raises_with_suggestion(self):
        rule = QuadratureRule.gauss_hermite(64)
        k = 1.2 * rule.oscillation_limit()
        with pytest.raises(SupportError) as exc:
            rule.check_oscillation(k)
        assert exc.value.suggestion > 64

    @given(st.integers(min_value=32, max_value=256))
    def test_budget_frequency_integrates_to_machine_precision(self, order):
        # Below order ~32 the asymptotic budget overshoots (order 16 leaves a
        # ~4e-9 residual), so the machine-precision claim starts at 32.
        rule = QuadratureRule.gauss_hermite(order)
        k = OSCILLATION_COEFF * math.sqrt(2 * order)
        got = integral(rule, lambda x: np.exp(1j * k * x))
        exact = SQRT_PI * math.exp(-k * k / 4)
        assert abs(got - exact) <= 1e-14

    def test_required_order_is_monotone_in_frequency(self):
        orders = [required_order(k, 1.0) for k in (1.0, 5.0, 10.0, 20.0)]
        assert orders == sorted(orders)
        # and sufficient: the rule it suggests passes its own check
        for k in (1.0, 5.0, 10.0, 20.0):
            QuadratureRule.gauss_hermite(
                required_order(k, 1.0)).check_oscillation(k)

    def test_required_order_beyond_cap_raises(self):
        with pytest.raises(SupportError) as exc:
            required_order(50.0, 1.0)
        assert exc.value.suggestion > MAX_ORDER


class TestTailFraction:
    def test_centered_mass_has_tiny_tail(self):
        xs = np.linspace(-8, 8, 201)
        assert tail_fraction(np.exp(-xs * xs)) < 1e-20

    def test_edge_mass_is_flagged(self):
        values = np.zeros(64)
        values[0] = 1.0
        assert tail_fraction(values) == pytest.approx(1.0)
