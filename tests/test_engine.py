"""Quadrature engine: kernel/spectral transforms, inversion, norms, reports."""

import math

import numpy as np
import pytest

from holofrft import closedform, engine
from holofrft.closedform import coherent_state, sb_coherent, sb_coherent_sum
from holofrft.core import (
    KAPPA_SQUARED,
    CoherentLabel,
    CoherentSum,
    Gauge,
    HermiteRep,
    PlaneField,
    PlaneGrid,
    Samples,
    TransformParameter,
)
from holofrft.errors import SupportError
from holofrft.hermite import hermite_analyze, hermite_basis, hermite_poly
from holofrft.quadrature import QuadratureRule

PACKET00 = CoherentSum((1.0,), (CoherentLabel(0.0, 0.0),))
TWO_PACKETS = CoherentSum(
    (0.8 + 0.3j, 0.45 - 0.2j),
    (CoherentLabel(0.3, -0.4), CoherentLabel(-1.1, 0.7)))


def sample_packet(extent=10.0, n=801, label=CoherentLabel(0.0, 0.0)):
    xs = np.linspace(-extent, extent, n)
    return Samples(xs, coherent_state(xs, label))


def bounded_error(s, got, expected, ps):
    """Max difference of holomorphic-gauge values after the e^{-s p^2/2}
    damping that makes the comparison uniform over the plane."""
    damp = np.exp(-s * np.asarray(ps) ** 2 / 2)
    return float(np.max(np.abs(got - expected) * damp))


class TestKernelApply:
    def test_degree_two_polynomial_maps_to_scaled_monomial(self, rng):
        s = 0.8
        z = rng.uniform(0.5, 2.5, 12) * np.exp(
            2j * math.pi * rng.uniform(size=12))

        def poly(x):
            return hermite_poly(2, s, x).astype(complex)

        got = engine.sb_kernel_apply(s, poly, z)
        expected = s ** -2.0 * z ** 2
        assert float(np.max(np.abs(got - expected) / np.abs(expected))) < 1e-9

    def test_packet_image_matches_closed_form(self, rng):
        s = 1.0
        label = CoherentLabel(0.7, -0.3)
        signal = CoherentSum((1.0,), (label,))
        z = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
        got = engine.sb_kernel_apply(s, signal, z)
        expected = sb_coherent(s, label, z)
        assert float(np.max(np.abs(got - expected))) < 1e-9

    def test_degree_two_basis_function_image_keeps_constant_term(self):
        # the image of h_2^s is proportional to (z^2 - 3s/4) e^{-z^2/6s},
        # not to z^2 e^{-z^2/6s}: it does not vanish at z = 0
        s = 0.8
        z = np.array([0.0, 0.9 + 0.4j], dtype=complex)

        def h2(x):
            return hermite_basis(2, s, x)[2].astype(complex)

        img = engine.sb_kernel_apply(s, h2, z)
        assert abs(img[0]) > 1e-3  # nonzero constant component
        bare = img * np.exp(z * z / (6 * s))
        c0 = bare[0]
        c2 = (bare[1] - c0) / z[1] ** 2
        assert complex(c0 / c2) == pytest.approx(-3 * s / 4, rel=1e-8)

    def test_overflowing_points_rejected(self):
        z = np.array([0.0 + 50j])
        with pytest.raises(SupportError, match="overflow"):
            engine.sb_kernel_apply(1.0, PACKET00, z)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            engine.sb_kernel_apply(0.0, PACKET00, np.array([0.0j]))

    @pytest.mark.parametrize("signal", [sample_packet(), TWO_PACKETS],
                             ids=["samples", "packet sum"])
    def test_scattered_points_match_the_grid_build(self, rng, signal):
        # points drawn from a grid repeat its real parts, in any order
        s = 0.8
        grid = PlaneGrid.regular(3.0, 3.0, 13, 11)
        pick = rng.choice(grid.xs.size * grid.ps.size, size=60)
        pick[:5] = pick[5]  # the same point more than once
        points = grid.z_values(s).ravel()[pick]
        got = engine.sb_kernel_apply(s, signal, points)
        expected = engine.sb_field(s, signal, grid).values.ravel()[pick]
        assert float(np.max(np.abs(got - expected))) \
            < 1e-13 * float(np.max(np.abs(expected)))
        assert engine.sb_kernel_apply(s, signal, points[:0]).shape == (0,)


class TestBasisImageCache:
    @pytest.mark.parametrize("s", [math.tan(0.3), 0.7, 1.0, 2.0])
    def test_closed_form_images_match_kernel_quadrature(self, s):
        # the kernel quadrature of each unit basis signal is the oracle
        grid = PlaneGrid.regular(4.0, 4.0, 11, 11)
        z = grid.z_values(s).ravel()
        cache = engine.build_basis_images(s, 40, z)
        assert cache.images.shape == (41, z.size)
        for n in range(41):
            oracle = engine.sb_kernel_apply(s, HermiteRep(s, np.eye(n + 1)[n]), z)
            err = np.abs(cache.images[n] - oracle) / np.maximum(1.0, np.abs(oracle))
            assert float(err.max()) <= 1e-10, n

    def test_lowest_image_ratio_is_twice_the_printed_convention(self):
        s = 0.7
        z = np.array([0.6 + 0.45j, -0.6 - 0.45j, 0.3j], dtype=complex)
        cache = engine.build_basis_images(s, 2, z)
        ratios = cache.images[0] / engine.claimed_basis_image(s, 0, z)
        # constant over the plane; the claimed table's kernel constant is
        # pi^{-1/4} times the unitary one, so the unitary ratio is 2 pi^{1/4}
        assert float(np.max(np.abs(ratios - ratios[0]))) < 1e-9
        assert complex(math.pi ** -0.25 * ratios[0]) == pytest.approx(
            2.0, rel=1e-9)

    def test_degree_one_images_are_proportional(self):
        s = 0.7
        z = np.array([0.5 + 0.2j, -1.1 + 0.4j, 0.9 - 0.6j], dtype=complex)
        cache = engine.build_basis_images(s, 1, z)
        ratios = cache.images[1] / engine.claimed_basis_image(s, 1, z)
        assert float(np.max(np.abs(ratios - ratios[0]))) < 1e-8 * abs(
            ratios[0])

    def test_claimed_rows_capped_at_twelve(self):
        z = np.array([0.4 + 0.1j])
        cache = engine.build_basis_images(1.0, 20, z)
        assert cache.n_max == 20
        assert cache.images.shape == (21, 1)
        table = engine.basis_image_table(1.0, 20, z)
        assert table["quadrature"].shape == (21, 1)
        assert table["claimed-closed-form"].shape == (13, 1)

    def test_degree_beyond_limit_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            engine.build_basis_images(1.0, 201, np.array([0.0j]))

    def test_spectral_apply_selects_cached_rows(self):
        z = np.linspace(-2, 2, 9).astype(complex)
        cache = engine.build_basis_images(1.0, 6, z)
        e0 = engine.sb_spectral_apply(1.0, np.array([1.0 + 0j]), cache)
        np.testing.assert_array_equal(e0, cache.images[0])
        zero = engine.sb_spectral_apply(1.0, np.zeros(5, dtype=complex),
                                        cache)
        np.testing.assert_array_equal(zero, 0.0)

    def test_spectral_apply_validates_inputs(self):
        z = np.array([0.0j])
        cache = engine.build_basis_images(1.0, 4, z)
        with pytest.raises(ValueError, match="exceed"):
            engine.sb_spectral_apply(1.0, np.ones(6), cache)
        with pytest.raises(ValueError, match="scale"):
            engine.sb_spectral_apply(2.0, np.ones(3), cache)

    def test_spectral_route_reproduces_packet_image(self):
        s = 1.0
        xs = np.linspace(-2, 2, 7)
        ps = np.linspace(-2, 2, 7)
        z = (xs[:, None] + 1j * s * ps[None, :]).ravel()
        coeffs = hermite_analyze(PACKET00, s, 40)
        cache = engine.build_basis_images(s, 40, z)
        got = engine.sb_spectral_apply(s, coeffs, cache)
        expected = sb_coherent(s, CoherentLabel(0.0, 0.0), z)
        assert float(np.max(np.abs(got - expected))) < 1e-7

    def test_spectral_and_kernel_routes_agree(self, rng):
        s = 1.0
        z = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
        coeffs = rng.normal(size=20) + 1j * rng.normal(size=20)
        coeffs /= np.linalg.norm(coeffs)
        signal = HermiteRep(s, coeffs)
        direct = engine.sb_kernel_apply(s, signal, z)
        cache = engine.build_basis_images(s, 40, z)
        spectral = engine.sb_spectral_apply(
            s, hermite_analyze(signal, s, 40), cache)
        assert float(np.max(np.abs(direct - spectral))) < 2e-8


class TestTransformField:
    def test_identity_member_replicates_signal_along_p(self):
        grid = PlaneGrid.regular(2.0, 3.0, 11, 7)
        field = engine.hfrft_apply(TransformParameter.from_t(0.0), PACKET00,
                                   grid)
        assert field.gauge is Gauge.WEIGHTED
        assert field.param.is_identity
        column = coherent_state(grid.xs, CoherentLabel(0.0, 0.0))
        for j in range(grid.ps.size):
            np.testing.assert_array_equal(field.values[:, j], column)

    def test_coherent_field_matches_closed_form(self):
        param = TransformParameter.from_t(0.7)
        grid = engine.suggest_grid(param, TWO_PACKETS)
        field = engine.hfrft_apply(param, TWO_PACKETS, grid)
        X, P = grid.meshes()
        oracle = closedform.hfrft_coherent_sum(
            X, P, param, TWO_PACKETS.weights, TWO_PACKETS.labels)
        assert float(np.max(np.abs(field.values - oracle))) < 1e-9

    def test_transform_is_linear(self):
        param = TransformParameter.from_s(1.0)
        f = CoherentSum((0.6,), (CoherentLabel(0.5, 1.0),))
        g = CoherentSum((0.0 + 0.8j,), (CoherentLabel(-0.4, -0.8),))
        combined = CoherentSum(f.weights + g.weights, f.labels + g.labels)
        grid = engine.suggest_grid(param, combined)
        total = engine.hfrft_apply(param, combined, grid).values
        parts = engine.hfrft_apply(param, f, grid).values \
            + engine.hfrft_apply(param, g, grid).values
        peak = float(np.max(np.abs(total)))
        assert float(np.max(np.abs(total - parts))) < 1e-11 * max(peak, 1.0)

    def test_spectral_method_agrees_with_kernel_method(self):
        param = TransformParameter.from_s(1.0)
        grid = PlaneGrid.regular(3.0, 3.0, 25, 25)
        kernel = engine.hfrft_apply(param, TWO_PACKETS, grid)
        spectral = engine.hfrft_apply(param, TWO_PACKETS, grid,
                                      method="spectral", spectral_order=40)
        assert float(np.max(np.abs(kernel.values - spectral.values))) < 2e-8

    def test_unknown_method_rejected(self):
        grid = PlaneGrid.regular(1.0, 1.0, 3, 3)
        with pytest.raises(ValueError, match="method"):
            engine.hfrft_apply(TransformParameter.from_s(1.0), PACKET00,
                               grid, method="fft")

    def test_holomorphic_field_matches_pointwise_kernel(self):
        s = 1.3
        grid = PlaneGrid.regular(3.0, 2.5, 21, 17)
        field = engine.sb_field(s, TWO_PACKETS, grid)
        assert field.gauge is Gauge.HOLOMORPHIC
        pointwise = engine.sb_kernel_apply(
            s, TWO_PACKETS, grid.z_values(s).ravel()).reshape(grid.shape)
        peak = float(np.max(np.abs(pointwise)))
        assert float(np.max(np.abs(field.values - pointwise))) < 1e-12 * peak

    def test_holomorphic_grid_overflow_rejected(self):
        grid = PlaneGrid.regular(1.0, 40.0, 3, 9)
        with pytest.raises(SupportError, match="overflow"):
            engine.sb_field(1.0, PACKET00, grid)

    def test_sampled_signal_field_matches_closed_form(self):
        s = 1.0
        signal = sample_packet()
        param = TransformParameter.from_s(s)
        grid = PlaneGrid.regular(4.0, 4.0, 33, 33)
        field = engine.sb_field(s, signal, grid)
        oracle = sb_coherent(s, CoherentLabel(0.0, 0.0), grid.z_values(s))
        assert bounded_error(s, field.values, oracle, grid.ps[None, :]) < 1e-10
        weighted = engine.hfrft_apply(param, signal, grid)
        w_oracle = closedform.hfrft_coherent(
            *grid.meshes(), param, CoherentLabel(0.0, 0.0))
        assert float(np.max(np.abs(weighted.values - w_oracle))) < 1e-10

    def test_coarsely_sampled_signal_rejected_for_fast_oscillations(self):
        xs = np.linspace(-10, 10, 41)  # spacing 0.5, bandwidth limit pi
        signal = Samples(xs, np.exp(-xs * xs / 2))
        grid = PlaneGrid.regular(2.0, 4.0, 9, 9)
        with pytest.raises(SupportError, match="resample"):
            engine.sb_field(1.0, signal, grid)

    def test_short_sample_range_rejected(self):
        signal = sample_packet(extent=1.5, n=61)
        grid = PlaneGrid.regular(2.0, 2.0, 9, 9)
        with pytest.raises(SupportError, match="extend the sample range"):
            engine.sb_field(1.0, signal, grid)


class TestEndpoint:
    def test_ground_packet_endpoint_closed_form(self):
        grid = PlaneGrid.regular(3.0, 3.0, 41, 41)
        field = engine.endpoint_apply(PACKET00, grid)
        assert field.param.is_endpoint
        X, P = grid.meshes()
        expected = math.pi ** -0.5 * np.exp(-1j * X * P - P ** 2 / 2)
        assert float(np.max(np.abs(field.values - expected))) < 1e-9

    def test_position_shift_becomes_pure_phase(self):
        Q = 1.1
        grid = PlaneGrid.regular(2.0, 2.5, 21, 21)
        shifted = engine.endpoint_apply(
            CoherentSum((1.0,), (CoherentLabel(0.0, Q),)), grid)
        base = engine.endpoint_apply(PACKET00, grid)
        # modulus peaks on the p = 0 line regardless of x
        mods = np.abs(shifted.values)
        assert np.all(np.argmax(mods, axis=1) == grid.ps.size // 2)
        ratio = shifted.values / base.values
        expected = np.exp(1j * Q * grid.ps)[None, :]
        assert float(np.max(np.abs(ratio - expected))) < 1e-10

    def test_real_even_signal_has_even_modulus_in_p(self):
        xs = np.linspace(-8, 8, 401)
        signal = Samples(xs, np.exp(-xs * xs) * (1 + xs * xs))
        grid = PlaneGrid.regular(2.0, 3.0, 9, 41)
        field = engine.endpoint_apply(signal, grid)
        mods = np.abs(field.values)
        assert float(np.max(np.abs(mods - mods[:, ::-1]))) < 1e-10

    def test_gaussian_is_a_fourier_fixed_point(self):
        # A bare callable carries no envelope metadata, so the auto rule is
        # wide and only ~1e-5 accurate at the p edges; fix the order instead.
        grid = PlaneGrid.regular(2.5, 2.5, 21, 21)
        field = engine.endpoint_apply(
            lambda x: np.exp(-x * x / 2).astype(complex), grid, order=512)
        expected = np.exp(-1j * grid.xs[:, None] * grid.ps[None, :]
                          - grid.ps[None, :] ** 2 / 2)
        assert float(np.max(np.abs(field.values - expected))) < 1e-9

    def test_transform_approaches_endpoint_as_angle_grows(self):
        grid = PlaneGrid.regular(2.0, 2.0, 17, 17)
        endpoint = engine.endpoint_apply(PACKET00, grid).values
        gaps = []
        for eps in (0.3, 0.2, 0.1, 0.05):
            param = TransformParameter.from_t(math.pi / 2 - eps)
            vals = engine.hfrft_apply(param, PACKET00, grid).values
            gaps.append(float(np.max(np.abs(vals - endpoint))))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_coarse_samples_rejected(self):
        xs = np.linspace(-10, 10, 21)  # spacing 1.0
        signal = Samples(xs, np.exp(-xs * xs / 2))
        grid = PlaneGrid.regular(2.0, 4.0, 9, 17)
        with pytest.raises(SupportError, match="too coarse"):
            engine.endpoint_apply(signal, grid)


class TestInverse:
    def test_reconstructs_packet_from_its_image(self):
        s = 1.0
        xs = np.linspace(-4, 4, 33)
        got, estimate = engine.sb_inverse(
            s, lambda z: sb_coherent(s, CoherentLabel(0.0, 0.0), z), xs,
            R=8.0)
        expected = coherent_state(xs, CoherentLabel(0.0, 0.0))
        assert float(np.max(np.abs(got - expected))) < 1e-6
        assert estimate < 1e-6

    def test_reconstructs_superposition_from_grid_field(self):
        # label momenta shift the reconstruction integrand in p, so the
        # truncation radius carries extra headroom beyond the ground case
        s = 1.0
        grid = PlaneGrid.regular(5.0, 10.5, 201, 841)
        field = engine.sb_field(s, TWO_PACKETS, grid)
        xs = grid.xs[40:161:8]
        got, _ = engine.sb_inverse(s, field, xs, R=10.0)
        expected = closedform.coherent_sum_values(
            TWO_PACKETS.weights, TWO_PACKETS.labels, xs)
        assert float(np.max(np.abs(got - expected))) < 1e-6

    def test_zero_field_inverts_to_zero(self):
        got, estimate = engine.sb_inverse(
            1.0, lambda z: np.zeros_like(z), np.linspace(-2, 2, 9), R=8.0)
        np.testing.assert_array_equal(got, 0.0)
        assert estimate == 0.0

    def test_truncation_radius_is_saturated(self):
        # The reconstruction integrand for this label decays like
        # exp(-(p - 0.4)^2 / 4), so the tail beyond R = 10 is ~1e-12 while
        # the R = 8 tail is still ~2e-8; both node sets share spacing 0.02,
        # making the discretization error cancel in the comparison.
        xs = np.linspace(-3, 3, 13)
        f = lambda z: sb_coherent(1.0, CoherentLabel(0.4, 0.2), z)  # noqa: E731
        base, est_base = engine.sb_inverse(1.0, f, xs, R=10.0, num_p=1001)
        wider, _ = engine.sb_inverse(1.0, f, xs, R=20.0, num_p=2001)
        narrow, est_narrow = engine.sb_inverse(1.0, f, xs, R=8.0, num_p=801)
        assert float(np.max(np.abs(wider - base))) < 1e-10
        assert float(np.max(np.abs(wider - narrow))) < 1e-6
        assert 0.0 < est_base < est_narrow

    def test_grid_field_must_cover_truncation_radius(self):
        grid = PlaneGrid.regular(3.0, 2.0, 31, 21)
        field = engine.sb_field(1.0, PACKET00, grid)
        with pytest.raises(SupportError, match="cover"):
            engine.sb_inverse(1.0, field, grid.xs[:5], R=8.0)

    def test_points_must_lie_on_field_axis(self):
        grid = PlaneGrid.regular(3.0, 9.0, 31, 301)
        field = engine.sb_field(1.0, PACKET00, grid)
        with pytest.raises(ValueError, match="x-axis"):
            engine.sb_inverse(1.0, field, np.array([0.123456]), R=8.0)


class TestNorms:
    def test_packet_norm_is_exactly_one(self):
        assert engine.norm_l2(PACKET00) == pytest.approx(1.0, abs=1e-12)
        assert engine.norm_l2(
            CoherentSum((1.0,), (CoherentLabel(1.3, -0.8),))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_basis_signal_norm_is_coefficient_power(self):
        coeffs = np.zeros(21, dtype=complex)
        coeffs[20] = 1.0
        assert engine.norm_l2(HermiteRep(0.8, coeffs)) == pytest.approx(
            1.0, abs=1e-10)
        assert engine.norm_l2(HermiteRep(1.0, np.array([3.0, 4.0j]))) == \
            pytest.approx(25.0, rel=1e-12)

    def test_sampled_packet_norm(self):
        assert engine.norm_l2(sample_packet()) == pytest.approx(1.0,
                                                                abs=1e-10)

    def test_zero_signal_has_zero_norm(self):
        zero = CoherentSum((0.0,), (CoherentLabel(0.0, 0.0),))
        assert engine.norm_l2(zero) == 0.0
        param = TransformParameter.from_t(math.pi / 4)
        grid = engine.suggest_grid(param, PACKET00)
        field = engine.hfrft_apply(param, zero, grid)
        assert engine.norm_ht(field) == 0.0
        hol = engine.sb_field(1.0, zero, engine.suggest_grid(
            TransformParameter.from_s(1.0), PACKET00))
        assert engine.norm_hs(hol) == 0.0

    def test_range_norm_is_constant_fraction_of_domain_norm(self):
        param = TransformParameter.from_t(math.pi / 4)
        values = []
        for label in (CoherentLabel(0.0, 0.0), CoherentLabel(0.8, -0.6),
                      CoherentLabel(-1.2, 0.4)):
            signal = CoherentSum((1.0,), (label,))
            grid = engine.suggest_grid(param, signal)
            values.append(engine.norm_ht(engine.hfrft_apply(param, signal,
                                                            grid)))
        for v in values:
            assert v == pytest.approx(KAPPA_SQUARED, abs=1e-6)
        assert max(values) - min(values) < 1e-6

    def test_holomorphic_norm_equals_domain_norm(self):
        for label in (CoherentLabel(0.0, 0.0), CoherentLabel(0.9, 0.5)):
            signal = CoherentSum((1.0,), (label,))
            grid = engine.suggest_grid(TransformParameter.from_s(1.0),
                                       signal)
            field = engine.sb_field(1.0, signal, grid)
            assert engine.norm_hs(field) == pytest.approx(1.0, abs=1e-6)

    def test_norms_reject_wrong_gauge(self):
        grid = PlaneGrid.regular(2.0, 2.0, 9, 9)
        weighted = PlaneField(grid, np.ones(grid.shape), Gauge.WEIGHTED,
                              TransformParameter.from_s(1.0))
        holomorphic = PlaneField(grid, np.ones(grid.shape), Gauge.HOLOMORPHIC,
                                 TransformParameter.from_s(1.0))
        with pytest.raises(ValueError, match="gauge"):
            engine.norm_ht(holomorphic)
        with pytest.raises(ValueError, match="gauge"):
            engine.norm_hs(weighted)

    def test_norm_l2_rejects_bare_callables(self):
        with pytest.raises(TypeError):
            engine.norm_l2(lambda x: np.exp(-x * x))

    def test_field_with_edge_mass_rejected(self):
        grid = PlaneGrid.regular(1.0, 1.0, 9, 9)
        field = engine.hfrft_apply(TransformParameter.from_t(math.pi / 4),
                                   PACKET00, grid)
        with pytest.raises(SupportError, match="enlarge the grid"):
            engine.norm_ht(field)


class TestIsometry:
    def test_weighted_inner_product_polarization(self):
        # <A f, A g> = kappa^2 <f, g>, with the range inner product recovered
        # from range norms: sum_k (-i)^k |A f + i^k A g|^2 / 4
        a = CoherentLabel(0.4, 0.9)
        b = CoherentLabel(-0.3, -0.7)
        param = TransformParameter.from_t(0.9)
        combined = CoherentSum((1.0, 1.0), (a, b))
        grid = engine.suggest_grid(param, combined)
        fa = engine.hfrft_apply(param, CoherentSum((1.0,), (a,)), grid).values
        fb = engine.hfrft_apply(param, CoherentSum((1.0,), (b,)), grid).values
        got = sum((-1j) ** k * engine.norm_ht(PlaneField(
            grid, fa + 1j ** k * fb, Gauge.WEIGHTED, param)) for k in range(4))
        got /= 4 * KAPPA_SQUARED
        expected = closedform.coherent_overlap(a, b)
        assert abs(got - expected) < 1e-5

    def test_holomorphic_inner_product_polarization(self):
        s = 1.0
        a = CoherentLabel(0.4, 0.9)
        b = CoherentLabel(-0.3, -0.7)
        param = TransformParameter.from_s(s)
        combined = CoherentSum((1.0, 1.0), (a, b))
        grid = engine.suggest_grid(param, combined)
        Fa = engine.sb_field(s, CoherentSum((1.0,), (a,)), grid).values
        Fb = engine.sb_field(s, CoherentSum((1.0,), (b,)), grid).values
        wx = QuadratureRule.trapezoid(grid.xs).absorbed
        wp = QuadratureRule.trapezoid(grid.ps).absorbed
        weight = np.exp(-s * grid.ps ** 2)[None, :]
        got = math.sqrt(s) * complex(
            (wx @ (np.conj(Fa) * Fb * weight)) @ wp)
        expected = closedform.coherent_overlap(a, b)
        assert abs(got - expected) < 1e-5


class TestReports:
    def test_unitarity_report_certifies_both_norm_families(self):
        report = engine.unitarity_report()
        assert report.hs_max_deviation < 1e-5
        assert report.ht_spread < 1e-5
        assert report.kappa_sq_fit == pytest.approx(KAPPA_SQUARED, abs=1e-5)
        assert len(report.signal_names) >= 3
        payload = report.to_dict()
        assert payload["kappa_sq_expected"] == KAPPA_SQUARED
        assert np.asarray(payload["ht_ratios"]).shape == (
            len(report.signal_names), len(report.t_values))

    def test_single_signal_report_has_zero_spread(self):
        report = engine.unitarity_report(
            signals=[("one packet", PACKET00)], t_values=(0.8,),
            s_values=(1.0,))
        assert report.ht_spread == 0.0
        assert report.hs_max_deviation < 1e-6

    def test_second_moments_follow_the_angle_cotangent(self):
        for t in (0.5, math.pi / 4, 1.1):
            param = TransformParameter.from_t(t)
            grid = engine.suggest_grid(param, PACKET00)
            field = engine.hfrft_apply(param, PACKET00, grid)
            vx, vp, ratio = engine.second_moment_ellipse(field)
            assert vx > 0 and vp > 0
            assert ratio == pytest.approx(1 / math.tan(t), rel=1e-4)
        # balanced exactly at the quarter-pi member
        param = TransformParameter.from_t(math.pi / 4)
        field = engine.hfrft_apply(param, PACKET00,
                                   engine.suggest_grid(param, PACKET00))
        assert engine.second_moment_ellipse(field)[2] == pytest.approx(
            1.0, abs=1e-6)

    def test_suggested_grid_meets_the_tail_bound(self):
        param = TransformParameter.from_t(1.2)
        grid = engine.suggest_grid(param, TWO_PACKETS)
        field = engine.hfrft_apply(param, TWO_PACKETS, grid)
        mags = np.abs(field.values)
        edge = max(mags[0].max(), mags[-1].max(), mags[:, 0].max(),
                   mags[:, -1].max())
        assert edge <= 1e-10 * mags.max()

    def test_suggest_grid_rejects_degenerate_members(self):
        with pytest.raises(ValueError):
            engine.suggest_grid(TransformParameter.from_t(0.0), PACKET00)
        with pytest.raises(ValueError):
            engine.suggest_grid(TransformParameter.from_t(math.pi / 2),
                                PACKET00)

    def test_audit_reports_documented_deviations(self):
        audit = engine.basis_image_audit(s=0.7)
        n0 = complex(*audit["n0_ratio_printed_convention"])
        assert n0 == pytest.approx(2.0, abs=1e-9)
        assert audit["n0_ratio_spread"] < 1e-9
        c0_over_c2 = complex(*audit["n2_c0_over_c2"])
        assert c0_over_c2 == pytest.approx(audit["n2_c0_over_c2_expected"],
                                           rel=1e-9)
        assert audit["n2_c0_over_c2_expected"] == pytest.approx(-3 * 0.7 / 4)
        assert abs(complex(*audit["n2_image_at_zero"])) > 1e-3
