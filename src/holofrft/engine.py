"""Quadrature engine: transforms of arbitrary signals, norms, and reports.

The forward transform is a Gaussian convolution followed by analytic
continuation,

    SB_s f(z) = (2 pi s)^{-1/2} integral exp(-(z - x')^2 / (2s)) f(x') dx'.

Writing z = c + i b with b = s p, the kernel splits as

    exp(-(z-x')^2/2s) = e^{b^2/2s} exp(-(c-x')^2/2s) exp(i p (x'-c)),

so the engine always computes the bounded "reduced" sum (everything except
e^{b^2/2s}). Weighted-gauge callers never form the growth factor at all: the
e^{-s p^2/2} of the gauge cancels it exactly, which keeps field builds free of
large exponentials. Holomorphic-gauge callers multiply it back under an
overflow guard.

One row builder serves every kernel build. For each distinct real part c it
places nodes m(c) + u_k (sampled signals: their own grid with m = 0; others:
a Gauss-Hermite rule matched to the kernel-times-envelope Gaussian and
recentered on m(c)) and forms the row kernel x f(node) x weight. Since
e^{i p (x'-c)} = e^{i p (m-c)} e^{i p u}, a tensor grid then needs one matrix
product per field build, and arbitrary points one row gather per point.

The spectral route uses the closed-form images of the scale-s basis
functions; claimed-table images and kernel quadrature of the basis exist only
for the audit of the claimed table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .core import (
    CoherentLabel,
    CoherentSum,
    Gauge,
    HermiteRep,
    KAPPA_SQUARED,
    PlaneField,
    PlaneGrid,
    Samples,
    TransformParameter,
    gauge_factor,
    measure_density,
)
from .errors import IntegrationDomainError, SupportError
# hermite_analyze and hermite_basis stay importable from the engine, where
# the CLI and the benchmark's tracer reach them.
from .hermite import (  # noqa: F401
    MAX_DEGREE,
    evaluate_signal,
    hermite_analyze,
    hermite_basis,
    signal_envelope,
)
from .quadrature import QuadratureRule, required_order, tail_fraction

DEFAULT_ORDER = 64
DEFAULT_SPECTRAL_ORDER = 40
BOUNDARY_TAIL = 1e-10
CLAIMED_MAX = 12  # highest degree of the claimed basis-image table
_CHUNK = 4096
_EXP_LIMIT = 700.0  # exponent ceiling before float64 overflow


def _poly_margin(signal) -> int:
    """Extra rule order for signals with polynomial structure."""
    if isinstance(signal, HermiteRep):
        return signal.coeffs.size // 2 + 8
    return 0


def _check_sample_bandwidth(signal: Samples, freq: float) -> None:
    """Sampled signals integrate on their own grid; cap the phase frequency.

    Trapezoid sums of a decaying integrand sampled at spacing dx resolve
    e^{i k x} with alias error suppressed by the Gaussian kernel factor while
    k stays below half the Nyquist rate pi/dx.
    """
    limit = math.pi / (2 * signal.dx)
    if freq > limit:
        needed = math.pi / (2 * freq)
        raise SupportError(
            f"oscillation frequency {freq:.3g} exceeds the sample-grid limit "
            f"{limit:.3g}; resample with spacing <= {needed:.3g}",
            suggestion=needed)


def _kernel_rows(s: float, signal, cs: np.ndarray, max_freq: float,
                 order: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced-kernel rows at the real parts ``cs``: (rows, offsets, centers).

    Row i holds kernel x f(node) x weight at the nodes centers[i] + offsets,
    so the reduced transform at c_i + i s p is
    e^{i p (centers[i] - c_i)} sum_k rows[i, k] e^{i p offsets[k]} / sqrt(2 pi s)
    for |p| <= max_freq. Sampled signals integrate on their own grid
    (trapezoid weights, exact sample values); other signals use a
    Gauss-Hermite rule matched to the kernel-times-envelope Gaussian.
    """
    if isinstance(signal, Samples):
        _check_sample_bandwidth(signal, max_freq)
        offsets = nodes = signal.xs
        centers = np.zeros_like(cs)
        # the trapezoid weights multiply the exact samples before the kernel
        # does; that order fixes the bits of sampled fields
        values = signal.values * QuadratureRule.trapezoid(nodes).absorbed
        weights = 1.0
        remedy, suggestion = "extend the sample range", None
    else:
        lam, center_f, osc = signal_envelope(signal)
        a = 1 / (2 * s) + lam
        lam = a - 1 / (2 * s)  # as rounded into a: keeps node centers' bits
        sigma = 1 / math.sqrt(a)
        if order is None:
            order = max(DEFAULT_ORDER + _poly_margin(signal),
                        required_order(max_freq + osc, sigma, minimum=1))
        rule = QuadratureRule.gauss_hermite(int(order), center=0.0, scale=sigma)
        rule.check_oscillation(max_freq + osc)
        offsets, weights = rule.nodes, rule.absorbed
        centers = (cs / (2 * s) + lam * center_f) / a
        nodes = centers[:, None] + offsets[None, :]
        values = evaluate_signal(signal, nodes)
        remedy, suggestion = "raise the order", 2 * rule.order
    with np.errstate(under="ignore", invalid="ignore"):  # checked below
        rows = np.exp(-(cs[:, None] - nodes) ** 2 / (2 * s)) * values * weights
    bad = ~np.isfinite(rows)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise IntegrationDomainError(
            f"integrand is non-finite at node x' = "
            f"{centers[i] + offsets[k]:.17g} (real part {cs[i]:.17g})")
    frac = tail_fraction(rows)
    if frac > BOUNDARY_TAIL:
        raise SupportError(
            f"kernel quadrature tail fraction {frac:.2e} exceeds "
            f"{BOUNDARY_TAIL:.0e}; {remedy}", suggestion=suggestion)
    return rows, offsets, centers


def _reduced_on_grid(s: float, signal, grid: PlaneGrid,
                     order: int | None = None) -> np.ndarray:
    """Reduced transform values on a tensor grid: one matrix product."""
    ps = grid.ps
    rows, offsets, centers = _kernel_rows(
        s, signal, grid.xs, float(np.max(np.abs(ps))), order)
    with np.errstate(under="ignore"):
        osc = np.exp(1j * np.multiply.outer(ps, offsets))              # (np, K)
        phase = np.exp(1j * np.multiply.outer(centers - grid.xs, ps))  # (nx, np)
    return phase * (rows @ osc.T) / math.sqrt(2 * math.pi * s)


def sb_kernel_apply(s: float, signal, points,
                    order: int | None = None) -> np.ndarray:
    """Holomorphic-gauge transform values at complex points z = x + i s p.

    Direct quadrature route: rows are built once per distinct real part and
    contracted per point. Values grow like e^{(Im z)^2 / 2s}; an overflow
    guard raises SupportError where that exceeds float64 (build the weighted
    gauge instead via hfrft_apply in that regime).
    """
    if not (0.0 < s < math.inf):
        raise ValueError(f"s must be positive and finite, got {s!r}")
    pts = np.asarray(points, dtype=complex)
    if not pts.size:
        return np.zeros(pts.shape, dtype=complex)
    growth = pts.imag ** 2 / (2 * s)
    if growth.max() > _EXP_LIMIT:
        raise SupportError(
            "holomorphic-gauge values overflow float64 at these points; "
            "use the weighted gauge")
    flat = pts.ravel()
    ps = flat.imag / s
    cs, row_of = np.unique(flat.real, return_inverse=True)
    rows, offsets, centers = _kernel_rows(
        s, signal, cs, float(np.max(np.abs(ps))), order)
    reduced = np.empty(flat.shape, dtype=complex)
    for start in range(0, flat.size, _CHUNK):
        sl = slice(start, start + _CHUNK)
        row = row_of[sl]
        with np.errstate(under="ignore"):
            osc = np.exp(1j * np.multiply.outer(ps[sl], offsets))
            phase = np.exp(1j * ps[sl] * (centers[row] - flat.real[sl]))
        reduced[sl] = phase * np.einsum("ck,ck->c", rows[row], osc)
    reduced /= math.sqrt(2 * math.pi * s)
    return np.exp(growth) * reduced.reshape(pts.shape)


@dataclass(frozen=True, eq=False)
class BasisImageCache:
    """Closed-form images of the scale-s basis functions at fixed plane points."""

    s: float
    points: np.ndarray  # complex, flat
    images: np.ndarray  # (n_max+1, len(points))

    @property
    def n_max(self) -> int:
        return self.images.shape[0] - 1

    @property
    def order(self) -> int:
        """Evaluations per image value: 1, since each is a closed form."""
        return 1


def build_basis_images(s: float, n_max: int, points) -> BasisImageCache:
    """Images G_n = SB_s h_n^s, n = 0 .. n_max, at the given complex points.

    SB_s is a heat flow, so it turns multiplication by x into z + s d/dz and
    maps the basis recurrence onto a closed form (a Bargmann-type transform
    of the Hermite functions):

        G_n(z) = (2s)^{-1/4} pi^{-1/2} (2/3)^{1/2} (sqrt(s)/2)^n (n!)^{-1/2}
                 H_n^{3s/4}(z) e^{-z^2/(6s)},

    evaluated through the normalized recurrence
    G_{n+1} = 2z / (3 sqrt(s (n+1))) G_n - sqrt(n/(n+1)) / 3 G_{n-1}.
    """
    if not (0.0 < s < math.inf):
        raise ValueError(f"s must be positive and finite, got {s!r}")
    if not 0 <= n_max <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_DEGREE}], got {n_max!r}")
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size and float(np.max(pts.imag ** 2)) / (2 * s) > _EXP_LIMIT:
        raise SupportError("basis images overflow float64 at these points")
    images = np.empty((n_max + 1, pts.size), dtype=complex)
    step = 2 * pts / (3 * math.sqrt(s))
    with np.errstate(under="ignore"):
        images[0] = (2 * s) ** -0.25 * math.pi ** -0.5 * math.sqrt(2 / 3) \
            * np.exp(-pts * pts / (6 * s))
        if n_max >= 1:
            images[1] = step * images[0]
        for n in range(1, n_max):
            images[n + 1] = step / math.sqrt(n + 1) * images[n] \
                - math.sqrt(n / (n + 1)) / 3 * images[n - 1]
    return BasisImageCache(s=s, points=pts, images=images)


def claimed_basis_image(s: float, n: int, z) -> np.ndarray:
    """Closed-form candidate image d_{s,n} z^n e^{-z^2/(6s)} of basis function n."""
    z = np.asarray(z, dtype=complex)
    a_sn = (2 * s) ** -0.25 * (math.pi * math.factorial(n)) ** -0.5 * s ** (n / 2)
    d_sn = (-1.0) ** n * a_sn * s ** -float(n) * math.pi ** -0.25 \
        * 6 ** -0.5 * 3.0 ** -n
    return d_sn * z ** n * np.exp(-z * z / (6 * s))


def basis_image_table(s: float, n_max: int, z,
                      order: int | None = None) -> dict[str, np.ndarray]:
    """Basis images at points z by two provenances, keyed by provenance.

    ``quadrature`` rows n = 0..n_max are the kernel quadrature of each unit
    basis signal; ``claimed-closed-form`` rows n = 0..min(n_max, CLAIMED_MAX)
    come from the claimed table d_{s,n} z^n e^{-z^2/(6s)}. The two disagree
    by design for n >= 1; see basis_image_audit.
    """
    z = np.asarray(z, dtype=complex)
    return {
        "quadrature": np.stack([
            sb_kernel_apply(s, HermiteRep(s, np.eye(n + 1)[n]), z, order)
            for n in range(n_max + 1)]),
        "claimed-closed-form": np.stack([
            claimed_basis_image(s, n, z)
            for n in range(min(n_max, CLAIMED_MAX) + 1)]),
    }


def sb_spectral_apply(s: float, coeffs, cache: BasisImageCache) -> np.ndarray:
    """Holomorphic-gauge values from basis coefficients and cached images."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if coeffs.size > cache.n_max + 1:
        raise ValueError(
            f"{coeffs.size} coefficients exceed cache degree {cache.n_max}")
    if abs(s - cache.s) > 1e-14 * max(s, cache.s):
        raise ValueError("cache was built for a different scale")
    return coeffs @ cache.images[:coeffs.size]


def hfrft_apply(param: TransformParameter, signal, grid: PlaneGrid,
                method: str = "kernel", order: int | None = None,
                spectral_order: int = DEFAULT_SPECTRAL_ORDER) -> PlaneField:
    """Weighted-gauge transform field of a signal over a plane grid.

    t = 0 embeds the signal as a p-independent field (identity member);
    t = pi/2 delegates to endpoint_apply. The kernel method cancels all
    growing exponentials analytically; the spectral method projects onto
    spectral_order + 1 basis functions first and uses their closed-form
    images. ``order`` fixes the rule order of the kernel quadrature or, for
    the spectral method, of the projection.
    """
    if param.is_identity:
        vals = np.broadcast_to(
            evaluate_signal(signal, grid.xs)[:, None], grid.shape).copy()
        return PlaneField(grid, vals, Gauge.WEIGHTED, param)
    if param.is_endpoint:
        return endpoint_apply(signal, grid, order)
    s = param.s
    if method == "kernel":
        reduced = _reduced_on_grid(s, signal, grid, order)
        vals = (1 + s * s) ** 0.25 * reduced
        return PlaneField(grid, vals, Gauge.WEIGHTED, param)
    if method == "spectral":
        coeffs = hermite_analyze(signal, s, spectral_order, order)
        cache = build_basis_images(s, spectral_order, grid.z_values(s).ravel())
        raw = sb_spectral_apply(s, coeffs, cache).reshape(grid.shape)
        vals = raw * gauge_factor(param, grid.ps)[None, :]
        return PlaneField(grid, vals, Gauge.WEIGHTED, param)
    raise ValueError(f"method must be 'kernel' or 'spectral', got {method!r}")


def sb_field(s: float, signal, grid: PlaneGrid,
             order: int | None = None) -> PlaneField:
    """Holomorphic-gauge field over a tensor grid (separable fast path).

    Same quantity as sb_kernel_apply on grid.z_values(s), assembled with one
    matrix product instead of a per-point contraction.
    """
    if not (0.0 < s < math.inf):
        raise ValueError(f"s must be positive and finite, got {s!r}")
    growth = s * grid.ps ** 2 / 2
    if growth.max() > _EXP_LIMIT:
        raise SupportError(
            "holomorphic-gauge values overflow float64 on this grid; "
            "use the weighted gauge")
    reduced = _reduced_on_grid(s, signal, grid, order)
    vals = reduced * np.exp(growth)[None, :]
    return PlaneField(grid, vals, Gauge.HOLOMORPHIC,
                      TransformParameter.from_s(s))


def endpoint_apply(signal, grid: PlaneGrid,
                   order: int | None = None) -> PlaneField:
    """Field at t = pi/2: e^{-i p x} times the Fourier transform of the signal.

    Fourier convention: (F f)(p) = (2 pi)^{-1/2} integral e^{+i p x} f(x) dx.
    Quadrature route (independent of the endpoint closed form): sampled
    signals integrate on their own grid, others on an envelope-matched rule.
    """
    ps = grid.ps
    p_max = float(np.max(np.abs(ps)))
    if isinstance(signal, Samples):
        if signal.dx > math.pi / (2 * p_max):
            raise SupportError(
                f"sample spacing {signal.dx:.3g} too coarse for |p| <= "
                f"{p_max:.3g}; need <= {math.pi / (2 * p_max):.3g}",
                suggestion=math.pi / (2 * p_max))
        rule = QuadratureRule.trapezoid(signal.xs)
        f_vals = signal.values
    else:
        lam, center_f, osc = signal_envelope(signal)
        if lam == 0.0:
            lam = 1 / 32  # callables: wide default envelope, tail-checked below
        sigma = 1 / math.sqrt(lam)
        if order is None:
            order = max(DEFAULT_ORDER + _poly_margin(signal),
                        required_order(p_max + osc, sigma, minimum=1))
        rule = QuadratureRule.gauss_hermite(int(order), center=center_f,
                                            scale=sigma)
        rule.check_oscillation(p_max + osc)
        f_vals = evaluate_signal(signal, rule.nodes)
        frac = tail_fraction(f_vals * rule.absorbed)
        if frac > BOUNDARY_TAIL:
            raise SupportError(
                f"signal tail fraction {frac:.2e} at the rule edge; "
                "raise the order", suggestion=2 * rule.order)
    weighted = f_vals * rule.absorbed
    transform = np.exp(1j * np.multiply.outer(ps, rule.nodes)) @ weighted
    transform /= math.sqrt(2 * math.pi)
    vals = np.exp(-1j * np.multiply.outer(grid.xs, ps)) * transform[None, :]
    return PlaneField(grid, vals, Gauge.WEIGHTED,
                      TransformParameter.from_t(math.pi / 2))


def sb_inverse(s: float, field, xs, R: float,
               num_p: int | None = None) -> tuple[np.ndarray, float]:
    """Signal values on xs from a holomorphic-gauge field, truncated at |p| <= R.

    Implements the p-slice reconstruction
    f(x) = sqrt(s / (2 pi)) * integral_{-R}^{R} e^{-s p^2/2} F(x + i s p) dp.
    ``field`` is either a callable z -> values (evaluated on a fresh p grid
    of num_p points, auto-sized when None) or a PlaneField in the holomorphic
    gauge, integrated on its own p nodes; then xs must lie on the field's
    x-axis and the grid must cover [-R, R]. Returns
    (values, truncation_estimate), the estimate bounding the discarded
    |p| > R tail.
    """
    xs = np.asarray(xs, dtype=float)
    if callable(field):
        if num_p is None:
            width = float(np.max(np.abs(xs))) + 8.0
            num_p = 2 * math.ceil(2 * R * width / math.pi) + 1
        ps = np.linspace(-R, R, num_p)
        z = xs[:, None] + 1j * s * ps[None, :]
        vals = np.asarray(field(z), dtype=complex)
    else:
        if field.gauge is not Gauge.HOLOMORPHIC:
            field = field.to_gauge(Gauge.HOLOMORPHIC)
        if abs(field.param.s - s) > 1e-12 * max(s, 1):
            raise ValueError("field parameter does not match s")
        sel = np.abs(field.grid.ps) <= R + 1e-12
        ps = field.grid.ps[sel]
        if ps.size < 9 or ps.min() > -R + field.grid.dp or ps.max() < R - field.grid.dp:
            raise SupportError(
                f"field p-range does not cover [-{R}, {R}] finely enough")
        ix = np.searchsorted(field.grid.xs, xs)
        ix = np.clip(ix, 0, field.grid.xs.size - 1)
        if np.max(np.abs(field.grid.xs[ix] - xs)) > 1e-9:
            raise ValueError("xs must lie on the field grid x-axis")
        vals = field.values[np.ix_(ix, np.flatnonzero(sel))]
    rule = QuadratureRule.trapezoid(ps)
    with np.errstate(under="ignore"):
        integrand = vals * np.exp(-s * ps * ps / 2)[None, :]
    const = math.sqrt(s / (2 * math.pi))
    out = const * (integrand @ rule.absorbed)
    edge = np.abs(integrand[:, 0]) + np.abs(integrand[:, -1])
    estimate = const * float(edge.max()) / (s * R)
    return out, estimate


def _trapezoid_2d(grid: PlaneGrid, dens: np.ndarray) -> float:
    wx = QuadratureRule.trapezoid(grid.xs).absorbed
    wp = QuadratureRule.trapezoid(grid.ps).absorbed
    return float((wx @ dens) @ wp)


def _check_field_tail(dens: np.ndarray, what: str) -> None:
    peak = dens.max()
    if peak == 0:
        return
    edge = max(dens[0, :].max(), dens[-1, :].max(),
               dens[:, 0].max(), dens[:, -1].max())
    if edge > BOUNDARY_TAIL * peak:
        raise SupportError(
            f"{what}: boundary amplitude fraction {edge / peak:.2e} exceeds "
            f"{BOUNDARY_TAIL:.0e}; enlarge the grid (see suggest_grid)")


def norm_l2(signal) -> float:
    """Squared norm <f, f> under the weighted inner product (exact when possible)."""
    if isinstance(signal, CoherentSum):
        total = 0.0 + 0.0j
        for wa, la in zip(signal.weights, signal.labels):
            for wb, lb in zip(signal.weights, signal.labels):
                total += np.conj(wa) * wb * closedform.coherent_overlap(la, lb)
        return float(total.real)
    if isinstance(signal, HermiteRep):
        return float(np.vdot(signal.coeffs, signal.coeffs).real)
    if isinstance(signal, Samples):
        dens = np.abs(signal.values) ** 2
        if tail_fraction(dens) > 1e-8:
            raise SupportError("sampled signal has edge mass; extend the grid")
        rule = QuadratureRule.trapezoid(signal.xs)
        return float(math.pi ** 0.5 * dens @ rule.absorbed)
    raise TypeError(f"norm_l2 needs a signal representation, got {type(signal).__name__}")


def norm_ht(field: PlaneField) -> float:
    """Squared range norm of a weighted-gauge field: measure_density(t) * int |F|^2."""
    if field.gauge is not Gauge.WEIGHTED:
        raise ValueError("norm_ht expects the weighted gauge")
    t = field.param.t
    if not 0 < t < math.pi / 2:
        raise ValueError("range norm defined for t strictly inside (0, pi/2)")
    dens = np.abs(field.values) ** 2
    _check_field_tail(np.sqrt(dens), "weighted-gauge norm")
    return measure_density(t) * _trapezoid_2d(field.grid, dens)


def norm_hs(field: PlaneField) -> float:
    """Squared range norm of a holomorphic-gauge field:
    sqrt(s) * int |F(x+isp)|^2 e^{-s p^2} dx dp."""
    if field.gauge is not Gauge.HOLOMORPHIC:
        raise ValueError("norm_hs expects the holomorphic gauge")
    s = field.param.s
    with np.errstate(under="ignore"):
        dens = np.abs(field.values) ** 2 \
            * np.exp(-s * field.grid.ps ** 2)[None, :]
    _check_field_tail(np.sqrt(dens), "holomorphic-gauge norm")
    return math.sqrt(s) * _trapezoid_2d(field.grid, dens)


def suggest_grid(param: TransformParameter, signal,
                 spacing: float = 0.085, tail: float = BOUNDARY_TAIL) -> PlaneGrid:
    """Grid sized so weighted-gauge fields of the signal satisfy the tail bound.

    Uses the analytic decay rates of packet images, |F| ~
    exp(-(x - Q)^2 / (2(1+s)) - s (p - P)^2 / (2(1+s))), padded by the
    signal's own phase-space extent.
    """
    s = param.s
    if not (0 < s < math.inf):
        raise ValueError("suggest_grid needs 0 < t < pi/2")
    drop = -math.log(tail)  # amplitude decade budget
    dx = math.sqrt(2 * drop * (1 + s))
    dp = math.sqrt(2 * drop * (1 + s) / s)
    q_max = p_max = 0.0
    pad_x = pad_p = 0.0
    if isinstance(signal, CoherentSum):
        q_max = max(abs(lab.Q) for lab in signal.labels)
        p_max = max(abs(lab.P) for lab in signal.labels)
    elif isinstance(signal, HermiteRep):
        n = signal.coeffs.size
        pad_x = 2 * math.sqrt(signal.s * (2 * n + 1))
        pad_p = math.sqrt((2 * n + 1) / (2 * signal.s)) + 1
    elif isinstance(signal, Samples):
        q_max = float(np.max(np.abs(signal.xs)))
        pad_p = math.pi / (2 * signal.dx) / 4  # quarter of the sample bandwidth
    x_extent = q_max + pad_x + 1.1 * dx + 0.5
    p_extent = p_max + pad_p + 1.1 * dp + 0.5
    nx = 2 * math.ceil(x_extent / spacing / 2) + 1
    npts = 2 * math.ceil(p_extent / spacing / 2) + 1
    return PlaneGrid.regular(x_extent, p_extent, nx, npts)


def default_report_signals() -> list[tuple[str, object]]:
    """Deterministic signal set used by unitarity_report and verification."""
    rng = np.random.default_rng(20260815)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    return [
        ("packet(0,0)", CoherentSum((1.0,), (CoherentLabel(0.0, 0.0),))),
        ("packet(0.8,-0.6)", CoherentSum((1.0,), (CoherentLabel(0.8, -0.6),))),
        ("packet(-1.2,0.4)", CoherentSum((1.0,), (CoherentLabel(-1.2, 0.4),))),
        ("pair superposition", CoherentSum(
            (1.0, 0.7j), (CoherentLabel(0.5, 1.0), CoherentLabel(-0.4, -0.8)))),
        ("triple superposition", CoherentSum(
            (0.6, -0.8, 0.35 + 0.2j),
            (CoherentLabel(0.0, 1.3), CoherentLabel(1.0, 0.0),
             CoherentLabel(-0.7, -0.5)))),
        ("random basis signal", HermiteRep(1.0, coeffs / np.linalg.norm(coeffs))),
    ]


@dataclass(frozen=True)
class UnitarityReport:
    """Measured domain-to-range norm ratios across signals and parameters.

    ``ht_ratios[i][j]`` is |A_t f_i|^2 / |f_i|^2 at t_values[j] (weighted
    gauge, plane measure); ``hs_ratios[i][j]`` the holomorphic-gauge ratio at
    s_values[j], which the range norm definition makes exactly 1.
    """

    signal_names: tuple[str, ...]
    t_values: tuple[float, ...]
    s_values: tuple[float, ...]
    ht_ratios: np.ndarray
    hs_ratios: np.ndarray

    @property
    def kappa_sq_fit(self) -> float:
        return float(np.mean(self.ht_ratios))

    @property
    def ht_spread(self) -> float:
        return float(self.ht_ratios.max() - self.ht_ratios.min())

    @property
    def hs_max_deviation(self) -> float:
        return float(np.max(np.abs(self.hs_ratios - 1)))

    def to_dict(self) -> dict:
        return {
            "signal_names": list(self.signal_names),
            "t_values": list(self.t_values),
            "s_values": list(self.s_values),
            "ht_ratios": self.ht_ratios.tolist(),
            "hs_ratios": self.hs_ratios.tolist(),
            "kappa_sq_fit": self.kappa_sq_fit,
            "kappa_sq_expected": KAPPA_SQUARED,
            "ht_spread": self.ht_spread,
            "hs_max_deviation": self.hs_max_deviation,
        }


def unitarity_report(signals: list[tuple[str, object]] | None = None,
                     t_values: tuple[float, ...] = (0.3, math.pi / 4, 1.2),
                     s_values: tuple[float, ...] = (0.5, 1.0, 2.0)) -> UnitarityReport:
    """Norm-ratio survey over a signal battery; see UnitarityReport."""
    if signals is None:
        signals = default_report_signals()
    names = tuple(name for name, _ in signals)
    ht = np.empty((len(signals), len(t_values)))
    hs = np.empty((len(signals), len(s_values)))
    for i, (_, sig) in enumerate(signals):
        base = norm_l2(sig)
        for j, t in enumerate(t_values):
            param = TransformParameter.from_t(t)
            field = hfrft_apply(param, sig, suggest_grid(param, sig))
            ht[i, j] = norm_ht(field) / base
        for j, s in enumerate(s_values):
            param = TransformParameter.from_s(s)
            field = sb_field(s, sig, suggest_grid(param, sig))
            hs[i, j] = norm_hs(field) / base
    return UnitarityReport(signal_names=names, t_values=tuple(t_values),
                           s_values=tuple(s_values), ht_ratios=ht,
                           hs_ratios=hs)


def second_moment_ellipse(field: PlaneField) -> tuple[float, float, float]:
    """Intensity-weighted second moments (var_x, var_p, var_p/var_x) of a field."""
    dens = np.abs(field.values) ** 2
    _check_field_tail(np.sqrt(dens), "second moments")
    grid = field.grid
    mass = _trapezoid_2d(grid, dens)
    mx = _trapezoid_2d(grid, dens * grid.xs[:, None]) / mass
    mp = _trapezoid_2d(grid, dens * grid.ps[None, :]) / mass
    vx = _trapezoid_2d(grid, dens * (grid.xs[:, None] - mx) ** 2) / mass
    vp = _trapezoid_2d(grid, dens * (grid.ps[None, :] - mp) ** 2) / mass
    return vx, vp, vp / vx


def basis_image_audit(s: float = 0.7, z_probe: complex = 0.6 + 0.45j,
                      order: int | None = None) -> dict:
    """Compare quadrature basis images against the claimed closed-form table.

    The claimed images d_{s,n} z^n e^{-z^2/(6s)} disagree with quadrature in
    two documented ways: the n = 0 constant is off by a factor (2 under the
    table's own kernel constant, which is pi^{-1/4} times the unitary one, so
    2 pi^{1/4} against this engine), and for n >= 2 the true image is not
    proportional to z^n e^{-z^2/(6s)} at all: the n = 2 image keeps a nonzero
    z^0 component (exact ratio c0/c2 = -3s/4). Both observations are returned
    for reporting; reproducing them is the expected behavior.
    """
    zs = np.array([z_probe, -z_probe, 1j * z_probe,
                   0.5 * z_probe, 0.0], dtype=complex)
    table = basis_image_table(s, 2, zs, order)
    quadrature, claimed = table["quadrature"], table["claimed-closed-form"]
    # the table's kernel constant is pi^{-1/4} of the unitary normalization
    printed_scale = math.pi ** -0.25
    out: dict = {"s": s, "z_probe": [z_probe.real, z_probe.imag]}
    for n in (0, 1):
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = quadrature[n] / claimed[n]
        finite = ratios[np.isfinite(ratios)]  # z=0 gives 0/0 for n=1
        mean = complex(finite.mean())
        out[f"n{n}_ratio"] = [mean.real, mean.imag]
        out[f"n{n}_ratio_printed_convention"] = [
            (printed_scale * mean).real, (printed_scale * mean).imag]
        out[f"n{n}_ratio_spread"] = float(np.max(np.abs(finite - mean)))
    # z = 0 isolates the z^0 component of the n = 2 image
    img0 = complex(quadrature[2, -1])
    # remove the shared Gaussian, then c2 from a second probe point
    bare = quadrature[2] * np.exp(zs * zs / (6 * s))
    c0 = complex(bare[-1])
    c2 = complex((bare[0] - c0) / (z_probe ** 2))
    out["n2_image_at_zero"] = [img0.real, img0.imag]
    out["n2_c0_over_c2"] = [(c0 / c2).real, (c0 / c2).imag]
    out["n2_c0_over_c2_expected"] = -3 * s / 4
    return out
