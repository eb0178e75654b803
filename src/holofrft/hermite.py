"""Scale-s Hermite polynomials and orthonormal Hermite functions.

The polynomial family ``H_n^s`` satisfies H_0 = 1, H_1 = x/s and

    H_{n+1}^s(x) = (x/s) H_n^s(x) - (n/s) H_{n-1}^s(x).

The basis functions ``h_n^s(x) = a_{s,n} H_n^s(x) e^{-x^2/(4s)}`` with
``a_{s,n} = (2s)^{-1/4} (pi n!)^{-1/2} s^{n/2}`` are orthonormal under the
sqrt(pi)-weighted inner product. They are evaluated through the normalized
recurrence

    h_{n+1} = x / sqrt(s (n+1)) h_n - sqrt(n/(n+1)) h_{n-1},

whose values stay uniformly bounded, so no log-domain bookkeeping is needed
for n <= 200 and |x| <= 40 sqrt(s) (the far tail underflows to zero, which is
the correct limit).

``poly_coeffs_heat``, ``poly_coeffs_rodrigues`` and ``poly_coeffs_ladder``
build the same polynomials by three independent algorithms (backward heat flow
of a monomial, repeated differentiation of the Gaussian, and the raising
operator x - s d/dx); they exist as cross-checking oracles.

``evaluate_signal`` and ``signal_envelope`` are the one signal-evaluation and
Gaussian-envelope model shared by the analysis here and the engine's rules.
"""

from __future__ import annotations

import math

import numpy as np

from . import closedform
from .core import CoherentSum, HermiteRep, Samples
from .errors import SupportError
from .quadrature import QuadratureRule, required_order, tail_fraction

MAX_DEGREE = 200


def _check_degree(n: int) -> int:
    n = int(n)
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_DEGREE}], got {n!r}")
    return n


def hermite_poly(n: int, s: float, x) -> np.ndarray:
    """Values of H_n^s at x (vectorized)."""
    n = _check_degree(n)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = x / s
    for k in range(1, n):
        prev, cur = cur, (x * cur - k * prev) / s
    return cur


def hermite_basis(n_max: int, s: float, x) -> np.ndarray:
    """Stacked values h_0^s .. h_{n_max}^s, shape (n_max+1,) + x.shape."""
    n_max = _check_degree(n_max)
    if not s > 0:
        raise ValueError("scale s must be positive")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    with np.errstate(under="ignore"):
        out[0] = (2 * s) ** -0.25 * math.pi ** -0.5 * np.exp(-x * x / (4 * s))
        if n_max >= 1:
            out[1] = x / math.sqrt(s) * out[0]
        for k in range(1, n_max):
            out[k + 1] = x / math.sqrt(s * (k + 1)) * out[k] \
                - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def poly_coeffs_heat(n: int, s: float) -> np.ndarray:
    """Monomial coefficients of H_n^s from the backward heat flow of x^n.

    Backward heat flow replaces x^n by sum_k (-s/2)^k n! / (k! (n-2k)!)
    x^{n-2k}; the family is that polynomial scaled by s^{-n}.
    """
    n = _check_degree(n)
    c = np.zeros(n + 1)
    for k in range(n // 2 + 1):
        c[n - 2 * k] = (-s / 2) ** k * math.factorial(n) \
            / (math.factorial(k) * math.factorial(n - 2 * k))
    return c * s ** -float(n)


def poly_coeffs_rodrigues(n: int, s: float) -> np.ndarray:
    """Monomial coefficients of H_n^s from derivatives of the Gaussian.

    With d^n/dx^n e^{-x^2/2s} = q_n(x) e^{-x^2/2s}, the recursion is
    q_{n+1} = q_n' - (x/s) q_n and H_n^s = (-1)^n q_n.
    """
    n = _check_degree(n)
    q = np.zeros(n + 1)
    q[0] = 1.0
    deg = 0
    for _ in range(n):
        new = np.zeros(n + 1)
        new[:deg] += np.arange(1, deg + 1) * q[1:deg + 1]   # q'
        new[1:deg + 2] -= q[:deg + 1] / s                   # -(x/s) q
        q, deg = new, deg + 1
    return (-1.0) ** n * q


def poly_coeffs_ladder(n: int, s: float) -> np.ndarray:
    """Monomial coefficients of H_n^s from the raising operator.

    H_n^s = s^{-n} (x - s d/dx)^n 1, built by repeated application on the
    coefficient array.
    """
    n = _check_degree(n)
    c = np.zeros(n + 1)
    c[0] = 1.0
    deg = 0
    for _ in range(n):
        new = np.zeros(n + 1)
        new[1:deg + 2] += c[:deg + 1]                       # x c
        new[:deg] -= s * np.arange(1, deg + 1) * c[1:deg + 1]  # -s c'
        c, deg = new, deg + 1
    return c * s ** -float(n)


def evaluate_signal(signal, x) -> np.ndarray:
    """Pointwise complex values of any supported signal representation."""
    x = np.asarray(x, dtype=float)
    if isinstance(signal, CoherentSum):
        return closedform.coherent_sum_values(signal.weights, signal.labels, x)
    if isinstance(signal, HermiteRep):
        return hermite_synthesize(signal.coeffs, signal.s, x)
    if isinstance(signal, Samples):
        re = np.interp(x, signal.xs, signal.values.real, left=0.0, right=0.0)
        im = np.interp(x, signal.xs, signal.values.imag, left=0.0, right=0.0)
        return re + 1j * im
    if callable(signal):
        values = np.asarray(signal(x), dtype=complex)
        if values.shape != x.shape:
            raise ValueError(f"signal values must have the shape of x, "
                             f"{x.shape}; got {values.shape}")
        return values
    raise TypeError(f"unsupported signal type {type(signal).__name__}")


def signal_envelope(signal) -> tuple[float, float, float]:
    """Gaussian envelope model (precision, center, oscillation) of a signal.

    precision lam means |f(x)| <~ e^{-lam (x - center)^2}; oscillation is the
    largest phase frequency the signal carries. Unknown structure maps to
    (0, 0, 0) and is then covered by the rule envelope and tail checks.
    """
    if isinstance(signal, CoherentSum):
        qs = [lab.Q for lab in signal.labels]
        return 0.5, (min(qs) + max(qs)) / 2, max(abs(lab.P) for lab in signal.labels)
    if isinstance(signal, HermiteRep):
        return 1 / (4 * signal.s), 0.0, 0.0
    if isinstance(signal, Samples):
        return 0.0, float(0.5 * (signal.xs[0] + signal.xs[-1])), 0.0
    return 0.0, 0.0, 0.0


def hermite_analyze(signal, s: float, n_max: int,
                    order: int | None = None) -> np.ndarray:
    """Coefficients <h_n^s, f> for n <= n_max under the weighted inner product.

    Samples are integrated on their own grid with a trapezoid rule after a
    sampling-density check (at least 4 samples per oscillation of
    h_{n_max}^s); other signals with a Gauss-Hermite rule of the given order
    (auto-sized when None) matched to the basis-times-envelope Gaussian.
    """
    n_max = _check_degree(n_max)
    if not s > 0:
        raise ValueError("scale s must be positive")

    if isinstance(signal, HermiteRep) and abs(signal.s - s) <= 1e-14 * s:
        out = np.zeros(n_max + 1, dtype=complex)
        m = min(n_max + 1, signal.coeffs.size)
        out[:m] = signal.coeffs[:m]
        return out

    if isinstance(signal, Samples):
        # local wavelength of h_{n_max}^s near the center is
        # 2 pi sqrt(2s / (2 n_max + 1)); require >= 4 samples per period
        k_max = math.sqrt((2 * n_max + 1) / (2 * s))
        dx_needed = math.pi / (2 * k_max)
        if signal.dx > dx_needed:
            raise SupportError(
                f"sample spacing {signal.dx:.3g} too coarse for basis degree "
                f"{n_max} at scale {s:.3g}; need <= {dx_needed:.3g}",
                suggestion=dx_needed)
        basis = hermite_basis(n_max, s, signal.xs)
        rule = QuadratureRule.trapezoid(signal.xs)
        prod = basis * signal.values[None, :]
        if tail_fraction(prod) > 1e-8:
            raise SupportError(
                "signal grid too short: the projection integrand has edge "
                "mass; extend the sample range")
        return math.pi ** 0.5 * prod @ rule.absorbed

    lam_f, center_f, osc = signal_envelope(signal)
    a = 1 / (4 * s) + lam_f
    scale = 1 / math.sqrt(a)
    center = lam_f * center_f / a
    if order is None:
        order = max(64, n_max + required_order(osc, scale, minimum=1) + 16)
    rule = QuadratureRule.gauss_hermite(order, center=center, scale=scale)
    rule.check_oscillation(osc)
    basis = hermite_basis(n_max, s, rule.nodes)
    prod = basis * evaluate_signal(signal, rule.nodes)[None, :]
    if tail_fraction(prod[n_max] if n_max else prod[0]) > 1e-10:
        raise SupportError(
            "projection integrand has edge mass at the rule boundary; "
            "increase the order", suggestion=2 * rule.order)
    return math.pi ** 0.5 * prod @ rule.absorbed


def hermite_synthesize(coeffs, s: float, x) -> np.ndarray:
    """Signal values sum_n coeffs[n] h_n^s(x)."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    basis = hermite_basis(coeffs.size - 1, s, np.asarray(x, dtype=float))
    return np.tensordot(coeffs, basis, axes=(0, 0))


def gram_matrix(s: float, n_max: int, order: int | None = None) -> np.ndarray:
    """Matrix <h_n^s, h_m^s> for n, m <= n_max (identity up to quadrature error)."""
    n_max = _check_degree(n_max)
    if order is None:
        order = max(64, 2 * n_max + 8)
    rule = QuadratureRule.gauss_hermite(order, scale=math.sqrt(2 * s))
    basis = hermite_basis(n_max, s, rule.nodes)
    return math.pi ** 0.5 * (basis * rule.absorbed) @ basis.T
