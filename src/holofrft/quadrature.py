"""Gauss-Hermite and trapezoid rules with envelope-absorbed weights.

A Gauss-Hermite rule stores ``absorbed`` weights for the full integrand
h(x) = e^{-v^2} g(v) sampled as-is: absorbed[i] is the raw Gauss weight times
e^{+v_i^2}, built from the Christoffel identity 1 / sum_k psi_k(v_i)^2
(orthonormal Hermite functions), which stays finite at orders where the raw
weights underflow. A trapezoid rule's absorbed weights are its plain
weights. Integrals are plain sums ``values @ rule.absorbed``.

Rules can be recentered and rescaled; a rule with ``center`` m and ``scale``
sigma targets integrands whose Gaussian part is exp(-((x - m)/sigma)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SupportError

# Supported rule sizes.  Above ~705 the outermost node has e^{-v^2/2}
# subnormal and node generation itself degrades; 512 keeps a wide margin and
# covers every order the rest of the package requests (worst case ~440).
MAX_ORDER = 512

# A rule of order n integrates an oscillation e^{ikv} reliably while
# k <= OSCILLATION_COEFF * sqrt(2n).  Calibration: at k = 0.7 sqrt(2n) the
# error against the exact sqrt(pi) e^{-k^2/4} stays below 1e-15 for all
# n in [32, 512]; breakdown starts near 0.86 sqrt(2n) at n = 32.
OSCILLATION_COEFF = 0.7


@lru_cache(maxsize=64)
def _standard_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and absorbed weights of the unit rule (weight e^{-v^2})."""
    with np.errstate(all="ignore"):
        # only the nodes are kept; numpy's weight builder overflows
        # harmlessly above order ~380
        nodes = np.polynomial.hermite.hermgauss(order)[0]
    # Christoffel: absorbed weight = 1 / sum_{k<order} psi_k(v)^2 with the
    # orthonormal Hermite functions psi_k for weight e^{-v^2}.
    p_prev = np.zeros_like(nodes)
    p_cur = np.pi ** -0.25 * np.exp(-nodes * nodes / 2)
    total = p_cur * p_cur
    for k in range(order - 1):
        p_next = nodes * math.sqrt(2.0 / (k + 1)) * p_cur \
            - math.sqrt(k / (k + 1.0)) * p_prev
        p_prev, p_cur = p_cur, p_next
        total += p_cur * p_cur
    absorbed = 1.0 / total
    nodes.setflags(write=False)
    absorbed.setflags(write=False)
    return nodes, absorbed


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes plus absorbed weights; see module docstring."""

    nodes: np.ndarray
    absorbed: np.ndarray
    center: float
    scale: float

    @classmethod
    def gauss_hermite(cls, order: int, center: float = 0.0,
                      scale: float = 1.0) -> "QuadratureRule":
        """Scaled Gauss-Hermite rule; it integrates e^{-v^2} to scale * sqrt(pi)."""
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order!r}")
        if not scale > 0:
            raise ValueError("scale must be positive")
        v, absorbed_std = _standard_rule(int(order))
        return cls(nodes=center + scale * v, absorbed=scale * absorbed_std,
                   center=float(center), scale=float(scale))

    @classmethod
    def trapezoid(cls, xs: np.ndarray) -> "QuadratureRule":
        """Composite trapezoid weights on an increasing 1-d grid."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or np.diff(xs).min() <= 0:
            raise ValueError("trapezoid rule needs an increasing 1-d grid")
        w = np.empty_like(xs)
        w[1:-1] = (xs[2:] - xs[:-2]) / 2
        w[0] = (xs[1] - xs[0]) / 2
        w[-1] = (xs[-1] - xs[-2]) / 2
        return cls(nodes=xs, absorbed=w,
                   center=float(0.5 * (xs[0] + xs[-1])),
                   scale=float(xs[1] - xs[0]))

    @property
    def order(self) -> int:
        return self.nodes.size

    def oscillation_limit(self) -> float:
        """Largest angular frequency (in node units) the rule resolves."""
        return OSCILLATION_COEFF * math.sqrt(2 * self.order) / self.scale

    def check_oscillation(self, freq: float) -> None:
        """Raise SupportError when e^{i freq x} exceeds the rule bandwidth."""
        limit = self.oscillation_limit()
        if abs(freq) > limit:
            needed = math.ceil((abs(freq) * self.scale / OSCILLATION_COEFF) ** 2 / 2)
            raise SupportError(
                f"oscillation frequency {abs(freq):.3g} exceeds the rule limit "
                f"{limit:.3g}; order >= {needed} required", suggestion=needed)


def required_order(freq: float, scale: float, minimum: int = 1) -> int:
    """Smallest rule order resolving e^{i freq x} at the given scale."""
    need = math.ceil((abs(freq) * scale / OSCILLATION_COEFF) ** 2 / 2)
    order = max(int(minimum), need)
    if order > MAX_ORDER:
        raise SupportError(
            f"oscillation frequency {abs(freq):.3g} needs order {order} "
            f"> {MAX_ORDER}", suggestion=order)
    return order


def tail_fraction(values: np.ndarray, weights: np.ndarray | None = None) -> float:
    """|edge| / max|interior| of a sampled integrand, for support checks."""
    mags = np.abs(np.asarray(values))
    if weights is not None:
        mags = mags * np.asarray(weights)
    peak = mags.max()
    if peak == 0.0:
        return 0.0
    return float(max(mags[..., 0].max(), mags[..., -1].max()) / peak)
