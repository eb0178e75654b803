"""Core types and gauge algebra for transforms on the phase plane.

Conventions used throughout the package:

* inner product  <f1, f2> = sqrt(pi) * integral conj(f1(x)) f2(x) dx
  (the sqrt(pi) factor makes the standard Gaussian wave packets unit vectors),
* phase-space labels are ordered Y = (P, Q), momentum first,
* the transform parameter is written either as an angle t in [0, pi/2] or as
  s = tan(t) in [0, +inf]; both address the same transform,
* a plane field is stored either in the holomorphic gauge (a function of
  z = x + i s p alone) or in the weighted gauge, which carries the extra
  factor (1 + s^2)^{1/4} e^{-s p^2 / 2} and is square-integrable against
  measure_density(t) dx dp.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCoordinateError

HALF_PI = math.pi / 2

# Observed domain-to-range squared-norm ratio of the weighted-gauge transform
# against measure_density(t) dx dp; constant in both the signal and t.
KAPPA_SQUARED = 2.0 ** -0.5


@dataclass(frozen=True)
class TransformParameter:
    """Angle/scale pair (t, s = tan t) selecting one transform of the family.

    t = 0 is the identity embedding, t = pi/2 the Fourier endpoint (s = inf).
    Build instances through :meth:`from_t` or :meth:`from_s` so the pair
    stays consistent.
    """

    t: float
    s: float

    @classmethod
    def from_t(cls, t: float) -> "TransformParameter":
        t = float(t)
        if not 0.0 <= t <= HALF_PI:
            raise ValueError(f"t must lie in [0, pi/2], got {t!r}")
        s = math.inf if t == HALF_PI else math.tan(t)
        return cls(t=t, s=s)

    @classmethod
    def from_s(cls, s: float) -> "TransformParameter":
        s = float(s)
        if not (s >= 0.0):  # also rejects nan
            raise ValueError(f"s must lie in [0, +inf], got {s!r}")
        t = HALF_PI if math.isinf(s) else math.atan(s)
        return cls(t=t, s=s)

    @property
    def is_identity(self) -> bool:
        return self.t == 0.0

    @property
    def is_endpoint(self) -> bool:
        return self.t == HALF_PI

    def describe(self) -> str:
        """Both parameterizations in one string, for logs and file headers."""
        s_txt = "inf" if math.isinf(self.s) else format(self.s, ".16e")
        return f"t={self.t:.16e};s={s_txt}"


@dataclass(frozen=True)
class CoherentLabel:
    """Phase-space center Y = (P, Q) of a Gaussian wave packet (momentum, position)."""

    P: float
    Q: float


@dataclass(frozen=True)
class CoherentSum:
    """Finite superposition sum_j weights[j] * psi_{labels[j]}."""

    weights: tuple[complex, ...]
    labels: tuple[CoherentLabel, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.labels):
            raise ValueError("weights and labels must have equal length")
        if not self.labels:
            raise ValueError("coherent sum needs at least one term")


@dataclass(frozen=True, eq=False)
class HermiteRep:
    """Signal given by coefficients in the scale-s orthonormal Hermite basis."""

    s: float
    coeffs: np.ndarray  # complex, coeffs[n] multiplies basis function n

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("basis scale s must be positive")
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class Samples:
    """Signal sampled on a uniform, increasing grid; zero outside the grid."""

    xs: np.ndarray
    values: np.ndarray  # complex

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if xs.ndim != 1 or xs.size < 2 or vals.shape != xs.shape:
            raise ValueError("xs and values must be matching 1-d arrays, len >= 2")
        dx = np.diff(xs)
        if dx.min() <= 0:
            raise ValueError("xs must be strictly increasing")
        if dx.max() - dx.min() > 1e-9 * dx.mean():
            raise ValueError("xs must be uniformly spaced")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vals)

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])


# A signal is one of the three representations above (callables are also
# accepted by the engine for oracle work; see hermite.evaluate_signal).
Signal = CoherentSum | HermiteRep | Samples


class Gauge(enum.Enum):
    HOLOMORPHIC = "holomorphic"  # raw image, function of z = x + i s p
    WEIGHTED = "weighted"        # carries (1+s^2)^{1/4} e^{-s p^2/2}


@dataclass(frozen=True, eq=False)
class PlaneGrid:
    """Tensor grid on the (x, p) plane; axes are uniform and increasing."""

    xs: np.ndarray
    ps: np.ndarray

    def __post_init__(self):
        for name in ("xs", "ps"):
            axis = np.asarray(getattr(self, name), dtype=float)
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError(f"{name} must be a 1-d array of length >= 2")
            d = np.diff(axis)
            if d.min() <= 0:
                raise ValueError(f"{name} must be strictly increasing")
            if d.max() - d.min() > 1e-9 * d.mean():
                raise ValueError(f"{name} must be uniformly spaced")
            object.__setattr__(self, name, axis)

    @classmethod
    def regular(cls, x_extent: float, p_extent: float, nx: int, np_: int) -> "PlaneGrid":
        """Symmetric grid [-x_extent, x_extent] x [-p_extent, p_extent]."""
        return cls(np.linspace(-x_extent, x_extent, nx),
                   np.linspace(-p_extent, p_extent, np_))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.xs.size, self.ps.size)

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dp(self) -> float:
        return float(self.ps[1] - self.ps[0])

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (X, P) meshes, x-major ('ij') indexing."""
        return np.meshgrid(self.xs, self.ps, indexing="ij")

    def z_values(self, s: float) -> np.ndarray:
        """Matrix of z = x + i s p over the grid."""
        if not (0.0 < s < math.inf):
            raise DegenerateCoordinateError(
                f"z coordinate degenerates at s={s!r}")
        return self.xs[:, None] + 1j * s * self.ps[None, :]


@dataclass(frozen=True, eq=False)
class PlaneField:
    """Function values on a PlaneGrid, tagged with gauge and transform parameter."""

    grid: PlaneGrid
    values: np.ndarray  # complex, shape grid.shape, x-major
    gauge: Gauge
    param: TransformParameter = field(default_factory=lambda: TransformParameter.from_s(1.0))

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", vals)

    def to_gauge(self, target: Gauge) -> "PlaneField":
        """Convert between gauges by the (1+s^2)^{1/4} e^{-s p^2/2} factor.

        Weighted -> holomorphic multiplies by the growing reciprocal and
        raises on overflow; prefer producing fields in the gauge you need.
        """
        if target is self.gauge:
            return self
        factor = gauge_factor(self.param, self.grid.ps)[None, :]
        if target is Gauge.WEIGHTED:
            vals = self.values * factor
        else:
            s = self.param.s
            if s * np.max(self.grid.ps) ** 2 / 2 > 700:
                raise DegenerateCoordinateError(
                    "weighted -> holomorphic conversion overflows on this grid; "
                    "rebuild the field in the holomorphic gauge instead")
            vals = self.values / factor
        return PlaneField(self.grid, vals, target, self.param)


def holomorphic_coordinate(x, p, param: TransformParameter, variant: str = "w"):
    """Holomorphic coordinate of the plane: w = cos(t) x + i sin(t) p or z = x + i s p.

    The two are proportional, w = cos(t) z. Raises DegenerateCoordinateError
    where the requested coordinate collapses (w at t in {0, pi/2}, z at
    s in {0, inf}).
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if variant == "w":
        if param.t == 0.0 or param.is_endpoint:
            raise DegenerateCoordinateError(
                f"w coordinate degenerates at t={param.t!r}")
        return math.cos(param.t) * x + 1j * math.sin(param.t) * p
    if variant == "z":
        if param.s == 0.0 or math.isinf(param.s):
            raise DegenerateCoordinateError(
                f"z coordinate degenerates at s={param.s!r}")
        return x + 1j * param.s * p
    raise ValueError(f"variant must be 'w' or 'z', got {variant!r}")


def ft_factor(t: float, p):
    """Gaussian weight e^{-tan(t) p^2 / 2} relating the two gauges (no amplitude part)."""
    if not 0.0 <= t < HALF_PI:
        raise DegenerateCoordinateError(f"ft_factor needs t in [0, pi/2), got {t!r}")
    return np.exp(-math.tan(t) * np.asarray(p, dtype=float) ** 2 / 2)


def gauge_factor(param: TransformParameter, p):
    """Full gauge conversion factor (1 + s^2)^{1/4} e^{-s p^2 / 2}.

    Multiplying the holomorphic-gauge image by this factor yields the
    weighted-gauge image.
    """
    if param.is_endpoint:
        raise DegenerateCoordinateError("gauge factor has no finite form at t=pi/2")
    s = param.s
    return (1 + s * s) ** 0.25 * np.exp(-s * np.asarray(p, dtype=float) ** 2 / 2)


def measure_density(t: float) -> float:
    """Density sqrt(sin 2t)/2 of the plane measure used by the weighted-gauge norm.

    Vanishes at the ends of the interval, positive inside.
    """
    if not 0.0 <= t <= HALF_PI:
        raise ValueError(f"t must lie in [0, pi/2], got {t!r}")
    return math.sqrt(math.sin(2 * t)) / 2
