"""Holomorphic fractional Fourier transforms of 1-D signals.

The package computes the unitary family A_t interpolating between the
identity (t = 0) and the Fourier transform (t = pi/2), together with the
associated holomorphic-gauge family SB_s (s = tan t), closed-form images of
coherent states, a scaled Hermite basis with its image calculus, inversion
from phase-space fields, and a self-contained verification battery.
"""

import os as _os

# BLAS thread pools are sized at import time, so this must run before numpy
# is first imported anywhere in the package. 0 (or unset) keeps the
# library defaults.
_threads = _os.environ.get("HOLOFRFT_THREADS", "").strip()
if _threads:
    try:
        _n = int(_threads)
        if _n < 0:
            raise ValueError
    except ValueError:
        import sys as _sys
        print(f"error: HOLOFRFT_THREADS must be a nonnegative integer "
              f"(0 = library default), got {_threads!r}", file=_sys.stderr)
        raise SystemExit(2) from None
    if _n > 0:  # 0 keeps the library defaults
        for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS"):
            _os.environ.setdefault(_var, str(_n))
    del _n
del _os, _threads

from . import closedform, engine, hermite, quadrature, verification  # noqa: E402
from .closedform import (  # noqa: E402
    Form,
    coherent_overlap,
    coherent_state,
    hfrft_coherent,
    hfrft_endpoint_coherent,
    sb_coherent,
)
from .core import (  # noqa: E402
    CoherentLabel,
    CoherentSum,
    Gauge,
    HermiteRep,
    KAPPA_SQUARED,
    PlaneField,
    PlaneGrid,
    Samples,
    TransformParameter,
    ft_factor,
    gauge_factor,
    holomorphic_coordinate,
    measure_density,
)
from .errors import (  # noqa: E402
    DegenerateCoordinateError,
    HolofrftError,
    IntegrationDomainError,
    SupportError,
)
from .engine import (  # noqa: E402
    endpoint_apply,
    hfrft_apply,
    norm_hs,
    norm_ht,
    norm_l2,
    sb_field,
    sb_inverse,
    sb_kernel_apply,
    sb_spectral_apply,
    suggest_grid,
    unitarity_report,
)
from .hermite import (  # noqa: E402
    hermite_analyze,
    hermite_basis,
    hermite_poly,
    hermite_synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentLabel",
    "CoherentSum",
    "DegenerateCoordinateError",
    "Form",
    "Gauge",
    "HermiteRep",
    "HolofrftError",
    "IntegrationDomainError",
    "KAPPA_SQUARED",
    "PlaneField",
    "PlaneGrid",
    "Samples",
    "SupportError",
    "TransformParameter",
    "closedform",
    "coherent_overlap",
    "coherent_state",
    "endpoint_apply",
    "engine",
    "ft_factor",
    "gauge_factor",
    "hermite",
    "hermite_analyze",
    "hermite_basis",
    "hermite_poly",
    "hermite_synthesize",
    "hfrft_apply",
    "hfrft_coherent",
    "hfrft_endpoint_coherent",
    "holomorphic_coordinate",
    "measure_density",
    "norm_hs",
    "norm_ht",
    "norm_l2",
    "quadrature",
    "sb_coherent",
    "sb_field",
    "sb_inverse",
    "sb_kernel_apply",
    "sb_spectral_apply",
    "suggest_grid",
    "unitarity_report",
    "verification",
]
