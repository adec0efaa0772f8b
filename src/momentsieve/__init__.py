"""Finite Hausdorff-moment positivity checks for entire functions.

The library decides, to any finite grid depth, whether the moment sequence
attached to an entire function with positive Taylor coefficients is
completely monotone after scaling, which is the operational criterion for
the function to have only negative zeros.  It ships synthetic oracles built
from prescribed zero sets, plus instantiations for the Riemann Xi function
and for Dirichlet L-functions of primitive characters.
"""

from .numkernel import (
    AccuracyError,
    CachedKernelQuadrature,
    CertifiedSign,
    ConsistencyError,
    DomainError,
    certify_sign,
    decimal_str,
)
from .moments import (
    MomentSequence,
    PositivityGrid,
    SeriesPrefix,
    build_grid,
    grid_report,
    moments_by_determinant,
    moments_by_recursion,
    normalize,
)
from .oracle import (
    ZeroSet,
    admissibility,
    load_zeros,
    moments_from_zeros,
    product_to_series,
)
from . import dirichlet, riemann

__version__ = "0.1.0"
