"""Boundary crossing probabilities for Brownian motion and reducible diffusions.

The pipeline: reduce a diffusion crossing problem to Brownian motion
(`transforms`), sandwich the transformed boundaries between
piecewise-linear envelopes (`boundary`), and average the exact
non-crossing kernel over sampled Brownian node vectors (`kernels`,
`mc`) to obtain a bracketed probability estimate.

This package exports what the pipeline's callers use; every other name
is imported from its module, for example `bcp.boundary.Partition`.
"""

__version__ = "0.1.0"

from .boundary import (
    GeneralBoundary,
    PiecewiseLinearBand,
    PiecewiseLinearBoundary,
    envelopes,
    uniform_partition,
)
from .errors import (
    BcpError,
    EvaluationError,
    ExprSyntaxError,
    InvalidBoundariesError,
    InvalidDomainError,
    NumericFailureError,
    StartOutsideBandError,
)
from .expr import parse_boundary
from .kernels import band_kernel, bcp_linear_one_sided, g_one_sided, g_two_sided
from .mc import BcpEstimate, McConfig, estimate_bcp, estimate_bcp_bracketed
from .transforms import (
    GBMSpec,
    GrowthSpec,
    OUSpec,
    TimeVaryingOUSpec,
    catalog_problem,
    check_reducibility,
    closed_form_bcp,
    reduce,
    reduce_growth,
    reduce_ou,
)

__all__ = [
    "__version__",
    "BcpError",
    "BcpEstimate",
    "EvaluationError",
    "ExprSyntaxError",
    "GBMSpec",
    "GeneralBoundary",
    "GrowthSpec",
    "InvalidBoundariesError",
    "InvalidDomainError",
    "McConfig",
    "NumericFailureError",
    "OUSpec",
    "PiecewiseLinearBand",
    "PiecewiseLinearBoundary",
    "StartOutsideBandError",
    "TimeVaryingOUSpec",
    "band_kernel",
    "bcp_linear_one_sided",
    "catalog_problem",
    "check_reducibility",
    "closed_form_bcp",
    "envelopes",
    "estimate_bcp",
    "estimate_bcp_bracketed",
    "g_one_sided",
    "g_two_sided",
    "parse_boundary",
    "reduce",
    "reduce_growth",
    "reduce_ou",
    "uniform_partition",
]
