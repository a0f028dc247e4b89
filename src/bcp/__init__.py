"""Boundary crossing probabilities for Brownian motion and reducible diffusions.

The pipeline: reduce a diffusion crossing problem to Brownian motion
(`transforms`), sandwich the transformed boundaries between
piecewise-linear envelopes (`boundary`), and average the exact
non-crossing kernel over sampled Brownian node vectors (`kernels`,
`mc`) to obtain a bracketed probability estimate.
"""

__version__ = "0.1.0"

from .boundary import (
    GeneralBoundary,
    Partition,
    PiecewiseLinearBand,
    PiecewiseLinearBoundary,
    chord_boundary,
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
from .expr import BoundaryExpr, parse_boundary
from .kernels import (
    SeriesConfig,
    band_kernel,
    bcp_linear_one_sided,
    g_one_sided,
    g_two_sided,
)
from .mc import (
    BcpEstimate,
    McConfig,
    estimate_bcp,
    estimate_bcp_bracketed,
    sample_nodes,
)
from .transforms import (
    GBMSpec,
    GrowthSpec,
    OUSpec,
    ReducedProblem,
    ReducibilityReport,
    TimeVaryingOUSpec,
    catalog_problem,
    check_reducibility,
    closed_form_bcp,
    reduce,
    reduce_gbm,
    reduce_growth,
    reduce_ou,
    reduce_ou_td,
)

__all__ = [
    "__version__",
    "BcpError",
    "BcpEstimate",
    "BoundaryExpr",
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
    "Partition",
    "PiecewiseLinearBand",
    "PiecewiseLinearBoundary",
    "ReducedProblem",
    "ReducibilityReport",
    "SeriesConfig",
    "StartOutsideBandError",
    "TimeVaryingOUSpec",
    "band_kernel",
    "bcp_linear_one_sided",
    "catalog_problem",
    "check_reducibility",
    "chord_boundary",
    "closed_form_bcp",
    "envelopes",
    "estimate_bcp",
    "estimate_bcp_bracketed",
    "g_one_sided",
    "g_two_sided",
    "parse_boundary",
    "reduce",
    "reduce_gbm",
    "reduce_growth",
    "reduce_ou",
    "reduce_ou_td",
    "sample_nodes",
    "uniform_partition",
]
