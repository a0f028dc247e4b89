"""The top-level names of `bcp`: what the CLI, tests, demos and README use."""

import importlib

import pytest

import bcp

PUBLIC = {
    # reduce a diffusion to Brownian motion
    "GBMSpec", "GrowthSpec", "OUSpec", "TimeVaryingOUSpec", "reduce", "reduce_growth",
    "reduce_ou", "check_reducibility", "catalog_problem", "closed_form_bcp",
    # bracket its boundaries between piecewise-linear envelopes
    "GeneralBoundary", "PiecewiseLinearBand", "PiecewiseLinearBoundary", "envelopes",
    "parse_boundary", "uniform_partition",
    # average the exact kernel
    "band_kernel", "bcp_linear_one_sided", "g_one_sided", "g_two_sided", "BcpEstimate",
    "McConfig", "estimate_bcp", "estimate_bcp_bracketed",
    # errors that public functions raise
    "BcpError", "EvaluationError", "ExprSyntaxError", "InvalidBoundariesError",
    "InvalidDomainError", "NumericFailureError", "StartOutsideBandError",
}

MODULE_ONLY = [
    ("bcp.expr", "BoundaryExpr"),
    ("bcp.boundary", "Partition"),
    ("bcp.boundary", "chord_boundary"),
    ("bcp.kernels", "SeriesConfig"),
    ("bcp.mc", "sample_nodes"),
    ("bcp.transforms", "ReducedProblem"),
    ("bcp.transforms", "ReducibilityReport"),
    ("bcp.transforms", "reduce_gbm"),
    ("bcp.transforms", "reduce_ou_td"),
]


def test_all_is_the_public_names():
    assert len(PUBLIC) == 31
    assert sorted(bcp.__all__) == sorted(PUBLIC | {"__version__"})
    assert len(bcp.__all__) == len(set(bcp.__all__))
    for name in bcp.__all__:
        assert getattr(bcp, name) is not None


@pytest.mark.parametrize("module, name", MODULE_ONLY, ids=[n for _, n in MODULE_ONLY])
def test_name_importable_from_its_module_only(module, name):
    assert callable(getattr(importlib.import_module(module), name))
    assert not hasattr(bcp, name)
