"""Workloads of the bcp benchmark and the references their outputs are checked against.

Every request is a CLI argument vector sent through `bcp.cli.run_request`
in process.  n=128, m=50 and chunk size 4096 are the CLI defaults.  Path
counts are multiples of 2 x 4096, so every worker lane on a 2-CPU
machine gets the same number of chunks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

DANIELS = "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))"

_HERE = os.path.dirname(os.path.abspath(__file__))


def _pins() -> dict:
    with open(os.path.join(_HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)["pins"]


def two_sided_images(a: float, b: float, T: float, terms: int = 50) -> float:
    """P(a < W_t < b for all t <= T) by the method-of-images series, a < 0 < b."""

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    w = b - a
    rt = math.sqrt(T)
    total = 0.0
    for k in range(-terms, terms + 1):
        total += cdf((b + 2 * k * w) / rt) - cdf((a + 2 * k * w) / rt)
        total -= cdf((2 * b - a + 2 * k * w) / rt) - cdf((b + 2 * k * w) / rt)
    return total


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    paths: int
    reference: float
    reference_se: float  # 0 for exact or published values
    reference_kind: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    cases: tuple[Case, ...]


def workloads() -> dict[str, Workload]:
    pins = _pins()
    dan_pin = pins["bm_minus1_daniels"]
    outd_pin = pins["ou_td_time_varying"]
    paper7 = Workload(
        name="paper7",
        why="the four published one-sided cases of `bcp reproduce paper7`; "
        "with 196608 paths the Monte Carlo engine and the one-sided kernel "
        "carry most of the wall time, and the two-sided kernel is never used",
        stresses="mc (Philox sampling, cumsum, fsum) and kernels (one-sided)",
        cases=(
            Case("ou", ("ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1",
                        "--x0", "0", "--upper", "1", "--T", "1"),
                 196_608, 0.721463, 0.0, "published"),
            Case("growth", ("growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1",
                            "--x0", "1", "--upper", "exp(1)", "--T", "1"),
                 196_608, 0.721463, 0.0, "published"),
            Case("gbm", ("gbm", "--sigma", "0.1", "--rate", "0.1+0.05*exp(-t)",
                         "--x0", "10", "--upper", "12", "--T", "1"),
                 196_608, 0.603728, 0.0, "published"),
            Case("bm_daniels", ("bm", "--upper", DANIELS, "--T", "1"),
                 196_608, 0.520251, 0.0, "published"),
        ),
    )
    two_sided = Workload(
        name="two_sided",
        why="Brownian motion in two-sided bands; a two-sided chunk costs about "
        "30x a one-sided one, so the series kernel dominates, while sampling "
        "is shared with paper7",
        stresses="kernels (two-sided series)",
        cases=(
            Case("bm_pm1", ("bm", "--lower=-1", "--upper", "1", "--T", "1"),
                 16_384, two_sided_images(-1.0, 1.0, 1.0), 0.0, "images series"),
            Case("bm_minus1_daniels", ("bm", "--lower=-1", "--upper", DANIELS, "--T", "1"),
                 16_384, dan_pin["mean"], dan_pin["std_error"], "regression pin"),
        ),
    )
    ou_td = Workload(
        name="ou_td",
        why="time-dependent mean reversion at few paths; the reduced boundary "
        "is evaluated n*m times through an ODE solution and root finding, so "
        "reduction and envelopes dominate and mc/kernels are nearly bypassed",
        stresses="transforms (ODE time change) and boundary (envelopes)",
        cases=(
            Case("ou_td_const", ("ou-td", "--kappa-fn", "0.5", "--alpha-fn", "0",
                                 "--sigma-fn", "1", "--x0", "0", "--upper", "exp(0.5*t)",
                                 "--T", "1"),
                 16_384, 0.8851104089067882, 0.0, "closed form ou_exp_up"),
            Case("ou_td_varying", ("ou-td", "--kappa-fn", "0.5+0.25*sin(t)",
                                   "--alpha-fn", "0.1*t", "--sigma-fn", "1+0.2*t",
                                   "--x0", "0", "--upper", "1+0.5*t", "--T", "1"),
                 16_384, outd_pin["mean"], outd_pin["std_error"], "regression pin"),
        ),
    )
    return {w.name: w for w in (paper7, two_sided, ou_td)}
