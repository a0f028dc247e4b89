"""Walkthrough of the exact conditional non-crossing kernels.

For a piecewise-linear band and a Brownian path observed only at the
partition nodes, the probability that the *continuous* path stayed
inside the band is known in closed form given those node values.  The
Monte Carlo engine averages that kernel, so no time-stepping bias enters
the estimate: discretization only affects how well a curved boundary is
approximated by a piecewise-linear one.

Run: python3 demos/01_exact_kernels.py
"""

import math

import numpy as np

from bcp import (
    McConfig,
    PiecewiseLinearBand,
    PiecewiseLinearBoundary,
    bcp_linear_one_sided,
    estimate_bcp,
    g_one_sided,
    g_two_sided,
    uniform_partition,
)


def main() -> None:
    print(__doc__)

    # --- One-sided kernel on a single interval ---------------------------
    p = uniform_partition(1.0, 1)
    band = PiecewiseLinearBand(
        PiecewiseLinearBoundary.infinite(p, "lower"),
        PiecewiseLinearBoundary.from_values(p, "upper", [1.0, 1.0]),
    )
    g0 = g_one_sided(band, [0.0])
    print("One-sided kernel, constant boundary at 1, path ends at 0:")
    print(f"  g = 1 - exp(-2*1*1/1) = {g0:.12f}")
    print("  i.e. a Brownian bridge from 0 to 0 over [0,1] stays below 1")
    print(f"  with probability {g0:.4f}.\n")

    # --- Two-sided kernel: a convergent series of reflections ------------
    band2 = PiecewiseLinearBand(
        PiecewiseLinearBoundary.from_values(p, "lower", [-1.0, -1.0]),
        PiecewiseLinearBoundary.from_values(p, "upper", [1.0, 1.0]),
    )
    print("Two-sided kernel on the symmetric band (-1, 1), path 0 -> 0:")
    partial = 0.0
    for j in range(1, 5):
        # At the centre, both reflections give 2 exp(-2 (2j-1)^2) and the
        # two cross terms 2 exp(-8 j^2).
        term = 2.0 * math.exp(-2.0 * (2 * j - 1) ** 2) - 2.0 * math.exp(-8.0 * j * j)
        partial += term
        print(f"  series term j={j}: {term: .3e}   running g = {1 - partial:.12f}")
    print(f"  library value: g = {g_two_sided(band2, [0.0]):.12f}")
    print("  the series is alternating and decays like exp(-2 j^2 d^2/dt),")
    print("  so the library fixes the number of terms per interval from the")
    print("  band alone, with the omitted tail below 2^-64.\n")

    # --- The kernel average is exactly the crossing probability ----------
    exact = bcp_linear_one_sided(1.0, 0.5, 1.0)
    bandl = PiecewiseLinearBand(
        PiecewiseLinearBoundary.infinite(p, "lower"),
        PiecewiseLinearBoundary.from_values(p, "upper", [1.0, 1.5]),
    )
    est = estimate_bcp(bandl, McConfig(paths=200_000, seed=2))
    print("Linear boundary 1 + 0.5 t: closed form vs kernel Monte Carlo")
    print(f"  closed form      : {exact:.6f}")
    print(f"  kernel MC        : {est.mean:.6f}  (se {est.std_error:.6f})")
    print(f"  deviation        : {abs(est.mean - exact) / est.std_error:.2f} standard errors")


if __name__ == "__main__":
    main()
