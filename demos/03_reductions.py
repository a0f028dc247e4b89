"""Reducing diffusions to Brownian motion before computing anything.

Mean-reverting (constant or time-varying coefficients), Gompertz-growth
and geometric Brownian processes can be mapped onto a standard Brownian
motion by a deterministic change of space and time.  The boundary is
pushed through the same map, so one engine (the Brownian kernel Monte
Carlo) serves every family.  This script shows the transformed
boundaries and validates two cases against exact closed forms.

Run: python3 demos/03_reductions.py
"""

import math

import numpy as np

from bcp import (
    GBMSpec,
    GeneralBoundary,
    GrowthSpec,
    McConfig,
    OUSpec,
    TimeVaryingOUSpec,
    check_reducibility,
    closed_form_bcp,
    estimate_bcp_bracketed,
    reduce,
    uniform_partition,
)


def show_reduction(title, red, samples=5):
    print(title)
    print(f"  transformed horizon S = {red.horizon:.6f}")
    s = np.linspace(0.0, red.horizon, samples)
    for si, ti, ui in zip(s, red.time_map(s), red.upper(s)):
        print(f"    s={si:8.4f} -> t={ti:6.4f}   boundary(s) = {ui: .6f}")
    print()


def main() -> None:
    print(__doc__)

    # Mean-reverting process, constant barrier at 1.
    ou = OUSpec(x0=0.0, kappa=0.5, alpha=0.0, sigma=1.0)
    red_ou = reduce(ou, None, GeneralBoundary.constant(1.0, "upper", 1.0), 1.0)
    show_reduction(
        "Mean-reverting (kappa=0.5, alpha=0, sigma=1, x0=0), barrier b=1:\n"
        "  the constant barrier becomes sqrt(1+s) on [0, e-1].",
        red_ou,
    )

    # Time-varying coefficients: the clock and the centering are integrals
    # of Chebyshev interpolants of the coefficients, and the inverse time
    # change t(s) is interpolated in s the same way, resolved to about 1e-15.
    outd = TimeVaryingOUSpec(
        x0=0.0,
        kappa=lambda t: 0.5 + 0.25 * math.sin(t),
        alpha=lambda t: 0.1 * t,
        sigma=lambda t: 1.0 + 0.2 * t,
    )
    barrier = GeneralBoundary(lambda t: 1.0 + 0.5 * t, "upper", 1.0)
    red_outd = reduce(outd, None, barrier, 1.0)
    show_reduction(
        "Mean-reverting with kappa(t)=0.5+0.25 sin t, alpha(t)=0.1t,\n"
        "  sigma(t)=1+0.2t, x0=0, barrier b=1+0.5t: clock and centering\n"
        "  are integrals of Chebyshev interpolants, inverted in s.",
        red_outd,
    )

    # A growth process chosen so its reduction is the *same* problem.
    gr = GrowthSpec(x0=1.0, alpha=0.5, beta=0.5, sigma=1.0)
    red_gr = reduce(gr, None, GeneralBoundary.constant(math.e, "upper", 1.0), 1.0)
    show_reduction(
        "Growth (alpha=0.5, beta=0.5, sigma=1, x0=1), barrier b=e:\n"
        "  reduces to exactly the same sqrt(1+s) problem.",
        red_gr,
    )

    # Geometric BM with a time-varying rate: identity time change.
    gbm = GBMSpec(x0=10.0, sigma=0.1, rate=lambda t: 0.1 + 0.05 * math.exp(-t))
    red_gbm = reduce(gbm, None, GeneralBoundary.constant(12.0, "upper", 1.0), 1.0)
    show_reduction(
        "Geometric BM (sigma=0.1, r(t)=0.1+0.05e^-t, x0=10), barrier b=12:\n"
        "  log map, drift removal, clock unchanged.",
        red_gbm,
    )

    # Cross-check one family against its closed form.
    params = dict(kappa=0.5, alpha=0.0, sigma=1.0, x0=0.0, h=1.0, T=1.0)
    exact = closed_form_bcp("ou_exp_down", **params)
    est = estimate_bcp_bracketed(
        None, red_ou.upper, uniform_partition(red_ou.horizon, 128), 50,
        McConfig(paths=200_000, seed=5),
    )
    print("Receding-barrier mean-reverting case has a closed form; the")
    print("constant-barrier case above does not, but both go through the")
    print("same reduction machinery:")
    print(f"  closed form (receding barrier) : {exact:.6f}")
    print(f"  kernel MC  (constant barrier)  : {est.mean:.6f} (se {est.std_error:.6f})\n")

    # Which diffusions does this work for?  A numeric check of the
    # reduction condition answers without any algebra.
    good = check_reducibility(
        mu=lambda t, x: 0.5 * (0.2 - x), sigma=lambda t, x: 0.9,
        t_range=(0.0, 1.0), x_range=(-1.0, 1.0),
    )
    bad = check_reducibility(
        mu=lambda t, x: x * x, sigma=lambda t, x: 1.0,
        t_range=(0.0, 1.0), x_range=(-1.0, 1.0),
    )
    print("Reducibility checker (finite differences on the drift/volatility):")
    print(f"  mean-reverting drift : residual {good.max_scaled_residual:.2e} -> "
          f"reducible={good.reducible}")
    print(f"  quadratic drift x^2  : residual {bad.max_scaled_residual:.2e} -> "
          f"reducible={bad.reducible}")


if __name__ == "__main__":
    main()
