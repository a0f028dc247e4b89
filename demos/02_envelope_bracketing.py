"""How curved boundaries are bracketed by piecewise-linear envelopes.

A curved boundary is replaced by two piecewise-linear ones: an *inner*
envelope that narrows the band and an *outer* one that widens it.  As
long as the envelopes contain the boundary (they are checked at sampled
times only), the true crossing-free probability lies between the two
kernel Monte Carlo estimates.  Both estimates use the same random
numbers, so the ordering holds path by path, not just in expectation.
Refining the partition shrinks the bracket at rate O(1/n^2) for smooth
boundaries.

Run: python3 demos/02_envelope_bracketing.py
"""

import math

import numpy as np

from bcp import (
    GeneralBoundary,
    McConfig,
    envelopes,
    estimate_bcp_bracketed,
    uniform_partition,
)


def main() -> None:
    print(__doc__)

    gb = GeneralBoundary(lambda t: 1.0 + 0.3 * math.sin(4.0 * t), "upper", 1.0)

    print("Boundary b(t) = 1 + 0.3 sin(4t) on [0, 1].")
    print("Envelope node values on a coarse 4-interval partition:")
    p4 = uniform_partition(1.0, 4)
    inner, outer = envelopes(gb, p4, m=50)
    for k, t in enumerate(p4.nodes):
        print(
            f"  t={t:4.2f}  inner={inner.right[k]: .5f}"
            f"  b(t)={gb(float(t)): .5f}  outer={outer.right[k]: .5f}"
        )
    print("  (inner <= b <= outer everywhere, by construction)\n")

    print("Bracket width as the partition refines (50k paths, common seed):")
    cfg = McConfig(paths=50_000, seed=11)
    prev = None
    for n in (2, 4, 8, 16, 32, 64, 128):
        est = estimate_bcp_bracketed(None, gb, uniform_partition(1.0, n), 50, cfg)
        ratio = "" if prev is None else f"  ({prev / est.bracket_width:5.2f}x smaller)"
        print(
            f"  n={n:3d}  bracket=({est.bracket[0]:.6f}, {est.bracket[1]:.6f})"
            f"  width={est.bracket_width:.2e}{ratio}"
        )
        prev = est.bracket_width
    print()
    print("Each doubling of n shrinks the width by about 4x, so the")
    print("discretization error is under explicit control: the reported")
    print("bracket already contains it, leaving only Monte Carlo noise")
    print("(tracked separately by the standard error).")


if __name__ == "__main__":
    main()
