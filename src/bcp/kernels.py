"""Exact non-crossing kernels for Brownian motion and piecewise-linear bands.

The kernel g is the conditional probability that a Brownian path stays
inside the band given its values at the partition nodes; averaging g
over node samples gives the crossing-free probability of the band.  On
each subinterval g has the factor 1 - S, where S is the single-reflection
term of a one-sided band, or the reflection series of a two-sided band.

Series truncation is fixed by the band before any sampling.  With band
widths d0, d1 at the interval's ends, q = d0*d1/dt and a path inside the
band, every series term of index j >= 2 is at most exp(-2(j-1)^2 q), so
stopping after index J omits at most 4 exp(-2 J^2 q) / (1 - exp(-4 J q)).
Each interval uses the smallest J (at least the configured floor) that
brings this below 2^-64.  Since the factors lie in [0, 1], the summed
per-interval bounds also bound the truncation error of g.  They do not
cover rounding in the alternating sum, which can be far larger: at x = 0
on the band (-0.01, 0.01) over one interval of length 10, rounding
leaves 1.7e-14 against a returned bound of 5.3e-20.  Factors are
clamped to [0, 1] so the result stays a probability under rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .boundary import PiecewiseLinearBand
from .errors import InvalidBoundariesError, StartOutsideBandError

#: Per-interval bound on the omitted series tail.
TAIL_BOUND = 2.0**-64


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the two-sided series."""

    min_terms: int = 1

    def __post_init__(self):
        if self.min_terms < 1:
            raise ValueError("min_terms must be >= 1")


def _as_paths(x, n: int) -> tuple[np.ndarray, bool]:
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"node samples must have {n} entries per path")
    if not np.all(np.isfinite(a)):
        raise ValueError("node samples must be finite")
    return a, single


def check_start(band: PiecewiseLinearBand) -> None:
    """Raise unless the start point 0 lies strictly inside the band at t=0."""
    lo = band.lower.right[0]
    hi = band.upper.right[0]
    if not lo < 0 < hi:
        raise StartOutsideBandError(
            f"start point 0 not strictly inside ({lo}, {hi}) at t=0"
        )


def _tail(q: np.ndarray, terms: np.ndarray) -> np.ndarray:
    return 4.0 * np.exp(-2.0 * terms**2 * q) / -np.expm1(-4.0 * terms * q)


def _term_counts(band: PiecewiseLinearBand, min_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval term counts J of a two-sided band and their tail bounds."""
    width = band.upper.right - band.lower.right
    q = width[:-1] * (band.upper.left - band.lower.left)[1:] / band.partition.dt
    # 4 exp(-2 J^2 q) alone must fall below the bound, so this J is never too large.
    terms = np.maximum(min_terms, np.floor(np.sqrt(-math.log(TAIL_BOUND / 4.0) / (2.0 * q))))
    while np.any(short := _tail(q, terms) >= TAIL_BOUND):
        terms[short] += 1
    return terms.astype(np.int64), _tail(q, terms)


def _series_term(j, dt, dprev, dcur, ap, ac, bp, bc):
    t1 = np.exp(-2.0 / dt * (j * dprev + ap) * (j * dcur + ac))
    t2 = np.exp(-2.0 * j / dt * (j * dprev * dcur + dprev * ac - dcur * ap))
    t3 = np.exp(-2.0 / dt * (j * dprev - bp) * (j * dcur - bc))
    t4 = np.exp(-2.0 * j / dt * (j * dprev * dcur - dprev * bc + dcur * bp))
    return t1 - t2 + t3 - t4


def band_kernel(
    band: PiecewiseLinearBand, x, cfg: SeriesConfig | None = None
) -> tuple[np.ndarray, float]:
    """Evaluate g for every path in x.

    x may be a single node vector (length n) or a (paths, n) matrix.
    Returns the kernel values and a bound on their truncation error:
    the sum of the per-interval tail bounds, 0 for a one-sided band.
    Rounding error is not included in the bound.
    """
    cfg = cfg or SeriesConfig()
    x, single = _as_paths(x, band.partition.n)
    check_start(band)
    lo, hi = band.lower, band.upper
    dt = band.partition.dt
    # Interval i runs from the right limit at its left node to the left
    # limit at its right node; indicators use the left limits, the
    # restrictive side for outward jumps.
    ok = np.ones(x.shape[0], dtype=bool)
    if not lo.is_infinite:
        ok &= np.all(x > lo.left[1:], axis=1)
    if not hi.is_infinite:
        ok &= np.all(x < hi.left[1:], axis=1)
    xprev = np.empty_like(x)
    xprev[:, 0] = 0.0
    xprev[:, 1:] = x[:, :-1]
    tail = 0.0
    # Exponents are non-positive on paths that respect the indicators, so
    # overflow and NaN can only occur on paths that are zeroed out anyway.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if lo.is_infinite and hi.is_infinite:
            s = np.zeros_like(x)
        elif lo.is_infinite or hi.is_infinite:
            # Single reflection off the finite side, in place over one buffer.
            b = hi if lo.is_infinite else lo
            s = np.subtract(b.right[:-1], xprev, out=xprev)
            np.multiply(s, b.left[1:] - x, out=s)
            np.multiply(s, -2.0 / dt, out=s)
            np.exp(s, out=s)
        else:
            # Index j = 1 holds both single reflections (t1 off the upper
            # side, t3 off the lower); later indices only where J needs them.
            terms, tails = _term_counts(band, cfg.min_terms)
            tail = float(np.sum(tails))
            dprev = hi.right[:-1] - lo.right[:-1]
            dcur = hi.left[1:] - lo.left[1:]
            ap = lo.right[:-1] - xprev
            ac = lo.left[1:] - x
            bp = hi.right[:-1] - xprev
            bc = hi.left[1:] - x
            s = _series_term(1, dt, dprev, dcur, ap, ac, bp, bc)
            for j in range(2, int(terms.max()) + 1):
                c = terms >= j
                s[:, c] += _series_term(
                    j, dt[c], dprev[c], dcur[c], ap[:, c], ac[:, c], bp[:, c], bc[:, c]
                )
        np.subtract(1.0, s, out=s)
        np.clip(s, 0.0, 1.0, out=s)
        g = np.prod(s, axis=1)
    g[~ok] = 0.0
    return (g[0] if single else g), tail


def g_one_sided(band: PiecewiseLinearBand, x) -> float | np.ndarray:
    """Non-crossing kernel for a one-sided band (lower side infinite)."""
    if not band.lower.is_infinite:
        raise ValueError("g_one_sided requires an infinite lower boundary")
    if band.upper.is_infinite:
        raise InvalidBoundariesError("upper boundary must be finite")
    g, _ = band_kernel(band, x)
    return g if np.ndim(g) else float(g)


def g_two_sided(
    band: PiecewiseLinearBand, x, cfg: SeriesConfig | None = None
) -> float | np.ndarray:
    """Non-crossing kernel for a two-sided band (both boundaries finite)."""
    if band.lower.is_infinite or band.upper.is_infinite:
        raise InvalidBoundariesError("g_two_sided requires finite boundaries")
    g, _ = band_kernel(band, x, cfg)
    return g if np.ndim(g) else float(g)


def bcp_linear_one_sided(intercept: float, slope: float, T: float) -> float:
    """P(W_t < intercept + slope*t for all t <= T), intercept > 0."""
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    if not intercept > 0:
        raise StartOutsideBandError("start point must lie strictly below the boundary")
    if math.isinf(slope):
        return 1.0 if slope > 0 else 0.0
    rt = math.sqrt(T)
    p = ndtr((intercept + slope * T) / rt)
    q = math.exp(-2.0 * intercept * slope) * ndtr((slope * T - intercept) / rt)
    return float(min(1.0, max(0.0, p - q)))
