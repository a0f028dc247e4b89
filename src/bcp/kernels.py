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
brings this below 2^-64; an interval that would need more than
MAX_TERMS, or has q = 0, raises NumericFailureError.  Since the factors
lie in [0, 1], the summed per-interval bounds also bound the truncation
error of g.  They do not
cover rounding in the alternating sum, which can be far larger: at x = 0
on the band (-0.01, 0.01) over one interval of length 10, rounding
leaves 1.7e-14 against a returned bound of 5.3e-20.  Two-sided factors
are clamped to [0, 1] so the result stays a probability under rounding;
a one-sided factor 1 - e^u with u <= 0 lies in [0, 1) already.

`band_kernel` evaluates only the rows that stay inside the band at every
node (g = 0 for the others; a block with none is skipped), in blocks
of BLOCK_SIZE entries: 1024 rows at n = 128, where one float64 buffer is
1 MB.  A block works in one set of buffers, two for a one-sided band
and seven for a two-sided one; the per-interval constants enter as
length-n vectors.  What depends on the band alone, its side values and
term counts, is its `kernel_plan`.  The Monte Carlo engine makes the
plan once per band and estimate and calls `band_kernel` once per block
of samples it drew itself, which are not checked again; called alone,
`band_kernel` checks x and makes the plan.  Rows of at most
LOOP_COLUMNS nodes, such as those of (-1, 1) on 8 intervals, are reduced
by a loop over the columns.  The block is sized for
two worker threads, not for a cache: on 2 CPUs, two threads each running
the two-sided kernel on 4096-row chunks were no faster than one thread
with 256-row blocks (speed-up 0.91-0.98), and 1.42-1.70x faster with
1024-row blocks.  The Monte Carlo engine samples in blocks of the same
size and calls the kernel once per block.  The block size is a fixed
constant, not a setting; rows are independent, so it never changes a
value.  Every exponent is clamped below at EXP_FLOOR = -700 before exp,
which is about 3x slower on arguments whose result underflows.  On a
path inside the band every exponent is <= 0, so the clamp moves a term
by at most exp(-700) ~ 1e-304.  A sum of magnitude above ~1e-288 absorbs
such a change in its rounding, and 1 - S rounds to 1 for every smaller
S, so no factor 1 - S can change.  The values are bit-identical to the
unblocked, unclamped whole-array expressions.

On a band wider than about 1e154 the widths' product overflows: q is inf,
one term, and an exponent such as c2 (j dprev dcur + dprev ac - dcur ap)
is inf - inf = NaN.  Its limit is -inf, so the clamp takes a NaN exponent
to EXP_FLOOR as well (np.fmax), and the band's g is 1 on every path inside.

`line_probability` gives the probability of a band of straight sides
over [0, T]: `bcp_linear_one_sided` for one line, and for two, without a
sloped-band series (Anderson 1960), Gauss-Legendre quadrature of the
one-interval kernel k_1(y) against the density of W_T at QUAD_NODES and
twice as many nodes, over |y| <= QUAD_CUT sqrt(T).  Its error bound eps,
about 1e-13 where J is small, is the two rules' difference plus a floor
known before the quadrature runs.  The quadrature takes about 0.8 ms on
2 CPUs.  It is the mean of the Monte Carlo engine's control.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .boundary import (Partition, PiecewiseLinearBand, PiecewiseLinearBoundary,
                       check_horizon)
from .errors import InvalidBoundariesError, NumericFailureError, StartOutsideBandError

#: Per-interval bound on the omitted series tail.
TAIL_BOUND = 2.0**-64

#: Largest series index J; from 2^53 on, J + 1 == J in float64.
MAX_TERMS = 2.0**53 - 1

#: Entries of the (paths, n) matrix evaluated together: 1024 rows of
#: 128 nodes make one 1 MB float64 buffer.
BLOCK_SIZE = 1024 * 128

#: Lower clamp on every exponent; exp(-700) ~ 1e-304 is still a normal double.
EXP_FLOOR = -700.0

#: Gauss-Legendre nodes of `line_probability`'s quadrature; its error
#: estimate compares the rule with the one of twice as many nodes.  At 32
#: nodes the normal mass on |y| <= 10 is off by 9.6e-9, at 64 by 1e-16.
QUAD_NODES = 64

#: The quadrature covers |y| <= QUAD_CUT sqrt(T); the normal mass beyond,
#: erfc(QUAD_CUT / sqrt(2)) ~ 1.5e-23, joins its error bound.
QUAD_CUT = 10.0

#: Most nodes per row for which the kernel loops over columns instead of
#: reducing along rows.  On 2 CPUs (numpy 2.4) the product loop takes 26-32
#: us against np.prod's 106-109 us on the 4096 x 8 blocks of (-1, 1), and
#: the inside test's loop is 2-3x as fast as np.all there.  On the control's
#: 1024 x 32 blocks the product loop is 1.07-1.24x as fast, but the inside
#: test's loop only 0.64-0.78x, and the whole kernel, one- or two-sided,
#: 0.90-0.98x as fast as with the reductions in three of four runs (1.01-1.17x
#: in the fourth), so the reductions take 32 columns; at 1024 x 16 the two
#: are about even.  np.prod multiplies in column order too.
LOOP_COLUMNS = 16


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
    # NaN propagates through min and max, and +-inf shows in one of them.
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("node samples must be finite")
    return a, single


def _tail(q: np.ndarray, terms: np.ndarray) -> np.ndarray:
    return 4.0 * np.exp(-2.0 * terms**2 * q) / -np.expm1(-4.0 * terms * q)


def _q(band: PiecewiseLinearBand) -> np.ndarray:
    """q = d0*d1/dt of each interval of a two-sided band: 0 where the widths'
    product underflows, inf where it overflows.  Callers ignore overflow."""
    width = band.upper.right - band.lower.right
    return width[:-1] * (band.upper.left - band.lower.left)[1:] / band.partition.dt


def _term_counts(band: PiecewiseLinearBand, min_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval term counts J of a two-sided band and their tail bounds.

    The tail bound falls as J grows, so J is found by steps of 1, 2, 4, ...
    up from a lower estimate, then by bisection back to the smallest J.  It
    also falls as q grows, so the cap is checked at the smallest q alone, in
    Python floats, where an overflow is inf and warns nothing.
    """
    q = _q(band)
    if not ((q_min := float(q.min())) > 0.0 and _tail(q_min, MAX_TERMS) < TAIL_BOUND):
        raise NumericFailureError(
            f"a two-sided band this narrow needs more than {MAX_TERMS:.0f} series terms")
    # 4 exp(-2 J^2 q) alone must fall below the bound, so this J is never too large.
    terms = np.maximum(min_terms, np.floor(np.sqrt(-math.log(TAIL_BOUND / 4.0) / (2.0 * q))))
    lo, step = terms - 1.0, 1.0  # J lies in (lo, terms] once the bound holds at terms
    while np.any(short := _tail(q, terms) >= TAIL_BOUND):
        lo[short] = terms[short]
        terms[short] = np.minimum(terms[short] + step, MAX_TERMS)
        step *= 2.0
    while np.any(terms - lo > 1.0):
        mid = lo + np.ceil((terms - lo) / 2.0)  # terms itself once terms - lo = 1
        ok = _tail(q, mid) < TAIL_BOUND
        terms, lo = np.where(ok, mid, terms), np.where(ok, lo, mid)
    return terms.astype(np.int64), _tail(q, terms)


def _coarsest(band: PiecewiseLinearBand) -> PiecewiseLinearBand:
    """band on every k-th node, for the largest k dividing n whose intervals
    need no more series terms than band's largest J: whose series tails at
    that J are below TAIL_BOUND.  One-sided, k = n."""
    p, sides = band.partition, (band.lower, band.upper)
    with np.errstate(over="ignore"):
        most = 0 if any(s.is_infinite for s in sides) else float(_term_counts(band, 1)[0].max())
        for k in filter(lambda k: p.n % k == 0, range(p.n, 1, -1)):
            q = Partition(p.nodes[::k])
            coarse = PiecewiseLinearBand(
                *(PiecewiseLinearBoundary.from_values(q, s.side, s.right[::k]) for s in sides))
            if not most or _tail(_q(coarse), most).max() < TAIL_BOUND:
                return coarse
    return band


def _exp(u: np.ndarray) -> np.ndarray:
    """exp in place, with the argument clamped below at EXP_FLOOR; NaN too."""
    np.fmax(u, EXP_FLOOR, out=u)
    return np.exp(u, out=u)


def _series_term(j: int, dt, dprev, dcur, ap, ac, bp, bc, out, u, v) -> None:
    """out = t1 - t2 + t3 - t4 for index j, with widths dprev, dcur.

    u and v are scratch.  The operations and their order are those of the
    unfused formula, so only the clamped exponents can differ.
    """
    c1, c2 = -2.0 / dt, -2.0 * j / dt
    jp, jc = j * dprev, j * dcur
    jpc = jp * dcur
    # t1 = exp(c1 (j dprev + ap) (j dcur + ac))
    np.add(jp, ap, out=out)
    np.multiply(c1, out, out=out)
    np.add(jc, ac, out=u)
    _exp(np.multiply(out, u, out=out))
    # t2 = exp(c2 (j dprev dcur + dprev ac - dcur ap))
    np.multiply(dprev, ac, out=u)
    np.add(jpc, u, out=u)
    np.subtract(u, np.multiply(dcur, ap, out=v), out=u)
    _exp(np.multiply(c2, u, out=u))
    np.subtract(out, u, out=out)
    # t3 = exp(c1 (j dprev - bp) (j dcur - bc))
    np.subtract(jp, bp, out=u)
    np.multiply(c1, u, out=u)
    np.subtract(jc, bc, out=v)
    _exp(np.multiply(u, v, out=u))
    np.add(out, u, out=out)
    # t4 = exp(c2 (j dprev dcur - dprev bc + dcur bp))
    np.multiply(dprev, bc, out=u)
    np.subtract(jpc, u, out=u)
    np.add(u, np.multiply(dcur, bp, out=v), out=u)
    _exp(np.multiply(c2, u, out=u))
    np.subtract(out, u, out=out)


def _shift_right(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = x_prev: each row of x moved one column right, with x_0 = 0."""
    out.reshape(-1)[1:] = x.reshape(-1)[:-1]
    out[:, 0] = 0.0
    return out


def _inside(band: PiecewiseLinearBand, x: np.ndarray) -> np.ndarray:
    """Rows of x strictly inside the band's limits at every node.

    Interval i runs from the right limit at its left node to the left
    limit at its right node; a node value must lie inside both, whichever
    way a side jumps there.
    """
    ok = np.ones(x.shape[0], dtype=bool)
    lo, hi = band.limits
    for side, limits, inside in ((band.lower, lo, np.greater), (band.upper, hi, np.less)):
        if side.is_infinite:
            continue
        if x.shape[1] > LOOP_COLUMNS:
            ok &= np.all(inside(x, limits[1:]), axis=1)
        else:
            for j in range(x.shape[1]):
                ok &= inside(x[:, j], limits[j + 1])
    return ok


def _row_products(s: np.ndarray) -> np.ndarray:
    """The product of each row of s, multiplied in column order."""
    if s.shape[1] > LOOP_COLUMNS:
        return np.prod(s, axis=1)
    g = s[:, 0].copy()
    for j in range(1, s.shape[1]):
        g *= s[:, j]
    return g


def _reflection_sum(x, bufs, sides, dt) -> np.ndarray:
    """S of a one-sided band, the single reflection off its finite side b."""
    s, u = bufs
    b_prev, b_cur = sides
    np.subtract(b_prev, _shift_right(x, s), out=s)
    np.multiply(s, np.subtract(b_cur, x, out=u), out=s)
    return _exp(np.multiply(s, -2.0 / dt, out=s))


def _series_sum(x, bufs, sides, dt, terms) -> np.ndarray:
    """S of a two-sided band, the series truncated at terms[i] on interval i."""
    s, u, v, ap, ac, bp, bc = bufs
    a_prev, a_cur, b_prev, b_cur = sides
    dprev, dcur = b_prev - a_prev, b_cur - a_cur
    _shift_right(x, bp)
    np.subtract(a_prev, bp, out=ap)
    np.subtract(b_prev, bp, out=bp)
    np.subtract(a_cur, x, out=ac)
    np.subtract(b_cur, x, out=bc)
    # Index j = 1 holds both single reflections (t1 off the upper side, t3
    # off the lower); later indices only where J needs them.
    _series_term(1, dt, dprev, dcur, ap, ac, bp, bc, s, u, v)
    for j in range(2, int(terms.max()) + 1):
        c = terms >= j
        sub = [a[:, c] for a in (ap, ac, bp, bc)]
        scratch = [np.empty_like(sub[0]) for _ in range(3)]
        _series_term(j, dt[c], dprev[c], dcur[c], *sub, *scratch)
        s[:, c] += scratch[0]
    return s


def kernel_plan(band: PiecewiseLinearBand, cfg: SeriesConfig | None = None) -> tuple:
    """What `band_kernel` needs of a band before it sees a path: (sides,
    terms, tail).  sides holds each finite side's values at the two ends of
    every interval (None when no side is finite); terms is J per interval
    and tail their summed bound for a two-sided band, and None and 0.0 for
    a one-sided one."""
    lo, hi = band.lower, band.upper
    if lo.is_infinite and hi.is_infinite:
        return None, None, 0.0
    if lo.is_infinite or hi.is_infinite:
        b = hi if lo.is_infinite else lo
        return (b.right[:-1], b.left[1:]), None, 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        terms, tails = _term_counts(band, (cfg or SeriesConfig()).min_terms)
    return (lo.right[:-1], lo.left[1:], hi.right[:-1], hi.left[1:]), terms, float(np.sum(tails))


def band_kernel(
    band: PiecewiseLinearBand, x, cfg: SeriesConfig | None = None, *,
    plan: tuple | None = None,
) -> tuple[np.ndarray, float]:
    """Evaluate g for every path in x.

    x may be a single node vector (length n) or a (paths, n) matrix.
    Returns the kernel values and a bound on their truncation error:
    the sum of the per-interval tail bounds, 0 for a one-sided band.
    Rounding error is not included in the bound.

    The Monte Carlo engine passes the band's `kernel_plan`, made once per
    estimate: x is then a finite (paths, n) matrix that it drew itself,
    and is not checked again.
    """
    if plan is None:
        x, single = _as_paths(x, band.partition.n)
        plan = kernel_plan(band, cfg)
    else:
        single = False
    sides, terms, tail = plan
    rows, n = x.shape
    if sides is None:
        g = np.ones(rows)
        return (g[0] if single else g), tail
    block = max(1, min(rows, BLOCK_SIZE // n))
    bufs = np.empty((2 if terms is None else 7, block, n))
    dt = band.partition.dt
    g = np.zeros(rows)
    # Only rows inside the band are evaluated, where every exponent is
    # non-positive or NaN (see the module docstring); the others keep g = 0.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for r0 in range(0, rows, block):
            xb = x[r0:r0 + block]
            ok = _inside(band, xb)
            if not ok.all():
                xb = xb[ok]
            k = xb.shape[0]
            if k == 0:
                continue
            if terms is None:
                s = _reflection_sum(xb, bufs[:, :k], sides, dt)
                np.subtract(1.0, s, out=s)  # 1 - e^u with u <= 0: in [0, 1) already
            else:
                s = _series_sum(xb, bufs[:, :k], sides, dt, terms)
                np.subtract(1.0, s, out=s)
                np.clip(s, 0.0, 1.0, out=s)
            g[r0:r0 + block][ok] = _row_products(s)
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


def normal_cdf(x: float) -> float:
    """Standard normal distribution function of a scalar, 0.5 * erfc(-x / sqrt(2))."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bcp_linear_one_sided(intercept: float, slope: float, T: float) -> float:
    """P(W_t < intercept + slope*t for all t <= T), intercept > 0.  A NaN
    intercept or slope raises ValueError naming it; +-inf is a limit."""
    check_horizon(T)
    for name, v in (("intercept", intercept), ("slope", slope)):
        if math.isnan(v):
            raise ValueError(f"{name} must not be NaN")
    if not intercept > 0:
        raise StartOutsideBandError("start point must lie strictly below the boundary")
    if math.isinf(slope):
        return 1.0 if slope > 0 else 0.0
    rt = math.sqrt(T)
    p = normal_cdf((intercept + slope * T) / rt)
    try:
        q = math.exp(-2.0 * intercept * slope) * normal_cdf((slope * T - intercept) / rt)
    except OverflowError:
        q = math.inf
    if not math.isfinite(q):  # exp(-2cd) overflowed, or -2cd itself is inf or NaN
        # exp(-2cd) Phi(-x) = exp(-(c + dT)^2 / 2T) R(x) / sqrt(2 pi), with
        # x = (c - dT) / sqrt(T) >= 2 sqrt(-cd) > 37 once -2cd > 709.
        z = (intercept + slope * T) / rt  # exp(-z^2 / 2) is 0.0 from |z| = 38.6; z ** 2 can raise
        q = (math.exp(-0.5 * z ** 2) if abs(z) < 40.0 else 0.0) / math.sqrt(2.0 * math.pi)
        q *= _mills_ratio((intercept - slope * T) / rt)
    return float(min(1.0, max(0.0, p - q)))


def _mills_ratio(x: float) -> float:
    """(1 - Phi(x)) / phi(x) for x > 37, from Laplace's continued fraction."""
    r = x
    for k in range(24, 0, -1):
        r = x + k / r
    return 1.0 / r


@functools.cache
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per size
    and read-only.  Newton's method on P_nodes, evaluated by its three-term
    recurrence, refines each node until it moves by less than 1e-15; the
    weights, 2 / ((1 - z^2) P'(z)^2), then err by at most 1.3e-16 each and
    3.1e-15 in sum at 128 nodes against 40-digit ones.  numpy's leggauss
    errs by 6.3e-15 and 4.1e-14, and raised two_sided peak_rss_mb by
    2.2 MB (+3.9 %, in 10 of 10 pairs) through its import and eigenvalue
    solver.
    """
    z = np.cos(np.pi * (np.arange(nodes, 0, -1) - 0.25) / (nodes + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(z), z
        for j in range(2, nodes + 1):
            p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
        dp = nodes * (z * p1 - p0) / ((z - 1.0) * (z + 1.0))
        step = p1 / dp
        if np.max(np.abs(step)) < 1e-15:
            break
        z = z - step
    w = 2.0 / ((1.0 - z) * (1.0 + z) * dp * dp)
    for a in (z, w):
        a.setflags(write=False)
    return z, w


def line_probability(lower: tuple[float, float] | None, upper: tuple[float, float] | None,
                     T: float) -> tuple[float, Callable[[], tuple[float, float]]]:
    """P(a(t) < W_t < b(t) for all t <= T) for the lines a through lower =
    (a0, a1) and b through upper = (b0, b1) at t = 0 and T, None for an
    absent side (at least one is given): (floor, mean), where mean() returns
    (mu, eps), the probability lying in mu +- eps, and floor <= eps is known
    before mean runs.

    One line: `bcp_linear_one_sided`, mirrored for a lower line, exact, so
    floor = eps = 0.  Two lines, with a0 < 0 < b0 and a1 < b1: mu is the
    integral of phi_T(y) k_1(y) over y, where phi_T is the density of W_T
    and k_1 the kernel of the one-interval band (Glasserman 2003, sec. 4.1),
    by Gauss-Legendre quadrature Q_2K over (a1, b1) cut to |y| <= QUAD_CUT
    sqrt(T), with K = QUAD_NODES; without the cut, (-1, 1e4) read 1.7e-34
    at 32 nodes for 0.6827.  eps is |Q_K - Q_2K| + floor.  A band that
    needs more than MAX_TERMS series terms raises NumericFailureError.

    floor holds the series tail, the normal mass beyond the cut and a
    rounding floor.  With J series terms, a rule of K nodes and d the larger
    width, the rounding floor is (16 J + 4 K + 12 J M L) 2^-53.  Each
    k_1(y) sums 4J exponentials in [0, 1]: each moves by at most 2 ulps of
    1 through exp, and by 2 more where it joins a partial sum of magnitude
    at most 2, which gives 16 J.  Each exponent -2AB/T is a product of
    differences such as b0 - 0 and b1 - y, whose operands are at most M =
    J d + max(|a0|, |a1|, |b0|, |b1|), so A and B carry up to 3 M ulps of
    1.  A term's slope in A or B is at most 2 J d / T, since A, B <= J d;
    in A, fixed by the start, it is also at most 1 / (e r), with r =
    min(-a0, b0), and in B it integrates against phi_T to at most
    1 / sqrt(2 pi T).  L = min(4 J d / T, 1/r + 1/sqrt(T)) bounds both.  On
    (-0.3, 1e6) that error is 3.5e-11, the same in both rules.  Each of the
    2K products w phi_T k_1 carries a few ulps, and fsum adds them exactly.
    The weights at 2K = 128 nodes are off by 3.1e-15 in sum (`_legendre`),
    and a unit of weight enters the rule times (hi - lo) phi_T / 2 <=
    QUAD_CUT / sqrt(2 pi) < 4: 1.2e-14.  4 K, 2.8e-14, covers both.
    """
    if lower is None or upper is None:
        (c0, c_end), sign = (upper, 1.0) if lower is None else (lower, -1.0)
        return 0.0, lambda: (bcp_linear_one_sided(sign * c0, sign * (c_end - c0) / T, T), 0.0)
    p = Partition(np.array([0.0, T]))
    band = PiecewiseLinearBand(PiecewiseLinearBoundary.from_values(p, "lower", lower),
                               PiecewiseLinearBoundary.from_values(p, "upper", upper))
    plan = kernel_plan(band)
    k, j, d = QUAD_NODES, float(plan[1][0]), max(upper[0] - lower[0], upper[1] - lower[1])
    size = j * d + max(map(abs, (*lower, *upper)))
    slope = min(4.0 * j * d / T, 1.0 / min(-lower[0], upper[0]) + 1.0 / math.sqrt(T))
    rounding = (16.0 * j + 4.0 * k + 12.0 * j * size * slope) * 2.0**-53
    floor = rounding + plan[2] + math.erfc(QUAD_CUT / math.sqrt(2.0))

    def mean() -> tuple[float, float]:
        rt = math.sqrt(T)
        lo, hi = max(lower[1], -QUAD_CUT * rt), min(upper[1], QUAD_CUT * rt)
        q = [0.0, 0.0]
        if lo < hi:  # both rules' nodes in one kernel call
            (z, w), (z2, w2) = _legendre(k), _legendre(2 * k)
            y = 0.5 * (hi - lo) * np.concatenate([z, z2]) + 0.5 * (hi + lo)
            g, _ = band_kernel(band, y[:, None], plan=plan)
            phi = np.exp(-0.5 * y * y / T) / math.sqrt(2.0 * math.pi * T)
            f = np.concatenate([w, w2]) * phi * g
            q = [0.5 * (hi - lo) * math.fsum(f[:k]), 0.5 * (hi - lo) * math.fsum(f[k:])]
        return min(1.0, max(0.0, q[1])), abs(q[0] - q[1]) + floor

    return floor, mean

