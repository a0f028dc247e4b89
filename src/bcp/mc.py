"""Monte Carlo engine: node sampling, kernel averaging, bracketed estimates.

Paths are generated in chunks; chunk k draws from a Philox stream keyed
by (seed, k), so results are reproducible bit-for-bit regardless of how
many worker lanes evaluate the chunks (BCP_THREADS alone sets that, see
_worker_lanes).  A chunk runs block by block through one reused buffer
of kernels.BLOCK_SIZE entries: each block draws its node vectors in place
with `sample_nodes` and goes through the kernel of every band, the
control (below) included.
Consecutive draws from one stream give the same numbers, in the same
order, as one (count, n) draw, so the blocks never change a value; the
sums of g and g^2 still run over the whole chunk.

Every estimate comes from `_estimate`: the inner and outer bands run on
the same node samples (common random numbers), and each path's inner g
is capped at its outer g, so the bracket ordering holds path by path,
rounding included.  The plain estimate is the bracketed one
with inner = outer, so its bracket is (mean, mean).

Every band with a finite side is estimated against a control variate
(Glasserman 2003, sec. 4.1): the kernel g_c of the band between the
straight lines (chords) through the outer band's finite sides at s = 0
and s = S, on at most 16 of its intervals.  Its mean mu_c is the
probability of the chords' band, from one call of
`kernels.line_probability`: exact for one side, and for two a
one-dimensional quadrature of the one-interval kernel, with an error eps
of about 1e-13.  Each bracket end is mu_c + mean(g - g_c), with coefficient
1 rather than the fitted optimum: each end stays unbiased, inner <= outer
path by path, and the result a function of the seed and chunk size
alone.  The ends are widened by eps each way, so the bracket covers the
quadrature's error.  On the four paper7 cases the variance falls 8-22x,
and on (-1, Daniels) 5x; a straight band whose chords are its sides has
g - g_c = 0.  A side that bends far from its chord can make g - g_c vary
more than g (2 - 1.9 sin(pi t) at n = 128: 0.97x), so the engine also
sums g alone and keeps the control only where its standard error plus
eps is the smaller.  `estimate_bcp` is the plain average of the kernel,
without a control.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boundary import (GeneralBoundary, Partition, PiecewiseLinearBand,
                       PiecewiseLinearBoundary, envelopes, is_straight)
from .errors import InvalidBoundariesError, NumericFailureError
from .kernels import BLOCK_SIZE, _coarsest, band_kernel, kernel_plan, line_probability


@dataclass(frozen=True)
class McConfig:
    paths: int = 1_000_000
    seed: int = 0
    chunk_size: int = 4_096
    antithetic: bool = False

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class BcpEstimate:
    """An estimate with its bracket (inner mean, outer mean).  The bracket
    defaults to (mean, mean): a plain estimate is bracketed with inner = outer."""

    mean: float
    std_error: float
    paths: int
    bracket: tuple[float, float] = None  # set to (mean, mean) when not given

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must be a probability")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")
        if self.bracket is None:
            object.__setattr__(self, "bracket", (self.mean, self.mean))
        if self.bracket[0] > self.bracket[1]:
            raise ValueError("bracket lower bound exceeds upper bound")

    @property
    def bracket_width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def _chunk_stream(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], np.uint64)))


def sample_nodes(
    p: Partition, stream: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Brownian node vectors x_1..x_n with the exact joint law: one vector,
    or every row of `out` (rows x n), filled in place and returned.  Rows
    drawn into `out` equal as many consecutive one-vector draws."""
    x = stream.standard_normal(p.n) if out is None else stream.standard_normal(out=out)
    np.multiply(x, np.sqrt(p.dt), out=x)
    return np.cumsum(x, axis=-1, out=x)


def _worker_lanes(n_chunks: int) -> int:
    """Worker threads for n_chunks chunks: BCP_THREADS, or every CPU when it
    is unset, empty or at most 0; never more than the CPUs or the chunks."""
    text = os.environ.get("BCP_THREADS", "").strip()
    try:
        threads = int(text or 0)
    except ValueError:
        raise ValueError(f"BCP_THREADS must be an integer, got {text!r}") from None
    cpus = os.cpu_count() or 1
    if threads <= 0:
        threads = cpus
    return max(1, min(threads, cpus, n_chunks))


def _std_error(s1: float, s2: float, paths: int) -> float:
    """Standard error of the mean of `paths` values with sum s1 and sum of squares s2."""
    if paths < 2:
        return 0.0
    return math.sqrt(max(0.0, (s2 - s1 * s1 / paths) / (paths - 1)) / paths)


#: Most intervals of a control band: its nodes are every (n/16)-th node.
CONTROL_INTERVALS = 16


def _control(band: PiecewiseLinearBand) -> tuple | None:
    """The control of a band with a finite side, or None.

    It is the band between the straight lines (chords) through each finite
    side at s = 0 and s = S, on at most CONTROL_INTERVALS intervals ending
    at S: (that band, the index array of the node columns it reads, a
    function giving its mean and that mean's error (mu_c, eps), and a floor
    on eps known beforehand).  On the coarse nodes the kernel of straight
    sides is exact, so mu_c is the probability of the chords' band, and
    the function and floor are `line_probability`'s for the chords' ends.
    Where the chords' band has the band's nodes and bit-equal side values,
    the band itself is returned.  There is no control where a chord's rise
    c(S) - c(0) overflows, where rounding makes the chords cross, or where
    the chords' band on one interval would need more than MAX_TERMS series
    terms.
    """
    p = band.partition
    m = min(p.n, CONTROL_INTERVALS)
    nodes = np.round(np.linspace(0, p.n, m + 1)).astype(np.intp)
    q = Partition(p.nodes[nodes])
    sides, chords, ends = (band.lower, band.upper), [], []
    for side in sides:
        if side.is_infinite:
            chords.append(PiecewiseLinearBoundary.infinite(q, side.side))
            ends.append(None)
            continue
        c0, c_end = float(side.right[0]), float(side.left[-1])
        if not math.isfinite(c_end - c0):
            return None
        values = c0 + (c_end - c0) * (q.nodes / q.T)
        values[-1] = c_end
        chords.append(PiecewiseLinearBoundary.from_values(q, side.side, values))
        ends.append((c0, c_end))
    if ends == [None, None]:
        return None
    if q.n == p.n and all(np.array_equal(c.right, s.right) and np.array_equal(c.left, s.left)
                          for c, s in zip(chords, sides)):
        control = band
    else:
        try:
            control = PiecewiseLinearBand(*chords)
        except InvalidBoundariesError:  # chords only ulps apart, crossed by rounding
            return None
    try:
        floor, mean = line_probability(*ends, q.T)
    except NumericFailureError:  # the chords' band needs more than MAX_TERMS terms
        return None
    return control, nodes[1:] - 1, mean, floor


def _estimate(
    inner: PiecewiseLinearBand | None, outer: PiecewiseLinearBand, cfg: McConfig,
    controlled: bool = True,
) -> BcpEstimate:
    """Bracket (inner mean, outer mean), its midpoint and a standard error.

    Both bands run on the same node samples; when inner is outer the band
    is evaluated once and the bracket is (mean, mean).  inner=None is an
    empty band: its mean is 0 and only the outer band is evaluated.  Each
    path's inner g is capped at its outer g: envelopes only ulps apart, as
    for a side that a reduction maps to a line, let rounding in the series
    put the inner g above the outer one.  Sums run in chunk order.

    The SE is the larger of the two ends' SEs.  When controlled, an
    outer band with a finite side has a control (`_control`), evaluated
    like the bands on each block, at its node columns; a band that is its
    own control is evaluated once, and its g is g_c.  Each bracket end is
    then the control's mean mu_c plus the mean of g - g_c (coefficient 1),
    widened by mu_c's error eps (0 for one side) away from the other end,
    or the plain mean of g; either is clipped to [0, 1].  The control is
    taken only when its SE plus eps is strictly below the plain one.  The
    quadrature behind a two-sided mu_c runs only when the control's SE
    plus eps's floor, known beforehand, is below the plain SE; so never
    where that SE is 0.
    Subtracting the same g_c keeps each end unbiased and inner <= outer
    path by path.  The choice looks at the same samples, but only through
    their spread, which moves the mean by O(1/paths) against an SE of
    O(1/sqrt(paths)).
    """
    bands = [outer] if inner is None or inner is outer else [inner, outer]
    control = _control(outer) if controlled else None
    p = outer.partition
    n_chunks = -(-cfg.paths // cfg.chunk_size)
    block = max(1, BLOCK_SIZE // p.n)  # rows: one kernel block per mc block
    plans = [kernel_plan(band) for band in bands]
    if control is not None:
        control_band, cols, control_mean, floor = control
        own = control_band is outer  # g_c is the outer band's g
        control_plan = None if own else kernel_plan(control_band)

    def kernel(band, plan, x):
        g, _ = band_kernel(band, x, plan=plan)
        if cfg.antithetic:
            g2, _ = band_kernel(band, -x, plan=plan)
            g = 0.5 * (g + g2)
        return g

    def sums(g):  # (sum, sum of squares) of each row of g
        return [(float(np.sum(gb)), float(np.sum(gb * gb))) for gb in g]

    def run_chunk(k: int):
        count = min(cfg.chunk_size, cfg.paths - k * cfg.chunk_size)
        stream = _chunk_stream(cfg.seed, k)
        buf = np.empty((min(block, count), p.n))
        g = np.empty((len(bands), count))
        if control is not None:
            gc = g[-1] if own else np.empty(count)
        for r0 in range(0, count, block):
            x = sample_nodes(p, stream, buf[:min(block, count - r0)])
            r1 = r0 + x.shape[0]
            if control is not None and not own:
                gc[r0:r1] = kernel(control_band, control_plan, x[:, cols])
            for b, (band, plan) in enumerate(zip(bands, plans)):
                g[b, r0:r1] = kernel(band, plan, x)
            np.minimum(g[0, r0:r1], g[-1, r0:r1], out=g[0, r0:r1])
        return sums(g) if control is None else sums(g) + sums(g - gc)

    with ThreadPoolExecutor(_worker_lanes(n_chunks)) as pool:
        results = list(pool.map(run_chunk, range(n_chunks)))
    # (sum, sum of squares) of g for each band, then of g - g_c when controlled
    totals = [[math.fsum(stats[b][i] for stats in results) for i in (0, 1)]
              for b in range(len(results[0]))]
    ends, shift, widen = totals[:len(bands)], 0.0, 0.0
    std_error = max(_std_error(*t, cfg.paths) for t in ends)  # the larger end's
    if control is not None:  # and the larger end's with the control
        control_se = max(_std_error(*t, cfg.paths) for t in totals[len(bands):])
        if control_se + floor < std_error:  # else the quadrature cannot pay
            mu, eps = control_mean()
            if control_se + eps < std_error:
                ends, shift, widen, std_error = totals[len(bands):], mu, eps, control_se

    def end(s1: float, w: float) -> float:  # shift + the mean + w, a probability
        return min(1.0, max(0.0, shift + s1 / cfg.paths + w))

    mean_in = 0.0 if inner is None else end(ends[0][0], -widen)
    mean_out = end(ends[-1][0], widen)
    return BcpEstimate(
        mean=0.5 * (mean_in + mean_out),
        std_error=std_error,
        paths=cfg.paths,
        bracket=(mean_in, mean_out),
    )


def estimate_bcp(band: PiecewiseLinearBand, cfg: McConfig) -> BcpEstimate:
    """Plain Monte Carlo average of the kernel over cfg.paths samples.

    This is the bracketed estimate with inner = outer = band, without the
    control: the bracket is (mean, mean) and its width 0, and the SE is the
    kernel's own, so the estimate checks the kernel by simulation.  (A
    straight one-interval band is its own control, which would return the
    exact value with SE 0.)
    """
    return _estimate(band, band, cfg, controlled=False)


def estimate_bcp_bracketed(
    gb_lower: GeneralBoundary | None,
    gb_upper: GeneralBoundary | None,
    p: Partition,
    m: int,
    cfg: McConfig,
) -> BcpEstimate:
    """Bracketed estimate via inner/outer envelopes on shared samples.

    None is a side with no boundary.  Returns bracket = (mean over the
    narrowing band, mean over the widening band) and the midpoint as the
    point estimate.  The standard error is the larger of the two ends'
    SEs, of g - g_c where the control is kept (see `_estimate`), so a
    band that is its own control to within ulps reports a rounding-level
    SE only when both ends are.  Where a two-sided control is kept, the
    bracket also covers the error eps of its quadrature mean, about 1e-13:
    a straight two-sided band that is its own control returns mu_c +- eps
    with SE 0.  Exact sides give one band, evaluated once.  An inner band
    that excludes the start or closes has probability 0, and 0 is then the
    lower end.

    p is the finest partition.  A band of straight sides (`is_straight`)
    runs on the coarsest sub-partition of p that needs no more series
    terms (`kernels._coarsest`): the variance cannot rise, and the bracket
    stays (mean, mean) unless a two-sided control widens it by eps.
    Narrow bands such as (-0.1, 0.1) at n = 4 keep p.
    """
    gbs = (gb_lower or GeneralBoundary.infinite("lower", p.T),
           gb_upper or GeneralBoundary.infinite("upper", p.T))
    (lo_in, lo_out), (hi_in, hi_out) = (envelopes(gb, p, m) for gb in gbs)
    outer = PiecewiseLinearBand(lo_out, hi_out)
    if lo_in is lo_out and hi_in is hi_out:
        if all(is_straight(s, gb.reduced) for s, gb in zip((lo_out, hi_out), gbs)):
            outer = _coarsest(outer)
        return _estimate(outer, outer, cfg)
    try:
        inner = PiecewiseLinearBand(lo_in, hi_in)
    except InvalidBoundariesError:  # closed, or excludes the start
        inner = None
    return _estimate(inner, outer, cfg)
