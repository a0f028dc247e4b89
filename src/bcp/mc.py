"""Monte Carlo engine: node sampling, kernel averaging, bracketed estimates.

Paths are generated in chunks; chunk k draws from a Philox stream keyed
by (seed, k), so results are reproducible bit-for-bit regardless of how
many worker lanes evaluate the chunks (BCP_THREADS alone sets that, see
_worker_lanes).  A chunk runs block by block through one reused buffer
of kernels.BLOCK_SIZE entries: each block draws its node vectors in place
with `sample_nodes` and goes through the kernel of every band.
Consecutive draws from one stream give the same numbers, in the same
order, as one (count, n) draw, so the blocks never change a value; the
sums of g and g^2 still run over the whole chunk.

Every estimate comes from `_estimate`: the inner and outer bands run on
the same node samples (common random numbers), and each path's inner g
is capped at its outer g, so the bracket ordering holds path by path,
rounding included.  The plain estimate is the bracketed one
with inner = outer, so its bracket is (mean, mean).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boundary import (GeneralBoundary, Partition, PiecewiseLinearBand,
                       PiecewiseLinearBoundary, envelopes, is_straight)
from .errors import InvalidBoundariesError
from .kernels import BLOCK_SIZE, TAIL_BOUND, _q, _tail, _term_counts, band_kernel


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


def _mean_se(s1: float, s2: float, paths: int) -> tuple[float, float]:
    mean = s1 / paths
    if paths > 1:
        var = max(0.0, (s2 - s1 * s1 / paths) / (paths - 1))
        se = math.sqrt(var / paths)
    else:
        se = 0.0
    return mean, se


def _estimate(
    inner: PiecewiseLinearBand | None, outer: PiecewiseLinearBand, cfg: McConfig
) -> BcpEstimate:
    """Bracket (inner mean, outer mean), its midpoint and the outer band's SE.

    Both bands run on the same node samples; when inner is outer the band
    is evaluated once and the bracket is (mean, mean).  inner=None is an
    empty band: its mean is 0 and only the outer band is evaluated.  Each
    path's inner g is capped at its outer g: envelopes only ulps apart, as
    for a side that a reduction maps to a line, let rounding in the series
    put the inner g above the outer one.  Sums run in chunk order.
    """
    bands = [outer] if inner is None or inner is outer else [inner, outer]
    p = outer.partition
    n_chunks = -(-cfg.paths // cfg.chunk_size)
    block = max(1, BLOCK_SIZE // p.n)  # rows: one kernel block per mc block

    def run_chunk(k: int):
        count = min(cfg.chunk_size, cfg.paths - k * cfg.chunk_size)
        stream = _chunk_stream(cfg.seed, k)
        buf = np.empty((min(block, count), p.n))
        g = np.empty((len(bands), count))
        for r0 in range(0, count, block):
            x = sample_nodes(p, stream, buf[:min(block, count - r0)])
            for b, band in enumerate(bands):
                gb, _ = band_kernel(band, x)
                if cfg.antithetic:
                    g2, _ = band_kernel(band, -x)
                    gb = 0.5 * (gb + g2)
                g[b, r0:r0 + block] = gb
        np.minimum(g[0], g[-1], out=g[0])
        return [(float(np.sum(gb)), float(np.sum(gb * gb))) for gb in g]

    with ThreadPoolExecutor(max_workers=_worker_lanes(n_chunks)) as pool:
        results = list(pool.map(run_chunk, range(n_chunks)))
    totals = [[math.fsum(stats[b][i] for stats in results) for i in (0, 1)]
              for b in range(len(bands))]
    mean_in = 0.0 if inner is None else _mean_se(*totals[0], cfg.paths)[0]
    mean_out, se_out = _mean_se(*totals[-1], cfg.paths)
    return BcpEstimate(
        mean=0.5 * (mean_in + mean_out),
        std_error=se_out,
        paths=cfg.paths,
        bracket=(mean_in, mean_out),
    )


def estimate_bcp(band: PiecewiseLinearBand, cfg: McConfig) -> BcpEstimate:
    """Plain Monte Carlo average of the kernel over cfg.paths samples.

    This is the bracketed estimate with inner = outer = band: the bracket
    is (mean, mean) and its width 0.
    """
    return _estimate(band, band, cfg)


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
    point estimate; the standard error is the outer band's.  Exact sides
    give one band, evaluated once.  An inner band that excludes the start
    or closes has probability 0, and 0 is then the lower end.

    p is the finest partition.  A band of straight sides (`is_straight`)
    runs on the coarsest sub-partition of p that needs no more series
    terms (`_coarsest`): the bracket stays (mean, mean), and the variance
    cannot rise.  Narrow bands such as (-0.1, 0.1) at n = 4 keep p.
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
