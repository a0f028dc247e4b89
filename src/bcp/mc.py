"""Monte Carlo engine: node sampling, kernel averaging, bracketed estimates.

Paths are generated in chunks; chunk k draws from a Philox stream keyed
by (seed, k), so results are reproducible bit-for-bit regardless of how
many worker lanes evaluate the chunks (BCP_THREADS alone sets that, see
_worker_lanes).  A chunk runs block by block through one reused buffer
of kernels.BLOCK_SIZE entries: each block draws its node vectors in place
with `sample_nodes` and goes through the kernel of every band, the
control (below) included.
Consecutive draws from one stream give the same numbers, in the same
order, as one (count, n) draw, so the blocks never change a value; each
chunk's sum of g, and of the squared deviations from its own mean, still
run over the whole chunk, and `_totals` combines them in chunk order.

Every estimate comes from `_estimate`: the inner and outer bands run on
the same node samples (common random numbers), and each path's inner g
is capped at its outer g, so the bracket ordering holds path by path,
rounding included.  The plain estimate is the bracketed one
with inner = outer, so its bracket is (mean, mean).

Every band with a finite side is estimated against a control variate
(Glasserman 2003, sec. 4.1): the kernel g_c of the band between straight
lines standing in for the outer band's finite sides, on at most 32 of its
intervals.  The lines are the sides' least-squares fits over all band
nodes, or, where those make no control or a larger quadrature floor,
their chords, the lines through their values at s = 0 and s = S
(`_control`).  Its mean mu_c is the probability of the lines' band, from
one call of `kernels.line_probability`: exact for one side, and for two
a one-dimensional quadrature of the one-interval kernel, with an error
eps of about 1e-13.  Each bracket end is mu_c + mean(g - g_c),
with coefficient 1 rather than the fitted optimum: each end stays
unbiased, inner <= outer path by path, and the result a function of the
seed and chunk size alone.  The ends are widened by eps each way, so the
bracket covers the quadrature's error.  On the four paper7 cases the
variance falls 18-38x, and on (-1, Daniels) 11x; a straight band whose
chords are its sides has g - g_c = 0.  A line can still lie far from
where the paths cross: on 4 + 2 sin(pi t) at n = 128 the fitted line
is one that no path reaches, and the chord of
0.3 + 2t - 1.9 sin(pi t) makes g - g_c vary 11x as much as g, so the
engine also sums g alone and keeps the control only where its standard
error plus eps is the smaller.
`estimate_bcp` is the plain average of the kernel, without a control.
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


def _totals(chunks: list[tuple[int, float, float]]) -> tuple[float, float]:
    """Sum and standard error of the mean of values given per chunk as
    (count, sum, sum of squared deviations from the chunk's mean), combined
    in chunk order (Chan, Golub & LeVeque 1983).  Deviations from each
    chunk's mean keep a spread that is far below the mean's rounding, which
    the sums of g and g^2 would cancel to 0."""
    paths = sum(c for c, _, _ in chunks)
    s1 = math.fsum(s for _, s, _ in chunks)
    if paths < 2:
        return s1, 0.0
    mean = s1 / paths
    m2 = math.fsum(m2 + c * (s / c - mean) ** 2 for c, s, m2 in chunks)
    return s1, math.sqrt(m2 / (paths - 1) / paths)


#: Most intervals of a control band: its nodes are every (n/32)-th node.
CONTROL_INTERVALS = 32


def _line(q: Partition, side: str, ends: tuple[float, float] | None) -> PiecewiseLinearBoundary:
    """The side on q of the line through ends = (c(0), c(S)); infinite for None."""
    if ends is None:
        return PiecewiseLinearBoundary.infinite(q, side)
    c0, c_end = ends
    values = c0 + (c_end - c0) * (q.nodes / q.T)
    values[-1] = c_end
    return PiecewiseLinearBoundary.from_values(q, side, values)


def _side_lines(side: PiecewiseLinearBoundary, nodes: np.ndarray, q: Partition) -> tuple:
    """(the ends of the side's least-squares line, the ends of its chord),
    each (c(0), c(S)) or None where it has none.

    The chord runs through the side's values at s = 0 and s = S: None where
    its rise overflows.  Where the chord gives the side bit-for-bit at the
    control's nodes it is also the fitted line.  Else the fit is the
    least-squares line through the side's values at all band nodes against
    s: a curved side bends away from its chord, and the fit follows it.
    Where the fit is not finite or leaves the start outside, the chord
    stands in for it.
    """
    c0, c_end = float(side.right[0]), float(side.right[-1])
    chord = (c0, c_end) if math.isfinite(c_end - c0) else None
    if chord is not None and all(np.array_equal(_line(q, side.side, chord).right, v[nodes])
                                 for v in (side.right, side.left)):
        return chord, chord
    s, v = side.partition.nodes, side.right
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        s_bar, v_bar = s.mean(), v.mean()
        slope = np.dot(s - s_bar, v - v_bar) / np.dot(s - s_bar, s - s_bar)
        fit = float(v_bar - slope * s_bar), float(v_bar + slope * (s[-1] - s_bar))
    inside = fit[0] > 0.0 if side.side == "upper" else fit[0] < 0.0
    return (fit if inside and math.isfinite(fit[1] - fit[0]) else chord), chord


def _control(band: PiecewiseLinearBand) -> tuple | None:
    """The control of a band: None where it has no finite side, else the
    band between the fitted lines or, failing those, the chords.

    The control is the band between straight lines standing in for the
    band's finite sides (`_side_lines`), on at most CONTROL_INTERVALS
    intervals ending at S: (that band, the index array of the node columns
    it reads, a function giving its mean and that mean's error (mu_c, eps),
    and a floor on eps known beforehand).  On the coarse nodes the kernel
    of straight sides is exact, so mu_c is the probability of the lines'
    band, and the function and floor are `line_probability`'s for the
    lines' ends.  Where the lines' band has the band's nodes and bit-equal
    side values, the band itself is returned.  A set of lines makes no
    control where a finite side has no line (a chord's rise overflows),
    where the lines cross (fitted lines can, and chords only ulps apart by
    rounding), or where their band on one interval would need more than
    MAX_TERMS series terms; the fitted lines give way to the chords also
    where their floor is above the chords', so a fit never widens the
    bracket.
    """
    p = band.partition
    m = min(p.n, CONTROL_INTERVALS)
    nodes = np.round(np.linspace(0, p.n, m + 1)).astype(np.intp)
    q = Partition(p.nodes[nodes])
    sides = (band.lower, band.upper)
    if all(side.is_infinite for side in sides):
        return None
    pairs = [(None, None) if side.is_infinite else _side_lines(side, nodes, q) for side in sides]
    fitted, chords = zip(*pairs)
    control = None
    for ends in [chords] + [fitted] * (fitted != chords):
        if any(e is None and not s.is_infinite for e, s in zip(ends, sides)):
            continue  # a finite side without a line
        lines = [_line(q, s.side, e) for s, e in zip(sides, ends)]
        own = q.n == p.n and all(np.array_equal(line.right, s.right)
                                 and np.array_equal(line.left, s.left)
                                 for line, s in zip(lines, sides))
        try:
            control_band = band if own else PiecewiseLinearBand(*lines)
            floor, mean = line_probability(*ends, q.T)
        except (InvalidBoundariesError, NumericFailureError):  # crossed, or > MAX_TERMS terms
            continue
        if control is None or floor <= control[3]:  # fitted lines replace the chords
            control = (control_band, nodes[1:] - 1, mean, floor)
    return control


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
    outer band with a finite side has a control (`_control`), chosen from
    the band alone and evaluated like the bands on each block, at its node
    columns; a band that is its own control is evaluated once, and its g
    is g_c.  Only the streams of chunks 0 .. n_chunks - 1 are drawn.  Each
    bracket end is the control's mean mu_c plus the mean of g - g_c
    (coefficient 1), widened by mu_c's error eps (0 for one side) away from
    the other end, or the plain mean of g; either is clipped to [0, 1].
    The control is taken only when its SE plus eps is strictly below the
    plain one.  The quadrature behind a two-sided mu_c runs only when the
    control's SE plus eps's floor, known beforehand, is below the plain
    SE; so never where that SE is 0.
    Subtracting the same g_c keeps each end unbiased and inner <= outer
    path by path.  The keep-or-drop choice looks at the same samples, but
    only through their spread, which moves the mean by O(1/paths) against
    an SE of O(1/sqrt(paths)).
    """
    bands = [outer] if inner is None or inner is outer else [inner, outer]
    p = outer.partition
    n_chunks = -(-cfg.paths // cfg.chunk_size)
    block = max(1, BLOCK_SIZE // p.n)  # rows: one kernel block per mc block
    plans = [kernel_plan(band) for band in bands]

    def kernel(band, plan, x):
        g, _ = band_kernel(band, x, plan=plan)
        if cfg.antithetic:
            g2, _ = band_kernel(band, -x, plan=plan)
            g = 0.5 * (g + g2)
        return g

    control = _control(outer) if controlled else None
    if control is not None:
        control_band, cols, control_mean, floor = control
        own = control_band is outer  # g_c is the outer band's g
        control_plan = None if own else kernel_plan(control_band)

    def sums(g):  # (sum, sum of squared deviations from the mean) of each row of g
        out = []
        for gb in g:
            s = float(np.sum(gb))
            d = gb - s / gb.size
            out.append((s, float(np.sum(d * d))))
        return out

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
        return count, (sums(g) if control is None else sums(g) + sums(g - gc))

    with ThreadPoolExecutor(_worker_lanes(n_chunks)) as pool:
        results = list(pool.map(run_chunk, range(n_chunks)))
    # (sum, SE) of g for each band, then of g - g_c when controlled
    totals = [_totals([(count, *stats[b]) for count, stats in results])
              for b in range(len(results[0][1]))]
    ends, shift, widen = totals[:len(bands)], 0.0, 0.0
    std_error = max(se for _, se in ends)  # the larger end's
    if control is not None:  # and the larger end's with the control
        control_se = max(se for _, se in totals[len(bands):])
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
