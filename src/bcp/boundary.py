"""Partitions, piecewise-linear boundary bands and bracketing envelopes.

A piecewise-linear boundary is linear on each open subinterval of its
partition and may jump either way at interior nodes, so node values are
kept per side (left limit / right limit).  A path is inside a band at a
node only strictly between its limits there (`PiecewiseLinearBand.limits`).
All types here are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import EvaluationError, InvalidBoundariesError, StartOutsideBandError

Side = Literal["lower", "upper"]


def _frozen_array(values) -> np.ndarray:
    """A read-only float64 copy: the caller's array stays writable."""
    a = np.array(values, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Partition:
    """Strictly increasing time nodes t_0 = 0 < t_1 < ... < t_n = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _frozen_array(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("partition needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("partition must start at t=0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("partition nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.nodes)


def check_horizon(T: float) -> None:
    """Raise ValueError naming T unless 0 < T < inf."""
    if not 0 < T < math.inf:
        need = "positive and finite" if T > 0 else "positive"
        raise ValueError(f"horizon must be {need}, got {T}")


def uniform_partition(T: float, n: int) -> Partition:
    """Equally spaced partition of [0, T] with n subintervals."""
    check_horizon(T)
    if not n >= 1:
        raise ValueError(f"need at least one subinterval, got {n}")
    return Partition(np.linspace(0.0, T, n + 1))


@dataclass(frozen=True)
class PiecewiseLinearBoundary:
    """One boundary side, linear between nodes, with jumps at interior nodes.

    `right[i]` is the value at t_i+ (used by subinterval i+1) and
    `left[i]` the value at t_i-; both arrays have length n+1 with
    `left[0] == right[0]` and `left[n] == right[n]` by convention.
    """

    partition: Partition
    side: Side
    right: np.ndarray
    left: np.ndarray

    def __post_init__(self):
        right = _frozen_array(self.right)
        left = _frozen_array(self.left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left", left)
        n = self.partition.n
        if right.shape != (n + 1,) or left.shape != (n + 1,):
            raise ValueError("boundary value arrays must have length n+1")
        if left[0] != right[0] or left[n] != right[n]:
            raise ValueError("endpoint nodes cannot carry jumps")
        if self.side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {self.side!r}")
        inf = -math.inf if self.side == "lower" else math.inf
        infinite = np.isinf(right) | np.isinf(left)
        if infinite.any():
            if not (np.all(right == inf) and np.all(left == inf)):
                raise InvalidBoundariesError(
                    "finite and infinite segments cannot mix in one boundary"
                )
            return
        if np.isnan(right).any() or np.isnan(left).any():
            raise EvaluationError("boundary values contain NaN")

    @classmethod
    def from_values(cls, partition: Partition, side: Side, values) -> "PiecewiseLinearBoundary":
        """Continuous boundary through the given node values."""
        return cls(partition, side, values, values)

    @classmethod
    def infinite(cls, partition: Partition, side: Side) -> "PiecewiseLinearBoundary":
        inf = -math.inf if side == "lower" else math.inf
        v = np.full(partition.n + 1, inf)
        return cls(partition, side, v, v)

    @property
    def is_infinite(self) -> bool:
        return bool(np.isinf(self.right[0]))

    def __call__(self, t) -> np.ndarray:
        """Evaluate on the closed intervals, using right limits at nodes."""
        t = np.asarray(t, dtype=np.float64)
        nodes = self.partition.nodes
        if self.is_infinite:
            return np.full(t.shape, self.right[0])
        idx = np.clip(np.searchsorted(nodes, t, side="right"), 1, self.partition.n)
        t0 = nodes[idx - 1]
        t1 = nodes[idx]
        w = (t - t0) / (t1 - t0)
        vals = (1 - w) * self.right[idx - 1] + w * self.left[idx]
        at_node = t == t0
        vals = np.where(at_node, self.right[idx - 1], vals)
        return vals


@dataclass(frozen=True)
class PiecewiseLinearBand:
    """Lower/upper boundary pair over a shared partition, for a path started at 0.

    This is the one check of a band: at every node the lower limits stay
    strictly below the upper ones (InvalidBoundariesError), and 0 lies
    strictly inside the band at t=0 (StartOutsideBandError).
    """

    lower: PiecewiseLinearBoundary
    upper: PiecewiseLinearBoundary

    def __post_init__(self):
        lo, hi = self.lower, self.upper
        if lo.side != "lower" or hi.side != "upper":
            raise ValueError("band needs a lower and an upper boundary, in that order")
        if not np.array_equal(lo.partition.nodes, hi.partition.nodes):
            raise ValueError("both boundaries must share one partition")
        if not np.all(np.less(*self.limits)):
            raise InvalidBoundariesError("lower boundary must stay strictly below upper")
        if not lo.right[0] < 0 < hi.right[0]:
            raise StartOutsideBandError(
                f"start point 0 not strictly inside ({lo.right[0]}, {hi.right[0]}) at t=0"
            )

    @property
    def partition(self) -> Partition:
        return self.lower.partition

    @property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """At each node, the larger of the lower side's two limits and the
        smaller of the upper side's: the band there is the open interval between."""
        return (np.maximum(self.lower.left, self.lower.right),
                np.minimum(self.upper.left, self.upper.right))


def evaluate(fn: Callable[..., float], *args):
    """fn at args under the `GeneralBoundary` contract: a float for scalar
    args, else an array of their broadcast shape."""
    if all(np.ndim(a) == 0 for a in args):
        return float(fn(*args))
    args = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in args))
    try:
        out = fn(*args)
        if np.shape(out) == args[0].shape:
            return np.asarray(out, dtype=np.float64)
    except (TypeError, ValueError):
        pass
    vals = [float(fn(*xs)) for xs in zip(*(a.ravel().tolist() for a in args))]
    return np.array(vals, dtype=np.float64).reshape(args[0].shape)


@dataclass(frozen=True)
class GeneralBoundary:
    """Arbitrary boundary function with side tag and finiteness metadata.

    Calling it with a scalar returns a float; calling it with an array
    returns a float array of the same shape.  For an array the evaluator
    is called once on the whole array, and a result of exactly that shape
    is taken as the elementwise values.  If that call raises TypeError or
    ValueError, or returns any other shape (a scalar, say), the evaluator
    is called once per element instead, so scalar-only callables such as
    ``lambda t: math.exp(t)`` work unchanged.

    `reduced` marks a side computed by a reduction (`transforms`): its
    values carry the reduction's error as well as rounding, so `envelopes`
    takes its chord as exact only where no shift is needed at all.
    """

    evaluator: Callable[[float], float]
    side: Side
    horizon: float
    finite: bool = True
    reduced: bool = False

    def __call__(self, t):
        return evaluate(self.evaluator, t)

    @classmethod
    def constant(cls, value: float, side: Side, horizon: float) -> "GeneralBoundary":
        """The boundary equal to value; -inf for a lower side, +inf for an
        upper one, is no boundary.  The other infinity and NaN raise."""
        absent = -math.inf if side == "lower" else math.inf
        if math.isnan(value):
            raise EvaluationError(f"{side} boundary cannot be NaN")
        if math.isinf(value) and value != absent:
            raise InvalidBoundariesError(f"{side} boundary cannot be {value:+}")
        return cls(lambda t: np.full(np.shape(t), value), side, horizon,
                   finite=value != absent)

    @classmethod
    def infinite(cls, side: Side, horizon: float) -> "GeneralBoundary":
        return cls.constant(-math.inf if side == "lower" else math.inf, side, horizon)


def _values(gb: GeneralBoundary, ts: np.ndarray) -> np.ndarray:
    """gb on the grid ts, raising at the first NaN in row-major order, or
    the first infinity where gb is a finite side."""
    vals = gb(ts)
    bad = ~np.isfinite(vals) if gb.finite else np.isnan(vals)
    if bad.any():
        i = np.argmax(bad)
        t = float(ts.flat[i])
        raise EvaluationError(f"{gb.side} boundary evaluated to {vals.flat[i]} at t={t}", t=t)
    return vals


def _check_horizon(gb: GeneralBoundary, p: Partition) -> None:
    if abs(p.T - gb.horizon) > 1e-12 * max(1.0, gb.horizon):
        raise ValueError(f"partition horizon {p.T} != boundary horizon {gb.horizon}")


def chord_boundary(gb: GeneralBoundary, p: Partition) -> PiecewiseLinearBoundary:
    """Continuous piecewise-linear interpolant through gb at the nodes."""
    _check_horizon(gb, p)
    return PiecewiseLinearBoundary.from_values(p, gb.side, _values(gb, p.nodes))


#: A side given as written is straight up to rounding on an interval when
#: its shifts there are at most this many epsilons of the size of its terms.
_EXACT_ULPS = 16


def _rounding(us: np.ndarray, u_nodes: np.ndarray, nodes: np.ndarray, reduced: bool):
    """The shift taken as rounding on each interval between nodes, for a side
    sampled as us (a row per interval) with node values u_nodes; 0 if reduced."""
    # On a line a + b*t, rounding scales with |a| + |b*t|, not with |a + b*t|.
    return 0.0 if reduced else _EXACT_ULPS * np.finfo(float).eps * (
        np.max(np.abs(us), axis=-1) + np.abs(np.diff(u_nodes)) / np.diff(nodes) * nodes[1:])


def is_straight(side: PiecewiseLinearBoundary, reduced: bool) -> bool:
    """Whether side is absent, or continuous with every node value on its
    chord over [0, T] up to `envelopes`' rounding for that one interval."""
    if side.is_infinite:
        return True
    v, w = side.right, side.partition.nodes / side.partition.T
    gap = np.max(np.abs((1 - w) * v[0] + w * v[-1] - v))
    return bool(np.array_equal(v, side.left)
                and gap <= _rounding(v, v[[0, -1]], w[[0, -1]], reduced))


def envelopes(
    gb: GeneralBoundary, p: Partition, m: int = 50
) -> tuple[PiecewiseLinearBoundary, PiecewiseLinearBoundary]:
    """Bracket gb between two continuous piecewise-linear boundaries.

    This is the one map from a side to its (inner, outer) pair.  For an
    upper boundary inner <= gb <= outer at all sampled times; for a lower
    one inner >= gb >= outer (inner always narrows the band).  Per
    subinterval the chord is shifted by the largest sampled chord-vs-boundary
    excess; node values take the larger of the two adjacent shifts so no
    jumps appear.  gb is evaluated once, on the (n, m) grid of samples; the
    nodes are its first and last columns.  A side with no boundary, or one
    whose shifts are all within rounding (a constant or a straight line, see
    _EXACT_ULPS; for a reduced side, all 0), is exact: its chord comes back
    as both ends.  p must span gb's horizon.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples per interval, got {m}")
    _check_horizon(gb, p)
    if not gb.finite:
        exact = PiecewiseLinearBoundary.infinite(p, gb.side)
        return exact, exact
    sign = 1.0 if gb.side == "upper" else -1.0
    t0 = p.nodes[:-1, None]
    t1 = p.nodes[1:, None]
    ts = np.linspace(p.nodes[:-1], p.nodes[1:], m, axis=1)
    us = sign * _values(gb, ts)
    u_nodes = np.append(us[:, 0], us[-1, -1])
    w = (ts - t0) / (t1 - t0)
    chord = (1 - w) * u_nodes[:-1, None] + w * u_nodes[1:, None]
    # The sampled max can miss the true extremum by ~|gap''| d^2 / 8
    # (d = sample spacing); pad both shifts by that second-difference
    # estimate so the envelopes stay on the correct side between samples.
    pad = np.max(np.abs(np.diff(us, n=2, axis=1)), axis=1) / 8.0 if m > 2 else 0.0
    shift_in = np.maximum(0.0, np.max(chord - us, axis=1)) + pad  # chord above boundary
    shift_out = np.maximum(0.0, np.max(us - chord, axis=1)) + pad  # boundary above chord
    if np.all(np.maximum(shift_in, shift_out) <= _rounding(us, u_nodes, p.nodes, gb.reduced)):
        exact = PiecewiseLinearBoundary.from_values(p, gb.side, sign * u_nodes)
        return exact, exact

    # Node k borders intervals k-1 and k; use the more conservative shift.
    down = np.maximum(np.concatenate([[shift_in[0]], shift_in]),
                      np.concatenate([shift_in, [shift_in[-1]]]))
    up = np.maximum(np.concatenate([[shift_out[0]], shift_out]),
                    np.concatenate([shift_out, [shift_out[-1]]]))
    return (PiecewiseLinearBoundary.from_values(p, gb.side, sign * (u_nodes - down)),
            PiecewiseLinearBoundary.from_values(p, gb.side, sign * (u_nodes + up)))
