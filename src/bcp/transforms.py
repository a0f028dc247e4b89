"""Reductions of diffusions to Brownian motion, plus a closed-form catalog.

Each `reduce_*` maps a crossing problem for the original process onto an
equivalent problem for a standard Brownian motion started at 0: the
boundaries are transformed through the process-specific space map and
the clock is rescaled by the deterministic time change, whose inverse is
exposed as `time_map` on the result.  All of them build the result in
`_reduced`, where Brownian motion (`reduce(None, ...)`) is the family
with the identity maps.  The process specs reject a parameter that is
not finite, or not positive where it must be, with a ValueError naming it.

The catalog (`closed_form_bcp`, `catalog_problem`) is one table: each case
holds its original problem and the straight line c + d*s on [0, S] that
its reduction maps the barrier onto, so `bcp_linear_one_sided` is its one
formula.  A numeric checker for the reducibility condition (a PDE in the
drift and diffusion coefficient) is included for processes outside the
built-in families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .boundary import (GeneralBoundary, PiecewiseLinearBand, check_horizon, chord_boundary,
                       evaluate, uniform_partition)
from .errors import InvalidBoundariesError, InvalidDomainError, NumericFailureError
from .kernels import bcp_linear_one_sided


# ---------------------------------------------------------------------------
# Process specifications


def _check_fields(spec, positive: tuple = (), finite: tuple = ()) -> None:
    """Raise ValueError naming the first field of `positive` that is not
    positive and finite, then the first of `finite` that is not finite."""
    for name in positive + finite:
        v = getattr(spec, name)
        if not (0 < v < math.inf if name in positive else math.isfinite(v)):
            need = "positive and finite" if name in positive else "finite"
            raise ValueError(f"{name} must be {need}, got {v}")


@dataclass(frozen=True)
class OUSpec:
    """Mean-reverting process dX = kappa*(alpha - X) dt + sigma dW."""

    x0: float
    kappa: float
    alpha: float
    sigma: float

    def __post_init__(self):
        _check_fields(self, positive=("kappa", "sigma"), finite=("x0", "alpha"))


@dataclass(frozen=True)
class TimeVaryingOUSpec:
    """Mean-reverting process with time-dependent coefficient functions."""

    x0: float
    kappa: Callable[[float], float]
    alpha: Callable[[float], float]
    sigma: Callable[[float], float]

    def __post_init__(self):
        _check_fields(self, finite=("x0",))


@dataclass(frozen=True)
class GrowthSpec:
    """Gompertz-type process dX = (alpha*X - beta*X*log X) dt + sigma*X dW."""

    x0: float
    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        _check_fields(self, positive=("alpha", "beta", "sigma", "x0"))


@dataclass(frozen=True)
class GBMSpec:
    """Geometric Brownian motion dX = r(t) X dt + sigma X dW."""

    x0: float
    sigma: float
    rate: Callable[[float], float] | float = 0.0

    def __post_init__(self):
        _check_fields(self, positive=("sigma", "x0"),
                      finite=() if callable(self.rate) else ("rate",))


DiffusionSpec = OUSpec | TimeVaryingOUSpec | GrowthSpec | GBMSpec


@dataclass(frozen=True)
class ReducedProblem:
    """Brownian-motion formulation of a diffusion crossing problem."""

    lower: GeneralBoundary
    upper: GeneralBoundary
    horizon: float
    time_map: Callable  # s -> original time t, elementwise on arrays
    provenance: dict


# ---------------------------------------------------------------------------
# Shared helpers


#: Equally spaced points at which every reduced band is checked, on [0, S],
#: and the log map's domain for growth and gbm, on [0, T].
_PROBES = 65


def _expm1(x: float) -> float:
    """math.expm1(x), or inf where it overflows."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _check_time_change(S: float) -> None:
    """NumericFailureError unless the time change S(T) is finite and positive."""
    if not (math.isfinite(S) and S > 0):
        raise NumericFailureError(f"the time change S(T) = {S:g} is not finite and positive")


def _log_sides(a: GeneralBoundary | None, b: GeneralBoundary | None, T: float, x0: float,
               scale: float = 1.0) -> tuple[GeneralBoundary | None, GeneralBoundary | None]:
    """The sides log(v/x0)/scale of growth and gbm, None for an absent one.

    On _PROBES points of [0, T] the upper side must be positive and the lower
    one not negative.  A lower side that is 0 at every probe maps to -inf and
    comes back None; one that is 0 at only some would map to -inf at isolated
    times, which no envelope can follow.  A mapped side that is not finite
    at a probe, as when a subnormal sigma divides it, raises
    NumericFailureError.
    """
    ts = uniform_partition(T, _PROBES - 1).nodes  # ValueError for T <= 0
    a, b = (gb if gb is not None and gb.finite else None for gb in (a, b))
    bv = None if b is None else b(ts)
    if bv is not None and np.any(bv <= 0):
        raise InvalidBoundariesError("upper boundary must be positive")
    av = None if a is None else a(ts)
    if av is not None:
        if np.any(av < 0):
            raise InvalidBoundariesError("lower boundary cannot be negative")
        zero = av == 0.0
        if zero.any() and not zero.all():
            raise InvalidBoundariesError(
                "lower boundary must be identically 0 or positive on [0, T]")
        a = None if zero.all() else a

    def log_side(gb, v):
        if gb is None:
            return None
        with np.errstate(over="ignore", divide="ignore"):
            if not np.all(np.isfinite(np.log(v / x0) / scale)):
                raise NumericFailureError(f"the {gb.side} boundary's log(v/x0)" + (
                    " is not finite" if scale == 1.0
                    else f"/sigma is not finite at sigma = {scale!r}"))

        def y(t):  # between probes, v <= 0 maps to -inf
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(gb(t), 0.0) / x0) / scale

        return GeneralBoundary(y, gb.side, T)

    return log_side(a, av), log_side(b, bv)


def _identity(s):
    return s


def _reduced(family: str, spec: DiffusionSpec | None, a: GeneralBoundary | None,
             b: GeneralBoundary | None, T: float, S: float, time_map: Callable,
             space: Callable | None) -> ReducedProblem:
    """The Brownian problem on [0, S] whose finite sides are s -> space(s, gb).

    An absent or infinite side stays infinite; space=None (Brownian motion)
    keeps each finite side as given.  Every family's one band check: the
    reduced sides' chords through _PROBES points of [0, S] must form a
    `PiecewiseLinearBand` (S = T for Brownian motion).  T must be positive
    and finite (ValueError), and then S (NumericFailureError).
    """
    check_horizon(T)
    _check_time_change(S)

    def side(gb, name):
        if gb is None or not gb.finite:
            return GeneralBoundary.infinite(name, S)
        if space is None:
            return gb
        return GeneralBoundary(lambda s: space(s, gb), name, S, reduced=True)

    lower, upper = side(a, "lower"), side(b, "upper")
    probes = uniform_partition(S, _PROBES - 1)
    PiecewiseLinearBand(chord_boundary(lower, probes), chord_boundary(upper, probes))
    return ReducedProblem(
        lower=lower,
        upper=upper,
        horizon=S,
        time_map=time_map,
        provenance={"family": family, "spec": spec, "T": T},
    )


# Adaptive piecewise Chebyshev interpolation (Trefethen, Approximation Theory
# and Approximation Practice, SIAM 2013, ch. 3 and 19).

#: Degree at which every piece is sampled; a piece is then chopped to the
#: degree its coefficients need, or bisected if they have not decayed.
_CHEB_DEGREE = 64

#: A piece is resolved when, in every row, its trailing coefficients are at
#: most _CHEB_TOL times the row's largest sample so far; it then keeps the
#: coefficients up to its last one above _CHEB_CHOP times that.  When the
#: samples are only integrated, a piece of width w out of an interval of
#: width W may leave W / w times _CHEB_TOL: its error in the integral is
#: then no larger than that of a resolved full-width piece.
_CHEB_TOL = 2.0**-50
_CHEB_CHOP = 2.0**-52

#: Pieces narrower than this fraction of the interval are kept unresolved
#: (a jump never resolves); more than _CHEB_MAX_PIECES pieces is a failure.
_CHEB_MIN_WIDTH = 2.0**-40
_CHEB_MAX_PIECES = 1024


@cache
def _cheb_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-n Chebyshev points of the second kind on [-1, 1], ascending,
    and the matrix that takes values there to Chebyshev coefficients."""
    j = np.arange(n + 1)
    u = np.sin(np.pi * (2 * j - n) / (2 * n))
    # T_k(u_j) = (-1)^k cos(k*j*pi/n); reducing k*j mod 2n keeps the angle exact.
    m = np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)
    m[1::2] *= -1.0
    m[:, [0, n]] *= 0.5
    m[[0, n]] *= 0.5
    return u, m * (2.0 / n)


def _clenshaw(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum of c[k] T_k(u) over k: shape c.shape[1:] + u.shape."""
    c = c.reshape(c.shape + (1,) * u.ndim)
    u2 = 2.0 * u
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = ck + u2 * b1 - b2, b1
    return c[0] + u * b1 - b2


@dataclass(frozen=True)
class _Cheb:
    """Piecewise Chebyshev series of one or more functions (rows).

    Piece i covers [breaks[i], breaks[i+1]] and holds a (degree + 1, rows)
    coefficient array in the variable mapped onto [-1, 1].
    """

    breaks: np.ndarray
    coefs: tuple

    def __call__(self, x, rows=slice(None)):
        """Values at x clamped to the breaks: (rows,) + x.shape, or x.shape for one row."""
        x = np.asarray(x, dtype=np.float64)
        flat = np.clip(x.ravel(), self.breaks[0], self.breaks[-1])
        if len(self.coefs) == 1:
            piece, used = None, [0]
        else:
            piece = np.searchsorted(self.breaks[1:-1], flat, side="right")
            used = np.unique(piece)
        out = None
        for i in used:
            lo, hi = self.breaks[i], self.breaks[i + 1]
            sel = slice(None) if piece is None else piece == i
            xs = flat[sel]
            v = _clenshaw(self.coefs[i][:, rows], ((xs - lo) - (hi - xs)) / (hi - lo))
            if out is None:
                out = np.empty(v.shape[:-1] + flat.shape)
            out[..., sel] = v
        return out.reshape(out.shape[:-1] + x.shape)

    def integral(self) -> "_Cheb":
        """Antiderivative of every row, 0 at the left end."""
        coefs, total = [], 0.0
        for lo, hi, c in zip(self.breaks[:-1], self.breaks[1:], self.coefs):
            # With c_j = 0 beyond the degree, the antiderivative in u has
            # F_1 = c_0 - c_2/2 and F_k = (c_{k-1} - c_{k+1})/(2k) for k >= 2.
            n = c.shape[0]
            cp = np.concatenate([c, np.zeros((2,) + c.shape[1:])])
            f = np.empty((n + 1,) + c.shape[1:])
            f[1] = cp[0] - 0.5 * cp[2]
            f[2:] = (cp[1:n] - cp[3:]) / (2.0 * np.arange(2, n + 1))[:, None]
            f *= 0.5 * (hi - lo)
            # T_k(-1) = (-1)^k: F_0 makes the left end take the running total.
            f[0] = total + np.sum(f[1::2], axis=0) - np.sum(f[2::2], axis=0)
            total = np.sum(f, axis=0)
            coefs.append(f)
        return _Cheb(self.breaks, tuple(coefs))


def _cheb_fit(sample: Callable, breaks, what: str, integrated: bool = False) -> _Cheb:
    """Adaptive piecewise Chebyshev interpolant of `sample` on [breaks[0], breaks[-1]].

    sample(x) returns a (rows, x.size) array.  Each piece, starting from
    the given breaks, is sampled at degree _CHEB_DEGREE; it keeps the
    degree its coefficients decay to, or is bisected where they have not
    decayed: at a kink, a jump or a singularity just outside the piece.
    With integrated=True the tolerance of a piece grows as it narrows (see
    _CHEB_TOL), which stops the bisection toward a kink earlier.  A
    non-finite sample raises NumericFailureError naming `what`.
    """
    u, m = _cheb_basis(_CHEB_DEGREE)
    breaks = np.asarray(breaks, dtype=np.float64)
    width = breaks[-1] - breaks[0]
    todo = list(zip(breaks[-2::-1], breaks[:0:-1]))
    scale = 0.0
    out_breaks, coefs = [breaks[0]], []
    while todo:
        lo, hi = todo.pop()
        x = 0.5 * (1.0 - u) * lo + 0.5 * (1.0 + u) * hi
        v = sample(x)
        if not np.all(np.isfinite(v)):
            bad = float(x[np.argmax(~np.all(np.isfinite(v), axis=0))])
            raise NumericFailureError(f"{what} is not finite at {bad:.17g}")
        c = m @ v.T
        scale = np.maximum(scale, np.max(np.abs(v), axis=1))
        tol = _CHEB_TOL * scale * (width / (hi - lo) if integrated else 1.0)
        if np.any(np.abs(c[-8:]) > tol):
            if hi - lo > _CHEB_MIN_WIDTH * width:
                mid = 0.5 * (lo + hi)
                todo += [(mid, hi), (lo, mid)]
                if len(coefs) + len(todo) > _CHEB_MAX_PIECES:
                    raise NumericFailureError(
                        f"{what} needs more than {_CHEB_MAX_PIECES} Chebyshev pieces"
                    )
                continue
        keep = np.flatnonzero(np.any(np.abs(c) > _CHEB_CHOP * scale, axis=1))
        coefs.append(c[: keep[-1] + 1] if keep.size else c[:1])
        out_breaks.append(hi)
    return _Cheb(np.array(out_breaks), tuple(coefs))


def _rate_integral(rate: Callable[[float], float] | float, T: float) -> Callable:
    """R(t) = integral of the rate over [0, t], elementwise on arrays."""
    if not callable(rate):
        r_const = float(rate)
        return lambda t: r_const * t
    samples = _cheb_fit(lambda t: evaluate(rate, t)[None], [0.0, T], "the rate", integrated=True)
    big_r = samples.integral()
    return lambda t: big_r(t, 0)


# ---------------------------------------------------------------------------
# Family reductions


def _ou_reduced(family: str, spec: DiffusionSpec, k: float, al: float, s2: float, x0: float,
                a: GeneralBoundary | None, b: GeneralBoundary | None, T: float) -> ReducedProblem:
    """The closed-form reduction of dX = k*(al - X) dt + sqrt(s2) dW from x0, as `family`."""
    S = s2 * _expm1(2.0 * k * T) / (2.0 * k)

    def t_of_s(s):
        return np.log1p(2.0 * k * s / s2) / (2.0 * k)

    def space(s, gb):
        return al - x0 + (gb(t_of_s(s)) - al) * np.sqrt(1.0 + 2.0 * k * s / s2)

    return _reduced(family, spec, a, b, T, S, t_of_s, space)


def reduce_ou(spec: OUSpec, a: GeneralBoundary | None, b: GeneralBoundary | None,
              T: float) -> ReducedProblem:
    """Constant-coefficient mean-reverting reduction (closed forms)."""
    return _ou_reduced("ou", spec, spec.kappa, spec.alpha, spec.sigma**2, spec.x0, a, b, T)


def reduce_ou_td(
    spec: TimeVaryingOUSpec,
    a: GeneralBoundary | None,
    b: GeneralBoundary | None,
    T: float,
) -> ReducedProblem:
    """Time-dependent mean-reverting reduction, on Chebyshev interpolants.

    With K = integral of kappa, the time change is S(t) = integral of
    sigma^2 exp(2K), and the centering function gamma, which solves
    gamma' = kappa*(alpha - gamma) with gamma(0) = alpha(0), satisfies
    gamma*exp(K) = alpha(0) + integral of kappa*alpha*exp(K); so the
    reduction is three integrals and no ODE.  kappa, sigma and alpha are
    sampled once, as array calls, at the Chebyshev points of an adaptive
    piecewise interpolant on [0, T] (`_cheb_fit`), and every sample is
    checked: kappa and sigma must be finite and positive, alpha finite.
    K, then S and gamma*exp(K), are integrated exactly as piecewise
    Chebyshev series.  At the Chebyshev points in s the inverse t(s) comes
    from a piecewise-linear guess and safeguarded Newton steps with
    S' = sigma^2 exp(2K), and the same routine interpolates t(s),
    exp(K(t(s))) and gamma*exp(K) at t(s) in s, so a boundary value costs
    three Clenshaw sums.  Every piece is resolved to trailing coefficients
    of at most 2^-50 of the function's scale; against a DOP853 solution at
    rtol 1e-13 the horizon, time map and boundary agree within 1e-12 for
    smooth coefficients and within 1e-10 for a kinked kappa.
    """
    check_horizon(T)
    x0 = spec.x0
    alpha0 = evaluate(spec.alpha, 0.0)

    def coefficients(t):
        v = np.stack([evaluate(f, t) for f in (spec.kappa, spec.sigma, spec.alpha)])
        for name, row, positive in (("kappa", v[0], True), ("sigma", v[1], True),
                                    ("alpha", v[2], False)):
            bad = ~np.isfinite(row) | (positive & (row <= 0.0))
            if bad.any():
                i = np.argmax(bad)
                need = "finite and positive" if positive else "finite"
                raise NumericFailureError(
                    f"{name} must be {need} on [0, T]: {name}({t[i]:.17g}) = {row[i]:g}"
                )
        return v

    coef = _cheb_fit(coefficients, [0.0, T], "a coefficient", integrated=True)
    big_k = coef.integral()

    def integrands(t):
        kappa, sigma, alpha = coef(t)
        with np.errstate(over="ignore", invalid="ignore"):  # _cheb_fit names a non-finite value
            ek = np.exp(big_k(t, 0))
            return np.stack([sigma * sigma * ek * ek, kappa * alpha * ek])

    ds = _cheb_fit(integrands, coef.breaks, "the time change", integrated=True)
    s_and_i = ds.integral()
    S = float(s_and_i(T, 0))
    t_tab = np.linspace(0.0, T, 257)
    s_tab = s_and_i(t_tab, 0)

    def inverse(s):
        """t with S(t) = s: a piecewise-linear guess, then Newton steps kept in a bracket."""
        j = np.clip(np.searchsorted(s_tab, s, side="right"), 1, t_tab.size - 1)
        lo, hi = t_tab[j - 1], t_tab[j]
        t = lo + (hi - lo) * (s - s_tab[j - 1]) / (s_tab[j] - s_tab[j - 1])
        for _ in range(64):
            f = s_and_i(t, 0) - s
            lo = np.where(f < 0.0, t, lo)
            hi = np.where(f > 0.0, t, hi)
            new = t - f / ds(t, 0)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            step = np.max(np.abs(new - t))
            t = new
            if step <= 4.0 * np.finfo(float).eps * T:
                break
        return t

    def in_s(s):
        t = inverse(s)
        return np.stack([t, np.exp(big_k(t, 0)), alpha0 + s_and_i(t, 1)])

    # The pieces in s start at the images of those in t, so a kink in a
    # coefficient already sits at a break.
    s_breaks = s_and_i(coef.breaks, 0)
    s_breaks[0], s_breaks[-1] = 0.0, S

    @cache
    def state():  # fitted on first use, after _reduced has checked S
        return _cheb_fit(in_s, s_breaks, "the inverse time change")

    def t_of_s(s):
        return np.clip(state()(s, 0), 0.0, T)

    def space(s, gb):
        t, ek, gamma_ek = state()(s)
        return alpha0 - x0 + gb(np.clip(t, 0.0, T)) * ek - gamma_ek

    return _reduced("ou_td", spec, a, b, T, S, t_of_s, space)


def _growth_ou(spec: GrowthSpec) -> tuple:
    """(kappa, alpha, sigma, x0) of the mean-reverting process log(X/x0)/sigma of
    growth: kappa = beta, alpha = ((alpha - sigma^2/2)/beta - log x0)/sigma,
    sigma = sigma^2 = 1 and x0 = 0.  NumericFailureError if that alpha, the
    log mean, overflows."""
    al, be, sg = spec.alpha, spec.beta, spec.sigma
    mean = ((al - 0.5 * sg**2) / be - math.log(spec.x0)) / sg
    if not math.isfinite(mean):
        raise NumericFailureError(
            f"the log mean ((alpha - sigma^2/2)/beta - log x0)/sigma = {mean:g} is not finite")
    return be, mean, 1.0, 0.0


def reduce_growth(spec: GrowthSpec, a: GeneralBoundary | None, b: GeneralBoundary | None,
                  T: float) -> ReducedProblem:
    """Gompertz growth: the closed-form mean-reverting reduction (`reduce_ou`) of
    log(X/x0)/sigma (`_growth_ou`), on the sides log(v/x0)/sigma.  The horizon is
    expm1(2 beta T)/(2 beta); a zero lower boundary maps to -inf."""
    a, b = _log_sides(a, b, T, spec.x0, spec.sigma)
    return _ou_reduced("growth", spec, *_growth_ou(spec), a, b, T)


def reduce_gbm(spec: GBMSpec, a: GeneralBoundary | None, b: GeneralBoundary | None,
               T: float) -> ReducedProblem:
    """Geometric BM: with y = log(X/x0) and R the integrated rate,
    (y + sigma^2 t/2 - R(t))/sigma is Brownian motion on the identity time map.
    The sides are log(v/x0); a zero lower boundary maps to -inf."""
    a, b = _log_sides(a, b, T, spec.x0)
    big_r, sg = _rate_integral(spec.rate, T), spec.sigma
    return _reduced("gbm", spec, a, b, T, T, _identity,
                    lambda t, y: (y(t) + 0.5 * sg * sg * t - big_r(t)) / sg)


def reduce(
    spec: DiffusionSpec | None, a: GeneralBoundary | None, b: GeneralBoundary | None, T: float
) -> ReducedProblem:
    """Dispatch on the process family.  spec=None is Brownian motion, family
    "bm": a and b as given, on the identity time map.

    A T that is not positive and finite raises ValueError naming T, and a
    time change S(T) that is not (it overflowed or vanished)
    NumericFailureError.  Every family then checks its reduced band once,
    in `_reduced`: a lower side that meets the upper one raises
    InvalidBoundariesError, and a start outside the band raises its
    subclass StartOutsideBandError, naming the reduced band at s = 0.
    """
    if spec is None:
        return _reduced("bm", None, a, b, T, T, _identity, None)
    if isinstance(spec, OUSpec):
        return reduce_ou(spec, a, b, T)
    if isinstance(spec, TimeVaryingOUSpec):
        return reduce_ou_td(spec, a, b, T)
    if isinstance(spec, GrowthSpec):
        return reduce_growth(spec, a, b, T)
    if isinstance(spec, GBMSpec):
        return reduce_gbm(spec, a, b, T)
    raise ValueError(f"unsupported process spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Closed-form catalog
#
# Each case is a barrier that its family's reduction maps onto a straight
# line c + d*s on [0, S] for Brownian motion, where the linear-boundary
# formula applies.  An entry takes the case's parameters and returns the
# original problem (spec, lower, upper, T) and that line (c, d, S).  The
# line is written from the parameters, not obtained through `reduce`, so a
# simulation of the reduced problem checks it.


def _ou_exp(sign: float) -> Callable:
    """alpha + h*exp(sign*kappa*t).  As exp(kappa*t) = sqrt(1 + 2*kappa*s/sigma^2),
    it reduces to h + alpha - x0, plus 2*kappa*h*s/sigma^2 for sign > 0."""

    def entry(kappa, alpha, sigma, x0, h, T):
        spec = OUSpec(x0=x0, kappa=kappa, alpha=alpha, sigma=sigma)
        upper = GeneralBoundary(lambda t: alpha + h * np.exp(sign * kappa * t), "upper", T)
        S = sigma**2 * _expm1(2.0 * kappa * T) / (2.0 * kappa)
        # sigma^2 underflows to 0 only where S(T) does, which _catalog_entry rejects.
        d = 2.0 * kappa * h / sigma**2 if sign > 0 and sigma**2 > 0 else 0.0
        return (spec, None, upper, T), (h + alpha - x0, d, S)

    return entry


def _growth_exp(sign: float) -> Callable:
    """exp(h*exp(sign*beta*t) - shift) with shift = (sigma^2 - 2*alpha)/(2*beta): its
    log map is the `_ou_exp` barrier at h/sigma of log(X/x0)/sigma (`_growth_ou`)."""

    def entry(alpha, beta, sigma, x0, h, T):
        spec = GrowthSpec(x0=x0, alpha=alpha, beta=beta, sigma=sigma)
        shift = (sigma**2 - 2.0 * alpha) / (2.0 * beta)
        upper = GeneralBoundary(lambda t: np.exp(h * np.exp(sign * beta * t) - shift),
                                "upper", T)
        return (spec, None, upper, T), _ou_exp(sign)(*_growth_ou(spec), h / sigma, T)[1]

    return entry


def _gbm_exp_drift_case(sigma, x0, p, q, T, rate=0.0):
    """exp(p*t + q + R(t)), R the integrated rate: (q - log x0)/sigma +
    (p + sigma^2/2)*s/sigma on [0, T], whatever the rate."""
    spec = GBMSpec(x0=x0, sigma=sigma, rate=rate)
    big_r = _rate_integral(rate, T)
    upper = GeneralBoundary(lambda t: np.exp(p * t + q + big_r(t)), "upper", T)
    return (spec, None, upper, T), ((q - math.log(x0)) / sigma, (p + 0.5 * sigma**2) / sigma, T)


def _gbm_const_case(sigma, r, x0, h, T):
    """The barrier h at the rate r: log(h/x0)/sigma + (sigma^2/2 - r)*s/sigma on [0, T]."""
    spec = GBMSpec(x0=x0, sigma=sigma, rate=r)
    upper = GeneralBoundary.constant(h, "upper", T)
    return (spec, None, upper, T), (math.log(h / x0) / sigma, (0.5 * sigma**2 - r) / sigma, T)


def _bm_linear_case(intercept, slope, T):
    """Brownian motion below intercept + slope*t: the line itself."""
    upper = GeneralBoundary(lambda t: intercept + slope * t, "upper", T)
    return (None, None, upper, T), (intercept, slope, T)


_CATALOG = {
    "ou_exp_up": _ou_exp(1.0),
    "ou_exp_down": _ou_exp(-1.0),
    "growth_exp_up": _growth_exp(1.0),
    "growth_exp_down": _growth_exp(-1.0),
    "gbm_exp_drift": _gbm_exp_drift_case,
    "gbm_const_rate_const_barrier": _gbm_const_case,
    "bm_linear": _bm_linear_case,
}


def _catalog_entry(case: str, params: dict) -> tuple[tuple, tuple]:
    """(problem, line) of a case; TypeError for a missing or unknown parameter,
    and ValueError naming a NaN one (an infinite one may be a limit).  T and
    the time change S(T) are checked as in `reduce`."""
    try:
        entry = _CATALOG[case]
    except KeyError:
        raise ValueError(f"unknown catalog case {case!r}; known: {sorted(_CATALOG)}") from None
    for name, v in params.items():
        if isinstance(v, float) and math.isnan(v):
            raise ValueError(f"{name} must not be NaN")
    problem, line = entry(**params)
    check_horizon(problem[3])
    _check_time_change(line[2])
    return problem, line


def closed_form_bcp(case: str, **params) -> float:
    """Exact probability that a catalog case stays below its barrier on [0, T]:
    `bcp_linear_one_sided` at the reduced line, or 0.0 when the start is on
    or above the barrier (c <= 0)."""
    _, (c, d, S) = _catalog_entry(case, params)
    return 0.0 if c <= 0 else bcp_linear_one_sided(c, d, S)


def catalog_problem(case: str, **params):
    """Original-process formulation (spec, lower, upper, T) of a catalog case,
    for `reduce`; spec is None for Brownian motion."""
    return _catalog_entry(case, params)[0]


# ---------------------------------------------------------------------------
# Reducibility checker


#: Grid points per axis of the reducibility check, its finite-difference
#: step in t and in x, and its bound on the worst scaled residual.
_REDUCIBILITY_GRID = 9
_REDUCIBILITY_STEP = 1e-3
_REDUCIBILITY_TOL = 1e-4


@dataclass(frozen=True)
class ReducibilityReport:
    max_residual: float
    max_scaled_residual: float
    reducible: bool


def check_reducibility(
    mu: Callable[[float, float], float],
    sigma: Callable[[float, float], float],
    t_range: tuple[float, float],
    x_range: tuple[float, float],
) -> ReducibilityReport:
    """Finite-difference test of the reduction condition on a grid.

    The condition is that d/dx of F vanishes identically, where
    F = (1/sigma) dsigma/dt + sigma * d/dx (0.5 dsigma/dx - mu/sigma).
    mu and sigma are evaluated on whole grids.  The verdict compares the
    worst residual, scaled by 1 + |F|, to _REDUCIBILITY_TOL; NaN fails it.
    """
    t, x = np.meshgrid(np.linspace(*t_range, _REDUCIBILITY_GRID),
                       np.linspace(*x_range, _REDUCIBILITY_GRID), indexing="ij")
    bad = evaluate(sigma, t, x) <= 0
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise InvalidDomainError(f"sigma(t={t[i]}, x={x[i]}) is not positive")
    h = _REDUCIBILITY_STEP

    def cap_g(t, x):
        sx = (evaluate(sigma, t, x + h) - evaluate(sigma, t, x - h)) / (2.0 * h)
        return 0.5 * sx - evaluate(mu, t, x) / evaluate(sigma, t, x)

    def cap_f(t, x):
        st = (evaluate(sigma, t + h, x) - evaluate(sigma, t - h, x)) / (2.0 * h)
        gx = (cap_g(t, x + h) - cap_g(t, x - h)) / (2.0 * h)
        return st / evaluate(sigma, t, x) + evaluate(sigma, t, x) * gx

    res = np.abs(cap_f(t, x + h) - cap_f(t, x - h)) / (2.0 * h)
    worst_scaled = float(np.max(res / (1.0 + np.abs(cap_f(t, x)))))
    return ReducibilityReport(max_residual=float(np.max(res)), max_scaled_residual=worst_scaled,
                              reducible=worst_scaled < _REDUCIBILITY_TOL)
