"""Reductions of diffusions to Brownian motion, plus closed-form results.

Each `reduce_*` maps a crossing problem for the original process onto an
equivalent problem for a standard Brownian motion started at 0: the
boundaries are transformed through the process-specific space map and
the clock is rescaled by the deterministic time change, whose inverse is
exposed as `time_map` on the result.  A numeric checker for the
reducibility condition (a PDE in the drift and diffusion coefficient)
is included for processes outside the built-in families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ndtr

from .boundary import GeneralBoundary
from .errors import InvalidBoundariesError, InvalidDomainError, NumericFailureError
from .kernels import bcp_linear_one_sided


# ---------------------------------------------------------------------------
# Process specifications


@dataclass(frozen=True)
class OUSpec:
    """Mean-reverting process dX = kappa*(alpha - X) dt + sigma dW."""

    x0: float
    kappa: float
    alpha: float
    sigma: float

    def __post_init__(self):
        if not self.kappa > 0 or not self.sigma > 0:
            raise ValueError("kappa and sigma must be positive")


@dataclass(frozen=True)
class TimeVaryingOUSpec:
    """Mean-reverting process with time-dependent coefficient functions."""

    x0: float
    kappa: Callable[[float], float]
    alpha: Callable[[float], float]
    sigma: Callable[[float], float]


@dataclass(frozen=True)
class GrowthSpec:
    """Gompertz-type process dX = (alpha*X - beta*X*log X) dt + sigma*X dW."""

    x0: float
    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.sigma > 0):
            raise ValueError("alpha, beta and sigma must be positive")
        if not self.x0 > 0:
            raise ValueError("growth process needs x0 > 0")


@dataclass(frozen=True)
class GBMSpec:
    """Geometric Brownian motion dX = r(t) X dt + sigma X dW."""

    x0: float
    sigma: float
    rate: Callable[[float], float] | float = 0.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.x0 > 0:
            raise ValueError("geometric BM needs x0 > 0")


DiffusionSpec = OUSpec | TimeVaryingOUSpec | GrowthSpec | GBMSpec


@dataclass(frozen=True)
class ReducedProblem:
    """Brownian-motion formulation of a diffusion crossing problem."""

    lower: GeneralBoundary
    upper: GeneralBoundary
    horizon: float
    time_map: Callable  # s -> original time t, elementwise on arrays
    provenance: dict

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("transformed horizon must be positive")


# ---------------------------------------------------------------------------
# Shared helpers


def _validate_band_inputs(
    a: GeneralBoundary | None,
    b: GeneralBoundary | None,
    T: float,
    x0: float,
    positive: bool = False,
    probes: int = 65,
) -> GeneralBoundary | None:
    """Check the band on `probes` points of [0, T]; return the lower boundary to use.

    With positive=True (a positive process, log-mapped later) a lower
    boundary that is 0 at every probe maps to -inf and leaves the band
    one-sided, so None is returned.  One that is 0 at some probes but not
    all would map to -inf at isolated times, which no envelope can follow.
    """
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    ts = np.linspace(0.0, T, probes)
    if a is not None and not a.finite:
        a = None
    av = np.full(probes, -math.inf) if a is None else a(ts)
    bv = b(ts) if (b is not None and b.finite) else np.full(probes, math.inf)
    if positive:
        if np.any(bv[np.isfinite(bv)] <= 0):
            raise InvalidBoundariesError("upper boundary must be positive")
        if np.any(av[np.isfinite(av)] < 0):
            raise InvalidBoundariesError("lower boundary cannot be negative")
        zero = av == 0.0
        if zero.all():
            a = None
        elif zero.any():
            raise InvalidBoundariesError(
                "lower boundary must be identically 0 or positive on [0, T]"
            )
    if np.any(av[1:] >= bv[1:]):
        raise InvalidBoundariesError("boundaries must satisfy a(t) < b(t) on (0, T]")
    if not (av[0] < x0 < bv[0]):
        raise InvalidBoundariesError(f"start point {x0} not inside (a(0), b(0))")
    return a


def _transformed(
    gb: GeneralBoundary | None,
    side: str,
    S: float,
    mapper: Callable,
) -> GeneralBoundary:
    """Wrap `mapper` (s -> transformed boundary value) as a GeneralBoundary."""
    if gb is None or not gb.finite:
        return GeneralBoundary.infinite(side, S)
    return GeneralBoundary(mapper, side, S, finite=True)


def _dense_values(sol, t):
    """Dense output of an OdeSolution at t of any shape: (dims,) + shape."""
    t = np.asarray(t, dtype=np.float64)
    return sol.sol(t.ravel()).reshape((-1,) + t.shape)


def _rate_integral(rate: Callable[[float], float] | float, T: float) -> Callable:
    """R(t) = integral of the rate over [0, t], elementwise on arrays."""
    if not callable(rate):
        r_const = float(rate)
        return lambda t: r_const * t
    sol = solve_ivp(lambda t, y: [float(rate(t))], (0.0, T), [0.0], method="DOP853",
                    dense_output=True, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise NumericFailureError(f"integration of the rate integral failed: {sol.message}")
    return lambda t: _dense_values(sol, t)[0]


# ---------------------------------------------------------------------------
# Family reductions


def reduce_ou(
    spec: OUSpec, a: GeneralBoundary | None, b: GeneralBoundary | None, T: float
) -> ReducedProblem:
    """Constant-coefficient mean-reverting reduction (closed forms)."""
    _validate_band_inputs(a, b, T, spec.x0)
    k, al, s2, x0 = spec.kappa, spec.alpha, spec.sigma**2, spec.x0
    S = s2 * math.expm1(2.0 * k * T) / (2.0 * k)

    def t_of_s(s):
        return np.log1p(2.0 * k * s / s2) / (2.0 * k)

    def mapper(gb):
        def value(s):
            return al - x0 + (gb(t_of_s(s)) - al) * np.sqrt(1.0 + 2.0 * k * s / s2)

        return value

    return ReducedProblem(
        lower=_transformed(a, "lower", S, mapper(a)),
        upper=_transformed(b, "upper", S, mapper(b)),
        horizon=S,
        time_map=t_of_s,
        provenance={"family": "ou", "spec": spec, "T": T},
    )


def reduce_ou_td(
    spec: TimeVaryingOUSpec,
    a: GeneralBoundary | None,
    b: GeneralBoundary | None,
    T: float,
) -> ReducedProblem:
    """Time-dependent mean-reverting reduction; integrals done numerically.

    With K = integral of kappa, the time change is s(t) = integral of
    exp(2K) sigma^2.  Integrating (t, K, gamma) in s instead, with
    dt/ds = exp(-2K)/sigma(t)^2 up to the event t = T, gives the horizon
    S and the inverse time change t(s) as dense output, so no root
    finding is needed.  The centering function gamma solves
    gamma' = kappa*(alpha - gamma), gamma(0) = alpha(0), which removes
    the drift of the transformed process for arbitrary kappa.
    """
    _validate_band_inputs(a, b, T, spec.x0)
    kappa, alpha, sigma = spec.kappa, spec.alpha, spec.sigma
    x0 = spec.x0
    alpha0 = float(alpha(0.0))

    def rhs(s, y):
        t, big_k, gamma = y
        t = min(t, T)  # the step that crosses the event may probe past T
        kt = float(kappa(t))
        st = float(sigma(t))
        if kt <= 0 or st <= 0:
            raise NumericFailureError("kappa and sigma must stay positive on [0, T]")
        dt = math.exp(-2.0 * big_k) / (st * st)
        return [dt, kt * dt, kt * (float(alpha(t)) - gamma) * dt]

    def reached_horizon(s, y):
        return y[0] - T

    reached_horizon.terminal = True
    sol = solve_ivp(rhs, (0.0, np.inf), [0.0, 0.0, alpha0], method="DOP853",
                    events=reached_horizon, dense_output=True, rtol=1e-13, atol=1e-15)
    if sol.status != 1 or sol.t_events[0].size == 0:
        raise NumericFailureError(f"integration of the time change failed: {sol.message}")
    S = float(sol.t_events[0][0])

    def state(s):
        """(t, K, gamma) at s, with s clamped to [0, S] and t to [0, T]."""
        y = _dense_values(sol, np.clip(s, 0.0, S))
        return np.clip(y[0], 0.0, T), y[1], y[2]

    def t_of_s(s):
        return state(s)[0]

    def mapper(gb):
        def value(s):
            t, big_k, gamma = state(s)
            return alpha0 - x0 + (gb(t) - gamma) * np.exp(big_k)

        return value

    return ReducedProblem(
        lower=_transformed(a, "lower", S, mapper(a)),
        upper=_transformed(b, "upper", S, mapper(b)),
        horizon=S,
        time_map=t_of_s,
        provenance={"family": "ou_td", "spec": spec, "T": T},
    )


def reduce_growth(
    spec: GrowthSpec, a: GeneralBoundary | None, b: GeneralBoundary | None, T: float
) -> ReducedProblem:
    """Gompertz-growth reduction; a zero lower boundary maps to -inf."""
    a = _validate_band_inputs(a, b, T, spec.x0, positive=True)
    al, be, sg, x0 = spec.alpha, spec.beta, spec.sigma, spec.x0
    shift = (sg * sg - 2.0 * al) / (2.0 * be)
    base = (math.log(x0) + shift) / sg
    S = math.expm1(2.0 * be * T) / (2.0 * be)

    def t_of_s(s):
        return np.log1p(2.0 * be * s) / (2.0 * be)

    def mapper(gb):
        def value(s):
            v = gb(t_of_s(s))
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.sqrt(1.0 + 2.0 * be * s) * (np.log(v) + shift) / sg - base
            return np.where(v <= 0.0, -math.inf, u)

        return value

    return ReducedProblem(
        lower=_transformed(a, "lower", S, mapper(a)),
        upper=_transformed(b, "upper", S, mapper(b)),
        horizon=S,
        time_map=t_of_s,
        provenance={"family": "growth", "spec": spec, "T": T},
    )


def reduce_gbm(
    spec: GBMSpec, a: GeneralBoundary | None, b: GeneralBoundary | None, T: float
) -> ReducedProblem:
    """Geometric-BM reduction; identity time change; a zero lower boundary maps to -inf."""
    a = _validate_band_inputs(a, b, T, spec.x0, positive=True)
    sg, x0 = spec.sigma, spec.x0
    big_r = _rate_integral(spec.rate, T)

    def mapper(gb):
        def value(t):
            v = gb(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                u = (np.log(v / x0) + 0.5 * sg * sg * t - big_r(t)) / sg
            return np.where(v <= 0.0, -math.inf, u)

        return value

    return ReducedProblem(
        lower=_transformed(a, "lower", T, mapper(a)),
        upper=_transformed(b, "upper", T, mapper(b)),
        horizon=T,
        time_map=lambda s: s,
        provenance={"family": "gbm", "spec": spec, "T": T},
    )


def reduce(
    spec: DiffusionSpec, a: GeneralBoundary | None, b: GeneralBoundary | None, T: float
) -> ReducedProblem:
    """Dispatch on the process family."""
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


def _clip01(p: float) -> float:
    return float(min(1.0, max(0.0, p)))


def _ou_exp_up(kappa, alpha, sigma, x0, h, T):
    e2 = math.exp(2.0 * kappa * T)
    den = sigma * math.sqrt((e2 - 1.0) / (2.0 * kappa))
    p = ndtr((h * e2 + alpha - x0) / den)
    q = math.exp(-4.0 * h * kappa * (h + alpha - x0) / sigma**2) * ndtr(
        (h * e2 - alpha + x0 - 2.0 * h) / den
    )
    return _clip01(p - q)


def _ou_exp_down(kappa, alpha, sigma, x0, h, T):
    den = sigma * math.sqrt(math.expm1(2.0 * kappa * T) / (2.0 * kappa))
    return _clip01(2.0 * ndtr((alpha - x0 + h) / den) - 1.0)


def _growth_exp_up(alpha, beta, sigma, x0, h, T):
    e2 = math.exp(2.0 * beta * T)
    lx = math.log(x0)
    den = sigma * math.sqrt(2.0 * beta * (e2 - 1.0))
    p = ndtr((2.0 * beta * (h * e2 - lx) - sigma**2 + 2.0 * alpha) / den)
    q = math.exp(
        (4.0 * h * beta * (lx - h) + 2.0 * h * (sigma**2 - 2.0 * alpha)) / sigma**2
    ) * ndtr((2.0 * beta * (h * e2 - 2.0 * h + lx) + sigma**2 - 2.0 * alpha) / den)
    return _clip01(p - q)


def _growth_exp_down(alpha, beta, sigma, x0, h, T):
    den = sigma * math.sqrt(2.0 * beta * math.expm1(2.0 * beta * T))
    z = (2.0 * beta * (h - math.log(x0)) - sigma**2 + 2.0 * alpha) / den
    return _clip01(2.0 * ndtr(z) - 1.0)


def _gbm_exp_drift(sigma, x0, p, q, T):
    lx = math.log(x0)
    den = sigma * math.sqrt(T)
    drift = (p + 0.5 * sigma**2) * T
    up = ndtr((drift + q - lx) / den)
    down = math.exp((2.0 * p + sigma**2) * (lx - q) / sigma**2) * ndtr(
        (drift - q + lx) / den
    )
    return _clip01(up - down)


def _gbm_const_rate_const_barrier(sigma, r, x0, h, T):
    lh = math.log(h / x0)
    den = sigma * math.sqrt(T)
    drift = (0.5 * sigma**2 - r) * T
    up = ndtr((drift + lh) / den)
    down = math.exp((2.0 * r - sigma**2) * lh / sigma**2) * ndtr((drift - lh) / den)
    return _clip01(up - down)


_CATALOG = {
    "ou_exp_up": _ou_exp_up,
    "ou_exp_down": _ou_exp_down,
    "growth_exp_up": _growth_exp_up,
    "growth_exp_down": _growth_exp_down,
    "gbm_exp_drift": _gbm_exp_drift,
    "gbm_const_rate_const_barrier": _gbm_const_rate_const_barrier,
    "bm_linear": lambda intercept, slope, T: bcp_linear_one_sided(intercept, slope, T),
}


def closed_form_bcp(case: str, **params) -> float:
    """Exact one-sided crossing-free probability for a catalog case."""
    try:
        fn = _CATALOG[case]
    except KeyError:
        raise ValueError(
            f"unknown catalog case {case!r}; known: {sorted(_CATALOG)}"
        ) from None
    return float(fn(**params))


def catalog_problem(case: str, **params):
    """Original-process formulation of a catalog case.

    Returns (spec, lower, upper, T) suitable for `reduce`, or
    (None, None, upper, T) for the plain Brownian-motion case; useful
    for cross-validating the closed forms by simulation.
    """
    if case == "ou_exp_up" or case == "ou_exp_down":
        k, al, sg, x0, h, T = (
            params["kappa"],
            params["alpha"],
            params["sigma"],
            params["x0"],
            params["h"],
            params["T"],
        )
        sign = 1.0 if case == "ou_exp_up" else -1.0
        spec = OUSpec(x0=x0, kappa=k, alpha=al, sigma=sg)
        b = GeneralBoundary(lambda t: al + h * math.exp(sign * k * t), "upper", T)
        return spec, None, b, T
    if case == "growth_exp_up" or case == "growth_exp_down":
        al, be, sg, x0, h, T = (
            params["alpha"],
            params["beta"],
            params["sigma"],
            params["x0"],
            params["h"],
            params["T"],
        )
        sign = 1.0 if case == "growth_exp_up" else -1.0
        shift = (sg * sg - 2.0 * al) / (2.0 * be)
        spec = GrowthSpec(x0=x0, alpha=al, beta=be, sigma=sg)
        b = GeneralBoundary(
            lambda t: math.exp(h * math.exp(sign * be * t) - shift), "upper", T
        )
        return spec, None, b, T
    if case == "gbm_exp_drift":
        sg, x0, p, q, T = (
            params["sigma"],
            params["x0"],
            params["p"],
            params["q"],
            params["T"],
        )
        spec = GBMSpec(x0=x0, sigma=sg, rate=params.get("rate", 0.0))
        big_r = _rate_integral(spec.rate, T)
        b = GeneralBoundary(lambda t: np.exp(p * t + q + big_r(t)), "upper", T)
        return spec, None, b, T
    if case == "gbm_const_rate_const_barrier":
        sg, r, x0, h, T = (
            params["sigma"],
            params["r"],
            params["x0"],
            params["h"],
            params["T"],
        )
        spec = GBMSpec(x0=x0, sigma=sg, rate=float(r))
        b = GeneralBoundary.constant(h, "upper", T)
        return spec, None, b, T
    if case == "bm_linear":
        intercept, slope, T = params["intercept"], params["slope"], params["T"]
        b = GeneralBoundary(lambda t: intercept + slope * t, "upper", T)
        return None, None, b, T
    raise ValueError(f"unknown catalog case {case!r}")


# ---------------------------------------------------------------------------
# Reducibility checker


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
    nt: int = 9,
    nx: int = 9,
    ht: float = 1e-3,
    hx: float = 1e-3,
    tol: float = 1e-4,
) -> ReducibilityReport:
    """Finite-difference test of the reduction condition on a grid.

    The condition is that d/dx of F vanishes identically, where
    F = (1/sigma) dsigma/dt + sigma * d/dx (0.5 dsigma/dx - mu/sigma).
    The verdict compares the worst residual, scaled by 1 + |F|, to tol.
    """
    ts = np.linspace(t_range[0], t_range[1], nt)
    xs = np.linspace(x_range[0], x_range[1], nx)
    for t in ts:
        for x in xs:
            if sigma(float(t), float(x)) <= 0:
                raise InvalidDomainError(f"sigma(t={t}, x={x}) is not positive")

    def cap_g(t, x):
        sx = (sigma(t, x + hx) - sigma(t, x - hx)) / (2.0 * hx)
        return 0.5 * sx - mu(t, x) / sigma(t, x)

    def cap_f(t, x):
        st = (sigma(t + ht, x) - sigma(t - ht, x)) / (2.0 * ht)
        gx = (cap_g(t, x + hx) - cap_g(t, x - hx)) / (2.0 * hx)
        return st / sigma(t, x) + sigma(t, x) * gx

    worst = 0.0
    worst_scaled = 0.0
    for t in ts:
        for x in xs:
            res = (cap_f(t, x + hx) - cap_f(t, x - hx)) / (2.0 * hx)
            scaled = abs(res) / (1.0 + abs(cap_f(t, x)))
            worst = max(worst, abs(res))
            worst_scaled = max(worst_scaled, scaled)
    return ReducibilityReport(
        max_residual=worst, max_scaled_residual=worst_scaled, reducible=worst_scaled < tol
    )
