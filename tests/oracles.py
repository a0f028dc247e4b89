"""Independent oracles used to freeze expected values.

Everything here is deliberately written without touching the library's
production code paths: composite Simpson instead of adaptive quadrature,
the method-of-images barrier series, a scalar form of the two-sided
kernel series, the kernel as whole-array expressions, and a plain
Euler-Maruyama simulator for the original (untransformed) diffusions,
the time-varying mean-reverting reduction as an ODE integrated by DOP853,
the closed-form catalog as one hand-expanded formula per case, the
two-interval kernel and survival probability of a side that jumps, and
the reducibility residuals computed point by point in nested loops.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import log_ndtr
from scipy.stats import norm

from bcp.errors import InvalidBoundariesError


def simpson_fixed(f, a: float, b: float, n: int = 2048) -> float:
    """Composite Simpson rule with n (even) panels."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def reflection_one_sided(c: float, T: float) -> float:
    """P(W_t < c for all t <= T) for a constant boundary, c > 0."""
    return float(2.0 * norm.cdf(c / math.sqrt(T)) - 1.0)


def two_barrier_survival(a: float, b: float, T: float, kmax: int = 50) -> float:
    """Method-of-images series for BM started at 0 inside (a, b)."""
    assert a < 0 < b
    delta = b - a
    x = -a  # distance from the lower barrier
    rt = math.sqrt(T)
    total = 0.0
    for k in range(-kmax, kmax + 1):
        shift = 2.0 * k * delta
        total += (
            norm.cdf((delta - x - shift) / rt)
            - norm.cdf((-x - shift) / rt)
            - norm.cdf((delta + x - shift) / rt)
            + norm.cdf((x - shift) / rt)
        )
    return float(total)


def bridge_abs_max_survival(half_width: float, dt: float, kmax: int = 50) -> float:
    """P(max |bridge| < half_width) for a 0->0 Brownian bridge over dt."""
    total = 0.0
    for k in range(1, kmax + 1):
        total += (-1) ** (k + 1) * math.exp(-2.0 * k * k * half_width**2 / dt)
    return 1.0 - 2.0 * total


def bridge_abs_max_theta(half_width: float, dt: float, kmax: int = 50) -> float:
    """P(max |bridge| < half_width) for a 0->0 bridge over dt, theta form.

    The Jacobi transform of `bridge_abs_max_survival`; its terms decay
    fast when the band is narrow against sqrt(dt), where the reflection
    form needs many terms.
    """
    total = 0.0
    for k in range(1, kmax + 1):
        total += math.exp(-((2 * k - 1) ** 2) * math.pi**2 * dt / (8.0 * half_width**2))
    return math.sqrt(2.0 * math.pi * dt) / half_width * total


def h_terms(i: int, j: int, x_prev: float, x_cur: float, band) -> tuple[float, ...]:
    """The four exponentials of series term j on subinterval i (1-based).

    Term j is t1 - t2 + t3 - t4; at j = 1, t1 and t3 are the single
    reflections off the upper and the lower side.
    """
    n = band.partition.n
    if not 1 <= i <= n:
        raise ValueError(f"interval index {i} out of range 1..{n}")
    if j < 1:
        raise ValueError("series index must be >= 1")
    dt = float(band.partition.dt[i - 1])
    a_prev = float(band.lower.right[i - 1])
    a_cur = float(band.lower.left[i])
    b_prev = float(band.upper.right[i - 1])
    b_cur = float(band.upper.left[i])
    if not all(map(math.isfinite, (a_prev, a_cur, b_prev, b_cur))):
        raise InvalidBoundariesError("h_term needs finite band values on the interval")
    dprev = b_prev - a_prev
    dcur = b_cur - a_cur
    ap = a_prev - x_prev
    ac = a_cur - x_cur
    bp = b_prev - x_prev
    bc = b_cur - x_cur
    return (
        math.exp(-2.0 / dt * (j * dprev + ap) * (j * dcur + ac)),
        math.exp(-2.0 * j / dt * (j * dprev * dcur + dprev * ac - dcur * ap)),
        math.exp(-2.0 / dt * (j * dprev - bp) * (j * dcur - bc)),
        math.exp(-2.0 * j / dt * (j * dprev * dcur - dprev * bc + dcur * bp)),
    )


def h_term(i: int, j: int, x_prev: float, x_cur: float, band) -> float:
    """Two-sided series term j on subinterval i, as a scalar reference."""
    t1, t2, t3, t4 = h_terms(i, j, x_prev, x_cur, band)
    return t1 - t2 + t3 - t4


def series_term_unfused(j, dt, dprev, dcur, ap, ac, bp, bc):
    """Series term j, t1 - t2 + t3 - t4, one whole-array expression per exponential."""
    t1 = np.exp(-2.0 / dt * (j * dprev + ap) * (j * dcur + ac))
    t2 = np.exp(-2.0 * j / dt * (j * dprev * dcur + dprev * ac - dcur * ap))
    t3 = np.exp(-2.0 / dt * (j * dprev - bp) * (j * dcur - bc))
    t4 = np.exp(-2.0 * j / dt * (j * dprev * dcur - dprev * bc + dcur * bp))
    return t1 - t2 + t3 - t4


def inside(band, x) -> np.ndarray:
    """Rows of the (paths, n) matrix x strictly inside both limits of both
    sides at every node t_1..t_n, whichever way a side jumps there."""
    lo, hi = band.lower, band.upper
    return np.all((x > lo.left[1:]) & (x > lo.right[1:])
                  & (x < hi.left[1:]) & (x < hi.right[1:]), axis=1)


def one_sided_kernel_n2(band, x1: float, x2: float) -> float:
    """g at the node values (x1, x2) of a one-sided band on two intervals.

    Each interval runs from the right limit at its left node to the left
    limit at its right node, and contributes its single-reflection factor.
    """
    if not inside(band, np.array([[x1, x2]]))[0]:
        return 0.0
    b = band.lower if band.upper.is_infinite else band.upper
    t1, t2 = band.partition.nodes[1:]
    f1 = 1.0 - math.exp(-2.0 * b.right[0] * (b.left[1] - x1) / t1)
    f2 = 1.0 - math.exp(-2.0 * (b.right[1] - x1) * (b.left[2] - x2) / (t2 - t1))
    return f1 * f2


def step_survival(high: float, low: float, t1: float, T: float) -> float:
    """P(W_t < high for t <= t1 and W_t < low for t1 < t <= T), high, low > 0.

    W_t1 killed at high has the density phi_t1(x) - phi_t1(x - 2 high)
    below high; from x < low it stays below low over T - t1 with
    probability 2 Phi((low - x) / sqrt(T - t1)) - 1.
    """
    s, r = math.sqrt(t1), math.sqrt(T - t1)

    def integrand(x):
        killed = norm.pdf(x, scale=s) - norm.pdf(x - 2.0 * high, scale=s)
        return killed * (2.0 * norm.cdf((low - x) / r) - 1.0)

    val, _ = quad(integrand, -np.inf, min(high, low), epsabs=1e-13, epsrel=1e-12, limit=400)
    return float(val)


def band_kernel_unfused(band, x, terms=None) -> np.ndarray:
    """The kernel g on a (paths, n) matrix, with no blocking and no clamp.

    Every operation makes a full-size temporary, and exponents go to exp
    unclamped.  `terms` holds the per-interval term counts of a two-sided
    band.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = band.lower, band.upper
    dt = band.partition.dt
    ok = inside(band, x)
    xprev = np.concatenate([np.zeros((x.shape[0], 1)), x[:, :-1]], axis=1)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if lo.is_infinite and hi.is_infinite:
            s = np.zeros_like(x)
        elif lo.is_infinite or hi.is_infinite:
            b = hi if lo.is_infinite else lo
            s = np.exp((b.right[:-1] - xprev) * (b.left[1:] - x) * (-2.0 / dt))
        else:
            dprev = hi.right[:-1] - lo.right[:-1]
            dcur = hi.left[1:] - lo.left[1:]
            ap = lo.right[:-1] - xprev
            ac = lo.left[1:] - x
            bp = hi.right[:-1] - xprev
            bc = hi.left[1:] - x
            s = series_term_unfused(1, dt, dprev, dcur, ap, ac, bp, bc)
            for j in range(2, int(terms.max()) + 1):
                c = terms >= j
                s[:, c] += series_term_unfused(
                    j, dt[c], dprev[c], dcur[c], ap[:, c], ac[:, c], bp[:, c], bc[:, c]
                )
        g = np.prod(np.clip(1.0 - s, 0.0, 1.0), axis=1)
    g[~ok] = 0.0
    return g


def quad_one_sided_n1(beta0: float, beta1: float, t1: float) -> float:
    """Gaussian quadrature of the one-sided kernel at a single node."""

    def integrand(x):
        return norm.pdf(x, scale=math.sqrt(t1)) * (
            1.0 - math.exp(-2.0 * beta0 * (beta1 - x) / t1)
        )

    val, _ = quad(integrand, -np.inf, beta1, epsabs=1e-12, epsrel=1e-12, limit=400)
    return float(val)


def quad_of_kernel_n1(kernel, alpha: float, beta: float, t1: float) -> float:
    """Gaussian quadrature of a single-node kernel x -> g([x])."""

    def integrand(x):
        return norm.pdf(x, scale=math.sqrt(t1)) * kernel(x)

    val, _ = quad(integrand, alpha, beta, epsabs=1e-12, epsrel=1e-12, limit=400)
    return float(val)


def euler_maruyama_survival(
    drift,
    diffusion,
    x0: float,
    lower,
    upper,
    T: float,
    steps: int,
    paths: int,
    seed: int,
    chunk: int = 50_000,
):
    """Crossing-free probability of the original SDE on a fine grid.

    `drift` and `diffusion` take (t, X) with X a numpy array; `lower`
    and `upper` map t to a boundary value (None means unbounded).
    Returns (estimate, standard_error).
    """
    dt = T / steps
    sq = math.sqrt(dt)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    lo_vals = np.array([lower(k * dt) if lower else -np.inf for k in range(1, steps + 1)])
    up_vals = np.array([upper(k * dt) if upper else np.inf for k in range(1, steps + 1)])
    survived = 0
    done = 0
    while done < paths:
        count = min(chunk, paths - done)
        x = np.full(count, float(x0))
        alive = np.ones(count, dtype=bool)
        for k in range(steps):
            t = k * dt
            z = rng.standard_normal(count)
            x += drift(t, x) * dt + diffusion(t, x) * (sq * z)
            alive &= (x > lo_vals[k]) & (x < up_vals[k])
        survived += int(alive.sum())
        done += count
    p = survived / paths
    se = math.sqrt(max(p * (1 - p), 1e-12) / paths)
    return p, se


def ou_td_reduction_ode(kappa, alpha, sigma, x0: float, upper, T: float):
    """Time-varying mean-reverting reduction by an ODE integrated in s.

    Integrates (t, K, gamma) in the new time s, with dt/ds = exp(-2K)/sigma^2,
    dK/ds = kappa dt/ds and dgamma/ds = kappa (alpha - gamma) dt/ds, by DOP853
    at rtol 1e-13 up to the event t = T.  The coefficients are scalar
    callables and `upper` maps an array of t to the original upper boundary.
    Returns (S, t_of_s, upper_of_s), the last two elementwise on arrays.
    """
    alpha0 = float(alpha(0.0))

    def rhs(s, y):
        t, big_k, gamma = y
        t = min(t, T)  # the step that crosses the event may probe past T
        kt = float(kappa(t))
        st = float(sigma(t))
        dt = math.exp(-2.0 * big_k) / (st * st)
        return [dt, kt * dt, kt * (float(alpha(t)) - gamma) * dt]

    def reached_horizon(s, y):
        return y[0] - T

    reached_horizon.terminal = True
    sol = solve_ivp(rhs, (0.0, np.inf), [0.0, 0.0, alpha0], method="DOP853",
                    events=reached_horizon, dense_output=True, rtol=1e-13, atol=1e-15)
    assert sol.status == 1, sol.message
    S = float(sol.t_events[0][0])

    def state(s):
        s = np.asarray(s, dtype=np.float64)
        y = sol.sol(np.clip(s, 0.0, S).ravel()).reshape((3,) + s.shape)
        return np.clip(y[0], 0.0, T), y[1], y[2]

    def upper_of_s(s):
        t, big_k, gamma = state(s)
        return alpha0 - x0 + (upper(t) - gamma) * np.exp(big_k)

    return S, lambda s: state(s)[0], upper_of_s


# Hand-expanded closed forms of the catalog cases, with scipy's normal
# distribution function in place of the library's.


def normal_cdf(x: float) -> float:
    return float(norm.cdf(x))


def _clip01(p: float) -> float:
    return float(min(1.0, max(0.0, p)))


def _ou_exp_up(kappa, alpha, sigma, x0, h, T):
    e2 = math.exp(2.0 * kappa * T)
    den = sigma * math.sqrt((e2 - 1.0) / (2.0 * kappa))
    p = normal_cdf((h * e2 + alpha - x0) / den)
    q = math.exp(-4.0 * h * kappa * (h + alpha - x0) / sigma**2) * normal_cdf(
        (h * e2 - alpha + x0 - 2.0 * h) / den
    )
    return _clip01(p - q)


def _ou_exp_down(kappa, alpha, sigma, x0, h, T):
    den = sigma * math.sqrt(math.expm1(2.0 * kappa * T) / (2.0 * kappa))
    return _clip01(2.0 * normal_cdf((alpha - x0 + h) / den) - 1.0)


def _growth_exp_up(alpha, beta, sigma, x0, h, T):
    e2 = math.exp(2.0 * beta * T)
    lx = math.log(x0)
    den = sigma * math.sqrt(2.0 * beta * (e2 - 1.0))
    p = normal_cdf((2.0 * beta * (h * e2 - lx) - sigma**2 + 2.0 * alpha) / den)
    q = math.exp(
        (4.0 * h * beta * (lx - h) + 2.0 * h * (sigma**2 - 2.0 * alpha)) / sigma**2
    ) * normal_cdf((2.0 * beta * (h * e2 - 2.0 * h + lx) + sigma**2 - 2.0 * alpha) / den)
    return _clip01(p - q)


def _growth_exp_down(alpha, beta, sigma, x0, h, T):
    den = sigma * math.sqrt(2.0 * beta * math.expm1(2.0 * beta * T))
    z = (2.0 * beta * (h - math.log(x0)) - sigma**2 + 2.0 * alpha) / den
    return _clip01(2.0 * normal_cdf(z) - 1.0)


def _gbm_exp_drift(sigma, x0, p, q, T):
    lx = math.log(x0)
    den = sigma * math.sqrt(T)
    drift = (p + 0.5 * sigma**2) * T
    up = normal_cdf((drift + q - lx) / den)
    down = math.exp((2.0 * p + sigma**2) * (lx - q) / sigma**2) * normal_cdf(
        (drift - q + lx) / den
    )
    return _clip01(up - down)


def _gbm_const_rate_const_barrier(sigma, r, x0, h, T):
    lh = math.log(h / x0)
    den = sigma * math.sqrt(T)
    drift = (0.5 * sigma**2 - r) * T
    up = normal_cdf((drift + lh) / den)
    down = math.exp((2.0 * r - sigma**2) * lh / sigma**2) * normal_cdf((drift - lh) / den)
    return _clip01(up - down)


def _bm_linear(intercept, slope, T):
    """Bachelier-Levy: P(W_t < intercept + slope*t for all t <= T)."""
    rt = math.sqrt(T)
    return _clip01(norm.cdf((intercept + slope * T) / rt) - math.exp(-2.0 * intercept * slope)
                   * norm.cdf((slope * T - intercept) / rt))


CLOSED_FORMS = {
    "ou_exp_up": _ou_exp_up,
    "ou_exp_down": _ou_exp_down,
    "growth_exp_up": _growth_exp_up,
    "growth_exp_down": _growth_exp_down,
    "gbm_exp_drift": _gbm_exp_drift,
    "gbm_const_rate_const_barrier": _gbm_const_rate_const_barrier,
    "bm_linear": _bm_linear,
}


# The linear formula and the two gbm cases with exp(a) * Phi(z) taken as
# exp(a + log Phi(z)), valid where exp(a) alone overflows.


def _reflected(log_factor: float, z: float) -> float:
    # Above 709 only for a start above the barrier, where the result clips to 0.
    e = log_factor + float(log_ndtr(z))
    return math.exp(e) if e < 709.0 else math.inf


def bm_linear_log_space(intercept, slope, T):
    rt = math.sqrt(T)
    return _clip01(normal_cdf((intercept + slope * T) / rt)
                   - _reflected(-2.0 * intercept * slope, (slope * T - intercept) / rt))


def _gbm_exp_drift_log_space(sigma, x0, p, q, T):
    lx = math.log(x0)
    den = sigma * math.sqrt(T)
    drift = (p + 0.5 * sigma**2) * T
    down = _reflected((2.0 * p + sigma**2) * (lx - q) / sigma**2, (drift - q + lx) / den)
    return _clip01(normal_cdf((drift + q - lx) / den) - down)


def _gbm_const_rate_const_barrier_log_space(sigma, r, x0, h, T):
    lh = math.log(h / x0)
    den = sigma * math.sqrt(T)
    drift = (0.5 * sigma**2 - r) * T
    down = _reflected((2.0 * r - sigma**2) * lh / sigma**2, (drift - lh) / den)
    return _clip01(normal_cdf((drift + lh) / den) - down)


LOG_SPACE_FORMS = {
    "gbm_exp_drift": _gbm_exp_drift_log_space,
    "gbm_const_rate_const_barrier": _gbm_const_rate_const_barrier_log_space,
}


def reducibility_residuals_pointwise(mu, sigma, t_range, x_range, n=9, h=1e-3):
    """Worst |d/dx F| and worst |d/dx F| / (1 + |F|) on an n-by-n grid, by
    central differences of step h, calling mu and sigma one point at a time
    in two nested loops; Python's max skips a NaN residual."""
    ts = np.linspace(t_range[0], t_range[1], n)
    xs = np.linspace(x_range[0], x_range[1], n)

    def cap_g(t, x):
        sx = (sigma(t, x + h) - sigma(t, x - h)) / (2.0 * h)
        return 0.5 * sx - mu(t, x) / sigma(t, x)

    def cap_f(t, x):
        st = (sigma(t + h, x) - sigma(t - h, x)) / (2.0 * h)
        gx = (cap_g(t, x + h) - cap_g(t, x - h)) / (2.0 * h)
        return st / sigma(t, x) + sigma(t, x) * gx

    worst = worst_scaled = 0.0
    for t in ts:
        for x in xs:
            res = (cap_f(t, x + h) - cap_f(t, x - h)) / (2.0 * h)
            worst = max(worst, abs(res))
            worst_scaled = max(worst_scaled, abs(res) / (1.0 + abs(cap_f(t, x))))
    return worst, worst_scaled
