import math

import numpy as np
import pytest
from scipy.stats import norm

from bcp import (
    GBMSpec,
    GeneralBoundary,
    GrowthSpec,
    InvalidBoundariesError,
    InvalidDomainError,
    McConfig,
    NumericFailureError,
    OUSpec,
    StartOutsideBandError,
    TimeVaryingOUSpec,
    check_reducibility,
    closed_form_bcp,
    catalog_problem,
    PiecewiseLinearBand,
    envelopes,
    estimate_bcp,
    estimate_bcp_bracketed,
    parse_boundary,
    reduce,
    reduce_growth,
    reduce_ou,
    uniform_partition,
)
from bcp import transforms
from bcp.transforms import _rate_integral, reduce_gbm, reduce_ou_td
from oracles import (
    CLOSED_FORMS,
    LOG_SPACE_FORMS,
    euler_maruyama_survival,
    ou_td_reduction_ode,
    reducibility_residuals_pointwise,
    simpson_fixed,
)
from test_acceptance import CATALOG_GRID


def const_upper(v, T):
    return GeneralBoundary.constant(v, "upper", T)


class TestReduceOU:
    SPEC = OUSpec(x0=0.0, kappa=0.5, alpha=0.0, sigma=1.0)

    def test_constant_boundary_becomes_sqrt(self):
        red = reduce_ou(self.SPEC, None, const_upper(1.0, 1.0), 1.0)
        assert red.horizon == pytest.approx(math.e - 1.0, rel=1e-14)
        for s in np.linspace(0.0, red.horizon, 100):
            assert red.upper(s) == pytest.approx(math.sqrt(1.0 + s), rel=1e-12)
        assert not red.lower.finite

    def test_time_map_roundtrip(self):
        red = reduce_ou(self.SPEC, None, const_upper(1.0, 1.0), 1.0)
        k, s2 = self.SPEC.kappa, self.SPEC.sigma**2
        for s in np.linspace(0.0, red.horizon, 100):
            t = red.time_map(s)
            back = s2 * math.expm1(2.0 * k * t) / (2.0 * k)
            assert back == pytest.approx(s, rel=1e-10, abs=1e-12)

    def test_nonzero_mean_and_start(self):
        spec = OUSpec(x0=0.3, kappa=1.0, alpha=0.5, sigma=0.8)
        red = reduce_ou(spec, None, const_upper(1.2, 0.5), 0.5)
        # At s = 0 the transformed boundary is b(0) - x0.
        assert red.upper(0.0) == pytest.approx(1.2 - 0.3, rel=1e-12)

    def test_two_sided(self):
        lo = GeneralBoundary.constant(-1.0, "lower", 1.0)
        red = reduce_ou(self.SPEC, lo, const_upper(1.0, 1.0), 1.0)
        for s in np.linspace(0.0, red.horizon, 50):
            assert red.lower(s) == pytest.approx(-math.sqrt(1.0 + s), rel=1e-12)

    def test_start_outside_rejected(self):
        with pytest.raises(InvalidBoundariesError):
            reduce_ou(self.SPEC, None, const_upper(-0.5, 1.0), 1.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            OUSpec(x0=0.0, kappa=-1.0, alpha=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            OUSpec(x0=0.0, kappa=1.0, alpha=0.0, sigma=0.0)


class TestReduceOUTimeVarying:
    def test_degenerates_to_constant_coefficients(self):
        const = OUSpec(x0=0.1, kappa=0.7, alpha=0.4, sigma=0.9)
        td = TimeVaryingOUSpec(
            x0=0.1, kappa=lambda t: 0.7, alpha=lambda t: 0.4, sigma=lambda t: 0.9
        )
        b = GeneralBoundary(lambda t: 1.0 + 0.2 * t, "upper", 1.0)
        r1 = reduce_ou(const, None, b, 1.0)
        r2 = reduce_ou_td(td, None, b, 1.0)
        assert r2.horizon == pytest.approx(r1.horizon, rel=1e-10)
        for s in np.linspace(0.0, min(r1.horizon, r2.horizon), 100):
            assert r2.upper(s) == pytest.approx(r1.upper(s), abs=1e-10)
            assert r2.time_map(s) == pytest.approx(r1.time_map(s), abs=1e-10)

    @pytest.mark.parametrize(
        "kappa,alpha,sigma,x0,b",
        [
            (0.5, 0.0, 1.0, 0.0, lambda t: np.exp(0.5 * t)),
            (2.0, 0.3, 0.7, 0.1, lambda t: 1.0 + 0.5 * t),
            (0.1, -0.2, 1.5, 0.0, lambda t: 2.0 - t),
        ],
        ids=["kappa0.5", "kappa2", "kappa0.1"],
    )
    def test_constant_coefficients_match_closed_form_on_dense_grid(
        self, kappa, alpha, sigma, x0, b
    ):
        const = OUSpec(x0=x0, kappa=kappa, alpha=alpha, sigma=sigma)
        td = TimeVaryingOUSpec(
            x0=x0, kappa=lambda t: kappa, alpha=lambda t: alpha, sigma=lambda t: sigma
        )
        gb = GeneralBoundary(b, "upper", 1.0)
        r1 = reduce_ou(const, None, gb, 1.0)
        r2 = reduce_ou_td(td, None, gb, 1.0)
        assert abs(r2.horizon - r1.horizon) <= 1e-12
        s = np.linspace(0.0, r1.horizon, 6401)
        assert np.max(np.abs(r2.upper(s) - r1.upper(s))) <= 1e-12
        assert np.max(np.abs(r2.time_map(s) - r1.time_map(s))) <= 1e-12

    @pytest.mark.parametrize(
        "kappa,alpha,sigma,upper,tol",
        [
            ("0.5", "0", "1", "exp(0.5*t)", 1e-12),
            ("0.5+0.25*sin(t)", "0.1*t", "1+0.2*t", "1+0.5*t", 1e-12),
            ("1+0.5*abs(t-0.3)", "0.1*t", "1+0.2*t", "1+0.5*t", 1e-10),
        ],
        ids=["ou_td_const", "ou_td_varying", "kinked_kappa"],
    )
    def test_matches_ode_oracle_on_dense_grid(self, kappa, alpha, sigma, upper, tol):
        # The first two are the ou_td benchmark cases; the kink in kappa
        # needs bisection, since no single degree resolves it.
        fns = [parse_boundary(e) for e in (kappa, alpha, sigma, upper)]
        td = TimeVaryingOUSpec(x0=0.0, kappa=fns[0], alpha=fns[1], sigma=fns[2])
        red = reduce_ou_td(td, None, GeneralBoundary(fns[3], "upper", 1.0), 1.0)
        S, t_of_s, upper_of_s = ou_td_reduction_ode(*fns[:3], 0.0, fns[3], 1.0)
        assert abs(red.horizon - S) <= tol
        s = np.linspace(0.0, min(S, red.horizon), 6401)
        assert np.max(np.abs(red.time_map(s) - t_of_s(s))) <= tol
        assert np.max(np.abs(red.upper(s) - upper_of_s(s))) <= tol

    def test_scalar_only_coefficients_match_expressions(self):
        # math.* lambdas go through the per-element fallback, expressions
        # through one array call; both sample the same points.
        exprs = TimeVaryingOUSpec(
            x0=0.0,
            kappa=parse_boundary("0.5+0.25*sqrt(1+t)"),
            alpha=parse_boundary("0.1*t-0.2"),
            sigma=parse_boundary("1+0.2*t*t"),
        )
        scalars = TimeVaryingOUSpec(
            x0=0.0,
            kappa=lambda t: 0.5 + 0.25 * math.sqrt(1 + t),
            alpha=lambda t: 0.1 * t - 0.2,
            sigma=lambda t: 1 + 0.2 * t * t,
        )
        b = GeneralBoundary(parse_boundary("1+0.5*t"), "upper", 1.0)
        r1 = reduce_ou_td(exprs, None, b, 1.0)
        r2 = reduce_ou_td(scalars, None, b, 1.0)
        assert r1.horizon == r2.horizon
        s = np.linspace(0.0, r1.horizon, 6401)
        np.testing.assert_array_equal(r1.time_map(s), r2.time_map(s))
        np.testing.assert_array_equal(r1.upper(s), r2.upper(s))

    def test_linear_kappa_time_change(self):
        td = TimeVaryingOUSpec(
            x0=0.0, kappa=lambda t: 1.0 + t, alpha=lambda t: 0.0, sigma=lambda t: 1.0
        )
        red = reduce_ou_td(td, None, const_upper(1.0, 1.0), 1.0)
        expect = simpson_fixed(lambda u: math.exp(2.0 * u + u * u), 0.0, 1.0, 4096)
        assert red.horizon == pytest.approx(expect, rel=1e-9)

    def test_centering_tracks_moving_mean(self):
        # With alpha(t) time varying the centering function solves a
        # first-order linear equation; check against an SDE simulation of
        # the original process below (slow path exercised in acceptance).
        td = TimeVaryingOUSpec(
            x0=0.0,
            kappa=lambda t: 1.0 + 0.5 * t,
            alpha=lambda t: 0.3 * math.sin(t) + 0.1,
            sigma=lambda t: 0.5 + 0.1 * t,
        )
        red = reduce_ou_td(td, None, const_upper(0.8, 1.0), 1.0)
        p = uniform_partition(red.horizon, 64)
        est = estimate_bcp_bracketed(None, red.upper, p, 40, McConfig(paths=200_000, seed=31))
        em, em_se = euler_maruyama_survival(
            drift=lambda t, x: (1.0 + 0.5 * t) * ((0.3 * math.sin(t) + 0.1) - x),
            diffusion=lambda t, x: 0.5 + 0.1 * t,
            x0=0.0,
            lower=None,
            upper=lambda t: 0.8,
            T=1.0,
            steps=1000,
            paths=50_000,
            seed=77,
        )
        tol = 3.0 * math.hypot(est.std_error, em_se) + 0.01
        assert abs(est.mean - em) < tol

    def test_nonpositive_kappa_rejected(self):
        td = TimeVaryingOUSpec(
            x0=0.0, kappa=lambda t: 1.0 - 2.0 * t, alpha=lambda t: 0.0, sigma=lambda t: 1.0
        )
        from bcp import NumericFailureError

        with pytest.raises(NumericFailureError):
            reduce_ou_td(td, None, const_upper(1.0, 1.0), 1.0)


class TestReduceGrowth:
    SPEC = GrowthSpec(x0=1.0, alpha=0.5, beta=0.5, sigma=1.0)

    def test_matched_parameters_give_sqrt(self):
        # sigma^2 = 2 alpha makes the log-shift vanish; a constant
        # boundary at e then reduces to sqrt(1 + s) over [0, e - 1].
        red = reduce_growth(self.SPEC, None, const_upper(math.e, 1.0), 1.0)
        assert red.horizon == pytest.approx(math.e - 1.0, rel=1e-14)
        for s in np.linspace(0.0, red.horizon, 100):
            assert red.upper(s) == pytest.approx(math.sqrt(1.0 + s), abs=1e-12)

    def test_zero_lower_boundary_is_unbounded(self):
        zero = GeneralBoundary(lambda t: 0.0, "lower", 1.0)
        red = reduce_growth(self.SPEC, zero, const_upper(math.e, 1.0), 1.0)
        assert not red.lower.finite
        assert red.lower(0.3) == -math.inf

    def test_general_parameters(self):
        spec = GrowthSpec(x0=2.0, alpha=0.3, beta=0.8, sigma=0.6)
        red = reduce_growth(spec, None, const_upper(5.0, 1.0), 1.0)
        shift = (0.36 - 0.6) / 1.6
        s = 0.7
        t = math.log1p(1.6 * s) / 1.6
        expect = math.sqrt(1.0 + 1.6 * s) * (math.log(5.0) + shift) / 0.6 - (
            math.log(2.0) + shift
        ) / 0.6
        assert red.upper(s) == pytest.approx(expect, rel=1e-12)
        assert red.time_map(s) == pytest.approx(t, rel=1e-12)

    def test_is_ou_reduction_of_scaled_log(self):
        # log(X/x0)/sigma is a mean-reverting process with kappa = beta,
        # unit sigma and x0 = 0; its sides are log(v/x0)/sigma.
        al, be, sg, x0, T = 0.3, 0.8, 0.6, 2.0, 1.0
        sides = [GeneralBoundary(parse_boundary(text), side, T)
                 for text, side in (("0.5", "lower"), ("5+t", "upper"))]
        red = reduce_growth(GrowthSpec(x0=x0, alpha=al, beta=be, sigma=sg), *sides, T)
        ou = OUSpec(x0=0.0, kappa=be, alpha=((al - sg**2 / 2) / be - math.log(x0)) / sg,
                    sigma=1.0)
        logs = [GeneralBoundary(lambda t, gb=gb: np.log(gb(t) / x0) / sg, gb.side, T)
                for gb in sides]
        want = reduce_ou(ou, *logs, T)
        s = np.linspace(0.0, red.horizon, 33)
        assert red.horizon == want.horizon
        np.testing.assert_array_equal(red.time_map(s), want.time_map(s))
        np.testing.assert_array_equal(red.lower(s), want.lower(s))
        np.testing.assert_array_equal(red.upper(s), want.upper(s))

    def test_negative_boundary_rejected(self):
        with pytest.raises(InvalidBoundariesError):
            reduce_growth(self.SPEC, None, const_upper(-1.0, 1.0), 1.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GrowthSpec(x0=-1.0, alpha=0.5, beta=0.5, sigma=1.0)
        with pytest.raises(ValueError):
            GrowthSpec(x0=1.0, alpha=0.5, beta=-0.5, sigma=1.0)


class TestReduceGBM:
    def test_variable_rate_formula(self):
        spec = GBMSpec(x0=10.0, sigma=0.1, rate=lambda t: 0.1 + 0.05 * math.exp(-t))
        red = reduce_gbm(spec, None, const_upper(12.0, 2.0), 2.0)
        assert red.horizon == 2.0
        for t in np.linspace(0.0, 2.0, 50):
            expect = (
                10.0 * math.log(1.2) - 0.95 * t - 0.5 + 0.5 * math.exp(-t)
            )
            assert red.upper(t) == pytest.approx(expect, abs=1e-9)
        assert red.upper(0.0) == pytest.approx(10.0 * math.log(1.2), abs=1e-12)

    def test_rate_integral_matches_closed_form(self):
        big_r = _rate_integral(parse_boundary("0.1+0.05*exp(-t)"), 2.0)
        t = np.linspace(0.0, 2.0, 1001)
        expect = 0.1 * t + 0.05 * (1.0 - np.exp(-t))
        assert np.max(np.abs(big_r(t) - expect)) <= 1e-14

    def test_constant_rate(self):
        spec = GBMSpec(x0=1.0, sigma=0.5, rate=0.2)
        red = reduce_gbm(spec, None, const_upper(2.0, 1.0), 1.0)
        t = 0.6
        expect = (math.log(2.0) + 0.125 * t - 0.2 * t) / 0.5
        assert red.upper(t) == pytest.approx(expect, rel=1e-12)

    def test_driftless_unit_volatility(self):
        spec = GBMSpec(x0=1.0, sigma=1.0, rate=0.0)
        red = reduce_gbm(spec, None, const_upper(3.0, 1.0), 1.0)
        for t in (0.0, 0.4, 1.0):
            assert red.upper(t) == pytest.approx(math.log(3.0) + 0.5 * t, rel=1e-12)

    def test_identity_time_map(self):
        spec = GBMSpec(x0=1.0, sigma=1.0)
        red = reduce_gbm(spec, None, const_upper(3.0, 1.0), 1.0)
        for s in np.linspace(0.0, 1.0, 10):
            assert red.time_map(s) == s

    def test_zero_lower_boundary_is_unbounded(self):
        zero = GeneralBoundary(parse_boundary("0"), "lower", 1.0)
        red = reduce_gbm(GBMSpec(x0=10.0, sigma=0.1, rate=0.1), zero, const_upper(12.0, 1.0), 1.0)
        assert not red.lower.finite

    def test_exponential_drift_boundary_is_affine_after_reduction(self):
        p, q = 0.3, 1.0
        spec, lo, hi, T = catalog_problem("gbm_exp_drift", sigma=0.4, x0=1.0, p=p, q=q, T=1.0)
        red = reduce_gbm(spec, lo, hi, T)
        ts = np.linspace(0.0, 1.0, 7)
        vals = np.array([red.upper(t) for t in ts])
        slopes = np.diff(vals) / np.diff(ts)
        assert np.allclose(slopes, slopes[0], atol=1e-10)
        assert vals[0] == pytest.approx(q / 0.4, rel=1e-12)


@pytest.mark.parametrize(
    "reducer, spec",
    [(reduce_growth, GrowthSpec(x0=1.0, alpha=0.5, beta=0.5, sigma=1.0)),
     (reduce_gbm, GBMSpec(x0=1.0, sigma=0.1, rate=0.1))],
    ids=["growth", "gbm"],
)
@pytest.mark.parametrize("lower", ["0.2*t", "abs(t-0.5)"])
def test_lower_boundary_zero_at_some_probes_rejected(reducer, spec, lower):
    a = GeneralBoundary(parse_boundary(lower), "lower", 1.0)
    with pytest.raises(InvalidBoundariesError, match="identically 0"):
        reducer(spec, a, const_upper(2.0, 1.0), 1.0)


@pytest.mark.parametrize(
    "make, field, need",
    [(lambda v: OUSpec(x0=0.0, kappa=0.5, alpha=v, sigma=1.0), "alpha", "finite"),
     (lambda v: OUSpec(x0=v, kappa=0.5, alpha=0.0, sigma=1.0), "x0", "finite"),
     (lambda v: OUSpec(x0=0.0, kappa=v, alpha=0.0, sigma=1.0), "kappa", "positive and finite"),
     (lambda v: OUSpec(x0=0.0, kappa=0.5, alpha=0.0, sigma=v), "sigma", "positive and finite"),
     (lambda v: TimeVaryingOUSpec(x0=v, kappa=parse_boundary("0.5"), alpha=parse_boundary("0"),
                                  sigma=parse_boundary("1")), "x0", "finite"),
     (lambda v: GrowthSpec(x0=1.0, alpha=v, beta=0.5, sigma=1.0), "alpha", "positive and finite"),
     (lambda v: GrowthSpec(x0=1.0, alpha=0.5, beta=v, sigma=1.0), "beta", "positive and finite"),
     (lambda v: GrowthSpec(x0=1.0, alpha=0.5, beta=0.5, sigma=v), "sigma", "positive and finite"),
     (lambda v: GrowthSpec(x0=v, alpha=0.5, beta=0.5, sigma=1.0), "x0", "positive and finite"),
     (lambda v: GBMSpec(x0=1.0, sigma=v, rate=0.1), "sigma", "positive and finite"),
     (lambda v: GBMSpec(x0=v, sigma=0.1, rate=0.1), "x0", "positive and finite"),
     (lambda v: GBMSpec(x0=1.0, sigma=0.1, rate=v), "rate", "finite")],
    ids=["ou.alpha", "ou.x0", "ou.kappa", "ou.sigma", "ou_td.x0", "growth.alpha",
         "growth.beta", "growth.sigma", "growth.x0", "gbm.sigma", "gbm.x0", "gbm.rate"],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_parameter(make, field, need, value):
    with pytest.raises(ValueError, match=f"^{field} must be {need}, got {value}$"):
        make(value)


class TestArrayEvaluation:
    @pytest.mark.parametrize(
        "spec,a,b",
        [
            (
                OUSpec(x0=0.0, kappa=0.5, alpha=0.1, sigma=1.0),
                GeneralBoundary(lambda t: -1.0 - t, "lower", 1.0),
                GeneralBoundary(lambda t: math.exp(0.5 * t), "upper", 1.0),
            ),
            (
                TimeVaryingOUSpec(
                    x0=0.0,
                    kappa=lambda t: 0.5 + 0.25 * math.sin(t),
                    alpha=lambda t: 0.1 * t,
                    sigma=lambda t: 1.0 + 0.2 * t,
                ),
                GeneralBoundary(parse_boundary("-1-t"), "lower", 1.0),
                GeneralBoundary(parse_boundary("1+0.5*t"), "upper", 1.0),
            ),
            (
                GrowthSpec(x0=1.0, alpha=0.5, beta=0.5, sigma=1.0),
                # Positive: a lower boundary that is 0 at t = 0 alone is rejected.
                GeneralBoundary(lambda t: 0.1 + 0.2 * t, "lower", 1.0),
                GeneralBoundary(parse_boundary("exp(1)+t"), "upper", 1.0),
            ),
            (
                GBMSpec(x0=10.0, sigma=0.1, rate=parse_boundary("0.1+0.05*exp(-t)")),
                GeneralBoundary.constant(5.0, "lower", 1.0),
                GeneralBoundary(parse_boundary("12+t"), "upper", 1.0),
            ),
        ],
        ids=["ou", "ou_td", "growth", "gbm"],
    )
    def test_arrays_agree_with_scalar_calls(self, spec, a, b):
        red = reduce(spec, a, b, 1.0)
        s = np.linspace(0.0, red.horizon, 240).reshape(12, 20)
        for fn in (red.time_map, red.lower, red.upper):
            got = fn(s)
            assert np.shape(got) == s.shape
            np.testing.assert_array_equal(got, [[fn(float(x)) for x in row] for row in s])


class TestDispatcher:
    def test_routes_each_family(self):
        assert reduce(
            OUSpec(x0=0.0, kappa=1.0, alpha=0.0, sigma=1.0), None, const_upper(1.0, 1.0), 1.0
        ).provenance["family"] == "ou"
        assert reduce(
            GBMSpec(x0=1.0, sigma=1.0), None, const_upper(2.0, 1.0), 1.0
        ).provenance["family"] == "gbm"

    def test_none_is_brownian_motion(self):
        b = const_upper(1.0, 2.0)
        red = reduce(None, None, b, 2.0)
        assert red.provenance["family"] == "bm" and red.provenance["spec"] is None
        assert red.upper is b and red.horizon == 2.0
        assert not red.lower.finite and red.lower.side == "lower"
        s = np.linspace(0.0, 2.0, 5)
        assert np.array_equal(red.time_map(s), s)

    def test_reduced_straight_side_keeps_two_envelopes(self):
        # exp(0.5 t) under kappa = 0.5 reduces to 1 + s (catalog case
        # ou_exp_up), straight to a few ulps through the Chebyshev time
        # change; only a side as written is straight up to rounding.
        spec = TimeVaryingOUSpec(x0=0.0, kappa=lambda t: 0.5, alpha=lambda t: 0.0,
                                 sigma=lambda t: 1.0)
        upper = GeneralBoundary(parse_boundary("exp(0.5*t)"), "upper", 1.0)
        red = reduce(spec, None, upper, 1.0)
        assert red.upper.reduced and not upper.reduced
        for n in (16, 128):
            inner, outer = envelopes(red.upper, uniform_partition(red.horizon, n), 50)
            assert inner is not outer and np.all(inner.right < outer.right)
        assert not reduce(None, None, upper, 1.0).upper.reduced

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            reduce(object(), None, const_upper(1.0, 1.0), 1.0)

    def test_bm_sides_that_cross_rejected(self):
        a = GeneralBoundary(parse_boundary("t-0.5"), "lower", 1.0)
        b = GeneralBoundary(parse_boundary("0.5-t"), "upper", 1.0)
        with pytest.raises(InvalidBoundariesError, match="strictly below upper"):
            reduce(None, a, b, 1.0)

    @pytest.mark.parametrize(
        "spec, upper",
        [(OUSpec(x0=0.0, kappa=400.0, alpha=0.0, sigma=1.0), 1.0),
         (GrowthSpec(x0=1.0, alpha=0.5, beta=400.0, sigma=1.0), 3.0)],
        ids=["ou", "growth"],
    )
    def test_overflowing_time_change(self, spec, upper):
        # expm1(800) overflows; it once escaped as OverflowError.
        with pytest.raises(NumericFailureError, match=r"S\(T\) = inf is not finite"):
            reduce(spec, None, const_upper(upper, 1.0), 1.0)

    def test_time_change_below_overflow_unchanged(self):
        red = reduce(OUSpec(x0=0.0, kappa=354.0, alpha=0.0, sigma=1.0), None,
                     const_upper(1.0, 1.0), 1.0)
        assert red.horizon == math.expm1(708.0) / 708.0

    def test_vanishing_time_change(self):
        spec = TimeVaryingOUSpec(x0=0.0, kappa=parse_boundary("0.5"),
                                 alpha=parse_boundary("0"), sigma=parse_boundary("1e-200"))
        with pytest.raises(NumericFailureError, match=r"S\(T\) = 0 is not finite"):
            reduce(spec, None, const_upper(1.0, 1.0), 1.0)

    @pytest.mark.parametrize(
        "spec",
        [None, OUSpec(x0=0.0, kappa=0.5, alpha=0.0, sigma=1.0),
         TimeVaryingOUSpec(x0=0.0, kappa=parse_boundary("0.5"), alpha=parse_boundary("0"),
                           sigma=parse_boundary("1")),
         GrowthSpec(x0=1.0, alpha=0.5, beta=0.5, sigma=1.0), GBMSpec(x0=1.0, sigma=0.1)],
        ids=["bm", "ou", "ou_td", "growth", "gbm"],
    )
    def test_infinite_horizon(self, spec):
        with pytest.raises(ValueError, match="horizon must be positive and finite, got inf"):
            reduce(spec, None, const_upper(2.0, math.inf), math.inf)

    @pytest.mark.parametrize(
        "spec, upper, message",
        [(None, "-0.0001+sqrt(t)", r"\(-inf, -0\.0001\)"),
         (OUSpec(x0=0.5, kappa=1.0, alpha=0.0, sigma=1.0), "0.25", r"\(-inf, -0\.25\)")],
        ids=["bm", "ou"],
    )
    def test_start_outside_named_in_reduced_band(self, spec, upper, message):
        b = GeneralBoundary(parse_boundary(upper), "upper", 1.0)
        with pytest.raises(StartOutsideBandError, match=message + " at t=0"):
            reduce(spec, None, b, 1.0)


class TestClosedForms:
    def test_ou_receding_boundary_value(self):
        # kappa=0.5, sigma=1, T=1 gives denominator sqrt(e - 1).
        val = closed_form_bcp(
            "ou_exp_down", kappa=0.5, alpha=0.0, sigma=1.0, x0=0.0, h=1.0, T=1.0
        )
        expect = 2.0 * norm.cdf(1.0 / math.sqrt(math.e - 1.0)) - 1.0
        assert val == pytest.approx(expect, rel=1e-12)

    def test_barrier_at_start_gives_zero(self):
        assert closed_form_bcp(
            "gbm_const_rate_const_barrier", sigma=0.3, r=0.1, x0=1.0, h=1.0, T=1.0
        ) == 0.0

    def test_distant_barrier_gives_one(self):
        assert closed_form_bcp(
            "gbm_const_rate_const_barrier", sigma=0.2, r=0.0, x0=1.0, h=1e9, T=1.0
        ) == pytest.approx(1.0, abs=1e-12)

    def test_bm_linear_matches_kernel_module(self):
        from bcp import bcp_linear_one_sided

        assert closed_form_bcp("bm_linear", intercept=1.0, slope=-0.2, T=2.0) == (
            bcp_linear_one_sided(1.0, -0.2, 2.0)
        )

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            closed_form_bcp("nope", x=1)

    @pytest.mark.parametrize(
        "case,params",
        [
            ("ou_exp_up", dict(kappa=0.8, alpha=0.2, sigma=0.7, x0=0.0, h=0.9, T=1.0)),
            ("ou_exp_down", dict(kappa=0.5, alpha=0.0, sigma=1.0, x0=0.0, h=1.0, T=1.0)),
            ("growth_exp_up", dict(alpha=0.4, beta=0.6, sigma=0.8, x0=1.0, h=1.1, T=1.0)),
            ("growth_exp_down", dict(alpha=0.5, beta=0.5, sigma=1.0, x0=1.0, h=1.0, T=1.0)),
            ("gbm_exp_drift", dict(sigma=0.4, x0=1.0, p=0.3, q=1.0, T=1.0)),
            ("gbm_const_rate_const_barrier", dict(sigma=0.2, r=0.05, x0=1.0, h=1.5, T=1.0)),
            ("bm_linear", dict(intercept=1.0, slope=0.5, T=1.0)),
        ],
    )
    def test_catalog_consistent_with_reduction_mc(self, case, params):
        exact = closed_form_bcp(case, **params)
        spec, lo, hi, T = catalog_problem(case, **params)
        if spec is None:
            red_lower, red_upper, S = lo, hi, T
        else:
            red = reduce(spec, lo, hi, T)
            red_lower, red_upper, S = red.lower, red.upper, red.horizon
        p = uniform_partition(S, 8)
        est = estimate_bcp_bracketed(
            red_lower, red_upper, p, 30, McConfig(paths=150_000, seed=55)
        )
        # Reduced boundaries are affine, so the bracket is (numerically) tight.
        assert est.bracket_width < 1e-10
        assert abs(est.mean - exact) < 3.5 * max(est.std_error, 1e-6)


class TestCatalogTable:
    """The table against the hand-expanded formulas in oracles.py."""

    CASES = dict(CATALOG_GRID)  # one parameter set per case

    @pytest.mark.parametrize("case, params", CATALOG_GRID)
    def test_matches_explicit_formula_on_acceptance_grid(self, case, params):
        assert abs(closed_form_bcp(case, **params) - CLOSED_FORMS[case](**params)) < 1e-13

    @pytest.mark.parametrize("case, params", CATALOG_GRID)
    def test_matches_plain_monte_carlo(self, case, params):
        # Each case reduces to a straight line, which estimate_bcp_bracketed
        # takes as its own control; the plain average of the kernel keeps
        # the formula checked against simulation, with the paths, seed,
        # partition and 3-SE limit of acceptance criterion 6.
        spec, lower, upper, T = catalog_problem(case, **params)
        red = reduce(spec, lower, upper, T)
        p = uniform_partition(red.horizon, 8)
        sides = [envelopes(gb or GeneralBoundary.infinite(side, p.T), p, 30)[1]
                 for gb, side in ((red.lower, "lower"), (red.upper, "upper"))]
        est = estimate_bcp(PiecewiseLinearBand(*sides), McConfig(paths=1_000_000, seed=7))
        assert abs(est.mean - closed_form_bcp(case, **params)) < 3.0 * max(est.std_error, 1e-9)

    @pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
    def test_matches_explicit_formula_on_random_parameters(self, case):
        rng = np.random.default_rng(20261018)
        # sigma >= 0.2 for gbm: below it the oracle's exp(-2*c*d) can overflow
        # before the tiny normal factor scales it down (OverflowError); the
        # next test covers sigma in [0.05, 0.2) against a log-space oracle.
        ranges = {
            "ou_exp_up": dict(kappa=(0.05, 3), alpha=(-1, 1), sigma=(0.2, 2), x0=(-1, 1),
                              h=(-2, 2), T=(0.05, 3)),
            "growth_exp_up": dict(alpha=(0.05, 2), beta=(0.05, 2), sigma=(0.2, 2),
                                  x0=(0.2, 3), h=(-2, 2), T=(0.05, 3)),
            "gbm_exp_drift": dict(sigma=(0.2, 1), x0=(0.2, 5), p=(-1, 1), q=(-1, 2),
                                  T=(0.05, 3)),
            "gbm_const_rate_const_barrier": dict(sigma=(0.2, 1), r=(-0.2, 0.3), x0=(0.2, 5),
                                                 h=(0.2, 8), T=(0.05, 3)),
            "bm_linear": dict(intercept=(-1, 3), slope=(-2, 2), T=(0.05, 3)),
        }
        box = ranges[case.replace("_down", "_up")]
        inside = 0
        for _ in range(500):
            params = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in box.items()}
            got = closed_form_bcp(case, **params)
            assert abs(got - CLOSED_FORMS[case](**params)) < 1e-13, params
            inside += 0.0 < got < 1.0
        assert inside > 100  # a fifth of the draws or more are not clipped to 0 or 1

    @pytest.mark.parametrize("case", sorted(LOG_SPACE_FORMS))
    def test_small_sigma_gbm_matches_log_space_formula(self, case):
        # sigma in [0.05, 0.2), where the reflection factor exp(a) can
        # overflow and the hand-expanded formula raises OverflowError: the
        # box of the test above with smaller sigma, then a box of starts far
        # below the barrier, where a > 709 on most draws.
        rng = np.random.default_rng(20261019)
        boxes = {
            "gbm_exp_drift": [
                dict(sigma=(0.05, 0.2), x0=(0.2, 5), p=(-1, 1), q=(-1, 2), T=(0.05, 3)),
                dict(sigma=(0.05, 0.1), x0=(0.2, 1), p=(-1, -0.5), q=(0.5, 2), T=(0.05, 3)),
            ],
            "gbm_const_rate_const_barrier": [
                dict(sigma=(0.05, 0.2), r=(-0.2, 0.3), x0=(0.2, 5), h=(0.2, 8), T=(0.05, 3)),
                dict(sigma=(0.05, 0.053), r=(0.28, 0.3), x0=(0.2, 0.25), h=(7, 8), T=(0.05, 3)),
            ],
        }[case]
        inside = overflow = 0
        for box in boxes:
            for _ in range(250):
                params = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in box.items()}
                got = closed_form_bcp(case, **params)
                assert abs(got - LOG_SPACE_FORMS[case](**params)) < 1e-13, params
                inside += 0.0 < got < 1.0
                try:
                    CLOSED_FORMS[case](**params)
                except OverflowError:
                    overflow += 1
        assert inside > 100 and overflow > 50

    @pytest.mark.parametrize(
        "case, params",
        [("ou_exp_up", dict(kappa=0.8, alpha=0.5, sigma=0.7, x0=0.75, h=0.25, T=1.0)),
         ("ou_exp_down", dict(kappa=0.8, alpha=0.5, sigma=0.7, x0=0.75, h=0.25, T=1.0)),
         ("growth_exp_up", dict(alpha=0.5, beta=0.6, sigma=1.0, x0=1.0, h=0.0, T=1.0)),
         ("growth_exp_down", dict(alpha=0.5, beta=0.6, sigma=1.0, x0=1.0, h=0.0, T=1.0)),
         ("gbm_exp_drift", dict(sigma=0.4, x0=1.0, p=0.3, q=0.0, T=1.0)),
         ("bm_linear", dict(intercept=0.0, slope=0.5, T=1.0)),
         ("bm_linear", dict(intercept=-0.5, slope=0.5, T=1.0))],
    )
    def test_start_on_or_above_barrier_gives_zero(self, case, params):
        # gbm_const_rate_const_barrier: TestClosedForms.test_barrier_at_start_gives_zero.
        # bm_linear with intercept <= 0 once raised StartOutsideBandError.
        assert closed_form_bcp(case, **params) == 0.0

    @pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
    def test_boundary_evaluates_whole_arrays(self, case):
        spec, lower, upper, T = catalog_problem(case, **self.CASES[case])
        assert lower is None
        t = np.linspace(0.0, T, 12).reshape(3, 4)
        got = upper.evaluator(t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        np.testing.assert_allclose(got, [[upper(float(x)) for x in row] for row in t],
                                   rtol=1e-15)

    @pytest.mark.parametrize("case, name",
                             [(case, name) for case, params in CASES.items() for name in params])
    def test_nan_parameter_named(self, case, name):
        # bm_linear's slope and gbm_exp_drift's p once gave 0.0, and a NaN
        # intercept, h or q raised StartOutsideBandError.
        params = {**self.CASES[case], name: math.nan}
        for fn in (closed_form_bcp, catalog_problem):
            with pytest.raises(ValueError, match=f"^{name} must not be NaN$"):
                fn(case, **params)

    def test_independent_of_reduce(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the catalog called a reduction")

        for name in ("reduce", "reduce_ou", "reduce_ou_td", "reduce_growth", "reduce_gbm"):
            monkeypatch.setattr(transforms, name, refuse)
        for case, params in CATALOG_GRID:
            assert abs(closed_form_bcp(case, **params) - CLOSED_FORMS[case](**params)) < 1e-13
            catalog_problem(case, **params)

    @pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
    def test_one_parameter_set_per_case(self, case):
        params = self.CASES[case]
        for fn in (closed_form_bcp, catalog_problem):
            fn(case, **params)
            with pytest.raises(TypeError, match="bogus"):
                fn(case, **params, bogus=1)
            for name in params:
                with pytest.raises(TypeError, match=name):
                    fn(case, **{k: v for k, v in params.items() if k != name})

    @pytest.mark.parametrize(
        "case, params",
        [("ou_exp_up", dict(kappa=400.0, alpha=0.0, sigma=1.0, x0=0.0, h=1.0, T=1.0)),
         ("ou_exp_down", dict(kappa=400.0, alpha=0.0, sigma=1.0, x0=0.0, h=1.0, T=1.0)),
         ("growth_exp_up", dict(alpha=0.5, beta=400.0, sigma=1.0, x0=1.0, h=1.0, T=1.0)),
         ("growth_exp_down", dict(alpha=0.5, beta=400.0, sigma=1.0, x0=1.0, h=1.0, T=1.0)),
         ("ou_exp_up", dict(kappa=1.0, alpha=0.0, sigma=1e-200, x0=0.0, h=1.0, T=1.0))],
    )
    def test_overflowing_time_change(self, case, params):
        # expm1(800) overflows; it once escaped as OverflowError, where
        # `reduce` of the same problem raises NumericFailureError.  sigma^2
        # = 1e-400 underflows to S(T) = 0; ou_exp_up once divided by it.
        value = "0" if params["sigma"] ** 2 == 0.0 else "inf"
        for fn in (closed_form_bcp, catalog_problem):
            with pytest.raises(NumericFailureError, match=rf"S\(T\) = {value} is not finite"):
                fn(case, **params)

    def test_overflowing_log_mean(self):
        # alpha/beta = 1e310: the log mean of log(X/x0)/sigma overflows.  It
        # once escaped as ValueError naming alpha, which the caller gave as 1e10.
        params = dict(alpha=1e10, beta=1e-300, sigma=1.0, x0=2.0, h=1.0, T=1.0)
        for fn in (closed_form_bcp, catalog_problem):
            with pytest.raises(NumericFailureError, match=r"the log mean .* = inf is not finite"):
                fn("growth_exp_up", **params)

    def test_gbm_exp_drift_takes_a_rate(self):
        params = dict(sigma=0.4, x0=1.0, p=0.3, q=1.0, T=1.0)
        spec, _, upper, _ = catalog_problem("gbm_exp_drift", **params, rate=0.1)
        assert spec.rate == 0.1
        assert upper(1.0) == pytest.approx(math.exp(0.3 + 1.0 + 0.1), rel=1e-14)
        # The rate leaves the reduced line, and so the probability, as it is.
        assert closed_form_bcp("gbm_exp_drift", **params, rate=0.1) == (
            closed_form_bcp("gbm_exp_drift", **params))


class TestReducibilityChecker:
    def test_ou_is_reducible(self):
        rep = check_reducibility(
            mu=lambda t, x: 0.7 * (0.3 - x),
            sigma=lambda t, x: 0.9,
            t_range=(0.0, 1.0),
            x_range=(-1.0, 1.0),
        )
        assert rep.reducible
        assert rep.max_scaled_residual < 1e-6

    def test_growth_is_reducible(self):
        rep = check_reducibility(
            mu=lambda t, x: 0.5 * x - 0.5 * x * math.log(x),
            sigma=lambda t, x: 1.0 * x,
            t_range=(0.0, 1.0),
            x_range=(0.5, 3.0),
        )
        assert rep.reducible

    def test_quadratic_drift_is_not(self):
        rep = check_reducibility(
            mu=lambda t, x: x * x,
            sigma=lambda t, x: 1.0,
            t_range=(0.0, 1.0),
            x_range=(-1.0, 1.0),
        )
        assert not rep.reducible
        # d/dx F = -2 everywhere for this pair.
        assert rep.max_residual == pytest.approx(2.0, rel=1e-4)

    def test_nonpositive_sigma(self):
        with pytest.raises(InvalidDomainError):
            check_reducibility(
                mu=lambda t, x: 0.0,
                sigma=lambda t, x: x,
                t_range=(0.0, 1.0),
                x_range=(-1.0, 1.0),
            )

    @pytest.mark.parametrize(
        "mu, sigma, t_range, x_range",
        [
            (lambda t, x: 0.7 * (0.3 - x), lambda t, x: 0.9, (0.0, 1.0), (-1.0, 1.0)),
            (lambda t, x: 0.5 * (0.2 - x), lambda t, x: 0.9, (0.0, 1.0), (-1.0, 1.0)),
            (lambda t, x: x * x, lambda t, x: 1.0, (0.0, 1.0), (-1.0, 1.0)),
            (lambda t, x: 0.5 * x - 0.5 * x * math.log(x), lambda t, x: x, (0.0, 1.0),
             (0.5, 3.0)),
            (lambda t, x: (0.05 + 0.1 * math.exp(-2.0 * t)) * x, lambda t, x: 0.2 * x,
             (0.0, 1.0), (0.5, 2.0)),
            (lambda t, x: np.sin(t) * x, lambda t, x: 1.0 + 0.1 * t, (0.0, 2.0), (-1.0, 1.0)),
        ],
        ids=["ou", "ou_other", "quadratic", "growth", "gbm_rate", "sin_drift"],
    )
    def test_whole_grid_matches_pointwise_loops(self, mu, sigma, t_range, x_range):
        rep = check_reducibility(mu, sigma, t_range, x_range)
        worst, worst_scaled = reducibility_residuals_pointwise(mu, sigma, t_range, x_range)
        assert (rep.max_residual, rep.max_scaled_residual) == (worst, worst_scaled)
        assert rep.reducible == (worst_scaled < 1e-4)

    def test_array_functions_called_on_whole_grids(self):
        shapes = []

        def mu(t, x):
            shapes.append(np.shape(t) + np.shape(x))
            return 0.7 * (0.3 - x)

        rep = check_reducibility(mu, lambda t, x: 0.9 + 0.0 * x, (0.0, 1.0), (-1.0, 1.0))
        assert rep.reducible and shapes and set(shapes) == {(9, 9, 9, 9)}

    def test_nan_drift_is_not_reducible(self):
        # Python's max skipped a NaN residual, which read as reducible.
        rep = check_reducibility(mu=lambda t, x: math.nan, sigma=lambda t, x: 1.0,
                                 t_range=(0.0, 1.0), x_range=(-1.0, 1.0))
        assert math.isnan(rep.max_residual) and not rep.reducible
