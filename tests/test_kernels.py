import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcp.kernels
from bcp import (
    GeneralBoundary,
    InvalidBoundariesError,
    NumericFailureError,
    PiecewiseLinearBand,
    PiecewiseLinearBoundary,
    StartOutsideBandError,
    band_kernel,
    bcp_linear_one_sided,
    envelopes,
    g_one_sided,
    g_two_sided,
    parse_boundary,
    uniform_partition,
)
from bcp.kernels import (BLOCK_SIZE, TAIL_BOUND, SeriesConfig, _term_counts, kernel_plan,
                         normal_cdf)
from bcp.mc import _chunk_stream
from oracles import (
    band_kernel_unfused,
    bm_linear_log_space,
    bridge_abs_max_theta,
    h_term,
    h_terms,
    one_sided_kernel_n2,
    quad_of_kernel_n1,
    quad_one_sided_n1,
    reflection_one_sided,
    step_survival,
    two_barrier_survival,
)


def one_sided_band(values, n=None, T=1.0):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size == 1:
        values = np.repeat(values, (n or 1) + 1)
    p = uniform_partition(T, values.size - 1)
    return PiecewiseLinearBand(
        PiecewiseLinearBoundary.infinite(p, "lower"),
        PiecewiseLinearBoundary.from_values(p, "upper", values),
    )


def two_sided_band(lower, upper, T=1.0):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    p = uniform_partition(T, lower.size - 1)
    return PiecewiseLinearBand(
        PiecewiseLinearBoundary.from_values(p, "lower", lower),
        PiecewiseLinearBoundary.from_values(p, "upper", upper),
    )


SYMMETRIC = two_sided_band(-np.ones(2), np.ones(2))


class TestOneSided:
    def test_single_node_value(self):
        band = one_sided_band(1.0, n=1)
        assert g_one_sided(band, [0.0]) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_indicator_failure(self):
        band = one_sided_band(1.0, n=1)
        assert g_one_sided(band, [1.5]) == 0.0

    def test_distant_boundary(self):
        band = one_sided_band(1e6, n=2)
        assert g_one_sided(band, [0.1, -0.2]) == pytest.approx(1.0, abs=1e-6)

    def test_requires_infinite_lower(self):
        with pytest.raises(ValueError):
            g_one_sided(SYMMETRIC, [0.0, 0.0])

    def test_requires_finite_upper(self):
        p = uniform_partition(1.0, 1)
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"),
                                   PiecewiseLinearBoundary.infinite(p, "upper"))
        with pytest.raises(InvalidBoundariesError, match="upper boundary must be finite"):
            g_one_sided(band, [0.0])

    def test_start_outside(self):
        with pytest.raises(StartOutsideBandError):
            band = one_sided_band(-0.5, n=1)
            g_one_sided(band, [0.0])

    def test_start_outside_lower_only(self):
        # The message names the band as given, not a reflected copy.
        p = uniform_partition(1.0, 1)
        with pytest.raises(StartOutsideBandError, match=r"\(0\.2, inf\) at t=0"):
            band = PiecewiseLinearBand(
                PiecewiseLinearBoundary.from_values(p, "lower", [0.2, 0.2]),
                PiecewiseLinearBoundary.infinite(p, "upper"),
            )
            band_kernel(band, [0.5])

    def test_length_mismatch(self):
        band = one_sided_band(1.0, n=2)
        with pytest.raises(ValueError):
            g_one_sided(band, [0.0])

    def test_range_and_zeroing(self):
        band = one_sided_band([1.0, 1.2, 0.8, 1.5])
        rng = np.random.default_rng(5)
        x = rng.normal(scale=0.8, size=(500, 3)).cumsum(axis=1)
        g = g_one_sided(band, x)
        assert np.all((g >= 0.0) & (g <= 1.0))
        violated = (x >= band.upper.left[1:]).any(axis=1)
        assert np.all(g[violated] == 0.0)


class TestHTerm:
    def test_symmetric_center_frozen_value(self):
        # Frozen from the four-exponential expansion at the symmetric
        # center; 1 - sum_j h_j reproduces the alternating series for
        # the maximum modulus of a 0->0 bridge (checked below).
        expected = 2.0 * math.exp(-2.0) - 2.0 * math.exp(-8.0)
        assert h_term(1, 1, 0.0, 0.0, SYMMETRIC) == pytest.approx(expected, rel=1e-13)

    def test_series_matches_bridge_maximum_law(self):
        from oracles import bridge_abs_max_survival

        total = sum(h_term(1, j, 0.0, 0.0, SYMMETRIC) for j in range(1, 30))
        assert 1.0 - total == pytest.approx(bridge_abs_max_survival(1.0, 1.0), abs=1e-12)

    def test_rapid_decay_in_j(self):
        assert abs(h_term(1, 10, 0.0, 0.0, SYMMETRIC)) < 1e-30

    def test_finite_on_boundary(self):
        v = h_term(1, 1, 0.0, 1.0, SYMMETRIC)
        assert math.isfinite(v)

    def test_rejects_infinite_band(self):
        band = one_sided_band(1.0, n=1)
        with pytest.raises(InvalidBoundariesError):
            h_term(1, 1, 0.0, 0.0, band)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            h_term(0, 1, 0.0, 0.0, SYMMETRIC)
        with pytest.raises(ValueError):
            h_term(1, 0, 0.0, 0.0, SYMMETRIC)


class TestNoSide:
    def test_both_sides_infinite_gives_one(self):
        p = uniform_partition(1.0, 4)
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"),
                                   PiecewiseLinearBoundary.infinite(p, "upper"))
        x = np.array([[0.0, 5.0, -40.0, 1e6], [1.0, 2.0, 3.0, 4.0]])
        g, tail = band_kernel(band, x)
        assert g.tolist() == [1.0, 1.0] and tail == 0.0
        assert band_kernel(band, x[0]) == (1.0, 0.0)


class TestTwoSided:
    @pytest.mark.parametrize("infinite", ["lower", "upper"])
    def test_requires_finite_sides(self, infinite):
        p = uniform_partition(1.0, 1)
        finite = "upper" if infinite == "lower" else "lower"
        sides = {infinite: PiecewiseLinearBoundary.infinite(p, infinite),
                 finite: PiecewiseLinearBoundary.from_values(
                     p, finite, [1.0, 1.0] if finite == "upper" else [-1.0, -1.0])}
        band = PiecewiseLinearBand(sides["lower"], sides["upper"])
        with pytest.raises(InvalidBoundariesError, match="requires finite boundaries"):
            g_two_sided(band, [0.0])

    def test_distant_lower_matches_one_sided(self):
        upper = np.array([1.0, 0.9, 1.1])
        band2 = two_sided_band(np.full(3, -1e6), upper)
        band1 = one_sided_band(upper)
        x = np.array([0.3, -0.4])
        assert g_two_sided(band2, x) == pytest.approx(g_one_sided(band1, x), abs=1e-6)

    def test_one_sided_consistency_tight(self):
        upper = np.array([1.0, 0.9, 1.1])
        band2 = two_sided_band(np.full(3, -20.0), upper)
        band1 = one_sided_band(upper)
        rng = np.random.default_rng(11)
        x = rng.normal(scale=0.5, size=(200, 2)).cumsum(axis=1)
        assert np.max(np.abs(g_two_sided(band2, x) - g_one_sided(band1, x))) < 1e-9

    def test_quadrature_matches_two_barrier_series(self):
        band = two_sided_band(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        val = quad_of_kernel_n1(
            lambda x: g_two_sided(band, [x]), -1.0, 1.0, 1.0
        )
        assert val == pytest.approx(two_barrier_survival(-1.0, 1.0, 1.0), abs=1e-6)

    def test_truncation_insensitive(self):
        band = two_sided_band(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        vals = {}
        for terms in (6, 12):
            cfg = SeriesConfig(min_terms=terms)
            vals[terms] = quad_of_kernel_n1(
                lambda x: g_two_sided(band, [x], cfg), -1.0, 1.0, 1.0
            )
        assert abs(vals[6] - vals[12]) < 1e-10

    def test_automatic_one_sided_routing(self):
        upper = np.array([1.0, 0.9, 1.1])
        band_inf = PiecewiseLinearBand(
            PiecewiseLinearBoundary.infinite(uniform_partition(1.0, 2), "lower"),
            PiecewiseLinearBoundary.from_values(uniform_partition(1.0, 2), "upper", upper),
        )
        x = np.array([[0.3, -0.4], [0.1, 0.2]])
        g, tail = band_kernel(band_inf, x)
        assert tail == 0.0
        assert np.allclose(g, g_one_sided(band_inf, x))

    def test_reflected_routing_lower_only(self):
        p = uniform_partition(1.0, 2)
        lower = PiecewiseLinearBoundary.from_values(p, "lower", [-1.0, -0.9, -1.1])
        band = PiecewiseLinearBand(lower, PiecewiseLinearBoundary.infinite(p, "upper"))
        x = np.array([[0.3, -0.4], [0.1, 0.2]])
        g, _ = band_kernel(band, x)
        mirrored = one_sided_band(np.array([1.0, 0.9, 1.1]))
        assert np.allclose(g, g_one_sided(mirrored, -x))

    @pytest.mark.parametrize("h, T", [(0.01, 10.0), (0.2, 1.0), (0.5, 1.0), (1.0, 1.0)])
    def test_bridge_centre_matches_theta_series(self, h, T):
        # A narrow band over a long interval needs hundreds of terms; a
        # fixed cap on the term count returned 0.72 for (0.01, 10).
        band = two_sided_band(np.array([-h, -h]), np.array([h, h]), T=T)
        g, tail = band_kernel(band, [0.0])
        assert g == pytest.approx(bridge_abs_max_theta(h, T), abs=1e-12)
        assert 0.0 < tail < TAIL_BOUND

    def test_recorded_chunk_matches_scalar_series(self):
        # Width about 0.5 against dt = 0.25 needs several terms per interval.
        p = uniform_partition(2.0, 8)
        lower = -0.25 - 0.05 * np.sin(3.0 * p.nodes)
        upper = 0.25 + 0.1 * p.nodes * (2.0 - p.nodes)
        band = two_sided_band(lower, upper, T=2.0)
        q = (upper - lower)[:-1] * (upper - lower)[1:] / p.dt
        assert np.all(4 * np.exp(-2 * q) / -np.expm1(-4 * q) > TAIL_BOUND)  # J > 1
        # Steps smaller than Brownian ones keep many paths inside the band.
        x = np.cumsum(_chunk_stream(31, 0).standard_normal((256, 8)) * 0.15, axis=1)
        g, tail = band_kernel(band, x)
        assert 0.0 < tail < 8 * TAIL_BOUND
        inside = np.all((x > lower[1:]) & (x < upper[1:]), axis=1)
        assert 20 <= inside.sum() < 256 and np.all(g[~inside] == 0.0)
        for row in np.flatnonzero(inside):
            path = np.concatenate([[0.0], x[row]])
            expected = 1.0
            for i in range(1, 9):
                s = 0.0
                for j in range(1, 31):
                    terms = h_terms(i, j, path[i - 1], path[i], band)
                    if j >= 2:
                        assert max(terms) <= math.exp(-2 * (j - 1) ** 2 * q[i - 1]) * (1 + 1e-12)
                    s += terms[0] - terms[1] + terms[2] - terms[3]
                expected *= 1.0 - s
            assert g[row] == pytest.approx(expected, abs=1e-14)

    def test_term_floor_validated(self):
        with pytest.raises(ValueError):
            SeriesConfig(min_terms=0)

    @pytest.mark.parametrize("h", [1e140, 1e160, 1e300])
    def test_very_wide_band(self, h):
        # From about 1e137 the cap check overflowed; from about 1e154 the
        # widths' product is inf and a series exponent inf - inf = NaN.
        band = two_sided_band(np.full(129, -h), np.full(129, h), T=1.0)
        x = np.cumsum(_chunk_stream(3, 0).standard_normal((100, 128)) / np.sqrt(128), axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, tail = band_kernel(band, x)
        assert np.all(g == 1.0) and tail == 0.0


class TestNarrowBands:
    """Bands so narrow that J runs into the millions, or past 2^53."""

    @pytest.mark.parametrize("h", [1e-6, 1e-8])
    def test_smallest_term_count(self, h):
        # The term count once rose one step per pass: minutes at +-1e-8.
        band = two_sided_band(np.full(5, -h), np.full(5, h))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            terms, tails = _term_counts(band, 1)
        q = (2 * h) ** 2 / 0.25
        assert terms.min() > 10**6
        assert np.all(tails < TAIL_BOUND)
        assert np.all(4 * np.exp(-2 * (terms - 1.0) ** 2 * q)
                      / -np.expm1(-4 * (terms - 1.0) * q) >= TAIL_BOUND)

    def test_block_with_no_row_inside_skipped(self, monkeypatch):
        # J = 1.3e6 here; a block with no path inside the band runs no term.
        def refuse(*args):
            raise AssertionError("series summed over a block with no row inside")

        monkeypatch.setattr(bcp.kernels, "_series_sum", refuse)
        band = two_sided_band(np.full(5, -1e-6), np.full(5, 1e-6))
        x = np.cumsum(_chunk_stream(3, 0).standard_normal((2000, 4)) * 0.5, axis=1)
        g, tail = band_kernel(band, x)
        assert np.all(g == 0.0) and 0.0 < tail < 4 * TAIL_BOUND

    @pytest.mark.parametrize("h", [1e-150, 1e-300], ids=["past_2_53", "q_zero"])
    def test_unrepresentable_term_count(self, h):
        band = two_sided_band(np.full(5, -h), np.full(5, h))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailureError, match="more than 9007199254740991 series"):
                band_kernel(band, np.zeros((3, 4)))


DANIELS = "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))"


def _bit_identity_band(name):
    if name == "narrow":  # (+-0.01) over one interval of length 10: J = 774
        return two_sided_band(np.full(2, -0.01), np.full(2, 0.01), T=10.0)
    p = uniform_partition(1.0, 128)
    if name == "mixed_terms":  # J differs between intervals
        p8 = uniform_partition(1.0, 8)
        return two_sided_band(-0.05 - 0.2 * p8.nodes, 0.05 + 0.5 * p8.nodes**2)
    if name in ("lower_only", "lower_short"):  # short: 16 nodes, reduced by column loops
        p = uniform_partition(1.0, 16) if name == "lower_short" else p
        lower = PiecewiseLinearBoundary.from_values(p, "lower", -0.5 + 0.3 * p.nodes)
        return PiecewiseLinearBand(lower, PiecewiseLinearBoundary.infinite(p, "upper"))
    minus_one = PiecewiseLinearBoundary.from_values(p, "lower", np.full(129, -1.0))
    if name == "pm1":
        upper = PiecewiseLinearBoundary.from_values(p, "upper", np.ones(129))
        return PiecewiseLinearBand(minus_one, upper)
    inner, outer = envelopes(GeneralBoundary(parse_boundary(DANIELS), "upper", 1.0), p, 50)
    return PiecewiseLinearBand(minus_one, inner if name == "daniels_inner" else outer)


def step_band(sign: float, lower_side=None) -> PiecewiseLinearBand:
    """A side that jumps inward at t = 0.5, from 1.5 to 1.0 (sign 1, upper)
    or from -1.5 to -1.0 (sign -1, lower); lower_side closes an upper band."""
    p = uniform_partition(1.0, 2)
    step = PiecewiseLinearBoundary(p, "upper" if sign > 0 else "lower",
                                   right=sign * np.array([1.5, 1.0, 1.0]),
                                   left=sign * np.array([1.5, 1.5, 1.0]))
    if lower_side is None:
        other = PiecewiseLinearBoundary.infinite(p, "lower" if sign > 0 else "upper")
    else:
        other = PiecewiseLinearBoundary.from_values(p, "lower", lower_side)
    return PiecewiseLinearBand(*((other, step) if sign > 0 else (step, other)))


class TestInwardJumps:
    """A side may jump inward; a path survives a node only inside both limits."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    def test_matches_closed_form_n2_kernel(self, sign):
        band = step_band(sign)
        x = sign * _chunk_stream(5, 0).uniform(-1.0, 2.0, size=(400, 2))
        x[0] = sign * np.array([1.2, 0.0])  # between the two limits at t = 0.5
        g, _ = band_kernel(band, x)
        assert g[0] == 0.0 and np.count_nonzero(g) > 100
        want = [one_sided_kernel_n2(band, *row) for row in x]
        np.testing.assert_allclose(g, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    def test_estimate_matches_step_survival(self, sign):
        from bcp import McConfig, estimate_bcp

        exact = step_survival(1.5, 1.0, 0.5, 1.0)
        assert exact == pytest.approx(0.7073434, abs=1e-7)
        est = estimate_bcp(step_band(sign), McConfig(paths=2**18, seed=7))
        assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_two_sided_node_between_limits_gets_zero(self):
        band = step_band(1.0, lower_side=[-1.0, -1.0, -1.0])
        x = np.array([[1.2, 0.0], [0.9, 0.0], [0.0, 0.0]])
        g, _ = band_kernel(band, x)
        assert g[0] == 0.0 and 0.0 < g[1] < g[2]
        terms = _term_counts(band, 1)[0]
        assert np.array_equal(g, band_kernel_unfused(band, x, terms))


class TestBlockedKernel:
    """The blocked, clamped kernel against whole-array expressions, bit for bit."""

    @staticmethod
    def paths(band, rows):
        p = band.partition
        lo, hi = band.lower.left[1:], band.upper.left[1:]
        z = _chunk_stream(11, rows).standard_normal((rows, p.n))
        if band.upper.is_infinite:
            x = lo + np.abs(np.cumsum(z * np.sqrt(p.dt), axis=1))
            x[0] = lo + 3.0  # far from the boundary: exponents below -745
            return x
        if p.n == 1:  # nearly every Brownian path would leave the band
            x = lo + (hi - lo) * _chunk_stream(12, rows).uniform(size=(rows, 1))
        else:
            x = np.cumsum(z * np.sqrt(p.dt), axis=1)
        x[0] = 0.5 * (lo + hi)  # centre of the band: t2 and t4 underflow
        if rows > 1:
            # Inside the band at every node, but across it within one step.
            x[-1] = 0.5 * (lo + hi)
            x[-1, p.n // 2 - 1] = lo[p.n // 2 - 1] + 0.01 * (hi - lo)[p.n // 2 - 1]
            x[-1, p.n // 2] = hi[p.n // 2] - 0.01 * (hi - lo)[p.n // 2]
        return x

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 1023, 1024, 1025, 4097])
    @pytest.mark.parametrize(
        "name", ["pm1", "daniels_inner", "daniels_outer", "lower_only", "lower_short", "narrow",
                 "mixed_terms"]
    )
    def test_matches_unfused_formula(self, name, rows):
        band = _bit_identity_band(name)
        x = self.paths(band, rows)
        two_sided = not band.upper.is_infinite
        terms = _term_counts(band, 1)[0] if two_sided else None
        if name == "narrow":
            assert terms[0] == 774
        if name == "mixed_terms":
            assert terms.min() < terms.max()
        g, _ = band_kernel(band, x)
        expected = band_kernel_unfused(band, x, terms)
        assert np.array_equal(g, expected)
        assert 0 < np.count_nonzero(g) and g[0] > 0.0

    @pytest.mark.parametrize(
        "name", ["pm1", "daniels_inner", "daniels_outer", "lower_only", "lower_short", "narrow",
                 "mixed_terms"]
    )
    def test_block_path_matches(self, name):
        # The Monte Carlo engine's path: one plan per band and estimate, and
        # unchecked blocks of samples it drew itself.
        band = _bit_identity_band(name)
        x = self.paths(band, 2500)
        plan = kernel_plan(band)
        block = BLOCK_SIZE // band.partition.n
        parts = [band_kernel(band, x[r0:r0 + block], plan=plan)
                 for r0 in range(0, x.shape[0], block)]
        g, tail = band_kernel(band, x)
        assert np.array_equal(np.concatenate([gb for gb, _ in parts]), g)
        assert all(t == tail for _, t in parts)

    @pytest.mark.parametrize("name", ["pm1", "daniels_outer", "lower_only"])
    def test_paths_reach_clamp_and_one_step_crossing(self, name):
        # The first path has a raw exponent below -745 (exp gives 0); the
        # last has a t2 or t4 on the step across the band that moves 1 - S.
        band = _bit_identity_band(name)
        x = self.paths(band, 257)
        path = np.concatenate([[0.0], x[0]])
        if band.upper.is_infinite:
            a, dt = band.lower.right, band.partition.dt
            exps = [math.exp(-2.0 / dt[i] * (a[i] - path[i]) * (a[i + 1] - path[i + 1]))
                    for i in range(band.partition.n)]
            assert min(exps) == 0.0
            return
        n = band.partition.n
        assert min(min(h_terms(i, 1, path[i - 1], path[i], band)) for i in range(1, n + 1)) == 0.0
        last = np.concatenate([[0.0], x[-1]])
        _, t2, _, t4 = h_terms(n // 2 + 1, 1, last[n // 2], last[n // 2 + 1], band)
        assert max(t2, t4) > 1e-12  # well above the rounding of 1 - S

    def test_no_paths(self):
        none = np.empty((0, 128))
        for name in ("pm1", "lower_only"):
            assert band_kernel(_bit_identity_band(name), none)[0].shape == (0,)
        assert g_two_sided(_bit_identity_band("pm1"), none).shape == (0,)
        assert g_one_sided(one_sided_band(np.ones(129)), none).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_in_last_row(self, bad):
        # The last row of 1025 falls in the second block.
        x = np.zeros((1025, 128))
        x[-1, 64] = bad
        with pytest.raises(ValueError, match="node samples must be finite"):
            band_kernel(_bit_identity_band("pm1"), x)


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_widening_never_decreases_g(self, data, n):
        floats = st.floats(min_value=0.05, max_value=2.0)
        lo = np.array([-data.draw(floats) for _ in range(n + 1)])
        hi = np.array([data.draw(floats) for _ in range(n + 1)])
        widen_lo = np.array([data.draw(floats) for _ in range(n + 1)])
        widen_hi = np.array([data.draw(floats) for _ in range(n + 1)])
        x = np.array([data.draw(st.floats(min_value=-1.5, max_value=1.5)) for _ in range(n)])
        narrow = two_sided_band(lo, hi)
        wide = two_sided_band(lo - widen_lo, hi + widen_hi)
        g_narrow = g_two_sided(narrow, x)
        g_wide = g_two_sided(wide, x)
        assert g_wide >= g_narrow - 1e-12

    def test_one_sided_widening_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=0.6, size=(2000, 4)).cumsum(axis=1)
        narrow = one_sided_band(np.array([0.8, 1.0, 0.7, 1.2, 0.9]))
        wide = one_sided_band(np.array([0.9, 1.1, 0.8, 1.3, 1.0]))
        assert np.all(g_one_sided(wide, x) >= g_one_sided(narrow, x))


class TestQuadratureExactness:
    def test_one_sided_constant(self):
        band = one_sided_band(1.0, n=1)
        val = quad_of_kernel_n1(lambda x: g_one_sided(band, [x]), -np.inf, 1.0, 1.0)
        assert val == pytest.approx(reflection_one_sided(1.0, 1.0), abs=1e-8)

    def test_one_sided_linear(self):
        c, d = 0.8, 0.5
        band = one_sided_band(np.array([c, c + d]), T=1.0)
        val = quad_one_sided_n1(c, c + d, 1.0)
        assert val == pytest.approx(bcp_linear_one_sided(c, d, 1.0), abs=1e-8)
        lib = quad_of_kernel_n1(lambda x: g_one_sided(band, [x]), -np.inf, c + d, 1.0)
        assert lib == pytest.approx(val, abs=1e-10)


class TestLinearClosedForm:
    def test_constant_boundary(self):
        assert bcp_linear_one_sided(1.0, 0.0, 1.0) == pytest.approx(
            reflection_one_sided(1.0, 1.0), rel=1e-12
        )

    def test_receding_boundary(self):
        assert bcp_linear_one_sided(1.0, math.inf, 1.0) == 1.0
        assert bcp_linear_one_sided(1.0, 1e3, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_reflection_factor(self):
        # exp(-2cd) overflows for -2cd > 709.78; the product with its tiny
        # normal factor is finite and matches exp(-2cd + log_ndtr(z)).
        assert bcp_linear_one_sided(20.0, -20.0, 1.0) == pytest.approx(
            0.4900326648116987, abs=1e-15)
        rng = np.random.default_rng(20261019)
        overflow = 0
        for _ in range(2000):
            c, d, T = (10.0 ** rng.uniform([-1, -1, -2], [2, 3, 1]) * [1, -1, 1]).tolist()
            got = bcp_linear_one_sided(c, d, T)
            assert abs(got - bm_linear_log_space(c, d, T)) < 1e-13, (c, d, T)
            overflow += -2.0 * c * d > 710.0
        assert overflow > 300  # about a fifth of the draws
        # -2cd itself overflows, or is NaN for an infinite intercept and slope 0.
        assert bcp_linear_one_sided(1e200, -1e200, 1.0) == 0.5
        assert bcp_linear_one_sided(math.inf, -1.0, 1.0) == 1.0
        assert bcp_linear_one_sided(math.inf, 0.0, 1.0) == 1.0

    def test_values_below_overflow_use_the_direct_product(self):
        rt = math.sqrt(0.7)
        for c, d in [(1.0, -354.0), (26.6, -13.3), (0.5, 0.3), (2.0, -1.0)]:
            direct = normal_cdf((c + d * 0.7) / rt) - math.exp(-2.0 * c * d) * normal_cdf(
                (d * 0.7 - c) / rt)
            assert bcp_linear_one_sided(c, d, 0.7) == min(1.0, max(0.0, direct))

    @pytest.mark.parametrize(
        "T, need",
        [(math.inf, "positive and finite"), (math.nan, "positive"), (0.0, "positive"),
         (-1.0, "positive")],
    )
    def test_horizon_must_be_positive_and_finite(self, T, need):
        # T = inf once returned 0.0; the true value is 1 - exp(-1).
        with pytest.raises(ValueError, match=f"horizon must be {need}, got {T}"):
            bcp_linear_one_sided(1.0, 0.5, T)

    @pytest.mark.parametrize("name", ["intercept", "slope"])
    def test_nan_parameter_named(self, name):
        # A NaN slope once returned 0.0, and a NaN intercept raised
        # StartOutsideBandError.
        with pytest.raises(ValueError, match=f"^{name} must not be NaN"):
            bcp_linear_one_sided(**{"intercept": 1.0, "slope": 0.5, name: math.nan}, T=1.0)

    def test_start_outside(self):
        with pytest.raises(StartOutsideBandError):
            bcp_linear_one_sided(0.0, 1.0, 1.0)
        with pytest.raises(StartOutsideBandError):
            bcp_linear_one_sided(-0.3, 1.0, 1.0)

    def test_normal_cdf_matches_ndtr(self):
        # erfc and ndtr round differently on most points (not bit-identical),
        # but never by more than one unit in the last place at 1, 2.2e-16.
        from scipy.special import ndtr

        x = np.linspace(-38.0, 9.0, 47_001)
        got = np.array([normal_cdf(v) for v in x.tolist()])
        assert np.max(np.abs(got - ndtr(x))) <= np.finfo(float).eps

    def test_mc_self_consistency(self):
        from bcp import McConfig, estimate_bcp

        c, d = 0.5, -0.3
        exact = bcp_linear_one_sided(c, d, 1.0)
        band = one_sided_band(np.linspace(c, c + d, 129), T=1.0)
        est = estimate_bcp(band, McConfig(paths=200_000, seed=17))
        assert abs(est.mean - exact) < 3.0 * est.std_error


class TestLinearTwoSided:
    """`line_probability`: the probability of a band between two lines, by
    quadrature of the one-interval kernel, with an error bound eps; of one
    line, exact.  `bcp_linear_two_sided` returns its (mu, eps)."""

    @pytest.mark.parametrize("lower, upper, line", [
        (None, (1.0, 1.5), (1.0, 0.25)), ((-0.75, -0.25), None, (0.75, -0.25))],
        ids=["upper", "lower"])
    def test_one_line_is_exact(self, lower, upper, line):
        floor, mean = bcp.kernels.line_probability(lower, upper, 2.0)
        assert (floor, mean()) == (0.0, (bcp_linear_one_sided(*line, 2.0), 0.0))

    @pytest.mark.parametrize("a, b, T, most", [
        (-1.0, 1.0, 1.0, 1e-12), (-1.0, 1.0, 4.0, 1e-12), (-0.5, 2.0, 1.0, 1e-12),
        (-3.0, 3.0, 1.0, 1e-12), (-1.0, 40.0, 1.0, 1e-12), (-1.0, 1e4, 1.0, 1e-10),
        (-30.0, 30.0, 1.0, 1e-12), (-1e3, 1.0, 1.0, 1e-11), (-0.3, 1e6, 1.0, 1e-7)])
    def test_constant_band_inside_error_bound(self, a, b, T, most):
        # Over all of (a, b), (-1, 1e4) once read 1.7e-34 at 32 nodes and
        # (-30, 30) 0.81; the range is cut to |y| <= 10 sqrt(T).  On
        # (-0.3, 1e6) the kernel's differences lose 3.5e-11, the same in
        # both rules, which the rounding floor's far-side term covers.
        mu, eps = bcp.kernels.bcp_linear_two_sided((a, a), (b, b), T)
        truth = two_barrier_survival(a, b, T)
        assert abs(mu - truth) <= eps < most

    def test_sloped_band_matches_adaptive_quadrature(self):
        lower, upper = (-0.8, -1.3), (0.6, 1.1)
        band = two_sided_band(np.array(lower), np.array(upper), T=1.5)
        terms = kernel_plan(band)[1]
        lib = quad_of_kernel_n1(lambda y: band_kernel_unfused(band, [[y]], terms)[0],
                                lower[1], upper[1], 1.5)
        mu, eps = bcp.kernels.bcp_linear_two_sided(lower, upper, 1.5)
        assert abs(mu - lib) < 1e-10 and eps < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(a0=st.floats(-3.0, -0.05), b0=st.floats(0.05, 3.0), a1=st.floats(-3.0, 3.0),
           gap=st.floats(0.05, 4.0), T=st.floats(0.1, 4.0))
    def test_doubled_rule_inside_error_bound(self, a0, b0, a1, gap, T):
        mu, eps = bcp.kernels.bcp_linear_two_sided((a0, a1), (b0, a1 + gap), T)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bcp.kernels, "QUAD_NODES", 128)
            fine, _ = bcp.kernels.bcp_linear_two_sided((a0, a1), (b0, a1 + gap), T)
        assert 0.0 <= mu <= 1.0 and abs(mu - fine) <= eps

    @pytest.mark.parametrize("h, floor", [
        (1.0, 9.0e-14), (0.1, 1.8e-12), (1e-4, 3.5e-9), (1e-8, 4.5e-5), (1e-16, math.inf)])
    def test_floor_before_quadrature(self, h, floor):
        # J = 3 at +-1, 24 at +-0.1, about 2.7e8 at +-1e-8, and past
        # MAX_TERMS at +-1e-16, where there is no floor and no mean.
        if math.isinf(floor):
            with pytest.raises(NumericFailureError, match="series terms"):
                bcp.kernels.line_probability((-h, -h), (h, h), 1.0)
            return
        got, _ = bcp.kernels.line_probability((-h, -h), (h, h), 1.0)
        assert got == pytest.approx(floor, rel=0.02)

    def test_past_term_cap_raises(self):
        with pytest.raises(NumericFailureError, match="series terms"):
            bcp.kernels.bcp_linear_two_sided((-1e-16, -1e-16), (1e-16, 1e-16), 1.0)
