import dataclasses
import math
import os

import numpy as np
import pytest

import bcp.kernels
import bcp.mc
from bcp import (
    BcpEstimate,
    GeneralBoundary,
    McConfig,
    OUSpec,
    PiecewiseLinearBand,
    PiecewiseLinearBoundary,
    StartOutsideBandError,
    band_kernel,
    bcp_linear_one_sided,
    estimate_bcp,
    estimate_bcp_bracketed,
    envelopes,
    parse_boundary,
    reduce,
    uniform_partition,
)
from bcp.boundary import Partition
from bcp.cli import build_parser, run_request
from bcp.kernels import kernel_plan, line_probability
from bcp.mc import _chunk_stream, _worker_lanes, sample_nodes
from oracles import quad_one_sided_n1, reflection_one_sided, two_barrier_survival


def refuse_quadrature(monkeypatch):
    """Make the two-sided control's quadrature raise if it runs; the floor
    that `line_probability` knows beforehand stays real."""
    line_probability = bcp.kernels.line_probability

    def refusing(*args):
        floor, _ = line_probability(*args)

        def refuse():
            raise AssertionError("the quadrature ran")

        return floor, refuse

    monkeypatch.setattr(bcp.mc, "line_probability", refusing)


def upper_band(values, T=1.0):
    values = np.asarray(values, dtype=float)
    p = uniform_partition(T, values.size - 1)
    return PiecewiseLinearBand(
        PiecewiseLinearBoundary.infinite(p, "lower"),
        PiecewiseLinearBoundary.from_values(p, "upper", values),
    )


class TestSampling:
    def test_node_law_moments(self):
        p = uniform_partition(1.0, 4)
        stream = _chunk_stream(123, 0)
        draws = np.array([sample_nodes(p, stream) for _ in range(100_000)])
        # Var(x_i) = t_i and Cov(x_i, x_j) = min(t_i, t_j).
        cov = np.cov(draws.T)
        expect = np.minimum.outer(p.nodes[1:], p.nodes[1:])
        assert np.max(np.abs(cov - expect)) < 0.03
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_increment_scaling_nonuniform(self):
        p = Partition(np.array([0.0, 0.1, 1.0]))
        stream = _chunk_stream(7, 0)
        draws = np.array([sample_nodes(p, stream) for _ in range(50_000)])
        inc = np.diff(np.concatenate([np.zeros((draws.shape[0], 1)), draws], axis=1))
        assert inc[:, 0].var() == pytest.approx(0.1, rel=0.05)
        assert inc[:, 1].var() == pytest.approx(0.9, rel=0.05)


    def test_block_equals_consecutive_vectors(self):
        # The engine draws every block through sample_nodes' out buffer.
        p = Partition(np.array([0.0, 0.1, 0.35, 0.5, 1.0]))
        out = np.empty((7, p.n))
        block = sample_nodes(p, _chunk_stream(11, 0), out)
        assert block is out
        stream = _chunk_stream(11, 0)
        rows = np.array([sample_nodes(p, stream) for _ in range(7)])
        assert np.array_equal(block, rows)

    def test_seeds_at_and_above_2_63_have_their_own_streams(self):
        for s1, s2 in [(0, 2**64 - 1), (2**63, 2**63 + 1)]:
            a = _chunk_stream(s1, 0).standard_normal(8)
            b = _chunk_stream(s2, 0).standard_normal(8)
            assert not np.array_equal(a, b)

    def test_stream_key_is_seed_and_chunk(self):
        for seed in (0, 7, 2**32 + 5, 2**63 - 1):
            key = np.random.Philox(key=[seed, 3])
            np.testing.assert_array_equal(
                _chunk_stream(seed, 3).standard_normal(8),
                np.random.Generator(key).standard_normal(8),
            )


class TestReproducibility:
    def test_same_seed_bitwise(self):
        band = upper_band(np.linspace(1.0, 1.5, 9))
        cfg = McConfig(paths=20_000, seed=99)
        a = estimate_bcp(band, cfg)
        b = estimate_bcp(band, cfg)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_different_seed_differs(self):
        band = upper_band(np.linspace(1.0, 1.5, 9))
        a = estimate_bcp(band, McConfig(paths=20_000, seed=1))
        b = estimate_bcp(band, McConfig(paths=20_000, seed=2))
        assert a.mean != b.mean

    def test_thread_count_does_not_change_result(self, monkeypatch):
        band = upper_band(np.linspace(1.0, 1.5, 9))
        cfg = McConfig(paths=50_000, seed=5, chunk_size=1_000)
        monkeypatch.setenv("BCP_THREADS", "1")
        one = estimate_bcp(band, cfg)
        monkeypatch.setenv("BCP_THREADS", "4")
        four = estimate_bcp(band, cfg)
        assert one.mean == four.mean
        assert one.std_error == four.std_error

    def test_chunk_size_changes_stream(self):
        band = upper_band(np.linspace(1.0, 1.5, 9))
        a = estimate_bcp(band, McConfig(paths=20_000, seed=1, chunk_size=1_000))
        b = estimate_bcp(band, McConfig(paths=20_000, seed=1, chunk_size=2_000))
        # Chunk size is part of the stream layout, not just performance.
        assert a.mean != b.mean

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_estimate_draws_only_its_chunk_streams(self, threads, monkeypatch):
        # The seed and chunk size fix the result: a controlled estimate of
        # 20 000 paths in chunks of 4096 draws the streams (seed, 0) ..
        # (seed, 4), each once, and no other.
        keys = []

        def recorded(seed, chunk_index):
            keys.append((seed, chunk_index))
            return chunk_stream(seed, chunk_index)

        chunk_stream = bcp.mc._chunk_stream
        monkeypatch.setattr(bcp.mc, "_chunk_stream", recorded)
        monkeypatch.setenv("BCP_THREADS", threads)
        daniels = parse_boundary("0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))")
        estimate_bcp_bracketed(None, GeneralBoundary(daniels, "upper", 1.0),
                               uniform_partition(1.0, 128), 50,
                               McConfig(paths=20_000, seed=7, chunk_size=4096))
        assert sorted(keys) == [(7, k) for k in range(5)]

    def test_env_var_thread_override(self, monkeypatch):
        band = upper_band(np.linspace(1.0, 1.5, 5))
        cfg = McConfig(paths=10_000, seed=3, chunk_size=500)
        monkeypatch.setenv("BCP_THREADS", "1")
        base = estimate_bcp(band, cfg)
        monkeypatch.setenv("BCP_THREADS", "3")
        assert estimate_bcp(band, cfg).mean == base.mean

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_two_sided_bracket(self, threads, monkeypatch):
        # Recorded with the two-sided chord control, which took the SE from
        # 0.0045 to 0.0020 and moved the bracket by 0.0012, and again with
        # the fitted lines, which took it to 0.0014 and moved the bracket by
        # 0.0018 (0.73 combined SEs); each 1000-row chunk is one partial
        # 1024-row block.
        monkeypatch.setenv("BCP_THREADS", str(threads))
        daniels = parse_boundary("0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))")
        est = estimate_bcp_bracketed(
            GeneralBoundary.constant(-1.0, "lower", 1.0),
            GeneralBoundary(daniels, "upper", 1.0),
            uniform_partition(1.0, 128),
            50,
            McConfig(paths=8192, seed=1, chunk_size=1000),
        )
        assert est.bracket == (0.23121877102336427, 0.23122165369880546)
        assert est.std_error == 0.0014294433563338403

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_antithetic_bracket_multi_block_chunks(self, threads, monkeypatch):
        # Recorded with the straight-chord control, and again with the
        # fitted line (SE 0.00127 -> 0.00083, bracket moved by 0.82 combined
        # SEs); each 2500-row chunk is drawn and evaluated as blocks of
        # 1024 + 1024 + 452 rows, its control included.
        monkeypatch.setenv("BCP_THREADS", str(threads))
        daniels = parse_boundary("0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))")
        est = estimate_bcp_bracketed(
            None,
            GeneralBoundary(daniels, "upper", 1.0),
            uniform_partition(1.0, 128),
            50,
            McConfig(paths=10_000, seed=2, chunk_size=2_500, antithetic=True),
        )
        assert est.bracket == (0.5200107716744321, 0.5200146279741094)
        assert est.std_error == 0.0008259246950976929

    def test_pinned_plain_estimate(self):
        # Recorded before the plain estimate became the bracketed one with
        # inner = outer; only the bracket changed, from None to (mean, mean).
        # The SE moved by 2 ulps when it came to be summed from each
        # chunk's deviations about its own mean.
        band = upper_band(np.linspace(1.0, 1.5, 9))
        est = estimate_bcp(band, McConfig(paths=20_000, seed=99, chunk_size=1_000))
        assert est.mean == 0.8223140102941133
        assert est.std_error == 0.00251181641678222
        assert est.bracket == (est.mean, est.mean)
        assert est.bracket_width == 0.0


CPUS = os.cpu_count() or 1


class TestWorkerLanes:
    # _worker_lanes is a pure function of BCP_THREADS, the CPU count and the
    # chunk count, so these cases start no thread; "100000" once asked the
    # pool for 100 000 threads.
    @pytest.mark.parametrize(
        "value, chunks, lanes",
        [(None, 10**6, CPUS), (None, 1, 1), ("", 10**6, CPUS), ("0", 10**6, CPUS),
         ("-3", 10**6, CPUS), ("1", 10**6, 1), ("100000", 10**6, CPUS), ("100000", 1, 1)],
    )
    def test_lanes(self, value, chunks, lanes, monkeypatch):
        if value is None:
            monkeypatch.delenv("BCP_THREADS", raising=False)
        else:
            monkeypatch.setenv("BCP_THREADS", value)
        assert _worker_lanes(chunks) == lanes


class TestAccuracy:
    def test_constant_boundary_single_node(self):
        exact = reflection_one_sided(1.0, 1.0)
        band = upper_band(np.array([1.0, 1.0]))
        est = estimate_bcp(band, McConfig(paths=400_000, seed=21))
        assert abs(est.mean - exact) < 3.0 * est.std_error
        assert est.std_error < 1e-3

    def test_sloped_boundary_single_node(self):
        exact = quad_one_sided_n1(0.7, 1.3, 1.0)
        band = upper_band(np.array([0.7, 1.3]))
        est = estimate_bcp(band, McConfig(paths=400_000, seed=22))
        assert abs(est.mean - exact) < 3.0 * est.std_error

    def test_unbiased_across_seeds(self):
        exact = quad_one_sided_n1(1.0, 0.8, 1.0)
        band = upper_band(np.array([1.0, 0.8]))
        errs = []
        ses = []
        for seed in range(20):
            est = estimate_bcp(band, McConfig(paths=20_000, seed=seed))
            errs.append(est.mean - exact)
            ses.append(est.std_error)
        pooled_se = np.mean(ses) / math.sqrt(len(errs))
        assert abs(np.mean(errs)) < 4.0 * pooled_se

    def test_antithetic_matches_plain_within_error(self):
        exact = reflection_one_sided(1.0, 1.0)
        band = upper_band(np.array([1.0, 1.0]))
        est = estimate_bcp(band, McConfig(paths=200_000, seed=9, antithetic=True))
        assert abs(est.mean - exact) < 4.0 * est.std_error


class TestBracketing:
    def test_affine_boundary_zero_width(self):
        gb = GeneralBoundary(lambda t: 1.0 + 0.5 * t, "upper", 1.0)
        p = uniform_partition(1.0, 8)
        est = estimate_bcp_bracketed(None, gb, p, m=20, cfg=McConfig(paths=5_000, seed=4))
        assert est.bracket_width <= 1e-12
        assert est.bracket[0] == pytest.approx(est.bracket[1], abs=1e-12)

    def test_bracket_contains_midpoint_and_orders(self):
        gb = GeneralBoundary(lambda t: 1.0 + 0.3 * math.sin(4.0 * t), "upper", 1.0)
        p = uniform_partition(1.0, 16)
        est = estimate_bcp_bracketed(None, gb, p, m=30, cfg=McConfig(paths=50_000, seed=8))
        lo, hi = est.bracket
        assert lo <= est.mean <= hi
        assert est.mean == pytest.approx(0.5 * (lo + hi))

    def test_refinement_shrinks_bracket(self):
        gb = GeneralBoundary(lambda t: 1.0 + t * t, "upper", 1.0)
        cfg = McConfig(paths=50_000, seed=13)
        w2 = estimate_bcp_bracketed(None, gb, uniform_partition(1.0, 2), 50, cfg).bracket_width
        w128 = estimate_bcp_bracketed(None, gb, uniform_partition(1.0, 128), 50, cfg).bracket_width
        assert w128 < w2 / 100.0

    def test_per_path_ordering_common_random_numbers(self):
        gb = GeneralBoundary(lambda t: 1.0 + 0.2 * math.cos(6.0 * t), "upper", 1.0)
        p = uniform_partition(1.0, 8)
        from bcp import envelopes

        inner_b, outer_b = envelopes(gb, p, m=25)
        inner = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), inner_b)
        outer = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), outer_b)
        z = _chunk_stream(2, 0).standard_normal((2_000, p.n))
        x = np.cumsum(z * np.sqrt(p.dt), axis=1)
        g_in, _ = band_kernel(inner, x)
        g_out, _ = band_kernel(outer, x)
        assert np.all(g_in <= g_out + 1e-12)

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        calls = []

        def counted(band, x, *args, **kwargs):
            calls.append(x.shape[0])
            return kernel(band, x, *args, **kwargs)

        kernel = bcp.mc.band_kernel
        monkeypatch.setattr(bcp.mc, "band_kernel", counted)
        return calls

    def test_exact_band_evaluated_once(self, monkeypatch):
        # (-1, 1) requested at n = 128 runs on 8 intervals: two chunks of
        # 4096 rows, each one block, so one kernel call per chunk, not one
        # per chunk and envelope.  The band is its own control, so g - g_c
        # is 0: the estimate is the quadrature's mu_c +- eps, with SE 0.
        p = uniform_partition(1.0, 8)
        cfg = McConfig(paths=8192, seed=1)
        band = PiecewiseLinearBand(
            PiecewiseLinearBoundary.from_values(p, "lower", np.full(9, -1.0)),
            PiecewiseLinearBoundary.from_values(p, "upper", np.full(9, 1.0)),
        )
        plain = estimate_bcp(band, cfg)
        calls = self._count_kernel_calls(monkeypatch)
        est = estimate_bcp_bracketed(
            GeneralBoundary.constant(-1.0, "lower", 1.0),
            GeneralBoundary.constant(1.0, "upper", 1.0), uniform_partition(1.0, 128), 50, cfg,
        )
        assert calls == [4096] * 2
        mu, eps = line_probability((-1.0, -1.0), (1.0, 1.0), 1.0)[1]()
        assert est.bracket == (mu - eps, mu + eps) and est.std_error == 0.0
        assert est.bracket[0] <= two_barrier_survival(-1.0, 1.0, 1.0) <= est.bracket[1]
        assert abs(est.mean - plain.mean) < 4.0 * plain.std_error

    def test_empty_inner_band_gives_zero_lower_end(self, monkeypatch):
        # The inner envelope of 0.0005 + sqrt(t) lies below 0 at t = 0, so
        # the inner band excludes the start: only the outer band and its
        # control are evaluated, per 1024-row block.
        p = uniform_partition(1.0, 128)
        cfg = McConfig(paths=8192, seed=1)
        gb = GeneralBoundary(parse_boundary("0.0005+sqrt(t)"), "upper", 1.0)
        inner, outer = envelopes(gb, p, 50)
        assert inner.right[0] < 0.0 < outer.right[0]
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), outer)
        upper = bcp.mc._estimate(band, band, cfg)
        calls = self._count_kernel_calls(monkeypatch)
        est = estimate_bcp_bracketed(None, gb, p, 50, cfg)
        assert calls == [1024] * 16
        assert est.bracket == (0.0, upper.mean) and est.std_error == upper.std_error
        assert est.mean == 0.5 * upper.mean

    def test_rare_event_std_error_is_not_zero(self):
        # 4094 of the 4096 g are exactly 1 and two are 1 - 9e-15: the sums
        # of g and g^2 both round to 4096, so the SE from them read 0.  Each
        # chunk's deviations about its own mean keep the spread.
        args = build_parser().parse_args(
            ["bm", "--upper=4+2*sin(3.14159*t)", "--T", "1", "--n", "16", "--paths", "4096",
             "--seed", "3"])
        r = run_request(args).results
        p = uniform_partition(1.0, 16)
        _, outer = envelopes(GeneralBoundary(parse_boundary("4+2*sin(3.14159*t)"), "upper", 1.0),
                             p, 50)
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), outer)
        plain = estimate_bcp(band, McConfig(paths=4096, seed=3))
        assert plain.mean == 1.0 and 0.0 < plain.std_error < 1e-16
        assert r["std_error"] > 0.0

    def test_std_error_is_larger_end_without_control(self):
        # Without a control the SE is still the larger of the two ends':
        # here the inner band's, 5.08e-3, not the outer band's, 6.29e-4, at
        # n = 16.
        inner, outer = (upper_band(np.full(17, v)) for v in (0.5, 3.0))
        cfg = McConfig(paths=8192, seed=1)
        ses = [estimate_bcp(band, cfg).std_error for band in (inner, outer)]
        est = bcp.mc._estimate(inner, outer, cfg, controlled=False)
        assert ses[0] > 8.0 * ses[1] and est.std_error == ses[0]

    def test_straight_side_keeps_bracket_order(self):
        # Two hand-built bands whose lower sides, -0.5 - t, are two ulps
        # apart: rounding in the series puts some paths' inner g above their
        # outer g.  Each inner g is capped at the outer one, and the inner
        # sum stays below.
        p = uniform_partition(1.0, 128)
        v = -0.5 - p.nodes
        hi = PiecewiseLinearBoundary.from_values(p, "upper", np.ones(129))
        outer = PiecewiseLinearBand(PiecewiseLinearBoundary.from_values(p, "lower", v), hi)
        inner = PiecewiseLinearBand(
            PiecewiseLinearBoundary.from_values(p, "lower", np.nextafter(np.nextafter(v, 0), 0)),
            hi)
        x = sample_nodes(p, _chunk_stream(3, 0), np.empty((4096, p.n)))
        g_in, _ = band_kernel(inner, x)
        g_out, _ = band_kernel(outer, x)
        assert np.any(g_in > g_out) and np.max(g_in - g_out) < 1e-12
        cfg = McConfig(paths=4096, seed=3)
        est = bcp.mc._estimate(inner, outer, cfg, controlled=False)
        assert est.bracket == (float(np.sum(np.minimum(g_in, g_out))) / 4096,
                               float(np.sum(g_out)) / 4096)
        # Against the chord control, kept here, the capped inner g still
        # gives the lower end: mu_c + mean(min(g_in, g_out) - g_c) - eps.
        control, cols, mean, _ = bcp.mc._control(outer)
        g_c, _ = band_kernel(control, x[:, cols])
        mu, eps = mean()
        assert bcp.mc._estimate(inner, outer, cfg).bracket == (
            mu + float(np.sum(np.minimum(g_in, g_out) - g_c)) / 4096 - eps,
            mu + float(np.sum(g_out - g_c)) / 4096 + eps)

    @pytest.mark.parametrize("upper", ["1", "1+0.5*t"])
    def test_straight_side_evaluated_once(self, upper, monkeypatch):
        # A straight side is exact, like a constant one, and the straight
        # band runs on 8 intervals: 2 kernel calls for 8192 paths requested
        # at n = 128, where its two envelopes on 128 intervals made 16.  The
        # band is its own control: the bracket is mu_c +- eps, with SE 0.
        p = uniform_partition(1.0, 128)
        calls = self._count_kernel_calls(monkeypatch)
        est = estimate_bcp_bracketed(
            GeneralBoundary.constant(-1.0, "lower", 1.0),
            GeneralBoundary(parse_boundary(upper), "upper", 1.0), p, 50,
            McConfig(paths=8192, seed=3),
        )
        mu, eps = line_probability((-1.0, -1.0), (1.0, 1.5 if "t" in upper else 1.0), 1.0)[1]()
        assert calls == [4096] * 2 and est.std_error == 0.0
        assert est.bracket == (mu - eps, mu + eps)  # width 2 eps, 1.8e-13 and 2.1e-13

    def test_no_side_gives_one(self):
        p = uniform_partition(1.0, 8)
        est = estimate_bcp_bracketed(None, None, p, 10, McConfig(paths=100, seed=1))
        assert (est.mean, est.std_error, est.bracket) == (1.0, 0.0, (1.0, 1.0))

    def test_two_sided_bracketed(self):
        lo = GeneralBoundary(lambda t: -1.0 - 0.1 * t, "lower", 1.0)
        hi = GeneralBoundary(lambda t: 1.0 + 0.1 * t * t, "upper", 1.0)
        p = uniform_partition(1.0, 32)
        est = estimate_bcp_bracketed(lo, hi, p, m=30, cfg=McConfig(paths=40_000, seed=6))
        assert 0.0 < est.mean < 1.0
        assert est.bracket[0] <= est.bracket[1]


def fitted_ends(side):
    """(c(0), c(S)) of the least-squares line through a side's values at its nodes."""
    s = side.partition.nodes
    slope, intercept = np.polyfit(s, side.right, 1)
    return intercept, intercept + slope * s[-1]


def line_ends(line):
    return line.right[0], line.right[-1]


class TestControl:
    """A band's control: the band between straight lines standing in for its
    finite sides, the least-squares lines or else the chords, on at most 32
    intervals, whose mean `bcp_linear_one_sided` gives exactly for one side,
    and `line_probability` to within its eps for two."""

    @pytest.mark.parametrize("side, c0, c_end, n", [
        ("upper", 1.0, 1.6, 128), ("upper", 1.0, 0.3, 128), ("lower", -0.8, -0.2, 128),
        ("lower", -0.6, -1.4, 128), ("upper", 0.7, 1.3, 4), ("lower", -0.7, 0.1, 4),
        ("upper", 0.8, 1.2, 40)],
        ids=["upper_rising", "upper_falling", "lower_rising", "lower_falling",
             "upper_n4", "lower_n4", "upper_n40"])
    def test_mean_is_exact(self, side, c0, c_end, n):
        p = uniform_partition(1.5, n)
        # A curved side with these ends: the control's line is its
        # least-squares fit, which passes through neither end.
        bend = 0.3 * np.sin(math.pi * p.nodes / p.T) * (1.0 if side == "upper" else -1.0)
        finite = PiecewiseLinearBoundary.from_values(
            p, side, c0 + (c_end - c0) * p.nodes / p.T + bend)
        other = PiecewiseLinearBoundary.infinite(p, "lower" if side == "upper" else "upper")
        band = PiecewiseLinearBand(*((other, finite) if side == "upper" else (finite, other)))
        control, cols, mean, floor = bcp.mc._control(band)
        (mean, eps), line = mean(), control.upper if side == "upper" else control.lower
        assert eps == floor == 0.0
        # Every (n/32)-th column, rounded where 32 does not divide n = 40.
        assert control.partition.n == np.empty((1, n))[:, cols].shape[1] == min(n, 32)
        assert np.array_equal(p.nodes[1:][cols], control.partition.nodes[1:])
        ends = line_ends(line)
        assert ends == pytest.approx(fitted_ends(finite), rel=1e-12, abs=1e-12)
        assert min(abs(ends[0] - c0), abs(ends[1] - c_end)) > 0.05
        _, chord = bcp.mc._side_lines(finite, np.r_[0, cols + 1], control.partition)
        assert chord == line_ends(finite)
        g = np.concatenate([
            band_kernel(control, sample_nodes(p, _chunk_stream(17, k), np.empty((20_000, n)))[:, cols])[0]
            for k in range(10)])
        assert abs(g.mean() - mean) < 4.0 * g.std(ddof=1) / math.sqrt(g.size)

    @pytest.mark.parametrize("lower, upper", [
        (np.full(9, -1e-16), np.full(9, 1e-16)), (None, None),
        (None, np.r_[np.full(8, 1e308), -1e308])],
        ids=["two_sided_past_term_cap", "no_side", "chord_overflows"])
    def test_bands_without_control(self, lower, upper):
        # The chords of (-1e-16, 1e-16) on one interval would need more than
        # MAX_TERMS series terms; a side whose rise c(S) - c(0) overflows has
        # no chord, and where the sum of its values overflows too, no fitted
        # line.  These bands keep plain Monte Carlo.
        p = uniform_partition(1.0, 8)
        band = PiecewiseLinearBand(*(
            PiecewiseLinearBoundary.infinite(p, side) if v is None
            else PiecewiseLinearBoundary.from_values(p, side, v)
            for side, v in (("lower", lower), ("upper", upper))))
        assert bcp.mc._control(band) is None

    def test_overflowing_chord_takes_the_fitted_line(self):
        # The chord's rise from 1e308 to -1e308 overflows, but the
        # least-squares line runs from 5.3e307 to -5.3e307: the start lies
        # below it, and its mean is exact and finite.
        p = uniform_partition(1.0, 8)
        side = PiecewiseLinearBoundary.from_values(p, "upper", np.r_[1e308, np.zeros(7), -1e308])
        control, _, mean, floor = bcp.mc._control(
            PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), side))
        ends = line_ends(control.upper)
        assert ends == pytest.approx((1e308 / 1.875, -1e308 / 1.875), rel=1e-12)
        assert mean() == (0.0, 0.0) and floor == 0.0

    @pytest.mark.parametrize("argv, line", [
        (["bm", "--upper", "1"], (1.0, 0.0)),
        (["bm", "--upper", "1+0.5*t"], (1.0, 0.5)),
        (["bm", "--lower=-0.75+0.25*t"], (0.75, -0.25))], ids=["upper1", "sloped", "lower"])
    def test_straight_band_is_its_own_control(self, argv, line):
        # The band runs on one interval, where the control is the band itself.
        args = build_parser().parse_args(argv + ["--T", "1", "--paths", "8192", "--seed", "3"])
        r = run_request(args).results
        assert r["mean"] == bcp_linear_one_sided(*line, 1.0) and r["std_error"] == 0.0

    def test_own_control_evaluated_once(self, monkeypatch):
        # bm --upper 1 runs on one interval, where the chord is the side
        # itself: _control returns the band, whose g serves as g_c, so each
        # of the two 4096-row blocks makes one kernel call, not two.
        calls = TestBracketing._count_kernel_calls(monkeypatch)
        args = build_parser().parse_args(
            ["bm", "--upper", "1", "--T", "1", "--paths", "8192", "--seed", "3"])
        r = run_request(args).results
        assert calls == [4096] * 2
        assert r["mean"] == bcp_linear_one_sided(1.0, 0.0, 1.0) and r["std_error"] == 0.0

    @pytest.mark.parametrize("lower, upper, n, seed, fitted", [
        ("-1-0.5*sin(3.14159*t)", "1+0.5*sin(3.14159*t)", 128, 31, True),
        ("-0.6-0.8*t*t", "0.4+t-0.3*sin(5*t)", 128, 32, False),
        ("-1.5+t", "2-1.8*t*t", 128, 33, True),
        ("-0.6-0.8*t*t", "0.4+t-0.3*sin(5*t)", 40, 34, False),
        ("-1-0.5*sin(3.14159*t)", "1+0.5*sin(3.14159*t)", 4, 35, True)],
        ids=["bulge", "widening", "narrowing", "widening_n40", "bulge_n4"])
    def test_two_sided_mean_within_error(self, lower, upper, n, seed, fitted):
        # The control of a curved two-sided band is the band between its
        # sides' least-squares lines, on up to 32 of its intervals; the
        # straight -1.5 + t keeps its chord, which is also its fit.  The
        # widening band's fitted upper line passes 0.06-0.07 above the
        # start, where the chord passes 0.4: the floor's rounding term grows
        # as 1/r, to 1.1-1.3e-12, above the chords', so the chords are the
        # control.  E[g_c] = mu_c, and eps is below 1e-12.
        p = uniform_partition(1.0, n)
        (_, lo), (_, hi) = (envelopes(GeneralBoundary(parse_boundary(e), side, 1.0), p, 50)
                            for e, side in ((lower, "lower"), (upper, "upper")))
        control, cols, mean, floor = bcp.mc._control(PiecewiseLinearBand(lo, hi))
        fits, chords = [fitted_ends(s) for s in (lo, hi)], [line_ends(s) for s in (lo, hi)]
        assert (line_probability(*fits, 1.0)[0] < line_probability(*chords, 1.0)[0]) == fitted
        assert control.partition.n == min(n, 32) and 0.0 < floor < 1e-12
        assert np.ravel([line_ends(control.lower), line_ends(control.upper)]) == (
            pytest.approx(np.ravel(fits if fitted else chords), rel=1e-12, abs=1e-12))
        mu, eps = mean()
        assert floor <= eps < 1e-12  # eps = floor + |Q_K - Q_2K|
        g = np.concatenate([
            band_kernel(control, sample_nodes(p, _chunk_stream(seed, k),
                                              np.empty((20_000, n)))[:, cols])[0]
            for k in range(5)])
        assert abs(g.mean() - mu) < 4.0 * g.std(ddof=1) / math.sqrt(g.size)
        # A fitted upper line passes through neither end of its side.
        assert min(abs(fits[1][0] - chords[1][0]), abs(fits[1][1] - chords[1][1])) > 0.03

    def test_two_sided_control_kept(self):
        # (-1, Daniels): the control takes the SE from 0.0032 to 9.8e-4 at
        # 16384 paths (1.4e-3 with chords on 16 columns), and the bracket is
        # mu_c + mean(g - g_c) +- eps.
        args = build_parser().parse_args(
            ["bm", "--lower=-1", "--upper", "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))",
             "--T", "1", "--paths", "16384", "--seed", "1"])
        r = run_request(args).results
        assert r["std_error"] < 1.6e-3 and r["lower"] < r["mean"] < r["upper"]

    @pytest.mark.parametrize("h, n", [("1e-4", "4"), ("1e-8", "4"), ("1e160", "128"),
                                      ("0.1", "4")])
    def test_quadrature_skipped_where_it_cannot_pay(self, h, n, monkeypatch):
        # Where no path stays inside, the plain SE is 0; at +-0.1 it is
        # 2.2e-54, below the quadrature's rounding floor of 1.8e-12.
        refuse_quadrature(monkeypatch)
        args = build_parser().parse_args(
            ["bm", f"--lower=-{h}", "--upper", h, "--T", "1", "--n", n,
             "--paths", "8192", "--seed", "1"])
        assert run_request(args).results["std_error"] < 1e-50

    def test_floor_skips_quadrature_on_rounding_level_se(self, monkeypatch):
        # (-0.01, 0.01) over one interval of length 10 needs J = 774 series
        # terms.  The plain SE, 3.6e-18, is positive but only the kernel's
        # rounding; the floor known before the quadrature, 1.0e-10, is
        # above it, so the quadrature is skipped, not run to lose.
        refuse_quadrature(monkeypatch)
        args = build_parser().parse_args(
            ["bm", "--lower=-0.01", "--upper", "0.01", "--T", "10", "--n", "1",
             "--paths", "20000", "--seed", "1"])
        r = run_request(args).results
        assert (r["mean"], r["std_error"]) == (2.373101715136272e-17, 3.62428957457081e-18)
        p = uniform_partition(10.0, 1)
        band = PiecewiseLinearBand(*(PiecewiseLinearBoundary.from_values(p, side, [v, v])
                                     for side, v in (("lower", -0.01), ("upper", 0.01))))
        assert kernel_plan(band)[1].tolist() == [774]

    @staticmethod
    def _band(lower, upper, p):
        return PiecewiseLinearBand(PiecewiseLinearBoundary.from_values(p, "lower", lower),
                                   PiecewiseLinearBoundary.from_values(p, "upper", upper))

    def test_crossed_lines_give_no_control(self):
        # Sides 7.7e-24 apart at s = 0 and one ulp apart at s = 1, parted in
        # between by a bump s exp(-30 s) that lies mostly in the first tenth:
        # rounding makes their chords on 32 intervals cross, and the bump
        # tilts their least-squares lines until they cross at s = 1, so the
        # band keeps plain Monte Carlo.
        p = uniform_partition(1.0, 128)
        s, c = p.nodes, 3.85261614173547e-24
        a1 = 2.6918966828234634
        b1 = float(np.nextafter(a1, math.inf))
        bump = s * np.exp(-30.0 * s)
        lv, uv = -c + (a1 + c) * s - bump, c + (b1 - c) * s + bump
        lv[-1], uv[-1] = a1, b1
        band = self._band(lv, uv, p)
        q = s[::4]
        assert np.any(-c + (a1 + c) * q >= c + (b1 - c) * q)
        (a0, a_end), (b0, b_end) = (fitted_ends(side) for side in (band.lower, band.upper))
        assert a0 < 0.0 < b0 and a_end > b_end
        assert bcp.mc._control(band) is None
        cfg = McConfig(paths=4096, seed=1)
        assert bcp.mc._estimate(band, band, cfg) == estimate_bcp(band, cfg)

    def test_crossed_fitted_lines_take_the_chords(self):
        # (-0.5, 0.5) parted by 400 s exp(-30 s): the least-squares lines,
        # -2.06 to 0.18 and 2.06 to -0.18, cross, so the control is the
        # band between the chords, which lowers the SE from 1.1e-3 to
        # 7.5e-4.
        p = uniform_partition(1.0, 128)
        bump = 400.0 * p.nodes * np.exp(-30.0 * p.nodes)
        band = self._band(-0.5 - bump, 0.5 + bump, p)
        (a0, a_end), (b0, b_end) = (fitted_ends(side) for side in (band.lower, band.upper))
        assert a0 < 0.0 < b0 and a_end > b_end
        control, _, _, _ = bcp.mc._control(band)
        for line, side in ((control.lower, band.lower), (control.upper, band.upper)):
            assert line_ends(line) == line_ends(side)
        cfg = McConfig(paths=8192, seed=1)
        est, plain = bcp.mc._estimate(band, band, cfg), estimate_bcp(band, cfg)
        assert est.std_error < 0.8 * plain.std_error
        assert abs(est.mean - plain.mean) < 4.0 * plain.std_error

    def test_fit_with_start_outside_takes_the_chord(self):
        # The least-squares line of 0.01 + 2 s^2 starts at -0.32, below the
        # start, so the control keeps the side's chord, 0.01 to 2.01.
        p = uniform_partition(1.0, 128)
        _, outer = envelopes(GeneralBoundary(parse_boundary("0.01+2*t*t"), "upper", 1.0), p, 50)
        assert fitted_ends(outer)[0] == pytest.approx(-0.32, abs=5e-3)
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), outer)
        control, _, mean, _ = bcp.mc._control(band)
        assert line_ends(control.upper) == line_ends(outer)
        assert mean() == (bcp_linear_one_sided(outer.right[0], outer.left[-1] - outer.right[0],
                                               1.0), 0.0)

    def test_large_chunk_runs_control_per_block(self, monkeypatch):
        # One 20 000-row chunk: its control runs on each block, 19 of 1024
        # rows and one of 544, and the estimate is mu_c plus the mean of
        # g - g_c over the chunk.
        p = uniform_partition(1.0, 128)
        _, outer = envelopes(GeneralBoundary(parse_boundary("1+0.3*sin(4*t)"), "upper", 1.0),
                             p, 50)
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), outer)
        calls = TestBracketing._count_kernel_calls(monkeypatch)
        est = bcp.mc._estimate(band, band, McConfig(paths=20_000, seed=6, chunk_size=20_000))
        assert calls[::2] == calls[1::2] == [1024] * 19 + [544]  # the control's, the band's
        control, cols, mean, _ = bcp.mc._control(band)
        x = sample_nodes(p, _chunk_stream(6, 0), np.empty((20_000, p.n)))
        d = band_kernel(band, x)[0] - band_kernel(control, x[:, cols])[0]
        s1 = float(np.sum(d))
        m2 = float(np.sum((d - s1 / 20_000) ** 2))  # squared deviations about the mean
        assert est.mean == mean()[0] + s1 / 20_000
        assert est.std_error == math.sqrt(m2 / 19_999 / 20_000)

    @pytest.mark.parametrize("lower", [[], ["--lower=-1"]], ids=["one_sided", "two_sided"])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_thread_count_does_not_change_result(self, antithetic, lower, monkeypatch):
        argv = ["bm", "--upper", "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))", "--T", "1",
                "--paths", "10000", "--seed", "4", "--chunk-size", "3000"] + lower
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("BCP_THREADS", threads)
            args = build_parser().parse_args(argv + (["--antithetic"] if antithetic else []))
            results.append(run_request(args).results)
        assert results[0] == results[1]

    @pytest.mark.parametrize("side, seed", [
        ("--upper=3.2+t*t", "1"), ("--lower=-3.2-t*t", "1")], ids=["upper", "lower"])
    def test_clipped_at_one(self, side, seed):
        # On these draws the control is kept and mu_c + mean(g - g_c) lies
        # above 1 for the outer band, which BcpEstimate would reject unclipped.
        # (With 32 control columns, 4 + 2 sin(pi t) and -3.5 - 2 sin(pi t)
        # reach the clip with a kept control on none of seeds 1-400.)
        args = build_parser().parse_args(
            ["bm", side, "--T", "1", "--n", "16", "--paths", "4096", "--seed", seed])
        r = run_request(args).results
        assert r["upper"] == 1.0 and 0.0 < r["std_error"]
        assert 0.0 <= r["lower"] <= r["mean"] <= r["upper"]

    def test_clipped_at_zero(self, monkeypatch):
        # A kept end falls below 0 only where P is below about 1/paths; a
        # control mean of -0.5 puts it there.  The straight band is its own
        # control, so the control is kept on every draw.
        control = bcp.mc._control
        monkeypatch.setattr(bcp.mc, "_control",
                            lambda band: (*control(band)[:2], lambda: (-0.5, 0.0), 0.0))
        args = build_parser().parse_args(
            ["bm", "--upper", "1+0.5*t", "--T", "1", "--paths", "4096", "--seed", "1"])
        r = run_request(args).results
        assert (r["lower"], r["mean"], r["upper"], r["std_error"]) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("expr, kept", [
        ("1+sin(3.14159*t)", True), ("2-1.9*sin(3.14159*t)", True),
        ("4+2*sin(3.14159*t)", False), ("0.0005+sqrt(t)", False),
        ("0.3+2*t-1.9*sin(3.14159*t)", False)])
    def test_control_kept_only_where_it_lowers_the_error(self, expr, kept):
        # Var(g - g_c) / Var(g) at n = 128: the fitted line's 0.54, 0.80,
        # 1.00 and 1.30, and 11.4 for the chord of 0.3 + 2t - 1.9 sin(pi t),
        # whose fit starts at -0.91, below the start.
        p = uniform_partition(1.0, 128)
        _, outer = envelopes(GeneralBoundary(parse_boundary(expr), "upper", 1.0), p, 50)
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), outer)
        cfg = McConfig(paths=65536, seed=2)
        est, plain = bcp.mc._estimate(band, band, cfg), estimate_bcp(band, cfg)
        assert (est.std_error < plain.std_error) == kept
        assert (est == plain) != kept

    @pytest.mark.parametrize("expr", [
        "0.0005+sqrt(t)", "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))"],
        ids=["sqrt", "daniels"])
    def test_control_takes_the_fitted_line(self, expr):
        # Both sets of lines make a control here, and the fitted line's
        # floor, 0 for one side, is not above the chord's, so the fit is the
        # control: Var g / Var(g - g_c) at n = 128 is 17.0 against the
        # chord's 8.7 on Daniels, but 0.77 against 1.58 on 0.0005 + sqrt(t),
        # whose paths cross mostly near the start, where the fit lies 0.24
        # above the side.
        p = uniform_partition(1.0, 128)
        _, outer = envelopes(GeneralBoundary(parse_boundary(expr), "upper", 1.0), p, 50)
        band = PiecewiseLinearBand(PiecewiseLinearBoundary.infinite(p, "lower"), outer)
        control, _, _, floor = bcp.mc._control(band)
        assert floor == 0.0 and line_ends(outer) != line_ends(control.upper)
        assert line_ends(control.upper) == pytest.approx(fitted_ends(outer), rel=1e-12)

    def test_term_counts_once_per_band(self, monkeypatch):
        # Each band's J comes from one _term_counts call per estimate, where
        # every 1024-row block once made its own: 16 calls for these 8192 paths.
        # The bands are the inner, the outer, the control, and the
        # one-interval bands of the fitted lines and of the chords, which
        # `line_probability` builds and plans once for both its floor and
        # its quadrature.
        calls = []

        def counted(band, min_terms):
            calls.append(band)
            return term_counts(band, min_terms)

        term_counts = bcp.kernels._term_counts
        monkeypatch.setattr(bcp.kernels, "_term_counts", counted)
        daniels = parse_boundary("0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))")
        est = estimate_bcp_bracketed(
            GeneralBoundary.constant(-1.0, "lower", 1.0), GeneralBoundary(daniels, "upper", 1.0),
            uniform_partition(1.0, 128), 50, McConfig(paths=8192, seed=1))
        assert sorted(band.partition.n for band in calls) == [1, 1, 32, 128, 128]
        assert len({id(band) for band in calls}) == 5
        assert est.bracket[0] < est.bracket[1]


class TestStraightBands:
    """A band whose sides are absent or straight over [0, T] runs on the
    coarsest sub-partition whose intervals need no more series terms."""

    @staticmethod
    def _run(argv, monkeypatch):
        """The CLI results of argv at T = 1, and the n of each band passed to _estimate."""
        ns = []

        def spied(inner, outer, cfg):
            ns.append(outer.partition.n)
            return estimate(inner, outer, cfg)

        estimate = bcp.mc._estimate
        monkeypatch.setattr(bcp.mc, "_estimate", spied)
        args = build_parser().parse_args(argv + ["--T", "1"])
        return run_request(args).results, ns

    @pytest.mark.parametrize("argv, n", [
        (["bm", "--lower=-1", "--upper", "1", "--n", "128"], 8),
        (["bm", "--lower=-1", "--upper", "1", "--n", "16"], 8),
        (["bm", "--upper", "1"], 1),
        (["bm", "--upper", "1+0.5*t"], 1),
        (["bm", "--lower=-1", "--upper", "1+0.5*abs(t-0.5)", "--n", "16"], 16),
        (["ou-td", "--kappa-fn", "0.5", "--alpha-fn", "0", "--sigma-fn", "1", "--x0", "0",
          "--upper", "exp(0.5*t)", "--n", "16"], 16),
    ], ids=["pm1_n128", "pm1_n16", "upper1", "upper_sloped", "kink_at_node", "ou_td_const"])
    def test_partition_run(self, argv, n, monkeypatch):
        # A side with a kink at a node is exact but not one line, and the
        # reduced ou_td_const side is straight only to within ulps.
        _, ns = self._run(argv + ["--paths", "4096", "--seed", "3"], monkeypatch)
        assert ns == [n]

    def test_kinked_side_keeps_value(self, monkeypatch):
        # Re-recorded with the two-sided chord control (-1, 1.25), which took
        # the SE from 0.0072 to 0.0023 and the mean from 0.4301 to 0.4282, and
        # with the upper side's least-squares line, which took them to 0.0014
        # and 0.4246 (1.31 combined SEs); the bracket is mu_c + mean(g - g_c)
        # +- eps.
        argv = ["bm", "--lower=-1", "--upper", "1+0.5*abs(t-0.5)", "--n", "16",
                "--paths", "4096", "--seed", "3"]
        r, _ = self._run(argv, monkeypatch)
        assert (r["mean"], r["std_error"], r["lower"], r["upper"]) == (
            0.4246019580485159, 0.0014106771201544757, 0.42460195804842193,
            0.4246019580486099)

    @pytest.mark.parametrize("bound, mean, se", [
        ("1e-4", 0.0, 0.0), ("0.1", 2.8495944756285945e-54, 2.1940039826216624e-54)])
    def test_narrow_band_keeps_partition(self, bound, mean, se, monkeypatch):
        # On longer intervals these bands need more series terms: at n = 1,
        # +-1e-4 needs about 2e4 per interval, and +-0.1 loses its 3e-54 to
        # rounding in the alternating sum.  The SE of +-0.1 moved by 2 ulps
        # when it came to be summed from each chunk's deviations about its mean.
        argv = ["bm", f"--lower=-{bound}", "--upper", bound, "--n", "4",
                "--paths", "8192", "--seed", "1"]
        r, ns = self._run(argv, monkeypatch)
        assert ns == [4] and (r["mean"], r["std_error"]) == (mean, se)

    @pytest.mark.parametrize("bound, n", [("1e-16", "128"), ("3e-16", "4")])
    def test_band_past_the_term_cap_when_merged_keeps_partition(self, bound, n, monkeypatch):
        # Every merged partition of these bands needs more than 2^53 terms
        # per interval; it is skipped, where it once raised (exit 3).
        argv = ["bm", f"--lower=-{bound}", "--upper", bound, "--n", n,
                "--paths", "2000", "--seed", "1"]
        r, ns = self._run(argv, monkeypatch)
        assert ns == [int(n)] and r["mean"] == 0.0

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_equals_plain_estimate_on_coarse_band(self, threads, antithetic, monkeypatch):
        # The coarse band is its own control, so both estimates are mu_c +-
        # eps with SE 0; the plain estimate on it agrees to within its SE.
        monkeypatch.setenv("BCP_THREADS", threads)
        cfg = McConfig(paths=16384, seed=5, antithetic=antithetic)
        p = uniform_partition(1.0, 8)
        coarse = PiecewiseLinearBand(
            PiecewiseLinearBoundary.from_values(p, "lower", np.full(9, -1.0)),
            PiecewiseLinearBoundary.from_values(p, "upper", 1.0 + 0.5 * p.nodes),
        )
        est = estimate_bcp_bracketed(
            GeneralBoundary.constant(-1.0, "lower", 1.0),
            GeneralBoundary(parse_boundary("1+0.5*t"), "upper", 1.0),
            uniform_partition(1.0, 128), 50, cfg,
        )
        plain = estimate_bcp(coarse, cfg)
        assert est == bcp.mc._estimate(coarse, coarse, cfg) and est.std_error == 0.0
        assert abs(est.mean - plain.mean) < 4.0 * plain.std_error

    def test_standard_error_falls(self):
        # The kernel on merged intervals is the conditional expectation of
        # the product of theirs, so the variance cannot rise.
        cfg = McConfig(paths=16384, seed=1)
        p = uniform_partition(1.0, 128)
        fine = PiecewiseLinearBand(
            PiecewiseLinearBoundary.from_values(p, "lower", np.full(129, -1.0)),
            PiecewiseLinearBoundary.from_values(p, "upper", np.full(129, 1.0)),
        )
        est = estimate_bcp_bracketed(
            GeneralBoundary.constant(-1.0, "lower", 1.0),
            GeneralBoundary.constant(1.0, "upper", 1.0), p, 50, cfg,
        )
        assert est.std_error < estimate_bcp(fine, cfg).std_error


class TestValidation:
    def test_start_outside_band(self):
        with pytest.raises(StartOutsideBandError):
            band = upper_band(np.array([-0.5, -0.5]))
            estimate_bcp(band, McConfig(paths=100, seed=0))

    def test_start_below_lower_only_band(self):
        p = uniform_partition(1.0, 2)
        with pytest.raises(StartOutsideBandError, match=r"\(0\.2, inf\) at t=0"):
            band = PiecewiseLinearBand(
                PiecewiseLinearBoundary.from_values(p, "lower", [0.2, 0.1, 0.0]),
                PiecewiseLinearBoundary.infinite(p, "upper"),
            )
            estimate_bcp(band, McConfig(paths=100, seed=0))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            McConfig(paths=0)
        with pytest.raises(ValueError):
            McConfig(paths=10, chunk_size=0)

    def test_no_series_setting(self):
        # The kernel picks its series terms from the band alone.
        assert "series" not in {f.name for f in dataclasses.fields(McConfig)}

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            McConfig(seed=seed)

    def test_single_path_has_zero_standard_error(self):
        est = estimate_bcp(upper_band(np.array([1.0, 1.0])), McConfig(paths=1, seed=0))
        assert est.paths == 1 and est.std_error == 0.0
        assert 0.0 < est.mean <= 1.0 and est.bracket == (est.mean, est.mean)

    def test_bracket_defaults_to_mean(self):
        est = BcpEstimate(mean=0.5, std_error=0.0, paths=1)
        assert est.bracket == (0.5, 0.5)
        assert est.bracket_width == 0.0

    def test_partition_on_wrong_horizon(self):
        # The reduced OU problem lives on [0, e - 1], not [0, 1]; on [0, 1]
        # it once returned 0.8033 against the published 0.721463.
        red = reduce(OUSpec(x0=0.0, kappa=0.5, alpha=0.0, sigma=1.0), None,
                     GeneralBoundary.constant(1.0, "upper", 1.0), 1.0)
        assert red.horizon == pytest.approx(math.e - 1.0)
        with pytest.raises(ValueError, match=r"partition horizon 1\.0 != boundary horizon 1\.718"):
            estimate_bcp_bracketed(None, red.upper, uniform_partition(1.0, 128), 50,
                                   McConfig(paths=4096, seed=1))

    def test_estimate_invariants(self):
        from bcp import BcpEstimate

        with pytest.raises(ValueError):
            BcpEstimate(mean=1.5, std_error=0.0, paths=1)
        with pytest.raises(ValueError):
            BcpEstimate(mean=0.5, std_error=-1.0, paths=1)
        with pytest.raises(ValueError):
            BcpEstimate(mean=0.5, std_error=0.0, paths=1, bracket=(0.6, 0.4))
