import math

import numpy as np
import pytest

from bcp import (
    EvaluationError,
    GeneralBoundary,
    InvalidBoundariesError,
    PiecewiseLinearBand,
    PiecewiseLinearBoundary,
    StartOutsideBandError,
    envelopes,
    parse_boundary,
    uniform_partition,
)
from bcp.boundary import Partition, chord_boundary, evaluate, is_straight


DANIELS = "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))"


def daniels(t):
    if t == 0.0:
        return 0.5
    return 0.5 - t * math.log(0.25 + 0.25 * math.sqrt(1.0 + 8.0 * math.exp(-1.0 / t)))


class TestPartition:
    def test_single_interval(self):
        p = uniform_partition(1.0, 1)
        assert np.array_equal(p.nodes, [0.0, 1.0])
        assert p.n == 1 and p.T == 1.0

    def test_quarters(self):
        p = uniform_partition(1.0, 4)
        assert np.allclose(p.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_128(self):
        p = uniform_partition(1.0, 128)
        assert p.nodes.size == 129
        assert np.allclose(p.dt, 1.0 / 128.0)

    @pytest.mark.parametrize("T,n", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -3)])
    def test_invalid_args(self, T, n):
        with pytest.raises(ValueError):
            uniform_partition(T, n)

    @pytest.mark.parametrize("T, message", [(math.inf, "positive and finite, got inf"),
                                            (math.nan, "positive, got nan")])
    def test_horizon_must_be_finite(self, T, message):
        # np.linspace(0, inf) starts at NaN; the horizon is named instead.
        with pytest.raises(ValueError, match=f"horizon must be {message}"):
            uniform_partition(T, 4)

    @pytest.mark.parametrize("nodes", [[0.0], [[0.0, 1.0]]], ids=["one_node", "two_dims"])
    def test_needs_two_nodes_in_one_dimension(self, nodes):
        with pytest.raises(ValueError, match="at least two nodes"):
            Partition(np.array(nodes))

    def test_nodes_must_increase(self):
        with pytest.raises(ValueError):
            Partition(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            Partition(np.array([0.1, 0.5, 1.0]))


class TestPiecewiseLinearBoundary:
    @pytest.mark.parametrize("side, sign", [("upper", 1.0), ("lower", -1.0)])
    @pytest.mark.parametrize("jump", [0.5, -0.5], ids=["outward", "inward"])
    def test_jumps_either_way(self, side, sign, jump):
        p = uniform_partition(1.0, 2)
        right = sign * np.array([1.0, 1.0 + jump, 1.0 + jump])
        left = sign * np.array([1.0, 1.0, 1.0 + jump])
        b = PiecewiseLinearBoundary(p, side, right=right, left=left)
        assert b.left[1] == sign and b.right[1] == sign * (1.0 + jump)

    def test_caller_arrays_stay_writable(self):
        nodes = np.array([0.0, 0.5, 1.0])
        p = Partition(nodes)
        values = np.array([1.0, 2.0, 1.5])
        b = PiecewiseLinearBoundary.from_values(p, "upper", values)
        nodes[1] = 0.25
        values[1] = 3.0
        assert p.nodes[1] == 0.5 and b.right[1] == b.left[1] == 2.0
        for a in (p.nodes, b.right, b.left, PiecewiseLinearBoundary.infinite(p, "lower").right):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize(
        "side, right, left, error, message",
        [("upper", [1.0, 1.0], [1.0, 1.0], ValueError, "length n\\+1"),
         ("upper", [1.0, 1.0, 1.0], [1.5, 1.0, 1.0], ValueError, "endpoint nodes"),
         ("upper", [1.0, 1.0, 1.0], [1.0, 1.0, 0.5], ValueError, "endpoint nodes"),
         ("middle", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], ValueError, "side must be"),
         ("upper", [1.0, math.nan, 1.0], [1.0, 1.0, 1.0], EvaluationError, "NaN")],
        ids=["short", "jump_at_start", "jump_at_end", "bad_side", "nan"],
    )
    def test_constructor_guards(self, side, right, left, error, message):
        p = uniform_partition(1.0, 2)
        with pytest.raises(error, match=message):
            PiecewiseLinearBoundary(p, side, right=right, left=left)

    def test_no_mixing_finite_infinite(self):
        p = uniform_partition(1.0, 2)
        with pytest.raises(InvalidBoundariesError):
            PiecewiseLinearBoundary(
                p, "upper", right=[1.0, math.inf, 1.0], left=[1.0, 1.0, 1.0]
            )

    def test_evaluation(self):
        p = uniform_partition(1.0, 2)
        b = PiecewiseLinearBoundary.from_values(p, "upper", [0.0, 1.0, 0.5])
        assert np.allclose(b([0.0, 0.25, 0.5, 0.75, 1.0]), [0.0, 0.5, 1.0, 0.75, 0.5])

    @pytest.mark.parametrize("side, value", [("lower", -math.inf), ("upper", math.inf)])
    def test_infinite_evaluates_to_its_infinity(self, side, value):
        b = PiecewiseLinearBoundary.infinite(uniform_partition(1.0, 2), side)
        t = np.array([[0.0, 0.3], [0.7, 1.0]])
        assert np.array_equal(b(t), np.full((2, 2), value))


class TestEvaluate:
    def test_scalars_give_a_float(self):
        assert type(evaluate(lambda t, x: np.float64(t + x), 1.0, 2.0)) is float

    def test_arrays_broadcast_into_one_call(self):
        shapes = []

        def fn(t, x):
            shapes.append((np.shape(t), np.shape(x)))
            return t * x

        t, x = np.linspace(0.0, 1.0, 3)[:, None], np.linspace(-1.0, 1.0, 4)
        assert np.array_equal(evaluate(fn, t, x), t * x)
        assert shapes == [((3, 4), (3, 4))]

    def test_scalar_only_function_called_per_element(self):
        got = evaluate(lambda t, x: math.exp(t) * x, np.array([0.0, 1.0]), 2.0)
        assert np.array_equal(got, [2.0, math.exp(1.0) * 2.0])


class TestGeneralBoundary:
    def test_scalar_in_float_out(self):
        gb = GeneralBoundary(parse_boundary("1+t"), "upper", 1.0)
        assert type(gb(0.5)) is float and gb(0.5) == 1.5

    def test_same_shape_result_taken_from_one_call(self):
        calls = []

        def fn(t):
            calls.append(np.shape(t))
            return 1.0 + np.asarray(t)

        ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert np.array_equal(GeneralBoundary(fn, "upper", 1.0)(ts), 1.0 + ts)
        assert calls == [(2, 3)]

    @pytest.mark.parametrize(
        "fn",
        [lambda t: 2.0, lambda t: math.exp(t), lambda t: 1.0 if t < 0.5 else 3.0],
        ids=["scalar_result", "math_call", "branch"],
    )
    def test_other_results_fall_back_to_elementwise_calls(self, fn):
        ts = np.linspace(0.0, 1.0, 7)
        got = GeneralBoundary(fn, "upper", 1.0)(ts)
        assert np.array_equal(got, [fn(float(t)) for t in ts])

    def test_constant_and_infinite_map_arrays(self):
        ts = np.zeros((3, 4))
        const = GeneralBoundary.constant(2.0, "upper", 1.0)
        assert np.array_equal(const(ts), np.full((3, 4), 2.0)) and const(0.3) == 2.0
        inf = GeneralBoundary.infinite("lower", 1.0)
        assert np.array_equal(inf(ts), np.full((3, 4), -np.inf))

    @pytest.mark.parametrize("value, side", [(-math.inf, "lower"), (math.inf, "upper")])
    def test_constant_own_side_infinity_is_no_boundary(self, value, side):
        assert not GeneralBoundary.constant(value, side, 1.0).finite

    @pytest.mark.parametrize(
        "value, side, message",
        [(-math.inf, "upper", "upper boundary cannot be -inf"),
         (math.inf, "lower", "lower boundary cannot be \\+inf")],
    )
    def test_constant_wrong_side_infinity_rejected(self, value, side, message):
        # It once became "no boundary": mean 1.0 for an upper side at -inf.
        with pytest.raises(InvalidBoundariesError, match=message):
            GeneralBoundary.constant(value, side, 1.0)

    def test_constant_nan_rejected(self):
        with pytest.raises(EvaluationError, match="upper boundary cannot be NaN"):
            GeneralBoundary.constant(math.nan, "upper", 1.0)


class TestChordBoundary:
    def test_constant(self):
        gb = GeneralBoundary.constant(1.0, "upper", 1.0)
        b = chord_boundary(gb, uniform_partition(1.0, 4))
        assert np.all(b.right == 1.0) and np.all(b.left == 1.0)

    def test_linear_is_own_chord(self):
        gb = GeneralBoundary(lambda t: t, "upper", 1.0)
        b = chord_boundary(gb, uniform_partition(1.0, 2))
        assert np.allclose(b.right, [0.0, 0.5, 1.0])

    def test_daniels_node_values(self):
        gb = GeneralBoundary(daniels, "upper", 1.0)
        p = uniform_partition(1.0, 128)
        b = chord_boundary(gb, p)
        assert b.right[0] == 0.5
        for i in (1, 17, 64, 128):
            assert b.right[i] == daniels(i / 128.0)

    def test_nan_reported_with_location(self):
        gb = GeneralBoundary(lambda t: math.nan if t > 0.4 else 1.0, "upper", 1.0)
        with pytest.raises(EvaluationError) as err:
            chord_boundary(gb, uniform_partition(1.0, 2))
        assert err.value.t == 0.5

    @pytest.mark.parametrize("build", [chord_boundary, envelopes], ids=["chord", "envelopes"])
    def test_partition_must_span_horizon(self, build):
        gb = GeneralBoundary(lambda t: 1.0 + t, "upper", 2.0)
        with pytest.raises(ValueError, match=r"partition horizon 1\.0 != boundary horizon 2\.0"):
            build(gb, uniform_partition(1.0, 4))


class TestEnvelopes:
    def test_constant_boundary_exact(self):
        gb = GeneralBoundary.constant(1.0, "upper", 1.0)
        inner, outer = envelopes(gb, uniform_partition(1.0, 4), m=10)
        assert np.all(inner.right == 1.0) and np.all(outer.right == 1.0)

    @pytest.mark.parametrize(
        "gb",
        [GeneralBoundary.constant(1.0, "upper", 1.0), GeneralBoundary.constant(-1.0, "lower", 1.0),
         GeneralBoundary.infinite("lower", 1.0), GeneralBoundary.infinite("upper", 1.0)],
        ids=["constant_upper", "constant_lower", "infinite_lower", "infinite_upper"],
    )
    def test_exact_side_is_one_boundary(self, gb):
        p = uniform_partition(1.0, 128)
        inner, outer = envelopes(gb, p, m=50)
        assert inner is outer
        assert inner.side == gb.side and np.array_equal(inner.right, gb(p.nodes))

    def test_curved_side_is_two_boundaries(self):
        gb = GeneralBoundary(parse_boundary(DANIELS), "upper", 1.0)
        inner, outer = envelopes(gb, uniform_partition(1.0, 128), m=50)
        assert inner is not outer
        assert np.all(inner.right <= outer.right) and np.any(inner.right < outer.right)

    def test_sqrt_gap_small(self):
        T = math.e - 1.0
        gb = GeneralBoundary(lambda t: math.sqrt(1.0 + t), "upper", T)
        p = uniform_partition(T, 128)
        inner, outer = envelopes(gb, p, m=50)
        ts = np.linspace(0.0, T, 2000)
        assert np.max(outer(ts) - inner(ts)) < 1e-4

    def test_parabola_single_interval_shift(self):
        # max of (t - t^2) on [0, 1] is 1/4, reached between samples.
        gb = GeneralBoundary(lambda t: t * t, "upper", 1.0)
        inner, outer = envelopes(gb, uniform_partition(1.0, 1), m=50)
        assert inner.right[0] == pytest.approx(-0.25, abs=5e-4)
        assert inner.right[1] == pytest.approx(0.75, abs=5e-4)
        assert outer.right[0] == pytest.approx(0.0, abs=5e-4)
        assert outer.right[1] == pytest.approx(1.0, abs=5e-4)

    @pytest.mark.parametrize(
        "fn,side",
        [
            (lambda t: 1.0 + 0.5 * math.sin(5.0 * t), "upper"),
            (lambda t: math.exp(t) - 0.5 * t * t, "upper"),
            (lambda t: -1.0 - 0.5 * math.cos(3.0 * t), "lower"),
        ],
    )
    def test_sandwich_property(self, fn, side):
        m = 20
        gb = GeneralBoundary(fn, side, 1.0)
        p = uniform_partition(1.0, 16)
        inner, outer = envelopes(gb, p, m=m)
        for i in range(p.n):
            ts = np.linspace(p.nodes[i], p.nodes[i + 1], 10 * m)
            gv = np.array([fn(t) for t in ts])
            if side == "upper":
                assert np.all(inner(ts) <= gv + 1e-9)
                assert np.all(outer(ts) >= gv - 1e-9)
            else:
                assert np.all(inner(ts) >= gv - 1e-9)
                assert np.all(outer(ts) <= gv + 1e-9)

    @pytest.mark.parametrize("fn", [lambda t: t * t, lambda t: math.sqrt(1.0 + t)])
    def test_refinement_never_widens_gap(self, fn):
        gb = GeneralBoundary(fn, "upper", 1.0)
        ts = np.linspace(0.0, 1.0, 4001)
        gaps = []
        for n in (2, 4, 8, 16, 32):
            inner, outer = envelopes(gb, uniform_partition(1.0, n), m=50)
            gaps.append(np.max(outer(ts) - inner(ts)))
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_expression_evaluated_at_most_twice(self):
        expr = parse_boundary(DANIELS)
        calls = []

        def counted(t):
            calls.append(np.shape(t))
            return expr(t)

        envelopes(GeneralBoundary(counted, "upper", 1.0), uniform_partition(1.0, 128), 50)
        assert len(calls) <= 2

    def test_scalar_callable_matches_expression_bitwise(self):
        p = uniform_partition(1.0, 32)
        scalar = GeneralBoundary(lambda t: 0.5 + math.sqrt(1.0 + t) * t, "upper", 1.0)
        expr = GeneralBoundary(parse_boundary("0.5 + sqrt(1+t)*t"), "upper", 1.0)
        for b1, b2 in zip(envelopes(scalar, p, 20), envelopes(expr, p, 20)):
            assert np.array_equal(b1.right, b2.right) and np.array_equal(b1.left, b2.left)

    def test_nan_reported_at_first_sample(self):
        gb = GeneralBoundary(parse_boundary("sqrt(0.3-t)"), "upper", 1.0)
        with pytest.raises(EvaluationError) as err:
            envelopes(gb, uniform_partition(1.0, 4), m=5)
        assert err.value.t == 0.3125

    @pytest.mark.parametrize("text", ["1+0.5*t", "-0.5-t", "2-3*t", "1e6+1e3*t", "1e6*(t-0.5)"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n", [16, 128])
    def test_straight_side_is_its_chord(self, text, side, n):
        # Its shifts are rounding (within 2 eps of the size of its terms on
        # each interval), so the chord is exact, as for a constant.
        p = uniform_partition(1.0, n)
        gb = GeneralBoundary(parse_boundary(text), side, 1.0)
        inner, outer = envelopes(gb, p, 50)
        assert inner is outer and np.array_equal(inner.right, gb(p.nodes))

    def test_near_straight_side_keeps_two_boundaries(self):
        # 1e-9 t^2 shifts the chords by 69 eps of the side's scale at n = 128.
        gb = GeneralBoundary(parse_boundary("1+0.5*t+1e-9*t*t"), "upper", 1.0)
        inner, outer = envelopes(gb, uniform_partition(1.0, 128), 50)
        assert inner is not outer and np.all(inner.right < outer.right)

    def test_large_side_curved_near_start_keeps_two_boundaries(self):
        # Near t = 0 the shift, about 2e-9, is hundreds of eps of the side's
        # size there, though under 16 eps of its largest value, 1e6.
        gb = GeneralBoundary(parse_boundary("0.001+1e6*t+1e-7*sqrt(t)"), "upper", 1.0)
        p = uniform_partition(1.0, 128)
        inner, outer = envelopes(gb, p, 50)
        assert inner is not outer and inner.right[1] < outer.right[1]
        ts = np.linspace(0.0, p.nodes[1], 50)
        assert np.all((inner(ts) <= gb(ts)) & (gb(ts) <= outer(ts)))

    def test_m_too_small(self):
        gb = GeneralBoundary.constant(1.0, "upper", 1.0)
        with pytest.raises(ValueError):
            envelopes(gb, uniform_partition(1.0, 2), m=1)

    def test_affine_chord_exact_at_checkpoints(self):
        gb = GeneralBoundary(lambda t: 2.0 - 3.0 * t, "upper", 1.0)
        b = chord_boundary(gb, uniform_partition(1.0, 8))
        ts = np.linspace(0.0, 1.0, 257)
        assert np.allclose(b(ts), 2.0 - 3.0 * ts, atol=1e-14)


class TestIsStraight:
    @pytest.mark.parametrize("text", ["1", "1+0.5*t", "-0.5-t", "2-3*t", "1e6+1e3*t"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("n", [16, 128])
    def test_exact_straight_side(self, text, side, n):
        gb = GeneralBoundary(parse_boundary(text), side, 1.0)
        exact, _ = envelopes(gb, uniform_partition(1.0, n), 50)
        assert is_straight(exact, reduced=False)

    def test_absent_side(self):
        p = uniform_partition(1.0, 4)
        assert is_straight(PiecewiseLinearBoundary.infinite(p, "lower"), reduced=True)

    def test_kink_at_node(self):
        # Exact on every interval, but two lines over [0, 1].
        p = uniform_partition(1.0, 16)
        gb = GeneralBoundary(parse_boundary("1+0.5*abs(t-0.5)"), "upper", 1.0)
        inner, outer = envelopes(gb, p)
        assert inner is outer and not is_straight(outer, reduced=False)

    def test_jump(self):
        p = uniform_partition(1.0, 2)
        side = PiecewiseLinearBoundary(p, "upper", [1.0, 1.0, 1.0], [1.0, 2.0, 1.0])
        assert not is_straight(side, reduced=False)

    def test_reduced_side_off_chord_by_ulps(self):
        # Within rounding as written; a reduced side must lie on its chord exactly.
        p = uniform_partition(1.0, 8)
        v = 1.0 + 0.5 * p.nodes
        v[3] = np.nextafter(v[3], 2.0)
        side = PiecewiseLinearBoundary.from_values(p, "upper", v)
        assert is_straight(side, reduced=False) and not is_straight(side, reduced=True)
        line = PiecewiseLinearBoundary.from_values(p, "upper", 1.0 + 0.5 * p.nodes)
        assert is_straight(line, reduced=True)

    def test_off_chord_beyond_rounding(self):
        p = uniform_partition(1.0, 8)
        v = 1.0 + 0.5 * p.nodes
        v[3] += 1e-12
        assert not is_straight(PiecewiseLinearBoundary.from_values(p, "upper", v), reduced=False)


class TestBandConstruction:
    def test_ordering_enforced(self):
        p = uniform_partition(1.0, 2)
        with pytest.raises(InvalidBoundariesError):
            PiecewiseLinearBand(
                PiecewiseLinearBoundary.from_values(p, "lower", [0.0, 0.5, 2.0]),
                PiecewiseLinearBoundary.from_values(p, "upper", [1.0, 1.0, 1.0]),
            )

    def test_sides_in_order(self):
        p = uniform_partition(1.0, 2)
        lower = PiecewiseLinearBoundary.from_values(p, "lower", [-1.0, -1.0, -1.0])
        upper = PiecewiseLinearBoundary.from_values(p, "upper", [1.0, 1.0, 1.0])
        for pair in ((upper, lower), (lower, lower), (upper, upper)):
            with pytest.raises(ValueError, match="in that order"):
                PiecewiseLinearBand(*pair)

    def test_shared_partition_required(self):
        p1 = uniform_partition(1.0, 2)
        p2 = uniform_partition(1.0, 4)
        with pytest.raises(ValueError):
            PiecewiseLinearBand(
                PiecewiseLinearBoundary.infinite(p1, "lower"),
                PiecewiseLinearBoundary.from_values(p2, "upper", np.ones(5)),
            )

    @pytest.mark.parametrize(
        "lower, upper, message",
        [([-1.0, -1.0, -1.0], [-0.5, 1.0, 1.0], r"\(-1\.0, -0\.5\) at t=0"),
         (None, [0.0, 1.0, 1.0], r"\(-inf, 0\.0\) at t=0"),
         ([0.2, -1.0, -1.0], None, r"\(0\.2, inf\) at t=0")],
        ids=["finite", "upper_only", "lower_only"],
    )
    def test_start_checked_at_construction(self, lower, upper, message):
        p = uniform_partition(1.0, 2)
        with pytest.raises(StartOutsideBandError, match="start point 0 not strictly inside " + message):
            PiecewiseLinearBand(
                PiecewiseLinearBoundary.infinite(p, "lower") if lower is None
                else PiecewiseLinearBoundary.from_values(p, "lower", lower),
                PiecewiseLinearBoundary.infinite(p, "upper") if upper is None
                else PiecewiseLinearBoundary.from_values(p, "upper", upper),
            )

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper_jumps_down", "lower_jumps_up"])
    def test_ordering_uses_node_limits(self, sign):
        # Each interval is strictly ordered, but at t = 0.5 the inner side
        # jumps from 1.0 to 0.5 and the other from 0.7 to -1: the larger
        # lower limit (0.7) passes the smaller upper one (0.5).
        p = uniform_partition(1.0, 2)
        inward = PiecewiseLinearBoundary(p, "upper" if sign > 0 else "lower",
                                         right=sign * np.array([1.0, 0.5, 0.5]),
                                         left=sign * np.array([1.0, 1.0, 0.5]))
        outward = PiecewiseLinearBoundary(p, "lower" if sign > 0 else "upper",
                                          right=sign * np.array([-1.0, -1.0, -1.0]),
                                          left=sign * np.array([-1.0, 0.7, -1.0]))
        with pytest.raises(InvalidBoundariesError, match="strictly below"):
            PiecewiseLinearBand(*((outward, inward) if sign > 0 else (inward, outward)))

    def test_limits_take_the_restrictive_side(self):
        p = uniform_partition(1.0, 2)
        band = PiecewiseLinearBand(
            PiecewiseLinearBoundary(p, "lower", right=[-1.0, -0.2, -0.2], left=[-1.0, -0.6, -0.2]),
            PiecewiseLinearBoundary(p, "upper", right=[1.0, 0.4, 0.4], left=[1.0, 0.8, 0.4]),
        )
        lo, hi = band.limits
        assert np.array_equal(lo, [-1.0, -0.2, -0.2]) and np.array_equal(hi, [1.0, 0.4, 0.4])

    def test_start_error_is_a_band_error(self):
        assert issubclass(StartOutsideBandError, InvalidBoundariesError)
