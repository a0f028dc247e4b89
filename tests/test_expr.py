import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcp import ExprSyntaxError, parse_boundary

DANIELS = "0.5 - t*log(0.25 + 0.25*sqrt(1 + 8*exp(-1/t)))"
INF = math.inf

# Each input with its syntax tree, or with the (message, offset) of its
# ExprSyntaxError, as the parser gave them before it was rewritten as
# tables: the rewrite must keep every tree, message and offset.
PINS = [
    ('1.5', ('num', 1.5)),
    ('t', ('t',)),
    (' t ', ('t',)),
    ('inf', ('num', INF)),
    ('-inf', ('neg', ('num', INF))),
    ('--t', ('neg', ('neg', ('t',)))),
    ('2 - 3*t', ('-', ('num', 2.0), ('*', ('num', 3.0), ('t',)))),
    ('2 + 3 * 4', ('+', ('num', 2.0), ('*', ('num', 3.0), ('num', 4.0)))),
    ('1 - 2 - 3', ('-', ('-', ('num', 1.0), ('num', 2.0)), ('num', 3.0))),
    ('8 / 4 / 2', ('/', ('/', ('num', 8.0), ('num', 4.0)), ('num', 2.0))),
    ('-2^2', ('neg', ('^', ('num', 2.0), ('num', 2.0)))),
    ('2^3^2', ('^', ('num', 2.0), ('^', ('num', 3.0), ('num', 2.0)))),
    ('2^-1', ('^', ('num', 2.0), ('neg', ('num', 1.0)))),
    ('(1 + t)^2', ('^', ('+', ('num', 1.0), ('t',)), ('num', 2.0))),
    ('-(t)', ('neg', ('t',))),
    ('1e-3', ('num', 0.001)),
    ('10E+2', ('num', 1000.0)),
    ('.5', ('num', 0.5)),
    ('3.', ('num', 3.0)),
    ('1.25e2*t', ('*', ('num', 125.0), ('t',))),
    ('sqrt(1 + t)', ('call', 'sqrt', ('+', ('num', 1.0), ('t',)))),
    ('abs(-t)', ('call', 'abs', ('neg', ('t',)))),
    ('exp(-1/t)', ('call', 'exp', ('/', ('neg', ('num', 1.0)), ('t',)))),
    ('log(t) + sin(t) * cos(t)',
     ('+', ('call', 'log', ('t',)), ('*', ('call', 'sin', ('t',)), ('call', 'cos', ('t',))))),
    ('0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))',
     ('-', ('num', 0.5), ('*', ('t',), ('call', 'log', ('+', ('num', 0.25), ('*', ('num',
     0.25), ('call', 'sqrt', ('+', ('num', 1.0), ('*', ('num', 8.0), ('call', 'exp', ('/',
     ('neg', ('num', 1.0)), ('t',)))))))))))),
    ('1 +\t2\n', ('+', ('num', 1.0), ('num', 2.0))),
    ('t^0.5/(1+t)', ('/', ('^', ('t',), ('num', 0.5)), ('+', ('num', 1.0), ('t',)))),
    ('inf - inf', ('-', ('num', INF), ('num', INF))),
    ('', ('unexpected end of input', 0)),
    ('   ', ('unexpected end of input', 3)),
    (' \n\t', ('unexpected end of input', 3)),
    ('1+*2', ("expected a number, 't', function or '('", 2)),
    ('1 + $', ("unexpected character '$'", 4)),
    ('1 @ 2', ("unexpected character '@'", 2)),
    ('\t@', ("unexpected character '@'", 1)),
    (')@', ("unexpected character '@'", 1)),
    ('x + 1', ("unknown identifier 'x'", 0)),
    ('foo(t)', ("unknown identifier 'foo'", 0)),
    ('e', ("unknown identifier 'e'", 0)),
    ('1e', ("unexpected token 'e'", 1)),
    ('exp 1', ("expected '('", 4)),
    ('exp(1', ("expected ')'", 5)),
    ('exp()', ("expected a number, 't', function or '('", 4)),
    ('(1 + t', ("expected ')'", 6)),
    ('1 + t)', ("unexpected token ')'", 5)),
    ('1+', ('unexpected end of input', 2)),
    ('*1', ("expected a number, 't', function or '('", 0)),
    ('1 2', ("unexpected token '2'", 2)),
    ('t t', ("unexpected token 't'", 2)),
    ('2^', ('unexpected end of input', 2)),
    ('-', ('unexpected end of input', 1)),
    ('sin(t', ("expected ')'", 5)),
    ('abs', ("expected '('", 3)),
    ('1.2.3', ("unexpected token '.3'", 3)),
    ('té', ("unknown identifier 'té'", 0)),
    ('٣ + t', ('+', ('num', 3.0), ('t',))),
]


class TestParsing:
    def test_constant(self):
        b = parse_boundary("1.5")
        assert b(0.0) == 1.5 and b(3.0) == 1.5
        assert b.is_constant_inf is False

    def test_affine(self):
        b = parse_boundary("2 - 3*t")
        assert b(0.0) == 2.0 and b(1.0) == -1.0

    def test_precedence_and_unary(self):
        assert parse_boundary("2 + 3 * 4").__call__(0.0) == 14.0
        assert parse_boundary("-2^2")(0.0) == -4.0
        assert parse_boundary("(1 + t)^2")(2.0) == 9.0

    def test_power_right_associative(self):
        assert parse_boundary("2^3^2")(0.0) == 512.0

    def test_functions(self):
        assert parse_boundary("sqrt(1 + t)")(0.0) == 1.0
        assert parse_boundary("sqrt(1 + t)")(3.0) == 2.0
        assert parse_boundary("exp(0)")(0.0) == 1.0
        assert parse_boundary("abs(-t)")(2.0) == 2.0
        assert parse_boundary("sin(t) + cos(t)")(0.0) == 1.0

    def test_inf_literals(self):
        assert parse_boundary("inf")(0.5) == math.inf
        assert parse_boundary("inf").is_constant_inf
        assert parse_boundary("-inf")(0.5) == -math.inf
        assert parse_boundary("-inf").is_constant_inf

    def test_source_preserved(self):
        b = parse_boundary(" 1 + t ")
        assert b.source == " 1 + t "


class TestLimitSemantics:
    def test_daniels_at_zero(self):
        # exp(-1/t) underflows to 0 at t -> 0+, so the whole expression
        # evaluates to the continuous limit 0.5 without special-casing.
        b = parse_boundary(DANIELS)
        assert b(0.0) == pytest.approx(0.5, abs=1e-15)
        assert b(1.0) == pytest.approx(
            0.5 - math.log(0.25 + 0.25 * math.sqrt(1 + 8 * math.exp(-1.0))), rel=1e-12
        )

    def test_vectorized_evaluation(self):
        b = parse_boundary("sqrt(1 + t)")
        ts = np.linspace(0.0, 3.0, 7)
        assert np.allclose(b(ts), np.sqrt(1.0 + ts))

    def test_division_produces_inf_not_error(self):
        b = parse_boundary("1/t")
        assert b(0.0) == math.inf


class TestParserPins:
    @pytest.mark.parametrize("text, expected", PINS)
    def test_tree_or_error(self, text, expected):
        if isinstance(expected[-1], int):  # (message, offset)
            with pytest.raises(ExprSyntaxError) as err:
                parse_boundary(text)
            assert (str(err.value), err.value.offset) == (
                f"{expected[0]} (at offset {expected[1]})", expected[1])
        else:
            assert parse_boundary(text).ast == expected

    def test_pins_cover_both_outcomes(self):
        errors = sum(isinstance(expected[-1], int) for _, expected in PINS)
        assert len(PINS) >= 40 and 20 <= errors <= len(PINS) - 20


class TestErrors:
    def test_adjacent_operators(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_boundary("1+*2")
        assert err.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse_boundary("foo(t)")
        with pytest.raises(ExprSyntaxError):
            parse_boundary("x + 1")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_boundary("(1 + t")
        with pytest.raises(ExprSyntaxError):
            parse_boundary("1 + t)")

    def test_empty_and_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_boundary("")
        with pytest.raises(ExprSyntaxError):
            parse_boundary("1 @ 2")

    def test_offset_points_at_bad_token(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_boundary("1 + $")
        assert err.value.offset == 4


class TestAgainstPython:
    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=-5, max_value=5),
        b=st.floats(min_value=-5, max_value=5),
        t=st.floats(min_value=0, max_value=3),
    )
    def test_affine_matches_python(self, a, b, t):
        expr = parse_boundary(f"{a!r} + {b!r}*t")
        assert expr(t) == pytest.approx(a + b * t, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(min_value=0.01, max_value=3))
    def test_composite_matches_python(self, t):
        expr = parse_boundary("exp(-t) + sqrt(t)*sin(2*t)")
        assert expr(t) == pytest.approx(
            math.exp(-t) + math.sqrt(t) * math.sin(2 * t), rel=1e-12
        )
