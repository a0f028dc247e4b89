"""Small expression language for boundaries and time-dependent coefficients.

Grammar (whitespace ignored)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | 't' | 'inf'
            | func '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^' (so ``-2^2`` is ``-(2^2)``) and '^'
is right associative, matching Python.

Supported functions: exp, log, sqrt, sin, cos, abs.  Evaluation follows
IEEE semantics (1/0 = inf, exp(-inf) = 0, log of a non-positive number
is -inf or NaN), which makes removable singularities such as
``exp(-1/t)`` at t = 0 come out as their limits.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ExprSyntaxError

_FUNCTIONS: dict[str, Callable] = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
}

# Python's operators, not ufuncs: np.multiply(nan, -nan) and nan * -nan differ in sign.
_OPERATORS: dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
}

_NAMES = {"t": ("t",), "inf": ("num", float("inf"))}

#: Levels of the left-associative binary operators, loosest first.
_PRECEDENCE = ("+-", "*/")

# Every position matches a token, the end of the input or a bad character,
# after optional whitespace; trailing whitespace gives a second end token.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))"
)


class _Parser:
    def __init__(self, text: str):
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN_RE.finditer(text)]
        for kind, tok, offset in self.tokens:
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {tok!r}", offset)
        self.i = 0

    def take(self, ops: str, required: bool = False) -> str | None:
        """Consume the next token if it is one of the operators `ops`."""
        kind, tok, offset = self.tokens[self.i]
        if kind == "op" and tok in ops:
            self.i += 1
            return tok
        if required:
            raise ExprSyntaxError(f"expected {ops!r}", offset)
        return None

    def parse(self):
        node = self.binary()
        kind, tok, offset = self.tokens[self.i]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {tok!r}", offset)
        return node

    def binary(self, levels: tuple = _PRECEDENCE):
        # partial adds no Python frame: parentheses nest as deep as with one method per level.
        operand = partial(self.binary, levels[1:]) if levels[1:] else self.factor
        node = operand()
        while op := self.take(levels[0]):
            node = (op, node, operand())
        return node

    def factor(self):
        if self.take("-"):
            return ("neg", self.factor())
        node = self.base()
        if self.take("^"):
            node = ("^", node, self.factor())  # right associative
        return node

    def base(self):
        kind, tok, offset = self.tokens[self.i]
        if kind == "num":
            self.i += 1
            return ("num", float(tok))
        if kind == "ident":
            self.i += 1
            if tok in _NAMES:
                return _NAMES[tok]
            if tok in _FUNCTIONS:
                self.take("(", required=True)
                arg = self.binary()
                self.take(")", required=True)
                return ("call", tok, arg)
            raise ExprSyntaxError(f"unknown identifier {tok!r}", offset)
        if self.take("("):
            node = self.binary()
            self.take(")", required=True)
            return node
        raise ExprSyntaxError(
            "expected a number, 't', function or '('"
            if kind != "end"
            else "unexpected end of input",
            offset,
        )


def _evaluate(node, t):
    kind = node[0]
    if kind == "num":
        return np.float64(node[1]) + 0 * t if np.ndim(t) else np.float64(node[1])
    if kind == "t":
        return np.float64(t) if np.ndim(t) == 0 else np.asarray(t, dtype=np.float64)
    if kind == "neg":
        return -_evaluate(node[1], t)
    if kind == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], t))
    return _OPERATORS[kind](_evaluate(node[1], t), _evaluate(node[2], t))


@dataclass(frozen=True)
class BoundaryExpr:
    """A parsed boundary expression over the single variable ``t``."""

    source: str
    ast: tuple = field(repr=False)

    def __call__(self, t):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _evaluate(self.ast, t)
        return float(out) if np.ndim(out) == 0 else np.asarray(out)

    @property
    def is_constant_inf(self) -> bool:
        """True when the expression is the literal inf or -inf."""
        node = self.ast
        while node[0] == "neg":
            node = node[1]
        return node == ("num", float("inf"))


def parse_boundary(text: str) -> BoundaryExpr:
    """Parse `text` into an evaluable boundary expression.

    Raises ExprSyntaxError with the byte offset of the first bad token.
    """
    ast = _Parser(text).parse()
    return BoundaryExpr(source=text, ast=ast)
