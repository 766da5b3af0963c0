"""Closed-form expression mini-language for CLI configs.

Grammar: numbers, named variables, ``pi``/``e``, unary minus, the binary
operators ``+ - * /`` and right-associative ``^``, parentheses, and the
functions ``sin``, ``cos``, ``exp``, ``ln``.  Expressions compile to
numpy-broadcasting closures over a fixed variable tuple; unknown
identifiers are rejected at parse time with their position, so configs
fail fast instead of at quadrature depth.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log}
_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m.group()!r}", 1, m.start())
        tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("end", "", len(src)))
    return tokens


# AST nodes evaluate against a dict of variable arrays.

class _Num:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def eval(self, env):
        return self.value


class _Var:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        return env[self.name]


class _Call:
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg

    def eval(self, env):
        return self.fn(self.arg.eval(env))


class _Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def eval(self, env):
        return -self.arg.eval(env)


class _Bin:
    __slots__ = ("op", "left", "right")
    _OPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        # on arrays, so a scalar gets the same numpy pow as a grid, bit for bit
        "^": lambda a, b: np.asarray(a) ** np.asarray(b),
    }

    def __init__(self, op, left, right):
        self.op = self._OPS[op]
        self.left = left
        self.right = right

    def eval(self, env):
        return self.op(self.left.eval(env), self.right.eval(env))


_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BINDING = 15  # binds tighter than +- but looser than */ and ^


class _Parser:
    def __init__(self, src: str, variables: Sequence[str]):
        self.src = src
        self.variables = tuple(variables)
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.advance()
        if tok.text != text:
            raise ExpressionError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                  1, tok.col)

    def parse(self):
        node = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}", 1, tok.col)
        return node

    def expression(self, min_bp: int):
        node = self.prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BINDING:
                break
            bp = _BINDING[tok.text]
            if bp < min_bp:
                break
            self.advance()
            # '^' is right-associative: recurse at the same binding power
            right = self.expression(bp if tok.text == "^" else bp + 1)
            node = _Bin(tok.text, node, right)
        return node

    def prefix(self):
        tok = self.advance()
        if tok.kind == "number":
            return _Num(float(tok.text))
        if tok.kind == "name":
            if tok.text in _FUNCTIONS:
                self.expect("(")
                arg = self.expression(0)
                self.expect(")")
                return _Call(_FUNCTIONS[tok.text], arg)
            if tok.text in self.variables:
                return _Var(tok.text)
            if tok.text in _CONSTANTS:
                return _Num(_CONSTANTS[tok.text])
            raise ExpressionError(
                f"unknown identifier {tok.text!r}; allowed variables here: "
                f"{', '.join(self.variables) or '(none)'}", 1, tok.col)
        if tok.text == "(":
            node = self.expression(0)
            self.expect(")")
            return node
        if tok.text == "-":
            return _Neg(self.expression(_UNARY_BINDING))
        if tok.text == "+":
            return self.expression(_UNARY_BINDING)
        raise ExpressionError(
            f"unexpected token {tok.text or 'end of input'!r}", 1, tok.col)


class Expression:
    """A compiled expression over a fixed tuple of variable names.

    Calling it with positional arguments (scalars or arrays, one per
    variable) evaluates with numpy broadcasting.
    """

    def __init__(self, src: str, variables: Sequence[str]):
        self.src = src
        self.variables = tuple(variables)
        self._ast = _Parser(src, self.variables).parse()

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} called with {len(args)} arguments"
            )
        env = dict(zip(self.variables, args))
        out = self._ast.eval(env)
        if np.ndim(out) == 0 and any(np.ndim(a) > 0 for a in args):
            shape = np.broadcast_shapes(*(np.shape(a) for a in args))
            return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()
        return out

    def __repr__(self):
        return f"Expression({self.src!r}, variables={self.variables})"


def compile_expression(src: str, variables: Sequence[str]) -> Expression:
    """Parse ``src`` against the allowed variable names; raises ExpressionError."""
    if not isinstance(src, str):
        raise ExpressionError(f"expected an expression string, got {type(src).__name__}")
    return Expression(src, variables)
