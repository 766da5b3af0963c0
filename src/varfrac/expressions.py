"""Closed-form expression mini-language for CLI configs.

Grammar: numbers, named variables, ``pi``/``e``, unary minus, the binary
operators ``+ - * /`` and right-associative ``^``, parentheses, and the
functions ``sin``, ``cos``, ``exp``, ``ln``.  Expressions compile to
numpy-broadcasting closures over a fixed variable tuple; unknown
identifiers are rejected at parse time with their position, so configs
fail fast instead of at quadrature depth.  :meth:`Expression.derivative`
differentiates an expression exactly, by rule over its parse tree, into
another expression of the grammar.
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


# AST nodes evaluate against a dict of variable arrays.  Each also holds the
# set of variable names in it, renders itself as text of the grammar and,
# when it holds the variable, builds its derivative by rule.

class _Num:
    __slots__ = ("value",)
    names = frozenset()

    def __init__(self, value: float):
        # a numpy scalar, so a constant divided by zero is inf, not a ZeroDivisionError
        self.value = np.float64(value)

    def eval(self, env):
        return self.value

    def text(self):
        s = format(self.value, ".17g")
        return f"({s})" if s.startswith("-") else s


class _Var:
    __slots__ = ("name", "names")

    def __init__(self, name: str):
        self.name = name
        self.names = frozenset((name,))

    def eval(self, env):
        return env[self.name]

    def text(self):
        return self.name

    def derivative(self, var):
        return _ONE


class _Call:
    __slots__ = ("name", "fn", "arg", "names")

    def __init__(self, name: str, arg):
        self.name = name
        self.fn = _FUNCTIONS[name]
        self.arg = arg
        self.names = arg.names

    def eval(self, env):
        return self.fn(self.arg.eval(env))

    def text(self):
        return f"{self.name}({self.arg.text()})"

    def derivative(self, var):
        a, da = self.arg, _derivative(self.arg, var)
        if self.name == "sin":
            return _bin("*", _call("cos", a), da)
        if self.name == "cos":
            return _neg(_bin("*", _call("sin", a), da))
        if self.name == "exp":
            return _bin("*", self, da)
        # a'/a is finite where ln(a) is NaN
        return _keep_domain(_bin("/", da, a), self)


class _Neg:
    __slots__ = ("arg", "names")

    def __init__(self, arg):
        self.arg = arg
        self.names = arg.names

    def eval(self, env):
        return -self.arg.eval(env)

    def text(self):
        return f"(-{self.arg.text()})"

    def derivative(self, var):
        return _neg(_derivative(self.arg, var))


class _Bin:
    __slots__ = ("sym", "op", "left", "right", "names")
    _OPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        # on arrays, so a scalar gets the same numpy pow as a grid, bit for bit
        "^": lambda a, b: np.asarray(a) ** np.asarray(b),
    }

    def __init__(self, sym, left, right):
        self.sym = sym
        self.op = self._OPS[sym]
        self.left = left
        self.right = right
        self.names = left.names | right.names

    def eval(self, env):
        return self.op(self.left.eval(env), self.right.eval(env))

    def text(self):
        return f"({self.left.text()} {self.sym} {self.right.text()})"

    def derivative(self, var):
        a, b, sym = self.left, self.right, self.sym
        da, db = _derivative(a, var), _derivative(b, var)
        if sym in "+-":
            d = _bin(sym, da, db)
            for term in (a, b):
                if var not in term.names and _may_be_undefined(term):
                    d = _keep_domain(d, term)
            return d
        if sym == "*":
            return _bin("+", _bin("*", da, b), _bin("*", a, db))
        if sym == "/":  # (a' - (a/b) b') / b
            return _bin("/", _bin("-", da, _bin("*", self, db)), b)
        if var not in b.names:  # b a^(b-1) a'
            return _bin("*", _bin("*", b, _bin("^", a, _bin("-", b, _ONE))), da)
        # a^b (b' ln(a) + b a'/a)
        return _bin("*", self, _bin("+", _bin("*", db, _call("ln", a)),
                                     _bin("*", b, _bin("/", da, a))))


_ZERO, _ONE = _Num(0.0), _Num(1.0)


def _derivative(node, var: str):
    """The derivative of ``node`` along ``var``: 0 for a node free of it."""
    return node.derivative(var) if var in node.names else _ZERO


def _fold(node):
    """``node``, or the number it evaluates to if it holds no variable."""
    return _Num(node.eval({})) if not node.names and not isinstance(node, _Num) else node


def _may_be_undefined(node) -> bool:
    """Whether node may be NaN or infinite where its variables are finite:
    whether it holds a ``/``, a ``^``, an ``ln`` or an ``exp``."""
    if isinstance(node, _Bin):
        return node.sym in "/^" or _may_be_undefined(node.left) or _may_be_undefined(node.right)
    if isinstance(node, _Call):
        return node.name in ("ln", "exp") or _may_be_undefined(node.arg)
    return isinstance(node, _Neg) and _may_be_undefined(node.arg)


def _keep_domain(d, term):
    """The derivative d, made NaN wherever ``term`` is NaN or infinite by
    adding ``0 * term``, which folds only for a constant term."""
    if term.names:
        return _Bin("+", d, _Bin("*", _ZERO, term))
    return _bin("+", d, _bin("*", _ZERO, term))


def _bin(sym: str, a, b):
    """The node ``a sym b``, folded: constants to a number, and ``x + 0``,
    ``0 + x``, ``x - 0``, ``0 - x``, ``0 * x``, ``x * 0``, ``1 * x``,
    ``x * 1``, ``0 / x``, ``x / 1``, ``x ^ 1`` and ``x ^ 0`` to what they equal."""
    a, b = _fold(a), _fold(b)
    x, y = (n.value if isinstance(n, _Num) else None for n in (a, b))
    if x is not None and y is not None:
        return _fold(_Bin(sym, a, b))
    if sym == "+" and x == 0:
        return b
    if sym in "+-" and y == 0:
        return a
    if sym == "-" and x == 0:
        return _neg(b)
    if sym == "*" and (x == 0 or y == 0) or sym == "/" and x == 0:
        return _ZERO
    if sym == "*" and x == 1:
        return b
    if sym in "*/^" and y == 1:
        return a
    if sym == "^" and y == 0:
        return _ONE
    return _Bin(sym, a, b)


def _neg(a):
    """The node ``-a``, folded: a constant to a number, and ``-(-x)`` to x."""
    return a.arg if isinstance(a, _Neg) else _fold(_Neg(a))


def _call(name: str, a):
    """The node ``name(a)``, folded to a number when a holds no variable."""
    return _fold(_Call(name, a))


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
                return _Call(tok.text, arg)
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
        self._derivatives = {}

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

    def derivative(self, var: str) -> "Expression":
        """The exact partial derivative along ``var``, an expression over the
        same variables whose ``src`` is its text in the grammar.

        It is built by rule over the parse tree: sums, differences,
        products and quotients, unary minus, the chain rule for ``sin``,
        ``cos``, ``exp`` and ``ln``, and ``a^b`` as ``b*a^(b-1)*a'`` when b
        holds no ``var``, else as ``a^b*(b'*ln(a) + b*a'/a)``.  While it is
        built, constant subtrees fold to numbers and ``+0``, ``0*x``,
        ``1*x``, ``x/1`` and the like are dropped, so a subtree free of
        ``var`` contributes nothing.  The derivative keeps the value's
        domain: ``ln(a)`` differentiates to ``a'/a + 0*ln(a)``, and a
        term free of ``var`` that holds ``/``, ``^``, ``ln`` or ``exp`` adds
        ``0*term`` to the derivative of its sum, so the derivative is NaN
        wherever such a term is NaN or infinite.  Any other term free of
        ``var`` is finite wherever its variables are, and is never
        evaluated.

        The first call per variable builds the derivative; later calls
        return the same expression.
        """
        if var not in self.variables:
            raise ExpressionError(f"cannot differentiate along {var!r}; the variables "
                                  f"are {', '.join(self.variables) or '(none)'}")
        if var not in self._derivatives:
            d = self._derivatives[var] = object.__new__(Expression)
            d._ast = _derivative(self._ast, var)
            d.src, d.variables, d._derivatives = d._ast.text(), self.variables, {}
        return self._derivatives[var]

    def __repr__(self):
        return f"Expression({self.src!r}, variables={self.variables})"


def compile_expression(src: str, variables: Sequence[str]) -> Expression:
    """Parse ``src`` against the allowed variable names; raises ExpressionError."""
    if not isinstance(src, str):
        raise ExpressionError(f"expected an expression string, got {type(src).__name__}")
    return Expression(src, variables)
