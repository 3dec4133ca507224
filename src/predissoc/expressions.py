"""Analytic expression trees in one variable ``x`` with symbolic derivatives.

The language covers exactly what the potential configs need: real literals,
``x``, ``+ - * /``, ``^`` with an integer exponent, unary minus, and the
entire functions ``exp``, ``tanh``, ``sin``, ``cos``.  ``^`` binds tightest,
then unary minus, then ``* /``, then ``+ -``; binary operators associate to
the left.  Integer powers keep every tree single valued on the whole complex
plane, which is what lets the same tree be evaluated on a complex scaling
contour without branch choices.

Trees evaluate at real or complex scalars and elementwise at numpy arrays;
the dtype follows the input (real in, real out).
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ExpressionError

__all__ = ["AnalyticExpr", "parse_expression", "differentiate"]

_FUNCTIONS = {
    "exp": np.exp,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
}

_FUNC_DERIVATIVE_BUILDERS = {}  # filled in after the node classes exist


class AnalyticExpr:
    """Base node.  Subclasses implement ``__call__``, ``derivative``, ``_src``."""

    _prec = 5  # atoms need no parentheses

    def __call__(self, x):
        raise NotImplementedError

    def derivative(self) -> "AnalyticExpr":
        raise NotImplementedError

    def _src(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._src()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._src()!r})"


def _render(node: AnalyticExpr, parent_prec: int) -> str:
    s = node._src()
    return f"({s})" if node._prec < parent_prec else s


@dataclass(frozen=True, repr=False)
class Num(AnalyticExpr):
    value: float

    def __call__(self, x):
        return self.value

    def derivative(self):
        return Num(0.0)

    def _src(self):
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class Var(AnalyticExpr):
    def __call__(self, x):
        return x

    def derivative(self):
        return Num(1.0)

    def _src(self):
        return "x"


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e):
    return isinstance(e, Num) and e.value == 1.0


def _fold(cls, a, b, op):
    """cls(a, b), or one Num when a and b are literals: op on their values is
    what the node computes, bit for bit.  A node whose op raises is kept, to
    fail where it did."""
    if isinstance(a, Num) and isinstance(b, Num):
        with suppress(ArithmeticError):
            return Num(op(a.value, b.value))
    return cls(a, b)


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return _fold(Add, a, b, operator.add)


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return _neg(b)
    return _fold(Sub, a, b, operator.sub)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return _fold(Mul, a, b, operator.mul)


def _neg(a):
    if _is_zero(a):
        return Num(0.0)
    return Num(-a.value) if isinstance(a, Num) else Neg(a)


def _square(a):
    if isinstance(a, Num):
        with suppress(ArithmeticError):
            return Num(a.value ** 2)
    return Pow(a, 2)


@dataclass(frozen=True, repr=False)
class Add(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr
    _prec = 1

    def __call__(self, x):
        return self.left(x) + self.right(x)

    def derivative(self):
        return _add(self.left.derivative(), self.right.derivative())

    def _src(self):
        return f"{_render(self.left, 1)} + {_render(self.right, 2)}"


@dataclass(frozen=True, repr=False)
class Sub(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr
    _prec = 1

    def __call__(self, x):
        return self.left(x) - self.right(x)

    def derivative(self):
        return _sub(self.left.derivative(), self.right.derivative())

    def _src(self):
        return f"{_render(self.left, 1)} - {_render(self.right, 2)}"


@dataclass(frozen=True, repr=False)
class Mul(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr
    _prec = 2

    def __call__(self, x):
        return self.left(x) * self.right(x)

    def derivative(self):
        return _add(
            _mul(self.left.derivative(), self.right),
            _mul(self.left, self.right.derivative()),
        )

    def _src(self):
        return f"{_render(self.left, 2)}*{_render(self.right, 3)}"


@dataclass(frozen=True, repr=False)
class Div(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr
    _prec = 2

    def __call__(self, x):
        den = self.right(x)
        # a nonzero literal denominator, as in ((x+4)/3)^2, needs no check
        nonzero_literal = isinstance(self.right, Num) and self.right.value != 0
        if not nonzero_literal and np.any(np.asarray(den) == 0):
            raise EvalDomainError(f"division by zero in {self._src()!r}")
        return self.left(x) / den

    def derivative(self):
        # (u/v)' = (u'v - uv') / v^2
        num = _sub(
            _mul(self.left.derivative(), self.right),
            _mul(self.left, self.right.derivative()),
        )
        return _fold(Div, num, _square(self.right), operator.truediv)

    def _src(self):
        return f"{_render(self.left, 2)}/{_render(self.right, 3)}"


@dataclass(frozen=True, repr=False)
class Neg(AnalyticExpr):
    child: AnalyticExpr
    _prec = 3

    def __call__(self, x):
        return -self.child(x)

    def derivative(self):
        return _neg(self.child.derivative())

    def _src(self):
        return f"-{_render(self.child, 3)}"


@dataclass(frozen=True, repr=False)
class Pow(AnalyticExpr):
    base: AnalyticExpr
    exponent: int
    _prec = 4

    def __call__(self, x):
        b = self.base(x)
        if self.exponent < 0 and np.any(np.asarray(b) == 0):
            raise EvalDomainError(f"zero base with negative exponent in {self._src()!r}")
        if isinstance(b, (float, complex)):
            # powered as a 0-d array, so a scalar gets the value it would
            # get inside an array (numpy squares at n = 2; C pow() may
            # differ in the last bit), and back to the scalar's own type
            return type(b)(np.asarray(b) ** self.exponent)
        return b ** self.exponent

    def derivative(self):
        n = self.exponent
        if n == 0:
            return Num(0.0)
        inner = self.base.derivative()
        if n == 1:
            return inner
        outer = _mul(Num(float(n)), self.base if n == 2 else Pow(self.base, n - 1))
        return _mul(outer, inner)

    def _src(self):
        return f"{_render(self.base, 5)}^{self.exponent}"


@dataclass(frozen=True, repr=False)
class Call(AnalyticExpr):
    name: str
    arg: AnalyticExpr

    def __call__(self, x):
        return _FUNCTIONS[self.name](self.arg(x))

    def derivative(self):
        return _mul(_FUNC_DERIVATIVE_BUILDERS[self.name](self.arg), self.arg.derivative())

    def _src(self):
        return f"{self.name}({self.arg._src()})"


_FUNC_DERIVATIVE_BUILDERS.update(
    {
        "exp": lambda u: Call("exp", u),
        # tanh' = 1 - tanh^2
        "tanh": lambda u: Sub(Num(1.0), Pow(Call("tanh", u), 2)),
        "sin": lambda u: Call("cos", u),
        "cos": lambda u: Neg(Call("sin", u)),
    }
)


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPERATORS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'name' | one of the operator characters
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExpressionError(f"malformed number {lit!r}", i) from None
            tokens.append(_Token("num", lit, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.offset)
        return tok

    def parse(self) -> AnalyticExpr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self) -> AnalyticExpr:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> AnalyticExpr:
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.next().kind
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> AnalyticExpr:
        if self.peek().kind == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> AnalyticExpr:
        node = self.atom()
        while self.peek().kind == "^":
            caret = self.next()
            node = Pow(node, self._exponent(caret))
        return node

    def _exponent(self, caret: _Token) -> int:
        # Exponent may carry a sign, but must fold to an integer constant.
        sign = 1
        while self.peek().kind == "-":
            self.next()
            sign = -sign
        node = self.atom()
        try:
            value = complex(node(0.0))  # constant nodes ignore x; Var returns it
        except EvalDomainError:
            raise ExpressionError("non-integer exponent", caret.offset) from None
        if not isinstance(node, Num):
            # Only literal (possibly parenthesized) constants are allowed; a
            # tree containing x would silently evaluate above, so re-check.
            if _contains_var(node):
                raise ExpressionError("exponent must be a constant", caret.offset)
        if value.imag != 0 or value.real != int(value.real):
            raise ExpressionError("non-integer exponent", caret.offset)
        return sign * int(value.real)

    def atom(self) -> AnalyticExpr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            if tok.text == "x":
                return Var()
            if tok.text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.offset)
        raise ExpressionError(f"expected a value, found {tok.text or 'end of input'!r}", tok.offset)


def _contains_var(node: AnalyticExpr) -> bool:
    return isinstance(node, Var) or any(
        _contains_var(v) for v in vars(node).values() if isinstance(v, AnalyticExpr))


def parse_expression(text: str) -> AnalyticExpr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExpressionError` (with character offset) on syntax
    errors, unknown identifiers, and non-integer exponents.
    """
    return _Parser(text).parse()


def differentiate(expr: AnalyticExpr) -> AnalyticExpr:
    """Return the symbolic derivative d(expr)/dx as a new tree."""
    return expr.derivative()
