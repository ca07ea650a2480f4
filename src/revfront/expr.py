"""Parsing and evaluation of one-variable closed-form expressions.

The grammar covers numeric literals, the parameter t, +, -, *, /, ^ (all
binary operators left-associative), unary minus, parentheses, and calls of
sin, cos, tan, cot, exp, log, sqrt, sinh, cosh, atan.  Precedence from
tightest to loosest: ^, unary minus, * /, + -.

Expressions evaluate either to plain values or to truncated Taylor jets
(see jets.Jet).  Pretty-printing emits source that reparses to a
structurally identical tree.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import DomainError, Jet

__all__ = [
    "parse", "eval_jet", "eval_values", "to_source",
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "ExprSyntaxError", "UnknownIdentifierError", "DomainError",
    "ExponentError",
]

FUNCTIONS = {
    "sin": (jets.sin, np.sin),
    "cos": (jets.cos, np.cos),
    "tan": (jets.tan, None),
    "cot": (jets.cot, None),
    "exp": (jets.exp, np.exp),
    "log": (jets.log, None),
    "sqrt": (jets.sqrt, None),
    "sinh": (jets.sinh, np.sinh),
    "cosh": (jets.cosh, np.cosh),
    "atan": (jets.atan, np.arctan),
}


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s (byte offset %d)" % (message, offset))
        self.offset = offset


class UnknownIdentifierError(ValueError):
    def __init__(self, name: str, offset: int):
        super().__init__("unknown identifier %r (byte offset %d)" % (name, offset))
        self.name = name
        self.offset = offset


class ExponentError(DomainError):
    """The exponent of ^ is not one usable constant: it differs between
    samples, depends on t, is not finite, or is an integer of magnitude
    above jets.EXPONENT_CAP."""


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# -- tokenizer --------------------------------------------------------------

# One match per token: whitespace, then an operator, number, identifier or
# any other character (an error).  \s, \w, \d test as str.isspace, isalnum
# or "_", isdecimal.  Numbers take every isdigit character and names start
# isalpha or "_": non-ASCII text lists the other word characters.
_TOKEN = (r"(\s*)(?:([-+*/^()])"                  # operator
          r"|([%(d)s.]+(?:[eE][+-]?[%(d)s]+)?)"    # number
          r"|([^\W\d%(w)s]\w*)"                    # identifier
          r"|(\S))")                               # anything else
_ASCII_TOKEN = re.compile(_TOKEN % {"d": r"\d", "w": ""})


@functools.cache
def _unicode_token():
    odd = [c for c in map(chr, range(0x110000))
           if c.isalnum() and not (c.isalpha() or c.isdecimal())]
    return re.compile(_TOKEN % {
        "d": r"\d" + "".join(c for c in odd if c.isdigit()),
        "w": "".join(odd)})


def _tokenize(src: str):
    tokens = []
    i = 0
    scan = _ASCII_TOKEN if src.isascii() else _unicode_token()
    for space, op, number, name, other in scan.findall(src):
        i += len(space)
        if op:
            tokens.append((op, op, i))
        elif number:
            try:
                tokens.append(("num", float(number), i))
            except ValueError:
                raise ExprSyntaxError("bad numeric literal %r" % number, i) from None
        elif name:
            tokens.append(("ident", name, i))
        else:
            raise ExprSyntaxError("unexpected character %r" % other, i)
        i += len(op or number or name)
    tokens.append(("eof", None, len(src)))
    return tokens


# -- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(
                "expected %r, found %s" % (kind, tok[0]), tok[2])
        return self.advance()

    def parse(self) -> Expr:
        e = self.additive()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExprSyntaxError("unexpected trailing %r" % tok[0], tok[2])
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            e = BinOp(op, e, self.multiplicative())
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            e = BinOp("^", e, self.atom())
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        kind, value, offset = tok
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value, offset)
                self.advance()
                arg = self.additive()
                self.expect(")")
                return Call(value, arg)
            if value == "t":
                return Var()
            raise UnknownIdentifierError(value, offset)
        if kind == "(":
            self.advance()
            e = self.additive()
            self.expect(")")
            return e
        raise ExprSyntaxError("unexpected %s" % kind, offset)


@functools.lru_cache(maxsize=256)
def parse(src: str) -> Expr:
    """Parse source text into an expression tree.  Trees are immutable,
    so repeats share a cached one; syntax errors are never cached."""
    return _Parser(src).parse()


# -- printer ----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def to_source(e: Expr) -> str:
    """Render a tree as source; reparsing gives a structurally equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Call):
        return "%s(%s)" % (e.func, to_source(e.arg))
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _level(e.operand) < _LEVEL_NEG:
            inner = "(%s)" % inner
        return "-%s" % inner
    if isinstance(e, BinOp):
        lvl = _level(e)
        left = to_source(e.left)
        if _level(e.left) < lvl:
            left = "(%s)" % left
        right = to_source(e.right)
        if _level(e.right) <= lvl:
            right = "(%s)" % right
        return "%s %s %s" % (left, e.op, right) if e.op in "+-*/" else \
            "%s%s%s" % (left, e.op, right)
    raise TypeError("not an expression node: %r" % (e,))


# -- evaluation -------------------------------------------------------------

def _eval_jet(e: Expr, t_jet: Jet) -> Jet:
    if isinstance(e, Num):
        return jets.constant(e.value, t_jet.order, t_jet.t)
    if isinstance(e, Var):
        return t_jet
    if isinstance(e, Neg):
        return -_eval_jet(e.operand, t_jet)
    if isinstance(e, Call):
        return FUNCTIONS[e.func][0](_eval_jet(e.arg, t_jet))
    if isinstance(e, BinOp):
        left = _eval_jet(e.left, t_jet)
        right = _eval_jet(e.right, t_jet)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            return left / right
        # ^ with a constant-foldable exponent; jet exponents are rejected
        return left ** _exponent(right.value, right.coeffs[1:])
    raise TypeError("not an expression node: %r" % (e,))


def eval_jet(e: Expr | str, t, order: int = 5) -> Jet:
    """Evaluate an expression as a Taylor jet at t (scalar or array base).

    order is capped at jets.ORDER_CAP.
    """
    if not 0 <= order <= jets.ORDER_CAP:
        raise ValueError("order must be between 0 and %d" % jets.ORDER_CAP)
    return eval_jet_any_order(e, t, order)


def eval_jet_any_order(e: Expr | str, t, order: int) -> Jet:
    """Internal variant without the order cap (series machinery needs it)."""
    if isinstance(e, str):
        e = parse(e)
    return _eval_jet(e, jets.variable(t, order))


def eval_values(e: Expr | str, t):
    """Evaluate values only (order-0 jet, cheaper path for quadrature/ODE)."""
    if isinstance(e, str):
        e = parse(e)
    return _eval_value(e, np.asarray(t, dtype=float))


def _eval_value(e: Expr, t):
    if isinstance(e, Num):
        return np.broadcast_to(np.float64(e.value), t.shape).copy() \
            if t.shape else np.float64(e.value)
    if isinstance(e, Var):
        return t
    if isinstance(e, Neg):
        return -_eval_value(e.operand, t)
    if isinstance(e, Call):
        arg = _eval_value(e.arg, t)
        fn = FUNCTIONS[e.func][1]
        if fn is not None:
            return fn(arg)
        if e.func == "tan":
            return _checked_div(np.sin(arg), np.cos(arg), t)
        if e.func == "cot":
            return _checked_div(np.cos(arg), np.sin(arg), t)
        if e.func == "log":
            if np.any(arg <= 0):
                raise DomainError("log of a non-positive value")
            return np.log(arg)
        if e.func == "sqrt":
            if np.any(arg < 0):
                raise DomainError("sqrt of a negative value")
            return np.sqrt(arg)
        raise TypeError(e.func)
    if isinstance(e, BinOp):
        left = _eval_value(e.left, t)
        right = _eval_value(e.right, t)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            return _checked_div(left, right, t)
        # as in _eval_jet, with derivatives up to jets.ORDER_CAP: one sample
        # cannot show by its value that the exponent depends on t (t^2 at 0)
        exponent = _exponent(right, _eval_jet(
            e.right, jets.variable(t, jets.ORDER_CAP)).coeffs[1:]
            if _mentions_t(e.right) else ())
        if exponent == int(exponent):
            return left ** int(exponent)
        if np.any(left <= 0):
            raise DomainError("non-integer power of a non-positive base")
        return left ** exponent
    raise TypeError("not an expression node: %r" % (e,))


def _exponent(value, slope) -> float:
    """The exponent of ^ from its samples and derivative coefficients
    (slope): one finite constant, of magnitude at most jets.EXPONENT_CAP
    if it is an integer.  Anything else raises ExponentError."""
    flat = np.ravel(value)
    if flat.size != 1 and not (flat.size and np.all(flat == flat[0])):
        raise ExponentError("exponent must be a single constant")
    if np.any(slope):
        raise ExponentError("exponent must not depend on t")
    p = float(flat[0])
    if not math.isfinite(p):
        raise ExponentError("exponent %r is not finite" % p)
    if p == int(p) and abs(p) > jets.EXPONENT_CAP:
        raise ExponentError("integer exponent %.17g exceeds %d in magnitude"
                            % (p, jets.EXPONENT_CAP))
    return p


def _mentions_t(e: Expr) -> bool:
    return isinstance(e, Var) or any(
        isinstance(v, Expr) and _mentions_t(v) for v in vars(e).values())


def _checked_div(num, den, t):
    bad = np.abs(den) < jets.DIV_TOL * (1.0 + np.abs(num))
    if np.any(bad):
        t_bad = np.atleast_1d(np.broadcast_to(t, np.shape(bad)))[np.atleast_1d(bad)]
        raise DomainError("division by (near-)zero at t=%r" % (t_bad.ravel()[:4],))
    return num / den
