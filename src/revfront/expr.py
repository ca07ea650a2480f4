"""Parsing and evaluation of one-variable closed-form expressions.

The grammar covers numeric literals, the parameter t, +, -, *, /, ^ (all
binary operators left-associative), unary minus, parentheses, and calls of
sin, cos, tan, cot, exp, log, sqrt, sinh, cosh, atan.  Precedence from
tightest to loosest: ^, unary minus, * /, + -.

One tree walk evaluates an expression to its values at samples t or to
its Taylor jets (see jets.Jet), and both raise DomainError alike: at a
pole of / or of a negative integer power, |den| < jets.DIV_TOL * (1 +
|num|); for log of x <= 0, sqrt of x < 0, a non-integer power of a base
<= 0; and, as ExponentError, for an exponent of ^ that is not one finite
constant (equal on all samples, derivatives up to max(jet order,
jets.ORDER_CAP) zero, at most jets.EXPONENT_CAP if an integer).  Jets
also refuse sqrt at 0 and an overflowing derivative.  Pretty-printing
emits source that reparses to a structurally identical tree.
"""

from __future__ import annotations

import functools
import operator
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

# name -> (jet function, value function); a value function takes the
# argument's values and the samples t, which name a pole in its error
FUNCTIONS = {
    "sin": (jets.sin, lambda x, t: np.sin(x)),
    "cos": (jets.cos, lambda x, t: np.cos(x)),
    "tan": (jets.tan, lambda x, t: jets.quotient(np.sin(x), np.cos(x), t)),
    "cot": (jets.cot, lambda x, t: jets.quotient(np.cos(x), np.sin(x), t)),
    "exp": (jets.exp, lambda x, t: np.exp(x)),
    "log": (jets.log, lambda x, t: jets.log_value(x)),
    "sqrt": (jets.sqrt, lambda x, t: jets.sqrt_value(x)),
    "sinh": (jets.sinh, lambda x, t: np.sinh(x)),
    "cosh": (jets.cosh, lambda x, t: np.cosh(x)),
    "atan": (jets.atan, lambda x, t: np.arctan(x)),
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
    """The exponent of ^ breaks a rule of the module docstring."""


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

def eval_jet(e: Expr | str, t, order: int = 5) -> Jet:
    """Taylor jet of an expression at t (scalar or array base), of an
    order from 0 to jets.ORDER_CAP."""
    if not 0 <= order <= jets.ORDER_CAP:
        raise ValueError("order must be between 0 and %d" % jets.ORDER_CAP)
    return eval_jet_any_order(e, t, order)


def eval_jet_any_order(e: Expr | str, t, order: int) -> Jet:
    """Internal variant without the order cap (series machinery needs it)."""
    if isinstance(e, str):
        e = parse(e)
    var = jets.variable(t, order)
    return _eval(e, var.t, var)


def eval_values(e: Expr | str, t):
    """Evaluate an expression's values at the samples t (scalar or array)."""
    if isinstance(e, str):
        e = parse(e)
    t = np.asarray(t, dtype=float)
    return _eval(e, t, t)


_RING = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval(e: Expr, t, var):
    """e at the samples t: its values if var is t, its jet if var is the
    jet of t.  Every rule is written once for both; they differ only in
    constants, FUNCTIONS and the final / and ** of each algebra."""
    jet = isinstance(var, Jet)
    if isinstance(e, Var):
        return var
    if isinstance(e, Num):
        if jet:
            return jets.constant(e.value, var.order, t)
        return np.full(t.shape, e.value) if t.shape else np.float64(e.value)
    if isinstance(e, Neg):
        return -_eval(e.operand, t, var)
    if isinstance(e, Call):
        jet_fn, value_fn = FUNCTIONS[e.func]
        arg = _eval(e.arg, t, var)
        return jet_fn(arg) if jet else value_fn(arg, t)
    if isinstance(e, BinOp):
        left = _eval(e.left, t, var)
        if e.op == "^":
            p = _exponent(e.right, t, var)
            return left ** p if jet else _power(left, p, t)
        right = _eval(e.right, t, var)
        if e.op in _RING:
            return _RING[e.op](left, right)
        return left / right if jet else jets.quotient(left, right, t)
    raise TypeError("not an expression node: %r" % (e,))


def _exponent(e: Expr, t, var) -> float:
    """The exponent e of ^ as one float, under the rules of the module
    docstring.  Both modes take its value from the value algebra, so they
    round it alike (4^1.5), and test its derivatives: one sample cannot
    show by its value that e depends on t (t^2 at 0)."""
    flat = np.ravel(_eval(e, t, t))
    if not np.isfinite(flat).all():
        wild = flat[~np.isfinite(flat)]
        raise ExponentError("exponent %r is not finite" % float(wild[0]))
    if flat.size != 1 and not (flat.size and np.all(flat == flat[0])):
        raise ExponentError("exponent must be a single constant")
    if _mentions_t(e):
        if not (isinstance(var, Jet) and var.order >= jets.ORDER_CAP):
            var = jets.variable(t, jets.ORDER_CAP)
        if np.any(_eval(e, t, var).coeffs[1:]):
            raise ExponentError("exponent must not depend on t")
    p = float(flat[0])
    if p == int(p) and abs(p) > jets.EXPONENT_CAP:
        raise ExponentError("integer exponent %.17g exceeds %d in magnitude"
                            % (p, jets.EXPONENT_CAP))
    return p


def _mentions_t(e: Expr) -> bool:
    return isinstance(e, Var) or any(
        isinstance(v, Expr) and _mentions_t(v) for v in vars(e).values())


def _power(x, p: float, t):
    """x ** p on values, with the rules of Jet.__pow__: t^(-k) has the
    pole test of 1/t^k, a non-integer power needs a positive base."""
    if p == int(p):
        if p < 0:
            jets.quotient(1.0, x ** -int(p), t)
        return x ** int(p)
    jets.check_base(x)
    return x ** p
