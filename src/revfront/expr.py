"""Parsing and evaluation of one-variable closed-form expressions.

The grammar covers numeric literals, the parameter t, +, -, *, /, ^ (all
binary operators left-associative), unary minus, parentheses, and calls of
sin, cos, tan, cot, exp, log, sqrt, sinh, cosh, atan.  Precedence from
tightest to loosest: ^, unary minus, * /, + -.  Source text is ASCII: any
other character is a syntax error at its offset, so offsets are bytes.

One tree walk evaluates an expression to its values at samples t or to
its Taylor jets (see jets.Jet), and both raise DomainError alike: at a
pole of / or of a negative integer power, |den| < jets.DIV_TOL * (1 +
|num|); for log of x <= 0, sqrt of x < 0, a non-integer power of a base
<= 0; and, as ExponentError, for an exponent of ^ that is not one finite
constant (equal on all samples, derivatives up to max(jet order,
jets.ORDER_CAP) zero, at most jets.EXPONENT_CAP if an integer).  Jets
also refuse sqrt at 0 and an overflowing derivative.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import DomainError, Jet

__all__ = [
    "parse", "eval_jet", "eval_values",
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

# One match per token: ASCII whitespace (as str.isspace), then an operator,
# number, identifier or any other character, ASCII or not: an error.
_TOKEN = re.compile(r"([\t-\r\x1c-\x1f ]*)(?:([-+*/^()])"   # operator
                    r"|([0-9.]+(?:[eE][+-]?[0-9]+)?)"         # number
                    r"|([A-Za-z_][A-Za-z0-9_]*)"               # identifier
                    r"|([^\t-\r\x1c-\x1f ]))")                # anything else


def _tokenize(src: str):
    tokens = []
    i = 0
    for space, op, number, name, other in _TOKEN.findall(src):
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

# Binding powers; "neg" is unary minus, and an open parenthesis or call
# ("(" or a function name) is 0.  ")" and the end apply all down to 1.
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_END = ("", "", "", "", "")     # the match after the last: no group matched


def _error(src: str, i: int, message):
    """The error at token i of src, once tokenizing all of src raised none:
    message % the token's kind at its offset, or an unknown identifier."""
    kind, value, offset = _tokenize(src)[i]
    if message is None:
        return UnknownIdentifierError(value, offset)
    return ExprSyntaxError(message % kind, offset)


@functools.lru_cache(maxsize=256)
def parse(src: str) -> Expr:
    """Parse source text into an expression tree.  Trees are immutable,
    so repeats share a cached one; syntax errors are never cached.  One
    operator-precedence loop over the token regex's matches: unary minus
    starts any operand but an exponent, so -t^2 is -(t^2) and 2^-t is
    refused (write 2^(-t))."""
    tokens = _TOKEN.findall(src)
    tokens.append(_END)
    out, ops = [], []
    operand = True              # an operand is due, else an operator
    i = 0
    while True:
        _, op, number, name, _ = tokens[i]
        i += 1
        if operand:
            if number:
                try:
                    out.append(Num(float(number)))
                except ValueError:
                    raise _error(src, i - 1, None) from None
                operand = False
            elif name and tokens[i][1] == "(" and name in FUNCTIONS:
                ops.append(name)
                i += 1
            elif name == "t" and tokens[i][1] != "(":
                out.append(Var())
                operand = False
            elif op == "(":
                ops.append("(")
            elif op == "-" and not (ops and ops[-1] == "^"):
                ops.append("neg")
            else:
                raise _error(src, i - 1, None if name else "unexpected %s")
            continue
        # apply the pending operators that bind at least as tightly
        power = _BINDS.get(op, 1)
        while ops and _BINDS.get(ops[-1], 0) >= power:
            top = ops.pop()
            if top == "neg":
                out[-1] = Neg(out[-1])
            else:
                right = out.pop()
                out[-1] = BinOp(top, out[-1], right)
        if op in _BINDS:
            ops.append(op)
            operand = True
        elif op == ")" and ops:
            opener = ops.pop()
            if opener != "(":
                out[-1] = Call(opener, out[-1])
        elif ops:
            raise _error(src, i - 1, "expected ')', found %s")
        elif tokens[i - 1] is _END:
            return out[0]
        else:
            raise _error(src, i - 1, "unexpected trailing %r")


# -- evaluation -------------------------------------------------------------

def eval_jet(e: Expr | str, t, order: int = 5) -> Jet:
    """Taylor jet of an expression at t (scalar or array base), of an
    order from 0 to jets.ORDER_CAP."""
    if not 0 <= order <= jets.ORDER_CAP:
        raise ValueError("order must be between 0 and %d" % jets.ORDER_CAP)
    return eval_jet_any_order(e, t, order)


def eval_jet_any_order(e: Expr | str, t, order: int) -> Jet:
    """Internal variant without the order cap (series machinery needs it)."""
    if order < 0:
        raise ValueError(f"jet order must be at least 0, got {order}")
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
    jet = var is not t
    if isinstance(e, BinOp):
        op, left, right = e.op, e.left, e.right
        if op in _RING:
            # in jet mode a literal beside a non-literal enters as a float, with
            # the bits of a constant jet's product or sum
            lnum, rnum = isinstance(left, Num), isinstance(right, Num)
            return _RING[op](
                left.value if jet and lnum and not rnum else _eval(left, t, var),
                right.value if jet and rnum and not lnum else _eval(right, t, var))
        left = _eval(left, t, var)
        if op == "^":
            p = _exponent(right, t, var)
            return left ** p if jet else _power(left, p, t)
        right = _eval(right, t, var)
        return left / right if jet else jets.quotient(left, right, t)
    if isinstance(e, Num):
        if jet:
            return jets.constant(e.value, var.order, t)
        return np.full(t.shape, e.value) if t.shape else np.float64(e.value)
    if isinstance(e, Var):
        return var
    if isinstance(e, Neg):
        return -_eval(e.operand, t, var)
    if isinstance(e, Call):
        jet_fn, value_fn = FUNCTIONS[e.func]
        arg = _eval(e.arg, t, var)
        return jet_fn(arg) if jet else value_fn(arg, t)
    raise TypeError("not an expression node: %r" % (e,))


def _exponent(e: Expr, t, var) -> float:
    """The exponent e of ^ as one float, under the rules of the module
    docstring.  Both modes take its value from the value algebra, so they
    round it alike (4^1.5), and test its derivatives: one sample cannot
    show by its value that e depends on t (t^2 at 0)."""
    if isinstance(e, Num) and t.size and math.isfinite(e.value):
        p = e.value                 # finite, equal on all samples, free of t
    else:
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
    pole test of 1/t^k, a non-integer power needs a positive base.  A
    scalar x rounds as an array base (numpy's power, not the C pow)."""
    x = np.asarray(x)
    if p == int(p):
        if p < 0:
            jets.quotient(1.0, x ** -int(p), t)
        return x ** int(p)
    jets.check_base(x)
    return x ** p
