"""Parsing and evaluation of one-variable closed-form expressions.

The grammar covers numeric literals, the parameter t, +, -, *, /, ^ (all
binary operators left-associative), unary minus, parentheses, and calls of
sin, cos, tan, cot, exp, log, sqrt, sinh, cosh, atan.  Precedence from
tightest to loosest: ^, unary minus, * /, + -.  Source text is ASCII: any
other character is a syntax error at its offset, so offsets are bytes.

One tree walk evaluates an expression to its values at samples t, to
its Taylor jets (see jets.Jet), or to its Laurent jet about one point
(eval_laurent, see jets.Laurent).  Values and jets raise DomainError
alike: at a pole of / or of a negative integer power, |den| <
jets.DIV_TOL * (1 + |num|); for log of x <= 0, sqrt of x < 0, a
non-integer power of a base <= 0; and, as ExponentError, for an
exponent of ^ that is not one finite constant (equal on all samples,
derivatives up to max(jet order, jets.ORDER_CAP) zero, at most
jets.EXPONENT_CAP if an integer).  Jets also refuse sqrt at 0 and an
overflowing derivative; a Laurent jet passes a pole at its point.

In jet evaluation a literal operand of +, - or * beside a non-literal
enters as a float, and a minus sign on a numeric literal makes a literal
(-2*t, t-(-0.5)).  A sum has the bits of the constant jet the literal
replaces; a product's exact-zero coefficients take the sign of the
literal times 0.0.

Source text is evaluated through a template of its shape: the text
between its numeric literals, which fixes the token sequence with each
literal masked.  Each shape is parsed once into a tree whose literals
are Slots, numbered in source order, and the walk reads each slot from
this source's own literals.  The 256 most recent shapes and the 256 most
recent sources are kept; only shapes that parse are, and values and jets
never are.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re

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


class Expr:
    """A node of an expression tree.  Nodes are immutable, and equal and
    hashed alike when their classes and fields are: Num(0.0) == Num(-0.0).
    A node's fields are its __dict__, in the order of its __init__, which
    sets them past the refusing __setattr__."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % field for field in vars(self).items()))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class Num(Expr):
    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Var(Expr):
    pass


class Neg(Expr):
    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)


class BinOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Call(Expr):
    def __init__(self, func: str, arg: Expr):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)


class Slot(Expr):
    """The literal of a template tree that the evaluated source supplies:
    its index-th numeric literal, counted from the left."""

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


# -- tokenizer --------------------------------------------------------------

# One match per token: ASCII whitespace (as str.isspace), then an operator,
# number, identifier or any other character, ASCII or not: an error.
_NUMBER = r"([0-9.]+(?:[eE][+-]?[0-9]+)?)"
_TOKEN = re.compile(r"([\t-\r\x1c-\x1f ]*)(?:([-+*/^()])"   # operator
                    r"|" + _NUMBER +                          # number
                    r"|([A-Za-z_][A-Za-z0-9_]*)"               # identifier
                    r"|([^\t-\r\x1c-\x1f ]))")                # anything else
_LITERAL = re.compile(_NUMBER)


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


# -- templates of shapes ------------------------------------------------------

_KEPT = 256                             # shapes, and sources, kept
_SHAPES = collections.OrderedDict()     # shape -> template, most recent last


@functools.lru_cache(maxsize=_KEPT)
def _shaped(src: str):
    """(template, literals) of source text.  The shape is the text between
    the numeric literals, whitespace included, and only a source that
    parses makes a template.  In such a source a literal has an operator,
    a parenthesis, whitespace or an end on each side, so any source with
    its shape has its tokens, each literal a slot: "s in(t)" is not
    "sin(t)" and "*t" is not "2*t", while "t+1" and "t + 1" are two
    shapes of one template.  A source whose literal float() refuses
    (1.2.3) raises parse's error."""
    parts = _LITERAL.split(src)
    try:
        literals = tuple([float(number) for number in parts[1::2]])
    except ValueError:
        return parse(src), ()
    shape = tuple(parts[0::2])
    template = _SHAPES.pop(shape, None)
    if template is None:
        template = _slotted(parse(src), itertools.count())
    _SHAPES[shape] = template
    if len(_SHAPES) > _KEPT:
        _SHAPES.popitem(last=False)
    return template, literals


def _slotted(e: Expr, slots) -> Expr:
    """e with its literals as Slots in the order of their tokens: a
    left-to-right walk meets them in source order."""
    if isinstance(e, Num):
        return Slot(next(slots))
    if isinstance(e, BinOp):
        left = _slotted(e.left, slots)
        return BinOp(e.op, left, _slotted(e.right, slots))
    if isinstance(e, Neg):
        return Neg(_slotted(e.operand, slots))
    if isinstance(e, Call):
        return Call(e.func, _slotted(e.arg, slots))
    return e


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
    e, literals = _shaped(e) if isinstance(e, str) else (e, ())
    var = jets.variable(t, order)
    return _eval(e, var.t, var, literals)


def eval_laurent(e: Expr | str, t0: float, order: int) -> jets.Laurent:
    """The expression about the scalar t0 as a jets.Laurent, its variable
    of the given order: a pole at t0 is a valuation, not a DomainError."""
    e, literals = _shaped(e) if isinstance(e, str) else (e, ())
    var = jets.Laurent(jets.variable(float(t0), order))
    return _eval(e, var.jet.t, var, literals)


def eval_values(e: Expr | str, t):
    """Evaluate an expression's values at the samples t (scalar or array)."""
    e, literals = _shaped(e) if isinstance(e, str) else (e, ())
    t = np.asarray(t, dtype=float)
    return _eval(e, t, t, literals)


_RING = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _literal(e: Expr, literals):
    """The value of a literal (a Num, or a Slot read from literals), else
    None."""
    if isinstance(e, Slot):
        return literals[e.index]
    if isinstance(e, Num):
        return e.value
    return None


def _signed_literal(e: Expr, literals):
    """The value of a literal or of a minus sign on one (Neg of a Num or a
    Slot), else None."""
    if isinstance(e, Neg):
        value = _literal(e.operand, literals)
        return None if value is None else -value
    return _literal(e, literals)


def _eval(e: Expr, t, var, literals=()):
    """e at the samples t: its values if var is t, its jet if var is the
    jet of t, its jets.Laurent if var is the Laurent jet of t; a Slot of
    e reads literals.  Every rule is written once for all three; they
    differ only in constants, FUNCTIONS (which take the Taylor form of a
    Laurent argument) and the final / and ** of each algebra."""
    jet = var is not t
    if isinstance(e, BinOp):
        op, left, right = e.op, e.left, e.right
        if op in _RING:
            # in jet mode a literal beside a non-literal enters as a float,
            # and a minus sign on a literal makes a literal (-c).  A sum is
            # +-X plus or minus |c|, which has a constant jet's bits, so a
            # Laurent jet adds a Laurent constant instead; a product keeps
            # -0.0 where a constant jet's product makes 0.0, and either
            # algebra folds a product's literal
            fold = jet and (op == "*" or type(var) is Jet)
            lv = _signed_literal(left, literals) if fold else None
            rv = _signed_literal(right, literals) if fold else None
            if (lv is None) == (rv is None):
                return _RING[op](_eval(left, t, var, literals),
                                 _eval(right, t, var, literals))
            x = _eval(left if lv is None else right, t, var, literals)
            c = rv if lv is None else lv
            if op == "*":
                return x * c
            if op == "-":
                if lv is None:
                    c = -c          # X - c is X + (-c)
                else:
                    x = -x          # c - X is -X + c
            # adding -|c| subtracts |c|: the other coefficients stay as
            # they are, as they do beside a constant jet's -0.0
            return x - -c if math.copysign(1.0, c) < 0 else x + c
        left = _eval(left, t, var, literals)
        if op == "^":
            p = _exponent(right, t, var, literals)
            return left ** p if jet else _power(left, p, t)
        right = _eval(right, t, var, literals)
        return left / right if jet else jets.quotient(left, right, t)
    value = _literal(e, literals)
    if value is not None:
        if jet:
            if type(var) is not Jet:
                return jets.Laurent(jets.constant(value, var.jet.order, t))
            return jets.constant(value, var.order, t)
        return np.full(t.shape, value) if t.shape else np.float64(value)
    if isinstance(e, Var):
        return var
    if isinstance(e, Neg):
        return -_eval(e.operand, t, var, literals)
    if isinstance(e, Call):
        jet_fn, value_fn = FUNCTIONS[e.func]
        arg = _eval(e.arg, t, var, literals)
        if not jet:
            return value_fn(arg, t)
        return jet_fn(arg) if type(var) is Jet else jets.Laurent(
            jet_fn(arg.taylor()))
    raise TypeError("not an expression node: %r" % (e,))


def _exponent(e: Expr, t, var, literals) -> float:
    """The exponent e of ^ as one float, under the rules of the module
    docstring.  Both modes take its value from the value algebra, so they
    round it alike (4^1.5), and test its derivatives: one sample cannot
    show by its value that e depends on t (t^2 at 0)."""
    p = _literal(e, literals)
    if p is None or not t.size or not math.isfinite(p):
        # else p is finite, equal on all samples, free of t
        flat = np.ravel(_eval(e, t, t, literals))
        if not np.isfinite(flat).all():
            wild = flat[~np.isfinite(flat)]
            raise ExponentError("exponent %r is not finite" % float(wild[0]))
        if flat.size != 1 and not (flat.size and np.all(flat == flat[0])):
            raise ExponentError("exponent must be a single constant")
        if _mentions_t(e):
            # a Laurent walk tests its Taylor variable's order, as a jet
            # walk does, so both see the same derivatives of e
            if isinstance(var, jets.Laurent):
                var = var.jet
            if not (isinstance(var, Jet) and var.order >= jets.ORDER_CAP):
                var = jets.variable(t, jets.ORDER_CAP)
            if np.any(_eval(e, t, var, literals).coeffs[1:]):
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
