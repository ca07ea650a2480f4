"""Test oracles that the package itself never calls.

congruence_align measures how far two Legendre curves are from being
rigid motions of each other; to_source prints an expression tree back
to source that reparses to a structurally equal tree; RecursiveParser is
the five-level recursive descent that expr.parse replaced, kept to pin
the trees, errors, messages and offsets of the operator-precedence loop;
laurent_coefficients expands an expression about a point with sympy.
"""

from dataclasses import dataclass

import numpy as np
import sympy as sp

from revfront.expr import (FUNCTIONS, BinOp, Call, ExprSyntaxError, Neg, Num,
                           UnknownIdentifierError, Var, _tokenize)


@dataclass
class Alignment:
    angle: float
    translation: np.ndarray
    residual: float


def congruence_align(c1, c2) -> Alignment:
    """Best rigid motion taking c1 onto c2.

    The rotation angle is fixed by the normals at the middle sample, the
    translation is the least-squares optimum for that rotation, and the
    residual is the largest remaining pointwise distance.
    """
    if c1.t.shape != c2.t.shape:
        raise ValueError("curves must share a grid")
    mid = c1.t.size // 2
    n1, n2 = ([c.normal.a.value[mid], c.normal.b.value[mid]] for c in (c1, c2))
    ang = np.arctan2(n2[1], n2[0]) - np.arctan2(n1[1], n1[0])
    rot = np.array([[np.cos(ang), -np.sin(ang)],
                    [np.sin(ang), np.cos(ang)]])
    p1, p2 = (np.stack([c.curve.x.value, c.curve.z.value], axis=-1)
              for c in (c1, c2))
    moved = p1 @ rot.T
    shift = np.mean(p2 - moved, axis=0)
    residual = float(np.max(np.linalg.norm(moved + shift - p2, axis=1)))
    return Alignment(float(ang), shift, residual)


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def to_source(e) -> str:
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


class RecursiveParser:
    """Recursive descent over expr's tokens: additive, multiplicative,
    unary, atom; ^ takes atoms on both sides, left-associative."""

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

    def parse(self):
        e = self.additive()
        tok = self.peek()
        if tok[0] != "eof":
            raise ExprSyntaxError("unexpected trailing %r" % tok[0], tok[2])
        return e

    def additive(self):
        e = self.multiplicative()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            e = BinOp(op, e, self.multiplicative())
        return e

    def multiplicative(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            e = BinOp(op, e, self.unary())
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            e = BinOp("^", e, self.atom())
        return e

    def atom(self):
        kind, value, offset = self.peek()
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


def laurent_coefficients(src, t0, count):
    """(v, [c_0, ..., c_{count-1}]) with f(t0 + s) = s^v (c_0 + c_1 s + ...)
    and c_0 != 0, from sympy's series of the expression src.  t0 is a
    sympy number, exact: sin(pi) is 0 here, not 1.2e-16."""
    s = sp.Symbol("s")
    f = sp.sympify(src.replace("^", "**"), locals={"t": s + t0})
    series = sp.expand(sp.series(f, s, 0, count).removeO())
    terms = dict(reversed(term.as_coeff_exponent(s))
                 for term in sp.Add.make_args(series))
    v = int(min(terms))
    return v, [float(terms.get(v + k, 0)) for k in range(count)]
