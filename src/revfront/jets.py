"""Truncated Taylor-coefficient arithmetic.

A Jet stores the scaled derivatives c_i = f^(i)(t)/i! of a scalar function
at a base point, up to a fixed order.  The base point may be a scalar or a
numpy array, in which case every coefficient is an array of the same shape
and all operations act elementwise.  Public evaluation caps the order at
ORDER_CAP; the arithmetic itself works at any order.

The product sums each coefficient left to right, a[0]*b[k] first: array
bases by shift-and-add over coefficient rows, scalar bases in a loop on
Python floats.  Both give the bits of the plain double loop, so reruns,
and rewrites that keep the order, are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

ORDER_CAP = 5

# An integer power is a chain of products: expr caps the exponent here.
EXPONENT_CAP = 1024

# |denominator| below DIV_TOL * (1 + |numerator|) counts as a pole.
DIV_TOL = 1e-13


class DomainError(ArithmeticError):
    """Evaluation left the domain of a function (pole, log/sqrt branch)."""


def _as_array(x):
    return np.asarray(x, dtype=float)


class Jet:
    __slots__ = ("t", "coeffs")

    def __init__(self, t, coeffs):
        self.t = _as_array(t)
        c = _as_array(coeffs)
        if c.shape[1:] != self.t.shape:
            c = np.broadcast_to(c.reshape(c.shape + (1,) * self.t.ndim),
                                c.shape[:1] + self.t.shape).copy()
        self.coeffs = c

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, i: int):
        """i-th derivative value, i.e. i! * c_i.  Zero beyond the stored order."""
        if i > self.order:
            return np.zeros_like(self.coeffs[0])
        return math.factorial(i) * self.coeffs[i]

    def at(self, idx) -> "Jet":
        """Scalar-base jet at one node of an array-based jet."""
        return Jet(self.t[idx], self.coeffs[(slice(None),) + np.index_exp[idx]])

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.t, self.coeffs[: order + 1])

    def differentiated(self) -> "Jet":
        """Jet of the derivative function; order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.order + 1, dtype=float)
        k = k.reshape((-1,) + (1,) * self.t.ndim)
        return Jet(self.t, k * self.coeffs[1:])

    def antiderivative(self, value) -> "Jet":
        """Jet of an antiderivative with the given value; order grows by one."""
        k = np.arange(1, self.order + 2, dtype=float)
        k = k.reshape((-1,) + (1,) * self.t.ndim)
        head = np.broadcast_to(_as_array(value), self.t.shape)[None]
        return Jet(self.t, np.concatenate([head, self.coeffs / k]))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return constant(other, self.order, self.t)

    def __add__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        return Jet(self.t, self.coeffs[: n + 1] + other.coeffs[: n + 1])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Jet(self.t, -self.coeffs)

    def __sub__(self, other):
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.t, self.coeffs * float(other))
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        if self.t.ndim:
            out = a[0] * b[:n + 1]
            for i in range(1, n + 1):
                out[i:] += a[i] * b[:n + 1 - i]
            return Jet(self.t, out)
        a, b, out = a.tolist(), b.tolist(), []
        for k in range(n + 1):
            s = a[0] * b[k]
            for i in range(1, k + 1):
                s = s + a[i] * b[k - i]
            out.append(s)
        return Jet(self.t, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.t, self.coeffs / float(other))
        num, den = self, other
        n = min(num.order, den.order)
        a, b = num.coeffs, den.coeffs
        out = np.empty((n + 1,) + self.t.shape)
        out[0] = quotient(a[0], b[0], self.t)
        for k in range(1, n + 1):
            s = a[k].astype(float, copy=True)
            for j in range(1, k + 1):
                s = s - b[j] * out[k - j]
            out[k] = s / b[0]
        return Jet(self.t, out)

    def __rtruediv__(self, other):
        return constant(other, self.order, self.t).__truediv__(self)

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        if float(p) == int(p):
            return self._int_pow(int(p))
        check_base(self.value)
        return exp(float(p) * log(self))

    def _int_pow(self, p: int):
        if p == 0:
            return constant(1.0, self.order, self.t)
        if p < 0:
            return constant(1.0, self.order, self.t) / self._int_pow(-p)
        result = self
        for _ in range(p - 1):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.coeffs.shape == other.coeffs.shape
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        return "Jet(t=%r, coeffs=%r)" % (self.t, self.coeffs)


# -- domain rules, shared with the value algebra of expr --------------------

def _refuse(bad, t, what):
    """Raise DomainError naming the first samples of t where bad holds."""
    if np.any(bad):
        t_bad = np.atleast_1d(np.broadcast_to(t, np.shape(bad)))[np.atleast_1d(bad)]
        raise DomainError("%s at t=%r" % (what, t_bad.ravel()[:4]))


def quotient(num, den, t):
    """num / den of values at the samples t; DomainError at a pole, where
    |den| < DIV_TOL * (1 + |num|)."""
    _refuse(np.abs(den) < DIV_TOL * (1.0 + np.abs(num)), t,
            "division by (near-)zero")
    return num / den


def check_base(x):
    """Raise DomainError unless x > 0, as a non-integer power needs."""
    if np.any(x <= 0):
        raise DomainError("non-integer power of a non-positive base")


def log_value(x):
    """np.log(x), or DomainError where x <= 0."""
    if np.any(x <= 0):
        raise DomainError("log of a non-positive value")
    return np.log(x)


def sqrt_value(x):
    """np.sqrt(x), or DomainError where x < 0."""
    if np.any(x < 0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(x)


def variable(t, order: int) -> Jet:
    """Jet of the identity function at base point t."""
    j = constant(t, order, t)
    if order >= 1:
        j.coeffs[1] = 1.0
    return j


def constant(c, order: int, like_t=0.0) -> Jet:
    t = _as_array(like_t)
    coeffs = np.zeros((order + 1,) + t.shape)
    coeffs[0] = c
    return Jet(t, coeffs)


# -- composition with elementary functions ---------------------------------

def _compose(g: Jet, dvals) -> Jet:
    """Jet of f(g) from the derivative values of f at g's base value, by
    Horner's rule in g - g(t): each step adds f^(m)/m! to coefficient 0,
    and 0.0 to the others (turning -0.0 into 0.0, as adding a jet does)."""
    n = g.order
    h = Jet(g.t, np.concatenate([np.zeros((1,) + g.t.shape), g.coeffs[1:]]))
    result = constant(dvals[n] / math.factorial(n), n, g.t)
    for m in range(n - 1, -1, -1):
        result = result * h
        result.coeffs[1:] += 0.0
        result.coeffs[0] += dvals[m] / math.factorial(m)
    return result


def _apply(g: Jet, dvals) -> Jet:
    """f(g) from f's derivatives at g's value, to g's order or one period;
    refuses one that overflows (log near 0): _compose would give NaN."""
    result = _compose(g, [dvals[m % len(dvals)] for m in range(g.order + 1)])
    if np.isnan(result.value).any():
        _refuse(np.isnan(result.value) & ~np.isnan(dvals[0]), g.t,
                "derivative overflow")
    return result


def sin(g: Jet) -> Jet:
    x = g.value
    return _apply(g, [np.sin(x), np.cos(x), -np.sin(x), -np.cos(x)])


def cos(g: Jet) -> Jet:
    x = g.value
    return _apply(g, [np.cos(x), -np.sin(x), -np.cos(x), np.sin(x)])


def tan(g: Jet) -> Jet:
    return sin(g) / cos(g)


def cot(g: Jet) -> Jet:
    return cos(g) / sin(g)


def exp(g: Jet) -> Jet:
    return _apply(g, [np.exp(g.value)])


def log(g: Jet) -> Jet:
    x = g.value
    return _apply(g, [log_value(x)] + [
        (-1.0) ** (m - 1) * math.factorial(m - 1) / x ** m
        for m in range(1, g.order + 1)])


def sqrt(g: Jet) -> Jet:
    x = g.value
    dvals = [sqrt_value(x)]
    if g.order >= 1 and np.any(x == 0):
        raise DomainError("sqrt derivative at zero")
    coef = 0.5
    for m in range(1, g.order + 1):
        dvals.append(coef * x ** (0.5 - m))
        coef *= 0.5 - m
    return _apply(g, dvals)


def sinh(g: Jet) -> Jet:
    x = g.value
    return _apply(g, [np.sinh(x), np.cosh(x)])


def cosh(g: Jet) -> Jet:
    x = g.value
    return _apply(g, [np.cosh(x), np.sinh(x)])


def atan(g: Jet) -> Jet:
    x = g.value
    dvals = [np.arctan(x)]
    if g.order >= 1:
        w = 1.0 / (1.0 + variable(x, g.order - 1) ** 2)
        for m in range(1, g.order + 1):
            dvals.append(math.factorial(m - 1) * w.coeffs[m - 1])
    return _apply(g, dvals)


def jet_div_reduced(num: Jet, den: Jet, tol: float = 1e-9) -> Jet:
    """Divide scalar-base jets after stripping common leading (near-)zeros.

    Handles removable singularities such as l = (alpha*beta*x)/cos(phi) at a
    point where both factors vanish to the same order.  Output order drops by
    the number of stripped coefficients.
    """
    if num.t.shape != () or den.t.shape != ():
        raise ValueError("reduced division works on scalar-base jets")
    sn = max(1.0, float(np.max(np.abs(num.coeffs))))
    sd = max(1.0, float(np.max(np.abs(den.coeffs))))
    k = 0
    n = min(num.order, den.order)
    while (k < n and abs(num.coeffs[k]) <= tol * sn
           and abs(den.coeffs[k]) <= tol * sd):
        k += 1
    return Jet(num.t, num.coeffs[k: n + 1]) / Jet(den.t, den.coeffs[k: n + 1])
