"""Truncated Taylor-coefficient arithmetic.

A Jet stores the scaled derivatives c_i = f^(i)(t)/i! of a scalar function
at a base point, up to a fixed order.  The base point may be a scalar or a
numpy array, in which case every coefficient is an array of the same shape
and all operations act elementwise.  Public evaluation caps the order at
ORDER_CAP; the arithmetic itself works at any order.

A scalar-base jet keeps its coefficients as a list of Python floats (its
rows), and its arithmetic and recurrences run on them; coeffs builds the
array on the first read, which from then on holds the coefficients.  The
product sums each coefficient left to right, a[0]*b[k] first: array bases
by shift-and-add over coefficient rows, scalar bases in a loop on floats.
Both give the bits of the plain double loop up to the sign of a NaN: where
both operands of a sum or product are NaN, numpy keeps the NaN that its
loop layout (SIMD body or tail, flat or broadcast) picks, not the one the
operands' order names.  So reruns, and rewrites that keep the order, are
bit-identical, as is the quotient loop on floats.

The elementary functions use Taylor recurrences (Griewank and Walther,
Evaluating Derivatives, 2nd ed., ch. 13).  Coefficient 0 of f(g) is the
value algebra's numpy function of g's value, so an order-0 jet has the
bits of expr.eval_values.  Every other coefficient solves a linear ODE
that f satisfies along g, one order at a time; with dg_j = j * g_j:

  exp        a' = a g'           k a_k = sum_{j=1..k} dg_j a_{k-j}
  sin, cos   s' = c g', c' = -s g'  (one recurrence for the pair)
  sinh, cosh s' = c g', c' = s g'   (one recurrence for the pair)
  log, atan  a' w = g', w = g or 1 + g^2
             a_k = (g_k - sum_{j=1..k-1} j a_j w_{k-j} / k) / w_0
  sqrt       a^2 = g
             a_k = (g_k - sum_{j=1..k-1} a_j a_{k-j}) / (2 a_0)

tan and cot divide the pair once.  Like the product, each recurrence is
one loop over coefficient rows, Python floats for a scalar base.  The
coefficients above 0 never hold -0.0: they get + 0.0, as adding a
constant jet gives them.  A node where g is finite and a coefficient
above 0 is not raises DomainError("derivative overflow at t=..."),
without a numpy warning.

A Laurent jet is a scalar-base jet times an integer power of t - t0, so
that a quotient passes a pole (Knuth, TAOCP vol. 2, 4.7); see Laurent.
A jet's rows are also a polynomial in t - t0: shift re-expands it at an
offset; zeros finds a function's zeros from its node jets by newton;
integral integrates a function over its grid from its node jets, by the
two-point Hermite rule of hermite_weights.
"""

from __future__ import annotations

import functools
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
    __slots__ = ("t", "_rows", "_coeffs")

    def __init__(self, t, coeffs):
        self.t = _as_array(t)
        c = _as_array(coeffs)
        if c.shape[1:] != self.t.shape:
            c = np.broadcast_to(c.reshape(c.shape + (1,) * self.t.ndim),
                                c.shape[:1] + self.t.shape).copy()
        self._coeffs = c
        self._rows = c if self.t.ndim else None

    @property
    def coeffs(self):
        """The (order + 1,) + t.shape array.  A scalar base builds it on the
        first read; from then on it holds the coefficients (writes count)."""
        if self._coeffs is None:
            self._coeffs = np.array(self._rows)
            self._rows = None
        return self._coeffs

    @property
    def rows(self):
        """Python floats for a scalar base (fast, never warn), else coeffs."""
        r = self._rows
        return self._coeffs.tolist() if r is None else r

    @property
    def order(self) -> int:
        return len(self._coeffs if self._rows is None else self._rows) - 1

    @property
    def value(self):
        return self.rows[0]

    def derivative(self, i: int):
        """i-th derivative value, i.e. i! * c_i.  Zero beyond the stored order."""
        if i > self.order:
            return np.zeros_like(self.coeffs[0])
        return math.factorial(i) * self.rows[i]

    def at(self, idx) -> "Jet":
        """Scalar-base jet at one node of an array-based jet."""
        if self.t.ndim == 1 and (type(idx) is int
                                 or isinstance(idx, np.integer)):
            return _jet(_as_array(self.t[idx]), self.coeffs[:, idx].tolist())
        t = _as_array(self.t[idx])
        c = self.coeffs[(slice(None),) + np.index_exp[idx]]
        return _jet(t, c if t.ndim else c.tolist())

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError(f"jet order must be at least 0, got {order}")
        return _jet(self.t, self.rows[: order + 1])

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
        out = np.empty((self.order + 2,) + self.t.shape)
        out[0] = value
        np.divide(self.coeffs, k, out=out[1:])
        return Jet(self.t, out)

    # -- arithmetic: numpy rows for an array base, Python floats for a scalar

    def __add__(self, other):
        a = self.rows
        if not isinstance(other, Jet):
            # as adding a constant jet: c to the value, 0.0 to the rest
            if not self.t.ndim:
                return _jet(self.t, [a[0] + float(other)]
                            + [x + 0.0 for x in a[1:]])
            out = a + 0.0
            out[0] = a[0] + other
            return _jet(self.t, out)
        if not self.t.ndim:
            return _jet(self.t, [x + y for x, y in zip(a, other.rows)])
        n = min(len(a), len(other.rows))
        return _jet(self.t, a[:n] + other.rows[:n])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        a = self.rows
        return _jet(self.t, -a if self.t.ndim else [-x for x in a])

    def __sub__(self, other):
        if not isinstance(other, Jet):
            # as adding -constant: -0.0 leaves every other coefficient be
            a = self.rows
            if not self.t.ndim:
                return _jet(self.t, [a[0] - float(other)] + a[1:])
            out = a.copy()
            out[0] = a[0] - other
            return _jet(self.t, out)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a = self.rows
        if not isinstance(other, Jet):
            s = float(other)
            return _jet(self.t, a * s if self.t.ndim else [x * s for x in a])
        b = other.rows
        n = min(len(a), len(b)) - 1
        if self.t.ndim:
            out = a[0] * b[:n + 1]
            for i in range(1, n + 1):
                out[i:] += a[i] * b[:n + 1 - i]
            return _jet(self.t, out)
        out = []
        for k in range(n + 1):
            s = a[0] * b[k]
            for i in range(1, k + 1):
                s = s + a[i] * b[k - i]
            out.append(s)
        return _jet(self.t, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.t, self.coeffs / float(other))
        a, b = self.rows, other.rows
        n = min(len(a), len(b)) - 1
        if not self.t.ndim and b[0] == 0:
            # 0 passes quotient only beside a NaN: numpy NaNs, floats raise
            a, b = self.coeffs, other.coeffs
        out = [quotient(a[0], b[0], self.t)]
        for k in range(1, n + 1):
            s = a[k]
            for j in range(1, k + 1):
                s = s - b[j] * out[k - j]
            out.append(s / b[0])
        return Jet(self.t, out) if type(a) is not list else _jet(self.t, out)

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


def _jet(t, rows) -> Jet:
    """Jet at the base t (an array) from rows kept as they are: a list of
    Python floats for a scalar base, else the coeffs array itself."""
    j = object.__new__(Jet)
    j.t, j._rows, j._coeffs = t, rows, (rows if t.ndim else None)
    return j


# -- domain rules, shared with the value algebra of expr --------------------

def _refuse(bad, t, what):
    """Raise DomainError naming the first samples of t where bad holds."""
    if bad is not False and np.any(bad):
        t_bad = np.atleast_1d(np.broadcast_to(t, np.shape(bad)))[np.atleast_1d(bad)]
        raise DomainError("%s at t=%r" % (what, t_bad.ravel()[:4]))


def quotient(num, den, t):
    """num / den of values at the samples t; DomainError at a pole, where
    |den| < DIV_TOL * (1 + |num|)."""
    _refuse(abs(den) < DIV_TOL * (1.0 + abs(num)), t,
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
        j.rows[1] = 1.0
    return j


def constant(c, order: int, like_t=0.0) -> Jet:
    t = _as_array(like_t)
    if not t.ndim:
        return _jet(t, [float(c)] + [0.0] * order)
    coeffs = np.zeros((order + 1,) + t.shape)
    coeffs[0] = c
    return _jet(t, coeffs)


# -- elementary functions by Taylor recurrences (see the module docstring) --

def _head(g: Jet, value):
    """Coefficient 0 in the form of g's rows."""
    return float(value) if g.t.ndim == 0 else value


def _conv(x, y, hi: int, k: int):
    """x[1] * y[k-1] + ... + x[hi] * y[k-hi], summed left to right."""
    s = x[1] * y[k - 1]
    for j in range(2, hi + 1):
        s = s + x[j] * y[k - j]
    return s


def _finish(g: Jet, rows) -> Jet:
    """The jet of a function of g from its rows.  Coefficients above 0
    get + 0.0, so they never hold -0.0, as adding a jet leaves them.  A
    node where g is finite and a coefficient above 0 is not overflowed:
    DomainError("derivative overflow")."""
    if not g.t.ndim:
        c = rows[:1] + [x + 0.0 for x in rows[1:]]
        if not all(map(math.isfinite, c[1:])) and all(
                map(math.isfinite, g.rows)):
            _refuse(True, g.t, "derivative overflow")
        return _jet(g.t, c)
    c = np.array(rows, dtype=float)
    c[1:] += 0.0
    if not np.isfinite(c[1:]).all():
        _refuse(np.isfinite(g.coeffs).all(axis=0)
                & ~np.isfinite(c[1:]).all(axis=0), g.t, "derivative overflow")
    return _jet(g.t, c)


def _pair(g: Jet, f0, h0, sign: float):
    """Jets of f and h with f' = h g' and h' = sign * f g'."""
    n = g.order
    r = g.rows
    f, h = [_head(g, f0)], [_head(g, h0)]
    with np.errstate(all="ignore"):
        dg = [None] + [k * r[k] for k in range(1, n + 1)]
        for k in range(1, n + 1):
            f.append(_conv(dg, h, k, k) / k)
            h.append(sign * _conv(dg, f, k, k) / k)
    return _finish(g, f), _finish(g, h)


def _quotient_ode(g: Jet, w: Jet, a0) -> Jet:
    """Jet of a with a(g0) = a0 and a' w = g'."""
    n = g.order
    r, wr = g.rows, w.rows
    a = [_head(g, a0)]
    with np.errstate(all="ignore"):
        da = [None]
        for k in range(1, n + 1):
            s = r[k]
            if k > 1:
                s = s - _conv(da, wr, k - 1, k) / k
            a.append(s / wr[0])
            da.append(k * a[k])
    return _finish(g, a)


def sin_cos(g: Jet) -> tuple[Jet, Jet]:
    """(sin g, cos g) from one recurrence."""
    x = g.value
    return _pair(g, np.sin(x), np.cos(x), -1.0)


def sinh_cosh(g: Jet) -> tuple[Jet, Jet]:
    """(sinh g, cosh g) from one recurrence."""
    x = g.value
    return _pair(g, np.sinh(x), np.cosh(x), 1.0)


def sin(g: Jet) -> Jet:
    return sin_cos(g)[0]


def cos(g: Jet) -> Jet:
    return sin_cos(g)[1]


def tan(g: Jet) -> Jet:
    s, c = sin_cos(g)
    return s / c


def cot(g: Jet) -> Jet:
    s, c = sin_cos(g)
    return c / s


def sinh(g: Jet) -> Jet:
    return sinh_cosh(g)[0]


def cosh(g: Jet) -> Jet:
    return sinh_cosh(g)[1]


def exp(g: Jet) -> Jet:
    n = g.order
    r = g.rows
    a = [_head(g, np.exp(g.value))]
    with np.errstate(all="ignore"):
        dg = [None] + [k * r[k] for k in range(1, n + 1)]
        for k in range(1, n + 1):
            a.append(_conv(dg, a, k, k) / k)
    return _finish(g, a)


def log(g: Jet) -> Jet:
    return _quotient_ode(g, g, log_value(g.value))


def atan(g: Jet) -> Jet:
    return _quotient_ode(g, 1.0 + g * g, np.arctan(g.value))


def sqrt(g: Jet) -> Jet:
    x = g.value
    a0 = sqrt_value(x)
    if g.order >= 1 and np.any(x == 0):
        raise DomainError("sqrt derivative at zero")
    r = g.rows
    a = [_head(g, a0)]
    with np.errstate(all="ignore"):
        two_a0 = 2.0 * a[0]
        for k in range(1, g.order + 1):
            s = r[k]
            if k > 1:
                s = s - _conv(a, a, k - 1, k)
            a.append(s / two_a0)
    return _finish(g, a)


def shift(rows, d, order):
    """Taylor coefficients 0..order at the offsets d (a scalar or an array)
    of the polynomial sum rows[k] (t - c)^k: its m-th derivative at d / m!."""
    p = np.asarray(rows)[::-1]
    out = [np.polyval(p, d)]
    for m in range(1, order + 1):
        p = np.polyder(p)
        out.append(np.polyval(p, d) / math.factorial(m))
    return np.array(out)


def hermite_weights(m: int) -> list:
    """W_k = C(m, k) / (2 (k + 1) C(2m + 1, k)), k = 0..m: the two-point
    Hermite rule (Davis and Rabinowitz, Methods of Numerical Integration,
    2nd ed., 1984), exact to degree 2m + 1, integrates f over [a, a + h]
    as sum_k W_k h^(k+1) (c_k(a) + (-1)^k c_k(a + h))."""
    return [math.comb(m, k) / (2 * (k + 1) * math.comb(2 * m + 1, k))
            for k in range(m + 1)]


@functools.lru_cache(maxsize=None)
def _rule(m: int):
    """Read-only columns: (-1)^k, the order-m weights, and those less the
    order-(m - 1) weights (0 for k = m)."""
    w = np.array(hermite_weights(m))
    cols = (np.where(np.arange(m + 1) % 2, -1.0, 1.0), w,
            w - np.append(hermite_weights(m - 1), 0.0))
    for col in cols:
        col.setflags(write=False)
    return tuple(col[:, None] for col in cols)


def integral(f: Jet, t0: float, value: float):
    """(F, est): the values F at the nodes f.t of the antiderivative of f
    equal to value at t0, and for each grid interval the magnitude of the
    difference between the order-m Hermite rule on f's node jets
    (hermite_weights, m = f.order >= 1) and the order-(m - 1) rule beside
    it, an estimate of the interval's error.  Each rule sums its terms
    W_k h^(k+1) (c_k(i) +- c_k(i+1)) from k = m down.  F is the
    cumulative sum of the interval integrals, shifted so that at the node
    i nearest t0 it equals value minus the integral of node i's
    polynomial from t_i to t0: at a t0 on a node F holds value there
    exactly."""
    g, c, m = f.t, f.coeffs, f.order
    if m < 1:
        raise ValueError("the node rule needs jets of order at least 1")
    sign, w, w_diff = _rule(m)
    terms = c[:, 1:] * sign
    terms += c[:, :-1]
    h = np.diff(g)
    power = h.copy()
    for row in terms:               # row k times h^(k+1)
        row *= power
        power *= h
    F = np.zeros_like(g)
    np.cumsum((w * terms)[::-1].sum(axis=0), out=F[1:])
    i = int(np.argmin(np.abs(g - t0)))
    d = t0 - g[i]
    col, piece = c[:, i].tolist(), 0.0
    for k in range(m, -1, -1):
        piece = d * (piece + col[k] / (k + 1))
    F -= F[i]
    F += value - piece
    return F, np.abs((w_diff * terms)[::-1].sum(axis=0))


def newton(rows, base, t, h):
    """Six Newton steps from t on the polynomial sum rows[k] (s - base)^k,
    its derivative built once.  The last iterate as a float, or None when
    it lies more than h from t or is NaN, as a step off a zero derivative
    leaves it (without a warning).  zeros is its caller, and the axis
    evolute's read at one node (revolution._quotient_at_zero)."""
    p = np.asarray(rows)[::-1]
    dp, s = np.polyder(p), t
    with np.errstate(all="ignore"):
        for _ in range(6):
            s -= np.polyval(p, s - base) / np.polyval(dp, s - base)
    return float(s) if abs(s - t) <= h else None


def zeros(coeffs, grid, h, keep=lambda t, i, status: True):
    """The zeros that keep(t*, node, status) accepts of a function with
    node jets coeffs[:, i] in t - grid[i], as [(t*, node, status)] by t*:
    newton from each grid end and secant zero, 'located' within h, else
    'beyond' an end or 'unlocated' (so is an end whose far zero keep
    refuses); a zero within h of one kept before it is its twin (README)."""
    c, g = np.asarray(coeffs), np.asarray(grid, dtype=float)
    k = np.flatnonzero(np.diff(c[0] > 0))
    secants = g[k] - c[0, k] * (g[k + 1] - g[k]) / (c[0, k + 1] - c[0, k])
    kept = []

    def new(t, i, how):
        return keep(t, i, how) and all(abs(t - o) > h for o, _, _ in kept)

    for side, f in [(-1, g[0]), *((0, f) for f in secants), (1, g[-1])]:
        i = int(np.argmin(np.abs(g - f)))
        t = newton(c[:, i], g[i], f, math.inf if side else h)
        z = (float(f), i, "unlocated")
        if t is not None and abs(t - f) <= h:
            z = (t, i, "located")
        elif t is not None and math.isfinite(t) and side * (t - f) > 0:
            z = (t, i, "beyond") if keep(t, i, "beyond") else z
        elif t is not None and g[0] <= t <= g[-1] and new(*z):
            j = int(np.argmin(np.abs(g - t)))   # from a kept end, anew
            r = newton(c[:, j], g[j], t, h)
            z = (r, j, "located") if r is not None and keep(
                r, j, "located") else z
        if new(*z):
            kept.append(z)
    return sorted(kept)


def _vanishing(rows, tol: float) -> int:
    """How many leading coefficients are at most tol in magnitude."""
    return next((k for k, c in enumerate(rows) if not abs(c) <= tol),
                len(rows))


class Laurent:
    """f = s^shift (c_0 + c_1 s + ...) about a scalar base t0, s = t - t0:
    jet holds the c_k, shift is an integer, f is known up to
    s^(shift + jet.order).  * adds shifts, + and - align them, / moves the
    divisor's k vanishing leading coefficients, and up to k of the
    numerator's (at most DIV_TOL, as in valuation), into the shift.  A
    divisor's coefficient vanishes as a value does in quotient: at most
    DIV_TOL * (1 + |c_0 of the numerator|), so the growth of the higher
    coefficients sets no scale.  Where none is stripped, the shift stays 0
    and each operation is the Jet one, bit for bit."""
    __slots__ = ("jet", "shift")

    def __init__(self, jet: Jet, shift: int = 0):
        self.jet, self.shift = jet, shift

    def valuation(self) -> int:
        """The order of the zero of f at t0, or minus that of its pole."""
        return self.shift + _vanishing(self.jet.rows, DIV_TOL)

    def taylor(self) -> Jet:
        """f as a Taylor jet; DomainError at a pole."""
        v, r = self.shift, self.jet.rows
        if v < 0 and min(_vanishing(r, DIV_TOL), len(r) - 1) < -v:
            _refuse(True, self.jet.t, "no Taylor jet at a pole")
        return _jet(self.jet.t, r[-v:] if v < 0 else [0.0] * v + r)

    def __add__(self, other):
        v = min(self.shift, other.shift)
        a, b = (_jet(f.jet.t, [0.0] * (f.shift - v) + f.jet.rows)
                for f in (self, other))
        return Laurent(a + b, v)

    def __neg__(self):
        return Laurent(-self.jet, self.shift)

    def __sub__(self, other):
        return self + -other    # as Jet.__sub__ of a float: -0.0 above c_0

    def __mul__(self, other):
        """f * g, or f * a float, which keeps the -0.0 coefficients that a
        product with a constant jet would turn into 0.0."""
        if isinstance(other, Laurent):
            return Laurent(self.jet * other.jet, self.shift + other.shift)
        return Laurent(self.jet * other, self.shift)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, d, t = self.jet.rows, other.jet.rows, self.jet.t
        k = _vanishing(d, DIV_TOL * (1.0 + abs(a[0])))
        if k == len(d):
            _refuse(True, t, "division by (near-)zero")
        j = min(k, _vanishing(a, DIV_TOL), len(a) - 1)
        return Laurent(_jet(t, a[j:]) / _jet(t, d[k:]),
                       self.shift + j - other.shift - k)

    def __pow__(self, p):
        if float(p) != int(p):
            return Laurent(self.taylor() ** p)
        if p < 0:
            one = constant(1.0, self.jet.order, self.jet.t)
            return Laurent(one) / self ** -p
        return Laurent(self.jet ** p, self.shift * int(p))

