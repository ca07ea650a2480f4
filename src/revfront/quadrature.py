"""Cumulative antiderivatives: from node jets, or on a refined lattice.

All reconstructions in this package chain antiderivatives: the next
integrand needs the previous antiderivative.  Where the builder holds the
integrand as Taylor jets at the grid nodes, and every later integrand is
a jet function of the earlier antiderivatives, integrated chains them at
the nodes alone: the two-point Hermite rule of jets.integral on each grid
interval, refused where its estimate shows the jets do not resolve the
integrand between the nodes.  The gauss ratio's RK4 sweeps and the (J, K)
touch machinery read values between the nodes, and for them FineGrid
refines each grid interval into an even number of sub-intervals:
composite Simpson over pairs of fine intervals gives the antiderivative at
even fine nodes, a local three-point (Newton) formula fills the odd nodes,
and the result is then available at every fine node for the next stage.
Restriction to the original grid is a simple stride.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import expr, jets
from .jets import DomainError, Jet

# An interval whose node-rule estimate exceeds INTERVAL_TOL times
# (1 + max |f| at the nodes) times its length is refused (integrated).
INTERVAL_TOL = 1e-6


class ConstructionError(RuntimeError):
    """Prescribed data cannot be realized on the grid, an expression that
    cannot be evaluated there among them."""

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info


def evaluated(what, evaluate, src, *args):
    """evaluate(src, *args), a DomainError raised as ConstructionError."""
    try:
        return evaluate(src, *args)
    except DomainError as exc:
        raise ConstructionError(
            f"{what} cannot be evaluated on the grid: {exc}",
            source=str(src)) from exc


def integrated(f: Jet, t0: float, value: float, sources, what: str):
    """(F, worst): the antiderivative jet F of the node jets f with
    F(t0) = value (jets.integral), and the largest interval estimate over
    (1 + max |f| at the nodes) times the interval's length.  Where that
    exceeds INTERVAL_TOL, the jets do not resolve f between the nodes, as
    at a pole or a branch point there: ConstructionError naming the first
    such interval, or the ConstructionError of evaluated where one of the
    sources, (what, expression) pairs, cannot be evaluated at the
    midpoints of the grid intervals."""
    values, est = jets.integral(f, t0, value)
    t = f.t
    scaled = est / ((1.0 + float(np.max(np.abs(f.value)))) * np.diff(t))
    worst = float(np.max(scaled))
    if not worst <= INTERVAL_TOL:      # NaN too
        for name, src in sources:
            evaluated(name, expr.eval_values, src, 0.5 * (t[:-1] + t[1:]))
        k = int(np.flatnonzero(~(scaled <= INTERVAL_TOL))[0])
        a, b = float(t[k]), float(t[k + 1])
        raise ConstructionError(
            f"{what} cannot be integrated between the grid nodes "
            f"t={a:.6g} and t={b:.6g}: the rule's estimate "
            f"{scaled[k]:.3g} exceeds {INTERVAL_TOL:g} (a pole or branch "
            "point there, or too coarse a grid)",
            interval=[a, b], estimate=float(scaled[k]))
    return f.antiderivative(values), worst


def checked_grid(grid, min_nodes: int = 2):
    """(grid as a float array, its steps np.diff(grid)); ValueError unless
    the grid is 1-d with at least min_nodes nodes, finite and strictly
    increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < min_nodes:
        raise ValueError("grid must be a 1-d array with at least "
                         f"{min_nodes} node{'s' * (min_nodes != 1)}")
    steps = np.diff(grid)
    if not np.all(steps > 0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite and strictly increasing")
    return grid, steps


class FineGrid:
    """A strictly increasing grid plus its refined integration lattice."""

    def __init__(self, grid, refine: int = 16):
        grid, steps = checked_grid(grid)
        if refine < 2 or refine % 2:
            raise ValueError("refine must be an even integer >= 2")
        self.grid = grid
        self.refine = refine
        n_int = grid.size - 1
        # fine nodes: refine equal sub-intervals per grid interval
        frac = np.arange(refine) / refine
        blocks = grid[:-1, None] + steps[:, None] * frac[None, :]
        self.s = np.append(blocks.ravel(), grid[-1])
        self.coarse_index = np.arange(0, n_int * refine + 1, refine)
        # the fine step of each grid interval
        self.step = steps / refine
        # Simpson weights of the panel pairs [2k, 2k+2], one column per grid
        # interval: refine is even, so no pair straddles a grid node
        self._third = (self.step / 3.0)[:, None]
        self._twelfth = (self.step / 12.0)[:, None]

    def eval_expr(self, e):
        """Values of an expression at all fine nodes; ConstructionError
        names the offending point where it cannot be evaluated."""
        return np.asarray(evaluated("integrand", expr.eval_values, e, self.s),
                          dtype=float)

    def cumulative(self, values, init=0.0) -> np.ndarray:
        """Antiderivative at all fine nodes along the last axis of values,
        one row per leading index, anchored at the first node at init (a
        number, or one per row).

        Even fine nodes by composite Simpson over panel pairs, odd nodes by
        the local half-panel formula (exact for quadratics, local error only).
        """
        v = np.asarray(values, dtype=float)
        if v.shape[-1:] != self.s.shape:
            raise ValueError("values must be sampled on the fine lattice")
        init = np.asarray(init, dtype=float)[..., None]
        rows = v.shape[:-1]
        # the panel pairs of each grid interval in a row, beside its weights
        by_interval = rows + (self.grid.size - 1, self.refine // 2)
        v0 = v[..., 0:-1:2].reshape(by_interval)
        v1 = v[..., 1::2].reshape(by_interval)
        v2 = v[..., 2::2].reshape(by_interval)
        out = np.empty_like(v)
        out[..., :1] = init
        # one half-lattice buffer holds each formula in turn
        w = v0 + 4.0 * v1
        w += v2
        w *= self._third
        even = out[..., 2::2]
        np.cumsum(w.reshape(rows + (-1,)), axis=-1, out=even)
        np.add(init, even, out=even)
        np.multiply(5.0, v0, out=w)
        w += 8.0 * v1
        w -= v2
        w *= self._twelfth
        np.add(out[..., 0:-1:2], w.reshape(rows + (-1,)), out=out[..., 1::2])
        return out

    def cumulative_from(self, values, t0: float, value: float):
        """Antiderivative equal to value at t0.  At fine node i it is
        cumulative(values) shifted by value minus its entry i, bit for bit;
        elsewhere the piece from the node nearest t0 to t0 integrates the
        parabola through that node and its neighbours (the end triple at a
        lattice end), so quadratics come out exact.  The shift is made in
        place."""
        s, v = self.s, np.asarray(values, dtype=float)
        i = self.nearest(t0)
        j = min(max(i, 1), s.size - 2)
        a, b, c = s[j - 1:j + 2]
        d_ab = (v[j] - v[j - 1]) / (b - a)
        d_abc = ((v[j + 1] - v[j]) / (c - b) - d_ab) / (c - a)
        # v[j] + d_ab*(t - b) + d_abc*(t - b)*(t - a) over [s[i], t0]
        u0, u1 = s[i] - b, t0 - b
        sq, cube = (u1 * u1 - u0 * u0) / 2.0, (u1 ** 3 - u0 ** 3) / 3.0
        piece = v[j] * (u1 - u0) + d_ab * sq + d_abc * (cube + (b - a) * sq)
        base = self.cumulative(v, 0.0)
        np.subtract(base, base[i] + piece, out=base)
        np.add(base, value, out=base)
        return base

    def at_coarse(self, fine_values):
        return np.asarray(fine_values)[..., self.coarse_index]

    def nearest(self, t0: float) -> int:
        """nearest_node(self.s, t0) by bisection, without a lattice-length
        temporary: s - t0 rounds monotonically along the increasing lattice,
        so the first nearest node is the first node at or beyond t0, or the
        first with the rounded distance of the last node before it."""
        if not math.isfinite(t0):
            check_finite(t0=t0)
        s = self.s
        i = int(np.searchsorted(s, t0))
        if i == 0:
            return 0
        d = s[i - 1] - t0
        if i < s.size and abs(s[i] - t0) < abs(d):
            return i
        if i == 1 or s[i - 2] - t0 < d:
            return i - 1
        return bisect.bisect_left(range(i), True, key=lambda k: s[k] - t0 >= d)


def check_finite(**values):
    """ValueError naming the first of the values that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_tol(tol):
    """ValueError unless the zero-test tolerance tol is finite and
    non-negative."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def nearest_node(nodes, t0: float) -> int:
    """Index of the node nearest t0; ValueError for a t0 that is not
    finite, which has no nearest node (argmin would give node 0)."""
    if not math.isfinite(t0):
        check_finite(t0=t0)
    d = np.asarray(nodes) - t0
    if not d.ndim:
        return 0                # a 0-d base is its own nearest node
    return int(np.abs(d, out=d).argmin())


def uniform_grid(t_min: float, t_max: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValueError("grid needs at least 2 nodes")
    if not math.isfinite(t_max - t_min):
        raise ValueError("grid min, max and span must be finite")
    if not t_max > t_min:
        raise ValueError("grid max must exceed min")
    return np.linspace(t_min, t_max, count)
