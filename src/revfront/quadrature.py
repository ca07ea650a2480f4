"""Cumulative antiderivatives on a refined lattice.

All reconstructions in this package chain antiderivatives: the next
integrand needs the previous antiderivative at interior quadrature points.
Working on a lattice that refines each grid interval into an even number of
sub-intervals makes that composable: composite Simpson over pairs of fine
intervals gives the antiderivative at even fine nodes, a local three-point
(Newton) formula fills the odd nodes, and the result is then available at
every fine node for the next stage.  Restriction to the original grid is a
simple stride.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from .jets import DomainError


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


def checked_grid(grid, min_nodes: int = 2) -> np.ndarray:
    """grid as a float array; ValueError unless it is 1-d with at least
    min_nodes nodes, finite and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < min_nodes:
        raise ValueError("grid must be a 1-d array with at least "
                         f"{min_nodes} node{'s' * (min_nodes != 1)}")
    if not np.all(np.diff(grid) > 0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite and strictly increasing")
    return grid


class FineGrid:
    """A strictly increasing grid plus its refined integration lattice."""

    def __init__(self, grid, refine: int = 16):
        grid = checked_grid(grid)
        if refine < 2 or refine % 2:
            raise ValueError("refine must be an even integer >= 2")
        self.grid = grid
        self.refine = refine
        n_int = grid.size - 1
        # fine nodes: refine equal sub-intervals per grid interval
        frac = np.arange(refine) / refine
        blocks = grid[:-1, None] + np.diff(grid)[:, None] * frac[None, :]
        self.s = np.append(blocks.ravel(), grid[-1])
        self.coarse_index = np.arange(0, n_int * refine + 1, refine)
        self.fine_step = np.repeat(np.diff(grid) / refine, refine)

    def eval_expr(self, e):
        """Values of an expression at all fine nodes; ConstructionError
        names the offending point where it cannot be evaluated."""
        return np.asarray(evaluated("integrand", expr.eval_values, e, self.s),
                          dtype=float)

    def cumulative(self, values, init: float = 0.0) -> np.ndarray:
        """Antiderivative at all fine nodes, anchored at the first node.

        Even fine nodes by composite Simpson over panel pairs, odd nodes by
        the local half-panel formula (exact for quadratics, local error only).
        """
        v = np.asarray(values, dtype=float)
        if v.shape != self.s.shape:
            raise ValueError("values must be sampled on the fine lattice")
        d = self.fine_step
        out = np.empty_like(v)
        out[0] = init
        # paired panels [2k, 2k+2]; refine is even so panels never straddle
        # a grid interval boundary and d is constant within each panel
        dpan = d[0::2]
        panel = (dpan / 3.0) * (v[0:-1:2] + 4.0 * v[1::2] + v[2::2])
        out[2::2] = init + np.cumsum(panel)
        half = (d[0::2] / 12.0) * (5.0 * v[0:-1:2] + 8.0 * v[1::2] - v[2::2])
        out[1::2] = out[0:-1:2] + half
        return out

    def cumulative_from(self, values, anchor_index: int, anchor_value: float):
        """Antiderivative equal to anchor_value at fine node anchor_index."""
        base = self.cumulative(values, 0.0)
        return base - base[anchor_index] + anchor_value

    def at_coarse(self, fine_values):
        return np.asarray(fine_values)[..., self.coarse_index]

    def nearest_fine_index(self, t: float) -> int:
        return int(np.argmin(np.abs(self.s - t)))


def uniform_grid(t_min: float, t_max: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValueError("grid needs at least 2 nodes")
    if not math.isfinite(t_max - t_min):
        raise ValueError("grid min, max and span must be finite")
    if not t_max > t_min:
        raise ValueError("grid max must exceed min")
    return np.linspace(t_min, t_max, count)
