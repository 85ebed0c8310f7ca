"""Hardy-Littlewood maximal operator over dyadic-length windows, and ratio reports.

The window family consists of axis-aligned cubes with dyadic side lengths
2^{-j}, j in the configured range, at every finest-cell offset, restricted to
windows that lie inside the domain box.  This undershoots the full uncentered
cube maximal by at most a factor 2^n (side lengths are dense up to factor 2);
every two-sided test in the suite compares the same operator on both sides, so
the gap cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import Grid, GridFunction, lp_lq_norm
from .errors import LevelMismatchError, LevelRangeError, UndefinedRatioError
from .weights import WeightSequence


@dataclass(frozen=True)
class MaximalConfig:
    """Window family: side lengths 2^{-j} for j in [side_level_min, side_level_max]."""

    grid: Grid
    side_level_min: int | None = None  # default -L (side 2^L, the whole domain)
    side_level_max: int | None = None  # default J (side 2^{-J}, one cell)

    def side_levels(self) -> range:
        lo = -self.grid.L if self.side_level_min is None else self.side_level_min
        hi = self.grid.J if self.side_level_max is None else self.side_level_max
        if not (-self.grid.L <= lo <= hi <= self.grid.J):
            raise LevelRangeError(f"side levels [{lo}, {hi}] outside [{-self.grid.L}, {self.grid.J}]")
        return range(lo, hi + 1)

    def window_cells(self) -> list[int]:
        return [1 << (self.grid.J - j) for j in self.side_levels()]


def _axis_slice(ax: int, sl: slice) -> tuple[slice, ...]:
    return (slice(None),) * ax + (sl,)


def _window_averages(cells: np.ndarray, w_max: int):
    """Yield (w, window averages) for w = 1, 2, 4, ..., w_max cells per axis.

    Averages run over every in-domain window and are anchor-indexed.  The 2w-window at anchor a is the mean of the
    2^n w-windows at anchors a + {0, w}^n, so each width costs one pass per
    axis (O(cells log w_max) in all) and roundoff grows with log2(w), not with
    the cell count.  Width 1 is the input itself, which keeps the pointwise
    domination M(f) >= |f| rounding-free.
    """
    avg, w = cells, 1
    while True:
        yield w, avg
        if w >= w_max:
            return
        for ax in range(cells.ndim):
            lag = avg[_axis_slice(ax, slice(None, -w))]
            lead = avg[_axis_slice(ax, slice(w, None))]
            avg = 0.5 * (lag + lead)
        w *= 2


def _containing_max(anchors: np.ndarray, w: int) -> np.ndarray:
    """Per-cell max over all anchors whose window contains the cell.

    Cell i sees anchors a in [i-w+1, i]; padding with -inf handles the ends,
    so the output regains the full cell shape along every axis.  The sliding
    max of width w (a power of two) takes log2(w) rounds of maxima of two
    shifted copies per axis.
    """
    if w == 1:
        return anchors
    out = anchors
    for ax in range(anchors.ndim):
        pad = [(w - 1, w - 1) if i == ax else (0, 0) for i in range(out.ndim)]
        out = np.pad(out, pad, constant_values=-np.inf)
        width = 1
        while width < w:
            out = np.maximum(out[_axis_slice(ax, slice(None, -width))],
                             out[_axis_slice(ax, slice(width, None))])
            width *= 2
    return out


def maximal(f: GridFunction, cfg: MaximalConfig) -> GridFunction:
    """Sup over configured windows containing each cell of the window average of |f|.

    Both the window averages and the containing maxima are built by dyadic
    doubling, so the full window family costs O(cells * log^2 cells).
    """
    if cfg.grid != f.grid:
        raise LevelMismatchError("config grid does not match the function grid")
    grid = f.grid
    absf = np.abs(f.values).astype(float)
    widths = cfg.window_cells()
    best = np.full(grid.shape, -np.inf)
    for w, avg in _window_averages(absf, max(widths)):
        if w in widths:
            np.maximum(best, _containing_max(avg, w), out=best)
    return GridFunction(grid, best)


def maximal_sigma(f: GridFunction, sigma: float, cfg: MaximalConfig) -> GridFunction:
    """The power variant (M(|f|^sigma))^{1/sigma}."""
    if sigma <= 0:
        raise LevelRangeError(f"sigma must be positive, got {sigma}")
    powered = GridFunction(f.grid, np.abs(f.values) ** sigma)
    m = maximal(powered, cfg)
    return GridFunction(f.grid, m.values ** (1.0 / sigma))


def weighted_lp_norm(f: GridFunction, t: GridFunction, p: float) -> float:
    """Exact grid L_p norm of f*t; p = inf gives the max over cells."""
    return lp_lq_norm(f.grid, [np.abs(f.values * t.values)], p)


def scalar_maximal_ratio(f: GridFunction, t: GridFunction, p: float,
                         cfg: MaximalConfig, mf: GridFunction | None = None) -> float:
    """||M(f) t||_p / ||f t||_p, with `mf` = M(f) if known; f == 0 raises UndefinedRatioError."""
    denom = weighted_lp_norm(f, t, p)
    if denom == 0.0:
        raise UndefinedRatioError("f vanishes identically; maximal ratio undefined")
    mf = maximal(f, cfg) if mf is None else mf
    return weighted_lp_norm(mf, t, p) / denom


def shifted_maximal_constant(f: GridFunction, w: WeightSequence, k: int, j: int,
                             p: float, cfg: MaximalConfig, alpha1: float,
                             mf: GridFunction | None = None) -> float:
    """Empirical constant in ||M(f_j) t_k||_p <= c 2^{a1(k-j)} ||f_j t_j||_p, j >= k.

    `mf` is M(f) if known.
    """
    if j < k:
        raise LevelRangeError("shifted bound is stated for j >= k")
    denom = weighted_lp_norm(f, w.as_grid_function(j), p)
    if denom == 0.0:
        raise UndefinedRatioError("f vanishes identically")
    mf = maximal(f, cfg) if mf is None else mf
    lhs = weighted_lp_norm(mf, w.as_grid_function(k), p)
    return lhs / (2.0 ** (alpha1 * (k - j)) * denom)


@dataclass
class FSRatioReport:
    """Vector-valued maximal ratio: weighted L_p(l_q) norms with and without M."""

    lhs: float
    rhs: float
    ratio: float | None


def fs_ratio(fs: dict[int, GridFunction], w: WeightSequence, p: float, q: float,
             cfg: MaximalConfig) -> FSRatioReport:
    """Both sides of the vector-valued maximal inequality as exact grid norms."""
    if p <= 1 or q <= 1:
        raise LevelRangeError("vector-valued ratio needs p > 1 and q > 1")
    if set(fs.keys()) != set(w.levels):
        raise LevelMismatchError(
            f"function levels {sorted(fs)} do not match weight levels {list(w.levels)}"
        )
    lhs = lp_lq_norm(w.grid, ((w.tk[k] * np.abs(maximal(fs[k], cfg).values)) ** q
                              for k in w.levels), p, q)
    rhs = lp_lq_norm(w.grid, ((w.tk[k] * np.abs(fs[k].values)) ** q for k in w.levels), p, q)
    ratio = None if rhs == 0.0 else lhs / rhs
    return FSRatioReport(lhs=lhs, rhs=rhs, ratio=ratio)
