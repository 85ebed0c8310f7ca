"""Hardy-Littlewood maximal operator over dyadic-length windows, and ratio reports.

The window family consists of axis-aligned cubes with dyadic side lengths
2^{-j}, -L <= j <= J (one cell up to the whole domain), at every finest-cell
offset, restricted to windows that lie inside the domain box.  This undershoots
the full uncentered cube maximal by at most a factor 2^n (side lengths are
dense up to factor 2); every two-sided test in the suite compares the same
operator on both sides, so the gap cancels.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .dyadic import INF, Grid, GridFunction, lp_lq_norm
from .errors import LevelMismatchError, LevelRangeError, UndefinedRatioError
from .weights import WeightSequence


@dataclass(frozen=True)
class MaximalConfig:
    """Window family of `grid`: every dyadic side from one cell to the domain;
    `window_cells()` lists the sides in cells (the benchmark's tracer counts with it)."""

    grid: Grid

    def window_cells(self) -> list[int]:
        return [1 << i for i in range(self.grid.L + self.grid.J + 1)]


def _axis_slice(ax: int, sl: slice) -> tuple[slice, ...]:
    return (slice(None),) * ax + (sl,)


def _view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading cells of the flat buffer `buf` as a C-ordered array of `shape`."""
    return buf[:math.prod(shape)].reshape(shape)


def _window_averages(cells: np.ndarray, w_max: int, spare: np.ndarray):
    """Yield (w, window averages) for w = 1, 2, 4, ..., w_max cells per axis.

    Averages run over every in-domain window and are anchor-indexed.  The 2w-window at anchor a is the mean of the
    2^n w-windows at anchors a + {0, w}^n, so each width costs one pass per
    axis (O(cells log w_max) in all) and roundoff grows with log2(w), not with
    the cell count.  Width 1 is the input itself, which keeps the pointwise
    domination M(f) >= |f| rounding-free.  Each pass writes into the other of
    the C-contiguous `cells` and the flat buffer `spare`, so a yielded array
    holds only until the next one.
    """
    bufs, avg, w = (cells.reshape(-1), spare), cells, 1
    while True:
        yield w, avg
        if w >= w_max:
            return
        for ax in range(cells.ndim):
            lag = avg[_axis_slice(ax, slice(None, -w))]
            bufs = bufs[::-1]
            avg = np.add(lag, avg[_axis_slice(ax, slice(w, None))], out=_view(bufs[0], lag.shape))
            avg *= 0.5
        w *= 2


def _fold_containing_max(anchors: np.ndarray, w: int, best: np.ndarray, work) -> None:
    """Fold into `best` the per-cell max over all anchors whose window contains the cell.

    `work` holds two flat buffers of the cell count; with n = 2 the first
    axis's result goes into work[1], and the second axis folds it into `best`.
    """
    if w == 1:
        np.maximum(best, anchors, out=best)
    elif anchors.ndim == 1:
        _axis_containing_max(anchors, 0, w, work, best)
    else:
        _axis_containing_max(_axis_containing_max(anchors, 0, w, work), 1, w, work, best)


def _axis_containing_max(src: np.ndarray, ax: int, w: int, work, best=None):
    """Containing max along axis `ax` of `src`, which has A anchors there.

    Cell i of the A + w - 1 sees anchors [i-w+1, i] within [0, A-1].  Cells
    0..w-2 take the running max of the anchors (its last value where w-1 > A);
    cell w-1+a takes the max over [a, a+w-1], a forward doubling of the anchors
    clipped at their end, in log2(min(w, A)) rounds.  With `best` the cells
    fold into it; else they are written into work[1] and returned.  Rounds
    alternate between the flat buffers `work`; work[0] must not hold `src`.
    """
    def at(lo, hi=None):
        return _axis_slice(ax, slice(lo, hi))
    A = src.shape[ax]
    views = [_view(b, src.shape[:ax] + (A + w - 1,) + src.shape[ax + 1:]) for b in work]
    shifts = [1 << i for i in range((min(w, A) - 1).bit_length())]
    out, m = views[1] if best is None else best, min(w - 1, A)
    head = np.maximum.accumulate(src[at(0, m)], axis=ax,
                                 out=(out if best is None else views[0])[at(0, m)])
    if best is None:
        out[at(A, w - 1)] = head[at(A - 1, A)]
    else:
        np.maximum(best[at(0, m)], head, out=best[at(0, m)])
        np.maximum(best[at(A, w - 1)], head[at(A - 1, A)], out=best[at(A, w - 1)])
    rounds, lead = (shifts, len(shifts) % 2) if best is None else (shifts[:-1], 0)
    d = src
    for i, k in enumerate(rounds):  # the last round, when folding, reads d straight into best
        e = views[(i + lead) % 2][at(w - 1)]
        np.maximum(d[at(0, A - k)], d[at(k)], out=e[at(0, A - k)])
        e[at(A - k)] = d[at(A - k)]
        d = e
    tail = out[at(w - 1)]
    if best is None:
        if not shifts:
            tail[...] = src
        return out
    np.maximum(tail, d, out=tail)
    if shifts:
        k = shifts[-1]
        np.maximum(tail[at(0, A - k)], d[at(k)], out=tail[at(0, A - k)])


def maximal(f: GridFunction, cfg: MaximalConfig) -> GridFunction:
    """Sup over the windows containing each cell of the window average of |f|.

    Both the window averages and the containing maxima are built by dyadic
    doubling, so the full window family costs O(cells * log^2 cells).  They
    run in four flat buffers of the cell count, allocated once per call.
    """
    if cfg.grid != f.grid:
        raise LevelMismatchError("config grid does not match the function grid")
    grid = f.grid
    avg, work = np.empty((2, f.values.size)), np.empty((2, f.values.size))
    cells = np.abs(f.values, out=avg[0].reshape(grid.shape))
    best = np.full(grid.shape, -np.inf)
    for w, anchors in _window_averages(cells, grid.cells_per_axis, avg[1]):
        _fold_containing_max(anchors, w, best, work)
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
    ft = f.values * t.values
    return lp_lq_norm(f.grid, [np.abs(ft, out=ft)], p)


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


def _weighted_power(v: np.ndarray, t: np.ndarray, q: float) -> np.ndarray:
    """(t v)^q for nonnegative v and positive weights t, built in place in `v`."""
    v *= t
    v **= q
    return v


@dataclass
class FSRatioReport:
    """Vector-valued maximal ratio: weighted L_p(l_q) norms with and without M."""

    lhs: float
    rhs: float
    ratio: float | None


def fs_ratio(fs: Iterable[tuple[int, GridFunction]], w: WeightSequence, p: float, q: float,
             cfg: MaximalConfig) -> FSRatioReport:
    """Both sides of the vector-valued maximal inequality as exact grid norms, 1 < p, q < inf.

    `fs` yields the pairs (k, f_k) in the order of `w.levels` (`dict.items()` will do)
    and is read once, one level at a time: the right-hand sum takes each f_k as the
    left-hand norm reads its M(f_k), so a lazy `fs` keeps one f_k alive.  Other keys,
    or keys in another order, raise LevelMismatchError.
    """
    if p <= 1 or not 1 < q < INF:
        raise LevelRangeError(f"vector-valued ratio needs p > 1 and 1 < q < inf, got {p}, {q}")
    pairs, rhs = iter(fs), np.zeros(w.grid.shape)

    def lhs_summand(k: int) -> np.ndarray:
        """(t_k M(f_k))^q of the next pair, after adding (t_k |f_k|)^q into `rhs`."""
        key, f = next(pairs, (None, None))
        if key != k:
            raise LevelMismatchError(f"function level {key} where weight level {k} is due; "
                                     f"weight levels are {list(w.levels)}")
        np.add(rhs, _weighted_power(np.abs(f.values), w.tk[k], q), out=rhs)
        return _weighted_power(maximal(f, cfg).values, w.tk[k], q)

    lhs = lp_lq_norm(w.grid, (lhs_summand(k) for k in w.levels), p, q)
    extra = next(pairs, None)
    if extra is not None:
        raise LevelMismatchError(f"function level {extra[0]} beyond weight levels {list(w.levels)}")
    rhs = lp_lq_norm(w.grid, [rhs], p, q)
    ratio = None if rhs == 0.0 else lhs / rhs
    return FSRatioReport(lhs=lhs, rhs=rhs, ratio=ratio)
