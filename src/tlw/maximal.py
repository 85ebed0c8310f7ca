"""Hardy-Littlewood maximal operator over dyadic-length windows, and ratio reports.

The window family consists of axis-aligned cubes with dyadic side lengths
2^{-j}, -L <= j <= J (one cell up to the whole domain), at every finest-cell
offset, restricted to windows that lie inside the domain box.  This undershoots
the full uncentered cube maximal by at most a factor 2^n (side lengths are
dense up to factor 2); every two-sided test in the suite compares the same
operator on both sides, so the gap cancels.

`maximal` forms the window averages of every width by doubling and folds
them, largest width first, into the per-cell maximum: a few passes over the
cells per width, O(cells * log cells) in all.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .dyadic import INF, Grid, GridFunction, lp_lq_norm
from .errors import LevelMismatchError, LevelRangeError, UndefinedRatioError
from .weights import WeightSequence

# `maximal` splits into residue classes until its work areas fit in this many grid
# arrays, which keeps a call and its result within five
_AREA_ARRAYS = 4


@dataclass(frozen=True)
class MaximalConfig:
    """Window family of `grid`: every dyadic side from one cell to the domain;
    `window_cells()` lists the sides in cells (the benchmark's tracer counts with it)."""

    grid: Grid

    def window_cells(self) -> list[int]:
        return [1 << i for i in range(self.grid.L + self.grid.J + 1)]


# The cascade keeps the averages of each width in a flat array of whole rows of the
# width-1 array, row-major: a shift by w along an axis is a shift by w times that
# axis's offset (`offs`, the row length in 2-D, then 1), so every pass is one
# contiguous ufunc call, about 4x faster in numpy than a pass over a 2-D view of the
# same cells at 256^2.  In 2-D the cells of a row past its last anchor hold junk.


def _double(src: np.ndarray, w: int, offs: tuple[int, ...], out: np.ndarray) -> np.ndarray:
    """Window averages of width 2w from those of width w (`src`), at the head of `out`.

    The 2w-window at anchor a is the mean of the 2^n w-windows at anchors
    a + {0, w}^n: a sum and a halving along axis 0, then along axis 1, each
    width costing one pass per axis, and roundoff grows with log2(w), not
    with the cell count.  The pass along axis 1 runs in place: numpy copies
    no operand that only reads ahead of the output.
    """
    part = out[:src.size - w * offs[0]]
    np.add(src[:part.size], src[w * offs[0]:], out=part)
    np.multiply(part, 0.5, out=part)
    for off in offs[1:]:
        head = part[:part.size - w * off]
        np.add(head, part[w * off:], out=head)
        np.multiply(head, 0.5, out=head)
    return part


def _fold(target: np.ndarray, upper: np.ndarray, w: int, offs: tuple[int, ...]) -> None:
    """R_w = max(A_w, D_w R_{2w}) in place in `target` = A_w, with `upper` = R_{2w}.

    D_w gives the width-w anchor a the max of R_{2w} over the anchors a - s,
    s in {0, w}^n, that exist: one in-place max per shift, each over the
    2w-anchors.  In 2-D the junk of `upper` is zeroed first, which clips each
    shift at the end of a row: the averages of |f| are never negative.
    """
    if len(offs) == 2:
        upper.reshape(-1, offs[0])[:, offs[0] - 2 * w + 1:] = 0
    for s in itertools.product((0, w), repeat=len(offs)):
        off = sum(a * b for a, b in zip(s, offs))
        m = min(upper.size, target.size - off)
        view = target[off:off + m]
        np.maximum(view, upper[:m], out=view)


def _layout(shape: tuple[int, ...]) -> tuple[dict[int, int], int, int]:
    """Where `_cascade` keeps the widths 2^2, 2^4, ... of width-1 averages of `shape`.

    Returns the slot offsets by exponent, the spare's offset and the cells of
    the work area in all; the spare holds one odd width at a time, the widest
    being 2^1.
    """
    def cells(i: int) -> int:
        """Cells of the rows that hold the width 2^i."""
        return (shape[0] - (1 << i) + 1) * math.prod(shape[1:])

    starts, end = {}, 0
    for i in range(2, min(shape).bit_length(), 2):
        starts[i], end = end, end + cells(i)
    return starts, end, end + (cells(1) if min(shape) > 1 else 0)


def _cascade(res: np.ndarray) -> None:
    """Fold every width into `res`, the width-1 averages, C-contiguous, in place: R_1.

    The widths are 2^i up to the shortest side of `res`.  The averages come
    up the widths by doubling (`_double`) and the fold goes down them, so
    every other width is kept in a slot of one work area, and the odd widths
    are formed again from the width below when the fold reaches them, into a
    spare slot at its end (`_layout`).
    """
    offs = tuple(s // res.itemsize for s in res.strides)
    starts, spare_at, cells = _layout(res.shape)
    area = np.empty(cells)
    spare, top = area[spare_at:], min(res.shape).bit_length() - 1
    store = {0: res.reshape(-1)}
    avg = store[0]
    for i in range(1, top - top % 2 + 1):
        avg = _double(avg, 1 << (i - 1), offs, area[starts[i]:] if i in starts else spare)
        if i in starts:
            store[i] = avg
    upper = None
    for i in range(top, -1, -1):
        a = store[i] if i in store else _double(store[i - 1], 1 << (i - 1), offs, spare)
        if upper is not None:
            _fold(a, upper, 1 << i, offs)
        upper = a


def _class_averages(res: np.ndarray, c: tuple[int, ...], out: np.ndarray) -> np.ndarray:
    """The window averages of width 2 at the anchors c + 2k of `res`, at the head of
    `out`: the same sums and halvings as `_double`, axis 0 first, on strided views."""
    avg = res[tuple(slice(r, None) for r in c)]
    shape = tuple(m // 2 for m in avg.shape)
    for axis in range(res.ndim):
        lo, hi = ((slice(None),) * axis + (slice(u, 2 * shape[axis], 2),) for u in (0, 1))
        dst = out[:math.prod(shape)].reshape(shape) if axis == res.ndim - 1 else None
        avg = np.add(avg[lo], avg[hi], out=dst)
        np.multiply(avg, 0.5, out=avg)
    return avg


def _split_cascade(res: np.ndarray, depth: int) -> None:
    """`_cascade` on `res`, first split `depth` times into residue classes.

    The 2w-window at anchor a averages w-windows at anchors a + {0, w}^n, so
    the widths >= 2 at the anchors of each residue class mod 2 are an
    independent cascade on 2^-n of the cells, with its own widths 1, 2, ...
    counted in steps of 2.  The width-2 averages of every class are formed,
    into one array, before any is folded into `res` (they read |f|); each
    class then runs in turn, and R_1 = max(A_1, D_1 R_2) takes its R_2 at
    the cells c + 2k + {0, 1}^n.
    """
    if depth == 0 or min(res.shape) < 4:
        return _cascade(res)
    classes = list(itertools.product((0, 1), repeat=res.ndim))
    width2, blocks = np.empty(math.prod(m - 1 for m in res.shape)), []
    for c in classes:
        blocks.append(_class_averages(res, c, width2[sum(b.size for b in blocks):]))
    for c, block in zip(classes, blocks):
        _split_cascade(block, depth - 1)
        for s in itertools.product((0, 1), repeat=res.ndim):
            view = res[tuple(slice(r + u, None, 2) for r, u in zip(c, s))]
            m = tuple(slice(min(a, b)) for a, b in zip(view.shape, block.shape))
            np.maximum(view[m], block[m], out=view[m])


def _area_cells(shape: tuple[int, ...], depth: int) -> int:
    """Cells of the work areas alive at once in `_split_cascade` on `shape`."""
    if depth == 0 or min(shape) < 4:
        return _layout(shape)[2]
    width2 = math.prod(m - 1 for m in shape)
    return width2 + _area_cells(tuple(m // 2 for m in shape), depth - 1)


def maximal(f: GridFunction, cfg: MaximalConfig, out: np.ndarray | None = None) -> GridFunction:
    """Sup over the windows containing each cell of the window average of |f|.

    The result is formed in `out`, a C-contiguous float array of the grid's
    shape, if given, else in a new array; `out` may be `f.values`, which a
    caller done with f gives up so that the call holds one grid array less.

    With A_w the averages of width w cells, anchor-indexed, set R_N = A_N and
    fold the widths largest first, R_w = max(A_w, D_w R_{2w}) (`_fold`); then
    M = R_1.  Unrolled, R_1(x) is the max of A_w(x - s) over every width w and
    shift s in [0, w)^n, the shift taken low bits first, which keeps every
    intermediate anchor in the domain: exactly the windows that contain x.
    Each width costs O(cells), so M costs O(cells * log cells).

    The cascade's work area holds every other width and a spare: about
    (log2 N)/2 + 1 grid arrays in 1-D, and in 2-D, where the top widths have
    few anchors, 3.4 at 128^2 and 3.7 at 256^2.  So the width-2 averages are
    split into residue classes (`_split_cascade`) as often as it takes to
    keep the work areas within four grid arrays: in 1-D once from 2^9 cells
    and twice from 2^14 (2.9 arrays there), in 2-D once at 512^2 (1.9) and
    1024^2.  Width 1 is |f| in the returned array, which keeps the pointwise
    domination M(f) >= |f| rounding-free; R_1 folds into it.
    """
    if cfg.grid != f.grid:
        raise LevelMismatchError("config grid does not match the function grid")
    if out is None:
        out = np.empty(f.grid.shape)
    elif out.shape != f.grid.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float array of the grid's shape")
    res = np.abs(f.values, out=out)
    depth = 0
    while _area_cells(res.shape, depth) > _AREA_ARRAYS * res.size:
        depth += 1
    _split_cascade(res, depth)
    return GridFunction(f.grid, res)


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


def _weighted_power(v: np.ndarray, t: np.ndarray, q: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """(t v)^q for nonnegative v and positive weights t, built in `out` (which may be
    `v`) if given, else in a new array."""
    out = np.multiply(v, t, out=out)
    return np.power(out, q, out=out)


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
    left-hand norm reads its M(f_k): f_k is read into a = |f_k|, and M(f_k) = M(a) is
    formed in a.  So with a lazy `fs` a call holds three grid arrays (the two sums and
    a) besides `maximal`'s work area, while `dict.items()` keeps every f_k alive as long
    as the dict.  Other keys, or keys in another order, raise LevelMismatchError.
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
        f = GridFunction(f.grid, np.abs(f.values))  # |f_k|: the call holds f_k no more
        np.add(rhs, _weighted_power(f.values, w.level_values(k), q), out=rhs)
        m = maximal(f, cfg, out=f.values).values  # M(|f_k|) = M(f_k), into |f_k|
        return _weighted_power(m, w.level_values(k), q, out=m)

    lhs = lp_lq_norm(w.grid, (lhs_summand(k) for k in w.levels), p, q)
    extra = next(pairs, None)
    if extra is not None:
        raise LevelMismatchError(f"function level {extra[0]} beyond weight levels {list(w.levels)}")
    rhs = lp_lq_norm(w.grid, [rhs], p, q)
    ratio = None if rhs == 0.0 else lhs / rhs
    return FSRatioReport(lhs=lhs, rhs=rhs, ratio=ratio)
