"""Dyadic cube lattice on the box [0, 2^L)^n with exact piecewise-constant quadrature.

The domain is itself a dyadic cube (level -L), discretised into 2^(L+J) cells
per axis at the finest level J.  Every dyadic cube with level in [-L, J] is an
exact union of finest cells, so integrals of grid functions over such cubes are
plain cell sums times the cell volume, with no quadrature error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LevelRangeError, TlwError

INF = math.inf


@dataclass(frozen=True)
class DyadicCube:
    """The cube 2^{-k}([0,1)^n + m); `level` k fixes the side 2^{-k}."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.n)

    def children(self) -> list["DyadicCube"]:
        return [
            DyadicCube(self.level + 1, tuple(2 * m + o for m, o in zip(self.index, off)))
            for off in itertools.product((0, 1), repeat=self.n)
        ]


@dataclass(frozen=True)
class Grid:
    """Finite dyadic discretisation of [0, 2^L)^n at finest level J.

    `k_min`..`k_max` is the level range carried by coefficient fields and
    weight sequences living on this grid.
    """

    n: int
    L: int
    J: int
    k_min: int
    k_max: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if self.J + self.L < 0:
            raise LevelRangeError(f"finest level J={self.J} below domain level {-self.L}")
        if not (-self.L <= self.k_min <= self.k_max <= self.J):
            raise LevelRangeError(
                f"level range [{self.k_min}, {self.k_max}] not within [{-self.L}, {self.J}]"
            )

    @property
    def cells_per_axis(self) -> int:
        return 1 << (self.L + self.J)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.n

    @property
    def h(self) -> float:
        return 2.0 ** (-self.J)

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.J * self.n)

    @property
    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def cubes_per_axis(self, k: int) -> int:
        if not (-self.L <= k <= self.J):
            raise LevelRangeError(f"level {k} outside [{-self.L}, {self.J}]")
        return 1 << (self.L + k)

    def side_cells(self, k: int) -> int:
        """Finest cells per axis of a level-k cube."""
        self.cubes_per_axis(k)  # validates the level
        return 1 << (self.J - k)

    def level_shape(self, k: int) -> tuple[int, ...]:
        return (self.cubes_per_axis(k),) * self.n

    def cell_centers(self) -> np.ndarray:
        """The cell centres along one axis (the same on every axis)."""
        return (np.arange(self.cells_per_axis) + 0.5) * self.h

    def with_levels(self, k_min: int, k_max: int) -> "Grid":
        return Grid(self.n, self.L, self.J, k_min, k_max)

    def lattice(self) -> "Grid":
        """The grid whose cells are the level-k_max cubes (same level range): it carries
        any field constant on those cubes exactly, with 2^{(J-k_max)n} times fewer cells."""
        return Grid(self.n, self.L, self.k_max, self.k_min, self.k_max)

    def contains_cube(self, cube: DyadicCube) -> bool:
        if cube.n != self.n:
            return False
        if not (-self.L <= cube.level <= self.J):
            return False
        top = 1 << (self.L + cube.level)
        return all(0 <= m < top for m in cube.index)

    def cube_slices(self, cube: DyadicCube) -> tuple[slice, ...]:
        """Finest-cell index slices covered by `cube` (requires level <= J)."""
        if not self.contains_cube(cube):
            raise DomainError(f"cube {cube} not inside the domain grid")
        f = self.side_cells(cube.level)
        return tuple(slice(m * f, (m + 1) * f) for m in cube.index)


@dataclass
class GridFunction:
    """One value per finest cell; the piecewise-constant model of a function."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid, dtype=float) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape, dtype=dtype))

    @classmethod
    def constant(cls, grid: Grid, value) -> "GridFunction":
        return cls(grid, np.full(grid.shape, value, dtype=np.result_type(value, float)))


def cubes_at_level(grid: Grid, k: int) -> list[DyadicCube]:
    """All 2^{(L+k)n} level-k cubes, in lexicographic (row-major) index order."""
    top = grid.cubes_per_axis(k)
    return [DyadicCube(k, m) for m in itertools.product(range(top), repeat=grid.n)]


def first_max(levels: dict[int, np.ndarray]) -> tuple[float, DyadicCube]:
    """Largest value of per-level cube arrays (one entry per level-k cube) and its cube.

    Cubes are taken coarsest level first and row-major within a level, the
    order of `cubes_at_level`; on a tie the first maximum wins.  A NaN value
    raises TlwError naming its level.
    """
    tops = {lev: vals.max() for lev, vals in levels.items()}
    for lev, top in tops.items():
        if math.isnan(top):
            raise TlwError(f"level {lev}: cube values include NaN")
    best = max(tops.values())  # raises ValueError on no levels
    lev = min(lev for lev, top in tops.items() if top == best)
    i = int(np.argmax(levels[lev]))
    return float(best), DyadicCube(lev, np.unravel_index(i, levels[lev].shape))


def cube_at(grid: Grid, k: int, i: int) -> DyadicCube:
    """The level-k cube at position i of `cubes_at_level`, without building the others."""
    return DyadicCube(k, np.unravel_index(i, grid.level_shape(k)))


def integrate(f: GridFunction, cube: DyadicCube):
    """Exact integral of f over the cube: cell sum times cell volume."""
    if cube.level > f.grid.J:
        raise LevelRangeError(f"cube level {cube.level} finer than grid level {f.grid.J}")
    sl = f.grid.cube_slices(cube)
    return f.values[sl].sum() * f.grid.cell_volume


def indicator(grid: Grid, cube: DyadicCube) -> GridFunction:
    """Characteristic function of the cube as a grid function."""
    out = GridFunction.zeros(grid)
    out.values[grid.cube_slices(cube)] = 1.0
    return out


def expand_level_array(grid: Grid, k: int, a: np.ndarray, out=None) -> np.ndarray:
    """Blow a per-cube level-k array up to the finest-cell shape (into `out` if given)."""
    a = np.asarray(a)
    if a.shape != grid.level_shape(k):
        raise ValueError(f"level-{k} array has shape {a.shape}, expected {grid.level_shape(k)}")
    out = np.empty(grid.shape, dtype=a.dtype) if out is None else out
    blocks, a = broadcast_cubes(out, a)
    blocks[...] = a
    return out


def _cube_blocks(cells: np.ndarray, f: int) -> np.ndarray:
    """Interleaved (s, f, s, f, ...) view of the level cubes with f cells per axis.

    Cube m covers cells f*m .. f*m + f - 1 per axis; the odd axes run over the
    cells of one cube.
    """
    return cells.reshape([d for size in cells.shape for d in (size // f, f)])


def block_reduce(cells: np.ndarray, f: int, how: str = "sum", p: float = 1.0) -> np.ndarray:
    """One value per cube of `_cube_blocks`: the "sum" of x^p, or the "mean" at exponent p.

    The mean at exponent p is the power mean ((1/N) sum x^p)^{1/p}.  p = inf
    gives the max either way.  Cells are taken as they are (no absolute value).
    """
    blocks = _cube_blocks(cells, f)
    axes = tuple(range(1, blocks.ndim, 2))
    if p == INF:
        return blocks.max(axis=axes)
    sums = (blocks if p == 1 else blocks**p).sum(axis=axes)
    if how == "sum":
        return sums
    means = sums / float(f ** len(axes))
    return means if p == 1 else means ** (1.0 / p)


def cube_major_view(cells: np.ndarray, f: int) -> np.ndarray:
    """(cubes..., f, ..., f) view of cells whose writes reach cells; `cube_major` flattens it."""
    n = cells.ndim
    return _cube_blocks(cells, f).transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))


def cube_major(cells: np.ndarray, f: int) -> np.ndarray:
    """(cubes..., f**n) copy of cells, one row per level cube; for order-free per-cube work."""
    rows = cube_major_view(cells, f)
    return rows.reshape(*rows.shape[:cells.ndim], -1)


def localized_sup(grid: Grid, summands, cube_value=None):
    """cube_value on the localized sum of every dyadic P (levels -L..top summand level).

    `summands` yields (k, u_k) finest level first and may refill one buffer.
    The localized sum of P is T_j = sum_{k >= j} u_k at j = max(k_P, lowest
    summand level), accumulated in place in one buffer.  cube_value(level, T)
    may return any per-level array (default: the mean of T over each level
    cube), or None to leave the level out; T is overwritten by the next
    level, so it must not be kept.  Returns each level kept mapped to its
    array; for one value per cube, `first_max` of it is the sup over P.
    """
    if cube_value is None:
        def cube_value(lev, tail):
            return block_reduce(tail, grid.side_cells(lev), "mean")
    levels, acc = {}, None
    for k, u in summands:
        acc = np.zeros_like(u) if acc is None else acc
        acc += u
        levels[k] = cube_value(k, acc)
    for lev in range(-grid.L, k):  # coarser than every summand: T of the lowest level
        levels[lev] = cube_value(lev, acc)
    return {lev: levels[lev] for lev in sorted(levels) if levels[lev] is not None}


def broadcast_cubes(cells: np.ndarray, a: np.ndarray):
    """(a view of cells with one block per cube of `a`, `a` shaped to broadcast over it).

    So `blocks *= a_b` scales each cube's cells by its entry of `a`, in place.
    """
    blocks = _cube_blocks(cells, cells.shape[0] // a.shape[0])
    return blocks, a.reshape([d for size in a.shape for d in (size, 1)])


def lp_lq_norm(grid: Grid, summands, p: float, q: float = 1.0) -> float:
    """Exact grid norm || (sum_k u_k)^{1/q} ||_{L_p} of cell fields u_k.

    For finite q each u_k is already the q-th power |a_k|^q; for q = inf the
    u_k are the |a_k| and the sum becomes their pointwise max.  p = inf gives
    the max over cells.
    """
    if not p > 0:
        raise LevelRangeError(f"p must be positive or inf, got {p}")
    if not q > 0:
        raise LevelRangeError(f"q must be positive or inf, got {q}")
    body = np.zeros(grid.shape)
    for u in summands:
        if q == INF:
            np.maximum(body, u, out=body)
        else:
            body += u
        del u  # else it stays alive while the generator builds the next summand
    if q != INF:
        body **= 1.0 / q
    if p == INF:
        return float(body.max()) if body.size else 0.0
    return float(np.power(body, p, out=body).sum() * grid.cell_volume) ** (1.0 / p)
