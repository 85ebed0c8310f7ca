"""Sequence spaces over the truncated dyadic lattice and their equivalent norms.

A coefficient field assigns one complex amplitude per in-domain dyadic cube
for every level in the grid's range.  The norms implemented here:

  * the mixed L_p(l_q) quasi-norm (pointwise weights),
  * its cube-averaged variant with per-cube weight integrals,
  * the p = infinity norm (sup over dyadic cubes P of localized averages),
  * the exact cube-averaged rewriting of that sup (an identity, not a bound),
  * the smoothed field lambda*, the localized functional G_P, the quartile
    functional m_P with its pointwise supremum, and restricted variants over
    per-cube subsets E_Q.

Every sup over P sweeps all dyadic cubes with level in [-L, k_max], one array
per level, and takes the largest value with `dyadic.first_max`; on the
truncated model this is the exact supremum (larger cubes cannot appear, and
the domain cube dominates anything coarser).

Norms with pointwise weights (`f_pq_norm` with p != q, `f_inf_norm`, the
restricted norms, `g_p`, `m_p_levels`, `m_fun`) sweep the finest cells, where
t_k varies.  `f_pq_norm_star` and `f_inf_norm_cubeavg`, whose summands are
constant on level cubes, sweep `Grid.lattice()` (the level-k_max cubes), and
`f_pq_norm` with p = q reads only the cube integrals of t_k^p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import (
    INF,
    DyadicCube,
    Grid,
    GridFunction,
    block_reduce,
    broadcast_cubes,
    cube_major,
    cube_major_view,
    expand_level_array,
    first_max,
    localized_sup,
    lp_lq_norm,
)
from .errors import (
    LevelMismatchError,
    LevelRangeError,
    NonFiniteError,
    PositivityError,
    ResolutionError,
)
from .weights import WeightSequence


class CoeffField:
    """Complex amplitudes lambda_{k,m}, dense per-level arrays over the lattice."""

    def __init__(self, grid: Grid, entries: dict[int, np.ndarray]):
        self.grid = grid
        self.entries: dict[int, np.ndarray] = {}
        for k in grid.levels:
            if k not in entries:
                raise LevelMismatchError(f"missing coefficients for level {k}")
            a = np.asarray(entries[k], dtype=complex)
            if a.shape != grid.level_shape(k):
                raise LevelMismatchError(
                    f"level {k} has shape {a.shape}, lattice is {grid.level_shape(k)}"
                )
            if not np.all(np.isfinite(a)):
                raise NonFiniteError(f"level {k} contains non-finite amplitudes")
            self.entries[k] = a

    @property
    def levels(self) -> range:
        return self.grid.levels

    @classmethod
    def zeros(cls, grid: Grid) -> "CoeffField":
        return cls(grid, {k: np.zeros(grid.level_shape(k), dtype=complex) for k in grid.levels})

    @classmethod
    def single(cls, grid: Grid, k: int, m: tuple[int, ...], value=1.0) -> "CoeffField":
        out = cls.zeros(grid)
        out.entries[k][tuple(m)] = value
        return out

    @classmethod
    def random(cls, grid: Grid, rng: np.random.Generator,
               complex_values: bool = True) -> "CoeffField":
        entries = {}
        for k in grid.levels:
            shape = grid.level_shape(k)
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape) if complex_values else 0.0
            entries[k] = re + 1j * im
        return cls(grid, entries)

    def scale(self, c) -> "CoeffField":
        return CoeffField(self.grid, {k: c * v for k, v in self.entries.items()})

    def plus(self, other: "CoeffField") -> "CoeffField":
        if other.grid != self.grid:
            raise LevelMismatchError("coefficient fields live on different lattices")
        return CoeffField(self.grid, {k: self.entries[k] + other.entries[k] for k in self.levels})

    def amplitude(self, k: int) -> np.ndarray:
        return np.abs(self.entries[k])


def _check_pair(lam: CoeffField, w: WeightSequence):
    if lam.grid != w.grid:
        raise LevelMismatchError("coefficient field and weights live on different grids")


def _pointwise_summands(lam: CoeffField, w: WeightSequence, q: float, levels, masks=None):
    """(k, 2^{knq/2} t_k(x)^q |lambda_{k,m}|^q chi_{k,m}(x) [* masks[k]]) over `levels`, in one
    reused buffer; q = inf gives 2^{kn/2} t_k(x) |lambda_{k,m}| chi_{k,m}(x)."""
    grid, buf = lam.grid, np.empty(lam.grid.shape)
    for k in levels:
        if q == INF:  # (2^{kn/2} t_k) |lambda_k|: scaling |lambda_k| first rounds differently
            np.multiply(2.0 ** (k * grid.n / 2.0), w.power(k, 1.0, buf), out=buf)
            per_cube = np.abs(lam.entries[k])
        else:
            w.power(k, q, buf)
            per_cube = (2.0 ** (k * grid.n * q / 2.0)) * np.abs(lam.entries[k]) ** q
        blocks, a = broadcast_cubes(buf, per_cube)
        blocks *= a
        if masks is not None:
            buf *= masks[k]
        yield k, buf


def f_pq_norm(lam: CoeffField, w: WeightSequence, p: float, q: float) -> float:
    """The mixed quasi-norm || (sum_k sum_m 2^{knq/2} t_k^q |l_km|^q chi)^{1/q} ||_{L_p}.

    q = inf takes the sup over levels of the summand (usual modification).
    For p = q the norm is a weighted l_p sum, (sum_{k,m} 2^{knp/2} |l_km|^p
    int_Q t_k^p)^{1/p}, read from the memoised cube integrals without
    touching the cells; every other (p, q) sums t_k^q |l_km|^q cell by cell.
    """
    _check_pair(lam, w)
    if not 0 < p < INF:
        raise LevelRangeError(f"p must be in (0, inf), got {p}")
    if p == q:
        n = lam.grid.n
        total = sum(float(((2.0 ** (k * n * p / 2.0)) * np.abs(lam.entries[k]) ** p
                           * w.cube_integral(k, p)).sum()) for k in lam.levels)
        return total ** (1.0 / p)
    terms = (u for _, u in _pointwise_summands(lam, w, q, lam.levels))
    return lp_lq_norm(lam.grid, terms, p, q)


def f_pq_norm_star(lam: CoeffField, w: WeightSequence, p: float, q: float,
                   delta: float = 1.0) -> float:
    """Equivalent quasi-norm with cube-integrated weights t_{k,m,dp} in place of t_k.

    The summands are constant on level cubes, so the norm runs on `Grid.lattice()`.
    """
    _check_pair(lam, w)
    if not 0 < delta <= 1:
        raise LevelRangeError(f"delta must be in (0, 1], got {delta}")
    if not 0 < p < INF or not 0 < q < INF:
        raise LevelRangeError("star norm needs finite positive p and q")
    lattice = lam.grid.lattice()
    dp = delta * p
    terms = (expand_level_array(lattice, k, 2.0 ** (k * lattice.n * q * (0.5 + 1.0 / dp))
                                * w.cube_norm(k, dp) ** q * np.abs(lam.entries[k]) ** q)
             for k in lam.levels)
    return lp_lq_norm(lattice, terms, p, q)


def f_inf_norm(lam: CoeffField, w: WeightSequence, q: float) -> float:
    """sup over dyadic P of the localized average, with pointwise weights."""
    _check_pair(lam, w)
    if not 0 < q < INF:
        raise LevelRangeError(f"the p = inf space is defined for q in (0, inf), got {q}")
    summands = _pointwise_summands(lam, w, q, reversed(lam.levels))
    return first_max(localized_sup(lam.grid, summands))[0] ** (1.0 / q)


def f_inf_norm_cubeavg(lam: CoeffField, w: WeightSequence, q: float) -> float:
    """The cube-averaged rewriting; equals f_inf_norm exactly on the grid.

    Its summands 2^{knq(1/2+1/q)} (int_Q t_k^q) |l_km|^q chi_{k,m} are constant
    on level cubes, so the sweep runs on `Grid.lattice()`, not on the cells.
    """
    _check_pair(lam, w)
    if not 0 < q < INF:
        raise LevelRangeError(f"the p = inf space is defined for q in (0, inf), got {q}")
    lattice = lam.grid.lattice()
    buf = np.empty(lattice.shape)
    per_cube = ((k, 2.0 ** (k * lattice.n * (q / 2.0 + 1.0)) * w.cube_integral(k, q)
                 * np.abs(lam.entries[k]) ** q) for k in reversed(lam.levels))
    summands = ((k, expand_level_array(lattice, k, a, buf)) for k, a in per_cube)
    return first_max(localized_sup(lattice, summands))[0] ** (1.0 / q)


def lambda_star(lam: CoeffField, r: float, d: float) -> CoeffField:
    """Smoothed field: l*_{k,m} = (sum_h |l_{k,h}|^r / (1+|h-m|)^d)^{1/r}.

    r = inf is the limiting modification sup_h |l_{k,h}| (1+|h-m|)^{-d}.
    The h = m kernel value is exactly 1, so l* >= |l| entrywise; the FFT
    convolution is clamped there to keep the domination exact.
    """
    if r != INF and r <= 0:
        raise LevelRangeError(f"r must be positive or inf, got {r}")
    grid = lam.grid
    out = {}
    for k in lam.levels:
        amp = np.abs(lam.entries[k])
        if r == INF:
            out[k] = _max_conv(amp, _distance_kernel(grid.level_shape(k), d))
        else:
            conv = _fft_conv(amp**r, _kernel_spectrum(grid.level_shape(k), d))
            out[k] = np.maximum(conv, amp**r) ** (1.0 / r)
    return CoeffField(grid, out)


def _distance_kernel(shape: tuple[int, ...], d: float) -> np.ndarray:
    axes = [np.arange(-(s - 1), s) for s in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    dist = np.sqrt(sum(m.astype(float) ** 2 for m in mesh))
    return (1.0 + dist) ** (-d)


@functools.lru_cache(maxsize=32)
def _kernel_spectrum(shape: tuple[int, ...], d: float) -> np.ndarray:
    """rfftn of `_distance_kernel(shape, d)` at size 2s per axis; read-only, shared."""
    size = tuple(2 * s for s in shape)
    out = np.fft.rfftn(_distance_kernel(shape, d), size, axes=tuple(range(len(shape))))
    out.flags.writeable = False
    return out


def _fft_conv(a: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """(a * kernel)[m] = sum_h a[h] kernel[m - h + off], off = shape-1 per axis; a circular
    convolution of size 2s per axis, whose wrap misses the kept entries s-1..2s-2."""
    size = tuple(2 * s for s in a.shape)
    axes = tuple(range(a.ndim))
    fa = np.fft.rfftn(a, size, axes=axes)
    conv = np.fft.irfftn(fa * spectrum, size, axes=axes)
    sl = tuple(slice(s - 1, 2 * s - 1) for s in a.shape)
    return np.maximum(conv[sl], 0.0)


def _max_conv(amp: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Sup-convolution over the nonzero entries; only used for the r = inf modification."""
    out = np.zeros_like(amp)
    off = tuple(s - 1 for s in amp.shape)
    for idx in np.argwhere(amp > 0):
        sl = tuple(slice(o - i, o - i + s) for o, i, s in zip(off, idx, amp.shape))
        np.maximum(out, amp[tuple(idx)] * kernel[sl], out=out)
    return out


def lambda_star_equivalence(lam: CoeffField, w: WeightSequence, q: float, d: float,
                            gamma: int = 0) -> tuple[float, float]:
    """(||l*_{q,d}|| , ||l||), both in the p = inf norm with shifted weights t_{k-gamma}."""
    shifted = w.shifted(gamma, levels=lam.grid.levels)
    star = lambda_star(lam, q, d)
    return (
        f_inf_norm(star, shifted, q),
        f_inf_norm(lam, shifted, q),
    )


def g_p(lam: CoeffField, w: WeightSequence, q: float, P: DyadicCube) -> GridFunction:
    """The localized functional G_P on cells of P (zero outside)."""
    _check_pair(lam, w)
    grid = lam.grid
    if not grid.contains_cube(P):
        raise LevelRangeError(f"cube {P} not inside the domain")
    body = np.zeros(grid.shape)
    for _, u in _pointwise_summands(lam, w, q, range(max(P.level, grid.k_min), grid.k_max + 1)):
        body += u
    out = np.zeros(grid.shape)
    sl = grid.cube_slices(P)
    out[sl] = body[sl] ** (1.0 / q)
    return GridFunction(grid, out)


def _quartile_count(n_cells: int) -> int:
    """Largest allowed count of cells strictly above the returned threshold."""
    return math.ceil(n_cells / 4.0) - 1


def m_p(lam: CoeffField, w: WeightSequence, q: float, P: DyadicCube) -> float:
    """Smallest sampled threshold exceeded on fewer than a quarter of P's cells.

    Candidates are the sampled values of G_P on P together with 0; ties
    resolve downward, matching the infimum over real thresholds exactly.
    """
    grid = lam.grid
    n_cells = grid.side_cells(P.level) ** grid.n
    if n_cells < 4:
        raise ResolutionError(f"cube at level {P.level} has {n_cells} cells; need >= 4")
    vals = g_p(lam, w, q, P).values[grid.cube_slices(P)].ravel()
    allowed = _quartile_count(n_cells)
    # (allowed+1)-th largest value; every smaller threshold fails the count test
    kth = np.partition(vals, n_cells - 1 - allowed)[n_cells - 1 - allowed]
    return float(kth)


def m_p_levels(lam: CoeffField, w: WeightSequence, q: float,
               min_cells: int = 4) -> dict[int, np.ndarray]:
    """m_P of every dyadic P (levels -L..k_max) with at least `min_cells` cells.

    One `localized_sup` sweep; returns each level kept mapped to its m_P
    values, equal to `m_p` cube by cube up to the summation order of G_P.
    """
    _check_pair(lam, w)
    grid = lam.grid

    def quartile(lev, tail):
        f = grid.side_cells(lev)
        if f**grid.n < min_cells:
            return None
        rank = f**grid.n - 1 - _quartile_count(f**grid.n)
        return np.partition(cube_major(tail, f), rank, axis=-1)[..., rank] ** (1.0 / q)

    summands = _pointwise_summands(lam, w, q, reversed(lam.levels))
    return localized_sup(grid, summands, quartile)


def m_fun(lam: CoeffField, w: WeightSequence, q: float, min_cells: int = 4) -> GridFunction:
    """Pointwise sup of m_P over dyadic P containing each cell (levels -L..k_max).

    Cubes with fewer than `min_cells` cells are outside the m_P resolution and
    are skipped; pass min_cells=1 to extend the quartile rule down to single
    cells (there it degenerates to the plain maximum over the cube).
    """
    best = np.zeros(lam.grid.shape)
    for vals in m_p_levels(lam, w, q, min_cells).values():
        blocks, m = broadcast_cubes(best, vals)
        np.maximum(blocks, m, out=blocks)
    return GridFunction(lam.grid, best)


def m_fun_p_norm(lam: CoeffField, w: WeightSequence, p: float, q: float) -> float:
    """L_p norm of the quartile functional; pairs with f_pq_norm in equivalence suites."""
    if p == INF:
        raise LevelRangeError("use the L_inf pairing with f_inf_norm instead")
    return lp_lq_norm(lam.grid, [m_fun(lam, w, q).values], p)


class RestrictionSets:
    """Per-cube subsets E_Q (union of finest cells), |E_Q| > fraction * |Q| enforced."""

    def __init__(self, grid: Grid, masks: dict[int, np.ndarray], fraction: float = 0.5):
        if not 0 < fraction < 1:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        self.grid = grid
        self.fraction = fraction
        self.masks: dict[int, np.ndarray] = {}
        self._min_fraction = 1.0
        for k in grid.levels:
            if k not in masks:
                raise LevelMismatchError(f"missing restriction mask for level {k}")
            mask = np.asarray(masks[k], dtype=bool)
            if mask.shape != grid.shape:
                raise LevelMismatchError(f"mask for level {k} has shape {mask.shape}")
            cells_per_cube = grid.side_cells(k) ** grid.n
            counts = block_reduce(mask, grid.side_cells(k))
            if not np.all(counts > fraction * cells_per_cube):
                bad = int(np.argmin(counts))
                raise PositivityError(
                    f"restriction at level {k} keeps {counts.flat[bad]:.0f} of "
                    f"{cells_per_cube} cells in some cube; need > {fraction:.3g} fraction"
                )
            self.masks[k] = mask
            self._min_fraction = min(self._min_fraction, float(counts.min()) / cells_per_cube)

    @classmethod
    def full(cls, grid: Grid, fraction: float = 0.5) -> "RestrictionSets":
        return cls(grid, {k: np.ones(grid.shape, dtype=bool) for k in grid.levels}, fraction)

    @classmethod
    def random(cls, grid: Grid, keep_fraction: float, rng: np.random.Generator,
               fraction: float = 0.5) -> "RestrictionSets":
        """Keep keep = min(floor(keep_fraction * N) + 1, N) random cells per N-cell cube.

        One draw of uniform keys per level, a row of N per cube in `cube_major`
        order; each cube keeps the cells whose key is at most its keep-th
        smallest.  Only a tie at that threshold (probability about N / 2^53
        per cube) keeps more than `keep` cells.
        """
        if not 0 <= keep_fraction <= 1:
            raise ValueError(f"keep_fraction must be in [0, 1], got {keep_fraction}")
        masks = {}
        for k in grid.levels:
            f = grid.side_cells(k)
            keep = min(int(keep_fraction * f**grid.n) + 1, f**grid.n)
            keys = rng.random((*grid.level_shape(k), f**grid.n))
            kth = np.partition(keys, keep - 1, axis=-1)[..., keep - 1]
            masks[k] = np.empty(grid.shape, dtype=bool)
            cells = cube_major_view(masks[k], f)  # writes reach masks[k]
            np.less_equal(keys.reshape(cells.shape), kth.reshape(kth.shape + (1,) * grid.n),
                          out=cells)
        return cls(grid, masks, fraction)

    @classmethod
    def corner_fraction(cls, grid: Grid, fraction_per_axis: float,
                        fraction: float = 0.5) -> "RestrictionSets":
        """Lower-left corner block of each cube (per-axis fraction of the side)."""
        masks = {}
        for k in grid.levels:
            f = grid.side_cells(k)
            keep = max(int(round(fraction_per_axis * f)), 1)
            block = np.zeros((f,) * grid.n, dtype=bool)
            block[(slice(0, keep),) * grid.n] = True
            tiles = (grid.cubes_per_axis(k),) * grid.n
            masks[k] = np.tile(block, tiles)
        return cls(grid, masks, fraction)

    @classmethod
    def from_m_fun(cls, lam: CoeffField, w: WeightSequence, q: float) -> "RestrictionSets":
        """E_Q = {x in Q : G_Q(x) <= m(x)} per cube; guarantees |E_Q| >= 3|Q|/4.

        m needs a whole `m_fun` sweep; a second sweep then tests each level's G_Q against it.
        """
        grid = lam.grid
        if grid.side_cells(grid.k_max) ** grid.n < 4:
            raise ResolutionError(
                "finest coefficient cubes have fewer than 4 cells; the quartile "
                "guarantee needs k_max <= J-2 (1-D) or k_max <= J-1 (2-D)"
            )
        m = m_fun(lam, w, q).values

        def below_m(lev, tail):  # m_P's own `** (1/q)`: the quartile cell compares equal to it
            return tail ** (1.0 / q) <= m if lev >= grid.k_min else None

        summands = _pointwise_summands(lam, w, q, reversed(lam.levels))
        return cls(grid, localized_sup(grid, summands, below_m))

    def min_fraction(self) -> float:
        """Smallest |E_Q|/|Q| over all cubes and levels, as counted at construction."""
        return self._min_fraction


def restricted_norm(lam: CoeffField, w: WeightSequence, q: float,
                    E: RestrictionSets) -> float:
    """The p = inf norm with chi_Q replaced by chi_{E_Q}; <= f_inf_norm exactly."""
    _check_pair(lam, w)
    if E.grid != lam.grid:
        raise LevelMismatchError("restriction sets live on a different grid")
    summands = _pointwise_summands(lam, w, q, reversed(lam.levels), E.masks)
    return first_max(localized_sup(lam.grid, summands))[0] ** (1.0 / q)


def restricted_sup_norm(lam: CoeffField, w: WeightSequence, q: float,
                        E: RestrictionSets) -> float:
    """L_inf variant: max over cells of the full (uncut) restricted sum, ^{1/q}."""
    _check_pair(lam, w)
    if E.grid != lam.grid:
        raise LevelMismatchError("restriction sets live on a different grid")
    terms = (u for _, u in _pointwise_summands(lam, w, q, lam.levels, E.masks))
    return lp_lq_norm(lam.grid, terms, INF) ** (1.0 / q)
