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

Pointwise-weight norms (`f_pq_norm` with p != q, `f_inf_norm`, `m_p_levels`,
`m_fun`, `quartile_restricted_sup`) sweep the finest cells, or `Grid.lattice()`
(the level-k_max cubes) when w is `constant_in_space`; there a point stands for
the cells of its cube, and quartile ranks and fractions counted in points equal
those counted in cells.  `f_pq_norm_star` and `f_inf_norm_cubeavg` always sweep
the lattice, and `f_pq_norm` with p = q reads only the cube integrals of t_k^p.

The sweeps of the pointwise norms and of `restricted_norm` write into the work
arrays of the weights they sweep (`WeightSequence._work`), so a repeated call
allocates no grid array: 0 holds the summands, 1 the suffix sum or the L_p
body, 2 a level's sorted rows or E_Q, 3 and 4 the m and the restricted sum of
`quartile_restricted_sup`.  `w.reciprocal()` shares w's arrays and the lattice
copy has its own, so one sweep at a time may run on a weight sequence.
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
            # contiguous: numpy's complex abs rounds a strided view an ulp apart from the same
            # values contiguous, and every norm would follow the layout; contiguous input is kept
            a = np.ascontiguousarray(entries[k], dtype=complex)
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


def _sweep(lam: CoeffField, w: WeightSequence) -> WeightSequence:
    """w on `Grid.lattice()` if it is constant in space, else w: the summands of
    `_pointwise_summands` live on its grid.  On the lattice they are constant on
    level-k_max cubes, so it carries them exactly, one point for c = 2^{n(J-k_max)} cells.
    """
    _check_pair(lam, w)
    lattice = w.on_lattice()
    return w if lattice is None else lattice


def _pointwise_summands(lam: CoeffField, w: WeightSequence, q: float, levels, masks=None):
    """(k, 2^{knq/2} t_k(x)^q |lambda_{k,m}|^q chi_{k,m}(x) [* masks[k]]) over `levels`, on w's
    grid in w's work array 0; q = inf gives 2^{kn/2} t_k(x) |lambda_{k,m}| chi_{k,m}(x).
    Masks are on the cells, so they need w on the cells."""
    grid, buf = w.grid, w._work(0)
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
    touching the cells; every other (p, q) sums t_k^q |l_km|^q cell by cell
    (on the lattice for weights constant in space).
    """
    _check_pair(lam, w)
    if not 0 < p < INF:
        raise LevelRangeError(f"p must be in (0, inf), got {p}")
    if p == q:
        n = lam.grid.n
        total = sum(float(((2.0 ** (k * n * p / 2.0)) * np.abs(lam.entries[k]) ** p
                           * w.cube_integral(k, p)).sum()) for k in lam.levels)
        return total ** (1.0 / p)
    w = _sweep(lam, w)
    terms = (u for _, u in _pointwise_summands(lam, w, q, lam.levels))
    return lp_lq_norm(w.grid, terms, p, q, out=w._work(1))


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
    w = _sweep(lam, w)
    if not 0 < q < INF:
        raise LevelRangeError(f"the p = inf space is defined for q in (0, inf), got {q}")
    summands = _pointwise_summands(lam, w, q, reversed(lam.levels))
    return first_max(localized_sup(w.grid, summands, out=w._work(1)))[0] ** (1.0 / q)


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


def m_p_levels(lam: CoeffField, w: WeightSequence, q: float) -> dict[int, np.ndarray]:
    """m_P of every dyadic P (levels -L..k_max) with at least the 4 cells m_P needs.

    One `localized_sup` sweep; returns each level kept mapped to its m_P
    values, equal to `m_p` cube by cube up to the summation order of G_P.
    """
    return _m_p_levels(lam, _sweep(lam, w), q)


def _m_p_levels(lam: CoeffField, w: WeightSequence, q: float):
    """`m_p_levels` swept on w's grid, the cells or their lattice; the 4-cell skip counts cells."""
    grid, sweep = lam.grid, w.grid

    def quartile(lev, tail):
        if grid.side_cells(lev) ** grid.n < 4:
            return None
        # N points of c cells each rank as the cells do: ceil(ceil(c N / 4) / c) = ceil(N / 4)
        points = sweep.side_cells(lev) ** grid.n
        rank = points - 1 - _quartile_count(points)
        rows = cube_major(tail, sweep.side_cells(lev), out=w._work(2))
        rows.partition(rank, axis=-1)
        return rows[..., rank] ** (1.0 / q)

    summands = _pointwise_summands(lam, w, q, reversed(lam.levels))
    return localized_sup(sweep, summands, quartile, out=w._work(1))


def _m_fun_values(lam: CoeffField, w: WeightSequence, q: float, out: np.ndarray) -> np.ndarray:
    """m on `out`, an array of the cells or of their lattice, from w swept on its grid.

    A pyramid: the running max of the m_P arrays, coarsest level first, each level's
    entries maxed with their parent's; the finest level is then spread over `out`.
    """
    levels = _m_p_levels(lam, w, q)
    if not levels:
        out.fill(0.0)
        return out
    best = None
    for vals in levels.values():
        if best is not None:
            blocks, parent = broadcast_cubes(vals, best)
            np.maximum(blocks, parent, out=blocks)
        best = vals
    blocks, best = broadcast_cubes(out, best)
    blocks[...] = best
    return out


def m_fun(lam: CoeffField, w: WeightSequence, q: float) -> GridFunction:
    """Pointwise sup of m_P over dyadic P containing each cell (levels -L..k_max); cubes
    with fewer than the 4 cells m_P needs are skipped."""
    return GridFunction(lam.grid, _m_fun_values(lam, _sweep(lam, w), q, np.empty(lam.grid.shape)))


class RestrictionSets:
    """Per-cube subsets E_Q (unions of finest cells), |E_Q| > fraction * |Q| enforced."""

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
        masks, key_cells, sorted_cells = {}, np.empty(grid.shape), np.empty(grid.shape)
        for k in grid.levels:
            f = grid.side_cells(k)
            keep = min(int(keep_fraction * f**grid.n) + 1, f**grid.n)
            keys = key_cells.reshape(*grid.level_shape(k), f**grid.n)
            rng.random(out=keys)  # the stream of rng.random(keys.shape), in reused cells
            ranked = sorted_cells.reshape(keys.shape)
            np.copyto(ranked, keys)
            ranked.partition(keep - 1, axis=-1)
            kth = ranked[..., keep - 1]
            masks[k] = np.empty(grid.shape, dtype=bool)
            cells = cube_major_view(masks[k], f)  # writes reach masks[k]
            np.less_equal(keys.reshape(cells.shape), kth.reshape(kth.shape + (1,) * grid.n),
                          out=cells)
        return cls(grid, masks, fraction)

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
    return first_max(localized_sup(lam.grid, summands, out=w._work(1)))[0] ** (1.0 / q)


def quartile_restricted_sup(lam: CoeffField, w: WeightSequence,
                            q: float) -> tuple[float, float]:
    """(max over x of (sum_k u_k(x) chi_{E_k(x)}(x))^{1/q}, least |E_Q|/|Q|) for the quartile
    sets E_Q = {x in Q : G_Q(x) <= m(x)} of the cubes of levels k_min..k_max, where u_k are
    the summands of G and E_k(x) is the set of x's level-k cube; |E_Q| >= 3|Q|/4 always.

    m needs a whole `m_fun` sweep.  A second sweep forms each level's mask, counts its cells
    and spends it.  The suffix sum T_k only grows toward coarser levels, so the masks are
    nested and the restricted sum at x is T_k(x) at the coarsest k whose mask holds at x.
    """
    grid = lam.grid
    if grid.side_cells(grid.k_max) ** grid.n < 4:
        raise ResolutionError(
            "finest coefficient cubes have fewer than 4 cells; the quartile "
            "guarantee needs k_max <= J-2 (1-D) or k_max <= J-1 (2-D)"
        )
    w = _sweep(lam, w)
    sweep = w.grid
    m = _m_fun_values(lam, w, q, w._work(3))
    restricted, fractions = w._work(4), []
    restricted.fill(0.0)

    def spend(lev, tail):
        if lev >= grid.k_min:
            below = w._work(2)
            np.copyto(below, tail)
            below **= 1.0 / q  # m_P's own `** (1/q)`: the quartile cell compares equal to it
            np.less_equal(below, m, out=below)  # 1.0 on E_Q, 0.0 off it
            kept = int(block_reduce(below, sweep.side_cells(lev)).min())
            fractions.append(kept / sweep.side_cells(lev) ** grid.n)
            # the tail only grows toward coarser levels: this writes it where E_Q holds
            np.maximum(restricted, np.multiply(below, tail, out=below), out=restricted)

    summands = _pointwise_summands(lam, w, q, reversed(lam.levels))
    localized_sup(sweep, summands, spend, out=w._work(1))
    return float(restricted.max()) ** (1.0 / q), min(fractions)
