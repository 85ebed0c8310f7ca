"""Weight sequences, cube means, Muckenhoupt constants, and inter-level class audits.

A weight sequence is one strictly positive grid function per level k in the
grid's level range, held read-only.  A level that is constant in space (every
level of `exp2_weights` without a profile) is a broadcast view of its one value
with stride 0, not a grid array: the kernels only read levels and write their
results into buffers they own.  A sequence whose every level is one
(`constant_in_space`) keeps a copy on `Grid.lattice()` for the pointwise norms
of `seqspace`, and `verify_x_class` reads its cube means from the one value.
A sequence also owns up to five work arrays of its grid's shape, made when the
sweeps of `seqspace` first ask for them and kept as long as it lives; its
`reciprocal()` shares them, so one sweep at a time per sequence.
The audits compute, over every dyadic cube of the grid, the sharpest constants
for

    M_{Q,p}(t_k) * M_{Q,s1}(t_j^{-1})   <= C1 * 2^{a1 (k-j)}     (k <= j)
    M_{Q,s2}(t_j) / M_{Q,p}(t_k)        <= C2 * 2^{a2 (j-k)}     (k <= j)

together with worst-case witnesses, and per-cube Muckenhoupt products.  Each
audit sweeps every dyadic cube of level -L..J as one array per level and takes
its supremum and witness with `dyadic.first_max`, so each supremum is a lower
bound of the true constant over all cubes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .dyadic import INF, DyadicCube, Grid, GridFunction, block_reduce, cube_at, first_max, inner_sum
from .errors import (
    LevelMismatchError,
    LevelRangeError,
    PositivityError,
    TlwError,
)


def _stored_once(values: np.ndarray) -> np.ndarray:
    """values with each stride-0 axis, which repeats one stored value, cut to length 1."""
    return values[tuple(slice(None) if st else slice(0, 1) for st in values.strides)]


def _require_positive(values: np.ndarray, what: str):
    """Raise unless every cell is finite and strictly positive (NaN and inf fail)."""
    values = _stored_once(values)
    if not np.all(np.isfinite(values) & (values > 0)):
        raise PositivityError(f"{what} has a nonpositive or non-finite cell")


@dataclass(frozen=True)
class WeightMeta:
    """Declared class data of a weight sequence (admissibility + inter-level exponents)."""

    p: float
    alpha1: float | None = None
    alpha2: float | None = None
    kind: str = "grid"
    params: dict = field(default_factory=dict)


class WeightSequence:
    """Family {t_k}, one strictly positive GridFunction per level of the grid."""

    def __init__(self, grid: Grid, tk: dict[int, np.ndarray], meta: WeightMeta | None = None):
        self.grid = grid
        self.meta = meta if meta is not None else WeightMeta(p=1.0)
        self.tk = {}
        for k in grid.levels:
            if k not in tk:
                raise LevelMismatchError(f"missing weight for level {k}")
            a = np.asarray(tk[k], dtype=float).view()
            if a.shape != grid.shape:
                raise LevelMismatchError(f"t_{k} has shape {a.shape}, grid is {grid.shape}")
            _require_positive(a, f"t_{k}")
            a.flags.writeable = False  # a memoised cube integral cannot go stale
            self.tk[k] = a
        # int_Q t_k^r per (k, r) and box samples of t_k^r per (k, r, M); the second
        # dict holds those of t_k^{-r} and serves `reciprocal()`
        self._arrays, self._reciprocal_arrays = {}, {}
        self._reciprocal_finite = False  # set once a scan finds every 1/t_k finite
        self._lattice = None  # the sequence on grid.lattice(), once `on_lattice` builds it
        self._work_arrays = []  # `_work`'s arrays, shared with every `reciprocal()`

    @property
    def levels(self) -> range:
        return self.grid.levels

    @property
    def constant_in_space(self) -> bool:
        """Every stored level has stride 0 on every axis: one value per level."""
        return not any(any(self._stored(k).strides) for k in self.levels)

    def on_lattice(self) -> "WeightSequence | None":
        """The same levels on `grid.lattice()` if the sequence is constant in space, else None;
        built once and kept."""
        if self._lattice is None and self.constant_in_space:
            lattice = self.grid.lattice()
            self._lattice = WeightSequence(lattice, {
                k: np.broadcast_to(v.flat[0], lattice.shape) for k, v in self.tk.items()}, self.meta)
        return self._lattice

    def level_values(self, k: int) -> np.ndarray:
        try:
            return self.tk[k]
        except KeyError:
            raise LevelRangeError(f"level {k} outside weight range {list(self.levels)}")

    def as_grid_function(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self.level_values(k))

    def power(self, k: int, r: float, out: np.ndarray, at=...) -> np.ndarray:
        """t_k^r on the cells `at` (default all) written into `out`, a buffer of their shape
        the caller owns; returns out.  t^3 is t*t*t: within 1 ulp of np.power, at a fifth
        of its time."""
        t = self.tk[k][at]
        if r == 3.0:
            return np.multiply(np.multiply(t, t, out=out), t, out=out)
        return np.power(t, r, out=out)

    def _work(self, i: int) -> np.ndarray:
        """Work array i (0 <= i < 5) of the grid's shape, made on first use and kept; its
        contents are whatever the last sweep left.  One sweep at a time per sequence."""
        while len(self._work_arrays) <= i:
            self._work_arrays.append(np.empty(self.grid.shape))
        return self._work_arrays[i]

    def _stored(self, k: int) -> np.ndarray:
        """The array level k is stored as (`_Reciprocal` reads its base's)."""
        return self.tk[k]

    def reciprocal(self) -> "WeightSequence":
        """The weights 1/t_k, computed level by level when read (never stored).

        Raises if some 1/t_k overflows.  The levels are read-only, so a scan
        that finds none is kept and later calls skip it.
        """
        if not self._reciprocal_finite:
            if min(float(v.min()) for v in self.tk.values()) < 1.0 / np.finfo(float).max:
                raise PositivityError("a weight is so small that its reciprocal overflows")
            self._reciprocal_finite = True
        return _Reciprocal(self)

    def shifted(self, gamma: int, levels: range | None = None) -> "WeightSequence":
        """Weight sequence k -> t_{k-gamma} over `levels` (default: own levels).

        Raises if any source level k-gamma is not stored.
        """
        levels = self.levels if levels is None else levels
        out = {}
        for k in levels:
            src = k - gamma
            if src not in self.tk:
                raise LevelRangeError(
                    f"shift {gamma} needs level {src}, stored range is {list(self.levels)}"
                )
            out[k] = self.tk[src]
        grid = self.grid.with_levels(levels.start, levels.stop - 1)
        return WeightSequence(grid, out, self.meta)

    def cube_integral(self, k: int, r: float) -> np.ndarray:
        """int_Q t_k^r per level-k cube Q, computed once per (k, r) and kept read-only."""
        if (k, r) not in self._arrays:
            t_r = self.power(k, r, np.empty(self.grid.shape))
            out = block_reduce(t_r, self.grid.side_cells(k)) * self.grid.cell_volume
            out.flags.writeable = False
            self._arrays[k, r] = out
        return self._arrays[k, r]

    def box_samples(self, k: int, r: float, M: int) -> np.ndarray:
        """M^n Re ifftn_M(fftn(t_k^r) on the centred box of M frequencies per axis): N^n t_k^r
        cut to that box, on the M-lattice (an M^n real array); computed once per (k, r, M)
        and kept read-only.  A constant level's are N^n c^r, a broadcast view with no FFT,
        bit for bit (for N a power of two the fftn of c^r is exactly N^n c^r at DC, else 0)."""
        if (k, r, M) not in self._arrays:
            n, N = self.grid.n, self.grid.cells_per_axis
            out = None
            if not any(self._stored(k).strides):
                cell = N**n * self.power(k, r, np.empty((1,) * n), at=(slice(0, 1),) * n)
                if np.isfinite(cell).all():  # else the FFT's inf - inf = NaN, as on any level
                    out = np.broadcast_to(cell.reshape(()), (M,) * n)
            if out is None:
                box = np.fft.fftfreq(M, 1 / M).astype(int) % N
                out = self.power(k, r, np.empty(self.grid.shape))
                for axis in range(n):  # each axis's lines, then only the box's
                    out = np.fft.fft(out, axis=axis).take(box, axis=axis)
                out = M**n * np.fft.ifftn(out).real
            out.flags.writeable = False
            self._arrays[k, r, M] = out
        return self._arrays[k, r, M]

    def cube_norm(self, k: int, r: float) -> np.ndarray:
        """(int_Q t_k^r)^{1/r} per level-k cube Q (r may be negative)."""
        return self.cube_integral(k, r) ** (1.0 / r)


class _ReciprocalLevels(Mapping):
    """The levels 1/t_k of `base`, each formed anew when read, and only the one read."""

    def __init__(self, base: dict[int, np.ndarray]):
        self._base = base

    def __getitem__(self, k: int) -> np.ndarray:
        return 1.0 / self._base[k]

    def __iter__(self):
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)


class _Reciprocal(WeightSequence):
    """1/t_k of a base sequence, never stored: the kernels read it through `power` into
    buffers they own, and `tk[k]` (or `level_values(k)`) forms level k alone on each
    access.  Its cube integrals and box samples are kept on the base, which holds no
    reference back to it (no cycle)."""

    def __init__(self, base: WeightSequence):
        self.grid, self._base = base.grid, base
        self.tk = _ReciprocalLevels(base.tk)
        self._arrays, self._reciprocal_arrays = base._reciprocal_arrays, {}
        self._reciprocal_finite = False
        self._work_arrays = base._work_arrays
        self.meta = WeightMeta(p=base.meta.p, kind=f"reciprocal({base.meta.kind})",
                               params=dict(base.meta.params))

    def power(self, k: int, r: float, out: np.ndarray, at=...) -> np.ndarray:
        """(1/t_k)^r into `out`.  (1/t)^{3/2} is 1/(t*sqrt(t)): within 3 ulp of np.power, at
        under half of its time."""
        t = self._stored(k)[at]
        if r == 1.5:
            return np.divide(1.0, np.multiply(np.sqrt(t, out=out), t, out=out), out=out)
        return np.power(np.divide(1.0, t, out=out), r, out=out)

    def _stored(self, k: int) -> np.ndarray:
        return self._base.tk[k]

    def on_lattice(self) -> "WeightSequence | None":
        base = self._base.on_lattice()
        return None if base is None else base.reciprocal()


def exp2_weights(grid: Grid, s: float, omega: np.ndarray | None = None,
                 p: float = 2.0) -> WeightSequence:
    """t_k = 2^{ks} * omega with a fixed positive profile omega; without one, each level
    is a read-only stride-0 broadcast view of 2^{ks} and holds no grid array."""
    tk = {}
    for k in grid.levels:
        try:
            c = 2.0 ** (k * s)
        except OverflowError:
            raise PositivityError(f"t_{k} = 2^({k} * {s}) is not finite") from None
        tk[k] = (np.broadcast_to(np.float64(c), grid.shape) if omega is None
                 else c * np.asarray(omega, dtype=float))
    meta = WeightMeta(p=p, alpha1=s, alpha2=s, kind="exp2", params={"s": s})
    return WeightSequence(grid, tk, meta)


def power_profile(grid: Grid, alpha: float) -> np.ndarray:
    """|x|^alpha sampled at cell centers (strictly positive on the grid)."""
    axes = [grid.cell_centers() for _ in range(grid.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(m * m for m in mesh))
    return r**alpha


def random_ap_weights(grid: Grid, spread: float, rng: np.random.Generator,
                      p: float = 2.0) -> WeightSequence:
    """Independent log-uniform weights per level, values in [e^-spread, e^spread]."""
    tk = {
        k: np.exp(rng.uniform(-spread, spread, size=grid.shape)) for k in grid.levels
    }
    return WeightSequence(grid, tk, WeightMeta(p=p, kind="random-ap", params={"spread": spread}))


def cube_mean_p(t: GridFunction, cube: DyadicCube, p: float) -> float:
    """M_{Q,p}(t) = ((1/|Q|) int_Q |t|^p)^{1/p}; p = inf gives the max over cells."""
    vals = np.abs(t.values[t.grid.cube_slices(cube)])
    if p == INF:
        return float(vals.max())
    if p <= 0:
        raise LevelRangeError(f"exponent p must be positive or inf, got {p}")
    return float(np.mean(vals**p) ** (1.0 / p))


@dataclass
class ApReport:
    """Muckenhoupt audit over every grid cube (a lower bound of the true constant).

    `products` maps each level -L..J to the per-cube Muckenhoupt products.
    """

    constant: float
    argmax_cube: DyadicCube
    products: dict[int, np.ndarray]


def per_cube_ap_value(gamma: GridFunction, p: float, cube: DyadicCube) -> float:
    """The single-cube Muckenhoupt product for gamma at exponent p (reference path)."""
    _require_positive(gamma.values, "weight")
    if p < 1:
        raise LevelRangeError(f"Muckenhoupt exponent must be >= 1, got {p}")
    inv = GridFunction(gamma.grid, 1.0 / gamma.values)
    mean = cube_mean_p(gamma, cube, 1.0)
    if p == 1:
        return mean * cube_mean_p(inv, cube, INF)
    pp = p / (p - 1.0)
    return mean * cube_mean_p(inv, cube, pp / p)


def ap_constant(gamma: GridFunction, p: float) -> ApReport:
    """Supremum of per-cube Muckenhoupt products over every cube of level -L..J.

    Each level's products come from two block means of gamma and 1/gamma, so
    the audit costs O(cells) per level, not per cube.  The witness is the
    first maximum, coarsest level first and row-major within a level.
    """
    vals = gamma.values
    _require_positive(vals, "weight")
    if p < 1:
        raise LevelRangeError(f"Muckenhoupt exponent must be >= 1, got {p}")
    grid = gamma.grid
    inv = 1.0 / vals
    inv_p = INF if p == 1 else (p / (p - 1.0)) / p
    products = {}
    for level in range(-grid.L, grid.J + 1):
        f = grid.side_cells(level)
        products[level] = block_reduce(vals, f, "mean") * block_reduce(inv, f, "mean", inv_p)
    constant, cube = first_max(products)
    return ApReport(constant=constant, argmax_cube=cube, products=products)


def ap_duality_identity(gamma: GridFunction, p: float, cube: DyadicCube) -> tuple[float, float]:
    """Per-cube check of gamma in A_p  <->  gamma^{1-p'} in A_{p'}.

    Returns (a, b): a is the A_{p'} product of gamma^{1-p'} on the cube, b is
    the A_p product of gamma raised to p'-1.  They agree identically.
    """
    if p <= 1:
        raise LevelRangeError("duality identity needs p > 1")
    pp = p / (p - 1.0)
    dual = GridFunction(gamma.grid, gamma.values ** (1.0 - pp))
    a = per_cube_ap_value(dual, pp, cube)
    b = per_cube_ap_value(gamma, p, cube) ** (pp - 1.0)
    return a, b


@dataclass
class XClassWitness:
    k: int
    j: int
    cube: DyadicCube
    value: float

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "j": self.j,
            "cube": [self.cube.level, list(self.cube.index)],
            "value": self.value,
        }


@dataclass
class XClassReport:
    """Sharpest constants validating the two inter-level conditions, with witnesses."""

    C1: float
    C2: float
    witness1: XClassWitness
    witness2: XClassWitness
    lag_profile1: dict[int, float]
    lag_profile2: dict[int, float]

    def growth_rate(self, which: int = 1) -> float:
        """Fitted log2-slope of the worst candidate value per lag j-k.

        Near 0 for a bounded family; close to e (candidates ~ 2^{e*(j-k)})
        when the declared alpha is off by e.  Zero when only one lag exists.
        """
        prof = self.lag_profile1 if which == 1 else self.lag_profile2
        lags = sorted(prof)
        if len(lags) < 2:
            return 0.0
        # the centred least-squares slope: np.polyfit would call LAPACK for the same number
        x = np.array(lags, dtype=float)
        y = np.log2([prof[g] for g in lags])
        x -= x.mean()
        return float(inner_sum(x, y - y.mean()) / inner_sum(x, x))

    def validates(self, growth_tol: float = 0.05) -> bool:
        """Neither constant is NaN and both lag profiles grow by at most `growth_tol`."""
        return (
            not np.isnan([self.C1, self.C2]).any()
            and abs(self.growth_rate(1)) <= growth_tol
            and abs(self.growth_rate(2)) <= growth_tol
        )


def verify_x_class(w: WeightSequence, alpha1: float, alpha2: float,
                   sigma1: float, sigma2: float, p: float) -> XClassReport:
    """Audit the two inter-level cube-mean conditions over all k <= j and all cubes.

    Candidate values are the left-hand sides divided by the declared decay
    2^{alpha(k-j)}; the report carries their suprema (the smallest admissible
    C1, C2 over every grid cube) and the worst (k, j, Q) triples.
    """
    if sigma1 <= 0 or sigma2 <= 0 or p <= 0:
        raise LevelRangeError("exponents must be positive")
    grid = w.grid
    levels = list(w.levels)

    def means(k, f, r, inverse=False):
        t = w.level_values(k)
        if any(t.strides):
            return block_reduce(1.0 / t if inverse else t, f, "mean", r)
        # constant level: every cube mean, at any r, is its one value (a 0-d array; the
        # first cube wins), not (v^r)^{1/r}, which is v only on paper
        return np.asarray(1.0 / t.flat[0] if inverse else t.flat[0])

    tracker1 = _SupTracker(grid)
    tracker2 = _SupTracker(grid)
    for lev in range(-grid.L, grid.J + 1):
        f = grid.side_cells(lev)
        means_p = {k: means(k, f, p) for k in levels}
        means_s1_inv = {k: means(k, f, sigma1, inverse=True) for k in levels}
        means_s2 = {k: means(k, f, sigma2) for k in levels}
        for k in levels:
            for j in range(k, grid.k_max + 1):
                c1 = means_p[k] * means_s1_inv[j] * 2.0 ** (-alpha1 * (k - j))
                c2 = means_s2[j] / means_p[k] * 2.0 ** (-alpha2 * (j - k))
                tracker1.update(lev, k, j, c1)
                tracker2.update(lev, k, j, c2)
    return XClassReport(
        C1=tracker1.witness.value, C2=tracker2.witness.value,
        witness1=tracker1.witness, witness2=tracker2.witness,
        lag_profile1=tracker1.lag_profile, lag_profile2=tracker2.lag_profile,
    )


class _SupTracker:
    def __init__(self, grid: Grid):
        self.grid = grid
        self.witness: XClassWitness | None = None
        self.lag_profile: dict[int, float] = {}

    def update(self, lev: int, k: int, j: int, cand: np.ndarray):
        """Fold in one level's candidates (an array per cube, or 0-d for all cubes alike);
        the witness cube, the first maximum, is found only when it beats the current one."""
        val = float(cand.max())
        if math.isnan(val):
            raise TlwError(f"level {lev}: cube values include NaN")
        self.lag_profile[j - k] = max(self.lag_profile.get(j - k, -np.inf), val)
        if self.witness is None or val > self.witness.value:
            self.witness = XClassWitness(k, j, cube_at(self.grid, lev, int(np.argmax(cand))), val)


def alpha_consistency(report: XClassReport, alpha1: float, alpha2: float,
                      sigma1: float, sigma2: float, p: float) -> bool:
    """Check alpha2 >= alpha1 under the remark's hypotheses on (sigma1, sigma2).

    sigma1 = theta*(p/theta)' is solvable for theta = (1/sigma1 + 1/p)^{-1}
    whenever sigma1 > 0, so the binding hypotheses are sigma2 >= p and a
    validated report.  Raises on unmet hypotheses instead of returning a verdict.
    """
    if sigma1 <= 0:
        raise LevelRangeError("sigma1 must be positive")
    if not sigma2 >= p:
        raise LevelRangeError(f"hypothesis sigma2 >= p violated ({sigma2} < {p})")
    if not report.validates():
        raise LevelRangeError("report does not validate both conditions; remark not applicable")
    return alpha2 >= alpha1


def subset_mean_bound(gamma: GridFunction, p: float, cube: DyadicCube,
                      subset_mask: np.ndarray, constant: float) -> tuple[float, float]:
    """Left and right side of (|E|/|Q|)^{p-1} M_Q(gamma) <= C * M_E(gamma).

    `subset_mask` is a boolean cell mask of E restricted to the cube's slices.
    """
    grid = gamma.grid
    vals = gamma.values[grid.cube_slices(cube)]
    mask = np.asarray(subset_mask, dtype=bool)
    if mask.shape != vals.shape:
        raise LevelMismatchError("subset mask shape does not match the cube")
    if not mask.any():
        raise ValueError("subset is empty")
    frac = mask.sum() / mask.size
    lhs = frac ** (p - 1.0) * float(vals.mean())
    rhs = constant * float(vals[mask].mean())
    return lhs, rhs

