"""Band-limited filter pairs and lattice analysis/synthesis on the periodic grid.

The torus [0, 2^L)^n replaces free space; represented angular frequencies are
xi_j = 2*pi*j/2^L per axis.  The analysis profile is a smooth radial plateau
(1 on [3/5, 5/3], 0 off [1/2, 2]); the synthesis profile is the quotient
Psi = Phi / sum_j Phi(2^{-j} .)^2, whose denominator is invariant under dyadic
scaling, so the reconstruction identity holds analytically and the lattice
sampling step is alias-free (spectral copies sit 2*pi*2^k apart while the
level-k annulus spans 2^{k+2} < 2*pi*2^k).

Content at frequencies below the coarsest covered annulus is annihilated by
design; `band_leakage` measures it rather than erroring.

Phi_k and Psi_k vanish off |xi| < 2^{k+1}, i.e. off the centred index box
|j| < M/pi < M/2 per axis with M = 2^{L+k}; `_box` gives that box's grid
indices, in DFT order, so it is also the level-k lattice's M-point spectrum.
`FilterPair` keeps Phi_k and Psi_k only on that box, from the box's own |xi|
(the scale sum too), and runs its checks on the grid's distinct radii: it
holds no full-grid array.  Every |xi| comes from one axis's frequency vector,
broadcast over the box or the quadrant (`_xi_abs`); only the band mask of
`random_band` forms it on the full grid, and keeps just the selected bins.
The level-k lattice has M points per axis, step s = 2^{J-k}: `analyze` takes
the filtered spectrum on the box (its s^n - 1 other aliases are exact zeros)
and inverts that small spectrum; `synthesize` adds each level's small
coefficient spectrum, filtered by Psi_k, onto the box.

A `BandSignal` holds its samples or its fftn spectrum and computes the other
once, on first read.  `random_band` draws a spectrum and `synthesize`
returns one, so neither runs a full-grid transform; `analyze`, the weighted
norms and `roundtrip_residual` (Parseval on the whole spectrum) read the
spectrum.  Only reading `values` of such a signal runs one full-grid inverse
FFT.  `_weighted_levels` inverts each filtered level spectrum on the full
grid; in 2-D it skips the lines of the first pass that miss the level's box:
it transforms the box rows along axis 1 and then every column
(`_ifftn_from_box`, bitwise equal to `np.fft.ifftn`).  1-D transforms are
plain `np.fft` calls.

The weighted norm F_22 needs no full-grid transform per level: |phi_k * f|^2
has its spectrum inside the centred box of 2M frequencies per axis, so its
samples u on the 2M-lattice are alias-free (2M <= N for k <= J-1; at k = J the
lattice is the grid), and int t_k^2 |phi_k * f|^2 is a real dot product of
|u|^2 with the samples of t_k^2 cut to that box (`WeightSequence.box_samples`,
built once; a constant level's are one value, found without a transform, and
its product is that value times the sum of |u|^2).
Every other (p, q) reduces t_k |phi_k * f| cell by cell on the full grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import INF, Grid, first_max, inner_sum, localized_sup, lp_lq_norm
from .errors import LevelMismatchError, LevelRangeError, ResolutionError
from .seqspace import CoeffField, f_pq_norm
from .weights import WeightSequence

PLATEAU_LO, PLATEAU_HI = 3.0 / 5.0, 5.0 / 3.0
SUPPORT_LO, SUPPORT_HI = 0.5, 2.0


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp 0 -> 1 on [0, 1] built from exp(-1/t)."""
    t = np.clip(t, 0.0, 1.0)
    lo = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    den = a + b
    np.divide(a, den, out=lo, where=den > 0)
    return lo


def _plateau_profile(r: np.ndarray, smoothing: float) -> np.ndarray:
    """Radial bump: 1 on the plateau, smooth transitions, 0 off the support annulus."""
    rise_lo = PLATEAU_LO - smoothing * (PLATEAU_LO - SUPPORT_LO)
    fall_hi = PLATEAU_HI + smoothing * (SUPPORT_HI - PLATEAU_HI)
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[(r >= PLATEAU_LO) & (r <= PLATEAU_HI)] = 1.0
    rising = (r > rise_lo) & (r < PLATEAU_LO)
    out[rising] = _smoothstep((r[rising] - rise_lo) / (PLATEAU_LO - rise_lo))
    falling = (r > PLATEAU_HI) & (r < fall_hi)
    out[falling] = _smoothstep((fall_hi - r[falling]) / (fall_hi - PLATEAU_HI))
    return out


@dataclass
class FilterPair:
    """The analysis/synthesis pair: Phi_k and Psi_k on each level's box, checks on the radii."""

    grid: Grid
    smoothing: float
    radii: np.ndarray = field(repr=False)  # the grid's distinct |xi|, ascending from 0
    plateau_floor: float = 0.0
    _mult_cache: dict = field(default_factory=dict, repr=False)

    def phi_profile(self, r: np.ndarray) -> np.ndarray:
        return _plateau_profile(r, self.smoothing)

    def _cached(self, key, make) -> np.ndarray:
        if key not in self._mult_cache:
            self._mult_cache[key] = make()
        return self._mult_cache[key]

    def _box_radii(self, k: int) -> np.ndarray:
        g = self.grid
        return _xi_abs(_axis_frequencies(g.L, g.J)[_box(g, k)], g.n)

    def phi_multiplier(self, k: int) -> np.ndarray:
        """Phi_k on the level-k box, laid out as `spec[_box_ix(grid, k)]`; 0 off the box."""
        return self._cached(("phi", k), lambda: self.phi_profile(self._box_radii(k) * 2.0**-k))

    def _scale_sum(self) -> np.ndarray:
        """sum_j Phi(2^{-j} r)^2 at the distinct radii r, >= 1 wherever r > 0 (plateaus
        overlap); dyadic-invariant, so it serves every level."""
        def make():
            r, pos = self.radii, self.radii > 0
            acc = np.zeros_like(r)
            for j in range(math.floor(math.log2(r[1])) - 2, math.ceil(math.log2(r[-1])) + 3):
                acc += self.phi_profile(np.where(pos, r * 2.0**-j, 1.0)) ** 2 * pos
            return acc

        return self._cached("den", make)

    def radial_profiles(self) -> tuple[np.ndarray, np.ndarray]:
        """(Phi, Psi) at the distinct radii."""
        phi, den = self.phi_profile(self.radii), self._scale_sum()
        return phi, np.divide(phi, den, out=np.zeros_like(den), where=den > 0)

    def psi_multiplier(self, k: int) -> np.ndarray:
        """Psi_k on the level-k box: Phi_k over the scale sum, looked up at the box's radii."""
        def make():
            den = self._scale_sum()[np.searchsorted(self.radii, self._box_radii(k))]
            return np.divide(self.phi_multiplier(k), den, out=np.zeros_like(den), where=den > 0)

        return self._cached(("psi", k), make)

    def covered_levels(self) -> list[int]:
        """Levels whose open annulus (2^{k-1}, 2^{k+1}) contains a represented frequency."""
        pos = self.radii[1:]
        return [k for k in range(-self.grid.L, self.grid.J)
                if ((pos > 2.0 ** (k - 1)) & (pos < 2.0 ** (k + 1))).any()]

    def support_leak(self) -> float:
        """Max |Phi|, |Psi| outside the closed support annulus (should be 0); |xi| = 0 is outside."""
        phi, psi = self.radial_profiles()
        outside = (self.radii < SUPPORT_LO) | (self.radii > SUPPORT_HI)
        return float(max(np.abs(phi[outside]).max(), np.abs(psi[outside]).max()))

    def partition_deviation(self) -> float:
        """Max over represented xi != 0 of |sum_k conj(Phi_k) Psi_k - 1|."""
        r = self.radii[1:]  # never empty: the grid has at least 4 cells per axis
        den = self._scale_sum()[1:]  # > 0 wherever r > 0
        acc = np.zeros_like(r)
        for k in range(math.floor(math.log2(r.min())) - 2, math.ceil(math.log2(r.max())) + 3):
            phi = self.phi_profile(r * 2.0**-k)
            acc += np.conj(phi) * (phi / den)
        return float(np.abs(acc - 1.0).max())


def _axis_frequencies(L: int, J: int) -> np.ndarray:
    """The angular frequencies xi_j of one axis of the (L, J) grid, in DFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(1 << (L + J), d=2.0 ** (-J))


def _xi_abs(axis: np.ndarray, n: int) -> np.ndarray:
    """|xi| on the n-fold product of the frequencies `axis`, broadcast from the per-axis
    squares; summed as sqrt(0 + a_0^2 + a_1^2), the order of a full meshgrid's sum, so
    every radius is bitwise the same as the mesh's."""
    return np.sqrt(sum(np.ix_(*[axis * axis] * n)))


def _radii(n: int, L: int, J: int) -> np.ndarray:
    """The distinct |xi| of (n, L, J), ascending from 0; read-only.  The nonnegative
    frequencies of each axis give them all, and in 1-D they are already in order.
    (Not `np.unique`, which imports `numpy.ma` on its first call.)"""
    half = _xi_abs(_axis_frequencies(L, J)[:(1 << (L + J)) // 2 + 1], n).ravel()
    if n > 1:
        half = np.sort(half)
    out = half[np.append(True, half[1:] != half[:-1])]
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _box(grid: Grid, k: int) -> np.ndarray:
    """One axis of the level-k box: the centred min(2^{L+k}, N) frequencies, in DFT order."""
    M = min(1 << (grid.L + k), grid.cells_per_axis)
    out = np.fft.fftfreq(M, 1 / M).astype(int) % grid.cells_per_axis
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=128)
def _box_ix(grid: Grid, k: int, modulus: int = 0) -> tuple[np.ndarray, ...]:
    """np.ix_ of the level-k box on every axis; its indices are taken mod `modulus` if nonzero."""
    box = _box(grid, k)
    return np.ix_(*[box % modulus if modulus else box] * grid.n)


@functools.lru_cache(maxsize=4)  # the phitransform suite draws one band at J and one at J+1
def _band_bins(n: int, L: int, J: int, k_lo: int, k_hi: int) -> np.ndarray:
    """Flat indices, in C order, of the DFT bins with 2^{k_lo} <= |xi| <= 2^{k_hi}; read-only."""
    xi_abs = _xi_abs(_axis_frequencies(L, J), n)
    out = np.flatnonzero((xi_abs >= 2.0**k_lo) & (xi_abs <= 2.0**k_hi))
    out.flags.writeable = False
    return out


def _ifftn_from_box(spec: np.ndarray, box: np.ndarray) -> np.ndarray:
    """np.fft.ifftn(spec) for a spectrum that is 0 off `box` along axis 0."""
    if spec.ndim == 1:
        return np.fft.ifftn(spec)
    rows = np.zeros(spec.shape, dtype=complex)
    rows[box] = np.fft.ifft(spec[box], axis=1)
    return np.fft.ifft(rows, axis=0)


def build_filter_pair(grid: Grid, smoothing: float = 1.0) -> FilterPair:
    """Construct the plateau/quotient pair on the grid's frequencies."""
    if not 0 < smoothing <= 1:
        raise ValueError(f"smoothing width must be in (0, 1], got {smoothing}")
    if grid.cells_per_axis < 4:
        raise ResolutionError("grid too coarse for any spectral annulus")
    r = _radii(grid.n, grid.L, grid.J)
    if not ((r >= SUPPORT_LO) & (r <= SUPPORT_HI)).any():
        raise ResolutionError(
            "base annulus {1/2 <= |xi| <= 2} contains no represented frequencies "
            f"(domain exponent L={grid.L} too small)"
        )
    fp = FilterPair(grid=grid, smoothing=smoothing, radii=r)
    plateau = r[(r >= PLATEAU_LO) & (r <= PLATEAU_HI)]
    fp.plateau_floor = float(fp.phi_profile(plateau).min()) if plateau.size else 0.0
    return fp


class BandSignal:
    """Complex samples at grid points i*h, held as the samples or as their fftn spectrum.

    Either form is computed from the other once, on first read.
    """

    def __init__(self, grid: Grid, values=None, *, spectrum=None):
        self.grid = grid
        self._values = None if values is None else np.asarray(values, dtype=complex)
        self._spectrum = None if spectrum is None else np.asarray(spectrum, dtype=complex)
        if (self._values is None) == (self._spectrum is None):
            raise ValueError("a band signal needs exactly one of values and spectrum")
        shape = (self._values if self._spectrum is None else self._spectrum).shape
        if shape != grid.shape:
            raise LevelMismatchError(f"values shape {shape} does not match grid {grid.shape}")

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.fft.ifftn(self._spectrum)
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        """np.fft.fftn(values); exactly the given spectrum for a signal made from one."""
        if self._spectrum is None:
            self._spectrum = np.fft.fftn(self._values)
        return self._spectrum

    @classmethod
    def zeros(cls, grid: Grid) -> "BandSignal":
        return cls(grid, np.zeros(grid.shape, dtype=complex))

    @classmethod
    def random_band(cls, grid: Grid, rng: np.random.Generator,
                    levels: tuple[int, int]) -> "BandSignal":
        """Random spectrum on bins with 2^{k_lo} <= |xi| <= 2^{k_hi} (safely in-band)."""
        k_lo, k_hi = levels
        bins = _band_bins(grid.n, grid.L, grid.J, k_lo, k_hi)
        if bins.size == 0:
            raise ResolutionError(f"no represented frequencies in [2^{k_lo}, 2^{k_hi}]")
        spec = np.zeros(grid.shape, dtype=complex)
        spec.flat[bins] = rng.standard_normal(bins.size) + 1j * rng.standard_normal(bins.size)
        return cls(grid, spectrum=spec)


def _check_level_representable(grid: Grid, k: int):
    if k > grid.J - 1:
        raise LevelRangeError(
            f"level {k} beyond the lattice cap J-1 = {grid.J - 1} (aliasing)"
        )


def analyze(f: BandSignal, fp: FilterPair, levels: tuple[int, int]) -> CoeffField:
    """Coefficients 2^{-kn/2} (filtered f)(2^{-k} m); reads f.spectrum on the level boxes."""
    if fp.grid.shape != f.grid.shape or fp.grid.L != f.grid.L:
        raise LevelMismatchError("filter pair and signal live on different grids")
    k_lo, k_hi = levels
    grid = f.grid.with_levels(k_lo, k_hi)
    _check_level_representable(grid, k_hi)
    spec = f.spectrum
    entries = {}
    for k in range(k_lo, k_hi + 1):
        box = _box_ix(grid, k)
        lattice = spec[box] * fp.phi_multiplier(k)  # the lattice's spectrum; Phi real
        scale = 2.0 ** (-k * grid.n / 2.0) * (lattice.size / spec.size)
        entries[k] = scale * np.fft.ifftn(lattice)
    return CoeffField(grid, entries)


def synthesize(lam: CoeffField, fp: FilterPair) -> BandSignal:
    """sum_k sum_m lambda_{k,m} psi_{k,m}: lattice spectra times Psi_k on their boxes, summed."""
    grid = lam.grid
    if fp.grid.shape != grid.shape or fp.grid.L != grid.L:
        raise LevelMismatchError("filter pair and coefficients live on different grids")
    _check_level_representable(grid, grid.k_max)
    acc = np.zeros(grid.shape, dtype=complex)
    for k in lam.levels:
        box = _box_ix(grid, k)
        tile = np.fft.fftn(lam.entries[k])  # the comb's spectrum on the box
        tile *= 2.0 ** (-k * grid.n / 2.0) / grid.cell_volume
        acc[box] += tile * fp.psi_multiplier(k)
    return BandSignal(grid, spectrum=acc)


def roundtrip_residual(f: BandSignal, fp: FilterPair, levels: tuple[int, int]) -> float:
    """Relative L2 error of synthesize(analyze(f)), by Parseval on the whole spectrum; 0 for f = 0."""
    spec = f.spectrum
    denom = _energy(spec)
    if denom == 0.0:
        return 0.0
    diff = synthesize(analyze(f, fp, levels), fp).spectrum
    diff -= spec  # in place: no second full-grid array; the synthesized signal is not kept
    return math.sqrt(_energy(diff) / denom)


def _energy(a: np.ndarray) -> float:
    """sum |a|^2 over a complex array, from views of its two parts."""
    return float(inner_sum(a.real, a.real) + inner_sum(a.imag, a.imag))


def band_leakage(f: BandSignal, fp: FilterPair, levels: tuple[int, int]) -> float:
    """Spectral energy fraction outside the band reproduced by `levels`."""
    spec = f.spectrum
    total = float((np.abs(spec) ** 2).sum())
    if total == 0.0:
        return 0.0
    M = _box(fp.grid, levels[1]).size  # the widest box holds every level's box
    acc = np.zeros((M,) * fp.grid.n)
    for k in range(levels[0], levels[1] + 1):
        acc[_box_ix(fp.grid, k, M)] += fp.phi_multiplier(k) * fp.psi_multiplier(k)  # Phi real
    outside = np.ones(spec.shape, dtype=bool)
    outside[_box_ix(fp.grid, levels[1])] = np.abs(acc - 1.0) > 1e-9
    return float((np.abs(spec[outside]) ** 2).sum()) / total


def _weighted_levels(f: BandSignal, fp: FilterPair, w: WeightSequence, levels=None):
    """Yield (k, t_k |phi_k * f|) over `levels` (default w.levels); t_k is read through
    `power` into one buffer, so a reciprocal sequence builds no level array of its own."""
    if w.grid.shape != f.grid.shape:
        raise LevelMismatchError("weights and signal live on different grids")
    grid, spec = w.grid, f.spectrum
    filtered = np.zeros(grid.shape, dtype=complex)  # 0 off the current level's box
    t = np.empty(grid.shape)
    for k in (w.levels if levels is None else levels):
        box = _box_ix(grid, k)
        filtered[box] = spec[box] * fp.phi_multiplier(k)
        a = np.abs(_ifftn_from_box(filtered, _box(grid, k)))
        yield k, np.multiply(w.power(k, 1.0, t), a, out=a)
        filtered[box] = 0.0


def _f22_squared(f: BandSignal, fp: FilterPair, w: WeightSequence) -> float:
    """sum_k int t_k^2 |phi_k * f|^2 by Parseval on each level's 2M-lattice (module docstring):
    sum_x t_k^2 |g_k|^2 = (2M)^n / N^{2n} sum_y T_y |u_y|^2, where u = ifftn_2M(level
    spectrum) = (N / 2M)^n g_k and T = `w.box_samples(k, 2, 2M)`; 2M is capped at N.
    """
    if w.grid.shape != f.grid.shape:
        raise LevelMismatchError("weights and signal live on different grids")
    grid, spec = w.grid, f.spectrum
    N, total = grid.cells_per_axis, 0.0
    for k in w.levels:
        M2, ix = min(2 * _box(grid, k).size, N), _box_ix(grid, k)
        u = np.zeros((M2,) * grid.n, dtype=complex)
        u[_box_ix(grid, k, M2)] = spec[ix] * fp.phi_multiplier(k)
        u = np.fft.ifftn(u)
        T, u2 = w.box_samples(k, 2, M2), u.real**2 + u.imag**2
        # a constant level's samples are one stride-0 value: it times the sum of |u|^2
        pair = inner_sum(T, u2) if any(T.strides) else T.flat[0] * u2.sum()
        total += pair * (M2 / N**2) ** grid.n
    return max(total * grid.cell_volume, 0.0)


def F_pq_norm(f: BandSignal, fp: FilterPair, w: WeightSequence, p: float, q: float) -> float:
    """|| (sum_k t_k^q |phi_k * f|^q)^{1/q} ||_{L_p}; q = inf as sup over k.

    p = q = 2 runs on each level's (2M)^n box (`_f22_squared`); every other
    (p, q) reduces t_k |phi_k * f| on the full grid (`_weighted_levels`).
    """
    if not 0 < p < INF:
        raise LevelRangeError(f"p must be in (0, inf), got {p}")
    if p == q == 2:
        return math.sqrt(_f22_squared(f, fp, w))
    terms = (a if q == INF else a**q for _, a in _weighted_levels(f, fp, w))
    return lp_lq_norm(w.grid, terms, p, q)


def F_inf_norm(f: BandSignal, fp: FilterPair, w: WeightSequence, q: float) -> float:
    """sup over dyadic P of the localized average of sum_{k >= k_P} t_k^q |phi_k * f|^q."""
    if not 0 < q < INF:
        raise LevelRangeError(f"q must be in (0, inf), got {q}")
    summands = ((k, np.power(a, q, out=a))
                for k, a in _weighted_levels(f, fp, w, levels=reversed(w.levels)))
    return first_max(localized_sup(w.grid, summands))[0] ** (1.0 / q)


def transfer_check(f: BandSignal, fp: FilterPair, w: WeightSequence, p: float,
                   q: float) -> tuple[float, float]:
    """(sequence norm of the analysis coefficients, function-space norm of f)."""
    lam = analyze(f, fp, (w.grid.k_min, w.grid.k_max))
    return f_pq_norm(lam, w, p, q), F_pq_norm(f, fp, w, p, q)
