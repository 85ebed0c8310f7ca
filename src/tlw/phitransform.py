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
The level-k lattice has M points per axis, step s = 2^{J-k}: `analyze` takes
the filtered spectrum on the box (its s^n - 1 other aliases are exact zeros)
and inverts that small spectrum; `synthesize` adds each level's small
coefficient spectrum, filtered by Psi_k, onto the box and inverts the sum of
all levels once.  A 2-D full-grid FFT whose spectrum is needed or nonzero
only on a box skips the lines of one pass that miss it: the inverse
transforms the box rows along axis 1 and then every column, the forward
transform every row and then the box columns (`_ifftn_from_box`,
`_fftn_on_box`).  1-D transforms are plain `np.fft` calls.

The weighted norm F_22 needs no full-grid transform per level: |phi_k * f|^2
has its spectrum inside the centred box of 2M frequencies per axis, so its
samples on the 2M-lattice are alias-free (2M <= N for k <= J-1; at k = J the
lattice is the grid), and int t_k^2 |phi_k * f|^2 is a Parseval pairing on
that box with fftn(t_k^2), which `WeightSequence.box_spectrum` builds once.
Every other (p, q) reduces t_k |phi_k * f| cell by cell on the full grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import INF, Grid, first_max, localized_sup, lp_lq_norm
from .errors import LevelMismatchError, LevelRangeError, ResolutionError
from .seqspace import CoeffField
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
    """Spectra of the analysis/synthesis pair on the grid's DFT frequencies."""

    grid: Grid
    smoothing: float
    xi_abs: np.ndarray = field(repr=False)
    spectrum_phi: np.ndarray = field(repr=False)
    spectrum_psi: np.ndarray = field(repr=False)
    plateau_floor: float = 0.0
    _mult_cache: dict = field(default_factory=dict, repr=False)

    def phi_profile(self, r: np.ndarray) -> np.ndarray:
        return _plateau_profile(r, self.smoothing)

    def _denominator(self, r: np.ndarray) -> np.ndarray:
        """sum_j Phi(2^{-j} r)^2, >= 1 wherever r > 0 (plateaus overlap)."""
        r = np.asarray(r, dtype=float)
        pos = r[r > 0]
        out = np.zeros_like(r)
        if pos.size == 0:
            return out
        j_lo = math.floor(math.log2(pos.min())) - 2
        j_hi = math.ceil(math.log2(pos.max())) + 2
        acc = np.zeros_like(r)
        for j in range(j_lo, j_hi + 1):
            acc += self.phi_profile(np.where(r > 0, r * 2.0**-j, 1.0)) ** 2 * (r > 0)
        return acc

    def psi_profile(self, r: np.ndarray) -> np.ndarray:
        den = self._denominator(r)
        out = np.zeros_like(np.asarray(r, dtype=float))
        phi = self.phi_profile(r)
        np.divide(phi, den, out=out, where=den > 0)
        return out

    def _cached(self, key, make) -> np.ndarray:
        if key not in self._mult_cache:
            self._mult_cache[key] = make()
        return self._mult_cache[key]

    def phi_multiplier(self, k: int) -> np.ndarray:
        return self._cached(("phi", k), lambda: self.phi_profile(self.xi_abs * 2.0**-k))

    def scale_sum(self) -> np.ndarray:
        """sum_j Phi(2^{-j} |xi|)^2 on the grid; dyadic-invariant, so it serves every level."""
        return self._cached("den", lambda: self._denominator(self.xi_abs))

    def psi_multiplier(self, k: int) -> np.ndarray:
        den = self.scale_sum()
        return self._cached(("psi", k), lambda: np.divide(
            self.phi_multiplier(k), den, out=np.zeros_like(den), where=den > 0))

    def covered_levels(self) -> list[int]:
        """Levels whose open annulus (2^{k-1}, 2^{k+1}) contains a represented frequency."""
        out = []
        pos = self.xi_abs[self.xi_abs > 0]
        for k in range(-self.grid.L, self.grid.J):
            mask = (pos > 2.0 ** (k - 1)) & (pos < 2.0 ** (k + 1))
            if mask.any():
                out.append(k)
        return out

    def support_leak(self) -> float:
        """Max |Phi|, |Psi| outside the closed support annulus (should be 0)."""
        outside = (self.xi_abs < SUPPORT_LO) | (self.xi_abs > SUPPORT_HI)
        if not outside.any():
            return 0.0
        return float(
            max(np.abs(self.spectrum_phi[outside]).max(),
                np.abs(self.spectrum_psi[outside]).max())
        )

    def partition_deviation(self, levels: list[int] | None = None) -> float:
        """Max over represented xi != 0 of |sum_k conj(Phi_k) Psi_k - 1|.

        With `levels`, the sum is truncated to those levels and the check is
        restricted to frequencies fully covered by them.
        """
        pos_mask = self.xi_abs > 0
        r = self.xi_abs[pos_mask]
        den = self.scale_sum()[pos_mask]  # > 0 wherever r > 0
        if r.size == 0:
            return 0.0
        if levels is None:
            j_lo = math.floor(math.log2(r.min())) - 2
            j_hi = math.ceil(math.log2(r.max())) + 2
            levels = list(range(j_lo, j_hi + 1))
        else:
            levels = list(levels)
            lo, hi = 2.0 ** min(levels), 2.0 ** max(levels)
            keep = (r >= lo) & (r <= hi)
            r, den = r[keep], den[keep]
            if r.size == 0:
                return 0.0
        acc = np.zeros_like(r)
        for k in levels:
            phi = self.phi_profile(r * 2.0**-k)
            acc += np.conj(phi) * (phi / den)
        return float(np.abs(acc - 1.0).max())


@functools.lru_cache(maxsize=2)  # the phitransform suite runs at J and J+1
def _angular_frequencies(n: int, L: int, J: int) -> np.ndarray:
    """|xi| on the full DFT grid of (n, L, J); read-only, as every caller shares it."""
    ax = 2.0 * np.pi * np.fft.fftfreq(1 << (L + J), d=2.0 ** (-J))
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    out = np.sqrt(sum(m * m for m in mesh))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _box(grid: Grid, k: int) -> np.ndarray:
    """One axis of the level-k box: the centred min(2^{L+k}, N) frequencies, in DFT order."""
    M = min(1 << (grid.L + k), grid.cells_per_axis)
    out = np.fft.fftfreq(M, 1 / M).astype(int) % grid.cells_per_axis
    out.flags.writeable = False
    return out


def _ifftn_from_box(spec: np.ndarray, box: np.ndarray) -> np.ndarray:
    """np.fft.ifftn(spec) for a spectrum that is 0 off `box` along axis 0."""
    if spec.ndim == 1:
        return np.fft.ifftn(spec)
    rows = np.zeros(spec.shape, dtype=complex)
    rows[box] = np.fft.ifft(spec[box], axis=1)
    return np.fft.ifft(rows, axis=0)


def _fftn_on_box(values: np.ndarray, box: np.ndarray) -> np.ndarray:
    """np.fft.fftn(values) on the columns `box` (axis 1); 0 on the other columns."""
    if values.ndim == 1:
        return np.fft.fftn(values)
    out = np.zeros(values.shape, dtype=complex)
    out[:, box] = np.fft.fft(np.fft.fft(values, axis=1)[:, box], axis=0)
    return out


def build_filter_pair(grid: Grid, smoothing: float = 1.0) -> FilterPair:
    """Construct the plateau/quotient pair on the grid's frequencies."""
    if not 0 < smoothing <= 1:
        raise ValueError(f"smoothing width must be in (0, 1], got {smoothing}")
    if grid.cells_per_axis < 4:
        raise ResolutionError("grid too coarse for any spectral annulus")
    xi_abs = _angular_frequencies(grid.n, grid.L, grid.J)
    fp = FilterPair(grid=grid, smoothing=smoothing, xi_abs=xi_abs,
                    spectrum_phi=np.zeros_like(xi_abs),
                    spectrum_psi=np.zeros_like(xi_abs))
    base = (xi_abs >= SUPPORT_LO) & (xi_abs <= SUPPORT_HI)
    if not base.any():
        raise ResolutionError(
            "base annulus {1/2 <= |xi| <= 2} contains no represented frequencies "
            f"(domain exponent L={grid.L} too small)"
        )
    fp.spectrum_phi = fp.phi_multiplier(0)
    fp.spectrum_psi = fp.psi_multiplier(0)
    plateau = (xi_abs >= PLATEAU_LO) & (xi_abs <= PLATEAU_HI)
    fp.plateau_floor = float(fp.spectrum_phi[plateau].min()) if plateau.any() else 0.0
    return fp


@dataclass
class BandSignal:
    """Complex samples at grid points i*h."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise LevelMismatchError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "BandSignal":
        return cls(grid, np.zeros(grid.shape, dtype=complex))

    @classmethod
    def random_band(cls, grid: Grid, rng: np.random.Generator,
                    levels: tuple[int, int]) -> "BandSignal":
        """Random spectrum on bins with 2^{k_lo} <= |xi| <= 2^{k_hi} (safely in-band)."""
        k_lo, k_hi = levels
        xi_abs = _angular_frequencies(grid.n, grid.L, grid.J)
        mask = (xi_abs >= 2.0**k_lo) & (xi_abs <= 2.0**k_hi)
        if not mask.any():
            raise ResolutionError(f"no represented frequencies in [2^{k_lo}, 2^{k_hi}]")
        spec = np.zeros(grid.shape, dtype=complex)
        spec[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(
            int(mask.sum())
        )
        return cls(grid, _ifftn_from_box(spec, _box(grid, k_hi)))  # |xi| <= 2^{k_hi} lies in it

    def l2_norm(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).sum() * self.grid.cell_volume))

    def scale(self, c) -> "BandSignal":
        return BandSignal(self.grid, c * self.values)

    def plus(self, other: "BandSignal") -> "BandSignal":
        if other.grid != self.grid:
            raise LevelMismatchError("signals live on different grids")
        return BandSignal(self.grid, self.values + other.values)


def _check_level_representable(grid: Grid, k: int):
    if k > grid.J - 1:
        raise LevelRangeError(
            f"level {k} beyond the lattice cap J-1 = {grid.J - 1} (aliasing)"
        )


def analyze(f: BandSignal, fp: FilterPair, levels: tuple[int, int],
            spec: np.ndarray | None = None) -> CoeffField:
    """Coefficients 2^{-kn/2} (filtered f)(2^{-k} m).

    `spec` is fftn(f.values) if known; it is read only on the level-k_hi box.
    """
    if fp.grid.shape != f.grid.shape or fp.grid.L != f.grid.L:
        raise LevelMismatchError("filter pair and signal live on different grids")
    k_lo, k_hi = levels
    grid = f.grid.with_levels(k_lo, k_hi)
    _check_level_representable(grid, k_hi)
    spec = _fftn_on_box(f.values, _box(grid, k_hi)) if spec is None else spec
    entries = {}
    for k in range(k_lo, k_hi + 1):
        box = np.ix_(*[_box(grid, k)] * grid.n)
        lattice = spec[box] * fp.phi_multiplier(k)[box]  # the lattice's spectrum; Phi real
        scale = 2.0 ** (-k * grid.n / 2.0) * (lattice.size / spec.size)
        entries[k] = scale * np.fft.ifftn(lattice)
    return CoeffField(grid, entries)


def synthesize(lam: CoeffField, fp: FilterPair) -> BandSignal:
    """sum_k sum_m lambda_{k,m} psi_{k,m}: lattice spectra times Psi_k on their boxes, one ifftn."""
    grid = lam.grid
    if fp.grid.shape != grid.shape or fp.grid.L != grid.L:
        raise LevelMismatchError("filter pair and coefficients live on different grids")
    _check_level_representable(grid, grid.k_max)
    acc = np.zeros(grid.shape, dtype=complex)
    for k in lam.levels:
        box = np.ix_(*[_box(grid, k)] * grid.n)
        tile = np.fft.fftn(lam.entries[k])  # the comb's spectrum on the box
        tile *= 2.0 ** (-k * grid.n / 2.0) / grid.cell_volume
        acc[box] += tile * fp.psi_multiplier(k)[box]
    return BandSignal(grid, _ifftn_from_box(acc, _box(grid, grid.k_max)))


def roundtrip_residual(f: BandSignal, fp: FilterPair, levels: tuple[int, int]) -> float:
    """Relative L2 error of synthesize(analyze(f)); 0 for the zero signal."""
    denom = f.l2_norm()
    if denom == 0.0:
        return 0.0
    recon = synthesize(analyze(f, fp, levels), fp)
    diff = recon.values - f.values
    return float(np.sqrt((np.abs(diff) ** 2).sum() * f.grid.cell_volume)) / denom


def band_leakage(f: BandSignal, fp: FilterPair, levels: tuple[int, int],
                 tol: float = 1e-9) -> float:
    """Spectral energy fraction outside the band reproduced by `levels`."""
    spec = np.fft.fftn(f.values)
    total = float((np.abs(spec) ** 2).sum())
    if total == 0.0:
        return 0.0
    acc = np.zeros_like(fp.xi_abs)
    for k in range(levels[0], levels[1] + 1):
        acc += fp.phi_multiplier(k) * fp.psi_multiplier(k)  # Phi real
    reproduced = np.abs(acc - 1.0) <= tol
    return float((np.abs(spec[~reproduced]) ** 2).sum()) / total


def _weighted_levels(f: BandSignal, fp: FilterPair, w: WeightSequence, spec=None, levels=None):
    """Yield (k, t_k |phi_k * f|) over `levels` (default w.levels); `spec` as in `analyze`."""
    if w.grid.shape != f.grid.shape:
        raise LevelMismatchError("weights and signal live on different grids")
    grid = w.grid
    levels = list(w.levels if levels is None else levels)
    spec = _fftn_on_box(f.values, _box(grid, max(levels))) if spec is None else spec
    filtered = np.zeros(grid.shape, dtype=complex)  # 0 off the current level's box
    for k in levels:
        box = np.ix_(*[_box(grid, k)] * grid.n)
        filtered[box] = spec[box] * fp.phi_multiplier(k)[box]
        yield k, w.tk[k] * np.abs(_ifftn_from_box(filtered, _box(grid, k)))
        filtered[box] = 0.0


def _f22_squared(f: BandSignal, fp: FilterPair, w: WeightSequence, spec=None) -> float:
    """sum_k int t_k^2 |phi_k * f|^2 by Parseval on each level's 2M-box (module docstring):
    sum_x t_k^2 |g_k|^2 = (2M)^n / N^{2n} vdot(fftn(t_k^2)|box, fftn_2M(|u|^2)), where
    u = ifftn_2M(level spectrum) = (N / 2M)^n g_k on the 2M-lattice; 2M is capped at N.
    """
    if w.grid.shape != f.grid.shape:
        raise LevelMismatchError("weights and signal live on different grids")
    grid = w.grid
    spec = _fftn_on_box(f.values, _box(grid, grid.k_max)) if spec is None else spec
    N, total = grid.cells_per_axis, 0.0
    for k in w.levels:
        box = _box(grid, k)
        M2, ix = min(2 * box.size, N), np.ix_(*[box] * grid.n)
        u = np.zeros((M2,) * grid.n, dtype=complex)
        u[np.ix_(*[box % M2] * grid.n)] = spec[ix] * fp.phi_multiplier(k)[ix]
        u = np.fft.ifftn(u)
        pair = np.vdot(w.box_spectrum(k, 2, M2), np.fft.fftn(u.real**2 + u.imag**2))
        total += pair.real * (M2 / N**2) ** grid.n
    return max(total * grid.cell_volume, 0.0)


def F_pq_norm(f: BandSignal, fp: FilterPair, w: WeightSequence, p: float,
              q: float, spec: np.ndarray | None = None) -> float:
    """|| (sum_k t_k^q |phi_k * f|^q)^{1/q} ||_{L_p}; q = inf as sup over k.

    p = q = 2 runs on each level's (2M)^n box (`_f22_squared`); every other
    (p, q) reduces t_k |phi_k * f| on the full grid (`_weighted_levels`).
    """
    if not 0 < p < INF:
        raise LevelRangeError(f"p must be in (0, inf), got {p}")
    if p == q == 2:
        return math.sqrt(_f22_squared(f, fp, w, spec))
    terms = (a if q == INF else a**q for _, a in _weighted_levels(f, fp, w, spec))
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
    spec = _fftn_on_box(f.values, _box(w.grid, w.grid.k_max))
    lam = analyze(f, fp, (w.grid.k_min, w.grid.k_max), spec)
    from .seqspace import f_pq_norm as _seq_norm

    return _seq_norm(lam, w, p, q), F_pq_norm(f, fp, w, p, q, spec)
