import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlw import phitransform
from tlw.dyadic import Grid, lp_lq_norm
from tlw.errors import LevelMismatchError, LevelRangeError, ResolutionError
from tlw.phitransform import (
    BandSignal,
    F_inf_norm,
    F_pq_norm,
    _box,
    _ifftn_from_box,
    _weighted_levels,
    analyze,
    band_leakage,
    build_filter_pair,
    roundtrip_residual,
    synthesize,
    transfer_check,
)
from tlw.io import weights_from_spec
from tlw.seqspace import CoeffField, f_pq_norm
from tlw.weights import WeightSequence, exp2_weights, random_ap_weights

from . import oracles

INF = math.inf


def fgrid(n=1, L=3, J=6, k_min=0, k_max=3):
    return Grid(n=n, L=L, J=J, k_min=k_min, k_max=k_max)


@pytest.fixture(scope="module")
def fp1():
    return build_filter_pair(fgrid())


def test_filter_profile_plateau_and_support(fp1):
    assert fp1.phi_profile(np.array([1.0]))[0] == 1.0
    assert fp1.phi_profile(np.array([3.0]))[0] == 0.0
    assert fp1.phi_profile(np.array([0.4]))[0] == 0.0
    mid = fp1.phi_profile(np.array([0.55]))[0]
    assert 0.0 < mid < 1.0


def test_filter_invariants(fp1):
    assert fp1.support_leak() <= 1e-14
    assert fp1.plateau_floor == pytest.approx(1.0)
    assert fp1.partition_deviation() <= 1e-12


def test_filter_invariants_2d():
    fp = build_filter_pair(fgrid(n=2, L=2, J=4))
    assert fp.support_leak() <= 1e-14
    assert fp.plateau_floor > 0
    assert fp.partition_deviation() <= 1e-12


def test_build_rejects_coarse_domain():
    with pytest.raises(ResolutionError):
        build_filter_pair(Grid(n=1, L=1, J=5, k_min=0, k_max=3))
    with pytest.raises(ResolutionError):
        build_filter_pair(Grid(n=1, L=0, J=1, k_min=0, k_max=1))


def test_smoothing_width_narrows_transition():
    g = fgrid()
    sharp = build_filter_pair(g, smoothing=0.25)
    r = np.array([0.52])
    assert sharp.phi_profile(r)[0] == 0.0  # transition squeezed toward the plateau
    assert build_filter_pair(g, smoothing=1.0).phi_profile(r)[0] > 0.0
    assert sharp.partition_deviation() <= 1e-12
    with pytest.raises(ValueError):
        build_filter_pair(g, smoothing=0.0)


def test_analyze_zero_and_linearity(fp1):
    g = fgrid()
    rng = np.random.default_rng(281)
    zero = BandSignal.zeros(g)
    lam = analyze(zero, fp1, (0, 3))
    assert all(np.all(v == 0) for v in lam.entries.values())
    f = BandSignal.random_band(g, rng, (0, 3))
    h = BandSignal.random_band(g, rng, (0, 3))
    a, b = 1.5, -2.0 + 1.0j
    combo = analyze(BandSignal(g, a * f.values + b * h.values), fp1, (0, 3))
    fa, fb = analyze(f, fp1, (0, 3)), analyze(h, fp1, (0, 3))
    for k in combo.levels:
        np.testing.assert_allclose(
            combo.entries[k], a * fa.entries[k] + b * fb.entries[k], rtol=1e-12, atol=1e-14
        )


def test_analyze_annulus_overlap(fp1):
    # spectrum inside the base plateau annulus excites exactly levels -1, 0, 1
    g = fgrid(k_min=-2, k_max=3)
    spec = np.zeros(g.shape, dtype=complex)
    xi = 2.0 * np.pi * np.fft.fftfreq(g.cells_per_axis, d=g.h)
    inside = (np.abs(xi) >= 3.0 / 5.0) & (np.abs(xi) <= 5.0 / 3.0)
    assert inside.any()
    spec[inside] = 1.0 + 0.5j
    f = BandSignal(g, np.fft.ifftn(spec))
    lam = analyze(f, fp1, (-2, 3))
    active = {k for k in lam.levels if np.abs(lam.entries[k]).max() > 1e-12}
    assert active == {-1, 0, 1}


def test_analyze_respects_nyquist_cap(fp1):
    g = fgrid()
    f = BandSignal.zeros(g)
    with pytest.raises(LevelRangeError):
        analyze(f, fp1, (0, g.J))


def test_synthesize_single_coefficient_matches_direct_formula(fp1):
    # one coefficient must produce 2^{-kn/2} psi_k(x - 2^{-k} m), evaluated by an
    # explicit DFT double loop (independent of np.fft)
    g = fgrid(J=5)
    fp = build_filter_pair(g)
    k, m = 2, 5
    lam = CoeffField.single(g.with_levels(k, k), k, (m,), 1.0 + 0.0j)
    got = synthesize(lam, fp).values
    N = g.cells_per_axis
    xi = 2.0 * np.pi * np.fft.fftfreq(N, d=g.h)
    psi_hat = oracles.full_grid_filter(g, 1.0, k)[1]
    x0 = m * 2.0**-k
    want = np.zeros(N, dtype=complex)
    for i in range(N):
        x = i * g.h
        want[i] = (2.0 ** (-k / 2.0) / (2.0**g.L)) * np.sum(
            psi_hat * np.exp(1j * xi * (x - x0))
        )
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_synthesize_linearity(fp1):
    g = fgrid()
    rng = np.random.default_rng(283)
    a = CoeffField.random(g, rng)
    b = CoeffField.random(g, rng)
    combo = synthesize(a.plus(b.scale(2.0j)), fp1)
    np.testing.assert_allclose(
        combo.values,
        synthesize(a, fp1).values + 2.0j * synthesize(b, fp1).values,
        rtol=1e-12, atol=1e-14,
    )


def test_roundtrip_on_synthesized_atom(fp1):
    g = fgrid()
    lam = CoeffField.single(g.with_levels(0, 0), 0, (1,), 1.0)
    f = synthesize(lam, fp1)
    assert roundtrip_residual(f, fp1, (-2, 4)) <= 1e-9


def test_roundtrip_random_band(fp1):
    g = fgrid()
    rng = np.random.default_rng(287)
    for _ in range(10):
        f = BandSignal.random_band(g, rng, (0, 3))
        assert roundtrip_residual(f, fp1, (0, 3)) <= 1e-9
    assert roundtrip_residual(BandSignal.zeros(g), fp1, (0, 3)) == 0.0


def test_roundtrip_2d():
    g = fgrid(n=2, L=2, J=4, k_min=0, k_max=2)
    fp = build_filter_pair(g)
    rng = np.random.default_rng(289)
    f = BandSignal.random_band(g, rng, (0, 2))
    assert roundtrip_residual(f, fp, (0, 2)) <= 1e-9


def test_out_of_band_content_reported_not_raised(fp1):
    g = fgrid()
    rng = np.random.default_rng(293)
    f = BandSignal.random_band(g, rng, (0, 4))  # wider than the analyzed range
    res = roundtrip_residual(f, fp1, (1, 3))
    leak = band_leakage(f, fp1, (1, 3))
    assert res > 1e-6
    assert leak > 0.0
    full = band_leakage(f, fp1, (-1, 5))
    assert full <= 1e-12


def test_F_pq_norm_zero_and_homogeneity(fp1):
    g = fgrid()
    w = exp2_weights(g, 0.2)
    assert F_pq_norm(BandSignal.zeros(g), fp1, w, 2.0, 2.0) == 0.0
    rng = np.random.default_rng(307)
    f = BandSignal.random_band(g, rng, (0, 3))
    base = F_pq_norm(f, fp1, w, 2.0, 2.0)
    scaled = BandSignal(g, -3.0j * f.values)
    assert F_pq_norm(scaled, fp1, w, 2.0, 2.0) == pytest.approx(3.0 * base, rel=1e-12)
    assert F_pq_norm(f, fp1, w, 2.0, INF) > 0.0


def test_F_22_parseval_consistency(fp1):
    # p = q = 2 with unit weights: the norm squares to sum_k ||phi_k * f||_2^2,
    # evaluable spectrally by Parseval
    g = fgrid()
    rng = np.random.default_rng(311)
    f = BandSignal.random_band(g, rng, (1, 2))
    w = exp2_weights(g, 0.0)
    got = F_pq_norm(f, fp1, w, 2.0, 2.0)
    spec = np.fft.fftn(f.values) / f.values.size
    want_sq = 0.0
    for k in w.levels:
        mult = oracles.full_grid_filter(g, 1.0, k)[0]
        want_sq += float(np.sum(np.abs(mult * spec) ** 2)) * (2.0**g.L) ** g.n
    assert got == pytest.approx(math.sqrt(want_sq), rel=1e-12)


def test_spatial_spectral_agreement(fp1):
    # the analysis coefficients are lattice samples of the direct spatial
    # convolution by the inverse-transformed kernel (circular), to high accuracy
    g = fgrid()
    rng = np.random.default_rng(313)
    f = BandSignal.random_band(g, rng, (0, 2))
    k = 1
    kernel = np.fft.ifftn(oracles.full_grid_filter(g, 1.0, k)[0])
    direct = np.array([
        np.sum(f.values * np.roll(kernel[::-1], i + 1)) for i in range(g.cells_per_axis)
    ])
    samples = analyze(f, fp1, (k, k)).entries[k] * 2.0 ** (k * g.n / 2.0)
    np.testing.assert_allclose(samples, direct[:: 1 << (g.J - k)], rtol=1e-10, atol=1e-13)


def test_F_inf_norm_basics(fp1):
    g = fgrid()
    w = exp2_weights(g, 0.0)
    assert F_inf_norm(BandSignal.zeros(g), fp1, w, 2.0) == 0.0
    rng = np.random.default_rng(317)
    f = BandSignal.random_band(g, rng, (1, 2))
    val = F_inf_norm(f, fp1, w, 2.0)
    assert val > 0
    # the domain cube is itself admissible: its plain average is a lower bound
    body = np.zeros(g.shape)
    spec = np.fft.fftn(f.values)
    for k in w.levels:
        phi_k = oracles.full_grid_filter(g, 1.0, k)[0]
        body += (w.tk[k] * np.abs(np.fft.ifftn(spec * phi_k))) ** 2.0
    domain_avg = float(body.mean()) ** 0.5
    assert val >= domain_avg * (1 - 1e-12)
    with pytest.raises(LevelRangeError):
        F_inf_norm(f, fp1, w, INF)


def test_F_inf_exp2_scaling_single_annulus(fp1):
    # single-annulus signal: weights 2^{ks} rescale the norm by 2^{k0 s}
    g = fgrid()
    rng = np.random.default_rng(331)
    spec = np.zeros(g.shape, dtype=complex)
    xi = 2.0 * np.pi * np.fft.fftfreq(g.cells_per_axis, d=g.h)
    ring = (np.abs(xi) >= 2.0) & (np.abs(xi) <= 4.0)  # level-2 plateau region
    spec[ring] = rng.standard_normal(int(ring.sum()))
    f = BandSignal(g, np.fft.ifftn(spec))
    vals = {}
    for s in (0.0, 0.7):
        w = exp2_weights(g.with_levels(2, 2), s)
        vals[s] = F_inf_norm(f, build_filter_pair(g.with_levels(2, 2)), w, 2.0)
    assert vals[0.7] == pytest.approx(2.0 ** (2 * 0.7) * vals[0.0], rel=1e-12)


def test_transfer_check_zero_and_atom(fp1):
    g = fgrid()
    w = exp2_weights(g, 0.0)
    assert transfer_check(BandSignal.zeros(g), fp1, w, 2.0, 2.0) == (0.0, 0.0)
    lam = CoeffField.single(g, 1, (2,), 1.0)
    f = synthesize(lam, fp1)
    seq, fun = transfer_check(f, fp1, w, 2.0, 2.0)
    assert seq > 0 and fun > 0 and np.isfinite(seq / fun)


def test_transfer_ratio_stable_under_refinement():
    bands = {}
    for J in (5, 6):
        g = fgrid(J=J)
        fp = build_filter_pair(g)
        w = exp2_weights(g, 0.0)
        rng = np.random.default_rng(337)
        ratios = []
        for _ in range(20):
            f = BandSignal.random_band(g, rng, (0, 3))
            seq, fun = transfer_check(f, fp, w, 2.0, 2.0)
            ratios.append(seq / fun)
        bands[J] = (min(ratios), max(ratios))
    (a0, b0), (a1, b1) = bands[5], bands[6]
    assert abs(a0 - a1) <= 0.10 * max(a0, a1)
    assert abs(b0 - b1) <= 0.10 * max(b0, b1)


def test_grid_mismatch_rejected(fp1):
    g_other = fgrid(J=5)
    f = BandSignal.zeros(g_other)
    with pytest.raises(LevelMismatchError):
        analyze(f, fp1, (0, 2))


def box_mask(grid, k):
    """The level-k box on the full grid: frequency index -M/2 <= j < M/2 per axis, M = 2^{L+k}."""
    M = 2 ** (grid.L + k)
    j = np.fft.fftfreq(grid.cells_per_axis, 1 / grid.cells_per_axis)
    axis = (j >= -M / 2) & (j < M / 2)
    return np.logical_and.reduce(np.meshgrid(*[axis] * grid.n, indexing="ij"))


class _RandomRealMultipliers:
    """Filter-pair stand-in: random real multipliers per level on the level's box, 0 off it.

    Reading the lattice spectrum off the box, and adding onto it, is exact for
    any real multiplier that vanishes off the level's box, as Phi_k and Psi_k
    do; unlike them, these excite every lattice frequency, including the
    M = 1 lattice at k = -L.  `full_phi` and `full_psi` give them on the grid.
    """

    def __init__(self, grid, seed):
        self.grid = grid
        self._rng = np.random.default_rng(seed)
        self._cache = {}

    def _draw(self, key):
        if key not in self._cache:
            M = _box(self.grid, key[1]).size
            self._cache[key] = self._rng.standard_normal((M,) * self.grid.n)
        return self._cache[key]

    def _on_grid(self, key):
        out = np.zeros(self.grid.shape)
        out[np.ix_(*[_box(self.grid, key[1])] * self.grid.n)] = self._draw(key)
        return out

    def phi_multiplier(self, k):
        return self._draw(("phi", k))

    def psi_multiplier(self, k):
        return self._draw(("psi", k))

    def full_phi(self, k):
        return self._on_grid(("phi", k))

    def full_psi(self, k):
        return self._on_grid(("psi", k))


@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_folded_kernels_match_full_grid_oracles(n, L, seed, data):
    J = data.draw(st.integers(1, 5 if n == 1 else 3))
    k_lo = data.draw(st.integers(-L, J - 1))
    k_hi = data.draw(st.integers(k_lo, J - 1))
    g = Grid(n=n, L=L, J=J, k_min=k_lo, k_max=k_hi)
    rng = np.random.default_rng(seed)
    stub = _RandomRealMultipliers(g, seed)
    cases = [(stub, stub.full_phi, stub.full_psi)]
    if L == 2:  # L = 1 leaves the base annulus empty
        cases.append((build_filter_pair(g), lambda k: oracles.full_grid_filter(g, 1.0, k)[0],
                      lambda k: oracles.full_grid_filter(g, 1.0, k)[1]))
    f = BandSignal(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    lam = CoeffField.random(g, rng)
    for pair, phi_k, psi_k in cases:
        got = analyze(f, pair, (k_lo, k_hi)).entries
        want = oracles.naive_analyze(f.values, g, (k_lo, k_hi), phi_k)
        scale = max(np.abs(v).max() for v in want.values())
        for k in want:
            assert got[k].shape == g.level_shape(k)
            assert np.abs(got[k] - want[k]).max() <= 1e-12 * scale
        recon = oracles.naive_synthesize(lam.entries, g, psi_k)
        assert np.abs(synthesize(lam, pair).values - recon).max() <= 1e-12 * np.abs(recon).max()


@pytest.mark.parametrize("n, L, J, smoothing", [
    (1, 3, 6, 1.0), (1, 2, 11, 1.0), (1, 2, 6, 0.25), (2, 2, 4, 1.0), (2, 3, 5, 0.5),
])
def test_scale_sum_once_is_bit_identical_to_per_level_formula(n, L, J, smoothing):
    g = Grid(n=n, L=L, J=J, k_min=0, k_max=0)
    fp = build_filter_pair(g, smoothing)
    for k in range(-L, J):
        box = np.ix_(*[_box(g, k)] * n)
        assert np.array_equal(fp.psi_multiplier(k), oracles.per_level_psi(fp, k)[box])
    assert fp.partition_deviation() == oracles.per_level_partition_deviation(fp)


def test_radii_match_the_mesh_read_only_and_band_draws_ignore_level_range():
    g = fgrid(n=2, L=2, J=4, k_max=2)
    assert not build_filter_pair(g).radii.flags.writeable
    for h in (g, fgrid(n=1, L=2, J=7)):  # the 1-D radii are read off the axis, unsorted
        want = np.unique(oracles.frequency_magnitudes(h))
        assert np.array_equal(build_filter_pair(h).radii, want)
    a = BandSignal.random_band(g, np.random.default_rng(1), (0, 2))
    b = BandSignal.random_band(g.with_levels(0, 1), np.random.default_rng(1), (0, 2))
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("n, L, J", [(1, 2, 6), (1, 3, 5), (2, 2, 4), (2, 3, 3)])
@pytest.mark.parametrize("smoothing", [1.0, 0.5, 0.25, 0.2])
def test_level_multipliers_vanish_off_the_level_box(n, L, J, smoothing):
    # the full-grid oracle vanishes off each level's box, and the pair's box arrays and
    # its four checks on the distinct radii equal the oracle's bit for bit
    g = Grid(n=n, L=L, J=J, k_min=0, k_max=0)
    fp = build_filter_pair(g, smoothing)
    for k in range(-L, J + 1):
        box = np.ix_(*[_box(g, k)] * n)
        inside = np.zeros(g.shape, dtype=bool)
        inside[box] = True
        assert np.array_equal(inside, box_mask(g, k))
        phi, psi = oracles.full_grid_filter(g, smoothing, k)
        assert not (phi[~inside].any() or psi[~inside].any())
        assert fp.phi_multiplier(k).tobytes() == phi[box].tobytes()
        assert fp.psi_multiplier(k).tobytes() == psi[box].tobytes()
    assert (fp.support_leak(), fp.plateau_floor, fp.partition_deviation(),
            fp.covered_levels()) == oracles.full_grid_filter_checks(g, smoothing)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_per_axis_radii_equal_the_full_mesh_bit_for_bit(n, L):
    J = 5 if n == 1 else 3
    g = Grid(n, L, J, 0, 0)
    mesh = oracles.angular_mesh(n, L, J)
    half = mesh[(slice(g.cells_per_axis // 2 + 1),) * n]
    assert phitransform._radii(n, L, J).tobytes() == np.unique(half).tobytes()
    fp = phitransform.FilterPair(grid=g, smoothing=1.0, radii=phitransform._radii(n, L, J))
    for k in range(-L, J + 1):
        assert fp._box_radii(k).tobytes() == mesh[np.ix_(*[_box(g, k)] * n)].tobytes()
    for k_lo, k_hi in [(-L, J), (0, 1), (1, J + 2), (J + 3, J + 4)]:
        want = np.flatnonzero((mesh >= 2.0**k_lo) & (mesh <= 2.0**k_hi))
        assert np.array_equal(phitransform._band_bins(n, L, J, k_lo, k_hi), want)


def test_filter_pair_peaks_below_one_full_grid_float_array():
    g = Grid(2, 2, 7, 0, 4)
    tracemalloc.start()
    try:
        fp = build_filter_pair(g)
        for k in range(g.k_min, g.k_max + 1):
            fp.phi_multiplier(k), fp.psi_multiplier(k)
        fp.support_leak(), fp.partition_deviation(), fp.covered_levels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.empty(g.shape).nbytes


@pytest.mark.parametrize("n, J", [(1, 5), (2, 3)])
def test_box_ffts_equal_numpy_bit_for_bit(n, J):
    g = Grid(n=n, L=2, J=J, k_min=0, k_max=0)
    rng = np.random.default_rng(41)
    x = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    for k in range(-g.L, g.J + 1):  # M = 1, 2, ..., N
        box = _box(g, k)
        rows = np.zeros(g.cells_per_axis, dtype=bool)
        rows[box] = True
        spec = x * rows.reshape((-1,) + (1,) * (n - 1))  # 0 off the box rows
        assert _ifftn_from_box(spec, box).tobytes() == np.fft.ifftn(spec).tobytes()


@pytest.mark.parametrize("n, J", [(1, 5), (2, 3)])
def test_random_band_accepts_levels_beyond_the_lattice_cap(n, J):
    g = Grid(n=n, L=2, J=J, k_min=0, k_max=0)
    got = BandSignal.random_band(g, np.random.default_rng(43), (1, J + 3)).values
    spec = oracles.drawn_band_spectrum(g, np.random.default_rng(43), 1, J + 3)
    assert np.array_equal(got, np.fft.ifftn(spec))


@pytest.mark.parametrize("g, band", [(Grid(1, 2, 8, 0, 5), (0, 5)), (Grid(2, 2, 4, 0, 2), (0, 2)),
                                     (Grid(2, 3, 3, -1, 2), (-1, 1))])
def test_random_band_draws_as_the_mask_construction(g, band):
    rng, old = np.random.default_rng(47), np.random.default_rng(47)
    f = BandSignal.random_band(g, rng, band)
    spec = oracles.drawn_band_spectrum(g, old, *band)
    assert rng.bit_generator.state == old.bit_generator.state
    assert np.array_equal(f.spectrum, spec)
    assert f.values.tobytes() == _ifftn_from_box(spec, _box(g, band[1])).tobytes()


def test_spectrum_backed_signal_computes_values_once(monkeypatch):
    g = fgrid(n=2, L=2, J=4, k_max=2)
    f = BandSignal.random_band(g, np.random.default_rng(53), (0, 2))
    calls = []
    inverse = np.fft.ifftn
    monkeypatch.setattr(np.fft, "ifftn", lambda *a: calls.append(1) or inverse(*a))
    first = f.values
    assert f.values is first and len(calls) == 1
    h = BandSignal(g, first)
    assert h.values is first and np.allclose(h.spectrum, f.spectrum, atol=1e-12)
    assert h.spectrum is h.spectrum and len(calls) == 1


def test_band_signal_needs_exactly_one_form():
    g = fgrid()
    with pytest.raises(ValueError):
        BandSignal(g)
    with pytest.raises(ValueError):
        BandSignal(g, np.zeros(g.shape), spectrum=np.zeros(g.shape))
    with pytest.raises(LevelMismatchError):
        BandSignal(fgrid(J=5), spectrum=np.zeros(g.shape))
    rng = np.random.default_rng(57)
    spec = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)  # on every bin
    assert BandSignal(g, spectrum=spec).values.tobytes() == np.fft.ifftn(spec).tobytes()


def cell_residual(f, fp, levels):
    """The relative L2 error of synthesize(analyze(f)), taken cell by cell on the samples."""
    diff = synthesize(analyze(f, fp, levels), fp).values - f.values
    return float(np.sqrt((np.abs(diff) ** 2).sum() / (np.abs(f.values) ** 2).sum()))


@pytest.mark.parametrize("g, band", [(Grid(1, 2, 8, 0, 5), (0, 5)), (Grid(2, 2, 5, 0, 3), (0, 3))])
def test_spectral_roundtrip_residual_equals_the_cell_residual(g, band):
    fp = build_filter_pair(g)
    rng = np.random.default_rng(59)
    for _ in range(5):
        f = BandSignal.random_band(g, rng, band)
        got = roundtrip_residual(f, fp, band)
        assert got <= 1e-9
        assert got == pytest.approx(cell_residual(f, fp, band), rel=0, abs=1e-15)
    wide = BandSignal.random_band(g, rng, (band[0], band[1] + 2))
    assert np.abs(wide.spectrum[~box_mask(g, band[1])]).max() > 0  # energy off the k_max box
    got = roundtrip_residual(wide, fp, band)
    assert got > 1e-3
    assert got == pytest.approx(cell_residual(wide, fp, band), rel=1e-12)


@pytest.mark.parametrize("g, band", [(Grid(1, 2, 8, 0, 5), (0, 5)), (Grid(2, 2, 5, 0, 3), (0, 3))])
def test_roundtrip_residual_detects_a_perturbed_synthesis_level(g, band):
    bad = build_filter_pair(g)
    bad._mult_cache[("psi", 1)] = 1.25 * bad.psi_multiplier(1)  # Psi_1 off by a quarter
    f = BandSignal.random_band(g, np.random.default_rng(61), band)
    got = roundtrip_residual(f, bad, band)
    assert got > 1e-2
    filters = {k: oracles.full_grid_filter(g, 1.0, k) for k in range(band[0], band[1] + 1)}
    lam = oracles.naive_analyze(f.values, g, band, lambda k: filters[k][0])
    diff = oracles.naive_synthesize(lam, g, lambda k: filters[k][1] * (1.25 if k == 1 else 1.0))
    diff -= f.values
    assert got == pytest.approx(np.linalg.norm(diff) / np.linalg.norm(f.values), rel=1e-12)


@pytest.mark.parametrize("g", [Grid(1, 2, 8, 0, 5), Grid(2, 2, 5, 0, 3)], ids=["1d", "2d"])
def test_roundtrip_and_transfer_run_no_full_grid_transform(monkeypatch, g):
    # k_max <= J - 2 keeps every F_22 lattice, (2M)^n, below the N^n grid
    fp, w = build_filter_pair(g), exp2_weights(g, 0.3)
    rng = np.random.default_rng(67)
    transfer_check(BandSignal.random_band(g, rng, (0, g.k_max)), fp, w, 2.0, 2.0)  # memoises
    sizes = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(a, *args, _real=getattr(np.fft, name), **kwargs):
            sizes.append(np.size(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    for _ in range(3):
        roundtrip_residual(BandSignal.random_band(g, rng, (0, g.k_max)), fp, (0, g.k_max))
        transfer_check(BandSignal.random_band(g, rng, (0, g.k_max)), fp, w, 2.0, 2.0)
    assert sizes and max(sizes) < g.cells_per_axis**g.n


def test_transfer_check_2d_line_transform_points_within_budget(monkeypatch):
    # A line transform of size N costs N points: n * size for an n-D *fftn
    # call, size for a 1-D fft/ifft call.  Full-grid 2-D transforms with a
    # pass on every line count 2 N^2 each (166,560 points on this grid).
    g = Grid(n=2, L=2, J=5, k_min=0, k_max=3)
    fp = build_filter_pair(g)
    w = exp2_weights(g, 0.3)
    f = BandSignal.random_band(g, np.random.default_rng(5), (0, 3))
    points = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(a, *args, _real=getattr(np.fft, name), _lines=g.n if name.endswith("n") else 1,
                    **kwargs):
            points.append(_lines * np.size(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    def memo_points(w):
        """Points of the first call beyond the second's, which stays within budget."""
        transfer_check(f, fp, w, 2.0, 2.0)  # also builds t_k^2 cut to each level's 2M-box
        first = sum(points)
        points.clear()
        transfer_check(f, fp, w, 2.0, 2.0)
        budget = (sum(g.n * M**g.n for M in boxes)  # the lattice inverses in analyze
                  + sum(g.n * (2 * M) ** g.n for M in boxes))  # per level: one ifftn on (2M)^n
        assert sum(points) <= budget == 13_600
        memo = first - sum(points)
        points.clear()
        return memo

    N, boxes = g.cells_per_axis, [2 ** (g.L + k) for k in w.levels]
    # the memo, once per level and not per call: a constant level's samples need no
    # transform; a grid array's take every column of t_k^2, then the box rows, then the
    # box's inverse onto the 2M-lattice
    assert memo_points(w) == 0
    copy = WeightSequence(g, {k: np.array(w.tk[k]) for k in w.levels}, w.meta)
    assert memo_points(copy) == sum((N + 2 * M) * N + g.n * (2 * M) ** g.n for M in boxes)


def f22_weights(kind, g, seed, reciprocal):
    spec = {"exp2": {"kind": "exp2", "s": 0.3}, "power": {"kind": "power", "s": 0.3, "alpha": 0.4},
            "random-ap": {"kind": "random-ap", "spread": 0.5}}[kind]
    w = weights_from_spec(g, spec, np.random.default_rng(seed))
    return w.reciprocal() if reciprocal else w


def check_f22_against_full_grid(g, w, seed):
    """F_pq_norm(., 2, 2) against the cell oracle and the general full-grid path, rel 1e-13."""
    rng = np.random.default_rng(seed)
    f = BandSignal(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    stub = _RandomRealMultipliers(g, seed)  # excites every box, the M = 1 box at k = -L too
    pairs = [(stub, stub.full_phi)]
    if g.L == 2:  # L = 1 leaves the base annulus empty
        pairs.append((build_filter_pair(g), lambda k: oracles.full_grid_filter(g, 1.0, k)[0]))
    for pair, phi_k in pairs:
        got = F_pq_norm(f, pair, w, 2.0, 2.0)
        want = oracles.naive_F_pq_norm(f.values, w.tk, g, 2.0, 2.0, phi_k)
        general = lp_lq_norm(g, (a**2 for _, a in _weighted_levels(f, pair, w)), 2.0, 2.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(general, rel=1e-13)


@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]),
       st.sampled_from(["exp2", "power", "random-ap"]), st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_F22_box_pairing_matches_full_grid_oracle(n, L, kind, reciprocal, seed, data):
    J = data.draw(st.integers(1, 5 if n == 1 else 3))
    k_lo = data.draw(st.integers(-L, J - 1))
    k_hi = data.draw(st.integers(k_lo, J))
    g = Grid(n=n, L=L, J=J, k_min=k_lo, k_max=k_hi)
    check_f22_against_full_grid(g, f22_weights(kind, g, seed, reciprocal), seed)


@pytest.mark.parametrize("kind, reciprocal", [("exp2", False), ("power", False),
                                              ("random-ap", False), ("random-ap", True)])
@pytest.mark.parametrize("n, J", [(1, 5), (2, 3)])
def test_F22_box_pairing_on_every_level_from_minus_L_to_J(n, J, kind, reciprocal):
    # k = -L has the M = 1 box; at k = J-1 the (2M)^n lattice is the full grid,
    # and at k = J, where 2M = 2N, it stays the full grid
    g = Grid(n=n, L=2, J=J, k_min=-2, k_max=J)
    check_f22_against_full_grid(g, f22_weights(kind, g, 53, reciprocal), 53)


@pytest.mark.parametrize("g", [Grid(2, 2, 6, 0, 3), Grid(1, 2, 12, 0, 7)], ids=["2d", "1d"])
def test_F22_peaks_below_one_full_grid_complex_array(g):
    fp = build_filter_pair(g)
    w = random_ap_weights(g, 0.5, np.random.default_rng(59))
    f = BandSignal.random_band(g, np.random.default_rng(61), (0, g.k_max))  # holds its spectrum
    want = F_pq_norm(f, fp, w, 2.0, 2.0)  # memoises the multipliers and box spectra
    tracemalloc.start()
    try:
        got = F_pq_norm(f, fp, w, 2.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < np.empty(g.shape, dtype=complex).nbytes


def test_general_F_pq_norm_on_reciprocal_weights_peaks_no_higher_than_on_w():
    # 1/t_k is read through `power` into the buffer t_k takes, one level at a time
    g = Grid(2, 2, 5, 0, 3)
    fp = build_filter_pair(g)
    w = random_ap_weights(g, 0.5, np.random.default_rng(73))
    f = BandSignal.random_band(g, np.random.default_rng(79), (0, g.k_max))
    peaks = {}
    for name, weights in (("w", w), ("reciprocal", w.reciprocal())):
        F_pq_norm(f, fp, weights, 1.5, 3.0)  # memoises the multipliers
        tracemalloc.start()
        try:
            F_pq_norm(f, fp, weights, 1.5, 3.0)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["reciprocal"] <= peaks["w"], peaks


def test_second_transfer_check_builds_no_weight_power(monkeypatch):
    g = Grid(1, 2, 8, 0, 5)
    fp, w = build_filter_pair(g), random_ap_weights(g, 0.5, np.random.default_rng(67))
    power, builds = w.power, []
    monkeypatch.setattr(w, "power", lambda k, r, out: builds.append((k, r)) or power(k, r, out))
    rng = np.random.default_rng(71)
    transfer_check(BandSignal.random_band(g, rng, (0, 5)), fp, w, 2.0, 2.0)
    # per level: int_Q t_k^2 for the sequence norm, fftn(t_k^2) on the 2M-box for F_22
    assert sorted(builds) == sorted(2 * [(k, 2.0) for k in w.levels])
    builds.clear()
    transfer_check(BandSignal.random_band(g, rng, (0, 5)), fp, w, 2.0, 2.0)
    assert builds == []
