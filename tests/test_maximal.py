import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlw.dyadic import DyadicCube, Grid, GridFunction, indicator
from tlw.errors import LevelMismatchError, LevelRangeError, UndefinedRatioError
from tlw.maximal import (
    MaximalConfig,
    _fold_containing_max,
    _window_averages,
    fs_ratio,
    maximal,
    maximal_sigma,
    scalar_maximal_ratio,
    shifted_maximal_constant,
    weighted_lp_norm,
)
from tlw.weights import exp2_weights, random_ap_weights

from .oracles import (
    naive_containing_max,
    naive_maximal,
    naive_weighted_lp,
    padded_doubling_maximal,
)
from .test_buffered_kernels import traced_peak


def grid1(J=5, L=1):
    return Grid(n=1, L=L, J=J, k_min=0, k_max=3)


def test_indicator_left_half():
    g = grid1()
    cfg = MaximalConfig(g)
    f = indicator(g, DyadicCube(0, (0,)))  # chi_{[0,1)} on the domain [0,2)
    m = maximal(f, cfg)
    left = m.values[: g.cells_per_axis // 2]
    assert np.all(left == 1.0)
    # at x = 1.5 the best in-domain window is the whole box, average 1/2
    cell = int(1.5 / g.h)
    assert m.values[cell] == pytest.approx(0.5, abs=2 * g.h)


def test_pointwise_domination_exact():
    rng = np.random.default_rng(41)
    for n in (1, 2):
        g = Grid(n=n, L=1, J=4, k_min=0, k_max=2)
        f = GridFunction(g, rng.standard_normal(g.shape))
        m = maximal(f, MaximalConfig(g))
        assert np.all(m.values >= np.abs(f.values))


def test_monotonicity_and_scaling_exact():
    rng = np.random.default_rng(43)
    g = grid1(J=4)
    cfg = MaximalConfig(g)
    f = GridFunction(g, rng.standard_normal(g.shape))
    g_bigger = GridFunction(g, np.abs(f.values) + rng.random(g.shape))
    assert np.all(maximal(g_bigger, cfg).values >= maximal(f, cfg).values)
    c = -3.5
    np.testing.assert_allclose(
        maximal(GridFunction(g, c * f.values), cfg).values,
        abs(c) * maximal(f, cfg).values,
        rtol=1e-13,
    )


def test_maximal_matches_naive_oracle():
    rng = np.random.default_rng(47)
    for n, J in ((1, 4), (2, 2)):
        g = Grid(n=n, L=1, J=J, k_min=0, k_max=min(2, J))
        f = GridFunction(g, rng.standard_normal(g.shape))
        cfg = MaximalConfig(g)
        want = naive_maximal(f.values, g)
        got = maximal(f, cfg).values
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n, J", [(1, 6), (2, 3)])
def test_fold_containing_max_matches_cell_oracle_at_every_width(n, J):
    g = Grid(n=n, L=1, J=J, k_min=0, k_max=0)
    N = g.cells_per_axis
    rng = np.random.default_rng(7)
    cells = np.abs(rng.standard_normal(g.shape))
    prior = rng.standard_normal(g.shape)
    work = np.empty((2, cells.size))
    widths = []
    for w, avg in _window_averages(cells.copy(), N, np.empty(cells.size)):
        want = naive_containing_max(avg, w)
        best = np.full(g.shape, -np.inf)
        _fold_containing_max(avg, w, best, work)
        assert np.array_equal(best, want)
        best = prior.copy()
        _fold_containing_max(avg, w, best, work)
        assert np.array_equal(best, np.maximum(prior, want))
        widths.append(w)
    assert widths == [1 << i for i in range(g.J + g.L + 1)]
    assert any(w - 1 > N - w + 1 for w in widths)  # running max held past the last anchor


@given(st.sampled_from([1, 2]), st.integers(0, 2), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_maximal_equals_padded_doubling_bitwise(n, L, seed, data):
    J = data.draw(st.integers(-L, 5 if n == 1 else 3))
    g = Grid(n=n, L=L, J=J, k_min=-L, k_max=J)
    values = np.random.default_rng(seed).standard_normal(g.shape)
    f = GridFunction(g, values.copy())
    got = maximal(f, MaximalConfig(g)).values
    assert np.array_equal(got, padded_doubling_maximal(values))
    assert np.array_equal(f.values, values)


def test_maximal_peaks_within_five_grid_arrays_and_iteration_buffers():
    # best, two average buffers and two work buffers; the padded doubling peaked at 6.25
    g = Grid(2, 2, 6, 0, 3)
    f = GridFunction(g, np.random.default_rng(9).standard_normal(g.shape))
    assert traced_peak(maximal, f, MaximalConfig(g)) / f.values.nbytes <= 6.25


def test_fs_ratio_releases_each_summand_once_it_is_added():
    # inputs drawn inside the traced call as fs_ratio asks for them: one f_k, maximal's 5
    # buffers and the two sums (8.39); the parent needed all K = 4 inputs drawn before the
    # call, and peaked at 6.38 on top of them
    g = Grid(2, 2, 6, 0, 3)
    w = exp2_weights(g, 0.3)
    rng = np.random.default_rng(11)
    drawn = []

    def fs():
        for k in w.levels:
            drawn.append(k)
            yield k, GridFunction(g, rng.standard_normal(g.shape))

    peak = traced_peak(lambda: fs_ratio(fs(), w, 2.0, 2.0, MaximalConfig(g)))
    assert drawn == list(w.levels)
    assert peak / np.empty(g.shape).nbytes <= 8.5


def test_maximal_scaling_roundoff_fine_grid():
    # 2^15 cells: window averages must not pick up roundoff that grows with the
    # cell count; the CLI's maximal_scaling check allows 1e-12 times |c|
    g = Grid(n=1, L=2, J=13, k_min=0, k_max=3)
    cfg = MaximalConfig(g)
    f = GridFunction(g, np.random.default_rng(83).standard_normal(g.shape))
    scaled = maximal(GridFunction(g, -2.5 * f.values), cfg).values
    assert np.abs(scaled - 2.5 * maximal(f, cfg).values).max() <= 2.5e-12


def test_maximal_config_validation():
    g = grid1()
    f = GridFunction.zeros(grid1(J=4))
    with pytest.raises(LevelMismatchError):
        maximal(f, MaximalConfig(g))


def test_maximal_sigma():
    rng = np.random.default_rng(59)
    g = grid1(J=4)
    cfg = MaximalConfig(g)
    f = GridFunction(g, rng.standard_normal(g.shape))
    np.testing.assert_allclose(
        maximal_sigma(f, 1.0, cfg).values, maximal(f, cfg).values, rtol=1e-14
    )
    chi = indicator(g, DyadicCube(1, (1,)))
    np.testing.assert_allclose(
        maximal_sigma(chi, 0.5, cfg).values, maximal(chi, cfg).values ** 2.0, rtol=1e-13
    )
    got = maximal_sigma(f, 0.5, cfg).values
    want = maximal(GridFunction(g, np.abs(f.values) ** 0.5), cfg).values ** 2.0
    np.testing.assert_allclose(got, want, rtol=1e-13)
    with pytest.raises(LevelRangeError):
        maximal_sigma(f, -1.0, cfg)


def test_weighted_lp_norm_examples():
    g = grid1()
    chi = indicator(g, DyadicCube(0, (0,)))
    ones = GridFunction.constant(g, 1.0)
    assert weighted_lp_norm(chi, ones, 2.0) == pytest.approx(1.0, rel=1e-14)
    c = 1.75
    assert weighted_lp_norm(ones, GridFunction.constant(g, c), 1.0) == pytest.approx(
        2 * c, rel=1e-14
    )
    rng = np.random.default_rng(61)
    f = GridFunction(g, rng.standard_normal(g.shape))
    t = GridFunction(g, np.exp(rng.standard_normal(g.shape)))
    for p in (0.5, 1.0, 2.0, math.inf):
        assert weighted_lp_norm(f, t, p) == pytest.approx(
            naive_weighted_lp(f.values, t.values, g, p), rel=1e-13
        )


def test_scalar_ratio_constant_function():
    g = grid1()
    cfg = MaximalConfig(g)
    ones = GridFunction.constant(g, 1.0)
    assert scalar_maximal_ratio(ones, ones, 2.0, cfg) == pytest.approx(1.0, rel=1e-14)


def test_scalar_ratio_zero_signalled():
    g = grid1()
    with pytest.raises(UndefinedRatioError):
        scalar_maximal_ratio(GridFunction.zeros(g), GridFunction.constant(g, 1.0),
                             2.0, MaximalConfig(g))


def test_scalar_ratio_cell_indicator_stable_in_J():
    ratios = {}
    for J in (5, 6):
        g = grid1(J=J)
        f = indicator(g, DyadicCube(g.J, (0,)))
        ratios[J] = scalar_maximal_ratio(f, GridFunction.constant(g, 1.0), 2.0,
                                         MaximalConfig(g))
    assert all(np.isfinite(v) for v in ratios.values())
    a, b = ratios[5], ratios[6]
    assert abs(a - b) <= 0.10 * max(a, b)


def test_fs_ratio_zero_flagged():
    g = grid1(J=4)
    w = exp2_weights(g, 0.3)
    fs = {k: GridFunction.zeros(g) for k in w.levels}
    rep = fs_ratio(fs.items(), w, 2.0, 2.0, MaximalConfig(g))
    assert rep.lhs == rep.rhs == 0.0
    assert rep.ratio is None


def test_fs_ratio_single_level_reduces_to_scalar():
    rng = np.random.default_rng(67)
    g = grid1(J=4)
    w = exp2_weights(g, 0.3)
    cfg = MaximalConfig(g)
    f = GridFunction(g, rng.standard_normal(g.shape))
    fs = {k: GridFunction.zeros(g) for k in w.levels}
    fs[2] = f
    rep = fs_ratio(fs.items(), w, 2.0, 2.0, cfg)
    want = scalar_maximal_ratio(f, w.as_grid_function(2), 2.0, cfg)
    assert rep.ratio == pytest.approx(want, rel=1e-12)


def test_fs_ratio_level_mismatch():
    g = grid1(J=4)
    w = exp2_weights(g, 0.0)
    with pytest.raises(LevelMismatchError):
        fs_ratio({0: GridFunction.zeros(g)}.items(), w, 2.0, 2.0, MaximalConfig(g))


@pytest.mark.parametrize("keys", [[1, 0, 2, 3], [0, 1, 2, 3, 4]], ids=["order", "extra"])
def test_fs_ratio_reads_the_weight_levels_in_order_and_no_more(keys):
    g = grid1(J=4)
    w = exp2_weights(g, 0.0)
    assert list(w.levels) == [0, 1, 2, 3]
    with pytest.raises(LevelMismatchError):
        fs_ratio({k: GridFunction.zeros(g) for k in keys}.items(), w, 2.0, 2.0, MaximalConfig(g))


def test_fs_ratio_refuses_q_inf():
    # the right-hand sum adds q-th powers, which q = inf does not have
    g = grid1(J=4)
    w = exp2_weights(g, 0.0)
    fs = {k: GridFunction.zeros(g) for k in w.levels}
    with pytest.raises(LevelRangeError):
        fs_ratio(fs.items(), w, 2.0, math.inf, MaximalConfig(g))


def test_fs_ratio_stability_under_refinement():
    ratios = {}
    for J in (5, 6):
        g = grid1(J=J)
        rng = np.random.default_rng(71)  # same draw structure per J
        w = exp2_weights(g, 0.3)
        fs = {k: GridFunction(g, np.repeat(rng.standard_normal(2 ** (g.L + 4)),
                                           g.cells_per_axis // 2 ** (g.L + 4)))
              for k in w.levels}
        rep = fs_ratio(fs.items(), w, 2.0, 2.0, MaximalConfig(g))
        ratios[J] = rep.ratio
    a, b = ratios[5], ratios[6]
    assert abs(a - b) <= 0.10 * max(a, b)


def test_shifted_constant_flat_on_exp2():
    # for t_k = 2^{ks} and alpha1 = s the empirical shifted constant is (k,j)-independent
    rng = np.random.default_rng(73)
    g = grid1(J=5)
    s = 0.45
    w = exp2_weights(g, s)
    cfg = MaximalConfig(g)
    f = GridFunction(g, rng.standard_normal(g.shape))
    consts = [
        shifted_maximal_constant(f, w, k, j, 2.0, cfg, alpha1=s)
        for k in w.levels
        for j in w.levels
        if j >= k
    ]
    assert max(consts) == pytest.approx(min(consts), rel=1e-12)
    assert consts[0] == pytest.approx(
        scalar_maximal_ratio(f, GridFunction.constant(g, 1.0), 2.0, cfg), rel=1e-12
    )


def test_shifted_constant_requires_j_ge_k():
    g = grid1(J=4)
    w = exp2_weights(g, 0.0)
    f = GridFunction.constant(g, 1.0)
    with pytest.raises(LevelRangeError):
        shifted_maximal_constant(f, w, 3, 1, 2.0, MaximalConfig(g), alpha1=0.0)


def test_weighted_ratio_stable_for_ap_fixture():
    ratios = {}
    for J in (5, 6):
        g = grid1(J=J)
        rng = np.random.default_rng(79)
        w = random_ap_weights(g.with_levels(0, 0), 0.0, rng)  # degenerate: all ones
        coarse = rng.standard_normal(2 ** (g.L + 4))
        f = GridFunction(g, np.repeat(coarse, g.cells_per_axis // 2 ** (g.L + 4)))
        ratios[J] = scalar_maximal_ratio(f, w.as_grid_function(0), 2.0, MaximalConfig(g))
    a, b = ratios[5], ratios[6]
    assert abs(a - b) <= 0.10 * max(a, b)
