import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlw.maximal
from tlw.dyadic import DyadicCube, Grid, GridFunction, indicator
from tlw.errors import LevelMismatchError, LevelRangeError, UndefinedRatioError
from tlw.maximal import (
    MaximalConfig,
    _fold,
    _split_cascade,
    fs_ratio,
    maximal,
    maximal_sigma,
    scalar_maximal_ratio,
    shifted_maximal_constant,
    weighted_lp_norm,
)
from tlw.weights import WeightSequence, exp2_weights, random_ap_weights

from .oracles import (
    naive_cascade_step,
    naive_dyadic_maximal_1d,
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
def test_cascade_step_matches_anchor_loop_at_every_width(n, J):
    # the cascade holds width w in rows of the N cells of a grid row; the cells past the
    # last anchor hold junk, here larger than every average, so a step that reads it fails
    g = Grid(n=n, L=1, J=J, k_min=0, k_max=0)
    N = g.cells_per_axis
    offs = (N, 1) if n == 2 else (1,)
    rng = np.random.default_rng(7)
    widths = [1 << i for i in range(g.L + g.J)]
    for w in widths:
        held = []
        for v in (w, 2 * w):
            rows = 10.0 + rng.random((N - v + 1,) + (N,) * (n - 1))
            anchors = (slice(None),) + (slice(N - v + 1),) * (n - 1)
            rows[anchors] = rng.random(rows[anchors].shape)
            held.append((rows, anchors))
        (avg, anchors), (upper, upper_anchors) = held
        want = naive_cascade_step(avg[anchors], upper[upper_anchors], w)
        _fold(avg.reshape(-1), upper.reshape(-1), w, offs)
        assert np.array_equal(avg[anchors], want)
    assert widths[-1] == N // 2  # the top step: one 2w-anchor, clipped on every side


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_split_cascade_matches_the_loop_oracles_at_every_depth(depth):
    # the odd residue classes have sides that are no power of two, and their top width
    # is below half their side; in 2-D three of the four classes are not square
    rng = np.random.default_rng(17)
    for m in range(1, 70):
        values = rng.standard_normal(m)
        res = np.abs(values)
        _split_cascade(res, depth)
        assert np.array_equal(res, naive_dyadic_maximal_1d(values)), m
    for m in (2, 4, 8, 16, 32):
        values = rng.standard_normal((m, m))
        res = np.abs(values)
        _split_cascade(res, depth)
        assert np.array_equal(res, padded_doubling_maximal(values)), m


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
    # |f| folded into M and the work area, every other width and a spare in rows of
    # 256 cells (3.68 arrays): 4.69; the containing max per width peaked at 5.38, the
    # padded doubling at 6.25
    g = Grid(2, 2, 6, 0, 3)
    f = GridFunction(g, np.random.default_rng(9).standard_normal(g.shape))
    assert traced_peak(maximal, f, MaximalConfig(g)) / f.values.nbytes <= 6.25


@pytest.mark.parametrize("n, L, J, budget", [(1, 2, 12, 4.25), (2, 2, 7, 3.25)])
def test_maximal_on_residue_classes_peaks_within_its_budget(n, L, J, budget):
    # unsplit, the store of every other width would take 6.7 grid arrays at 2^14 cells
    # (7.70 peak) and 4.3 at 512^2; split into the residue classes mod 4 (1-D) or mod 2
    # (2-D) of the width-2 anchors it peaks at 3.96 and 2.92: |f| folded into M, the
    # width-2 averages (one array), in 1-D those of width 4 (half), and the store of
    # one class; the containing max per width peaked at 5.03 and 5.10
    g = Grid(n, L, J, 0, 0)
    f = GridFunction(g, np.random.default_rng(9).standard_normal(g.shape))
    assert traced_peak(maximal, f, MaximalConfig(g)) / f.values.nbytes <= budget


def test_fs_ratio_releases_each_summand_once_it_is_added():
    # inputs drawn inside the traced call as fs_ratio asks for them: one f_k, maximal's
    # |f| and work area, and the two sums (7.69); drawing all K = 4 inputs before the
    # call peaked at 6.38 on top of them
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


def test_fs_ratio_on_reciprocal_weights_equals_stored_reciprocals_in_the_same_memory():
    # fs_ratio reads each level twice, and a reciprocal forms the level read alone; the
    # peak stays that of stored reciprocals, since no level is held across maximal
    g = Grid(2, 2, 5, 0, 3)
    w = random_ap_weights(g, 0.5, np.random.default_rng(3))
    stored = WeightSequence(g, {k: 1.0 / v for k, v in w.tk.items()})

    def ratio(weights):
        rng = np.random.default_rng(1)
        fs = ((k, GridFunction(g, rng.standard_normal(g.shape))) for k in w.levels)
        return fs_ratio(fs, weights, 2.0, 2.0, MaximalConfig(g))

    assert ratio(w.reciprocal()) == ratio(stored)
    unit = np.empty(g.shape).nbytes
    assert traced_peak(ratio, w.reciprocal()) <= traced_peak(ratio, stored) + 0.05 * unit


class _WriteCounter:
    """numpy as `tlw.maximal` sees it, counting the elements each ufunc call writes."""

    def __init__(self):
        self.written = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.written += out.size
            return out
        return counted


@pytest.mark.parametrize("n, Js", [(1, (6, 14)), (2, (3, 7))])
def test_maximal_writes_a_constant_times_cells_per_width(monkeypatch, n, Js):
    # per width at most 2n passes of doubling, n more for the half that is doubled again,
    # and 2^n clipped maxima: 5 in 1-D and 10 in 2-D (a 2-D pass also writes the junk
    # past each row's last anchor), and a residue split adds 2n + 2^n passes once; it
    # read 3.5 and 4.1 in 1-D, 5.6 and 7.1 in 2-D.  A containing max per width grows as
    # cells * widths^2
    per_cell_width = []
    for J in Js:
        g = Grid(n, 2, J, 0, 0)
        counter = _WriteCounter()
        monkeypatch.setattr(tlw.maximal, "np", counter)
        maximal(GridFunction(g, np.ones(g.shape)), MaximalConfig(g))
        monkeypatch.undo()
        per_cell_width.append(counter.written / (np.ones(g.shape).size * (g.L + g.J + 1)))
    assert max(per_cell_width) <= 10.0, per_cell_width


@pytest.mark.parametrize("n, L, J", [(1, 2, 12), (2, 2, 5), (2, 2, 7)])
def test_maximal_commutes_with_the_symmetries_of_the_box(n, L, J):
    # at 2^14 cells and at 512^2, sizes no oracle reaches, and at 128^2, where no residue
    # split runs; a reflection maps every doubling sum to the same sum with its terms
    # swapped, so M maps bit for bit; swapping the axes swaps the order of the two passes,
    # so M maps to roundoff; the mapped inputs are strided views, not C-ordered arrays
    g = Grid(n, L, J, 0, 0)
    cfg = MaximalConfig(g)
    values = np.random.default_rng(19).standard_normal(g.shape)
    m = maximal(GridFunction(g, values), cfg).values
    for ax in range(n):
        reflected = maximal(GridFunction(g, np.flip(values, ax)), cfg).values
        assert np.array_equal(reflected, np.flip(m, ax))
    if n == 2:
        swapped = maximal(GridFunction(g, values.T), cfg).values
        np.testing.assert_allclose(swapped, m.T, rtol=1e-15, atol=0)


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
