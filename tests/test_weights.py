import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlw.dyadic import DyadicCube, Grid, GridFunction, block_reduce, cubes_at_level
from tlw.errors import LevelRangeError, PositivityError, TlwError
from tlw.weights import (
    WeightSequence,
    alpha_consistency,
    ap_constant,
    ap_duality_identity,
    cube_mean_p,
    exp2_weights,
    per_cube_ap_value,
    power_profile,
    random_ap_weights,
    subset_mean_bound,
    verify_x_class,
)

from .oracles import naive_ap_constant, naive_cube_mean_p

INF = math.inf


def grid1(L=1, J=5, k_min=0, k_max=3):
    return Grid(n=1, L=L, J=J, k_min=k_min, k_max=k_max)


def test_cube_mean_constant():
    g = grid1()
    t = GridFunction.constant(g, 2.0)
    for p in (0.5, 1.0, 2.0, INF):
        assert cube_mean_p(t, DyadicCube(0, (0,)), p) == pytest.approx(2.0, rel=1e-15)


def test_cube_mean_half_indicator():
    g = grid1()
    vals = np.zeros(g.shape)
    vals[: g.cells_per_axis // 4] = 1.0  # left half of [0, 1)
    t = GridFunction(g, vals)
    assert cube_mean_p(t, DyadicCube(0, (0,)), 1.0) == pytest.approx(0.5, rel=1e-15)


def test_cube_mean_power_refines_to_integral():
    # mean of x^2 over [0,1) is 1/3, so the L_2 mean tends to 3^{-1/2}
    for J in (6, 10):
        g = Grid(n=1, L=0, J=J, k_min=0, k_max=0)
        t = GridFunction(g, g.cell_centers())
        got = cube_mean_p(t, DyadicCube(0, (0,)), 2.0)
        assert abs(got - 3.0 ** -0.5) < 2.0 ** -J


def test_cube_mean_matches_oracle():
    rng = np.random.default_rng(5)
    g = Grid(n=2, L=1, J=3, k_min=0, k_max=2)
    t = GridFunction(g, np.exp(rng.standard_normal(g.shape)))
    for cube in (DyadicCube(0, (1, 0)), DyadicCube(2, (3, 5)), DyadicCube(-1, (0, 0))):
        for p in (0.7, 1.0, 2.0, INF):
            assert cube_mean_p(t, cube, p) == pytest.approx(
                naive_cube_mean_p(t.values, g, cube, p), rel=1e-13
            )


def test_cube_mean_bad_exponent():
    g = grid1()
    with pytest.raises(LevelRangeError):
        cube_mean_p(GridFunction.constant(g, 1.0), DyadicCube(0, (0,)), -1.0)


def test_ap_constant_trivial_weight():
    g = grid1()
    rep = ap_constant(GridFunction.constant(g, 1.0), 2.0)
    assert rep.constant == pytest.approx(1.0, abs=1e-15)
    assert sorted(rep.products) == list(range(-g.L, g.J + 1))


def test_ap_two_cell_example():
    g = grid1(L=0, J=4, k_min=0, k_max=0)
    vals = np.where(g.cell_centers() < 0.5, 1.0, 4.0)
    gamma = GridFunction(g, vals)
    got = per_cube_ap_value(gamma, 2.0, DyadicCube(0, (0,)))
    assert got == pytest.approx(2.5 * 0.625, rel=1e-14)


def test_ap_jensen_lower_bound():
    rng = np.random.default_rng(13)
    g = grid1(J=4)
    for _ in range(10):
        gamma = GridFunction(g, np.exp(rng.uniform(-1, 1, g.shape)))
        for p in (1.0, 1.5, 2.0, 3.0):
            rep = ap_constant(gamma, p)
            assert rep.constant >= 1.0 - 1e-13


def test_ap_positivity_error():
    g = grid1()
    vals = np.ones(g.shape)
    vals[3] = 0.0
    with pytest.raises(PositivityError):
        ap_constant(GridFunction(g, vals), 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ap_positivity_rejects_nan_and_inf(bad):
    g = grid1()
    vals = np.ones(g.shape)
    vals[3] = bad
    gamma = GridFunction(g, vals)
    with pytest.raises(PositivityError):
        per_cube_ap_value(gamma, 2.0, DyadicCube(0, (0,)))
    with pytest.raises(PositivityError):
        ap_constant(gamma, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("axis", [0, 1, None])
def test_broadcast_levels_with_a_bad_stored_value_are_refused(bad, axis):
    # one bad value in the stored line of a view broadcast along the other axis, or
    # (axis None) a constant level that is one bad value broadcast along both
    g = Grid(n=2, L=1, J=2, k_min=0, k_max=0)
    line = np.ones(g.cells_per_axis)
    line[3] = bad
    view = np.broadcast_to(np.float64(bad) if axis is None else
                           line.reshape((-1, 1) if axis == 0 else (1, -1)), g.shape)
    with pytest.raises(PositivityError):
        WeightSequence(g, {0: view})
    with pytest.raises(PositivityError):
        ap_constant(GridFunction(g, view), 2.0)


def _audit_family(g):
    """Every cube of level -L..J, coarsest first and row-major within a level."""
    return [cube for k in range(-g.L, g.J + 1) for cube in cubes_at_level(g, k)]


def test_ap_constant_first_maximum_wins():
    # a constant weight ties every cube at exactly 1; the witness is the domain cube
    g = Grid(n=2, L=1, J=2, k_min=0, k_max=0)
    gamma = GridFunction.constant(g, 3.0)
    rep = ap_constant(gamma, 2.0)
    want_cube = naive_ap_constant(gamma, 2.0, _audit_family(g))[1]
    assert rep.constant == 1.0
    assert rep.argmax_cube == want_cube == DyadicCube(-1, (0, 0))


@st.composite
def ap_audit_cases(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 1))
    J = draw(st.integers(1, 4 if n == 1 else 3))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    spread = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    g = Grid(n=n, L=L, J=J, k_min=0, k_max=0)
    rng = np.random.default_rng(seed)
    gamma = GridFunction(g, np.exp(rng.uniform(-spread, spread, g.shape)))
    return g, gamma, p, rng


@given(ap_audit_cases())
@settings(max_examples=40, deadline=None)
def test_ap_constant_matches_per_cube_oracle(case):
    # every level's product array holds per_cube_ap_value of each of its cubes
    g, gamma, p, rng = case
    fam = _audit_family(g)
    rep = ap_constant(gamma, p)
    want, want_cube, want_values = naive_ap_constant(gamma, p, fam)
    got_values = [rep.products[c.level][c.index] for c in fam]
    np.testing.assert_allclose(got_values, want_values, rtol=1e-14, atol=0)
    assert sum(a.size for a in rep.products.values()) == len(fam)
    assert abs(rep.constant - want) <= 1e-14 * want
    runner_up = max((v for v, c in zip(want_values, fam) if c != want_cube), default=-INF)
    if runner_up < want * (1 - 1e-12):  # unique maximum: the witness must agree
        assert rep.argmax_cube == want_cube


def _origin_cube_value_closed_form(J, j, p):
    """Per-cube Muckenhoupt product of gamma(x)=x+h/2 on [0, 2^-j), by direct sums."""
    h = 2.0**-J
    w = 2 ** (J - j)
    centers = [(i + 0.5) * h for i in range(w)]
    mean = sum(centers) / w
    pp = p / (p - 1.0)
    inv_mean = (sum(c ** -(pp / p) for c in centers) / w) ** (p / pp)
    return mean * inv_mean


def test_power_weight_origin_cubes():
    # p = 2: the origin-cube value grows slowly (log-like) and stays finite at fixed J;
    # p = 1.5 (alpha = 1 >= n(p-1)): it grows like 2^{(J-j)/2}, a power per doubling.
    J = 8
    g = Grid(n=1, L=0, J=J, k_min=0, k_max=0)
    gamma = GridFunction(g, power_profile(g, 1.0))
    for p in (2.0, 1.5):
        vals = []
        for j in range(J + 1):
            got = per_cube_ap_value(gamma, p, DyadicCube(j, (0,)))
            assert got == pytest.approx(_origin_cube_value_closed_form(J, j, p), rel=1e-12)
            vals.append(got)
        # vals[j] for the cube [0, 2^-j); growth happens as the cube widens (j down)
        if p == 1.5:
            ratios = [vals[j] / vals[j + 1] for j in range(J - 2)]
            for r in ratios:
                assert r == pytest.approx(math.sqrt(2.0), rel=0.15)
        else:
            ratios = [vals[j] / vals[j + 1] for j in range(J - 2)]
            assert all(1.0 < r < 1.35 for r in ratios)  # subgeometric growth


def test_power_weight_family_sup_off_origin_small():
    g = Grid(n=1, L=0, J=6, k_min=0, k_max=0)
    gamma = GridFunction(g, power_profile(g, 1.0))
    products = ap_constant(gamma, 2.0).products
    away = products[3][4:].max()  # level-3 cubes in [1/2, 1)
    near = max(products[j][0] for j in range(7))  # the cubes [0, 2^-j)
    assert near > 2.0 * away  # origin cubes drive the sup


def test_ap_duality_trivial_and_two_level():
    g = grid1(L=0, J=4, k_min=0, k_max=0)
    ones = GridFunction.constant(g, 1.0)
    a, b = ap_duality_identity(ones, 2.0, DyadicCube(0, (0,)))
    assert (a, b) == (pytest.approx(1.0), pytest.approx(1.0))
    vals = np.where(g.cell_centers() < 0.5, 1.0, 4.0)
    a, b = ap_duality_identity(GridFunction(g, vals), 2.0, DyadicCube(0, (0,)))
    assert a == pytest.approx(1.5625, rel=1e-13)
    assert b == pytest.approx(1.5625, rel=1e-13)


def test_ap_duality_random_weights():
    rng = np.random.default_rng(17)
    g = grid1(J=4)
    fam = _audit_family(g)
    for _ in range(20):
        gamma = GridFunction(g, np.exp(rng.uniform(-1.5, 1.5, g.shape)))
        cube = fam[int(rng.integers(len(fam)))]
        for p in (1.5, 2.0, 3.0, 8.0):
            a, b = ap_duality_identity(gamma, p, cube)
            assert abs(a - b) / b <= 1e-12


def test_ap_duality_p1_unsupported():
    g = grid1()
    with pytest.raises(LevelRangeError):
        ap_duality_identity(GridFunction.constant(g, 1.0), 1.0, DyadicCube(0, (0,)))


def test_x_class_exp2_exact():
    g = grid1()
    s = 0.7
    w = exp2_weights(g, s)
    rep = verify_x_class(w, s, s, 2.0, 2.0, 2.0)
    assert abs(rep.C1 - 1.0) <= 1e-12
    assert abs(rep.C2 - 1.0) <= 1e-12


def test_x_class_overdeclared_alpha_grows():
    g = grid1()
    s = 0.5
    w = exp2_weights(g, s)
    rep = verify_x_class(w, s + 1.0, s, 2.0, 2.0, 2.0)
    # candidates grow like 2^{j-k}; the fitted growth rate pins the failure
    assert rep.growth_rate(1) == pytest.approx(1.0, abs=1e-9)
    assert rep.C1 == pytest.approx(2.0 ** (g.k_max - g.k_min), rel=1e-12)
    assert rep.witness1.j - rep.witness1.k == g.k_max - g.k_min
    assert not rep.validates()


def test_x_class_names_a_level_whose_cube_values_are_nan():
    # `tlw run` refuses these weights up front; built directly, t_3^2 = 2^1800 is inf.  The
    # profile keeps each level a grid array: a constant level's cube means are its value
    g = Grid(n=1, L=2, J=6, k_min=0, k_max=3)
    w = exp2_weights(g, 300.0, omega=np.ones(g.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TlwError, match="^level -2: cube values include NaN"):
            verify_x_class(w, 300.0, 300.0, 2.0, 2.0, 2.0)


def test_cube_and_reciprocal_three_halves_powers_within_3_ulp_of_np_power():
    # t^3 is t*t*t and (1/t)^{3/2} is 1/(t sqrt(t)); np.power forms both in its general path
    g = Grid(n=1, L=2, J=10, k_min=0, k_max=3)
    w = random_ap_weights(g, 30.0, np.random.default_rng(4))  # t over e^{-30}..e^{30}
    for k in w.levels:
        t = w.tk[k]
        for got, want, ulps in ((w.power(k, 3.0, np.empty(g.shape)), np.power(t, 3.0), 1),
                                (w.reciprocal().power(k, 1.5, np.empty(g.shape)),
                                 np.power(1.0 / t, 1.5), 3)):
            assert np.all(np.abs(got - want) <= ulps * np.spacing(want)), k


def test_reciprocal_forms_only_the_level_it_reads():
    # each read of a reciprocal level used to form 1/t for every level: 4 grid arrays here
    g = Grid(n=2, L=2, J=5, k_min=0, k_max=3)
    w = random_ap_weights(g, 0.5, np.random.default_rng(3))
    r = w.reciprocal()
    unit = np.empty(g.shape).nbytes
    for k in w.levels:
        for read in (r.level_values, r.tk.__getitem__):
            tracemalloc.start()
            try:
                got = read(k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / unit <= 1.01, (k, peak / unit)
            assert np.array_equal(got, 1.0 / w.tk[k])
    assert list(r.tk) == list(w.levels) == [k for k, _ in r.tk.items()]
    with pytest.raises(LevelRangeError):
        r.level_values(g.k_max + 1)


def test_x_class_exp2_times_ap_weight():
    # t_k = 2^{ks} omega with omega^p in A_{p/r}: finite constants, stable under refinement
    s, p, r = 0.3, 2.0, 1.0
    sigma1 = r * (p / r) / (p / r - 1.0)  # r * (p/r)'
    reports = []
    for J in (4, 5):
        g = Grid(n=1, L=1, J=J, k_min=0, k_max=3)
        w = exp2_weights(g, s, omega=power_profile(g, 0.3))
        reports.append(verify_x_class(w, s, s, sigma1, p, p))
    for rep in reports:
        assert np.isfinite(rep.C1) and np.isfinite(rep.C2)
        assert abs(rep.growth_rate(1)) < 0.05 and abs(rep.growth_rate(2)) < 0.05
    assert reports[1].C1 <= reports[0].C1 * 1.5 + 1.0  # no blow-up under refinement


def test_alpha_consistency_exp2():
    g = grid1()
    s = 0.4
    w = exp2_weights(g, s)
    rep = verify_x_class(w, s, s, 2.0, 2.0, 2.0)
    assert alpha_consistency(rep, s, s, 2.0, 2.0, 2.0)


def test_alpha_consistency_preconditions():
    g = grid1()
    w = exp2_weights(g, 0.0)
    rep = verify_x_class(w, 0.0, 0.0, 2.0, 2.0, 2.0)
    with pytest.raises(LevelRangeError):
        alpha_consistency(rep, 0.0, 0.0, 2.0, 1.0, 2.0)  # sigma2 < p
    bad = verify_x_class(exp2_weights(g, 1.0), 2.0, 1.0, 2.0, 2.0, 2.0)
    with pytest.raises(LevelRangeError):
        alpha_consistency(bad, 2.0, 1.0, 2.0, 2.0, 2.0)  # unvalidated report


def test_alpha_consistency_randomized_search_no_counterexample():
    # any validated report must come with alpha2 >= alpha1; search for violations
    rng = np.random.default_rng(23)
    g = Grid(n=1, L=1, J=4, k_min=0, k_max=2)
    p = 2.0
    for _ in range(20):
        w = random_ap_weights(g, 0.4, rng, p=p)
        rep = verify_x_class(w, 0.0, 0.0, p, p, p)
        a1_head = math.log2(rep.lag_profile1.get(1, rep.C1) + 1e-300)
        a2_head = math.log2(rep.lag_profile2.get(1, rep.C2) + 1e-300)
        # sharpest decays the family itself supports at lag 1 (relative to lag 0)
        alpha1 = -a1_head + math.log2(rep.lag_profile1[0])
        alpha2 = a2_head - math.log2(rep.lag_profile2[0])
        srep = verify_x_class(w, alpha1, alpha2, p, p, p)
        if srep.validates(growth_tol=0.6):
            assert alpha2 >= alpha1 - 1e-9


def test_subset_mean_bound_holds_with_audited_constant():
    rng = np.random.default_rng(29)
    g = grid1(J=4)
    gamma = GridFunction(g, np.exp(rng.uniform(-1, 1, g.shape)))
    p = 2.0
    rep = ap_constant(gamma, p)
    cube = DyadicCube(0, (0,))
    w = 2 ** (g.J - 0)
    for _ in range(20):
        mask = rng.random(w) < 0.6
        if not mask.any():
            continue
        lhs, rhs = subset_mean_bound(gamma, p, cube, mask, rep.constant)
        assert lhs <= rhs * (1 + 1e-12)


def test_weight_sequence_validation():
    g = grid1()
    tk = {k: np.ones(g.shape) for k in g.levels}
    tk[1][0] = -1.0
    with pytest.raises(PositivityError):
        WeightSequence(g, tk)
    for bad in (np.inf, np.nan):
        tk[1][0] = bad
        with pytest.raises(PositivityError):
            WeightSequence(g, tk)
    with pytest.raises(Exception):
        WeightSequence(g, {k: np.ones(3) for k in g.levels})


def test_weight_shift():
    g = Grid(n=1, L=1, J=5, k_min=0, k_max=4)
    w = exp2_weights(g, 1.0)
    shifted = w.shifted(1, levels=range(1, 4))
    for k in range(1, 4):
        assert shifted.level_values(k)[0] == pytest.approx(2.0 ** (k - 1))
    with pytest.raises(LevelRangeError):
        w.shifted(10)


def test_reciprocal_roundtrip():
    rng = np.random.default_rng(37)
    g = grid1()
    w = random_ap_weights(g, 0.8, rng)
    back = w.reciprocal().reciprocal()
    for k in w.levels:
        np.testing.assert_allclose(back.level_values(k), w.level_values(k), rtol=1e-15)


@given(st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=15, deadline=None)
def test_exp2_class_constants_are_one(s):
    g = Grid(n=1, L=1, J=4, k_min=0, k_max=2)
    rep = verify_x_class(exp2_weights(g, s), s, s, 2.0, 2.0, 2.0)
    assert abs(rep.C1 - 1.0) <= 1e-11
    assert abs(rep.C2 - 1.0) <= 1e-11


def test_exp2_levels_are_broadcast_views_holding_no_grid_array():
    g = Grid(2, 2, 7, 0, 4)
    tracemalloc.start()
    try:
        w = exp2_weights(g, 0.3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one = np.empty(g.shape).nbytes
    assert peak < one / 16 and kept < one / 16  # the positivity scan reads each value once
    for k in g.levels:
        assert w.tk[k].strides == (0, 0) and not w.tk[k].flags.writeable
        assert w.tk[k][0, 0] == 2.0 ** (k * 0.3)


@pytest.mark.parametrize("reciprocal", [False, True], ids=["t", "1/t"])
def test_box_samples_of_a_broadcast_level_hold_no_grid_array(reciprocal):
    # N^n c^r from one cell; the full-grid FFT route peaked at 6.2 arrays and kept one
    g = Grid(2, 2, 6, 0, 4)
    w = exp2_weights(g, 0.3)
    w = w.reciprocal() if reciprocal else w
    tracemalloc.start()
    try:
        got = w.box_samples(g.k_max, 2.0, g.cells_per_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.empty(g.shape).nbytes / 16
    assert got.shape == g.shape and got.strides == (0, 0) and not got.flags.writeable
    c = 2.0 ** (g.k_max * 0.3 * (-1 if reciprocal else 1))
    assert got[0, 0] == pytest.approx(g.cells_per_axis**2 * c**2, rel=1e-14)


@pytest.mark.parametrize("s, level", [(1000.0, 2), (-1000.0, 2), (5000.0, 1)])
def test_exp2_weights_refuse_a_level_that_is_not_finite_or_positive(s, level):
    # 2^{1000 k} overflows from k = 2 on; 2^{-1000 k} underflows to 0 there
    with pytest.raises(PositivityError, match=f"t_{level}"):
        exp2_weights(Grid(1, 1, 4, 0, 3), s)


def _canonical(x):
    """x with every array and float as (dtype, shape, bytes), so == compares bit for bit."""
    if isinstance(x, dict):
        return tuple((k, _canonical(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return _canonical(vars(x))
    if isinstance(x, (np.ndarray, float)):
        a = np.asarray(x)
        return a.dtype.str, a.shape, a.tobytes()
    return x


@given(st.sampled_from([1, 2]), st.integers(2, 3), st.floats(-1.0, 1.0), st.data())
@settings(max_examples=20, deadline=None)
def test_broadcast_exp2_levels_compute_as_materialised_levels(n, L, s, data):
    from tlw.maximal import MaximalConfig, fs_ratio, scalar_maximal_ratio
    from tlw.phitransform import BandSignal, F_pq_norm, build_filter_pair
    from tlw.seqspace import CoeffField, f_inf_norm, f_pq_norm, m_p_levels

    J = data.draw(st.integers(0, 4 if n == 1 else 2))
    k_min = data.draw(st.integers(-L, J))
    g = Grid(n, L, J, k_min, data.draw(st.integers(k_min, J)))
    broadcast = exp2_weights(g, s)
    copy = WeightSequence(g, {k: np.array(broadcast.tk[k]) for k in g.levels}, broadcast.meta)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cfg, N = MaximalConfig(g), g.cells_per_axis
    f = GridFunction(g, rng.standard_normal(g.shape))
    fs = {k: GridFunction(g, rng.standard_normal(g.shape)) for k in g.levels}
    lam = CoeffField.random(g, rng)
    band = BandSignal(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    fp = build_filter_pair(g)

    def results(w):
        out = []
        for k in g.levels:
            for r in (1.0, 0.5, -2.0):
                out += [w.power(k, r, np.empty(g.shape)),
                        w.reciprocal().power(k, r, np.empty(g.shape)), w.cube_integral(k, r)]
            M = min(2 << (L + k), N)
            out += [w.box_samples(k, 2.0, M), w.reciprocal().box_samples(k, 2.0, M),
                    w.box_samples(k, -1.0, M)]
            out += [ap_constant(w.as_grid_function(k), p) for p in (1.0, 2.0, 3.0)]
        return out + [
            scalar_maximal_ratio(f, w.as_grid_function(g.k_min), 2.0, cfg),
            fs_ratio(fs.items(), w, 2.0, 3.0, cfg),
            m_p_levels(lam, w, 2.0),  # a quartile picks one summand: the same on the lattice
            F_pq_norm(band, fp, w, 1.5, 3.0), F_pq_norm(band, fp, w, 3.0, INF),
        ]

    assert [_canonical(x) for x in results(broadcast)] == [_canonical(x) for x in results(copy)]
    # Broadcast levels sweep the lattice, and x-class reads a constant level's cube means
    # from its one value: these sum in another order.  Every x-class cube ties at the exact
    # value, so the witness is wherever roundoff puts the first maximum; it is not compared.
    for norm in (lambda w: f_pq_norm(lam, w, 1.5, 3.0), lambda w: f_inf_norm(lam, w, 2.0)):
        assert norm(broadcast) == pytest.approx(norm(copy), rel=1e-14)
    got, want = (verify_x_class(w, s, s, 2.0, 2.0, 2.0) for w in (broadcast, copy))
    assert (got.C1, got.C2) == pytest.approx((want.C1, want.C2), rel=1e-14)
    assert got.lag_profile1 == pytest.approx(want.lag_profile1, rel=1e-14)
    assert got.lag_profile2 == pytest.approx(want.lag_profile2, rel=1e-14)


def test_reciprocal_refuses_a_weight_whose_reciprocal_overflows():
    g = grid1()
    tk = {k: np.ones(g.shape) for k in g.levels}
    tk[g.k_max][0] = 1e-309  # positive and finite, but 1/t is inf
    with pytest.raises(PositivityError):
        WeightSequence(g, tk).reciprocal()


def test_reciprocal_scans_for_overflow_once_per_base():
    # a level swapped in after the first scan (bypassing the constructor) is not rescanned
    g = grid1()
    w = WeightSequence(g, {k: np.ones(g.shape) for k in g.levels})
    w.reciprocal()
    w.tk[g.k_max] = np.full(g.shape, 1e-309)
    w.reciprocal()
    with pytest.raises(PositivityError):
        WeightSequence(g, dict(w.tk)).reciprocal()


def fresh_cube_integral(w, k, r):
    g = w.grid
    return block_reduce(w.power(k, r, np.empty(g.shape)), g.side_cells(k)) * g.cell_volume


@pytest.mark.parametrize("g", [grid1(), Grid(2, 1, 3, 0, 2)], ids=["1d", "2d"])
def test_cube_integrals_are_memoised_read_only_and_kept_apart_from_the_reciprocal(g):
    w = random_ap_weights(g, 0.8, np.random.default_rng(41))
    for k in w.levels:
        inv = w.reciprocal().cube_integral(k, 2.0)  # first, so a shared cache would hand it back
        got = w.cube_integral(k, 2.0)
        assert got is w.cube_integral(k, 2.0)
        assert inv is w.reciprocal().cube_integral(k, 2.0)
        assert np.array_equal(got, fresh_cube_integral(w, k, 2.0))
        assert np.array_equal(inv, fresh_cube_integral(w.reciprocal(), k, 2.0))
        assert not np.array_equal(got, inv)
        assert np.array_equal(w.cube_integral(k, -1.5), fresh_cube_integral(w, k, -1.5))
        assert not (got.flags.writeable or inv.flags.writeable or w.tk[k].flags.writeable)
        assert np.array_equal(w.cube_norm(k, 2.0), got ** 0.5)


def test_weights_stay_free_of_reference_cycles_after_reciprocal_integrals():
    g = grid1()
    tk = {k: np.full(g.shape, 2.0) for k in g.levels}
    enabled = gc.isenabled()
    gc.disable()  # so only reference counting can free w
    try:
        w = WeightSequence(g, tk)
        w.reciprocal().cube_norm(g.k_max, 2.0)
        ref = weakref.ref(w)
        del w
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert tk[g.k_min].flags.writeable  # the caller's arrays are left writable


def fresh_box_samples(w, k, r, M):
    box = np.fft.fftfreq(M, 1 / M).astype(int) % w.grid.cells_per_axis
    spec = np.fft.fftn(w.power(k, r, np.empty(w.grid.shape)))[np.ix_(*[box] * w.grid.n)]
    return M**w.grid.n * np.fft.ifftn(spec).real


@pytest.mark.parametrize("g", [grid1(), Grid(2, 1, 3, 0, 2)], ids=["1d", "2d"])
def test_box_spectra_are_memoised_read_only_and_kept_apart_from_the_reciprocal(g):
    w = random_ap_weights(g, 0.8, np.random.default_rng(43))
    for k in w.levels:
        for M in (1, 2, 2 ** (g.L + k + 1), g.cells_per_axis):
            inv = w.reciprocal().box_samples(k, 2.0, M)  # first, as in the integral test
            got = w.box_samples(k, 2.0, M)
            assert got.shape == (M,) * g.n and got.dtype == inv.dtype == float
            assert got is w.box_samples(k, 2.0, M)
            assert inv is w.reciprocal().box_samples(k, 2.0, M)
            assert not (got.flags.writeable or inv.flags.writeable)
            scale = np.abs(fresh_box_samples(w, k, 2.0, g.cells_per_axis)).max()
            assert np.abs(got - fresh_box_samples(w, k, 2.0, M)).max() <= 1e-14 * scale
            scale = np.abs(fresh_box_samples(w.reciprocal(), k, 2.0, g.cells_per_axis)).max()
            assert np.abs(inv - fresh_box_samples(w.reciprocal(), k, 2.0, M)).max() <= 1e-14 * scale
            assert not np.array_equal(got, inv)


def test_shifted_weights_build_their_own_box_spectra():
    g = grid1()
    w = random_ap_weights(g, 0.8, np.random.default_rng(47))
    shifted = w.shifted(1, levels=range(1, 4))
    built = {k: shifted.box_samples(k, 2.0, 8) for k in shifted.levels}
    assert not w._arrays  # the shift keeps its spectra to itself
    for k, got in built.items():
        assert got is shifted.box_samples(k, 2.0, 8)
        assert np.array_equal(got, w.box_samples(k - 1, 2.0, 8))  # the same t_{k-1}^2
        assert got is not w.box_samples(k - 1, 2.0, 8)


def test_weights_stay_free_of_reference_cycles_after_box_spectra():
    g = grid1()
    tk = {k: np.full(g.shape, 2.0) for k in g.levels}
    enabled = gc.isenabled()
    gc.disable()  # so only reference counting can free w
    try:
        w = WeightSequence(g, tk)
        w.box_samples(g.k_max, 2.0, 8)
        w.reciprocal().box_samples(g.k_max, 2.0, 8)
        ref = weakref.ref(w)
        del w
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
