import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlw.dyadic import DyadicCube, Grid, block_reduce, cubes_at_level
from tlw.errors import (
    LevelMismatchError,
    LevelRangeError,
    PositivityError,
    ResolutionError,
)
from tlw.seqspace import (
    CoeffField,
    RestrictionSets,
    f_inf_norm,
    f_inf_norm_cubeavg,
    f_pq_norm,
    f_pq_norm_star,
    g_p,
    lambda_star,
    lambda_star_equivalence,
    m_fun,
    m_fun_p_norm,
    m_p,
    m_p_levels,
    restricted_norm,
    restricted_sup_norm,
)
from tlw.weights import exp2_weights, power_profile, random_ap_weights

from . import oracles

INF = math.inf


def grid1(J=4, L=1, k_min=0, k_max=2):
    return Grid(n=1, L=L, J=J, k_min=k_min, k_max=k_max)


def grid2(J=3, L=1, k_min=0, k_max=2):
    return Grid(n=2, L=L, J=J, k_min=k_min, k_max=k_max)


def ones_weights(grid):
    return exp2_weights(grid, 0.0)


# ---------------------------------------------------------------- f_pq_norm


def test_f_pq_single_atom_unit():
    g = grid1()
    lam = CoeffField.single(g, 0, (0,))
    w = ones_weights(g)
    for p, q in ((1.0, 2.0), (2.0, 2.0), (0.5, 1.0), (3.0, INF)):
        assert f_pq_norm(lam, w, p, q) == pytest.approx(1.0, rel=1e-13)


def test_f_pq_single_atom_closed_form():
    g = grid1(k_max=3, J=5)
    s = 0.35
    w = exp2_weights(g, s)
    for k in (1, 2, 3):
        lam = CoeffField.single(g, k, (2,))
        for p in (1.0, 2.0, 4.0):
            want = 2.0 ** (k * (g.n / 2.0 + s - g.n / p))
            assert f_pq_norm(lam, w, p, 2.0) == pytest.approx(want, rel=1e-13)


def test_f_pq_matches_naive_oracle():
    rng = np.random.default_rng(83)
    for make in (grid1, grid2):
        g = make()
        w = random_ap_weights(g, 0.5, rng)
        lam = CoeffField.random(g, rng)
        for p, q in ((1.0, 2.0), (2.0, 2.0), (1.5, 3.0)):
            want = oracles.naive_f_pq_norm(lam.entries, w.tk, g, p, q)
            assert f_pq_norm(lam, w, p, q) == pytest.approx(want, rel=1e-12)


def test_f_pq_qinf_modification():
    rng = np.random.default_rng(89)
    g = grid1()
    w = random_ap_weights(g, 0.3, rng)
    lam = CoeffField.random(g, rng)
    got = f_pq_norm(lam, w, 2.0, INF)
    # oracle: sup over k of the summand, cellwise
    body = np.zeros(g.shape)
    for cell in oracles.cell_iter(g):
        vals = []
        for k in lam.levels:
            m = oracles.cube_of_cell(g, cell, k)
            vals.append(2.0 ** (k / 2.0) * w.tk[k][cell] * abs(lam.entries[k][m]))
        body[cell] = max(vals)
    want = (np.sum(body**2.0) * g.cell_volume) ** 0.5
    assert got == pytest.approx(want, rel=1e-12)


def test_f_pq_errors():
    g = grid1()
    lam = CoeffField.zeros(g)
    w = ones_weights(g)
    with pytest.raises(LevelRangeError):
        f_pq_norm(lam, w, INF, 2.0)
    other = ones_weights(grid1(J=5))
    with pytest.raises(LevelMismatchError):
        f_pq_norm(lam, other, 2.0, 2.0)


@given(st.floats(min_value=-3, max_value=3).filter(lambda c: abs(c) > 1e-6))
@settings(max_examples=20, deadline=None)
def test_f_pq_homogeneity(c):
    g = grid1(J=3)
    rng = np.random.default_rng(97)
    lam = CoeffField.random(g, rng)
    w = ones_weights(g)
    assert f_pq_norm(lam.scale(c), w, 2.0, 2.0) == pytest.approx(
        abs(c) * f_pq_norm(lam, w, 2.0, 2.0), rel=1e-12
    )


def test_quasi_triangle_constant_measured():
    rng = np.random.default_rng(101)
    g = grid1()
    w = ones_weights(g)
    for p, q in ((0.5, 0.5), (1.0, 2.0), (2.0, 2.0)):
        worst = 0.0
        for _ in range(20):
            a, b = CoeffField.random(g, rng), CoeffField.random(g, rng)
            lhs = f_pq_norm(a.plus(b), w, p, q)
            rhs = f_pq_norm(a, w, p, q) + f_pq_norm(b, w, p, q)
            worst = max(worst, lhs / rhs)
        assert worst <= (2.0 ** max(1.0 / min(p, q, 1.0) - 1.0, 0.0)) + 1e-9


# ------------------------------------------------------------ star variant


def test_star_norm_level_constant_cancellation():
    g = grid1()
    w = exp2_weights(g, 0.6)  # constant on each level
    rng = np.random.default_rng(103)
    lam = CoeffField.random(g, rng)
    for p, q in ((1.0, 2.0), (2.0, 3.0)):
        a = f_pq_norm(lam, w, p, q)
        b = f_pq_norm_star(lam, w, p, q, delta=1.0)
        assert b == pytest.approx(a, rel=1e-12)


def test_star_norm_single_atom_trivial_weights():
    g = grid1()
    lam = CoeffField.single(g, 1, (1,))
    w = ones_weights(g)
    assert f_pq_norm_star(lam, w, 2.0, 2.0, delta=1.0) == pytest.approx(
        f_pq_norm(lam, w, 2.0, 2.0), rel=1e-13
    )


def test_star_norm_two_sided_band_for_power_weight():
    g = grid1(J=5)
    w = exp2_weights(g, 0.2, omega=power_profile(g, 0.4))
    rng = np.random.default_rng(107)
    for delta in (0.5, 1.0):
        ratios = []
        for _ in range(100):
            lam = CoeffField.random(g, rng)
            ratios.append(
                f_pq_norm_star(lam, w, 2.0, 2.0, delta) / f_pq_norm(lam, w, 2.0, 2.0)
            )
        # fixed two-sided band for a fixed weight family, independent of lambda
        assert max(ratios) / min(ratios) < 3.0
        assert all(np.isfinite(r) and r > 0 for r in ratios)


def test_star_norm_delta_validation():
    g = grid1()
    with pytest.raises(LevelRangeError):
        f_pq_norm_star(CoeffField.zeros(g), ones_weights(g), 2.0, 2.0, delta=1.5)


# ------------------------------------------------------------- f_inf_norm


def test_f_inf_single_atom():
    g = grid1()
    lam = CoeffField.single(g, 0, (0,))
    assert f_inf_norm(lam, ones_weights(g), 2.0) == pytest.approx(1.0, rel=1e-13)


def test_f_inf_replicated_column_matches_enumeration():
    g = grid1(k_min=0, k_max=2)
    lam = CoeffField.zeros(g)
    for k in range(0, 3):  # same spatial cell across levels k = 0..2
        lam.entries[k][0] = 1.0
    w = ones_weights(g)
    got = f_inf_norm(lam, w, 1.0)
    want = oracles.naive_f_inf_norm(lam.entries, w.tk, g, 1.0)
    assert got == pytest.approx(want, rel=1e-13)


def test_f_inf_scaling():
    rng = np.random.default_rng(109)
    g = grid1()
    lam = CoeffField.random(g, rng)
    w = ones_weights(g)
    assert f_inf_norm(lam.scale(-2.0), w, 2.0) == pytest.approx(
        2.0 * f_inf_norm(lam, w, 2.0), rel=1e-13
    )


def test_f_inf_matches_naive_oracle():
    rng = np.random.default_rng(113)
    for make, q in ((grid1, 2.0), (grid2, 1.0), (grid1, 0.7)):
        g = make()
        w = random_ap_weights(g, 0.4, rng)
        lam = CoeffField.random(g, rng)
        want = oracles.naive_f_inf_norm(lam.entries, w.tk, g, q)
        assert f_inf_norm(lam, w, q) == pytest.approx(want, rel=1e-12)


def test_f_inf_rejects_q_inf():
    g = grid1()
    with pytest.raises(LevelRangeError):
        f_inf_norm(CoeffField.zeros(g), ones_weights(g), INF)


def test_f_inf_equals_cubeavg_exactly():
    rng = np.random.default_rng(127)
    for make in (grid1, grid2):
        g = make()
        for w in (
            exp2_weights(g, 0.5),
            exp2_weights(g, -0.3, omega=power_profile(g, 0.5)),
            random_ap_weights(g, 1.0, rng),
        ):
            for _ in range(20):
                lam = CoeffField.random(g, rng)
                a = f_inf_norm(lam, w, 2.0)
                b = f_inf_norm_cubeavg(lam, w, 2.0)
                assert abs(a - b) <= 1e-12 * max(a, 1e-300)


def test_cubeavg_identity_survives_intra_cube_oscillation():
    rng = np.random.default_rng(131)
    g = grid1(J=5)
    tk = {k: np.exp(3.0 * np.sin(40.0 * (k + 1) * np.arange(g.cells_per_axis)) )
          for k in g.levels}
    from tlw.weights import WeightSequence

    w = WeightSequence(g, tk)
    lam = CoeffField.random(g, rng)
    a, b = f_inf_norm(lam, w, 2.0), f_inf_norm_cubeavg(lam, w, 2.0)
    assert abs(a - b) <= 1e-12 * a


# ------------------------------------------------------------- lambda_star


def test_lambda_star_single_atom_closed_form():
    g = grid1(J=5, k_max=3)
    lam = CoeffField.single(g, 3, (5,), 2.0)
    d, r = 3.0, 1.0
    star = lambda_star(lam, r, d)
    for m in range(g.cubes_per_axis(3)):
        want = 2.0 / (1.0 + abs(5 - m)) ** (d / r)
        assert star.entries[3][m].real == pytest.approx(want, rel=1e-12)


def test_lambda_star_two_atoms():
    g = grid1(J=5, k_max=3)
    lam = CoeffField.zeros(g)
    lam.entries[3][4] = 1.0
    lam.entries[3][6] = 1.0
    star = lambda_star(lam, 1.0, 3.0)
    want = 1.0 + 1.0 / 27.0
    assert star.entries[3][4].real == pytest.approx(want, rel=1e-12)
    assert star.entries[3][6].real == pytest.approx(want, rel=1e-12)


def test_lambda_star_dominates_exactly():
    rng = np.random.default_rng(137)
    for make in (grid1, grid2):
        g = make()
        lam = CoeffField.random(g, rng)
        for d in (2 * g.n + 1, 2 * g.n + 2):
            star = lambda_star(lam, 2.0, float(d))
            for k in lam.levels:
                assert np.all(star.amplitude(k) >= lam.amplitude(k))


def test_lambda_star_matches_naive_oracle():
    rng = np.random.default_rng(139)
    g = grid1(J=3)
    lam = CoeffField.random(g, rng)
    for r, d in ((1.0, 3.0), (2.0, 3.0), (0.5, 4.0)):
        want = oracles.naive_lambda_star(lam.entries, r, d)
        star = lambda_star(lam, r, d)
        for k in lam.levels:
            np.testing.assert_allclose(star.amplitude(k), want[k], rtol=1e-12)


def test_lambda_star_rinf_modification():
    g = grid1(J=3)
    rng = np.random.default_rng(149)
    lam = CoeffField.random(g, rng)
    want = oracles.naive_lambda_star(lam.entries, INF, 3.0)
    star = lambda_star(lam, INF, 3.0)
    for k in lam.levels:
        np.testing.assert_allclose(star.amplitude(k), want[k], rtol=1e-12)


def test_lambda_star_bad_r():
    g = grid1()
    with pytest.raises(LevelRangeError):
        lambda_star(CoeffField.zeros(g), -2.0, 3.0)


def test_lambda_star_equivalence_zero():
    g = grid1()
    w = ones_weights(g)
    assert lambda_star_equivalence(CoeffField.zeros(g), w, 2.0, 3.0) == (0.0, 0.0)


def test_lambda_star_equivalence_single_atom_ge_one():
    g = grid1()
    w = ones_weights(g)
    lam = CoeffField.single(g, 1, (1,))
    hi, lo = lambda_star_equivalence(lam, w, 2.0, float(2 * g.n + 1))
    assert hi >= lo > 0


def test_lambda_star_equivalence_shift_needs_levels():
    g = Grid(n=1, L=1, J=5, k_min=0, k_max=4)
    w = exp2_weights(g, 0.3)
    lam = CoeffField.random(Grid(n=1, L=1, J=5, k_min=1, k_max=3), np.random.default_rng(1))
    hi, lo = lambda_star_equivalence(lam, w, 2.0, 3.0, gamma=1)
    assert hi >= lo > 0
    with pytest.raises(LevelRangeError):
        lambda_star_equivalence(lam, w, 2.0, 3.0, gamma=5)


def test_lambda_star_ratio_stable_across_refinement():
    d = 3.0
    maxima = {}
    for J in (4, 5):
        g = grid1(J=J)
        w = exp2_weights(g, 0.3)
        rng = np.random.default_rng(151)  # identical lattice draws for both J
        ratios = []
        for _ in range(50):
            lam = CoeffField.random(g, rng)
            hi, lo = lambda_star_equivalence(lam, w, 2.0, d)
            assert hi >= lo * (1.0 - 1e-13)
            ratios.append(hi / lo)
        maxima[J] = max(ratios)
    a, b = maxima[4], maxima[5]
    assert abs(a - b) <= 0.10 * max(a, b)


# ----------------------------------------------------------------- g_p, m_p


def test_g_p_single_atom_constant_on_cube():
    g = grid1()
    lam = CoeffField.single(g, 0, (0,))
    w = ones_weights(g)
    G = g_p(lam, w, 2.0, DyadicCube(0, (0,)))
    half = g.cells_per_axis // 2
    assert np.all(G.values[:half] == 1.0)
    assert np.all(G.values[half:] == 0.0)


def test_g_p_monotone_in_p_cube():
    rng = np.random.default_rng(157)
    g = grid1()
    lam = CoeffField.random(g, rng)
    w = ones_weights(g)
    outer = DyadicCube(-1, (0,))
    inner = DyadicCube(0, (1,))
    go = g_p(lam, w, 2.0, outer).values
    gi = g_p(lam, w, 2.0, inner).values
    sl = g.cube_slices(inner)
    assert np.all(go[sl] >= gi[sl])


def test_g_p_matches_naive_oracle():
    rng = np.random.default_rng(163)
    g = grid2()
    lam = CoeffField.random(g, rng)
    w = random_ap_weights(g, 0.4, rng)
    P = DyadicCube(0, (1, 0))
    want = oracles.naive_g_p(lam.entries, w.tk, g, 2.0, 0, (1, 0), g.k_min, g.k_max)
    np.testing.assert_allclose(g_p(lam, w, 2.0, P).values, want, rtol=1e-12, atol=1e-15)


def test_m_p_constant_field():
    g = grid1()
    lam = CoeffField.single(g, 0, (0,))
    w = ones_weights(g)
    assert m_p(lam, w, 2.0, DyadicCube(0, (0,))) == pytest.approx(1.0, rel=1e-14)


def test_m_p_eight_cell_example():
    # G values (4,3,2,1,1,1,1,1) on an 8-cell cube: the rule returns 3
    g = Grid(n=1, L=0, J=3, k_min=3, k_max=3)
    vals = np.array([4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    for q in (1.0, 2.0, 3.5):
        lam = CoeffField(g, {3: (vals / 2.0 ** (3.0 / 2.0)).astype(complex)})
        got = m_p(lam, ones_weights(g), q, DyadicCube(0, (0,)))
        assert got == pytest.approx(3.0, rel=1e-12)


def test_m_p_matches_candidate_scan():
    rng = np.random.default_rng(167)
    g = grid1()
    w = random_ap_weights(g, 0.5, rng)
    for _ in range(20):
        lam = CoeffField.random(g, rng)
        for lev in (-1, 0, 1):
            for P in cubes_at_level(g, lev):
                G = g_p(lam, w, 2.0, P).values[g.cube_slices(P)].ravel()
                want = oracles.naive_m_p(G, G.size)
                assert m_p(lam, w, 2.0, P) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("g", [grid1(), grid2()], ids=["1d", "2d"])
def test_m_p_levels_hold_m_p_of_every_cube_with_four_cells(g):
    rng = np.random.default_rng(171)
    w = random_ap_weights(g, 0.5, rng)
    lam = CoeffField.random(g, rng)
    levels = m_p_levels(lam, w, 2.0)
    want = [lev for lev in range(-g.L, g.k_max + 1) if g.side_cells(lev) ** g.n >= 4]
    assert sorted(levels) == want
    for lev in want:
        for P in cubes_at_level(g, lev):
            assert levels[lev][P.index] == pytest.approx(m_p(lam, w, 2.0, P), rel=1e-13)


def test_m_p_resolution_error():
    g = grid1(J=4)
    lam = CoeffField.zeros(g)
    with pytest.raises(ResolutionError):
        m_p(lam, ones_weights(g), 2.0, DyadicCube(4, (0,)))


def test_m_p_chebyshev_bound_exact():
    rng = np.random.default_rng(173)
    g = grid1()
    w = random_ap_weights(g, 0.6, rng)
    for _ in range(30):
        lam = CoeffField.random(g, rng)
        for q in (1.0, 2.0):
            bound = 4.0 ** (1.0 / q) * f_inf_norm(lam, w, q)
            for lev in range(-g.L, min(g.k_max, g.J - 2) + 1):
                for P in cubes_at_level(g, lev):
                    assert m_p(lam, w, q, P) <= bound


# -------------------------------------------------------------------- m_fun


def test_m_fun_zero_field():
    g = grid1()
    assert np.all(m_fun(CoeffField.zeros(g), ones_weights(g), 2.0).values == 0.0)


def test_m_fun_single_atom_matches_enumeration():
    g = grid1()
    lam = CoeffField.single(g, 0, (0,))
    w = ones_weights(g)
    got = m_fun(lam, w, 2.0)
    # oracle: explicit sup of m_P over the P containing each cell
    out = np.zeros(g.shape)
    for lev in range(-g.L, g.k_max + 1):
        if (2 ** (g.J - lev)) ** g.n < 4:
            continue
        for P in cubes_at_level(g, lev):
            val = m_p(lam, w, 2.0, P)
            sl = g.cube_slices(P)
            out[sl] = np.maximum(out[sl], val)
    np.testing.assert_allclose(got.values, out, rtol=1e-13)
    assert np.all(got.values[: g.cells_per_axis // 2] == 1.0)


def test_m_fun_two_sided_equivalence():
    rng = np.random.default_rng(179)
    g = grid1()
    w = exp2_weights(g, 0.3)
    uppers, lowers = [], []
    for _ in range(25):
        lam = CoeffField.random(g, rng)
        norm = f_inf_norm(lam, w, 2.0)
        msup = float(m_fun(lam, w, 2.0).values.max())
        assert msup <= 4.0 ** 0.5 * norm * (1 + 1e-13)  # Chebyshev side, exact
        uppers.append(msup / norm)
        lowers.append(norm / msup)
    assert max(lowers) < 20.0  # reverse constant finite, recorded


def test_m_fun_p_norm_basics():
    g = grid1()
    w = ones_weights(g)
    assert m_fun_p_norm(CoeffField.zeros(g), w, 2.0, 2.0) == 0.0
    lam = CoeffField.single(g, 0, (0,))
    val = m_fun_p_norm(lam, w, 2.0, 2.0)
    assert val > 0
    c = 3.0
    assert m_fun_p_norm(lam.scale(c), w, 2.0, 2.0) == pytest.approx(c * val, rel=1e-12)
    with pytest.raises(LevelRangeError):
        m_fun_p_norm(lam, w, INF, 2.0)


# ------------------------------------------------------------- restrictions


def test_restriction_full_equals_plain():
    rng = np.random.default_rng(181)
    g = grid1()
    w = random_ap_weights(g, 0.4, rng)
    lam = CoeffField.random(g, rng)
    E = RestrictionSets.full(g)
    assert restricted_norm(lam, w, 2.0, E) == pytest.approx(
        f_inf_norm(lam, w, 2.0), rel=1e-14
    )


def test_restriction_quarter_fails_half_threshold():
    g = grid1(J=5)
    with pytest.raises(PositivityError):
        RestrictionSets.corner_fraction(g, 0.25, fraction=0.5)
    # but it passes a 1/5 threshold
    E = RestrictionSets.corner_fraction(g, 0.25, fraction=0.2)
    assert E.min_fraction() == pytest.approx(0.25, abs=1e-12)


def test_restriction_random_three_quarters():
    rng = np.random.default_rng(191)
    g = grid1()
    w = exp2_weights(g, 0.2)
    constants = []
    for _ in range(50):
        lam = CoeffField.random(g, rng)
        E = RestrictionSets.random(g, 0.75, rng, fraction=0.75)
        full = f_inf_norm(lam, w, 2.0)
        rest = restricted_norm(lam, w, 2.0, E)
        assert rest <= full * (1 + 1e-13)  # exact lower inequality
        constants.append(full / rest)
    assert max(constants) < 10.0


def test_restriction_reverse_constant_stable():
    consts = {}
    for J in (4, 5):
        g = grid1(J=J)
        w = exp2_weights(g, 0.2)
        rng = np.random.default_rng(193)
        worst = 0.0
        for _ in range(25):
            lam = CoeffField.random(g, rng)
            E = RestrictionSets.random(g, 0.5, rng, fraction=0.5)
            worst = max(worst, f_inf_norm(lam, w, 2.0) / restricted_norm(lam, w, 2.0, E))
        consts[J] = worst
    a, b = consts[4], consts[5]
    assert abs(a - b) <= 0.25 * max(a, b)  # same-draw stability band, recorded


def test_restriction_from_m_fun_three_quarter_guarantee():
    rng = np.random.default_rng(197)
    g = grid1(J=5, k_max=3)
    w = random_ap_weights(g, 0.5, rng)
    lam = CoeffField.random(g, rng)
    E = RestrictionSets.from_m_fun(lam, w, 2.0)
    from tlw.dyadic import block_reduce

    for k in lam.levels:
        cells_per_cube = (1 << (g.J - k)) ** g.n
        counts = block_reduce(E.masks[k], 1 << (g.J - k))
        assert np.all(counts >= 0.75 * cells_per_cube)


def test_restriction_from_m_fun_needs_resolution():
    g = grid1(J=3, k_max=3)
    lam = CoeffField.zeros(g)
    with pytest.raises(ResolutionError):
        RestrictionSets.from_m_fun(lam, ones_weights(g), 2.0)


def test_restricted_sup_norm_monotone():
    rng = np.random.default_rng(199)
    g = grid1()
    w = random_ap_weights(g, 0.4, rng)
    lam = CoeffField.random(g, rng)
    E = RestrictionSets.random(g, 0.75, rng)
    full = RestrictionSets.full(g)
    assert restricted_sup_norm(lam, w, 2.0, E) <= restricted_sup_norm(lam, w, 2.0, full)


# ------------------------------------------------- kernel layer against oracles


@st.composite
def field_cases(draw):
    """Random-ap weights and a complex field on a small grid with a random level range."""
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 1))
    J = draw(st.integers(1, 4 if n == 1 else 2))
    k_min = draw(st.integers(-L, J))
    k_max = draw(st.integers(k_min, J))
    g = Grid(n=n, L=L, J=J, k_min=k_min, k_max=k_max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = random_ap_weights(g, draw(st.floats(0.0, 1.5)), rng)
    return g, w, CoeffField.random(g, rng), rng


@given(field_cases(), st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_m_fun_matches_naive_oracle(case, q):
    g, w, lam, _ = case
    for min_cells in (1, 4):
        want = oracles.naive_m_fun(lam.entries, w.tk, g, q, g.k_min, g.k_max, min_cells)
        got = m_fun(lam, w, q, min_cells=min_cells).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@given(field_cases(), st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_f_inf_and_localized_pairing_match_naive_oracles(case, q):
    from tlw.duality import localized_pairing

    g, w, lam, rng = case
    s = CoeffField.random(g, rng)
    want = oracles.naive_f_inf_norm(lam.entries, w.tk, g, q)
    assert f_inf_norm(lam, w, q) == pytest.approx(want, rel=1e-12)
    want = oracles.naive_localized_pairing(lam.entries, s.entries, g)
    assert localized_pairing(lam, s) == pytest.approx(want, rel=1e-12)


@given(field_cases(), st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0, INF]))
@settings(max_examples=40, deadline=None)
def test_f_pq_matches_naive_oracle_including_q_inf(case, p, q):
    g, w, lam, _ = case
    want = oracles.naive_f_pq_norm(lam.entries, w.tk, g, p, q)
    assert f_pq_norm(lam, w, p, q) == pytest.approx(want, rel=1e-12)


@given(field_cases(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_f_pp_norm_matches_cube_oracle_and_cell_form(case, p):
    # p = q reads the cube integrals alone; the cell-grid sum must agree
    g, w, lam, _ = case
    inv = {k: 1.0 / v for k, v in w.tk.items()}
    for weights_used, tk in ((w, w.tk), (w.reciprocal(), inv)):
        got = f_pq_norm(lam, weights_used, p, p)
        assert got == pytest.approx(oracles.naive_f_pp_norm(lam.entries, tk, g, p), rel=1e-13)
        cells = oracles.expanded_lp_lq(g, oracles.expanded_pointwise(lam, tk, p), p, p)
        assert got == pytest.approx(cells, rel=1e-13)


@given(field_cases(), st.floats(0.0, 0.99))
@settings(max_examples=40, deadline=None)
def test_random_restriction_keeps_exact_count_per_cube(case, keep_fraction):
    g, _, _, rng = case
    E = RestrictionSets.random(g, keep_fraction, rng, fraction=0.01)
    for k in g.levels:
        n_cells = (1 << (g.J - k)) ** g.n
        keep = min(math.floor(keep_fraction * n_cells) + 1, n_cells)
        for cube in cubes_at_level(g, k):
            cells = [c for c in oracles.cell_iter(g)
                     if oracles.cell_in_cube(g, c, cube.level, cube.index)]
            assert sum(bool(E.masks[k][c]) for c in cells) == keep


@pytest.mark.parametrize("keep_fraction", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("g", [Grid(1, 2, 6, 0, 4), Grid(2, 1, 4, 0, 3)], ids=["1d", "2d"])
def test_random_restriction_equals_per_cube_argsort_oracle(g, keep_fraction):
    rng, oracle_rng = np.random.default_rng(557), np.random.default_rng(557)
    E = RestrictionSets.random(g, keep_fraction, rng, fraction=0.01)
    want = oracles.naive_random_restriction(g, keep_fraction, oracle_rng)
    for k in g.levels:
        assert np.array_equal(E.masks[k], want[k]), k
        f = g.side_cells(k)
        keep = min(math.floor(keep_fraction * f**g.n) + 1, f**g.n)
        assert np.all(block_reduce(E.masks[k], f) == keep), k
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("keep_fraction", [-0.5, 1.5, math.nan])
def test_random_restriction_rejects_keep_fraction_outside_unit_interval(keep_fraction):
    with pytest.raises(ValueError, match="keep_fraction"):
        RestrictionSets.random(Grid(1, 2, 6, 0, 3), keep_fraction, np.random.default_rng(0))
