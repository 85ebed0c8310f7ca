"""The buffered sequence-norm kernels against their expand-then-sum form.

The kernels fill one caller-owned buffer per level and accumulate the suffix
sums in place.  They keep the floating-point operations of the form in
`oracles` (one expanded array per level, a dict of suffix sums), so every
value here must be equal with `==`, not approximately.

The norms whose summands are constant on level cubes (the cube-averaged p =
inf norm, the constraint norms, the localized pairing) sweep `Grid.lattice()`,
the level-k_max cubes: they are `==` to the expanded form run on that lattice,
and agree with the form run on the cells up to summation order (rel 1e-14).
`f_pq_norm` with p = q sums the memoised cube integrals, so it too agrees with
the cell form only up to summation order.

Values meant to move at roundoff: `kappa_constraint_norm` and
`star_constraint_norm` scale the level-k coefficients by 2^{-nk} instead of
the weights.  For q = 2, the exponent every suite uses, that moves only powers
of two and the values stay bitwise equal; for other q they agree to roundoff.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tlw.dyadic import Grid, block_reduce, expand_level_array
from tlw.duality import (
    hoelder_check_1q,
    hoelder_check_pq,
    kappa_constraint_norm,
    localized_pairing,
    star_constraint_norm,
)
from tlw.phitransform import BandSignal, F_inf_norm, _weighted_levels, build_filter_pair
from tlw.seqspace import (
    CoeffField,
    RestrictionSets,
    _m_fun_values,
    f_inf_norm,
    f_inf_norm_cubeavg,
    f_pq_norm,
    m_fun,
    m_p_levels,
    quartile_restricted_sup,
    restricted_norm,
)
from tlw.weights import WeightSequence, exp2_weights, random_ap_weights

from . import oracles

INF = math.inf

GRIDS = {"1d": Grid(1, 3, 6, 0, 3), "2d": Grid(2, 2, 4, 0, 3)}


def weights(kind, g, rng):
    return exp2_weights(g, 0.3) if kind == "exp2" else random_ap_weights(g, 0.5, rng)


@pytest.fixture(params=[(g, kind) for g in GRIDS for kind in ("exp2", "random-ap")],
                ids=lambda case: f"{case[0]}-{case[1]}")
def case(request):
    name, kind = request.param
    g = GRIDS[name]
    rng = np.random.default_rng(808)
    return g, weights(kind, g, rng), CoeffField.random(g, rng), rng


def swept(lam, w):
    """(lam, w) on the grid the pointwise norms sweep: the lattice for weights constant in
    space (each t_k one value there too), else the cells."""
    if not w.constant_in_space:
        return lam, w
    return CoeffField(lam.grid.lattice(), lam.entries), w.on_lattice()


def test_f_pq_norm_equals_expand_then_sum(case):
    # p != q sweeps the lattice on exp2 weights: == to the form run there, and to the
    # form run on the cells up to summation order
    g, w, lam, _ = case
    for p, q in ((2.0, 2.0), (1.5, 3.0), (1.0, 2.0), (0.5, 1.0), (3.0, INF), (1.0, INF)):
        want = oracles.expanded_lp_lq(g, oracles.expanded_pointwise(lam, w, q), p, q)
        if p == q:  # sums cube integrals, not cells: another summation order
            assert f_pq_norm(lam, w, p, q) == pytest.approx(want, rel=1e-14), (p, q)
            continue
        on, on_w = swept(lam, w)
        swept_want = oracles.expanded_lp_lq(on.grid, oracles.expanded_pointwise(on, on_w, q), p, q)
        assert f_pq_norm(lam, w, p, q) == swept_want, (p, q)
        assert swept_want == pytest.approx(want, rel=1e-14), (p, q)


def test_reciprocal_weights_equal_the_stored_reciprocal(case):
    g, w, lam, _ = case
    inv = {k: 1.0 / v for k, v in w.tk.items()}
    # (1/t)^{3/2} goes by products, and a stored sequence cubes by products: at those two
    # exponents the reciprocal is the stored one's power only to 3 ulp (`test_weights`)
    on, on_w = swept(lam, w)
    stored = WeightSequence(on.grid, {k: 1.0 / v for k, v in on_w.tk.items()})
    want = oracles.expanded_lp_lq(on.grid, oracles.expanded_pointwise(on, stored, 2.0), 1.5, 2.0)
    assert f_pq_norm(lam, w.reciprocal(), 1.5, 2.0) == want
    for k in w.levels:
        f = g.side_cells(k)
        want = (block_reduce(inv[k], f, "sum", 2.0) * g.cell_volume) ** 0.5
        assert np.array_equal(w.reciprocal().cube_norm(k, 2.0), want)
        assert np.array_equal(w.reciprocal().tk[k], inv[k])


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_f_inf_norms_equal_expand_then_sum(case, q):
    g, w, lam, _ = case
    levels, _ = oracles.expanded_localized(g, oracles.expanded_pointwise(lam, w, q))
    assert f_inf_norm(lam, w, q) == oracles.level_sup(levels) ** (1.0 / q)
    got = f_inf_norm_cubeavg(lam, w, q)
    lat = g.lattice()
    levels, _ = oracles.expanded_localized(lat, oracles.expanded_cubeavg(lam, w.tk, q, lat))
    assert got == oracles.level_sup(levels) ** (1.0 / q)
    levels, _ = oracles.expanded_localized(g, oracles.expanded_cubeavg(lam, w.tk, q))
    assert got == pytest.approx(oracles.level_sup(levels) ** (1.0 / q), rel=1e-14)


def test_restricted_norms_equal_expand_then_sum(case):
    g, w, lam, rng = case
    E = RestrictionSets.random(g, 0.75, rng)
    for q in (1.0, 2.0, 3.0):
        summands = oracles.expanded_pointwise(lam, w, q, E.masks)
        levels, _ = oracles.expanded_localized(g, summands)
        assert restricted_norm(lam, w, q, E) == oracles.level_sup(levels) ** (1.0 / q)


def test_m_p_levels_equal_expand_then_sum(case):
    g, w, lam, _ = case
    for weights_used in (w, w.reciprocal()):  # 1/w is what `hoelder_check_1q` sweeps
        want_levels, _ = oracles.expanded_localized(
            g, oracles.expanded_pointwise(lam, weights_used, 2.0), oracles.expanded_quartile(g, 2.0))
        levels = m_p_levels(lam, weights_used, 2.0)
        assert list(levels) == list(want_levels)
        assert all(np.array_equal(levels[lev], want_levels[lev]) for lev in levels)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_from_m_fun_masks_equal_suffix_roots_below_m(case, q):
    # E_Q = {T_k^{1/q} <= m} with every suffix sum T_k and m from the expanded form.  The
    # masks are nested, so the masked sum at a cell is T_k at the coarsest k whose mask
    # holds there: == on the cells, and to summation order on the lattice (exp2)
    g, w, lam, _ = case
    for weights_used in (w, w.reciprocal()):
        m_levels, suffix = oracles.expanded_localized(
            g, oracles.expanded_pointwise(lam, weights_used, q), oracles.expanded_quartile(g, q))
        m = np.zeros(g.shape)
        for lev, vals in m_levels.items():
            np.maximum(m, expand_level_array(g, lev, vals), out=m)
        masks = {k: t ** (1.0 / q) <= m for k, t in suffix.items()}
        picked = np.zeros(g.shape)
        for k in sorted(suffix, reverse=True):
            picked = np.where(masks[k], suffix[k], picked)
        want = float(picked.max()) ** (1.0 / q)
        masked = oracles.expanded_pointwise(lam, weights_used, q, masks)
        assert want == pytest.approx(oracles.expanded_lp_lq(g, masked, INF) ** (1.0 / q),
                                     rel=1e-14)
        least = min(float(block_reduce(masks[k], g.side_cells(k)).min()) / g.side_cells(k) ** g.n
                    for k in g.levels)
        value, got_least = quartile_restricted_sup(lam, weights_used, q)
        assert got_least == least >= 0.75
        if w.constant_in_space:
            assert value == pytest.approx(want, rel=1e-14)
        else:
            assert value == want


def test_localized_pairing_equals_expand_then_sum(case):
    g, _, lam, rng = case
    s = CoeffField.random(g, rng)
    want = {}
    for on in (g.lattice(), g):
        summands = {k: expand_level_array(on, k, lam.entries[k] * s.entries[k])
                    for k in lam.levels}
        levels, _ = oracles.expanded_localized(on, summands, oracles.expanded_abs_mean(on))
        want[on] = oracles.level_sup(levels)
    got = localized_pairing(lam, s)
    assert got == want[g.lattice()]
    assert got == pytest.approx(want[g], rel=1e-14)


def test_F_inf_norm_equals_expand_then_sum(case):
    g, w, _, rng = case
    fp = build_filter_pair(g)
    f = BandSignal.random_band(g, rng, (g.k_min, g.k_max))
    for q in (1.0, 2.0, 3.0):
        levels, _ = oracles.expanded_localized(g, {k: a**q for k, a in _weighted_levels(f, fp, w)})
        assert F_inf_norm(f, fp, w, q) == oracles.level_sup(levels) ** (1.0 / q)


def constraint_norms_expanded(g, w, lam, q, on):
    """(kappa, star) constraint norms from the expanded form swept on the cells of `on`."""
    factor = {k: 2.0 ** (-g.n * k) for k in w.levels}
    tk = {k: w.tk[k] * factor[k] for k in w.levels}
    levels, _ = oracles.expanded_localized(on, oracles.expanded_cubeavg(lam, tk, q, on))
    kappa = oracles.level_sup(levels) ** (1.0 / q)
    qq = q / (q - 1.0)
    tk = {k: 1.0 / w.tk[k] * factor[k] for k in w.levels}
    levels, _ = oracles.expanded_localized(on, oracles.expanded_cubeavg(lam, tk, qq, on))
    return kappa, oracles.level_sup(levels) ** (1.0 / qq)


def test_constraint_norms_move_the_level_factor_onto_the_coefficients(case):
    g, w, lam, _ = case
    for q in (2.0, 1.5, 3.0):
        got = kappa_constraint_norm(lam, w, q), star_constraint_norm(lam, w, q)
        if q == 2.0:
            assert got == constraint_norms_expanded(g, w, lam, q, g.lattice())
        for have, want in zip(got, constraint_norms_expanded(g, w, lam, q, g)):
            # q != 2 and the cell sweep: meant to move at roundoff (module docstring)
            assert have == pytest.approx(want, rel=1e-14)


# ------------------------------------------------------- allocation budget

BUDGET_ARRAYS = 4  # full-grid float arrays a norm may hold at once, whatever the level count


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k_max", [9, 5], ids=["10-levels", "6-levels"])
def test_sequence_norms_stay_within_four_full_grid_arrays(k_max):
    g = Grid(1, 2, 13, 0, k_max)
    rng = np.random.default_rng(8)
    w = random_ap_weights(g, 0.5, rng)
    lam = CoeffField.random(g, rng)
    E = RestrictionSets.random(g, 0.75, rng)
    calls = {
        "f_pq_norm": (f_pq_norm, lam, w, 1.5, 3.0),
        "f_inf_norm": (f_inf_norm, lam, w, 2.0),
        "f_inf_norm_cubeavg": (f_inf_norm_cubeavg, lam, w, 2.0),
        "restricted_norm": (restricted_norm, lam, w, 2.0, E),
    }
    array_bytes = np.zeros(g.shape).nbytes
    peaks = {name: traced_peak(*call) / array_bytes for name, call in calls.items()}
    assert all(peak <= BUDGET_ARRAYS for peak in peaks.values()), peaks


def test_cube_constant_norms_stay_below_one_full_grid_array():
    # once the cube integrals are memoised these norms read only level arrays and the
    # level-k_max lattice, which has 2^{J-k_max} = 16 times fewer points than the cells
    g = Grid(1, 2, 13, 0, 9)
    rng = np.random.default_rng(8)
    w = random_ap_weights(g, 0.5, rng)
    lam, s = CoeffField.random(g, rng), CoeffField.random(g, rng)
    calls = {
        "f_pq_norm": (f_pq_norm, lam, w, 2.0, 2.0),
        "f_inf_norm_cubeavg": (f_inf_norm_cubeavg, lam, w, 2.0),
        "kappa_constraint_norm": (kappa_constraint_norm, lam, w, 2.0),
        "star_constraint_norm": (star_constraint_norm, lam, w, 2.0),
        "localized_pairing": (localized_pairing, lam, s),
    }
    for fn, *args in calls.values():
        fn(*args)
    array_bytes = np.zeros(g.shape).nbytes
    peaks = {name: traced_peak(*call) / array_bytes for name, call in calls.items()}
    assert all(peak < 1 for peak in peaks.values()), peaks


def test_pointwise_norms_on_constant_weights_stay_below_one_full_grid_array():
    # exp2 levels are one value each: the pointwise norms sweep the level-k_max lattice,
    # 2^{J-k_max} = 16 times fewer points than the cells, and hold no cell array
    g = Grid(1, 2, 13, 0, 9)
    rng = np.random.default_rng(8)
    w = exp2_weights(g, 0.3)
    lam, s = CoeffField.random(g, rng), CoeffField.random(g, rng)
    quartile_restricted_sup(lam, w.reciprocal(), 2.0)  # builds the lattice copy
    calls = {
        "f_pq_norm": (f_pq_norm, lam, w, 1.5, 3.0),
        "f_inf_norm": (f_inf_norm, lam, w, 2.0),
        "m_p_levels": (m_p_levels, lam, w, 2.0),
        "quartile_restricted_sup": (quartile_restricted_sup, lam, w.reciprocal(), 2.0),
        "hoelder_check_1q": (hoelder_check_1q, s, lam, w, 2.0),
    }
    array_bytes = np.zeros(g.shape).nbytes
    peaks = {name: traced_peak(*call) / array_bytes for name, call in calls.items()}
    assert all(peak < 1 for peak in peaks.values()), peaks


def test_restriction_sets_from_m_fun_stay_within_seven_full_grid_arrays():
    # a first call on these weights makes their five work arrays: m, the restricted sum,
    # the summand buffer, the suffix sum and one level's T_k^{1/q}, then its E_Q indicator
    g = Grid(1, 2, 13, 0, 9)
    rng = np.random.default_rng(8)
    w_inv = random_ap_weights(g, 0.5, rng).reciprocal()
    lam = CoeffField.random(g, rng)
    peak = traced_peak(quartile_restricted_sup, lam, w_inv, 2.0) / np.zeros(g.shape).nbytes
    assert peak <= 7, peak


def test_a_repeated_sweep_on_the_same_weights_allocates_under_half_a_grid_array():
    # the sweeps write into the weights' work arrays, made by the first call; a second
    # call allocates level arrays and numpy's ufunc buffers (8192 elements, a quarter of
    # the 1-D grid's array), no grid array
    for g in (Grid(1, 2, 13, 0, 9), Grid(2, 2, 6, 0, 4)):
        rng = np.random.default_rng(8)
        for w in (random_ap_weights(g, 0.5, rng), exp2_weights(g, 0.3)):
            lam, s = CoeffField.random(g, rng), CoeffField.random(g, rng)
            E = RestrictionSets.random(g, 0.75, rng)
            calls = {
                "f_pq_norm": (f_pq_norm, lam, w, 1.5, 3.0),
                "f_inf_norm": (f_inf_norm, lam, w, 2.0),
                "m_p_levels": (m_p_levels, lam, w, 2.0),
                "restricted_norm": (restricted_norm, lam, w, 2.0, E),
                "quartile_restricted_sup": (quartile_restricted_sup, lam, w.reciprocal(), 2.0),
                "hoelder_check_pq": (hoelder_check_pq, s, lam, w, 1.5, 3.0),
                "hoelder_check_1q": (hoelder_check_1q, s, lam, w, 2.0),
            }
            for fn, *args in calls.values():
                fn(*args)
            array_bytes = np.zeros(g.shape).nbytes
            peaks = {name: traced_peak(*call) / array_bytes for name, call in calls.items()}
            assert all(peak < 0.5 for peak in peaks.values()), (g, w.meta.kind, peaks)


def sweep_values(lam, s, E, weights_for):
    """Every sweep on the work arrays, each on the weights `weights_for()` returns."""
    out = [f_pq_norm(lam, weights_for(), 1.5, 3.0),
           f_pq_norm(lam, weights_for().reciprocal(), 3.0, 1.5),
           quartile_restricted_sup(lam, weights_for().reciprocal(), 2.0),
           f_inf_norm(lam, weights_for(), 2.0),
           quartile_restricted_sup(lam, weights_for(), 3.0),
           restricted_norm(lam, weights_for(), 2.0, E),
           f_inf_norm(lam, weights_for().reciprocal(), 2.0)]
    rep = hoelder_check_1q(s, lam, weights_for(), 2.0)
    out += [rep.lhs_norm, rep.rhs_norm, rep.factor]
    levels = m_p_levels(lam, weights_for().reciprocal(), 2.0)
    return out + [(lev, v.tolist()) for lev, v in levels.items()]


def test_interleaved_sweeps_on_w_and_its_reciprocal_equal_sweeps_on_fresh_weights(case):
    # 1/w shares w's work arrays: what one sweep leaves there never reaches the next
    g, w, lam, rng = case
    s, E = CoeffField.random(g, rng), RestrictionSets.random(g, 0.75, rng)
    fresh = sweep_values(lam, s, E, lambda: WeightSequence(g, w.tk, w.meta))
    assert sweep_values(lam, s, E, lambda: w) == fresh
    assert sweep_values(lam, s, E, lambda: w) == fresh


def test_m_fun_pyramid_equals_expand_then_max(case):
    # the running max down the levels, spread once, against each level's m_P spread over
    # the grid and maxed in turn; the lattice for exp2 weights, else the cells
    g, w, lam, _ = case
    for weights_used in (w, w.reciprocal()):
        on = weights_used.on_lattice() or weights_used
        levels, want = m_p_levels(lam, weights_used, 2.0), {}
        for grid in (on.grid, g):
            want[grid] = np.zeros(grid.shape)
            for lev, vals in levels.items():
                np.maximum(want[grid], expand_level_array(grid, lev, vals), out=want[grid])
        got = _m_fun_values(lam, on, 2.0, np.empty(on.grid.shape))
        assert np.array_equal(got, want[on.grid])
        assert np.array_equal(m_fun(lam, weights_used, 2.0).values, want[g])
