"""Weights constant in space: the pointwise sequence norms sweep `Grid.lattice()`.

Every routed function runs on `exp2` weights (each level a stride-0 view of one
value) and is compared with the same function on the same weights made into
grid arrays, which take the cell path, for w and for w.reciprocal().  One
lattice point stands for c = 2^{n(J-k_max)} cells: exactly 4 on the first two
grids, 16 and 64 on the others, and 2 and 8 on two more for the m sweep alone.
Values that select one summand (m_P, m, the counts of the sets E_Q) are equal
bit for bit; sums run over the lattice in another order and agree to rel 1e-14.
"""

import math

import numpy as np
import pytest

from tlw.duality import hoelder_check_1q
from tlw.dyadic import Grid, first_max
from tlw.io import weights_from_spec
from tlw.seqspace import (
    CoeffField,
    RestrictionSets,
    _quartile_count,
    f_inf_norm,
    f_pq_norm,
    m_fun,
    m_p_levels,
    quartile_restricted_sup,
    restricted_norm,
)
from tlw.weights import (
    WeightSequence,
    _SupTracker,
    exp2_weights,
    random_ap_weights,
    verify_x_class,
)

from . import oracles

INF = math.inf

GRIDS = {  # (n, L, J, k_min, k_max): c = 4, 4, 16, 64
    "1d-c4": Grid(1, 2, 5, 0, 3),
    "2d-c4": Grid(2, 2, 4, 0, 3),
    "1d-c16": Grid(1, 2, 7, -1, 3),
    "2d-c64": Grid(2, 1, 4, 0, 1),
}


def cells_per_point(g):
    return (g.cells_per_axis // g.lattice().cells_per_axis) ** g.n


def materialised(w):
    return WeightSequence(w.grid, {k: np.array(v) for k, v in w.tk.items()}, w.meta)


SWEEP_GRIDS = {  # the m sweep alone also runs where c is not a multiple of 4: c = 2, 8
    **GRIDS,
    "1d-c2": Grid(1, 2, 6, 0, 5),
    "1d-c8": Grid(1, 2, 6, 0, 3),
}


def make_case(g, inverse):
    rng = np.random.default_rng(2021)
    w = exp2_weights(g, 0.3)
    cells = materialised(w)
    if inverse:
        w, cells = w.reciprocal(), cells.reciprocal()
    return g, w, cells, CoeffField.random(g, rng), rng


def params(grids):
    return {"params": [(name, inverse) for name in grids for inverse in (False, True)],
            "ids": lambda case: f"{case[0]}-{'reciprocal' if case[1] else 'w'}"}


@pytest.fixture(**params(GRIDS))
def case(request):
    return make_case(GRIDS[request.param[0]], request.param[1])


@pytest.fixture(**params(SWEEP_GRIDS))
def sweep_case(request):
    return make_case(SWEEP_GRIDS[request.param[0]], request.param[1])


def test_grids_have_the_stated_cells_per_point():
    assert [cells_per_point(g) for g in SWEEP_GRIDS.values()] == [4, 4, 16, 64, 2, 8]


def test_only_weights_constant_in_space_move_to_the_lattice():
    g = GRIDS["2d-c4"]
    rng = np.random.default_rng(1)
    w = exp2_weights(g, 0.3)
    assert w.constant_in_space and w.reciprocal().constant_in_space
    lattice = w.on_lattice()
    assert lattice is w.on_lattice()  # built once
    assert lattice.grid == g.lattice() and lattice.meta == w.meta
    for k in g.levels:
        assert lattice.tk[k].shape == g.lattice().shape and not any(lattice.tk[k].strides)
        assert lattice.tk[k].flat[0] == w.tk[k].flat[0]
    recip = w.reciprocal().on_lattice()
    assert recip.grid == g.lattice() and recip.constant_in_space
    for spec in ({"kind": "power", "s": 0.3, "alpha": 0.3}, {"kind": "random-ap"}):
        other = weights_from_spec(g, spec, rng)
        assert not other.constant_in_space and other.on_lattice() is None
        assert other.reciprocal().on_lattice() is None
    assert materialised(w).on_lattice() is None


def test_f_pq_and_f_inf_norms_match_the_cell_path(case):
    _, w, cells, lam, _ = case
    for p, q in ((1.5, 3.0), (3.0, 1.5), (1.0, 2.0), (0.5, 1.0), (3.0, INF)):
        assert f_pq_norm(lam, w, p, q) == pytest.approx(f_pq_norm(lam, cells, p, q),
                                                        rel=1e-14), (p, q)
    for q in (1.0, 2.0, 3.0):
        assert f_inf_norm(lam, w, q) == pytest.approx(f_inf_norm(lam, cells, q), rel=1e-14)


def test_m_p_levels_and_m_fun_equal_the_cell_path(sweep_case):
    g, w, cells, lam, _ = sweep_case
    got, want = m_p_levels(lam, w, 2.0), m_p_levels(lam, cells, 2.0)
    assert list(got) == list(want)
    assert all(np.array_equal(got[lev], want[lev]) for lev in got)
    # a level-k_max cube has 1 lattice point and c cells: it keeps its m_P iff c >= 4
    assert (g.k_max in got) == (cells_per_point(g) >= 4)
    assert np.array_equal(m_fun(lam, w, 3.0).values, m_fun(lam, cells, 3.0).values)


def test_m_p_levels_match_the_loop_oracle():
    # 1-D, c = 4: the lattice has a single point per level-k_max cube and 2 per level k_max - 1
    g = GRIDS["1d-c4"]
    rng = np.random.default_rng(5)
    w, lam = exp2_weights(g, -0.4), CoeffField.random(g, rng)
    tk = {k: np.array(v) for k, v in w.tk.items()}
    levels = m_p_levels(lam, w, 2.0)
    assert list(levels) == list(range(-g.L, g.k_max + 1))
    for lev, vals in levels.items():
        for i, got in enumerate(vals.ravel()):
            index = np.unravel_index(i, vals.shape)
            G = oracles.naive_g_p(lam.entries, tk, g, 2.0, lev, index, g.k_min, g.k_max)
            f = g.side_cells(lev)
            on_p = G[tuple(slice(m * f, (m + 1) * f) for m in index)]
            assert got == pytest.approx(oracles.naive_m_p(on_p.ravel(), on_p.size), rel=1e-13)


@pytest.mark.parametrize("c", [2 ** i for i in range(11)])
def test_quartile_rank_on_the_points_is_the_rank_on_the_cells(c):
    # Each point's value fills c cells, so the r-th smallest cell value is the (r // c)-th
    # smallest point value.  With r = N - ceil(N/4) for N = c N_p cells, r // c is
    # N_p - ceil(ceil(c N_p / 4) / c) = N_p - ceil(N_p / 4): the points' own quartile rank.
    # A count of k points is k c cells, and the fraction k c / (c N_p) is k / N_p as floats.
    for n_points in range(1, 5000):
        cells = c * n_points
        assert ((cells - 1 - _quartile_count(cells)) // c
                == n_points - 1 - _quartile_count(n_points)), n_points
        k = np.arange(n_points + 1)
        assert np.array_equal((k * c) / cells, k / n_points), n_points


def test_restriction_sets_from_m_fun_equal_the_cell_path(case):
    # the sets E_Q = {T_k^{1/q} <= m} are lattice masks on weights constant in space,
    # formed and spent in one sweep: the same sum and the same least fraction as on cells
    _, w, cells, lam, _ = case
    for q in (2.0, 3.0):
        (got, got_least), (want, want_least) = (quartile_restricted_sup(lam, x, q)
                                                for x in (w, cells))
        assert got == pytest.approx(want, rel=1e-14)
        assert got_least == want_least >= 0.75


def test_restricted_norms_on_lattice_and_cell_masks(case):
    # random sets vary over the cells and keep the cell path
    g, w, cells, lam, rng = case
    E_random = RestrictionSets.random(g, 0.75, rng)
    for q in (2.0, 3.0):
        assert restricted_norm(lam, w, q, E_random) == restricted_norm(lam, cells, q, E_random)


ORACLE_GRIDS = {  # (n, L, J, k_min, k_max): c = 4, 16, 64 cells per lattice point
    "1d-c4": Grid(1, 2, 5, 0, 3),
    "1d-c16": Grid(1, 1, 6, 0, 2),
    "1d-c64": Grid(1, 1, 7, 0, 1),
    "2d-c4": Grid(2, 1, 3, 0, 2),
    "2d-c16": Grid(2, 1, 3, 0, 1),
    "2d-c64": Grid(2, 0, 4, 0, 1),
}


@pytest.mark.parametrize("inverse", [False, True], ids=["w", "reciprocal"])
@pytest.mark.parametrize("name", ORACLE_GRIDS)
def test_quartile_restricted_sup_matches_the_loop_oracle(name, inverse):
    # exp2 weights sweep the lattice, the same weights as grid arrays and random-ap weights
    # sweep the cells
    g = ORACLE_GRIDS[name]
    assert cells_per_point(g) == int(name.split("-c")[1])
    rng = np.random.default_rng(313)
    lam = CoeffField.random(g, rng)
    w, other = exp2_weights(g, 0.3), random_ap_weights(g, 0.5, rng)
    for same_tk in ((w, materialised(w)), (other,)):
        same_tk = [x.reciprocal() if inverse else x for x in same_tk]
        tk = {k: np.array(v) for k, v in same_tk[0].tk.items()}
        for q in (2.0, 3.0):
            want, want_least = oracles.naive_quartile_restricted_sup(
                lam.entries, tk, g, q, g.k_min, g.k_max)
            for x in same_tk:
                value, least = quartile_restricted_sup(lam, x, q)
                assert value == pytest.approx(want, rel=1e-13), (x.constant_in_space, q)
                assert least == want_least >= 0.75, (x.constant_in_space, q)


def test_hoelder_check_1q_matches_the_cell_path(case):
    g, w, cells, lam, rng = case
    s = CoeffField.random(g, rng)
    got, want = (hoelder_check_1q(s, lam, x, 2.0) for x in (w, cells))
    assert got.factor == want.factor and got.pairing == want.pairing
    assert got.lhs_norm == pytest.approx(want.lhs_norm, rel=1e-14)
    assert got.rhs_norm == pytest.approx(want.rhs_norm, rel=1e-14)


def eager_tracker_updates(grid, updates):
    """The witness and lag profile when every candidate array is searched (`first_max`)."""
    witness, profile = None, {}
    for lev, k, j, cand in updates:
        val, cube = first_max({lev: np.broadcast_to(cand, grid.level_shape(lev))})
        profile[j - k] = max(profile.get(j - k, -np.inf), val)
        if witness is None or val > witness[3]:
            witness = (k, j, cube, val)
    return witness, profile


def test_lazy_witness_equals_the_eager_search():
    g = Grid(2, 1, 3, 0, 2)
    rng = np.random.default_rng(11)
    updates = []
    for lev in range(-g.L, g.J + 1):
        for k, j in ((0, 0), (0, 2), (1, 2)):
            shape = g.level_shape(lev)
            cand = rng.choice([0.5, 1.0, 1.5], size=shape) if lev % 2 else np.asarray(1.25)
            updates.append((lev, k, j, cand))
    tracker = _SupTracker(g)
    for update in updates:
        tracker.update(*update)
    (k, j, cube, val), profile = eager_tracker_updates(g, updates)
    assert (tracker.witness.k, tracker.witness.j, tracker.witness.cube) == (k, j, cube)
    assert tracker.witness.value == val and tracker.lag_profile == profile


@pytest.mark.parametrize("spec", [
    {"kind": "random-ap", "spread": 0.5},
    {"kind": "power", "s": 0.3, "alpha": 0.3},
    {"kind": "exp2", "s": 0.3},
], ids=["random-ap", "power", "exp2-materialised"])
def test_x_class_on_grid_arrays_equals_the_eager_audit(spec):
    # weights held as grid arrays take block means on the cells, as before the lazy witness
    g = Grid(2, 1, 3, 0, 2)
    w = materialised(weights_from_spec(g, spec, np.random.default_rng(3)))
    rep = verify_x_class(w, 0.3, 0.3, 1.5, 2.5, 2.0)
    want = oracles.eager_x_class(w, 0.3, 0.3, 1.5, 2.5, 2.0)
    for got, (k, j, cube, val) in ((rep.witness1, want[0]), (rep.witness2, want[1])):
        assert (got.k, got.j, got.cube, got.value) == (k, j, cube, val)
    assert (rep.lag_profile1, rep.lag_profile2) == (want[2], want[3])


def test_x_class_on_constant_levels_reads_each_level_once():
    g = Grid(1, 2, 6, 0, 3)
    w = exp2_weights(g, 0.3)
    rep = verify_x_class(w, 0.3, 0.3, 2.0, 2.0, 2.0)
    want = verify_x_class(materialised(w), 0.3, 0.3, 2.0, 2.0, 2.0)
    assert (rep.C1, rep.C2) == pytest.approx((want.C1, want.C2), rel=1e-14)
    # every cube ties: the witness is the first cube of the coarsest level reaching the max
    assert rep.witness1.cube.level == -g.L and rep.witness1.cube.index == (0,)
