import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlw.dyadic import (
    DyadicCube,
    Grid,
    GridFunction,
    block_reduce,
    cube_at,
    cube_major,
    cubes_at_level,
    first_max,
    indicator,
    integrate,
)
from tlw.errors import DomainError, LevelRangeError, TlwError

from .oracles import naive_cube_mean_p, naive_integrate


def small_grid(n=1, L=1, J=4):
    return Grid(n=n, L=L, J=J, k_min=0, k_max=min(3, J))


def test_cubes_at_level_counts():
    g = small_grid()
    assert cubes_at_level(g, 0) == [DyadicCube(0, (0,)), DyadicCube(0, (1,))]
    assert cubes_at_level(g, -1) == [DyadicCube(-1, (0,))]
    g2 = small_grid(n=2)
    assert len(cubes_at_level(g2, 1)) == 16
    with pytest.raises(LevelRangeError):
        cubes_at_level(g, g.J + 1)


def test_cubes_at_level_lexicographic():
    g2 = small_grid(n=2)
    cubes = cubes_at_level(g2, 0)
    assert [c.index for c in cubes[:3]] == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("n", [1, 2])
def test_cube_at_is_the_indexed_cube_of_cubes_at_level(n):
    g = small_grid(n=n, L=2)
    for k in range(-g.L, g.J + 1):
        cubes = cubes_at_level(g, k)
        assert [cube_at(g, k, i) for i in range(len(cubes))] == cubes


def test_integrate_constants():
    g = small_grid()
    one = GridFunction.constant(g, 1.0)
    assert integrate(one, DyadicCube(0, (0,))) == 1.0
    c = 2.75
    for k in range(-g.L, g.J + 1):
        assert integrate(GridFunction.constant(g, c), DyadicCube(k, (0,))) == pytest.approx(
            c * 2.0 ** (-k * g.n), rel=1e-15
        )


def test_integrate_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        g = small_grid(n=n, J=3)
        f = GridFunction(g, rng.standard_normal(g.shape))
        for k in range(-g.L, g.J + 1):
            for cube in cubes_at_level(g, k):
                want = naive_integrate(f.values, g, cube)
                got = integrate(f, cube)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_integrate_outside_domain():
    g = small_grid()
    f = GridFunction.constant(g, 1.0)
    with pytest.raises(DomainError):
        integrate(f, DyadicCube(0, (5,)))
    with pytest.raises(LevelRangeError):
        integrate(f, DyadicCube(g.J + 1, (0,)))


def test_indicator_basics():
    g = small_grid()
    q = DyadicCube(1, (2,))
    chi = indicator(g, q)
    assert integrate(chi, q) == pytest.approx(2.0 ** -q.level, rel=1e-15)  # |q| in 1-D
    other = indicator(g, DyadicCube(1, (0,)))
    assert np.all(chi.values * other.values == 0)


@given(st.integers(min_value=-1, max_value=4))
@settings(max_examples=10, deadline=None)
def test_partition_of_unity(k):
    g = small_grid()
    total = np.zeros(g.shape)
    for cube in cubes_at_level(g, k):
        total += indicator(g, cube).values
    assert np.all(total == 1.0)


def test_nesting_exact():
    g = small_grid(n=2, J=3)
    rng = np.random.default_rng(11)
    f = GridFunction(g, rng.standard_normal(g.shape))
    parent = DyadicCube(0, (1, 0))
    children = [DyadicCube(1, (2 + a, b)) for a in (0, 1) for b in (0, 1)]  # its 2^n children
    child_sum = sum(integrate(f, ch) for ch in children)
    assert integrate(f, parent) == pytest.approx(child_sum, rel=1e-13, abs=1e-16)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n=3, L=1, J=4, k_min=0, k_max=2)
    with pytest.raises(LevelRangeError):
        Grid(n=1, L=1, J=4, k_min=0, k_max=5)
    with pytest.raises(LevelRangeError):
        Grid(n=1, L=1, J=-2, k_min=0, k_max=0)


@st.composite
def block_cases(draw):
    """A positive cell field, a level and an exponent."""
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 2))
    J = draw(st.integers(-L, (5 if n == 1 else 3) - L))
    k = draw(st.integers(-L, J))
    p = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, math.inf]))
    g = Grid(n=n, L=L, J=J, k_min=J, k_max=J)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g, k, p, np.exp(rng.uniform(-1.0, 1.0, g.shape))


@given(block_cases())
@settings(max_examples=60, deadline=None)
def test_block_reduce_matches_naive_oracles(case):
    g, k, p, cells = case
    f = 1 << (g.J - k)
    sums = block_reduce(cells, f, "sum")
    psums = block_reduce(cells, f, "sum", p) if p != math.inf else None
    means = block_reduce(cells, f, "mean")
    maxes = block_reduce(cells, f, "mean", math.inf)
    pmeans = block_reduce(cells, f, "mean", p)
    assert sums.shape == g.level_shape(k)
    for m in np.ndindex(*sums.shape):
        cube = DyadicCube(k, m)
        want = naive_integrate(cells, g, cube)
        assert sums[m] * g.cell_volume == pytest.approx(want, rel=1e-12)
        if psums is not None:
            want = naive_integrate(cells**p, g, cube) / g.cell_volume
            assert psums[m] == pytest.approx(want, rel=1e-12)
        assert means[m] == pytest.approx(naive_cube_mean_p(cells, g, cube, 1.0), rel=1e-12)
        assert maxes[m] == naive_cube_mean_p(cells, g, cube, math.inf)
        assert pmeans[m] == pytest.approx(naive_cube_mean_p(cells, g, cube, p), rel=1e-12)


@given(block_cases())
@settings(max_examples=30, deadline=None)
def test_cube_major_rows_hold_each_cubes_cells(case):
    g, k, _, cells = case
    rows = cube_major(cells, 1 << (g.J - k))
    assert rows.shape == g.level_shape(k) + ((1 << (g.J - k)) ** g.n,)
    for cube in cubes_at_level(g, k):
        want = np.sort(cells[g.cube_slices(cube)].ravel())
        np.testing.assert_array_equal(np.sort(rows[cube.index]), want)


def test_cube_major_is_a_view_of_the_cells_in_1d():
    # callers only read the rows: an edit in place would reach the cells
    cells = np.arange(16.0)
    rows = cube_major(cells, 4)
    assert rows.shape == (4, 4) and np.shares_memory(rows, cells)


@st.composite
def level_arrays(draw):
    """Per-level cube arrays over a run of levels, drawn from 3 values so ties are common."""
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 2))
    J = draw(st.integers(-L, (4 if n == 1 else 2) - L))
    lo = draw(st.integers(-L, J))
    hi = draw(st.integers(lo, J))
    g = Grid(n=n, L=L, J=J, k_min=J, k_max=J)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g, {k: rng.integers(0, 3, g.level_shape(k)).astype(float) for k in range(lo, hi + 1)}


@given(level_arrays())
@settings(max_examples=60, deadline=None)
def test_first_max_is_the_first_maximum_in_cube_order(case):
    g, levels = case
    best, at = -math.inf, None
    for k in sorted(levels):
        for cube in cubes_at_level(g, k):
            if levels[k][cube.index] > best:
                best, at = levels[k][cube.index], cube
    assert first_max(levels) == (best, at)
    # insertion order of the levels does not matter
    assert first_max(dict(reversed(list(levels.items())))) == (best, at)


def test_first_max_needs_a_level():
    with pytest.raises(ValueError):
        first_max({})


def test_first_max_names_a_nan_level():
    levels = {0: np.ones(2), 1: np.array([1.0, math.nan, 5.0, 0.0])}
    with pytest.raises(TlwError, match="level 1"):
        first_max(levels)
