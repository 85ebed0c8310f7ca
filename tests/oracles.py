"""Naive reference implementations: plain Python loops, no shared code paths.

Everything here recomputes quantities from the raw definitions (cell loops,
window enumerations, candidate scans) so the fast vectorised implementations
have a genuinely independent check.  The library calls are the single-cube
reference `per_cube_ap_value`, which the audit's lattice path does not use,
and the radial profile `_plateau_profile` that defines the filter pair.
Only usable at small sizes.

The exception is the expand-then-sum section at the end: the sequence norms
in their first vectorised form, which the buffered kernels must match bit for
bit.  It shares the cube reductions (`expand_level_array`, `block_reduce`,
`cube_major`) with the library, not its buffers or its suffix accumulation.
"""

import itertools
import math

import numpy as np

from tlw.dyadic import DyadicCube, block_reduce, cube_major, expand_level_array
from tlw.phitransform import _plateau_profile
from tlw.weights import per_cube_ap_value


def cell_iter(grid):
    return itertools.product(range(grid.cells_per_axis), repeat=grid.n)


def cell_in_cube(grid, cell, level, index):
    f = 2 ** (grid.J - level)
    return all(m * f <= c < (m + 1) * f for c, m in zip(cell, index))


def cube_of_cell(grid, cell, level):
    f = 2 ** (grid.J - level)
    return tuple(c // f for c in cell)


def naive_integrate(values, grid, cube):
    total = 0.0
    for cell in cell_iter(grid):
        if cell_in_cube(grid, cell, cube.level, cube.index):
            total += values[cell]
    return total * grid.cell_volume


def naive_cube_mean_p(values, grid, cube, p):
    vals = [abs(values[c]) for c in cell_iter(grid)
            if cell_in_cube(grid, c, cube.level, cube.index)]
    if p == math.inf:
        return max(vals)
    return (sum(v**p for v in vals) / len(vals)) ** (1.0 / p)


def naive_ap_constant(gamma, p, family):
    """Per-cube loop over the family: (sup, first argmax cube, per-cube values)."""
    values = [per_cube_ap_value(gamma, p, cube) for cube in family]
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return values[best], family[best], values


def naive_maximal(values, grid):
    """Max window average of |f| over in-domain windows of every dyadic side, per cell."""
    size = grid.cells_per_axis
    absv = np.abs(values)
    out = np.zeros(grid.shape)
    for cell in cell_iter(grid):
        best = -math.inf
        for j in range(-grid.L, grid.J + 1):
            w = 2 ** (grid.J - j)
            anchor_ranges = [range(max(0, c - w + 1), min(c, size - w) + 1) for c in cell]
            for anchor in itertools.product(*anchor_ranges):
                sl = tuple(slice(a, a + w) for a in anchor)
                best = max(best, absv[sl].mean())
        out[cell] = best
    return out


def naive_containing_max(anchors, w):
    """Per-cell max over the anchors a in [i-w+1, i] on every axis, cell by cell."""
    shape = tuple(a + w - 1 for a in anchors.shape)
    out = np.empty(shape)
    for cell in itertools.product(*[range(s) for s in shape]):
        window = tuple(slice(max(0, i - w + 1), i + 1) for i in cell)
        out[cell] = anchors[window].max()
    return out


def padded_containing_max(anchors, w):
    """Per-cell max over the anchors a in [i-w+1, i]: pad each axis with -inf by w-1 on
    both sides, then log2(w) rounds of maxima of two shifted copies, a new array each."""
    out = anchors
    for ax in range(anchors.ndim):
        pad = [(w - 1, w - 1) if i == ax else (0, 0) for i in range(out.ndim)]
        out = np.pad(out, pad, constant_values=-np.inf)
        width = 1
        while width < w:
            out = np.maximum(out[_along(ax, slice(None, -width))],
                             out[_along(ax, slice(width, None))])
            width *= 2
    return out


def padded_doubling_maximal(values):
    """The maximal operator by dyadic doubling with a fresh array per round.

    Window averages of |f| double their width, from one cell to the whole
    domain, by averaging two shifted copies per axis, and each width's
    containing max is `padded_containing_max`.
    The library takes the same maxima in another order and layout, so the two
    agree bit for bit.
    """
    avg, w, best = np.abs(values).astype(float), 1, np.full(values.shape, -np.inf)
    while True:
        np.maximum(best, padded_containing_max(avg, w), out=best)
        if w >= values.shape[0]:
            return best
        for ax in range(avg.ndim):
            avg = 0.5 * (avg[_along(ax, slice(None, -w))] + avg[_along(ax, slice(w, None))])
        w *= 2


def _along(ax, sl):
    return (slice(None),) * ax + (sl,)


def naive_weighted_lp(fvals, tvals, grid, p):
    prods = [abs(fvals[c] * tvals[c]) for c in cell_iter(grid)]
    if p == math.inf:
        return max(prods)
    return (sum(v**p for v in prods) * grid.cell_volume) ** (1.0 / p)


def naive_f_pq_norm(entries, tk, grid, p, q):
    """Triple loop over cells, levels, cubes via direct membership; q = inf takes the max."""
    levels = sorted(entries)
    acc = np.zeros(grid.shape)
    for cell in cell_iter(grid):
        s = 0.0
        for k in levels:
            m = cube_of_cell(grid, cell, k)
            if q == math.inf:
                s = max(s, (2.0 ** (k * grid.n / 2.0)) * tk[k][cell] * abs(entries[k][m]))
            else:
                s += (2.0 ** (k * grid.n * q / 2.0)) * (tk[k][cell] ** q) * abs(entries[k][m]) ** q
        acc[cell] = s if q == math.inf else s ** (1.0 / q)
    return (sum(acc[c] ** p for c in cell_iter(grid)) * grid.cell_volume) ** (1.0 / p)


def dyadic_cubes(grid, levels):
    for lev in levels:
        top = 2 ** (grid.L + lev)
        for index in itertools.product(range(top), repeat=grid.n):
            yield lev, index


def naive_f_pp_norm(entries, tk, grid, p):
    """(sum_{k,m} 2^{knp/2} |lambda_km|^p int_Q t_k^p)^{1/p}: the p = q norm, cube by cube."""
    total = 0.0
    for k in sorted(entries):
        tp = tk[k] ** p
        for lev, index in dyadic_cubes(grid, [k]):
            t_int = naive_integrate(tp, grid, DyadicCube(lev, index))
            total += (2.0 ** (k * grid.n * p / 2.0)) * abs(entries[k][index]) ** p * t_int
    return total ** (1.0 / p)


def naive_localized_average(entries, tk, grid, q, p_level, p_index, k_min, k_max):
    """(1/|P|) int_P sum_{k >= max(k_P, k_min)} ... for one dyadic cube P."""
    f = 2 ** (grid.J - p_level)
    cells = [c for c in cell_iter(grid) if cell_in_cube(grid, c, p_level, p_index)]
    total = 0.0
    for cell in cells:
        for k in range(max(p_level, k_min), k_max + 1):
            m = cube_of_cell(grid, cell, k)
            total += (2.0 ** (k * grid.n * q / 2.0)) * (tk[k][cell] ** q) * abs(entries[k][m]) ** q
    total *= grid.cell_volume
    vol_p = 2.0 ** (-p_level * grid.n)
    return total / vol_p


def naive_f_inf_norm(entries, tk, grid, q):
    levels = sorted(entries)
    k_min, k_max = levels[0], levels[-1]
    best = 0.0
    for lev, index in dyadic_cubes(grid, range(-grid.L, k_max + 1)):
        best = max(best, naive_localized_average(entries, tk, grid, q, lev, index,
                                                 k_min, k_max))
    return best ** (1.0 / q)


def naive_localized_pairing(l_entries, s_entries, grid):
    """sup over dyadic P of |(1/|P|) int_P sum_{k >= k_P} lam s chi_{k,m}|, cube by cube."""
    levels = sorted(l_entries)
    k_min, k_max = levels[0], levels[-1]
    best = 0.0
    for lev, index in dyadic_cubes(grid, range(-grid.L, k_max + 1)):
        total = 0.0 + 0.0j
        for cell in cell_iter(grid):
            if not cell_in_cube(grid, cell, lev, index):
                continue
            for k in range(max(lev, k_min), k_max + 1):
                m = cube_of_cell(grid, cell, k)
                total += l_entries[k][m] * s_entries[k][m]
        best = max(best, abs(total * grid.cell_volume / 2.0 ** (-lev * grid.n)))
    return best


def naive_lambda_star(entries, r, d):
    out = {}
    for k, arr in entries.items():
        shape = arr.shape
        new = np.zeros(shape)
        for m in itertools.product(*(range(s) for s in shape)):
            if r == math.inf:
                vals = [abs(arr[h]) * (1.0 + _dist(h, m)) ** (-d)
                        for h in itertools.product(*(range(s) for s in shape))]
                new[m] = max(vals)
            else:
                s = sum(abs(arr[h]) ** r / (1.0 + _dist(h, m)) ** d
                        for h in itertools.product(*(range(s2) for s2 in shape)))
                new[m] = s ** (1.0 / r)
        out[k] = new
    return out


def _dist(h, m):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(h, m)))


def naive_pairing(s_entries, l_entries):
    total = 0.0 + 0.0j
    for k in sorted(s_entries):
        arr_s, arr_l = s_entries[k], l_entries[k]
        for m in itertools.product(*(range(x) for x in arr_s.shape)):
            total += arr_s[m] * np.conj(arr_l[m])
    return total


def naive_g_p(entries, tk, grid, q, p_level, p_index, k_min, k_max):
    out = np.zeros(grid.shape)
    for cell in cell_iter(grid):
        if not cell_in_cube(grid, cell, p_level, p_index):
            continue
        s = 0.0
        for k in range(max(p_level, k_min), k_max + 1):
            m = cube_of_cell(grid, cell, k)
            s += (2.0 ** (k * grid.n * q / 2.0)) * (tk[k][cell] ** q) * abs(entries[k][m]) ** q
        out[cell] = s ** (1.0 / q)
    return out


def naive_m_p(g_values_on_p, n_cells):
    """Scan candidate thresholds (sampled values plus 0) for the quartile rule."""
    vals = sorted(float(v) for v in g_values_on_p)
    candidates = sorted(set(vals) | {0.0})
    for eps in candidates:
        if sum(1 for v in vals if v > eps) < n_cells / 4.0:
            return eps
    raise AssertionError("the maximum is always a valid candidate")


def naive_f_pq_star(entries, tk, grid, p, q, delta):
    """Star quasi-norm by per-cube integral sums, cell by cell."""
    dp = delta * p
    levels = sorted(entries)
    acc = np.zeros(grid.shape)
    for cell in cell_iter(grid):
        s = 0.0
        for k in levels:
            m = cube_of_cell(grid, cell, k)
            t_int = sum(
                tk[k][c] ** dp
                for c in cell_iter(grid)
                if cube_of_cell(grid, c, k) == m
            ) * grid.cell_volume
            s += (
                2.0 ** (k * grid.n * q * (0.5 + 1.0 / dp))
                * t_int ** (q / dp)
                * abs(entries[k][m]) ** q
            )
        acc[cell] = s ** (1.0 / q)
    return (sum(acc[c] ** p for c in cell_iter(grid)) * grid.cell_volume) ** (1.0 / p)


def naive_restricted_norm(entries, tk, masks, grid, q):
    """The p = inf norm with chi_{E_Q} in place of chi_Q, by full enumeration."""
    levels = sorted(entries)
    k_min, k_max = levels[0], levels[-1]
    best = 0.0
    for lev, index in dyadic_cubes(grid, range(-grid.L, k_max + 1)):
        total = 0.0
        for cell in cell_iter(grid):
            if not cell_in_cube(grid, cell, lev, index):
                continue
            for k in range(max(lev, k_min), k_max + 1):
                if not masks[k][cell]:
                    continue
                m = cube_of_cell(grid, cell, k)
                total += (
                    2.0 ** (k * grid.n * q / 2.0)
                    * tk[k][cell] ** q
                    * abs(entries[k][m]) ** q
                )
        avg = total * grid.cell_volume / 2.0 ** (-lev * grid.n)
        best = max(best, avg)
    return best ** (1.0 / q)


def naive_random_restriction(grid, keep_fraction, rng):
    """Masks of `RestrictionSets.random` by a loop over cubes: the same per-level keys,
    row j of a cube being its j-th cell in row-major order within the cube, and the
    `keep` smallest keys of each row chosen by a full argsort."""
    masks = {}
    for k in grid.levels:
        f = 2 ** (grid.J - k)
        n_cells = f**grid.n
        keep = min(math.floor(keep_fraction * n_cells) + 1, n_cells)
        keys = rng.random(grid.level_shape(k) + (n_cells,))
        offsets = list(itertools.product(range(f), repeat=grid.n))
        masks[k] = np.zeros(grid.shape, dtype=bool)
        for m in itertools.product(range(grid.cubes_per_axis(k)), repeat=grid.n):
            for j in np.argsort(keys[m], kind="stable")[:keep]:
                masks[k][tuple(mi * f + o for mi, o in zip(m, offsets[j]))] = True
    return masks


def naive_m_fun(entries, tk, grid, q, k_min, k_max):
    """Pointwise sup of the quartile threshold over containing cubes with at least 4 cells."""
    out = np.zeros(grid.shape)
    for lev, index in dyadic_cubes(grid, range(-grid.L, k_max + 1)):
        n_cells = (2 ** (grid.J - lev)) ** grid.n
        if n_cells < 4:
            continue
        g_field = naive_g_p(entries, tk, grid, q, lev, index, k_min, k_max)
        vals = [g_field[c] for c in cell_iter(grid)
                if cell_in_cube(grid, c, lev, index)]
        m_val = naive_m_p(vals, n_cells)
        for c in cell_iter(grid):
            if cell_in_cube(grid, c, lev, index):
                out[c] = max(out[c], m_val)
    return out


def naive_quartile_restricted_sup(entries, tk, grid, q, k_min, k_max):
    """(max over cells of (sum_k u_k chi_{E_Q})^{1/q}, least |E_Q|/|Q|) over the quartile sets
    E_Q = {x in Q : G_Q(x) <= m(x)} of the level-k_min..k_max cubes, cube by cube."""
    m = naive_m_fun(entries, tk, grid, q, k_min, k_max)
    total = np.zeros(grid.shape)
    least = 1.0
    for lev, index in dyadic_cubes(grid, range(k_min, k_max + 1)):
        g_field = naive_g_p(entries, tk, grid, q, lev, index, k_min, k_max)
        cells = [c for c in cell_iter(grid) if cell_in_cube(grid, c, lev, index)]
        kept = [c for c in cells if g_field[c] <= m[c]]
        least = min(least, len(kept) / len(cells))
        scale = (2.0 ** (lev * grid.n * q / 2.0)) * abs(entries[lev][index]) ** q
        for c in kept:
            total[c] += scale * tk[lev][c] ** q
    return float(total.max()) ** (1.0 / q), least


def _lattice_sampler(grid, k):
    return (slice(None, None, 2 ** (grid.J - k)),) * grid.n


def naive_analyze(values, grid, levels, phi_k):
    """Per-level full-grid analysis: ifftn of the filtered spectrum, sampled at stride s.

    `phi_k(k)` gives the level-k analysis multiplier on the grid's frequencies.
    """
    spec = np.fft.fftn(values)
    out = {}
    for k in range(levels[0], levels[1] + 1):
        g = np.fft.ifftn(spec * np.conj(phi_k(k)))
        out[k] = 2.0 ** (-k * grid.n / 2.0) * g[_lattice_sampler(grid, k)]
    return out


def naive_synthesize(entries, grid, psi_k):
    """Per-level full-grid synthesis: coefficient comb -> fftn -> Psi_k -> ifftn, summed."""
    out = np.zeros(grid.shape, dtype=complex)
    for k, c in entries.items():
        comb = np.zeros(grid.shape, dtype=complex)
        comb[_lattice_sampler(grid, k)] = c * 2.0 ** (-k * grid.n / 2.0) / grid.cell_volume
        out += np.fft.ifftn(np.fft.fftn(comb) * psi_k(k))
    return out


def naive_F_pq_norm(values, tk, grid, p, q, phi_k):
    """|| (sum_k t_k^q |phi_k * f|^q)^{1/q} ||_{L_p}: a full-grid ifftn per level, then cells.

    `phi_k(k)` gives the level-k analysis multiplier on the grid's frequencies.
    """
    spec = np.fft.fftn(values)
    g = {k: np.fft.ifftn(spec * phi_k(k)) for k in sorted(tk)}
    total = 0.0
    for cell in cell_iter(grid):
        s = sum(tk[k][cell] ** q * abs(g[k][cell]) ** q for k in g)
        total += s ** (p / q)
    return (total * grid.cell_volume) ** (1.0 / p)


def angular_mesh(n, L, J):
    """|xi| on the full DFT grid of (n, L, J), from a full meshgrid: the mesh the filter
    pair and the band mask once read, now the reference their per-axis radii must equal."""
    ax = 2.0 * np.pi * np.fft.fftfreq(1 << (L + J), d=2.0 ** (-J))
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    return np.sqrt(sum(m * m for m in mesh))


def frequency_magnitudes(grid):
    """|xi| on every DFT frequency of the grid, from a fresh mesh."""
    return angular_mesh(grid.n, grid.L, grid.J)


def drawn_band_spectrum(grid, rng, k_lo, k_hi):
    """The spectrum `BandSignal.random_band` draws, built as it first was: a boolean band mask
    from a fresh |xi| mesh, filled by one real and then one imaginary standard-normal draw."""
    xi = frequency_magnitudes(grid)
    mask = (xi >= 2.0**k_lo) & (xi <= 2.0**k_hi)
    spec = np.zeros(grid.shape, dtype=complex)
    spec[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(int(mask.sum()))
    return spec


def _scale_sum(r, grid, smoothing):
    """sum_j Phi(2^{-j} r)^2 over every j whose annulus can hold 2^{-k} |xi| for a
    represented xi and a level k in [-L, J]."""
    den = np.zeros_like(r)
    for j in range(-grid.L - grid.J - 2, grid.L + grid.J + 5):
        den += _plateau_profile(r * 2.0**-j, smoothing) ** 2
    return den


def _quotient(r, grid, smoothing):
    """Phi(r) / sum_j Phi(2^{-j} r)^2, 0 where the sum is."""
    den = _scale_sum(r, grid, smoothing)
    return np.divide(_plateau_profile(r, smoothing), den, out=np.zeros_like(den), where=den > 0)


def full_grid_filter(grid, smoothing, k):
    """(Phi_k, Psi_k) on every DFT frequency of the grid: the profile at 2^{-k} |xi|, and
    Psi_k = Phi_k / sum_j Phi(2^{-j} |xi|)^2 (0 at xi = 0)."""
    xi = frequency_magnitudes(grid)
    phi = _plateau_profile(xi * 2.0**-k, smoothing)
    den = _scale_sum(xi, grid, smoothing)
    return phi, np.divide(phi, den, out=np.zeros_like(den), where=den > 0)


def full_grid_filter_checks(grid, smoothing):
    """(support leak, plateau floor, partition deviation, covered levels) of the filter pair,
    read off full-grid multipliers, every level's for the partition of unity."""
    xi = frequency_magnitudes(grid)
    phi, psi = full_grid_filter(grid, smoothing, 0)
    outside = (xi < 0.5) | (xi > 2.0)
    plateau = (xi >= 3.0 / 5.0) & (xi <= 5.0 / 3.0)
    pos, den = xi > 0, _scale_sum(xi, grid, smoothing)
    acc = np.zeros(int(pos.sum()))
    for k in range(-grid.L - 4, grid.J + 6):
        phi_k = _plateau_profile(xi[pos] * 2.0**-k, smoothing)
        acc += phi_k * (phi_k / den[pos])
    covered = [k for k in range(-grid.L, grid.J)
               if ((xi > 2.0 ** (k - 1)) & (xi < 2.0 ** (k + 1))).any()]
    return (float(max(np.abs(phi[outside]).max(), np.abs(psi[outside]).max())),
            float(phi[plateau].min()) if plateau.any() else 0.0,
            float(np.abs(acc - 1.0).max()), covered)


def per_level_psi(fp, k):
    """Psi_k on every DFT frequency, with the scale sum recomputed at the level's own scaled
    frequencies."""
    return _quotient(frequency_magnitudes(fp.grid) * 2.0**-k, fp.grid, fp.smoothing)


def per_level_partition_deviation(fp):
    """max |sum_k conj(Phi_k) Psi_k - 1| over xi != 0, one scale sum per level."""
    xi = frequency_magnitudes(fp.grid)
    r = xi[xi > 0]
    acc = np.zeros_like(r)
    for k in range(-fp.grid.L - 4, fp.grid.J + 6):
        phi_k = _plateau_profile(r * 2.0**-k, fp.smoothing)
        acc += np.conj(phi_k) * _quotient(r * 2.0**-k, fp.grid, fp.smoothing)
    return float(np.abs(acc - 1.0).max())


# --------------------------------------------------------- expand-then-sum
# Each level's summand expanded to a new full-grid array, the suffix sums
# T_j = sum_{k >= j} u_k kept in a dict, in the same floating-point operation
# order as the library's buffered kernels.


def expanded_pointwise(lam, w, q, masks=None):
    """{k: 2^{knq/2} t_k^q |lambda_k|^q (times masks[k])}; q = inf: 2^{kn/2} t_k |lambda_k|.

    t_k^q is read through `w.power` (weights on lam's grid): some powers go by products,
    which `test_weights` holds to np.power, so the oracle takes them as the library forms
    them."""
    grid, out = lam.grid, {}
    for k in lam.levels:
        t_q = w.power(k, 1.0 if q == math.inf else q, np.empty(grid.shape))
        if q == math.inf:
            amp = expand_level_array(grid, k, np.abs(lam.entries[k]))
            u = (2.0 ** (k * grid.n / 2.0)) * t_q * amp
        else:
            amp = expand_level_array(grid, k, np.abs(lam.entries[k]) ** q)
            u = (2.0 ** (k * grid.n * q / 2.0)) * amp * t_q
        out[k] = u if masks is None else u * masks[k]
    return out


def expanded_cubeavg(lam, tk, q, on=None):
    """{k: 2^{knq(1/2+1/q)} (int_Q t_k^q) |lambda_k|^q}, constant on each level-k cube.

    Expanded onto the cells of `on` (default: the grid itself; `grid.lattice()`
    for the sweep the library runs on the level-k_max cubes).
    """
    grid, out = lam.grid, {}
    on = grid if on is None else on
    for k in lam.levels:
        tq_int = block_reduce(tk[k], grid.side_cells(k), "sum", q) * grid.cell_volume
        per_cube = (2.0 ** (k * grid.n * (q / 2.0 + 1.0))) * tq_int * np.abs(lam.entries[k]) ** q
        out[k] = expand_level_array(on, k, per_cube)
    return out


def expanded_lp_lq(grid, summands, p, q=1.0):
    """|| (sum_k u_k)^{1/q} ||_{L_p}, the levels summed coarsest first (q = inf: their max);
    for finite p the sum is raised once, to p/q (q = inf: to p)."""
    body = np.zeros(grid.shape)
    for k in sorted(summands):
        if q == math.inf:
            np.maximum(body, summands[k], out=body)
        else:
            body += summands[k]
    if p == math.inf:
        return float((body if q == math.inf else body ** (1.0 / q)).max())
    return float((body ** (p if q == math.inf else p / q)).sum() * grid.cell_volume) ** (1.0 / p)


def expanded_localized(grid, summands, cube_value=None):
    """(levels, suffix): cube_value(lev, T_max(lev, k_min)) per level -L..k_max, and every T_j."""
    suffix, acc = {}, 0.0
    for k in sorted(summands, reverse=True):
        acc = acc + summands[k]
        suffix[k] = acc
    if cube_value is None:
        def cube_value(lev, tail):
            return block_reduce(tail, grid.side_cells(lev), "mean")
    levels = {}
    for lev in range(-grid.L, max(summands) + 1):
        vals = cube_value(lev, suffix[max(lev, min(summands))])
        if vals is not None:
            levels[lev] = vals
    return levels, suffix


def level_sup(levels):
    return max(float(v.max()) for v in levels.values())


def expanded_quartile(grid, q):
    """cube_value of m_P: the (ceil(N/4))-th largest of G_P^q over the N >= 4 cells of P."""
    def quartile(lev, tail):
        f = grid.side_cells(lev)
        if f**grid.n < 4:
            return None
        rank = f**grid.n - 1 - (math.ceil(f**grid.n / 4.0) - 1)
        return np.partition(cube_major(tail, f), rank, axis=-1)[..., rank] ** (1.0 / q)
    return quartile


def expanded_abs_mean(grid):
    """cube_value of the localized pairing: |mean| with real and imaginary parts summed apart."""
    def abs_mean(lev, tail):
        f = grid.side_cells(lev)
        return np.abs(block_reduce(tail.real, f, "mean") + 1j * block_reduce(tail.imag, f, "mean"))
    return abs_mean


def eager_x_class(w, alpha1, alpha2, sigma1, sigma2, p):
    """(witness1, witness2, lag_profile1, lag_profile2) of `verify_x_class` with block means
    of every level on the cells and every candidate array searched by `first_max`; each
    witness is a (k, j, cube, value) tuple."""
    from tlw.dyadic import first_max

    grid, levels = w.grid, list(w.levels)
    witnesses, profiles = [None, None], [{}, {}]
    for lev in range(-grid.L, grid.J + 1):
        f = grid.side_cells(lev)
        means_p = {k: block_reduce(np.array(w.tk[k]), f, "mean", p) for k in levels}
        means_s1_inv = {k: block_reduce(1.0 / w.tk[k], f, "mean", sigma1) for k in levels}
        means_s2 = {k: block_reduce(np.array(w.tk[k]), f, "mean", sigma2) for k in levels}
        for k in levels:
            for j in range(k, grid.k_max + 1):
                c1 = means_p[k] * means_s1_inv[j] * 2.0 ** (-alpha1 * (k - j))
                c2 = means_s2[j] / means_p[k] * 2.0 ** (-alpha2 * (j - k))
                for i, cand in enumerate((c1, c2)):
                    val, cube = first_max({lev: cand})
                    profiles[i][j - k] = max(profiles[i].get(j - k, -np.inf), val)
                    if witnesses[i] is None or val > witnesses[i][3]:
                        witnesses[i] = (k, j, cube, val)
    return (*witnesses, *profiles)
