"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Desk scale throughout: n in {1, 2}, L <= 3, J <= 8, at most 6 levels; every
criterion runs standalone in well under a minute.  Tolerances are pinned here,
not configurable.
"""

import numpy as np

from tlw.dyadic import DyadicCube, Grid, GridFunction, cubes_at_level, integrate
from tlw.duality import (
    dp_claim_value,
    extremal_sequence,
    hoelder_check_1q,
    hoelder_check_pq,
    kappa_constraint_norm,
    localized_pairing,
    pairing,
    star_constraint_norm,
)
from tlw.maximal import (
    MaximalConfig,
    fs_ratio,
    maximal,
    scalar_maximal_ratio,
    shifted_maximal_constant,
    weighted_lp_norm,
)
from tlw.phitransform import (
    BandSignal,
    build_filter_pair,
    roundtrip_residual,
    transfer_check,
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
    m_fun,
    m_p,
    restricted_norm,
)
from tlw.weights import (
    ap_duality_identity,
    cube_mean_p,
    exp2_weights,
    power_profile,
    random_ap_weights,
    verify_x_class,
)

from . import oracles


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _grid(J=5, n=1, L=1, k_min=0, k_max=3):
    return Grid(n=n, L=L, J=J, k_min=k_min, k_max=k_max)


def _families(grid, rng):
    return (
        exp2_weights(grid, 0.4),
        exp2_weights(grid, -0.2, omega=power_profile(grid, 0.3)),
        random_ap_weights(grid, 0.6, rng),
    )


def _strided_restriction(grid, eps):
    """Deterministic per-cube subsets with |E_Q|/|Q| > eps, refinement-consistent."""
    drop_mod = 4 if eps == 0.5 else 8
    masks = {}
    for k in grid.levels:
        f = 1 << (grid.J - k)
        n_cells = f**grid.n
        block = np.ones((f,) * grid.n, dtype=bool)
        flat = block.reshape(-1)
        flat[drop_mod - 1 :: drop_mod] = n_cells <= drop_mod  # keep tiny cubes whole
        tiles = (grid.cubes_per_axis(k),) * grid.n
        masks[k] = np.tile(block, tiles)
    return RestrictionSets(grid, masks, fraction=eps)


def test_criterion_1_exact_identity_suite():
    rng = np.random.default_rng(1001)
    ok = True
    for n, J in ((1, 5), (2, 3)):
        grid = _grid(J=J, n=n, k_max=min(3, J - 1))
        for w in _families(grid, rng):
            trials = 34 if n == 1 else 17  # 3 families x trials > 100 overall
            for _ in range(trials):
                lam = CoeffField.random(grid, rng)
                a = f_inf_norm(lam, w, 2.0)
                b = f_inf_norm_cubeavg(lam, w, 2.0)
                ok &= abs(a - b) <= 1e-12 * max(a, 1e-300)
    _report(1, "f_inf equals cube-averaged rewriting", ok)


def test_criterion_2_ap_duality_identity():
    rng = np.random.default_rng(1002)
    grid = _grid(J=5)
    fam = [c for lev in range(-grid.L, grid.J + 1) for c in cubes_at_level(grid, lev)]
    ok = True
    for _ in range(50):
        gamma = GridFunction(grid, np.exp(rng.uniform(-1.2, 1.2, grid.shape)))
        cube = fam[int(rng.integers(len(fam)))]
        for p in (1.5, 2.0, 3.0):
            a, b = ap_duality_identity(gamma, p, cube)
            ok &= abs(a - b) / abs(b) <= 1e-12
    _report(2, "Muckenhoupt per-cube duality identity", ok)


def test_criterion_3_class_exactness_and_rejection():
    grid = _grid(J=5)
    s = 0.45
    w = exp2_weights(grid, s)
    rep = verify_x_class(w, s, s, 2.0, 2.0, 2.0)
    ok = abs(rep.C1 - 1.0) <= 4 * np.finfo(float).eps
    ok &= abs(rep.C2 - 1.0) <= 4 * np.finfo(float).eps
    bad = verify_x_class(w, s + 1.0, s, 2.0, 2.0, 2.0)
    ok &= bad.growth_rate(1) > 0.9  # candidates grow like 2^{j-k}
    ok &= bad.witness1.j > bad.witness1.k  # growing witness reported
    ok &= not bad.validates()
    _report(3, "inter-level class exactness and rejection", ok)


def test_criterion_4_chebyshev_median_suite():
    rng = np.random.default_rng(1004)
    ok = True
    grid = _grid(J=5)
    w = exp2_weights(grid, 0.3)
    p_cubes = [c for lev in range(-grid.L, grid.k_max + 1)
               for c in cubes_at_level(grid, lev)
               if (1 << (grid.J - lev)) ** grid.n >= 4]
    for _ in range(100):
        lam = CoeffField.random(grid, rng)
        bound = 2.0 * f_inf_norm(lam, w, 2.0)  # 4^{1/q} with q = 2
        ok &= all(m_p(lam, w, 2.0, P) <= bound for P in p_cubes)
    consts = {}
    fields = [CoeffField.random(_grid(J=5), rng) for _ in range(25)]
    for J in (5, 6):
        gj = _grid(J=J)
        for fam_name, wj in (("exp2", exp2_weights(gj, 0.3)),
                             ("power", exp2_weights(gj, 0.3, omega=power_profile(gj, 0.3)))):
            ups, downs = [], []
            for lam0 in fields:
                lam = CoeffField(gj, lam0.entries)
                norm = f_inf_norm(lam, wj, 2.0)
                msup = float(m_fun(lam, wj, 2.0).values.max())
                ups.append(msup / norm)
                downs.append(norm / msup)
            consts[(fam_name, J, "up")] = max(ups)
            consts[(fam_name, J, "down")] = max(downs)
    for fam_name in ("exp2", "power"):
        for side in ("up", "down"):
            a, b = consts[(fam_name, 5, side)], consts[(fam_name, 6, side)]
            ok &= abs(a - b) <= 0.10 * max(a, b)
    _report(4, "quartile functional: Chebyshev bound and stable equivalence", ok)


def test_criterion_5_restriction_suite():
    rng = np.random.default_rng(1005)
    ok = True
    fields = [CoeffField.random(_grid(J=5), rng) for _ in range(20)]
    for eps in (0.5, 0.75):
        consts = {}
        for J in (5, 6):
            gj = _grid(J=J)
            wj = exp2_weights(gj, 0.25)
            E = _strided_restriction(gj, eps)
            worst = 0.0
            for lam0 in fields:
                lam = CoeffField(gj, lam0.entries)
                full = f_inf_norm(lam, wj, 2.0)
                rest = restricted_norm(lam, wj, 2.0, E)
                ok &= rest <= full * (1.0 + 1e-13)  # exact one-sided inequality
                worst = max(worst, full / rest)
            consts[J] = worst
        ok &= abs(consts[5] - consts[6]) <= 0.10 * max(consts.values())
        ok &= E.min_fraction() > eps
    _report(5, "restricted norms: exact lower, stable reverse constant", ok)


def test_criterion_6_lambda_star_suite():
    rng = np.random.default_rng(1006)
    ok = True
    for n, J_pair in ((1, (5, 6)), (2, (3, 4))):
        fields = [CoeffField.random(_grid(J=J_pair[0], n=n, k_max=2), rng)
                  for _ in range(20)]
        for d in (2 * n + 1, 2 * n + 2):
            upper = {}
            for J in J_pair:
                gj = _grid(J=J, n=n, k_max=2)
                wj = exp2_weights(gj, 0.3)
                worst = 0.0
                for lam0 in fields:
                    lam = CoeffField(gj, lam0.entries)
                    star = lambda_star(lam, 2.0, float(d))
                    for k in lam.levels:  # entrywise domination, exact
                        ok &= bool(np.all(star.amplitude(k) >= lam.amplitude(k)))
                    hi = f_inf_norm(star, wj, 2.0)
                    lo = f_inf_norm(lam, wj, 2.0)
                    ok &= hi >= lo  # norm ratio >= 1, exact
                    worst = max(worst, hi / lo)
                upper[J] = worst
            a, b = (upper[j] for j in J_pair)
            ok &= abs(a - b) <= 0.10 * max(a, b)
    _report(6, "smoothed field: domination and stable upper ratio", ok)


def test_criterion_7_duality_suite():
    rng = np.random.default_rng(1007)
    ok = True
    grid = _grid(J=5)
    w = exp2_weights(grid, 0.2, omega=np.exp(0.3 * np.sin(
        2 * np.pi * np.arange(grid.cells_per_axis) / grid.cells_per_axis)))
    for _ in range(200):
        s = CoeffField.random(grid, rng)
        lam = CoeffField.random(grid, rng)
        r12 = hoelder_check_1q(s, lam, w, 2.0)
        ok &= r12.hoelder_slack >= -1e-10 * r12.factor * r12.lhs_norm * r12.rhs_norm
        for p, q in ((2.0, 2.0), (1.5, 3.0)):
            rep = hoelder_check_pq(s, lam, w, p, q)
            ok &= rep.hoelder_slack >= -1e-10 * rep.lhs_norm * rep.rhs_norm
    wc = exp2_weights(grid, 0.35)  # constant on each cube
    lowers = {}
    for J in (5, 6):
        gj = _grid(J=J)
        wj = exp2_weights(gj, 0.35)
        rngj = np.random.default_rng(1070)
        vals = []
        for _ in range(20):
            lam = CoeffField.random(gj, rngj, complex_values=False)
            se = extremal_sequence(lam, wj, 2.0)
            c = star_constraint_norm(se, wj, 2.0)
            if J == 5:
                ok &= abs(c - 1.0) <= 1e-9  # cube-constant weights: constraint is 1
            vals.append(localized_pairing(lam, se.scale(1.0 / c))
                        / f_inf_norm(lam, wj, 2.0))
        lowers[J] = min(vals)
    ok &= abs(lowers[5] - lowers[6]) <= 0.10 * max(lowers.values())
    P = DyadicCube(-grid.L, (0,) * grid.n)
    dp_band = 6.0  # recorded band for this family
    for _ in range(50):
        kappa = CoeffField.random(grid, rng)
        c = kappa_constraint_norm(kappa, wc, 2.0)
        ok &= dp_claim_value(kappa.scale(1.0 / c), wc, 2.0, P) <= dp_band
    _report(7, "duality: slacks, extremal attainment, averaged-field claim", ok)


def test_criterion_8_phitransform_suite():
    rng = np.random.default_rng(1008)
    ok = True
    bands = {}
    for J in (5, 6):
        grid = Grid(n=1, L=3, J=J, k_min=0, k_max=3)
        fp = build_filter_pair(grid)
        ok &= fp.support_leak() <= 1e-14
        ok &= fp.plateau_floor > 0.0
        ok &= fp.partition_deviation() <= 1e-12
        ratios = []
        w = exp2_weights(grid, 0.0)
        for _ in range(50):
            f = BandSignal.random_band(grid, rng, (0, 3))
            ok &= roundtrip_residual(f, fp, (0, 3)) <= 1e-9
            seq, fun = transfer_check(f, fp, w, 2.0, 2.0)
            ratios.append(seq / fun)
        bands[J] = (min(ratios), max(ratios))
    (a0, b0), (a1, b1) = bands[5], bands[6]
    ok &= abs(a0 - a1) <= 0.10 * max(a0, a1)
    ok &= abs(b0 - b1) <= 0.10 * max(b0, b1)
    _report(8, "filter pair invariants, reproduction, transfer band", ok)


def test_criterion_9_maximal_suite():
    rng = np.random.default_rng(1009)
    ok = True
    scalar, vector = {}, {}
    coarse = rng.standard_normal(2 ** (1 + 4))  # shared profile across refinements
    coarse_fs = {k: rng.standard_normal(2 ** (1 + 4)) for k in range(0, 4)}
    for J in (5, 6):
        grid = _grid(J=J)
        cfg = MaximalConfig(grid)
        rep = 1 << (J - 4)
        f = GridFunction(grid, np.repeat(coarse, rep))
        mf = maximal(f, cfg)
        ok &= bool(np.all(mf.values >= np.abs(f.values)))  # domination, exact
        bigger = GridFunction(grid, np.abs(f.values) + 0.5)
        ok &= bool(np.all(maximal(bigger, cfg).values >= mf.values))  # monotone
        ok &= bool(np.allclose(maximal(GridFunction(grid, -2.0 * f.values), cfg).values,
                               2.0 * mf.values, rtol=1e-13))  # scaling
        w_ap = exp2_weights(grid, 0.2, omega=power_profile(grid, 0.3))
        scalar[J] = scalar_maximal_ratio(f, w_ap.as_grid_function(0), 2.0, cfg)
        fs = {k: GridFunction(grid, np.repeat(coarse_fs[k], rep)) for k in w_ap.levels}
        vector[J] = fs_ratio(fs.items(), w_ap, 2.0, 2.0, cfg).ratio
    for vals in (scalar, vector):
        a, b = vals[5], vals[6]
        ok &= np.isfinite(a) and np.isfinite(b)
        ok &= abs(a - b) <= 0.10 * max(a, b)
    grid = _grid(J=5)
    s = 0.4
    w = exp2_weights(grid, s)
    f = GridFunction(grid, np.repeat(coarse, 2))
    consts = [shifted_maximal_constant(f, w, k, j, 2.0, MaximalConfig(grid), alpha1=s)
              for k in w.levels for j in w.levels if j >= k]
    ok &= max(consts) - min(consts) <= 1e-12 * max(consts)  # exact 2^{s(k-j)} decay
    _report(9, "maximal operator: exact invariants, stable weighted ratios", ok)


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1010)
    ok = True
    for trial in range(20):
        n = 1 if trial % 2 == 0 else 2
        grid = _grid(J=5 if n == 1 else 2, n=n, k_max=2)  # <= 2^6 cells per axis
        w = random_ap_weights(grid, 0.5, rng)
        lam = CoeffField.random(grid, rng)
        tol = 1e-12

        got = f_pq_norm(lam, w, 2.0, 2.0)
        want = oracles.naive_f_pq_norm(lam.entries, w.tk, grid, 2.0, 2.0)
        ok &= abs(got - want) <= tol * want

        got = f_inf_norm(lam, w, 2.0)
        want = oracles.naive_f_inf_norm(lam.entries, w.tk, grid, 2.0)
        ok &= abs(got - want) <= tol * want

        f = GridFunction(grid, rng.standard_normal(grid.shape))
        t = w.as_grid_function(grid.k_min)
        got = weighted_lp_norm(f, t, 2.0)
        want = oracles.naive_weighted_lp(f.values, t.values, grid, 2.0)
        ok &= abs(got - want) <= tol * want

        got_m = maximal(f, MaximalConfig(grid)).values
        want_m = oracles.naive_maximal(f.values, grid)
        ok &= bool(np.allclose(got_m, want_m, rtol=tol, atol=1e-15))

        star = lambda_star(lam, 2.0, 2.0 * n + 1.0)
        want_s = oracles.naive_lambda_star(lam.entries, 2.0, 2.0 * n + 1.0)
        for k in lam.levels:
            ok &= bool(np.allclose(star.amplitude(k), want_s[k], rtol=tol))

        s = CoeffField.random(grid, rng)
        ok &= abs(pairing(s, lam) - oracles.naive_pairing(s.entries, lam.entries)) <= (
            tol * max(abs(pairing(s, lam)), 1.0)
        )

        P = cubes_at_level(grid, 0)[0]
        got_g = g_p(lam, w, 2.0, P).values
        want_g = oracles.naive_g_p(lam.entries, w.tk, grid, 2.0, 0, P.index,
                                   grid.k_min, grid.k_max)
        ok &= bool(np.allclose(got_g, want_g, rtol=tol, atol=1e-15))

        vals = got_g[grid.cube_slices(P)].ravel()
        ok &= abs(m_p(lam, w, 2.0, P) - oracles.naive_m_p(vals, vals.size)) <= tol

        cube = cubes_at_level(grid, 1)[1]
        ok &= abs(integrate(f, cube) - oracles.naive_integrate(f.values, grid, cube)) <= tol
        ok &= abs(
            cube_mean_p(t, cube, 2.0) - oracles.naive_cube_mean_p(t.values, grid, cube, 2.0)
        ) <= tol * cube_mean_p(t, cube, 2.0)

        if n == 1:  # the heavier enumeration oracles, 1-D instances only
            got = f_pq_norm_star(lam, w, 2.0, 2.0, delta=0.5)
            want = oracles.naive_f_pq_star(lam.entries, w.tk, grid, 2.0, 2.0, 0.5)
            ok &= abs(got - want) <= tol * want

            E = RestrictionSets.random(grid, 0.75, rng)
            got = restricted_norm(lam, w, 2.0, E)
            want = oracles.naive_restricted_norm(lam.entries, w.tk, E.masks, grid, 2.0)
            ok &= abs(got - want) <= tol * want

            got_mf = m_fun(lam, w, 2.0).values
            want_mf = oracles.naive_m_fun(lam.entries, w.tk, grid, 2.0,
                                          grid.k_min, grid.k_max)
            ok &= bool(np.allclose(got_mf, want_mf, rtol=tol, atol=1e-15))
    _report(10, "norm operations match naive-loop oracles", ok)
