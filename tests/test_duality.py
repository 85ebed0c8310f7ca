
import numpy as np
import pytest

from tlw.dyadic import DyadicCube, Grid
from tlw.duality import (
    aq_cube_consequence,
    d_p_sequence,
    dp_claim_value,
    extremal_sequence,
    hoelder_check_1q,
    hoelder_check_pq,
    kappa_constraint_norm,
    localized_pairing,
    pairing,
    star_constraint_norm,
)
from tlw.errors import LevelRangeError, UndefinedRatioError
from tlw.seqspace import CoeffField, f_inf_norm, f_pq_norm
from tlw.weights import ap_constant, exp2_weights, random_ap_weights

from .oracles import naive_pairing


def grid1(J=4, L=1, k_min=0, k_max=2):
    return Grid(n=1, L=L, J=J, k_min=k_min, k_max=k_max)


def test_pairing_single_and_orthogonal():
    g = grid1()
    e = CoeffField.single(g, 0, (0,))
    assert pairing(e, e) == pytest.approx(1.0)
    other = CoeffField.single(g, 1, (2,))
    assert pairing(e, other) == 0.0


def test_pairing_matches_naive():
    rng = np.random.default_rng(211)
    for n in (1, 2):
        g = Grid(n=n, L=1, J=3, k_min=0, k_max=2)
        s, lam = CoeffField.random(g, rng), CoeffField.random(g, rng)
        want = naive_pairing(s.entries, lam.entries)
        assert pairing(s, lam) == pytest.approx(want, rel=1e-13)


def test_pairing_sesquilinear():
    rng = np.random.default_rng(223)
    g = grid1()
    s, t, lam = (CoeffField.random(g, rng) for _ in range(3))
    a, b = 1.5 - 0.5j, -2.0 + 1.0j
    lhs = pairing(s.scale(a).plus(t.scale(b)), lam)
    rhs = a * pairing(s, lam) + b * pairing(t, lam)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert pairing(s, lam.scale(a)) == pytest.approx(np.conj(a) * pairing(s, lam), rel=1e-13)


def test_hoelder_pq_single_atom_saturates():
    g = grid1()
    w = exp2_weights(g, 0.0)
    for p, q in ((2.0, 2.0), (1.5, 3.0)):
        s = CoeffField.single(g, 1, (1,), 1.0)
        lam = CoeffField.single(g, 1, (1,), 1.0)
        rep = hoelder_check_pq(s, lam, w, p, q)
        assert abs(rep.pairing) == pytest.approx(1.0, rel=1e-13)
        assert rep.extremal_ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.hoelder_slack == pytest.approx(0.0, abs=1e-12)


def test_hoelder_pq_random_nonnegative_slack():
    rng = np.random.default_rng(227)
    g = grid1()
    w = exp2_weights(g, 0.3, omega=np.exp(rng.uniform(-0.5, 0.5, g.shape)))
    for _ in range(100):
        s, lam = CoeffField.random(g, rng), CoeffField.random(g, rng)
        rep = hoelder_check_pq(s, lam, w, 2.0, 2.0)
        assert rep.hoelder_slack >= -1e-10 * rep.lhs_norm * rep.rhs_norm


def test_hoelder_pq_scaling_covariance():
    rng = np.random.default_rng(229)
    g = grid1()
    w = exp2_weights(g, 0.0)
    s, lam = CoeffField.random(g, rng), CoeffField.random(g, rng)
    base = hoelder_check_pq(s, lam, w, 2.0, 2.0)
    scaled = hoelder_check_pq(s.scale(2.0), lam, w, 2.0, 2.0)
    assert scaled.hoelder_slack == pytest.approx(2.0 * base.hoelder_slack, rel=1e-12)
    assert abs(scaled.pairing) == pytest.approx(2.0 * abs(base.pairing), rel=1e-12)


def test_hoelder_pq_endpoint_rejected():
    g = grid1()
    w = exp2_weights(g, 0.0)
    lam = CoeffField.zeros(g)
    with pytest.raises(LevelRangeError):
        hoelder_check_pq(lam, lam, w, 1.0, 2.0)


def test_hoelder_1q_zero_lambda():
    g = grid1(J=5, k_max=3)
    w = exp2_weights(g, 0.0)
    s = CoeffField.zeros(g)
    lam = CoeffField.zeros(g)
    rep = hoelder_check_1q(s, lam, w, 2.0)
    assert rep.pairing == 0.0 and rep.hoelder_slack == 0.0


def test_hoelder_1q_single_atom_closed_form():
    g = grid1(J=5, k_max=3)
    w = exp2_weights(g, 0.0)
    s = CoeffField.single(g, 1, (1,), 1.0)
    lam = CoeffField.single(g, 1, (1,), 1.0)
    rep = hoelder_check_1q(s, lam, w, 2.0)
    assert rep.factor == pytest.approx(4.0 / 3.0)
    # single atom: lhs = 2^{k(n/2-n)} = 2^{-1/2}, sup expression = 2^{k n/2} = 2^{1/2}
    assert rep.lhs_norm == pytest.approx(2.0 ** -0.5, rel=1e-13)
    assert rep.rhs_norm == pytest.approx(2.0 ** 0.5, rel=1e-13)
    assert rep.hoelder_slack == pytest.approx(4.0 / 3.0 - 1.0, rel=1e-12)


def test_hoelder_1q_random_trials_with_default_sets():
    rng = np.random.default_rng(233)
    g = grid1(J=5, k_max=3)
    w = random_ap_weights(g, 0.4, rng)
    for _ in range(25):
        s, lam = CoeffField.random(g, rng), CoeffField.random(g, rng)
        rep = hoelder_check_1q(s, lam, w, 2.0)
        assert rep.factor == pytest.approx(4.0 / 3.0)  # the 3/4 guarantee held exactly
        assert rep.hoelder_slack >= -1e-10 * rep.factor * rep.lhs_norm * rep.rhs_norm


def test_extremal_single_atom_trivial_weights():
    g = grid1()
    w = exp2_weights(g, 0.0)
    lam = CoeffField.single(g, 1, (1,), 2.0)
    s = extremal_sequence(lam, w, 2.0)
    assert star_constraint_norm(s, w, 2.0) == pytest.approx(1.0, abs=1e-12)
    norm = f_inf_norm(lam, w, 2.0)
    assert localized_pairing(lam, s) == pytest.approx(norm, rel=1e-12)


def test_extremal_sgn_handling():
    g = grid1()
    w = exp2_weights(g, 0.0)
    lam = CoeffField.single(g, 1, (1,), -3.0)
    s = extremal_sequence(lam, w, 2.0)
    assert s.entries[1][1].real < 0.0
    assert s.entries[1][1].imag == 0.0
    val = (lam.entries[1][1] * s.entries[1][1]).real
    assert val > 0.0


def test_extremal_constraint_exact_for_general_weights():
    # the cube-average identity makes the constraint norm exactly 1 even for
    # cube-oscillating weights; record the deviation anyway
    rng = np.random.default_rng(241)
    g = grid1()
    for _ in range(10):
        w = random_ap_weights(g, 0.8, rng)
        lam = CoeffField.random(g, rng)
        s = extremal_sequence(lam, w, 2.0)
        dev = abs(star_constraint_norm(s, w, 2.0) - 1.0)
        assert dev <= 1e-9


def test_extremal_zero_field_signalled():
    g = grid1()
    with pytest.raises(UndefinedRatioError):
        extremal_sequence(CoeffField.zeros(g), exp2_weights(g, 0.0), 2.0)


def test_extremal_lower_constant_vs_aq():
    # the extremal product lam*s aligns phases for real amplitudes (lam*sgn(lam)=|lam|),
    # which is where the attainment bound is exact; complex fields are covered by the
    # measured-ratio test below
    rng = np.random.default_rng(251)
    g = grid1()
    q = 2.0
    for _ in range(10):
        w = random_ap_weights(g, 0.5, rng)
        lam = CoeffField.random(g, rng, complex_values=False)
        s = extremal_sequence(lam, w, q)
        norm = f_inf_norm(lam, w, q)
        got = localized_pairing(lam, s)
        # pairing >= norm / max_cube (|Q|^{-1} t tilde_t); both computable
        worst = max(float(aq_cube_consequence(w, q, k).max()) for k in w.levels)
        assert got >= norm / worst * (1 - 1e-12)
        assert got <= norm * (1 + 1e-12)  # Hoelder upper side


def test_extremal_lower_constant_complex_recorded():
    rng = np.random.default_rng(252)
    g = grid1()
    q = 2.0
    w = random_ap_weights(g, 0.5, rng)
    ratios = []
    for _ in range(10):
        lam = CoeffField.random(g, rng)
        s = extremal_sequence(lam, w, q)
        ratios.append(localized_pairing(lam, s) / f_inf_norm(lam, w, q))
    assert all(0.0 < r <= 1.0 + 1e-12 for r in ratios)


def test_aq_cube_consequence_bounds():
    rng = np.random.default_rng(257)
    g = grid1()
    w = random_ap_weights(g, 0.7, rng)
    q = 2.0
    for k in w.levels:
        vals = aq_cube_consequence(w, q, k)
        assert np.all(vals >= 1.0 - 1e-13)
        rep = ap_constant(w.as_grid_function(k), q)
        gamma_q = rep.constant  # audited A_q of t_k ... at exponent q on t_k itself
        # per-cube consequence uses t_k^q in A_q; recompute on the power weight
        from tlw.dyadic import GridFunction

        rep_q = ap_constant(GridFunction(g, w.tk[k] ** q), q)
        assert np.all(vals <= rep_q.constant ** (1.0 / q) * (1 + 1e-12))


def conjugate_lower_bound(lam, w, q):
    """The conjugate-norm lower bound the duality suite records: the localized pairing
    of lam with its extremal sequence scaled to unit constraint norm."""
    s = extremal_sequence(lam, w, q)
    return localized_pairing(lam, s.scale(1 / star_constraint_norm(s, w, q)))


def test_conjugate_norm_zero_and_single_atom():
    g = grid1()
    w = exp2_weights(g, 0.0)
    with pytest.raises(UndefinedRatioError):  # no extremal sequence for the zero field
        conjugate_lower_bound(CoeffField.zeros(g), w, 2.0)
    lam = CoeffField.single(g, 1, (2,), 1.5)
    got = conjugate_lower_bound(lam, w, 2.0)
    assert got == pytest.approx(f_inf_norm(lam, w, 2.0), rel=1e-12)


def test_conjugate_norm_two_sided():
    rng = np.random.default_rng(263)
    g = grid1()
    q = 2.0
    for spread in (0.0, 0.5):
        w = random_ap_weights(g, spread, rng)
        lam = CoeffField.random(g, rng, complex_values=False)
        plain = f_inf_norm(lam, w, q)
        conj = conjugate_lower_bound(lam, w, q)
        assert conj <= plain * (1 + 1e-11)  # Hoelder upper bound
        worst = max(float(aq_cube_consequence(w, q, k).max()) for k in w.levels)
        assert conj >= plain / worst * (1 - 1e-12)


def test_d_p_single_atom():
    g = grid1(J=5, k_max=3)
    kappa = CoeffField.single(g, 2, (3,), 2.0)
    P = DyadicCube(0, (0,))
    D = d_p_sequence(kappa, P)
    # Q_{2,3} = [0.75, 1) sits inside P = [0, 1): value = 2 * |Q|/|P| = 2 * 2^{-2}
    assert D.entries[2][3] == pytest.approx(0.5)
    assert np.count_nonzero(D.entries[2]) == 1


def test_d_p_coarse_levels_zeroed():
    g = grid1(J=5, k_min=-1, k_max=3)
    kappa = CoeffField.random(g, np.random.default_rng(3))
    P = DyadicCube(1, (1,))
    D = d_p_sequence(kappa, P)
    assert np.all(D.entries[-1] == 0.0)
    assert np.all(D.entries[0] == 0.0)
    outside = [m for m in range(g.cubes_per_axis(1)) if m != 1]
    assert np.all(D.entries[1][outside] == 0.0)


def test_d_p_claim_measured_band():
    rng = np.random.default_rng(269)
    g = grid1(J=5, k_max=3)
    w = exp2_weights(g, 0.25)
    q = 2.0
    P = DyadicCube(-1, (0,))
    worst = 0.0
    for _ in range(50):
        kappa = CoeffField.random(g, rng)
        c = kappa_constraint_norm(kappa, w, q)
        worst = max(worst, dp_claim_value(kappa.scale(1.0 / c), w, q, P))
    assert worst < 6.0  # recorded band for this family; the claim is boundedness
