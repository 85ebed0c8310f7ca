"""Pairings, Hoelder sandwiches, the explicit extremal sequence, and the D_P field.

The dual norm is bounded, not computed: `localized_pairing` with the extremal
sequence scaled to unit `star_constraint_norm` bounds it from below, and the
Hoelder checks bound it from above.
On the truncated lattice the pairing matrix is the identity, so the
"every functional arises this way" direction reduces to coordinate
round-tripping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import (
    INF,
    DyadicCube,
    block_reduce,
    expand_level_array,
    first_max,
    inner_sum,
    localized_sup,
)
from .errors import LevelMismatchError, LevelRangeError, UndefinedRatioError
from .seqspace import (
    CoeffField,
    f_inf_norm,
    f_inf_norm_cubeavg,
    f_pq_norm,
    quartile_restricted_sup,
)
from .weights import WeightSequence


def conjugate_exponent(p: float) -> float:
    if p <= 1:
        raise LevelRangeError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)


def pairing(s: CoeffField, lam: CoeffField) -> complex:
    """sum_{k,m} s_{k,m} conj(lambda_{k,m}) over the shared lattice."""
    if s.grid != lam.grid:
        raise LevelMismatchError("fields live on different lattices")
    total = 0.0 + 0.0j
    for k in s.levels:
        total += inner_sum(s.entries[k], lam.entries[k].conj())
    return complex(total)


@dataclass
class DualityReport:
    pairing: complex
    lhs_norm: float
    rhs_norm: float
    hoelder_slack: float
    extremal_ratio: float | None
    factor: float = 1.0


def hoelder_check_pq(s: CoeffField, lam: CoeffField, w: WeightSequence,
                     p: float, q: float) -> DualityReport:
    """|<s, lam>| <= ||s||_{p,q;t} * ||lam||_{p',q';1/t}; slack reported."""
    if not (1 < p < INF and 1 < q < INF):
        raise LevelRangeError("this check needs p, q strictly between 1 and inf")
    pair = pairing(s, lam)
    lhs = f_pq_norm(s, w, p, q)
    rhs = f_pq_norm(lam, w.reciprocal(), conjugate_exponent(p), conjugate_exponent(q))
    prod = lhs * rhs
    slack = prod - abs(pair)
    ratio = None if prod == 0.0 else abs(pair) / prod
    return DualityReport(pair, lhs, rhs, slack, ratio)


def hoelder_check_1q(s: CoeffField, lam: CoeffField, w: WeightSequence,
                     q: float) -> DualityReport:
    """The p = 1 pairing bound through the restricted L_inf expression for lam.

    E_Q are the quartile-functional level sets of lam against the reciprocal
    weights, so every |E_Q| >= 3|Q|/4 and the licensed factor is 4/3; it is
    1/(least |E_Q|/|Q|) should the counted fraction fall short.
    """
    if not 1 < q < INF:
        raise LevelRangeError("this check needs q strictly between 1 and inf")
    rhs, min_frac = quartile_restricted_sup(lam, w.reciprocal(), conjugate_exponent(q))
    factor = 4.0 / 3.0 if min_frac >= 0.75 else 1.0 / min_frac
    pair = pairing(s, lam)
    lhs = f_pq_norm(s, w, 1.0, q)
    prod = factor * lhs * rhs
    slack = prod - abs(pair)
    ratio = None if prod == 0.0 else abs(pair) / prod
    return DualityReport(pair, lhs, rhs, slack, ratio, factor=factor)


def _sgn(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    nz = z != 0
    out[nz] = z[nz] / np.abs(z[nz])
    return out


def extremal_sequence(lam: CoeffField, w: WeightSequence, q: float) -> CoeffField:
    """The explicit test sequence attaining the conjugate norm up to the A_q factor.

    s_{k,m} = t_{k,m,q}^{q-1} 2^{kn(1/2 + q/(2q'))} (tld_t_{k,m,q'})^{-1}
              |lam_{k,m}/N|^{q-1} sgn(lam_{k,m}),   N = ||lam|| in the p=inf norm.

    Its constraint norm is exactly 1 (the cube integrals cancel against the
    star norm's weights); measured deviation is recorded by callers anyway.
    """
    if not 1 < q < INF:
        raise LevelRangeError("extremal sequence needs q strictly between 1 and inf")
    norm = f_inf_norm(lam, w, q)
    if norm == 0.0:
        raise UndefinedRatioError("zero field; extremal normalization undefined")
    grid = lam.grid
    qq = conjugate_exponent(q)
    w_dual = w.reciprocal()
    out = {}
    for k in lam.levels:
        t_q = w.cube_norm(k, q)                     # t_{k,m,q}
        u = np.abs(lam.entries[k]) / norm
        out[k] = (
            t_q ** (q - 1.0)
            * 2.0 ** (k * grid.n * (0.5 + q / (2.0 * qq)))
            / w_dual.cube_norm(k, qq)               # tilde t_{k,m,q'}
            * u ** (q - 1.0)
            * _sgn(lam.entries[k])
        )
    return CoeffField(grid, out)


def _times_cube_volume(c: CoeffField) -> CoeffField:
    """c_{k,m} 2^{-nk}: a weight factor 2^{-nk} moved onto the level-k coefficients."""
    return CoeffField(c.grid, {k: 2.0 ** (-c.grid.n * k) * v for k, v in c.entries.items()})


def star_constraint_norm(s: CoeffField, w: WeightSequence, q: float) -> float:
    """Constraint norm of a test sequence: the p = inf norm of s against the
    weights 2^{-nk} t_k^{-1} at exponent q', evaluated through the exact
    cube-average identity (matches the per-cube integral display verbatim)."""
    return f_inf_norm_cubeavg(_times_cube_volume(s), w.reciprocal(), conjugate_exponent(q))


def localized_pairing(lam: CoeffField, s: CoeffField) -> float:
    """sup over dyadic P of |(1/|P|) int_P sum_{k >= k_P} sum_m lam s chi_{k,m}|."""
    if s.grid != lam.grid:
        raise LevelMismatchError("fields live on different lattices")
    lattice = lam.grid.lattice()  # the summands are constant on level-k_max cubes

    def abs_mean(lev, tail):  # parts summed apart: a complex block sum rounds differently
        f = lattice.side_cells(lev)
        return np.abs(block_reduce(tail.real, f, "mean") + 1j * block_reduce(tail.imag, f, "mean"))

    buf = np.empty(lattice.shape, dtype=complex)
    summands = ((k, expand_level_array(lattice, k, lam.entries[k] * s.entries[k], buf))
                for k in reversed(lam.levels))
    return first_max(localized_sup(lattice, summands, abs_mean))[0]


def d_p_sequence(kappa: CoeffField, P: DyadicCube) -> CoeffField:
    """Averaged field D_P: |kappa_{k,h}| |Q_{k,h}|/|P| on subcubes of P, else 0."""
    grid = kappa.grid
    if not grid.contains_cube(P):
        raise LevelRangeError(f"cube {P} not inside the domain")
    out = {}
    for k in kappa.levels:
        new = np.zeros(grid.level_shape(k), dtype=complex)
        if k >= P.level:
            shift = k - P.level
            sl = tuple(slice(m << shift, (m + 1) << shift) for m in P.index)
            new[sl] = np.abs(kappa.entries[k][sl]) * 2.0 ** ((P.level - k) * grid.n)
        out[k] = new
    return CoeffField(grid, out)


def dp_claim_value(kappa: CoeffField, w: WeightSequence, q: float,
                   P: DyadicCube) -> float:
    """||D_P||_{f(1,q);t} for a kappa normalized to unit constraint norm."""
    return f_pq_norm(d_p_sequence(kappa, P), w, 1.0, q)


def kappa_constraint_norm(kappa: CoeffField, w: WeightSequence, q: float) -> float:
    """||kappa|| in the p = inf norm against the weights 2^{-nk} t_k (exponent q)."""
    return f_inf_norm_cubeavg(_times_cube_volume(kappa), w, q)


def aq_cube_consequence(w: WeightSequence, q: float, k: int) -> np.ndarray:
    """|Q|^{-1} t_{k,m,q} tilde_t_{k,m,q'} per level-k cube.

    Equals the per-cube A_q product of t_k^q to the power 1/q; always >= 1 and
    bounded by (audited A_q constant)^{1/q}."""
    qq = conjugate_exponent(q)
    grid = w.grid
    return 2.0 ** (k * grid.n) * w.cube_norm(k, q) * w.reciprocal().cube_norm(k, qq)
