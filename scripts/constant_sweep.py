#!/usr/bin/env python3
"""Sweep the weight parameter and refinement level; record measured constants.

Writes a plot-ready CSV with one row per (family parameter, J): the inter-level
class constants, the vector-valued maximal ratio, the quartile-functional
equivalence constant, and the extremal duality lower constant.  Useful for
eyeballing how the truncated-domain constants drift with resolution (the
boundary-effect question is recorded per-experiment, never resolved globally).
"""

import csv
import sys
from pathlib import Path

import numpy as np

from tlw.dyadic import Grid, GridFunction, lp_lq_norm
from tlw.duality import extremal_sequence, localized_pairing, star_constraint_norm
from tlw.maximal import MaximalConfig, fs_ratio
from tlw.seqspace import CoeffField, f_inf_norm, f_pq_norm, m_fun
from tlw.weights import exp2_weights, power_profile, verify_x_class

S_VALUES = (-0.5, 0.0, 0.3, 0.7)
J_VALUES = (5, 6, 7)
ALPHA = 0.3  # power-profile exponent multiplying the exp2 scale


def one_row(s: float, J: int, seed: int) -> dict:
    grid = Grid(n=1, L=1, J=J, k_min=0, k_max=3)
    rng = np.random.default_rng(seed)
    w = exp2_weights(grid, s, omega=power_profile(grid, ALPHA))
    rep = verify_x_class(w, s, s, 2.0, 2.0, 2.0)
    lam = CoeffField.random(grid, rng)
    fs = {k: GridFunction(grid, rng.standard_normal(grid.shape)) for k in w.levels}
    fsr = fs_ratio(fs.items(), w, 2.0, 2.0, MaximalConfig(grid))
    mq_over_f = lp_lq_norm(grid, [m_fun(lam, w, 2.0).values], 2.0) / f_pq_norm(lam, w, 2.0, 2.0)
    se = extremal_sequence(lam, w, 2.0)
    c = star_constraint_norm(se, w, 2.0)
    lower = localized_pairing(lam, se.scale(1.0 / c)) / f_inf_norm(lam, w, 2.0)
    return {
        "s": s, "J": J, "alpha": ALPHA,
        "xclass_C1": rep.C1, "xclass_C2": rep.C2,
        "fs_ratio": fsr.ratio,
        "mfun_over_fpq": mq_over_f,
        "extremal_lower": lower,
    }


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("reports/constant_sweep.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = [one_row(s, J, seed=99) for s in S_VALUES for J in J_VALUES]
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for r in rows:
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in r.items()))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
