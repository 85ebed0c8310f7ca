"""Reproducible experiment driver: fixtures, inequality/identity suites, reports.

Exit-code policy: checks marked hard (exact identities and exact inequalities)
fail the run; measured-constant drifts beyond their bands are soft and only
fail with --strict.  Every randomized input is determined by the config seed,
so rerunning a config byte-reproduces the report.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import DyadicCube, Grid, GridFunction, cube_at, cubes_at_level
from .errors import ConfigError, ResolutionError, TlwError
from .io import (
    export_filter_csv,
    save_coeff_field,
    save_grid_function,
    save_weight_sequence,
    weights_from_spec,
)
from .maximal import MaximalConfig, fs_ratio, maximal, scalar_maximal_ratio, shifted_maximal_constant
from .seqspace import (
    CoeffField,
    RestrictionSets,
    f_inf_norm,
    f_inf_norm_cubeavg,
    f_pq_norm,
    f_pq_norm_star,
    lambda_star,
    m_fun,
    m_fun_p_norm,
    m_p,
    restricted_norm,
)
from .weights import (
    ap_constant,
    ap_duality_identity,
    audit_family,
    exp2_weights,
    verify_x_class,
)

SUITES = ("ap-audit", "xclass", "maximal", "seqnorms", "duality", "phitransform")
# Random roles; each draws from its own stream.  "tests" (test functions and
# sampled cubes) is entropy word 0, which keeps the stream a suite had when it
# drew everything from one generator.
ROLES = ("tests", "weights", "subsets")


@dataclass
class ExperimentConfig:
    grid: dict
    weights: dict
    suite: str = "all"
    trials: int = 20
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config: must be a JSON object, got {raw!r}")
        for key in ("grid", "weights"):
            if key not in raw:
                raise ConfigError(f"{key}: missing required section")
            if not isinstance(raw[key], dict):
                raise ConfigError(f"{key}: must be an object, got {raw[key]!r}")
        grid = raw["grid"]
        for key in ("n", "L", "J"):
            if key not in grid:
                raise ConfigError(f"grid.{key}: missing")
        suite = raw.get("suite", "all")
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"suite: unknown suite {suite!r}")
        trials = _config_int(raw, "trials", 20)
        if trials <= 0:
            raise ConfigError("trials: must be positive")
        seed = _config_int(raw, "seed", 0)
        if seed < 0:
            raise ConfigError(f"seed: must be a nonnegative integer, got {seed}")
        tol = raw.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError("tolerances: must be an object of name: positive number")
        for name, v in tol.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0:
                raise ConfigError(f"tolerances.{name}: must be a positive number, got {v!r}")
        return cls(grid=grid, weights=raw["weights"], suite=suite, trials=trials,
                   seed=seed, tolerances=tol)

    def make_grid(self, bump_j: int = 0) -> Grid:
        return _grid_from(self.grid, bump_j)

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def canonical(self) -> dict:
        return {
            "grid": self.grid, "weights": self.weights, "suite": self.suite,
            "trials": self.trials, "seed": self.seed, "tolerances": self.tolerances,
        }


def _config_int(raw: dict, key: str, default: int | None, path: str = "") -> int:
    try:
        return int(raw.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{path}{key}: expected an integer, got {raw.get(key)!r}") from None


def _grid_from(g: dict, bump_j: int = 0, **defaults) -> Grid:
    """Grid from a `grid` object; a field that is not an integer raises ConfigError naming it."""
    if not isinstance(g, dict):
        raise ConfigError("grid: must be an object")
    J = _config_int(g, "J", defaults.get("J"), "grid.")
    d = {"k_min": 0, "k_max": min(J - 2, 3), **defaults}
    fields = {k: _config_int(g, k, d.get(k), "grid.") for k in ("n", "L", "k_min", "k_max")}
    try:
        return Grid(J=J + bump_j, **fields)
    except ValueError as exc:  # n outside {1, 2}
        raise ConfigError(f"grid: {exc}") from exc


@dataclass
class ReportRecord:
    suite: str
    checks: list[dict]
    provenance: dict

    def hard_failures(self) -> list[dict]:
        return [c for c in self.checks if c["status"] == "fail" and c.get("hard", False)]

    def soft_failures(self) -> list[dict]:
        return [c for c in self.checks if c["status"] == "fail" and not c.get("hard", False)]

    def to_json(self) -> dict:
        return {"suite": self.suite, "checks": self.checks, "provenance": self.provenance}


def _check(name: str, ok: bool, value, tolerance=None, hard=True, J=None, **extra) -> dict:
    out = {
        "name": name,
        "status": "pass" if ok else "fail",
        "value": value,
        "hard": hard,
    }
    if tolerance is not None:
        out["tolerance"] = tolerance
    if J is not None:
        out["J"] = J
    out.update(extra)
    return out


def _measured(name: str, value, J, **extra) -> dict:
    out = {"name": name, "status": "measured", "value": value, "hard": False, "J": J}
    out.update(extra)
    return out


def _rng_for(config: ExperimentConfig, suite: str, role: str) -> np.random.Generator:
    seq = np.random.SeedSequence([config.seed, SUITES.index(suite), ROLES.index(role)])
    return np.random.default_rng(seq)


def _skip(name: str, reason: str, J) -> dict:
    return {"name": name, "status": "skip", "reason": reason, "hard": False, "J": J}


def _stable(a: float, b: float, band: float) -> bool:
    if a == b == 0.0:
        return True
    return abs(a - b) <= band * max(abs(a), abs(b))


def suite_ap_audit(config: ExperimentConfig) -> list[dict]:
    rng = _rng_for(config, "ap-audit", "tests")
    grid = config.make_grid()
    w = weights_from_spec(grid, config.weights, _rng_for(config, "ap-audit", "weights"))
    fam = audit_family(grid)
    tol = config.tol("ap_duality", 1e-12)
    checks = []
    p = w.meta.p if w.meta.p > 1 else 2.0
    for k in w.levels:
        gamma = w.as_grid_function(k)
        rep = ap_constant(gamma, p, fam)
        checks.append(_check(f"ap_lower_bound_ge_1[k={k}]", rep.constant >= 1.0 - 1e-13,
                             rep.constant, hard=True, J=grid.J,
                             witness=[rep.argmax_cube.level, list(rep.argmax_cube.index)]))
        checks.append(_measured(f"ap_constant[k={k},p={p}]", rep.constant, grid.J))
    gamma0 = w.as_grid_function(grid.k_min)
    worst = 0.0
    for _ in range(config.trials):
        lev = int(rng.integers(-grid.L, grid.J + 1))
        cube = cube_at(grid, lev, int(rng.integers(grid.cubes_per_axis(lev) ** grid.n)))
        a, b = ap_duality_identity(gamma0, p, cube)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    checks.append(_check("ap_duality_identity", worst <= tol, worst, tolerance=tol, J=grid.J))
    return checks


def suite_xclass(config: ExperimentConfig) -> list[dict]:
    grid = config.make_grid()
    w = weights_from_spec(grid, config.weights, _rng_for(config, "xclass", "weights"))
    meta = w.meta
    p = meta.p
    a1 = meta.alpha1 if meta.alpha1 is not None else 0.0
    a2 = meta.alpha2 if meta.alpha2 is not None else a1
    tol = config.tol("xclass_exact", 1e-12)
    rep = verify_x_class(w, a1, a2, p, p, p)
    checks = [
        _measured("xclass_C1", rep.C1, grid.J, witness=rep.witness1.to_json()),
        _measured("xclass_C2", rep.C2, grid.J, witness=rep.witness2.to_json()),
        _measured("xclass_growth_rate1", rep.growth_rate(1), grid.J),
        _measured("xclass_growth_rate2", rep.growth_rate(2), grid.J),
    ]
    if meta.kind == "exp2":
        checks.append(_check("xclass_exp2_C1_exact", abs(rep.C1 - 1.0) <= tol, rep.C1,
                             tolerance=tol, J=grid.J))
        checks.append(_check("xclass_exp2_C2_exact", abs(rep.C2 - 1.0) <= tol, rep.C2,
                             tolerance=tol, J=grid.J))
        bad = verify_x_class(w, a1 + 1.0, a2, p, p, p)
        if len(bad.lag_profile1) < 2:
            checks.append(_skip("xclass_overdeclared_alpha_rejected",
                                "one coefficient level: a single lag has no growth rate", grid.J))
        else:
            checks.append(_check("xclass_overdeclared_alpha_rejected",
                                 bad.growth_rate(1) > 0.5, bad.growth_rate(1), hard=True,
                                 J=grid.J, witness=bad.witness1.to_json()))
    return checks


def suite_maximal(config: ExperimentConfig) -> list[dict]:
    rng = _rng_for(config, "maximal", "tests")
    checks = []
    grids = [config.make_grid(), config.make_grid(bump_j=1)]
    ratios = {}
    fs_ratios = {}
    for grid in grids:
        w = weights_from_spec(grid, config.weights, _rng_for(config, "maximal", "weights"))
        cfg = MaximalConfig(grid)
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        mf = maximal(f, cfg)
        checks.append(_check(f"maximal_dominates[J={grid.J}]",
                             bool(np.all(mf.values >= np.abs(f.values) - 1e-14)),
                             float((mf.values - np.abs(f.values)).min()), J=grid.J))
        g = GridFunction(grid, np.abs(f.values) + rng.random(grid.shape))
        mg = maximal(g, cfg)
        checks.append(_check(f"maximal_monotone[J={grid.J}]",
                             bool(np.all(mg.values >= mf.values - 1e-14)),
                             float((mg.values - mf.values).min()), J=grid.J))
        mcf = maximal(GridFunction(grid, -2.5 * f.values), cfg)
        scale_err = float(np.abs(mcf.values - 2.5 * mf.values).max())
        checks.append(_check(f"maximal_scaling[J={grid.J}]", scale_err <= 1e-12 * 2.5,
                             scale_err, J=grid.J))
        t0 = w.as_grid_function(list(w.levels)[0])
        ratios[grid.J] = scalar_maximal_ratio(f, t0, 2.0, cfg)
        fs = {k: GridFunction(grid, rng.standard_normal(grid.shape)) for k in w.levels}
        rep = fs_ratio(fs, w, 2.0, 2.0, cfg)
        fs_ratios[grid.J] = rep.ratio
        checks.append(_measured(f"fs_ratio[J={grid.J}]", rep.ratio, grid.J))
        checks.append(_measured(f"scalar_ratio[J={grid.J}]", ratios[grid.J], grid.J))
    band = config.tol("ratio_band", 0.10)
    j0, j1 = sorted(ratios)
    for name, r in (("scalar_ratio_stable", ratios), ("fs_ratio_stable", fs_ratios)):
        if r[j0] is None or r[j1] is None:
            checks.append(_skip(name, "a ratio is undefined (zero right-hand side)", [j0, j1]))
        else:
            checks.append(_check(name, _stable(r[j0], r[j1], band), [r[j0], r[j1]],
                                 tolerance=band, hard=False, J=[j0, j1]))
    grid = grids[0]
    w = exp2_weights(grid, 0.3)
    cfg = MaximalConfig(grid)
    f = GridFunction(grid, rng.standard_normal(grid.shape))
    consts = []
    ks = list(w.levels)
    for k in ks:
        for j in ks:
            if j >= k:
                consts.append(shifted_maximal_constant(f, w, k, j, 2.0, cfg, alpha1=0.3))
    checks.append(_measured("shifted_constant_max", max(consts), grid.J))
    checks.append(_check("shifted_constant_bounded", max(consts) / min(consts) < 25.0,
                         [min(consts), max(consts)], hard=False, J=grid.J))
    return checks


def suite_seqnorms(config: ExperimentConfig) -> list[dict]:
    rng = _rng_for(config, "seqnorms", "tests")
    subset_rng = _rng_for(config, "seqnorms", "subsets")
    grid = config.make_grid()
    w = weights_from_spec(grid, config.weights, _rng_for(config, "seqnorms", "weights"))
    tol = config.tol("identity", 1e-12)
    checks = []
    worst_identity = 0.0
    worst_cheby = -np.inf
    cheby_cubes = 0
    restricted_ok = True
    for _ in range(config.trials):
        lam = CoeffField.random(grid, rng)
        a = f_inf_norm(lam, w, 2.0)
        b = f_inf_norm_cubeavg(lam, w, 2.0)
        worst_identity = max(worst_identity, abs(a - b) / max(a, 1e-300))
        star = lambda_star(lam, 2.0, 2 * grid.n + 1)
        if not all(np.all(star.amplitude(k) >= lam.amplitude(k) - 1e-14) for k in lam.levels):
            worst_cheby = np.inf
        for lev in range(-grid.L, min(grid.k_max, grid.J - 2) + 1):
            for cube in cubes_at_level(grid, lev, limit=4):
                slack = 4.0 ** (1 / 2.0) * a - m_p(lam, w, 2.0, cube)
                worst_cheby = max(worst_cheby, -slack)
                cheby_cubes += 1
        E = RestrictionSets.random(grid, 0.75, subset_rng)
        if restricted_norm(lam, w, 2.0, E) > a * (1 + 1e-12):
            restricted_ok = False
    checks.append(_check("f_inf_equals_cubeavg", worst_identity <= tol, worst_identity,
                         tolerance=tol, J=grid.J))
    if cheby_cubes:
        checks.append(_check("chebyshev_quartile_bound", worst_cheby <= 0.0, worst_cheby,
                             J=grid.J))
    else:
        checks.append(_skip("chebyshev_quartile_bound",
                            "no cube level in [-L, min(k_max, J-2)] to check", grid.J))
    checks.append(_check("restricted_below_full", restricted_ok, restricted_ok, J=grid.J))
    atom = CoeffField.single(grid, grid.k_min, (0,) * grid.n)
    s = w.meta.params.get("s", 0.0) if w.meta.kind == "exp2" else None
    if s is not None:
        got = f_pq_norm(atom, w, 2.0, 2.0)
        want = 2.0 ** (grid.k_min * (grid.n / 2.0 + s - grid.n / 2.0))
        checks.append(_check("single_atom_closed_form", abs(got - want) <= tol * max(want, 1),
                             got, tolerance=tol, J=grid.J))
        star_norm = f_pq_norm_star(atom, w, 2.0, 2.0, delta=1.0)
        checks.append(_check("star_norm_cancellation",
                             abs(star_norm - got) <= tol * max(got, 1), star_norm,
                             tolerance=tol, J=grid.J))
    lam = CoeffField.random(grid, rng)
    checks.append(_measured("m_fun_sup", float(m_fun(lam, w, 2.0).values.max()), grid.J))
    checks.append(_measured("m_fun_l2_over_f22", m_fun_p_norm(lam, w, 2.0, 2.0)
                            / max(f_pq_norm(lam, w, 2.0, 2.0), 1e-300), grid.J))
    return checks


def suite_duality(config: ExperimentConfig) -> list[dict]:
    from .duality import (
        conjugate_norm,
        dp_claim_value,
        extremal_sequence,
        hoelder_check_1q,
        hoelder_check_pq,
        kappa_constraint_norm,
        localized_pairing,
        star_constraint_norm,
    )

    rng = _rng_for(config, "duality", "tests")
    grid = config.make_grid()
    w = weights_from_spec(grid, config.weights, _rng_for(config, "duality", "weights"))
    slack_tol = config.tol("hoelder_slack", 1e-10)
    checks = []
    worst_rel_slack = np.inf
    skip_1q = None
    for _ in range(config.trials):
        s = CoeffField.random(grid, rng)
        lam = CoeffField.random(grid, rng)
        for p, q in ((2.0, 2.0), (1.5, 3.0)):
            rep = hoelder_check_pq(s, lam, w, p, q)
            scale = max(rep.lhs_norm * rep.rhs_norm, 1e-300)
            worst_rel_slack = min(worst_rel_slack, rep.hoelder_slack / scale)
        if skip_1q is not None:
            continue
        try:
            rep1 = hoelder_check_1q(s, lam, w, 2.0)
        except ResolutionError as exc:
            skip_1q = f"p = 1 pairs left out: the default sets E cannot be built ({exc})"
            continue
        worst_rel_slack = min(worst_rel_slack,
                              rep1.hoelder_slack / max(rep1.factor * rep1.lhs_norm * rep1.rhs_norm, 1e-300))
    checks.append(_check("hoelder_slack_nonnegative", worst_rel_slack >= -slack_tol,
                         worst_rel_slack, tolerance=slack_tol, J=grid.J))
    if skip_1q is not None:
        checks.append(_skip("hoelder_slack_1q", skip_1q, grid.J))
    lam = CoeffField.random(grid, rng)
    q = 2.0
    s = extremal_sequence(lam, w, q)
    c = star_constraint_norm(s, w, q)
    ctol = config.tol("extremal_constraint", 1e-9)
    checks.append(_check("extremal_constraint_norm_one", abs(c - 1.0) <= ctol, c,
                         tolerance=ctol, J=grid.J))
    norm = f_inf_norm(lam, w, q)
    lower = localized_pairing(lam, s.scale(1.0 / c)) / max(norm, 1e-300)
    checks.append(_measured("extremal_lower_constant", lower, grid.J))
    checks.append(_measured("conjugate_norm_over_plain",
                            conjugate_norm(lam, w, q) / max(norm, 1e-300), grid.J))
    dp_worst = 0.0
    P = DyadicCube(-grid.L, (0,) * grid.n)
    for _ in range(min(config.trials, 50)):
        kappa = CoeffField.random(grid, rng)
        cn = kappa_constraint_norm(kappa, w, q)
        if cn == 0.0:
            continue
        dp_worst = max(dp_worst, dp_claim_value(kappa.scale(1.0 / cn), w, q, P))
    checks.append(_measured("dp_claim_sup", dp_worst, grid.J))
    return checks


def suite_phitransform(config: ExperimentConfig) -> list[dict]:
    from .phitransform import (
        BandSignal,
        build_filter_pair,
        roundtrip_residual,
        transfer_check,
    )

    rng = _rng_for(config, "phitransform", "tests")
    checks = []
    grids = [config.make_grid(), config.make_grid(bump_j=1)]
    ratio_ranges = {}
    for grid in grids:
        try:
            fp = build_filter_pair(grid)
        except ResolutionError as exc:
            return [_skip("phitransform", str(exc), grid.J)]
        checks.append(_check(f"support_confined[J={grid.J}]", fp.support_leak() <= 1e-14,
                             fp.support_leak(), tolerance=1e-14, J=grid.J))
        checks.append(_check(f"plateau_floor_positive[J={grid.J}]", fp.plateau_floor > 0,
                             fp.plateau_floor, J=grid.J))
        dev3 = fp.partition_deviation()
        checks.append(_check(f"scale_partition_unity[J={grid.J}]", dev3 <= 1e-12, dev3,
                             tolerance=1e-12, J=grid.J))
        covered = fp.covered_levels()
        k_lo = max(min(covered), grid.k_min)
        k_hi = min(max(covered), grid.k_max, grid.J - 1)
        if k_lo > k_hi:
            checks.append(_skip(f"phitransform[J={grid.J}]",
                                "no covered levels inside the configured range", grid.J))
            continue
        worst_res = 0.0
        for _ in range(config.trials):
            f = BandSignal.random_band(grid, rng, (k_lo, k_hi))
            worst_res = max(worst_res, roundtrip_residual(f, fp, (k_lo, k_hi)))
        checks.append(_check(f"roundtrip_residual[J={grid.J}]", worst_res <= 1e-9,
                             worst_res, tolerance=1e-9, J=grid.J))
        wgrid = grid.with_levels(k_lo, k_hi)
        w = weights_from_spec(wgrid, config.weights, _rng_for(config, "phitransform", "weights"))
        ratios = []
        for _ in range(config.trials):
            f = BandSignal.random_band(wgrid, rng, (k_lo, k_hi))
            seq, fun = transfer_check(f, fp, w, 2.0, 2.0)
            if fun > 0:
                ratios.append(seq / fun)
        ratio_ranges[grid.J] = (min(ratios), max(ratios))
        checks.append(_measured(f"transfer_ratio_range[J={grid.J}]",
                                list(ratio_ranges[grid.J]), grid.J))
    if len(ratio_ranges) == 2:
        band = config.tol("ratio_band", 0.10)
        (a0, b0), (a1, b1) = (ratio_ranges[j] for j in sorted(ratio_ranges))
        ok = _stable(a0, a1, band) and _stable(b0, b1, band)
        checks.append(_check("transfer_ratio_stable", ok,
                             [[a0, b0], [a1, b1]], tolerance=band, hard=False,
                             J=sorted(ratio_ranges)))
    return checks


SUITE_RUNNERS = {
    "ap-audit": suite_ap_audit,
    "xclass": suite_xclass,
    "maximal": suite_maximal,
    "seqnorms": suite_seqnorms,
    "duality": suite_duality,
    "phitransform": suite_phitransform,
}


def run(config: ExperimentConfig) -> ReportRecord:
    """Execute the selected suites and assemble the report record."""
    names = list(SUITES) if config.suite == "all" else [config.suite]
    results = {name: SUITE_RUNNERS[name](config) for name in names}
    checks = []
    for name in sorted(results):
        for c in results[name]:
            c = dict(c)
            c["suite"] = name
            checks.append(c)
    digest = hashlib.sha256(
        json.dumps(config.canonical(), sort_keys=True).encode()
    ).hexdigest()
    provenance = {"config_sha256": digest, "version": __version__, "seed": config.seed}
    return ReportRecord(suite=config.suite, checks=checks, provenance=provenance)


def emit(report: ReportRecord, fmt: str, path: str | Path):
    """Write the report with stable field ordering; CSV flattens per-check rows.

    JSON is strict: a NaN or infinite value raises ValueError.
    """
    path = Path(path)
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n")
    elif fmt == "csv":
        cols = ["suite", "name", "status", "hard", "value", "tolerance", "J", "reason"]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for c in report.checks:
                row = []
                for col in cols:
                    v = c.get(col, "")
                    if isinstance(v, (list, dict)):
                        v = json.dumps(v, sort_keys=True)
                    row.append(v)
                writer.writerow(row)
    else:
        raise ConfigError(f"format: unknown report format {fmt!r}")


FIXTURE_KINDS = ("exp2", "power", "random-ap", "band-signal", "coeff-field")


def fixture(kind: str, params: dict, seed: int, out_base: str | Path):
    """Write a deterministic fixture file in the module formats."""
    if kind not in FIXTURE_KINDS:
        raise ConfigError(f"kind: unknown fixture kind {kind!r}")
    if not isinstance(params, dict):
        raise ConfigError("params: must be a JSON object")
    rng = np.random.default_rng(seed)
    grid = _grid_from(params.get("grid", {}), n=1, L=1, J=6, k_max=3)
    if kind in ("exp2", "power", "random-ap"):
        w = weights_from_spec(grid, {**params, "kind": kind}, rng)
        save_weight_sequence(w, out_base)
    elif kind == "coeff-field":
        save_coeff_field(CoeffField.random(grid, rng), out_base)
    else:  # band-signal
        from .phitransform import BandSignal

        k_lo = _config_int(params, "k_lo", grid.k_min)
        k_hi = _config_int(params, "k_hi", grid.k_max)
        sig = BandSignal.random_band(grid, rng, (k_lo, k_hi))
        save_grid_function(GridFunction(grid, sig.values), out_base)


def _read_json(path: str, field: str):
    """The parsed JSON file; an unreadable or malformed file raises ConfigError naming `field`."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{field}: cannot read {path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tlw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run verification suites from a JSON config")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("-o", "--output", default=None)
    p_run.add_argument("--strict", action="store_true",
                       help="fail on measured-constant drifts too")

    p_fix = sub.add_parser("fixture", help="write a deterministic fixture")
    p_fix.add_argument("kind", choices=FIXTURE_KINDS)
    p_fix.add_argument("--params", default="{}", help="JSON parameter object")
    p_fix.add_argument("--seed", type=int, default=0)
    p_fix.add_argument("-o", "--output", required=True)

    p_rep = sub.add_parser("report", help="convert a JSON report")
    p_rep.add_argument("-i", "--input", required=True)
    p_rep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_rep.add_argument("-o", "--output", required=True)

    p_filt = sub.add_parser("export-filter", help="export filter spectra as CSV")
    p_filt.add_argument("--n", type=int, default=1)
    p_filt.add_argument("--L", type=int, default=2)
    p_filt.add_argument("--J", type=int, default=6)
    p_filt.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.from_dict(_read_json(args.config, "config"))
            report = run(config)
            out = args.output or "tlw_report.json"
            emit(report, "json", out)
            hard = report.hard_failures()
            soft = report.soft_failures()
            for c in report.checks:
                status = c["status"].upper()
                print(f"[{status:8s}] {c.get('suite', '')}:{c['name']}")
            print(f"report written to {out}")
            if hard:
                return 1
            if args.strict and soft:
                return 2
            return 0
        if args.command == "fixture":
            fixture(args.kind, json.loads(args.params), args.seed, args.output)
            print(f"fixture written to {args.output}")
            return 0
        if args.command == "report":
            raw = _read_json(args.input, "input")
            for key in ("suite", "checks", "provenance"):
                if not isinstance(raw, dict) or key not in raw:
                    raise ConfigError(f"{key}: missing from the report {args.input}")
            report = ReportRecord(suite=raw["suite"], checks=raw["checks"],
                                  provenance=raw["provenance"])
            emit(report, args.format, args.output)
            print(f"report written to {args.output}")
            return 0
        if args.command == "export-filter":
            from .phitransform import build_filter_pair

            grid = Grid(args.n, args.L, args.J, 0, min(3, args.J - 2))
            export_filter_csv(build_filter_pair(grid), args.output)
            print(f"filter spectra written to {args.output}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except TlwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    return 0


if __name__ == "__main__":
    sys.exit(main())
