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
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import DyadicCube, Grid, GridFunction, cube_at, first_max, lp_lq_norm
from .errors import ConfigError, NonFiniteError, ResolutionError, TlwError
from .io import (
    export_filter_csv,
    save_coeff_field,
    save_grid_function,
    save_weight_sequence,
    weights_from_spec,
)
from .seqspace import (
    CoeffField,
    RestrictionSets,
    f_inf_norm,
    f_inf_norm_cubeavg,
    f_pq_norm,
    f_pq_norm_star,
    lambda_star,
    m_fun,
    m_p_levels,
    restricted_norm,
)
from .weights import (
    ap_constant,
    ap_duality_identity,
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

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config: must be a JSON object, got {raw!r}")
        for key in ("grid", "weights"):
            if key not in raw:
                raise ConfigError(f"{key}: missing required section")
            if not isinstance(raw[key], dict):
                raise ConfigError(f"{key}: must be an object, got {raw[key]!r}")
        if "tolerances" in raw:
            raise ConfigError("tolerances: not a config section; each check's tolerance is fixed")
        _grid_from(raw["grid"])  # a bad grid is refused before any suite runs
        suite = raw.get("suite", "all")
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"suite: unknown suite {suite!r}")
        trials = _config_int(raw, "trials", 20)
        if trials <= 0:
            raise ConfigError("trials: must be positive")
        seed = _config_int(raw, "seed", 0)
        if seed < 0:
            raise ConfigError(f"seed: must be a nonnegative integer, got {seed}")
        return cls(grid=raw["grid"], weights=raw["weights"], suite=suite, trials=trials, seed=seed)

    def make_grid(self, bump_j: int = 0) -> Grid:
        return _grid_from(self.grid, bump_j)

    def canonical(self) -> dict:
        """The config as run: the grid parsed, its integers and defaults filled in."""
        return {
            "grid": asdict(self.make_grid()), "weights": self.weights, "suite": self.suite,
            "trials": self.trials, "seed": self.seed,
        }


def _config_int(raw: dict, key: str, default: int | None, path: str = "") -> int:
    """raw[key] as an int; a bool, a non-integral number or a non-number raises ConfigError."""
    value = raw.get(key, default)
    try:
        if isinstance(value, bool) or int(value) != float(value):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}{key}: expected an integer, got {value!r}") from None


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


def _record(name: str, values, bound: float | None = None, op: str = "<=", *, J, hard=True,
            value=None, labels=None, reason="no instance is defined", **extra) -> dict:
    """One check's report entry from its per-instance values.

    An instance whose value is None or NaN is undefined and not covered; with
    no covered instance the check is a `skip` with `reason`.  Without a
    `bound` it is `measured`.  Otherwise it passes iff its worst instance
    satisfies `worst op bound` (op one of <=, <, >=, >), and `margin` is the
    signed distance of the worst instance from the bound: >= 0 iff it passes
    (> 0 for a strict op).  `value` defaults to the worst instance, and
    `witness` is its label in `labels` (one per instance) or else its index:
    a trial, or a finest cell's row-major index.
    """
    vals = np.asarray(values, dtype=float)
    covered = int(np.count_nonzero(~np.isnan(vals)))
    if not covered:
        return {"name": name, "status": "skip", "reason": reason, "hard": False, "J": J,
                "covered": 0}
    at = int(np.nanargmin(vals) if op in (">=", ">") else np.nanargmax(vals))
    worst = float(vals.flat[at])
    witness = (labels[at] if labels is not None else at if vals.ndim == 1
               else [int(i) for i in np.unravel_index(at, vals.shape)])
    out = {"name": name, "status": "measured", "value": worst if value is None else value,
           "hard": False, "J": J, "covered": covered, "witness": witness}
    if bound is not None:
        margin = worst - bound if op in (">=", ">") else bound - worst
        ok = margin > 0 if op in (">", "<") else margin >= 0
        out.update(status="pass" if ok else "fail", hard=hard, margin=margin)
    out.update(extra)
    return out


RATIO_BAND = 0.10  # refinement stability: a ratio may move this much from J to J+1


def _rel_change(a: float | None, b: float | None) -> float:
    """|a - b| relative to the larger of |a|, |b| (0 for two zeros); NaN if either is None."""
    if a is None or b is None:
        return math.nan
    return 0.0 if a == b == 0.0 else abs(a - b) / max(abs(a), abs(b))


def _rng_for(config: ExperimentConfig, suite: str, role: str) -> np.random.Generator:
    seq = np.random.SeedSequence([config.seed, SUITES.index(suite), ROLES.index(role)])
    return np.random.default_rng(seq)


def suite_ap_audit(config: ExperimentConfig) -> list[dict]:
    rng = _rng_for(config, "ap-audit", "tests")
    grid = config.make_grid()
    w = weights_from_spec(grid, config.weights, _rng_for(config, "ap-audit", "weights"))
    checks = []
    p = w.meta.p if w.meta.p > 1 else 2.0
    for k in w.levels:
        rep = ap_constant(w.as_grid_function(k), p)
        cube = [rep.argmax_cube.level, list(rep.argmax_cube.index)]
        checks.append(_record(f"ap_lower_bound_ge_1[k={k}]", [rep.constant], 1.0 - 1e-13, ">=",
                              J=grid.J, labels=[cube]))
        checks.append(_record(f"ap_constant[k={k},p={p}]", [rep.constant], J=grid.J, labels=[cube]))
    gamma0 = w.as_grid_function(grid.k_min)
    errors, cubes = [], []
    for _ in range(config.trials):
        lev = int(rng.integers(-grid.L, grid.J + 1))
        cube = cube_at(grid, lev, int(rng.integers(grid.cubes_per_axis(lev) ** grid.n)))
        a, b = ap_duality_identity(gamma0, p, cube)
        errors.append(abs(a - b) / max(abs(b), 1e-300))
        cubes.append([cube.level, list(cube.index)])
    checks.append(_record("ap_duality_identity", errors, 1e-12, J=grid.J, labels=cubes,
                          tolerance=1e-12))
    return checks


def suite_xclass(config: ExperimentConfig) -> list[dict]:
    grid = config.make_grid()
    w = weights_from_spec(grid, config.weights, _rng_for(config, "xclass", "weights"))
    meta = w.meta
    p = meta.p
    a1 = meta.alpha1 if meta.alpha1 is not None else 0.0
    a2 = meta.alpha2 if meta.alpha2 is not None else a1
    rep = verify_x_class(w, a1, a2, p, p, p)
    checks = [
        _record("xclass_C1", [rep.C1], J=grid.J, labels=[rep.witness1.to_json()]),
        _record("xclass_C2", [rep.C2], J=grid.J, labels=[rep.witness2.to_json()]),
        _record("xclass_growth_rate1", [rep.growth_rate(1)], J=grid.J),
        _record("xclass_growth_rate2", [rep.growth_rate(2)], J=grid.J),
    ]
    if meta.kind == "exp2":
        for i, C in ((1, rep.C1), (2, rep.C2)):
            checks.append(_record(f"xclass_exp2_C{i}_exact", [abs(C - 1.0)], 1e-12, J=grid.J,
                                  value=C, tolerance=1e-12))
        bad = verify_x_class(w, a1 + 1.0, a2, p, p, p)
        rate = bad.growth_rate(1) if len(bad.lag_profile1) >= 2 else None
        checks.append(_record("xclass_overdeclared_alpha_rejected", [rate], 0.5, ">", J=grid.J,
                              labels=[bad.witness1.to_json()],
                              reason="one coefficient level: a single lag has no growth rate"))
    return checks


def suite_maximal(config: ExperimentConfig) -> list[dict]:
    from .maximal import (
        MaximalConfig,
        fs_ratio,
        maximal,
        scalar_maximal_ratio,
        shifted_maximal_constant,
    )

    rng = _rng_for(config, "maximal", "tests")
    checks = []
    grids = [config.make_grid(), config.make_grid(bump_j=1)]
    ratios = {"fs_ratio": {}, "scalar_ratio": {}}
    undefined = "a ratio is undefined (zero right-hand side)"
    for grid in grids:
        w = weights_from_spec(grid, config.weights, _rng_for(config, "maximal", "weights"))
        cfg = MaximalConfig(grid)
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        mf = maximal(f, cfg)
        checks.append(_record(f"maximal_dominates[J={grid.J}]", mf.values - np.abs(f.values),
                              -1e-14, ">=", J=grid.J))
        g = GridFunction(grid, np.abs(f.values) + rng.random(grid.shape))
        mg = maximal(g, cfg)
        checks.append(_record(f"maximal_monotone[J={grid.J}]", mg.values - mf.values,
                              -1e-14, ">=", J=grid.J))
        del g, mg
        mcf = maximal(GridFunction(grid, -2.5 * f.values), cfg)
        checks.append(_record(f"maximal_scaling[J={grid.J}]",
                              np.abs(mcf.values - 2.5 * mf.values), 1e-12 * 2.5, J=grid.J))
        del mcf
        t0 = w.as_grid_function(grid.k_min)
        ratios["scalar_ratio"][grid.J] = scalar_maximal_ratio(f, t0, 2.0, cfg, mf)
        if grid is grids[0]:  # the level-shifted inequality, with the weights' declared alpha1
            a1 = w.meta.alpha1 if w.meta.alpha1 is not None else 0.0
            pairs = [[k, j] for k in w.levels for j in w.levels if j >= k]
            consts = [shifted_maximal_constant(f, w, k, j, 2.0, cfg, alpha1=a1, mf=mf)
                      for k, j in pairs]
        del f, mf
        fs = ((k, GridFunction(grid, rng.standard_normal(grid.shape))) for k in w.levels)
        ratios["fs_ratio"][grid.J] = fs_ratio(fs, w, 2.0, 2.0, cfg).ratio  # draws f_k when due
        for name, r in ratios.items():
            checks.append(_record(f"{name}[J={grid.J}]", [r[grid.J]], J=grid.J, reason=undefined))
    j0, j1 = (grid.J for grid in grids)
    for name in ("scalar_ratio", "fs_ratio"):
        r = ratios[name]
        checks.append(_record(f"{name}_stable", [_rel_change(r[j0], r[j1])], RATIO_BAND,
                              J=[j0, j1], hard=False, value=[r[j0], r[j1]],
                              tolerance=RATIO_BAND, reason=undefined))
    checks.append(_record("shifted_constant_max", consts, J=j0, labels=pairs))
    checks.append(_record("shifted_constant_bounded", [max(consts) / min(consts)], 25.0, "<",
                          J=j0, hard=False, value=[min(consts), max(consts)]))
    return checks


def suite_seqnorms(config: ExperimentConfig) -> list[dict]:
    rng = _rng_for(config, "seqnorms", "tests")
    subset_rng = _rng_for(config, "seqnorms", "subsets")
    grid = config.make_grid()
    w = weights_from_spec(grid, config.weights, _rng_for(config, "seqnorms", "weights"))
    tol = 1e-12
    checks = []
    identity, cheby, cheby_cubes, deficits, restricted = [], [], [], [], []
    for _ in range(config.trials):
        lam = CoeffField.random(grid, rng)
        a = f_inf_norm(lam, w, 2.0)
        identity.append(abs(a - f_inf_norm_cubeavg(lam, w, 2.0)) / max(a, 1e-300))
        star = lambda_star(lam, 2.0, 2 * grid.n + 1)
        deficits.append(max(float((lam.amplitude(k) - star.amplitude(k)).max())
                            for k in lam.levels))
        m_levels = m_p_levels(lam, w, 2.0)  # every cube with at least 4 cells
        if m_levels:
            m, cube = first_max(m_levels)
            cheby.append(m - 4.0 ** (1 / 2.0) * a)
            cheby_cubes.append([cube.level, list(cube.index)])
        E = RestrictionSets.random(grid, 0.75, subset_rng)
        restricted.append(restricted_norm(lam, w, 2.0, E) / max(a, 1e-300))
    checks.append(_record("f_inf_equals_cubeavg", identity, tol, J=grid.J, tolerance=tol))
    # The bound rests on lambda* >= |lambda|; where that fails, the check
    # fails on the largest deficit |lambda| - lambda* instead.
    dominated = max(deficits) <= 1e-14
    values, bound, labels = (cheby, 0.0, cheby_cubes) if dominated else (deficits, 1e-14, None)
    checks.append(_record("chebyshev_quartile_bound", values, bound, J=grid.J, labels=labels,
                          reason="no cube of level <= k_max has the 4 cells m_P needs"))
    checks.append(_record("restricted_below_full", restricted, 1 + 1e-12, J=grid.J))
    if w.meta.kind == "exp2":
        s = w.meta.params["s"]
        atom = CoeffField.single(grid, grid.k_min, (0,) * grid.n)
        got = f_pq_norm(atom, w, 2.0, 2.0)
        want = 2.0 ** (grid.k_min * (grid.n / 2.0 + s - grid.n / 2.0))
        checks.append(_record("single_atom_closed_form", [abs(got - want)], tol * max(want, 1),
                              J=grid.J, value=got, tolerance=tol))
        star_norm = f_pq_norm_star(atom, w, 2.0, 2.0, delta=1.0)
        checks.append(_record("star_norm_cancellation", [abs(star_norm - got)],
                              tol * max(got, 1), J=grid.J, value=star_norm, tolerance=tol))
    lam = CoeffField.random(grid, rng)
    m = m_fun(lam, w, 2.0).values
    checks.append(_record("m_fun_sup", [float(m.max())], J=grid.J))
    checks.append(_record("m_fun_l2_over_f22", [lp_lq_norm(grid, [m], 2.0)
                          / max(f_pq_norm(lam, w, 2.0, 2.0), 1e-300)], J=grid.J))
    return checks


def suite_duality(config: ExperimentConfig) -> list[dict]:
    from .duality import (
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
    checks = []
    slacks, pairs = [], []
    skip_1q = None
    for trial in range(config.trials):
        s = CoeffField.random(grid, rng)
        lam = CoeffField.random(grid, rng)
        for p, q in ((2.0, 2.0), (1.5, 3.0)):
            rep = hoelder_check_pq(s, lam, w, p, q)
            slacks.append(rep.hoelder_slack / max(rep.lhs_norm * rep.rhs_norm, 1e-300))
            pairs.append([trial, p, q])
        if skip_1q is not None:
            continue
        try:
            rep1 = hoelder_check_1q(s, lam, w, 2.0)
        except ResolutionError as exc:
            skip_1q = f"p = 1 pairs left out: the default sets E cannot be built ({exc})"
            continue
        slacks.append(rep1.hoelder_slack / max(rep1.factor * rep1.lhs_norm * rep1.rhs_norm, 1e-300))
        pairs.append([trial, 1.0, 2.0])
    checks.append(_record("hoelder_slack_nonnegative", slacks, -1e-10, ">=", J=grid.J,
                          labels=pairs, tolerance=1e-10))
    if skip_1q is not None:
        checks.append(_record("hoelder_slack_1q", [], J=grid.J, reason=skip_1q))
    lam = CoeffField.random(grid, rng)
    q = 2.0
    s = extremal_sequence(lam, w, q)
    c = star_constraint_norm(s, w, q)
    checks.append(_record("extremal_constraint_norm_one", [abs(c - 1.0)], 1e-9, J=grid.J,
                          value=c, tolerance=1e-9))
    norm = f_inf_norm(lam, w, q)
    lower = localized_pairing(lam, s.scale(1.0 / c)) / max(norm, 1e-300)
    checks.append(_record("extremal_lower_constant", [lower], J=grid.J))
    # The conjugate-norm lower bound over the plain norm is this same ratio: one value, two names.
    checks.append(_record("conjugate_norm_over_plain", [lower], J=grid.J))
    dp = []
    P = DyadicCube(-grid.L, (0,) * grid.n)
    for _ in range(min(config.trials, 50)):
        kappa = CoeffField.random(grid, rng)
        cn = kappa_constraint_norm(kappa, w, q)
        dp.append(dp_claim_value(kappa.scale(1.0 / cn), w, q, P) if cn else None)
    checks.append(_record("dp_claim_sup", dp, J=grid.J,
                          reason="every kappa drawn has zero constraint norm"))
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
            return [_record("phitransform", [], J=grid.J, reason=str(exc))]
        checks.append(_record(f"support_confined[J={grid.J}]", [fp.support_leak()], 1e-14,
                              J=grid.J, tolerance=1e-14))
        checks.append(_record(f"plateau_floor_positive[J={grid.J}]", [fp.plateau_floor], 0.0,
                              ">", J=grid.J))
        checks.append(_record(f"scale_partition_unity[J={grid.J}]", [fp.partition_deviation()],
                              1e-12, J=grid.J, tolerance=1e-12))
        covered = fp.covered_levels()
        if covered:
            band = (max(min(covered), grid.k_min), min(max(covered), grid.k_max, grid.J - 1))
        if not covered or band[0] > band[1]:
            checks.append(_record(f"phitransform[J={grid.J}]", [], J=grid.J,
                                  reason="no covered levels inside the configured range"))
            continue
        residuals = []
        try:
            for _ in range(config.trials):
                f = BandSignal.random_band(grid, rng, band)
                residuals.append(roundtrip_residual(f, fp, band))
        except ResolutionError as exc:  # a band of one level may hold no frequency
            checks.append(_record(f"phitransform[J={grid.J}]", [], J=grid.J, reason=str(exc)))
            continue
        checks.append(_record(f"roundtrip_residual[J={grid.J}]", residuals, 1e-9, J=grid.J,
                              tolerance=1e-9))
        wgrid = grid.with_levels(*band)
        w = weights_from_spec(wgrid, config.weights, _rng_for(config, "phitransform", "weights"))
        ratios = []
        for _ in range(config.trials):
            f = BandSignal.random_band(wgrid, rng, band)
            seq, fun = transfer_check(f, fp, w, 2.0, 2.0)
            ratios.append(seq / fun if fun > 0 else math.nan)
        ratio_ranges[grid.J] = [float(np.fmin.reduce(ratios)), float(np.fmax.reduce(ratios))]
        checks.append(_record(f"transfer_ratio_range[J={grid.J}]", ratios, J=grid.J,
                              value=ratio_ranges[grid.J],
                              reason="every transfer ratio is undefined (zero function norm)"))
        del fp, w, f  # with their caches, before the J+1 grid builds its own
    if len(ratio_ranges) == 2:
        (j0, (a0, b0)), (j1, (a1, b1)) = sorted(ratio_ranges.items())
        checks.append(_record("transfer_ratio_stable", [_rel_change(a0, a1), _rel_change(b0, b1)],
                              RATIO_BAND, J=[j0, j1], hard=False, value=[[a0, b0], [a1, b1]],
                              tolerance=RATIO_BAND,
                              reason="a transfer ratio is undefined (zero function norm)"))
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
    results = {}
    for name in names:  # a floating-point error raises, so no inf or NaN reaches a report
        try:
            with np.errstate(all="raise", under="ignore"):
                results[name] = SUITE_RUNNERS[name](config)
        except FloatingPointError as exc:
            raise NonFiniteError(f"{name}: {exc}") from None
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


def _read_json(path: str, field: str, parse_constant=None):
    """The parsed JSON file; an unreadable or malformed file raises ConfigError naming `field`.

    Reports are strict JSON, read with `_no_constant`; a config's NaN reaches its field check."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=parse_constant)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{field}: cannot read {path}: {exc}") from None


def _no_constant(token: str):  # json.loads calls it on NaN, Infinity and -Infinity
    raise ValueError(f"{token} is not strict JSON")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tlw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run verification suites from a JSON config")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("-o", "--output", default="tlw_report.json")
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
        if not Path(args.output).parent.is_dir():
            raise ConfigError(f"output: no directory {Path(args.output).parent} to write into")
        if args.command == "run":
            config = ExperimentConfig.from_dict(_read_json(args.config, "config"))
            report = run(config)
            emit(report, "json", args.output)
            hard = report.hard_failures()
            soft = report.soft_failures()
            for c in report.checks:
                status = c["status"].upper()
                print(f"[{status:8s}] {c.get('suite', '')}:{c['name']}")
            print(f"report written to {args.output}")
            if hard:
                return 1
            if args.strict and soft:
                return 2
            return 0
        if args.command == "fixture":
            try:
                params = json.loads(args.params)
            except ValueError as exc:
                raise ConfigError(f"params: not valid JSON: {exc}") from None
            fixture(args.kind, params, args.seed, args.output)
            print(f"fixture written to {args.output}")
            return 0
        if args.command == "report":
            raw = _read_json(args.input, "input", parse_constant=_no_constant)
            for key in ("suite", "checks", "provenance"):
                if not isinstance(raw, dict) or key not in raw:
                    raise ConfigError(f"{key}: missing from the report {args.input}")
            checks = raw["checks"]
            if not (isinstance(checks, list) and all(isinstance(c, dict) for c in checks)):
                raise ConfigError(f"checks: not a list of objects in the report {args.input}")
            report = ReportRecord(suite=raw["suite"], checks=checks, provenance=raw["provenance"])
            emit(report, args.format, args.output)
            print(f"report written to {args.output}")
            return 0
        if args.command == "export-filter":
            from .phitransform import build_filter_pair

            grid = _grid_from({"n": args.n, "L": args.L, "J": args.J})
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
