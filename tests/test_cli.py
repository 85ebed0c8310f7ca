import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlw.cli import SUITES, ExperimentConfig, emit, fixture, main, run
from tlw.dyadic import Grid, GridFunction
from tlw.errors import ConfigError

from . import oracles
from .test_buffered_kernels import traced_peak


def base_config(suite="seqnorms", **over):
    cfg = {
        "grid": {"n": 1, "L": 1, "J": 5, "k_min": 0, "k_max": 3},
        "weights": {"kind": "exp2", "s": 0.3},
        "suite": suite,
        "trials": 5,
        "seed": 11,
    }
    cfg.update(over)
    return cfg


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="grid"):
        ExperimentConfig.from_dict({"weights": {"kind": "exp2"}})
    with pytest.raises(ConfigError, match="suite"):
        ExperimentConfig.from_dict(base_config(suite="bogus"))
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.from_dict(base_config(trials=0))
    with pytest.raises(ConfigError, match="tolerances"):
        ExperimentConfig.from_dict(base_config(tolerances={"identity": -1.0}))


def test_seqnorms_suite_trivial_weights_passes():
    report = run(ExperimentConfig.from_dict(base_config()))
    assert not report.hard_failures()
    names = {c["name"] for c in report.checks}
    assert "f_inf_equals_cubeavg" in names
    assert report.provenance["version"]


def test_exit_codes_and_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config()))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "-c", str(cfg_path), "-o", str(out1)]) == 0
    assert main(["run", "-c", str(cfg_path), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()  # same seed, byte-identical


def test_all_suites_run_and_merge(tmp_path):
    cfg = base_config(suite="all")
    cfg["grid"] = {"n": 1, "L": 2, "J": 5, "k_min": 0, "k_max": 3}
    report = run(ExperimentConfig.from_dict(cfg))
    suites = {c["suite"] for c in report.checks}
    assert suites == {"ap-audit", "xclass", "maximal", "seqnorms", "duality", "phitransform"}
    assert not report.hard_failures()
    assert [c["suite"] for c in report.checks] == sorted(
        c["suite"] for c in report.checks
    )


def test_phitransform_suite_skips_on_coarse_domain():
    cfg = base_config(suite="phitransform")  # L = 1: base annulus empty
    report = run(ExperimentConfig.from_dict(cfg))
    assert any(c["status"] == "skip" and "reason" in c for c in report.checks)
    assert not report.hard_failures()


def test_emit_csv_row_count(tmp_path):
    report = run(ExperimentConfig.from_dict(base_config()))
    out = tmp_path / "r.csv"
    emit(report, "csv", out)
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1 + len(report.checks)
    assert rows[0].startswith("suite,name,status")


def test_report_roundtrip_parse_back(tmp_path):
    report = run(ExperimentConfig.from_dict(base_config()))
    out = tmp_path / "r.json"
    emit(report, "json", out)
    parsed = json.loads(out.read_text())
    assert parsed["suite"] == report.suite
    assert parsed["checks"] == json.loads(json.dumps(report.checks))
    assert parsed["provenance"]["config_sha256"] == report.provenance["config_sha256"]


def test_config_digest_covers_the_parsed_grid(tmp_path):
    digests = set()
    for i, J in enumerate(("5", 5.0, 5)):
        cfg = base_config(suite="xclass", trials="2" if i == 0 else 2)
        cfg["grid"] = {"n": 1, "L": 1, "J": J}  # k_min and k_max take their defaults
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["run", "-c", str(tmp_path / "c.json"), "-o", str(tmp_path / f"r{i}.json")]) == 0
        digests.add(json.loads((tmp_path / f"r{i}.json").read_text())["provenance"]["config_sha256"])
    cfg["grid"].update(k_min=0, k_max=3)
    report = run(ExperimentConfig.from_dict(cfg))
    assert digests == {report.provenance["config_sha256"]}


def test_report_subcommand_csv(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config()))
    rep_path = tmp_path / "rep.json"
    assert main(["run", "-c", str(cfg_path), "-o", str(rep_path)]) == 0
    out = tmp_path / "rep.csv"
    assert main(["report", "-i", str(rep_path), "--format", "csv", "-o", str(out)]) == 0
    n_checks = len(json.loads(rep_path.read_text())["checks"])
    assert len(out.read_text().strip().splitlines()) == 1 + n_checks


def test_invalid_config_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"weights": {"kind": "exp2"}}))
    assert main(["run", "-c", str(cfg_path)]) == 64


def _drop_header_n(base):
    header = json.loads(base.with_suffix(".json").read_text())
    del header["n"]
    base.with_suffix(".json").write_text(json.dumps(header))


def _finer_level_file(base):
    from tlw.dyadic import Grid, GridFunction
    from tlw.io import save_grid_function

    finer = Grid(n=1, L=1, J=6, k_min=0, k_max=3)  # the run grid has J = 5
    save_grid_function(GridFunction.constant(finer, 1.0), base)


BROKEN_LEVEL_FILE = {
    "header-not-json": lambda base: base.with_suffix(".json").write_text("{"),
    "header-without-n": _drop_header_n,
    "truncated-bin": lambda base: base.with_suffix(".bin").write_bytes(
        base.with_suffix(".bin").read_bytes()[:-8]),
    "finer-grid": _finer_level_file,
}


@pytest.mark.parametrize("over, field", [
    ({"trials": "abc"}, "trials"),
    # tolerances are fixed at their checks; a config that still sets one is refused
    ({"tolerances": {"identity": 1e-12}}, "tolerances"),
    ({"tolerances": [1e-12]}, "tolerances"),
    ({"seed": -1}, "seed"),
    ({"weights": {"kind": "exp2", "s": "foo"}}, "weights.s"),
    ({"weights": {"kind": "exp2", "p": None}}, "weights.p"),
    ({"weights": {"kind": "power", "alpha": [1]}}, "weights.alpha"),
    ({"weights": {"kind": "random-ap", "spread": "wide"}}, "weights.spread"),
    # a list is a `tlw` command line rather than a config override
    (["fixture", "exp2", "--params", '{"grid": {"n": 1, "J": "x"}}'], "grid.J"),
    ({"grid": {"n": 1, "L": 1, "J": 5, "k_max": "3.5"}}, "grid.k_max"),
    ("5", "config"),  # a string is the whole config file
    ("null", "config"),
    ('{"grid": ', "config"),
    (["run", "-c", "no-such-dir/config.json"], "config"),
    ({"grid": 3}, "grid"),
    ({"weights": 7}, "weights"),
    ({"weights": {"kind": "grid", "file": "no-such-dir/w"}}, "weights.file"),
    ({"weights": {"kind": "grid", "file": 5}}, "weights.file"),
    ({"weights": {"kind": "random-ap", "spread": -1}}, "weights.spread"),
    ({"weights": {"kind": "exp2", "p": 0}}, "weights.p"),
    ({"weights": {"kind": "exp2", "p": -2}}, "weights.p"),
    ({"weights": {"kind": "exp2", "p": math.inf}}, "weights.p"),  # JSON Infinity
    ({"weights": {"kind": "exp2", "s": math.nan}}, "weights.s"),  # JSON NaN
    # BAD names a file holding a report without its `suite`
    (["report", "-i", "BAD", "--format", "csv"], "suite"),
    # an output in a missing directory is refused before any work
    (["run", "-c", "BAD", "-o", "no-such-dir/r.json"], "output"),
    (["fixture", "exp2", "-o", "no-such-dir/w"], "output"),
    (["fixture", "exp2", "--params", "{"], "params"),
    # integer fields take no fraction and no boolean
    ({"grid": {"n": 1, "L": 1, "J": 6.9, "k_min": 0, "k_max": 3}}, "grid.J"),
    ({"trials": 2.5}, "trials"),
    ({"trials": True}, "trials"),
    ({"grid": {"n": 1, "L": False, "J": 5}}, "grid.L"),
    # the export-filter grid takes the same path as a config's grid
    (["export-filter", "--n", "3"], "grid"),
    (["export-filter", "--J", "1"], "grid"),
    # a level file of grid weights, damaged in a way BROKEN_LEVEL_FILE names
    ({"damaged": "header-not-json"}, "weights.file"),
    ({"damaged": "header-without-n"}, "weights.file"),
    ({"damaged": "truncated-bin"}, "weights.file"),
    ({"damaged": "finer-grid"}, "weights.file"),
    # (tlw command line, the report BAD holds): checks that are not objects, and
    # non-standard constants, which no strict JSON report holds
    ((["report", "-i", "BAD", "--format", "csv"],
      '{"suite": "all", "checks": [1], "provenance": {}}'), "checks"),
    ((["report", "-i", "BAD", "--format", "csv"],
      '{"suite": "all", "checks": {"name": "x"}, "provenance": {}}'), "checks"),
    ((["report", "-i", "BAD", "--format", "json"],
      '{"suite": "all", "checks": [{"value": NaN}], "provenance": {}}'), "input"),
    ((["report", "-i", "BAD", "--format", "json"],
      '{"suite": "all", "checks": [], "provenance": {"t": -Infinity}}'), "input"),
])
def test_bad_config_exits_64_naming_the_field(tmp_path, capsys, over, field):
    bad = tmp_path / "bad.json"
    report = json.dumps({"checks": [], "provenance": {}})  # a report without its `suite`
    if isinstance(over, tuple):
        over, report = over
    if isinstance(over, dict) and "damaged" in over:  # grid weights, level-0 file damaged
        fixture("random-ap", {"grid": base_config()["grid"]}, 0, tmp_path / "w")
        BROKEN_LEVEL_FILE[over["damaged"]](tmp_path / "w_k0")
        over = {"weights": {"kind": "grid", "file": str(tmp_path / "w")}}
    if isinstance(over, list):
        bad.write_text(report)
        argv = [str(bad) if a == "BAD" else a for a in over]
        argv += [] if "-o" in argv else ["-o", str(tmp_path / "w")]
    else:
        bad.write_text(over if isinstance(over, str) else json.dumps(base_config(**over)))
        argv = ["run", "-c", str(bad), "-o", str(tmp_path / "r.json")]
    assert main(argv) == 64
    assert f"config error: {field}:" in capsys.readouterr().err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("edit", [
    lambda header: [],
    lambda header: {**header, "L": 1.5},
    lambda header: {**header, "J": "4"},
    lambda header: {**header, "L": None},
    lambda header: {**header, "format": "xml"},
    lambda header: {**header, "n": True},
], ids=["list", "L-fraction", "J-string", "L-null", "format-xml", "n-bool"])
def test_malformed_level_header_exits_64_naming_the_level(tmp_path, capsys, edit):
    fixture("random-ap", {"grid": base_config()["grid"]}, 0, tmp_path / "w")
    header = tmp_path / "w_k1.json"
    header.write_text(json.dumps(edit(json.loads(header.read_text()))))
    cfg_path = tmp_path / "config.json"
    weights = {"kind": "grid", "file": str(tmp_path / "w")}
    cfg_path.write_text(json.dumps(base_config(weights=weights)))
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "r.json")]) == 64
    err = capsys.readouterr().err
    assert "config error: weights.file: cannot read level 1: ConfigError(" in err


@pytest.mark.parametrize("suite, skipped", [
    ("seqnorms", "chebyshev_quartile_bound"),  # no cube has the 4 cells m_P needs
    ("duality", "hoelder_slack_1q"),  # the default sets E need 4-cell cubes
    ("xclass", "xclass_overdeclared_alpha_rejected"),  # one level: lag 0 only, no growth rate
    ("all", "xclass_overdeclared_alpha_rejected"),
])
def test_two_cell_grid_skips_with_reason_and_writes_strict_json(tmp_path, suite, skipped):
    cfg = base_config(suite=suite, grid={"n": 1, "L": 0, "J": 1, "k_min": 0, "k_max": 0})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
    checks = {c["name"]: c for c in _strict_json(out.read_text())["checks"]}
    assert checks[skipped]["status"] == "skip"
    assert checks[skipped]["reason"]


def test_undefined_fs_ratio_makes_stability_a_skip(monkeypatch):
    import dataclasses

    import tlw.cli as cli
    import tlw.maximal as maximal_module

    real = maximal_module.fs_ratio
    monkeypatch.setattr(maximal_module, "fs_ratio",
                        lambda *a, **kw: dataclasses.replace(real(*a, **kw), ratio=None))
    checks = {c["name"]: c for c in cli.suite_maximal(ExperimentConfig.from_dict(
        base_config(suite="maximal")))}
    assert checks["fs_ratio_stable"]["status"] == "skip"
    assert "undefined" in checks["fs_ratio_stable"]["reason"]
    assert checks["scalar_ratio_stable"]["status"] in ("pass", "fail")


def test_maximal_suite_frees_what_its_checks_have_read():
    # in units of one J+1 grid array; keeping every input and output until its grid's last
    # check peaked near 22 arrays, and drawing every f_k before fs_ratio ran at 11.64
    import tlw.cli as cli

    cfg = ExperimentConfig.from_dict(base_config(
        suite="maximal", grid={"n": 2, "L": 2, "J": 5, "k_min": 0, "k_max": 3}))
    peak = traced_peak(cli.suite_maximal, cfg)
    assert peak / np.zeros(cfg.make_grid(bump_j=1).shape).nbytes < 10.5


def test_phitransform_suite_frees_the_first_grid_before_the_second():
    # in units of one J+1 grid array on verify-2d's grid; keeping the J grid's filter pair,
    # weights and band signal while the J+1 grid ran, with the |xi| mesh, peaked near 14.5,
    # and a full-grid FFT for the box samples of each constant weight level at 7.76
    import tlw.cli as cli

    cfg = ExperimentConfig.from_dict(base_config(
        suite="phitransform", grid={"n": 2, "L": 2, "J": 5, "k_min": 0, "k_max": 3}))
    peak = traced_peak(cli.suite_phitransform, cfg)
    assert peak / np.zeros(cfg.make_grid(bump_j=1).shape).nbytes < 6.0


@pytest.mark.parametrize("suite, weights, message", [
    # t_2^3 = 2^{1800} overflows, so level 2 is refused as the suite reads its weights, before
    # any numpy arithmetic on it could warn (pyproject.toml makes a RuntimeWarning an error)
    *(pytest.param(suite, {"s": 300}, "level 2: t_2^3 or t_2^-3 is not finite", id=suite)
      for suite in SUITES),
    # ap-audit and xclass raise t_k to the weights' p: t_2^300 = 2^{1800} overflows
    *(pytest.param(suite, {"s": 3, "p": 300}, "level 2: t_2^300 or t_2^-300 is not finite",
                   id=f"{suite}-p300") for suite in SUITES),
    # 2^{1000 k} itself overflows at level 2, before the weights exist
    pytest.param("ap-audit", {"s": 1000}, "t_2 = 2^(2 * 1000", id="s1000"),
])
def test_overflowing_weights_exit_65_naming_the_level(tmp_path, capsys, suite, weights, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(
        suite=suite, grid={"n": 1, "L": 2, "J": 6, "k_min": 0, "k_max": 3},
        weights={"kind": "exp2", **weights})))
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "r.json")]) == 65
    assert message in capsys.readouterr().err


def test_seqnorms_chebyshev_check_is_the_worst_cube_of_the_worst_trial():
    # m_P - 4^{1/2} ||lambda|| over every cube P with at least 4 cells (here every cube of
    # level <= k_max), by the m_p oracle; the suite draws one field per trial from "tests"
    import tlw.cli as cli
    from tlw.dyadic import cubes_at_level
    from tlw.io import weights_from_spec
    from tlw.seqspace import CoeffField, f_inf_norm, m_p

    cfg = ExperimentConfig.from_dict(base_config(
        grid={"n": 2, "L": 1, "J": 3, "k_min": 0, "k_max": 2}, trials=3))
    grid = cfg.make_grid()
    w = weights_from_spec(grid, cfg.weights, np.random.default_rng(0))
    cubes = [c for lev in range(-grid.L, grid.k_max + 1) for c in cubes_at_level(grid, lev)]
    rng = cli._rng_for(cfg, "seqnorms", "tests")
    worst, at = -math.inf, None
    for _ in range(cfg.trials):
        lam = CoeffField.random(grid, rng)
        bound = 2.0 * f_inf_norm(lam, w, 2.0)
        for cube in cubes:
            value = m_p(lam, w, 2.0, cube) - bound
            if value > worst:
                worst, at = value, cube
    check = {c["name"]: c for c in cli.suite_seqnorms(cfg)}["chebyshev_quartile_bound"]
    assert check["status"] == "pass" and check["covered"] == cfg.trials
    assert check["value"] == pytest.approx(worst, rel=1e-12)
    assert check["witness"] == [at.level, list(at.index)]


def test_emit_refuses_non_finite_values(tmp_path):
    from tlw.cli import ReportRecord

    report = ReportRecord(suite="seqnorms", checks=[{"name": "x", "value": float("-inf")}],
                          provenance={})
    with pytest.raises(ValueError):
        emit(report, "json", tmp_path / "r.json")


def test_each_random_role_has_its_own_stream():
    from tlw.cli import _rng_for

    config = ExperimentConfig.from_dict(base_config())
    draws = {role: _rng_for(config, "maximal", role).random(4).tolist()
             for role in ("tests", "weights", "subsets")}
    assert len({tuple(d) for d in draws.values()}) == 3
    # the test-function stream is the one a suite drew everything from before
    legacy = np.random.default_rng(np.random.SeedSequence([config.seed, 2])).random(4)
    assert draws["tests"] == legacy.tolist()


def test_nonpositive_weight_fails_at_config_time(tmp_path):
    from tlw.dyadic import Grid, GridFunction
    from tlw.io import save_grid_function

    g = Grid(n=1, L=1, J=5, k_min=0, k_max=3)
    vals = np.ones(g.shape)
    vals[7] = 0.0
    for k in g.levels:
        save_grid_function(GridFunction(g, vals), tmp_path / f"w_k{k}")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(
        suite="ap-audit", weights={"kind": "grid", "file": str(tmp_path / "w")})))
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "r.json")]) == 65


def test_emit_empty_report_header_only(tmp_path):
    from tlw.cli import ReportRecord

    report = ReportRecord(suite="seqnorms", checks=[], provenance={})
    out = tmp_path / "empty.csv"
    emit(report, "csv", out)
    assert out.read_text().strip().splitlines() == [
        "suite,name,status,hard,value,tolerance,J,reason"
    ]


def test_fixture_determinism(tmp_path):
    params = {"grid": {"n": 1, "L": 1, "J": 4, "k_min": 0, "k_max": 2}, "spread": 0.5}
    fixture("random-ap", params, seed=3, out_base=tmp_path / "a")
    fixture("random-ap", params, seed=3, out_base=tmp_path / "b")
    for k in range(3):
        assert (tmp_path / f"a_k{k}.bin").read_bytes() == (tmp_path / f"b_k{k}.bin").read_bytes()


def test_fixture_exp2_s0_is_all_ones(tmp_path):
    from tlw.io import load_grid_function

    params = {"grid": {"n": 1, "L": 1, "J": 4, "k_min": 0, "k_max": 2}, "s": 0.0}
    fixture("exp2", params, seed=0, out_base=tmp_path / "w")
    gf = load_grid_function(tmp_path / "w_k1", k_min=0, k_max=2)
    assert np.all(gf.values == 1.0)


def test_fixture_exp2_round_trips_through_grid_weights(tmp_path):
    from tlw.io import weights_from_spec
    from tlw.weights import exp2_weights

    grid = {"n": 2, "L": 1, "J": 3, "k_min": -1, "k_max": 2}
    params = json.dumps({"grid": grid, "s": 0.7})
    assert main(["fixture", "exp2", "--params", params, "-o", str(tmp_path / "w")]) == 0
    g = Grid(**grid)
    got = weights_from_spec(g, {"kind": "grid", "file": str(tmp_path / "w")},
                            np.random.default_rng(0))
    want = exp2_weights(g, 0.7)
    for k in g.levels:
        assert got.tk[k].tobytes() == np.array(want.tk[k]).tobytes()


def test_fixture_power_cell_centers(tmp_path):
    from tlw.io import load_grid_function

    params = {"grid": {"n": 1, "L": 1, "J": 6, "k_min": 0, "k_max": 2}, "alpha": 1.0}
    fixture("power", params, seed=0, out_base=tmp_path / "p")
    gf = load_grid_function(tmp_path / "p_k0", k_min=0, k_max=2)
    h = 2.0 ** -6
    want = np.arange(2**7) * h + h / 2.0
    np.testing.assert_allclose(gf.values, want, rtol=1e-14)


@pytest.mark.parametrize("grid", [{"n": 1, "L": 2, "J": 7, "k_min": 0, "k_max": 4},
                                  {"n": 2, "L": 2, "J": 4, "k_min": 0, "k_max": 2}])
def test_band_signal_fixture_is_the_box_inverse_of_the_drawn_spectrum(tmp_path, grid):
    from tlw.io import save_grid_function
    from tlw.phitransform import _box, _ifftn_from_box

    fixture("band-signal", {"grid": grid, "k_lo": 0, "k_hi": 2}, seed=13, out_base=tmp_path / "sig")
    g = Grid(**grid)
    spec = oracles.drawn_band_spectrum(g, np.random.default_rng(13), 0, 2)
    save_grid_function(GridFunction(g, _ifftn_from_box(spec, _box(g, 2))), tmp_path / "want")
    for suffix in (".json", ".bin"):
        got = (tmp_path / "sig").with_suffix(suffix).read_bytes()
        assert got == (tmp_path / "want").with_suffix(suffix).read_bytes()


def test_fixture_coeff_field_and_band_signal(tmp_path):
    from tlw.io import load_grid_function
    from tlw.seqspace import CoeffField

    params = {"grid": {"n": 1, "L": 3, "J": 5, "k_min": 0, "k_max": 2}}
    fixture("coeff-field", params, seed=4, out_base=tmp_path / "lam")
    header = json.loads((tmp_path / "lam.json").read_text())
    assert [header[key] for key in ("kind", "n", "L", "J", "k_min", "k_max")] == [
        "coeff-field", 1, 3, 5, 0, 2]
    cf = CoeffField.random(Grid(1, 3, 5, 0, 2), np.random.default_rng(4))  # the fixture's draw
    want = np.concatenate([cf.entries[k].ravel() for k in cf.levels]).astype("<c16")
    assert (tmp_path / "lam.bin").read_bytes() == want.tobytes()  # levels ascending, re/im
    fixture("band-signal", {**params, "k_lo": 0, "k_hi": 2}, seed=4,
            out_base=tmp_path / "sig")
    gf = load_grid_function(tmp_path / "sig", k_min=0, k_max=2)
    assert np.iscomplexobj(gf.values) and np.abs(gf.values).max() > 0
    with pytest.raises(ConfigError):
        fixture("bogus", {}, 0, tmp_path / "x")


STRICT = ("plateau_floor_positive", "shifted_constant_bounded", "xclass_overdeclared_alpha_rejected")


@pytest.mark.parametrize("grid", [
    {"n": 1, "L": 2, "J": 6, "k_min": 0, "k_max": 3},
    {"n": 2, "L": 2, "J": 3, "k_min": 0, "k_max": 1},
])
def test_every_check_reports_coverage_and_a_signed_margin(tmp_path, grid):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(suite="all", grid=grid)))
    out = tmp_path / "r.json"
    assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
    checks = _strict_json(out.read_text())["checks"]
    assert {c["status"] for c in checks} >= {"pass", "measured"}
    for c in checks:
        if c["status"] == "skip":
            assert c["reason"] and c["covered"] == 0
            continue
        assert c["covered"] >= 1 and "witness" in c
        if c["status"] == "measured":
            continue
        assert math.isfinite(c["margin"])
        strict = c["name"].startswith(STRICT)
        assert (c["status"] == "pass") == (c["margin"] > 0 if strict else c["margin"] >= 0)


def test_record_margin_sign_and_witness():
    from tlw.cli import _record

    ok = _record("x", [0.5, None, 2.0, float("nan")], 3.0, J=4)
    assert (ok["status"], ok["value"], ok["covered"], ok["margin"], ok["witness"]) == (
        "pass", 2.0, 2, 1.0, 2)
    low = _record("x", np.array([[1.0, -2.0], [0.0, 5.0]]), -1.0, ">=", J=4, hard=False)
    assert (low["status"], low["value"], low["margin"], low["witness"], low["hard"]) == (
        "fail", -2.0, -1.0, [0, 1], False)
    assert _record("x", [0.0], 0.0, ">", J=4)["status"] == "fail"
    assert _record("x", [0.0], 0.0, ">=", J=4)["status"] == "pass"
    assert _record("x", [1.0, 3.0], J=4, labels=["a", "b"])["witness"] == "b"
    assert _record("x", [1.0], J=4)["status"] == "measured"
    skip = _record("x", [None], 1.0, J=4, reason="why")
    assert (skip["status"], skip["reason"], skip["covered"], skip["hard"]) == ("skip", "why", 0, False)


def test_power_weights_pass_every_suite(tmp_path):
    cfg = base_config(suite="all", grid={"n": 1, "L": 2, "J": 10, "k_min": 0, "k_max": 5},
                      weights={"kind": "power", "s": 0.3, "alpha": 0.3, "p": 2})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("grid", [
    {"n": 1, "L": 2, "J": 6, "k_min": 0, "k_max": 3},
    {"n": 2, "L": 2, "J": 3, "k_min": 0, "k_max": 2},
], ids=["1d", "2d"])
def test_grid_weights_from_a_fixture_pass_every_suite(tmp_path, grid):
    # maximal and phitransform also run at J + 1, on the file's cells refined
    base = tmp_path / "w"
    assert main(["fixture", "random-ap", "--params", json.dumps({"grid": grid}),
                 "-o", str(base)]) == 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(suite="all", grid=grid,
                                               weights={"kind": "grid", "file": str(base)})))
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "r.json")]) == 0


def test_formats_doc_example_config_parses():
    from pathlib import Path

    from tlw.io import weights_from_spec

    doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()

    def example(section):
        return doc.split(f"## {section}", 1)[1].split("```json", 1)[1].split("```", 1)[0]

    config = ExperimentConfig.from_dict(json.loads(example("Experiment config")))
    assert config.suite == "all"
    specs = [json.loads(line) for line in example("Weight family specs").strip().splitlines()]
    built = [weights_from_spec(config.make_grid(), spec, np.random.default_rng(0)).meta.kind
             for spec in specs if spec["kind"] != "grid"]
    assert built == ["exp2", "power", "random-ap"]


def test_maximal_suite_computes_each_maximal_function_once(monkeypatch):
    import hashlib

    import tlw.cli as cli
    import tlw.maximal as maximal_module

    real = maximal_module.maximal
    inputs = []

    def counted(f, cfg):
        inputs.append(hashlib.blake2b(f.values.tobytes()).digest())
        return real(f, cfg)

    monkeypatch.setattr(maximal_module, "maximal", counted)  # the suite imports it when run
    cli.suite_maximal(ExperimentConfig.from_dict(base_config(suite="maximal")))
    assert inputs and len(inputs) == len(set(inputs))


@pytest.mark.parametrize("weights", [
    {"kind": "exp2", "s": 0.3},
    {"kind": "power", "s": 0.3, "alpha": 0.3},
    {"kind": "random-ap", "spread": 0.5},
], ids=["exp2", "power", "random-ap"])
def test_shifted_maximal_constants_run_on_the_suite_weights(weights):
    # On a product 2^{ks} omega with alpha1 = s, every c(k, j) is ||M(f) omega|| / ||f omega||,
    # the scalar ratio of the same f; weights that vary across levels spread the constants.
    import tlw.cli as cli

    cfg = ExperimentConfig.from_dict(base_config(
        suite="maximal", weights=weights, grid={"n": 1, "L": 2, "J": 6, "k_min": 0, "k_max": 3}))
    checks = {c["name"]: c for c in cli.suite_maximal(cfg)}
    low, high = checks["shifted_constant_bounded"]["value"]
    assert checks["shifted_constant_max"]["value"] == high
    if weights["kind"] == "random-ap":
        assert high / low > 1 + 1e-3
    else:
        assert high == pytest.approx(checks["scalar_ratio[J=6]"]["value"], rel=1e-12)
        assert low == pytest.approx(high, rel=1e-12)


def test_seqnorms_suite_forms_m_once(monkeypatch):
    # m_fun_sup and m_fun_l2_over_f22 read the same m; the Chebyshev check's m_P levels
    # come from `m_p_levels`, which forms no m
    import tlw.cli as cli
    import tlw.seqspace as seqspace

    real, calls = seqspace._m_fun_values, []

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(seqspace, "_m_fun_values", counted)
    cli.suite_seqnorms(ExperimentConfig.from_dict(base_config(trials=2)))
    assert calls == [2.0]


def test_lambda_star_deficit_fails_with_a_finite_value(tmp_path, monkeypatch):
    import tlw.cli as cli

    real = cli.lambda_star
    monkeypatch.setattr(cli, "lambda_star", lambda *a, **kw: real(*a, **kw).scale(0.5))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config()))
    out = tmp_path / "r.json"
    assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 1
    checks = {c["name"]: c for c in _strict_json(out.read_text())["checks"]}
    bound = checks["chebyshev_quartile_bound"]
    assert bound["status"] == "fail" and bound["value"] > 1e-14 and bound["margin"] < 0


# ------------------------------------------------------------------ fuzzed configs

ONE_D = {"n": 1, "L": 2, "J": 4, "k_min": 0, "k_max": 3}


@pytest.mark.parametrize("grid, weights, suite, message", [
    # numpy's floating-point errors in a suite raise, and the run names the suite: the
    # weights overflow as they are built, e^1000, |x|^800 and 2^{2*400} |x|^150 ...
    pytest.param(ONE_D, {"kind": "random-ap", "spread": 1000}, "ap-audit",
                 "ap-audit: overflow encountered in exp", id="random-ap-overflow"),
    pytest.param(ONE_D, {"kind": "power", "s": 0, "alpha": 800}, "ap-audit",
                 "ap-audit: overflow encountered in power", id="profile-overflow"),
    pytest.param(ONE_D, {"kind": "power", "s": 400, "alpha": 150}, "ap-audit",
                 "ap-audit: overflow encountered in multiply", id="power-overflow"),
    # ... or t_k^3 is finite, but 2^{knq/2} t_k^q |lambda_km|^q overflows
    pytest.param({"n": 2, "L": 3, "J": 3, "k_min": -3, "k_max": 2},
                 {"kind": "power", "s": 0, "p": 1.0, "alpha": 97.4}, "duality",
                 "duality: overflow encountered in multiply", id="summand-overflow"),
])
def test_configs_the_fuzz_found_exit_65(tmp_path, capsys, grid, weights, suite, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config(suite=suite, grid=grid, weights=weights,
                                               trials=1, seed=2)))
    assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "r.json")]) == 65
    assert message in capsys.readouterr().err


def test_a_band_without_frequencies_is_a_skip(tmp_path):
    # the fuzz found this: the filter pair covers no level at J = 0, and at J + 1 the band
    # [0, 0] holds no frequency; both grids are skipped with their reason
    cfg_path, out = tmp_path / "config.json", tmp_path / "r.json"
    cfg_path.write_text(json.dumps(base_config(
        suite="phitransform", grid={"n": 1, "L": 2, "J": 0, "k_min": 0, "k_max": 0},
        weights={"kind": "exp2", "s": 0}, trials=1, seed=2)))
    assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
    checks = {c["name"]: c for c in _strict_json(out.read_text())["checks"]}
    assert checks["phitransform[J=0]"]["status"] == "skip"
    skip = checks["phitransform[J=1]"]
    assert skip["status"] == "skip"
    assert skip["reason"] == "no represented frequencies in [2^0, 2^0]"
    assert not any(name.startswith("roundtrip_residual") for name in checks)


@pytest.mark.parametrize("p", [1e-12, 5e-324])
def test_a_tiny_weight_exponent_keeps_the_exp2_constants_exact(tmp_path, p):
    # a constant level's cube mean is its value at every exponent; (v^p)^{1/p} lost about
    # |log v| * 1e-4 at p = 1e-12 and failed xclass_exp2_C1_exact at 1.000111
    cfg_path, out = tmp_path / "config.json", tmp_path / "r.json"
    cfg_path.write_text(json.dumps(base_config(
        suite="xclass", grid={"n": 1, "L": 0, "J": 7, "k_min": 7, "k_max": 7},
        weights={"kind": "exp2", "s": 1, "p": p}, trials=1)))
    assert main(["run", "-c", str(cfg_path), "-o", str(out)]) == 0
    checks = {c["name"]: c for c in _strict_json(out.read_text())["checks"]}
    for name in ("xclass_exp2_C1_exact", "xclass_exp2_C2_exact"):
        assert checks[name]["status"] == "pass" and checks[name]["value"] == 1.0


FUZZ_NUMBERS = st.one_of(st.sampled_from([0, 0.0, 1, -1, 1.0, -1.0, math.nan, 1e3, -1e3]),
                         st.floats(-1e3, 1e3))
WRONG_TYPES = st.sampled_from(["x", "", True, False, None, [], [1], {}, {"a": 1}])
# stands for the test's random-ap weight files on (n, L, J, k_min, k_max) = (1, 1, 6, 0, 3)
FIXTURE_FILE = "<fixture>"


@st.composite
def fuzzed_configs(draw):
    """A `tlw run` config of at most 2^13 cells and one suite.  Half of them are meant to
    run: every field has its type and range.  In the others any field may be absent, out
    of range or of the wrong JSON type, and numbers run from +-1e3 down to 0, +-1 and NaN."""
    corrupt = draw(st.booleans())

    def field(valid, wrong=WRONG_TYPES):  # 6 of 0..12, not an end, which draws favour
        return draw(wrong) if corrupt and draw(st.integers(0, 12)) == 6 else draw(valid)

    def put(obj, key, valid, wrong=WRONG_TYPES):
        if not corrupt or draw(st.integers(0, 8)) != 4:  # else left out
            obj[key] = field(valid, wrong)

    n = field(st.sampled_from([1, 2]), st.sampled_from([0, 3, 1.5, "1"]))
    L = draw(st.integers(0, 3))
    top = 13 // n - L if n in (1, 2) else 2  # (L + J) n <= 13
    J = draw(st.integers(-L - 1 if corrupt else -L, top))
    grid = {"n": n, "L": field(st.just(L)), "J": field(st.just(J))}
    k_min = draw(st.integers(-L - 2, J + 2) if corrupt else st.integers(-L, J))
    put(grid, "k_min", st.just(k_min))
    put(grid, "k_max", st.integers(-L - 2, J + 2) if corrupt else st.integers(k_min, J))
    weights = {"kind": field(st.sampled_from(["exp2", "power", "random-ap", "grid"]),
                             st.sampled_from(["bump", "", 2, None]))}
    for key in ("s", "p", "alpha", "spread"):
        valid = FUZZ_NUMBERS if corrupt else FUZZ_NUMBERS.filter(
            (lambda x: x > 0) if key in ("p", "spread") else math.isfinite)
        put(weights, key, valid)
    put(weights, "file", st.just(FIXTURE_FILE), st.sampled_from(["no-such-weights", 3, None]))
    config = {"grid": field(st.just(grid)), "weights": field(st.just(weights))}
    config["suite"] = field(st.sampled_from(SUITES), st.sampled_from(["all", "bogus", 3, None]))
    put(config, "trials", st.integers(1, 2), st.sampled_from([0, -1, 1.5, "2", True, math.nan]))
    put(config, "seed", st.integers(0, 2**32), st.sampled_from([-1, 0.5, "0", None, math.inf]))
    if corrupt and draw(st.integers(0, 20)) == 10:
        config.pop(draw(st.sampled_from(["grid", "weights"])))
    return config


@settings(max_examples=12, deadline=None)
@given(config=fuzzed_configs())
def test_fuzzed_run_exits_with_a_code_and_writes_strict_json(tmp_path_factory, config):
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    weights_file = work / "fx"
    if not (work / "fx.json").exists():
        fixture("random-ap", {}, 0, weights_file)
    if isinstance(config.get("weights"), dict) and config["weights"].get("file") == FIXTURE_FILE:
        config["weights"]["file"] = str(weights_file)
    cfg_path, out = work / "config.json", work / "report.json"
    cfg_path.write_text(json.dumps(config))  # NaN and Infinity reach the config reader
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "-c", str(cfg_path), "-o", str(out)])
    assert code in (0, 1, 2, 64, 65)
    if code in (0, 1):
        assert _strict_json(out.read_text())["checks"]
