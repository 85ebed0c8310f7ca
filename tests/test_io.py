import json

import numpy as np
import pytest

from tlw.dyadic import Grid, GridFunction
from tlw.errors import ConfigError, PositivityError
from tlw.io import (
    load_grid_function,
    save_coeff_field,
    save_grid_function,
    save_weight_sequence,
    weights_from_spec,
)
from tlw.seqspace import CoeffField
from tlw.weights import WeightSequence


def grid1(J=4):
    return Grid(n=1, L=1, J=J, k_min=0, k_max=2)


def spec_weights(grid, spec):
    """weights_from_spec for a kind that draws nothing from its generator."""
    return weights_from_spec(grid, spec, np.random.default_rng(0))


def test_grid_function_roundtrip_bin(tmp_path):
    g = grid1()
    rng = np.random.default_rng(401)
    gf = GridFunction(g, rng.standard_normal(g.shape))
    save_grid_function(gf, tmp_path / "f", fmt="bin")
    back = load_grid_function(tmp_path / "f", k_min=g.k_min, k_max=g.k_max)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, gf.values)


def test_grid_function_roundtrip_csv_complex(tmp_path):
    g = Grid(n=2, L=1, J=2, k_min=0, k_max=1)
    rng = np.random.default_rng(403)
    gf = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    save_grid_function(gf, tmp_path / "c", fmt="csv")
    back = load_grid_function(tmp_path / "c", k_min=0, k_max=1)
    np.testing.assert_allclose(back.values, gf.values, rtol=1e-15)


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_complex_grid_function_roundtrips_exactly_from_any_layout(tmp_path, fmt):
    # a transposed view is written in row-major order, and an infinite imaginary part comes
    # back as itself with its real part intact
    g = Grid(n=2, L=1, J=2, k_min=0, k_max=1)
    rng = np.random.default_rng(405)
    values = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)).T
    values[0, 1] = complex(2.5, np.inf)
    save_grid_function(GridFunction(g, values), tmp_path / "c", fmt=fmt)
    back = load_grid_function(tmp_path / "c", k_min=0, k_max=1).values
    assert np.array_equal(back.real, values.real) and np.array_equal(back.imag, values.imag)
    assert back.flags.writeable == (fmt == "csv")  # a bin payload is read-only, real or complex


def test_grid_function_header_fields(tmp_path):
    g = grid1()
    save_grid_function(GridFunction.zeros(g), tmp_path / "z")
    header = json.loads((tmp_path / "z.json").read_text())
    assert header["kind"] == "grid-function"
    assert (header["n"], header["L"], header["J"]) == (1, 1, 4)
    assert header["dtype"] == "<f8"


def test_grid_function_bad_format(tmp_path):
    g = grid1()
    with pytest.raises(ConfigError):
        save_grid_function(GridFunction.zeros(g), tmp_path / "x", fmt="hdf")


def test_unknown_format_writes_no_header(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        save_grid_function(GridFunction.zeros(grid1()), tmp_path / "x", fmt="xml")
    assert not list(tmp_path.iterdir())


HEADER_EDITS = [
    ("header", "list", lambda header: [header]),
    ("kind", "kind", lambda header: {**header, "kind": "weight-sequence"}),
    ("n", "n-bool", lambda header: {**header, "n": True}),
    ("L", "L-fraction", lambda header: {**header, "L": 1.5}),
    ("J", "J-string", lambda header: {**header, "J": "3"}),
    ("L", "L-missing", lambda header: {k: v for k, v in header.items() if k != "L"}),
]


@pytest.mark.parametrize("field, edit", [
    pytest.param(field, edit, id=f"grid-function-{name}") for field, name, edit in HEADER_EDITS
])
def test_malformed_header_is_a_config_error_naming_the_field(tmp_path, field, edit):
    save_grid_function(GridFunction.zeros(Grid(n=2, L=1, J=3, k_min=-1, k_max=2)), tmp_path / "f")
    header = tmp_path / "f.json"
    header.write_text(json.dumps(edit(json.loads(header.read_text()))))
    with pytest.raises(ConfigError, match=f"^{field}:"):
        load_grid_function(tmp_path / "f")


def test_coeff_field_roundtrip(tmp_path):
    # tlw writes coefficient fields but reads none: the file is decoded here
    g = Grid(n=2, L=1, J=3, k_min=-1, k_max=2)
    cf = CoeffField.random(g, np.random.default_rng(409))
    save_coeff_field(cf, tmp_path / "lam")
    header = json.loads((tmp_path / "lam.json").read_text())
    assert [header[key] for key in ("kind", "n", "L", "J", "k_min", "k_max")] == [
        "coeff-field", 2, 1, 3, -1, 2]
    payload = (tmp_path / "lam.bin").read_bytes()  # levels ascending, interleaved re/im
    assert payload == np.concatenate([cf.entries[k].ravel() for k in cf.levels]).astype("<c16").tobytes()


def test_weights_from_spec_kinds():
    g = grid1()
    w = spec_weights(g, {"kind": "exp2", "s": 0.5})
    assert w.meta.kind == "exp2"
    assert w.level_values(2)[0] == pytest.approx(2.0)
    wp = spec_weights(g, {"kind": "power", "alpha": 0.5})
    assert wp.level_values(0)[0] == pytest.approx((0.5 * g.h) ** 0.5)
    wr1 = weights_from_spec(g, {"kind": "random-ap", "spread": 0.4}, np.random.default_rng(9))
    wr2 = weights_from_spec(g, {"kind": "random-ap", "spread": 0.4}, np.random.default_rng(9))
    for k in wr1.levels:
        np.testing.assert_array_equal(wr1.level_values(k), wr2.level_values(k))
    with pytest.raises(ConfigError):
        spec_weights(g, {"kind": "nope"})
    with pytest.raises(ConfigError):
        spec_weights(g, {"kind": "grid"})


def test_weight_sequence_files_roundtrip(tmp_path):
    g = grid1()
    w = spec_weights(g, {"kind": "exp2", "s": 0.3})
    save_weight_sequence(w, tmp_path / "w")
    back = spec_weights(g, {"kind": "grid", "file": str(tmp_path / "w")})
    for k in w.levels:
        np.testing.assert_allclose(back.level_values(k), w.level_values(k), rtol=1e-15)


def test_grid_weights_positivity_enforced(tmp_path):
    g = grid1()
    vals = np.ones(g.shape)
    vals[0] = 0.0
    for k in g.levels:
        save_grid_function(GridFunction(g, vals), tmp_path / f"bad_k{k}")
    with pytest.raises(PositivityError):
        spec_weights(g, {"kind": "grid", "file": str(tmp_path / "bad")})


def test_export_filter_csv(tmp_path):
    from tlw.io import export_filter_csv
    from tlw.phitransform import build_filter_pair

    g = Grid(n=1, L=3, J=5, k_min=0, k_max=2)
    export_filter_csv(build_filter_pair(g), tmp_path / "filt.csv")
    rows = (tmp_path / "filt.csv").read_text().strip().splitlines()
    assert rows[0] == "xi_abs,phi,psi"
    assert len(rows) == 1 + g.cells_per_axis // 2 + 1


@pytest.mark.parametrize("n", [1, 2])
def test_grid_weights_refine_a_coarser_file_piecewise_constantly(tmp_path, n):
    coarse = Grid(n=n, L=1, J=2, k_min=0, k_max=1)
    rng = np.random.default_rng(409)
    w = WeightSequence(coarse, {k: rng.random(coarse.shape) + 0.5 for k in coarse.levels})
    save_weight_sequence(w, tmp_path / "w")
    fine = Grid(n=n, L=1, J=4, k_min=0, k_max=1)
    got = spec_weights(fine, {"kind": "grid", "file": str(tmp_path / "w")})
    block = np.ones((4,) * n)  # 2^{J - J_file} fine cells per axis in each file cell
    for k in fine.levels:
        assert np.array_equal(got.tk[k], np.kron(w.tk[k], block))
    same = spec_weights(coarse, {"kind": "grid", "file": str(tmp_path / "w")})
    assert all(np.array_equal(same.tk[k], w.tk[k]) for k in coarse.levels)


@pytest.mark.parametrize("run_grid", [
    Grid(1, 1, 1, 0, 1), Grid(1, 2, 3, 0, 1), Grid(2, 1, 3, 0, 1),
], ids=["finer-file", "other-L", "other-n"])
def test_grid_weights_on_another_grid_are_a_config_error(tmp_path, run_grid):
    g = Grid(n=1, L=1, J=2, k_min=0, k_max=1)
    save_weight_sequence(WeightSequence(g, {k: np.ones(g.shape) for k in g.levels}), tmp_path / "w")
    with pytest.raises(ConfigError, match="weights.file"):
        spec_weights(run_grid, {"kind": "grid", "file": str(tmp_path / "w")})
