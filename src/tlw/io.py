"""File formats: grid functions, coefficient fields, weight specs, reports.

Array payloads are row-major little-endian 64-bit floats; complex data is
interleaved re/im.  Each payload file `<base>.csv` or `<base>.bin` travels
with a JSON header `<base>.json`.  See docs/formats.md for the full layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dyadic import Grid, GridFunction, expand_level_array
from .errors import ConfigError, LevelMismatchError
from .seqspace import CoeffField
from .weights import WeightMeta, WeightSequence, exp2_weights, power_profile, random_ap_weights


def _write_header(base: Path, header: dict):
    base.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")


def _read_header(base: Path) -> dict:
    return json.loads(base.with_suffix(".json").read_text())


def save_grid_function(gf: GridFunction, base: str | Path, fmt: str = "bin"):
    """Write <base>.json + <base>.bin (LE float64) or <base>.csv (row-major rows)."""
    base = Path(base)
    g = gf.grid
    complex_data = np.iscomplexobj(gf.values)
    header = {
        "kind": "grid-function",
        "n": g.n, "L": g.L, "J": g.J,
        "complex": bool(complex_data),
        "format": fmt,
        "order": "row-major",
        "dtype": "<f8",
    }
    _write_header(base, header)
    flat = gf.values.ravel()
    payload = np.empty(flat.size * 2) if complex_data else np.asarray(flat, dtype=float)
    if complex_data:
        payload[0::2], payload[1::2] = flat.real, flat.imag
    if fmt == "bin":
        base.with_suffix(".bin").write_bytes(payload.astype("<f8").tobytes())
    elif fmt == "csv":
        cols = gf.values.shape[-1] * (2 if complex_data else 1)
        np.savetxt(base.with_suffix(".csv"), payload.reshape(-1, cols), delimiter=",")
    else:
        raise ConfigError(f"format: unknown grid-function format {fmt!r}")


def load_grid_function(base: str | Path, k_min: int | None = None,
                       k_max: int | None = None) -> GridFunction:
    """Read <base>.json and its payload; a malformed header raises ConfigError."""
    base = Path(base)
    header = _read_header(base)
    if not isinstance(header, dict):
        raise ConfigError(f"header: expected a JSON object, got {type(header).__name__}")
    if header.get("kind") != "grid-function":
        raise ConfigError(f"kind: expected grid-function header, got {header.get('kind')}")
    n, L, J = (header.get(key) for key in ("n", "L", "J"))
    for key, value in (("n", n), ("L", L), ("J", J)):
        if type(value) is not int:  # JSON true/false load as bool, a subclass of int
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
    fmt = header.get("format")
    if fmt not in ("bin", "csv"):
        raise ConfigError(f"format: expected 'bin' or 'csv', got {fmt!r}")
    grid = Grid(n, L, J, -L if k_min is None else k_min, J if k_max is None else k_max)
    if fmt == "bin":
        payload = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    else:
        payload = np.loadtxt(base.with_suffix(".csv"), delimiter=",").ravel()
    if header["complex"]:
        values = (payload[0::2] + 1j * payload[1::2]).reshape(grid.shape)
    else:
        values = payload.reshape(grid.shape)
    return GridFunction(grid, values)


def save_coeff_field(cf: CoeffField, base: str | Path):
    """Write <base>.json + <base>.bin: per-level flat complex arrays, interleaved re/im."""
    base = Path(base)
    g = cf.grid
    header = {
        "kind": "coeff-field",
        "n": g.n, "L": g.L, "J": g.J,
        "k_min": g.k_min, "k_max": g.k_max,
        "order": "levels ascending, each row-major",
        "dtype": "<f8 interleaved re/im",
    }
    _write_header(base, header)
    chunks = []
    for k in cf.levels:
        flat = cf.entries[k].ravel()
        buf = np.empty(flat.size * 2)
        buf[0::2], buf[1::2] = flat.real, flat.imag
        chunks.append(buf)
    payload = np.concatenate(chunks) if chunks else np.empty(0)
    base.with_suffix(".bin").write_bytes(payload.astype("<f8").tobytes())


def load_coeff_field(base: str | Path) -> CoeffField:
    base = Path(base)
    header = _read_header(base)
    if header.get("kind") != "coeff-field":
        raise ConfigError(f"kind: expected coeff-field header, got {header.get('kind')}")
    grid = Grid(header["n"], header["L"], header["J"], header["k_min"], header["k_max"])
    payload = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    entries = {}
    pos = 0
    for k in grid.levels:
        count = int(np.prod(grid.level_shape(k)))
        chunk = payload[pos : pos + 2 * count]
        pos += 2 * count
        entries[k] = (chunk[0::2] + 1j * chunk[1::2]).reshape(grid.level_shape(k))
    if pos != payload.size:
        raise LevelMismatchError("payload length does not match the declared level range")
    return CoeffField(grid, entries)


def _spec_number(spec: dict, key: str, default: float) -> float:
    try:
        value = float(spec.get(key, default))
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"weights.{key}: expected a finite number, got {spec.get(key)!r}")
    return value


def _on_run_grid(gf: GridFunction, grid: Grid, k: int) -> np.ndarray:
    """A level file's values on `grid`; a file at a coarser J is refined piecewise-constantly.

    The refinement is exact: each file cell is the union of 2^{n(J - J_file)}
    cells of `grid`.  A file of another n or L, or of a finer J, raises
    ConfigError.
    """
    g = gf.grid
    if (g.n, g.L) != (grid.n, grid.L) or g.J > grid.J:
        raise ConfigError(f"weights.file: level {k} is on the grid n={g.n}, L={g.L}, J={g.J}; "
                          f"the run needs n={grid.n}, L={grid.L}, J <= {grid.J}")
    values = gf.values.real
    return values if g.J == grid.J else expand_level_array(grid, g.J, values)


def weights_from_spec(grid: Grid, spec: dict, rng: np.random.Generator) -> WeightSequence:
    """A weight sequence from {kind: exp2|power|random-ap|grid, ...}; random-ap draws from `rng`."""
    kind = spec.get("kind")
    p = _spec_number(spec, "p", 2.0)
    if not p > 0:
        raise ConfigError(f"weights.p: must be positive, got {p!r}")
    if kind == "exp2":
        return exp2_weights(grid, _spec_number(spec, "s", 0.0), p=p)
    if kind == "power":
        s, alpha = _spec_number(spec, "s", 0.0), _spec_number(spec, "alpha", 0.0)
        w = exp2_weights(grid, s, omega=power_profile(grid, alpha), p=p)
        w.meta = replace(w.meta, kind="power", params={"s": s, "alpha": alpha})  # alpha1 = alpha2 = s
        return w
    if kind == "random-ap":
        spread = _spec_number(spec, "spread", 0.5)
        if not spread >= 0:
            raise ConfigError(f"weights.spread: must be nonnegative, got {spread!r}")
        return random_ap_weights(grid, spread, rng, p=p)
    if kind == "grid":
        file = spec.get("file")
        if not isinstance(file, str):
            raise ConfigError(f"weights.file: grid weights need a file path, got {file!r}")
        tk = {}
        for k in grid.levels:
            try:
                gf = load_grid_function(Path(file).with_name(f"{Path(file).name}_k{k}"))
            except (OSError, ValueError, KeyError) as exc:  # missing, malformed or truncated
                raise ConfigError(f"weights.file: cannot read level {k}: {exc!r}") from None
            tk[k] = _on_run_grid(gf, grid, k)
        return WeightSequence(grid, tk, WeightMeta(p=p, kind="grid"))
    raise ConfigError(f"weights.kind: unknown weight kind {kind!r}")


def save_weight_sequence(w: WeightSequence, base: str | Path):
    base = Path(base)
    for k in w.levels:
        save_grid_function(w.as_grid_function(k), base.with_name(f"{base.name}_k{k}"))
    _write_header(base, {
        "kind": "weight-sequence",
        "n": w.grid.n, "L": w.grid.L, "J": w.grid.J,
        "k_min": w.grid.k_min, "k_max": w.grid.k_max,
        "meta_kind": w.meta.kind,
        "p": w.meta.p,
    })


def export_filter_csv(fp, path: str | Path):
    """CSV of (|xi|, Phi, Psi) over the represented radial magnitudes."""
    rows = np.column_stack([fp.radii, *fp.radial_profiles()])
    np.savetxt(Path(path), rows, delimiter=",", header="xi_abs,phi,psi", comments="")
