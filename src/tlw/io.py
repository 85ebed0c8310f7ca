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
from .errors import ConfigError, PositivityError
from .seqspace import CoeffField
from .weights import (
    WeightMeta,
    WeightSequence,
    _stored_once,
    exp2_weights,
    power_profile,
    random_ap_weights,
)

# The largest power of t_k or 1/t_k a suite forms, besides the weights' own p (ap-audit and
# xclass raise t_k to it): max(p, q, p', q') over its (p, q) pairs, (2, 2), (1.5, 3) and (1, 2).
_MAX_POWER = 3


def _write_header(base: Path, header: dict):
    base.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")


def save_grid_function(gf: GridFunction, base: str | Path, fmt: str = "bin"):
    """Write <base>.json + <base>.bin (LE float64) or <base>.csv (row-major rows)."""
    if fmt not in ("bin", "csv"):
        raise ConfigError(f"format: unknown grid-function format {fmt!r}")
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
    # a C-ordered complex128 array is its re, im pairs interleaved
    payload = np.ascontiguousarray(gf.values, dtype=complex if complex_data else float).view(float)
    if fmt == "bin":
        base.with_suffix(".bin").write_bytes(payload.astype("<f8").tobytes())
    else:
        cols = gf.values.shape[-1] * (2 if complex_data else 1)
        np.savetxt(base.with_suffix(".csv"), payload.reshape(-1, cols), delimiter=",")


def load_grid_function(base: str | Path, k_min: int | None = None,
                       k_max: int | None = None) -> GridFunction:
    """Read <base>.json and its payload; a malformed header raises ConfigError."""
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    if not isinstance(header, dict):
        raise ConfigError(f"header: expected a JSON object, got {type(header).__name__}")
    if header.get("kind") != "grid-function":
        raise ConfigError(f"kind: expected grid-function header, got {header.get('kind')}")
    for key in ("n", "L", "J"):
        if type(header.get(key)) is not int:  # JSON true/false load as bool, a subclass of int
            raise ConfigError(f"{key}: expected an integer, got {header.get(key)!r}")
    fmt = header.get("format")
    if fmt not in ("bin", "csv"):
        raise ConfigError(f"format: expected 'bin' or 'csv', got {fmt!r}")
    n, L, J = header["n"], header["L"], header["J"]
    grid = Grid(n, L, J, -L if k_min is None else k_min, J if k_max is None else k_max)
    if fmt == "bin":
        payload = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    else:
        payload = np.loadtxt(base.with_suffix(".csv"), delimiter=",").ravel()
    values = payload.view(complex) if header["complex"] else payload
    return GridFunction(grid, values.reshape(grid.shape))


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
    payload = np.concatenate([cf.entries[k].ravel() for k in cf.levels]).view(float)
    base.with_suffix(".bin").write_bytes(payload.astype("<f8").tobytes())


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
    """A weight sequence from {kind: exp2|power|random-ap|grid, ...}; random-ap draws from `rng`.

    Every t_k^r with |r| <= max(_MAX_POWER, p) must be finite, so no suite overflows on the
    weights; else PositivityError names the first level that fails, before any arithmetic on it.
    """
    kind = spec.get("kind")
    p = _spec_number(spec, "p", 2.0)
    if not p > 0:
        raise ConfigError(f"weights.p: must be positive, got {p!r}")
    if kind == "exp2":
        w = exp2_weights(grid, _spec_number(spec, "s", 0.0), p=p)
    elif kind == "power":
        s, alpha = _spec_number(spec, "s", 0.0), _spec_number(spec, "alpha", 0.0)
        w = exp2_weights(grid, s, omega=power_profile(grid, alpha), p=p)
        w.meta = replace(w.meta, kind="power", params={"s": s, "alpha": alpha})  # alpha1 = alpha2 = s
    elif kind == "random-ap":
        spread = _spec_number(spec, "spread", 0.5)
        if not spread >= 0:
            raise ConfigError(f"weights.spread: must be nonnegative, got {spread!r}")
        w = random_ap_weights(grid, spread, rng, p=p)
    elif kind == "grid":
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
        w = WeightSequence(grid, tk, WeightMeta(p=p, kind="grid"))
    else:
        raise ConfigError(f"weights.kind: unknown weight kind {kind!r}")
    r = max(_MAX_POWER, p)
    for k in w.levels:  # t_k > 0, so its extreme cells decide; a stride-0 axis is read once
        t = _stored_once(w.tk[k])
        try:
            float(t.max()) ** r, float(t.min()) ** -r
        except OverflowError:
            raise PositivityError(f"level {k}: t_{k}^{r:g} or t_{k}^-{r:g} is not finite") from None
    return w


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
