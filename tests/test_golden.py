"""Golden reports: `tlw.cli.run` on fixed small configs against `tests/golden/`.

`scripts/golden.py --write` regenerates the set and `--diff DIR` prints every
value that moved, exactly.  This test compares suite, name, status, hard,
covered, witness and reason exactly and every other float to 1e-13 relative.
The float tolerance is there because numpy picks the SIMD kernels of some
ufuncs (exp, log, power) by CPU, and they may round differently.  No
reduction goes through BLAS, whose kernel, and so summation order, also
varies by CPU: the pairings use `dyadic.inner_sum`.  For the same reason a
float within 1e-15 of the golden one passes too: the residuals of exact
identities sit at that size and carry no leading digit to keep.
Floats inside a witness (the x-class witness repeats its value) take the
float tolerance; its levels and cube indices compare exactly.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("suite", "name", "status", "hard", "covered", "witness", "reason")


def _load_golden_script():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden_script()


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return golden.reports(tmp_path_factory.mktemp("golden"))


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-13, abs_tol=1e-15))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(golden.configs()))
def test_report_matches_golden(current, name):
    want = json.loads((golden.GOLDEN_DIR / f"{name}.json").read_text())
    got = current[name]
    assert got["configs"] == want["configs"]
    assert [(c["suite"], c["name"]) for c in got["checks"]] == [
        (c["suite"], c["name"]) for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert g.keys() == w.keys(), g["name"]
        for key in w:
            if key in EXACT and not isinstance(w[key], dict):
                assert g[key] == w[key], (g["name"], key)
            assert _same(g[key], w[key]), (g["name"], key, g[key], w[key])


def test_diff_names_every_moved_value(current, tmp_path):
    name = "1d-exp2"
    moved = json.loads(json.dumps(current[name]))
    check = moved["checks"][0]
    check["value"] = math.nextafter(check["value"], math.inf)
    check["witness"] = [0, [1]]
    (tmp_path / f"{name}.json").write_text(golden.dumps(moved))
    lines = [line for line in golden.diff(tmp_path, current) if line.startswith(name)]
    assert len(lines) == 3  # value, witness level and index
    assert all(f"{check['suite']}:{check['name']}" in line for line in lines)
