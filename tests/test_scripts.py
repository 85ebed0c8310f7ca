"""Smoke test of scripts/constant_sweep.py: one row pinned to recorded values."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "constant_sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("constant_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_constant_sweep_row_matches_recorded_values():
    row = _load_sweep().one_row(0.3, 5, 0)
    want = {
        "xclass_C1": 1.2014241016914453,
        "xclass_C2": 1.0000000000000002,
        "fs_ratio": 1.3069106388762373,
        "mfun_over_fpq": 1.2973378530149595,
        "extremal_lower": 0.9999330874263813,
    }
    assert {k: row[k] for k in want} == pytest.approx(want, rel=1e-12)
    assert (row["s"], row["J"]) == (0.3, 5)
