"""The benchmark's workloads: `tlw run` configs built from a workload seed.

Each workload is one grid and a list of (suite, weights) pairs; every pair is
one `tlw run` config.  The configs differ between seeds only in `seed` and, for
grid weights, in the fixture that set-up writes.  Why each workload exists is
recorded in BENCHMARK.json and NOTES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

EXP2 = {"kind": "exp2", "s": 0.3, "p": 2}
TRIALS = 20
FIXTURE_SPREAD = 0.5

WORKLOADS = {
    "verify-1d": {
        "grid": {"n": 1, "L": 2, "J": 11, "k_min": 0, "k_max": 7},
        "runs": [("all", "exp2")],
    },
    "verify-2d": {
        "grid": {"n": 2, "L": 2, "J": 5, "k_min": 0, "k_max": 3},
        "runs": [("all", "exp2")],
    },
    "norms-1d": {
        "grid": {"n": 1, "L": 2, "J": 13, "k_min": 0, "k_max": 9},
        "runs": [("seqnorms", "grid"), ("duality", "grid")],
    },
    # The harness's own test input: every suite and both weight paths in
    # well under a second.  Never one of the named workloads in BENCHMARK.json.
    "smoke": {
        "grid": {"n": 1, "L": 2, "J": 6, "k_min": 0, "k_max": 3},
        "runs": [("all", "exp2"), ("seqnorms", "grid")],
    },
}

# maximal_scaling compares M(-2.5 f) with 2.5 M(f) at the absolute tolerance
# 2.5e-12.  maximal._window_averages takes window averages as differences of
# prefix sums, whose roundoff grows with the cell count: the error is about
# 6.8e-13, 1.6e-12, 3.2e-12 and 6.4e-12 at 1-D J = 10, 11, 12 and 13.  So on
# verify-1d the J=12 check fails for every seed tried, and the J=11 check
# (1.6e-12 to 2.3e-12 over seeds 0-11) can cross the tolerance for some seed.
# Both statuses are this one known defect; they are counted in
# checks_failed_frac and printed by name, and a fix may turn them to pass.
STATUS_MAY_VARY = {
    "verify-1d": {
        ("maximal", "maximal_scaling[J=11]"),
        ("maximal", "maximal_scaling[J=12]"),
    },
}


def fixture_base(workdir: Path) -> Path:
    return workdir / "weights"


def fixture_params(workload: str) -> dict:
    return {"grid": WORKLOADS[workload]["grid"], "spread": FIXTURE_SPREAD}


def needs_fixture(workload: str) -> bool:
    return any(kind == "grid" for _, kind in WORKLOADS[workload]["runs"])


def write_configs(workload: str, seed: int, workdir: Path) -> list[Path]:
    """Write one `tlw run` config file per run of the workload; returns their paths."""
    spec = WORKLOADS[workload]
    paths = []
    for i, (suite, kind) in enumerate(spec["runs"]):
        if kind == "exp2":
            weights = dict(EXP2)
        else:
            weights = {"kind": "grid", "file": str(fixture_base(workdir)), "p": 2}
        config = {
            "grid": spec["grid"],
            "weights": weights,
            "suite": suite,
            "trials": TRIALS,
            "seed": seed,
        }
        path = workdir / f"config{i}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
