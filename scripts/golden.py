#!/usr/bin/env python3
"""Golden reports: the `checks` of `tlw.cli.run` on a fixed set of small configs.

    python scripts/golden.py --write        regenerate tests/golden/
    python scripts/golden.py --diff DIR     print every value that differs from the
                                            golden files in DIR (no tolerance)

Each config runs at 3 trials and seed 0: 1-D (n, L, J, k_min, k_max) =
(1, 2, 6, 0, 3) and 2-D (2, 2, 3, 0, 2), each with `exp2`, `power` and
`random-ap` weights and `suite: all`, plus the seqnorms and duality suites on
grid weights read from a `tlw fixture` (random-ap, seed 0) on the 1-D grid.
`tests/test_golden.py` compares the committed set with a tolerance; `--diff`
shows every change exactly, so run it against the parent's `tests/golden/`
to list what a change moved.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tlw.cli import ExperimentConfig, fixture, run  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"
GRIDS = {
    "1d": {"n": 1, "L": 2, "J": 6, "k_min": 0, "k_max": 3},
    "2d": {"n": 2, "L": 2, "J": 3, "k_min": 0, "k_max": 2},
}
WEIGHTS = {
    "exp2": {"kind": "exp2", "s": 0.3, "p": 2},
    "power": {"kind": "power", "s": 0.3, "alpha": 0.3, "p": 2},
    "random-ap": {"kind": "random-ap", "spread": 0.5, "p": 2},
}
FIXTURE_FILE = "<fixture>"  # stands for the grid-weight fixture's path in a stored config


def configs() -> dict[str, list[dict]]:
    """Each golden set's name mapped to its `tlw run` configs (run in order)."""
    out = {f"{g}-{w}": [{"grid": grid, "weights": spec, "suite": "all"}]
           for g, grid in GRIDS.items() for w, spec in WEIGHTS.items()}
    grid_weights = {"kind": "grid", "file": FIXTURE_FILE, "p": 2}
    out["1d-grid"] = [{"grid": GRIDS["1d"], "weights": grid_weights, "suite": suite}
                      for suite in ("seqnorms", "duality")]
    for runs in out.values():
        for config in runs:
            config.update(trials=3, seed=0)
    return out


def reports(fixture_dir: Path) -> dict[str, dict]:
    """Each golden set's configs and the checks they produce, in run order."""
    base = fixture_dir / "w"
    fixture("random-ap", {"grid": GRIDS["1d"], "spread": 0.5}, 0, base)
    out = {}
    for name, runs in configs().items():
        checks = []
        for config in runs:
            raw = json.loads(json.dumps(config).replace(FIXTURE_FILE, str(base)))
            checks += run(ExperimentConfig.from_dict(raw)).checks
        out[name] = json.loads(dumps({"configs": runs, "checks": checks}))  # as stored
    return out


def dumps(golden: dict) -> str:
    return json.dumps(golden, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _diff(path: str, old, new):
    """Yield `path: old -> new` for every leaf that differs (exactly) between old and new."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _diff(f"{path}.{key}", old.get(key, "<absent>"), new.get(key, "<absent>"))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _diff(f"{path}[{i}]", a, b)
    elif old != new or type(old) is not type(new):
        yield f"{path}: {old!r} -> {new!r}"


def diff(golden_dir: Path, current: dict[str, dict]) -> list[str]:
    """Every value of `current` that differs from the golden files in `golden_dir`."""
    lines = []
    for name, golden in current.items():
        path = golden_dir / f"{name}.json"
        if not path.exists():
            lines.append(f"{name}: no golden file {path}")
            continue
        old = json.loads(path.read_text())
        if [(c["suite"], c["name"]) for c in old["checks"]] != [
                (c["suite"], c["name"]) for c in golden["checks"]]:
            lines.append(f"{name}: the checks differ in name or order")
            lines += _diff(name, old["checks"], golden["checks"])
            continue
        for a, b in zip(old["checks"], golden["checks"]):
            lines += _diff(f"{name} {b['suite']}:{b['name']}", a, b)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN_DIR}")
    mode.add_argument("--diff", metavar="DIR", type=Path,
                      help="print every value that differs from the golden files in DIR")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        current = reports(Path(tmp))
    if args.write:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, golden in current.items():
            (GOLDEN_DIR / f"{name}.json").write_text(dumps(golden))
        print(f"{len(current)} golden reports written to {GOLDEN_DIR}")
        return 0
    lines = diff(args.diff, current)
    print("\n".join(lines) if lines else "no value moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
