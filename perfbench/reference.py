"""Status-level correctness gate for `tlw run` reports, and its reference files.

A report passes when it is strict JSON (no NaN or Infinity) and its
(suite, name, status) triples equal the workload's reference, except the
checks in workloads.STATUS_MAY_VARY, which must be present with status pass
or fail.  Values are not compared: they may move at roundoff.

Regenerate a reference (only when the set of checks is meant to change):

    python3 perfbench/reference.py <workload> <seed>
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def strict_loads(text: str):
    """json.loads that refuses the non-standard constants NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def statuses(report: dict) -> list[list]:
    """Sorted [suite, name, status, hard] rows of a report's checks."""
    return sorted([c["suite"], c["name"], c["status"], bool(c.get("hard"))]
                  for c in report["checks"])


def path_for(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load(workload: str) -> list[list[list]]:
    """Per config of the workload, the rows `statuses` gives for its reference report."""
    return json.loads(path_for(workload).read_text())


def mismatches(expected: list[list], got: list[list], may_vary: set) -> list[str]:
    """Human-readable differences between a report's statuses and the reference."""
    def keyed(rows):
        return {(suite, name): status for suite, name, status, _ in rows}

    want, have = keyed(expected), keyed(got)
    problems = []
    for key in sorted(want.keys() | have.keys()):
        label = f"{key[0]}:{key[1]}"
        if key not in have:
            problems.append(f"{label} missing (reference: {want[key]})")
        elif key not in want:
            problems.append(f"{label} not in the reference (status {have[key]})")
        elif key in may_vary:
            if have[key] not in ("pass", "fail"):
                problems.append(f"{label} is {have[key]}, expected pass or fail")
        elif have[key] != want[key]:
            problems.append(f"{label} is {have[key]}, reference {want[key]}")
    return problems


def main(workload: str, seed: int) -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import workloads
    from tlw import cli

    workdir = root / ".perfbench_work" / f"reference-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workloads.needs_fixture(workload):
            cli.fixture("random-ap", workloads.fixture_params(workload), seed,
                        workloads.fixture_base(workdir))
        rows = []
        for path in workloads.write_configs(workload, seed, workdir):
            config = cli.ExperimentConfig.from_dict(json.loads(path.read_text()))
            rows.append(statuses(cli.run(config).to_json()))
    finally:
        shutil.rmtree(workdir)
    path_for(workload).parent.mkdir(exist_ok=True)
    path_for(workload).write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {path_for(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
