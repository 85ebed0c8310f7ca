"""Benchmark of `tlw run`: end-to-end times per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload verify-1d --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh single-threaded Python process
(perfbench/worker.py) with TLW_THREADS unset.  Repetitions never share a
process: `suite: seqnorms` on norms-1d runs about twice as fast after
verify-1d and verify-2d in the same process as in a fresh one, which is how
users run it (NOTES.md).

--trace 0 prints, with units: setup_s (median over several set-ups),
run_s, suite_s.<suite> for every suite the workload runs, peak_rss_mb and
checks_failed_frac.  --trace 1 makes one untraced and then traced
repetitions, and prints every span's calls and self time, the computed
counters and trace.overhead_s.  Each report is checked by reference.py.
The last line of output is one JSON object with the metrics that
BENCHMARK.json lists for the mode; the lines before it carry the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_RUN = 3  # set-up-only processes before each full repetition of an untraced run
TIME_LIMIT_S = 170.0  # every process this run starts ends before this

# The JSON line's metrics.  suite_s.<suite> and checks_failed_frac are printed
# as lines only: some suites do not run on every workload, no hard check fails
# on two workloads, and the suite times that exist everywhere spread too much
# between runs on a noisy machine to hold a bound (NOTES.md).
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "weights.WeightSequence.init.self_s": "s",
    "weights.per_cube_ap_value.calls": "count",
    "weights.cube_mean_p.calls": "count",
    "weights.ap_cells_scanned": "count",
    "dyadic.cubes_at_level.calls": "count",
    "dyadic.cubes_at_level.cubes": "count",
    "dyadic.Grid.cube_slices.calls": "count",
    "dyadic.cube_sums.self_s": "s",
    "dyadic.cube_means.self_s": "s",
    "dyadic.expand_level_array.calls": "count",
    "dyadic.expand_level_array.self_s": "s",
    "maximal.maximal.calls": "count",
    "maximal.maximal.distinct_inputs": "count",
    "maximal.window_cells": "count",
    "seqspace.RestrictionSets.random.self_s": "s",
    "seqspace.RestrictionSets.from_m_fun.self_s": "s",
    "seqspace.m_p.calls": "count",
    "seqspace.m_p.self_s": "s",
    "seqspace.g_p.calls": "count",
    "seqspace.m_fun.self_s": "s",
    "seqspace.f_inf_norm.self_s": "s",
    "seqspace.f_inf_norm_cubeavg.self_s": "s",
    "seqspace.f_pq_norm.calls": "count",
    "seqspace.f_pq_norm.self_s": "s",
    "seqspace.lambda_star.self_s": "s",
    "seqspace.restricted_norm.self_s": "s",
    "seqspace.restricted_sup_norm.self_s": "s",
    "seqspace.CoeffField.random.self_s": "s",
    "duality.hoelder_check_pq.self_s": "s",
    "duality.hoelder_check_1q.self_s": "s",
    "duality.extremal_sequence.self_s": "s",
    "duality.star_constraint_norm.self_s": "s",
    "duality.localized_pairing.self_s": "s",
    "duality.conjugate_norm.self_s": "s",
    "duality.kappa_constraint_norm.calls": "count",
    "duality.dp_claim_value.self_s": "s",
    "phitransform.fft.calls": "count",
    "phitransform.fft.points": "count",
    "io.weights_from_spec.calls": "count",
    "io.weights_from_spec.self_s": "s",
    "io.load_grid_function.bytes": "count",
    "io.save_weight_sequence.bytes": "count",
    "cli.suite.seqnorms.self_s": "s",
    "cli.suite.duality.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.checks.total": "count",
    "cli.checks.hard": "count",
    "cli.checks.failed": "count",
    "trace.overhead_s": "s",
}


class Bench:
    """The repetitions of one benchmark run and what they measured."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.deadline = deadline
        self.configs = workloads.write_configs(workload, seed, workdir)
        self.reference = reference.load(workload)
        self.may_vary = workloads.STATUS_MAY_VARY.get(workload, set())
        self.env = {k: v for k, v in os.environ.items() if k != "TLW_THREADS"}
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("PYTHONPATH", None)  # the worker imports tlw from this checkout's src/ only
        self.count = 0
        self.attempted = 0  # `tlw run` calls made
        self.failed = 0  # of those: crashed, not strict JSON, or statuses off the reference
        self.problems: list[str] = []
        self.hard = 0
        self.hard_failed = 0
        self.failed_names: set[str] = set()
        self.versions: dict = {}

    def rep(self, mode: str) -> dict | None:
        """Run one repetition in a fresh process; None if it did not complete."""
        self.count += 1
        tag = f"{mode}{self.count}"
        reports = [str(self.workdir / f"{tag}-report{i}.json") for i in range(len(self.configs))]
        result_path = self.workdir / f"{tag}-result.json"
        request = self.workdir / f"{tag}-request.json"
        request.write_text(json.dumps({
            "root": str(ROOT), "workload": self.workload, "seed": self.seed,
            "workdir": str(self.workdir), "mode": mode, "result": str(result_path),
            "configs": [str(p) for p in self.configs], "reports": reports,
        }))
        if mode != "setup":
            self.attempted += len(self.configs)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(request)],
                                  env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t_spawn))
            ok = proc.returncode == 0 and result_path.is_file()
            detail = proc.stderr.strip().splitlines()[-1:] if not ok else []
        except subprocess.TimeoutExpired:
            ok, detail = False, ["timed out"]
        if not ok:
            self.problems.append(f"{mode} repetition failed: {' '.join(detail)}")
            if mode != "setup":
                self.failed += len(self.configs)
                for rows in self.reference:
                    self._count_lost(rows)
            return None
        res = json.loads(result_path.read_text())
        res["setup_s"] = res["setup_done"] - t_spawn
        self.versions = res.get("versions", self.versions)
        if mode != "setup":
            res["checks"] = [self._check(i, Path(p)) for i, p in enumerate(reports)]
        return res

    def _check(self, i: int, report_path: Path) -> dict:
        """Gate one report and add its hard checks to the totals."""
        try:
            report = reference.strict_loads(report_path.read_text())
        except (OSError, ValueError) as exc:
            self.failed += 1
            self.problems.append(f"config {i}: report unreadable or not strict JSON: {exc}")
            return self._count_lost(self.reference[i])
        bad = reference.mismatches(self.reference[i], reference.statuses(report), self.may_vary)
        if bad:
            self.failed += 1
            self.problems.extend(f"config {i}: {b}" for b in bad)
        hard = [c for c in report["checks"] if c.get("hard")]
        failed = [c for c in hard if c["status"] == "fail"]
        self.hard += len(hard)
        self.hard_failed += len(failed)
        self.failed_names.update(f"{c['suite']}:{c['name']}" for c in failed)
        return {"total": len(report["checks"]), "hard": len(hard), "failed": len(failed)}

    def _count_lost(self, rows: list[list]) -> dict:
        """A report that is missing or unreadable fails every hard check of its reference."""
        hard = sum(1 for row in rows if row[3])
        self.hard += hard
        self.hard_failed += hard
        return {"total": len(rows), "hard": hard, "failed": hard}


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run the repetitions; return the JSON metrics and the lines printed before them."""
    bench.rep("setup")  # warm-up: byte-compiles tlw and fills the file cache; not measured
    end = time.monotonic() + seconds
    if not trace:
        setups, runs = [], []
        while not runs or time.monotonic() < end:
            # The machine drifts between fast and slow phases lasting seconds, so
            # set-up samples are spread over the run rather than taken in one block.
            setups.extend(r for r in (bench.rep("setup") for _ in range(SETUPS_PER_RUN)) if r)
            r = bench.rep("run")
            if r is None:
                break
            runs.append(r)
        return end_to_end_metrics(bench, setups + runs, runs)
    plain = bench.rep("run")
    traced = []
    while not traced or time.monotonic() < end:
        r = bench.rep("trace")
        if r is None:
            break
        traced.append(r)
    return per_layer_metrics(bench, plain, traced)


def end_to_end_metrics(bench: Bench, setups: list[dict], runs: list[dict]):
    lines = []
    values: dict[str, float] = {}

    def add(name: str, unit: str, samples: list[float], what: str):
        values[name] = statistics.median(samples)
        lines.append(_line(name, values[name], unit, f"median of {len(samples)} {what}, "
                           f"range {min(samples):.4g}..{max(samples):.4g}"))

    if setups:
        add("setup_s", "s", [r["setup_s"] for r in setups], "set-ups")
    if runs:
        add("run_s", "s", [r["run_s"] for r in runs], "runs")
        for suite in runs[0]["suite_s"]:
            add(f"suite_s.{suite}", "s", [r["suite_s"][suite] for r in runs], "runs")
        add("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in runs], "runs")
    if bench.hard:
        frac = bench.hard_failed / bench.hard
        names = ", ".join(sorted(bench.failed_names)) or "none"
        lines.append(_line("checks_failed_frac", frac, "ratio",
                           f"{bench.hard_failed} of {bench.hard} hard checks over all runs; "
                           f"failing: {names}"))
    missing = [m for m in END_TO_END if m not in values]
    if missing:
        bench.problems.append(f"no value for {', '.join(missing)}")
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items() if m in values}, lines


def per_layer_metrics(bench: Bench, plain: dict | None, traced: list[dict]):
    lines = []
    if plain is None or not traced:
        bench.problems.append("no complete untraced and traced repetition")
        return {}, lines
    first = traced[0]["trace"]
    counts = {k: v for k, v in first.items() if not k.endswith(".self_s")}
    for r in traced[1:]:
        again = {k: v for k, v in r["trace"].items() if not k.endswith(".self_s")}
        if again != counts:
            changed = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
            bench.problems.append(f"counters differ between traced runs: {', '.join(changed)}")
    values: dict[str, float] = dict(counts)
    for name in first:
        if name.endswith(".self_s"):
            values[name] = statistics.median(r["trace"].get(name, 0.0) for r in traced)
    for key in ("total", "hard", "failed"):
        values[f"cli.checks.{key}"] = sum(c[key] for c in traced[0]["checks"])
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    values["trace.overhead_s"] = traced_run_s - plain["run_s"]

    lines.append(f"# {len(traced)} traced runs; untraced run_s {plain['run_s']:.4f} s, "
                 f"traced run_s {traced_run_s:.4f} s (median)")
    calls = values.get("maximal.maximal.calls", 0)
    if calls:
        values["maximal.maximal.distinct_frac"] = values["maximal.maximal.distinct_inputs"] / calls
    for name in sorted(values):
        if name.endswith(".calls") and values[name] == 0:
            continue
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("_frac") else "count")
        lines.append(_line(name, values[name], unit, ""))
    out = {}
    for name, unit in PER_LAYER.items():
        value = values.get(name, 0.0 if unit == "s" else 0)
        out[name] = {"value": value, "unit": unit}
    return out, lines


def _line(name: str, value: float, unit: str, note: str) -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:44s} {text:>14s} {unit:6s} {note}".rstrip()


def machine_line(bench: Bench) -> str:
    cpu = "unknown"
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"# machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={bench.versions.get('numpy', '?')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "tlw" / "cli.py").is_file():
        print(f"perfbench: no tlw sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, workdir, started + TIME_LIMIT_S)
        metrics, lines = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{bench.count} processes, {bench.attempted} tlw run calls, "
          f"{time.monotonic() - started:.1f} s")
    print(machine_line(bench))
    for line in lines:
        print(line)
    for problem in bench.problems:
        print(f"# problem: {problem}")
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
