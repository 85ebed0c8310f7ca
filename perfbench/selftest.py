"""The benchmark's own tests, on the tiny `smoke` workload (a few seconds).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import reference
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(trace: int, seed: int = 3) -> dict:
    code, lines = bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace))
    if code != 0:
        raise AssertionError("\n".join(lines))
    return json.loads(lines[-1])


class ResultShape(unittest.TestCase):
    def check_shape(self, result: dict, declared: dict):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)

    def test_untraced_prints_every_end_to_end_metric(self):
        result = smoke(trace=0)
        self.check_shape(result, run.END_TO_END)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_counters_repeat_exactly(self):
        first, second = smoke(trace=1), smoke(trace=1)
        self.check_shape(first, run.PER_LAYER)
        counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                  for r in (first, second)]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["weights.per_cube_ap_value.calls"], 0)
        self.assertGreater(counts[0]["phitransform.fft.points"], 0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        names = [w["name"] for w in spec["workloads"]]
        self.assertNotIn("smoke", names)
        for name in names:
            self.assertTrue(reference.path_for(name).is_file(), name)


class Gate(unittest.TestCase):
    rows = [["maximal", "maximal_scaling[J=12]", "fail", True],
            ["seqnorms", "f_inf_equals_cubeavg", "pass", True],
            ["seqnorms", "m_fun_sup", "measured", False]]
    may_vary = {("maximal", "maximal_scaling[J=12]")}

    def test_same_statuses_pass(self):
        self.assertEqual(reference.mismatches(self.rows, self.rows, self.may_vary), [])

    def test_known_failure_may_turn_to_pass(self):
        fixed = [["maximal", "maximal_scaling[J=12]", "pass", True]] + self.rows[1:]
        self.assertEqual(reference.mismatches(self.rows, fixed, self.may_vary), [])

    def test_changed_and_missing_checks_are_flagged(self):
        changed = [self.rows[0], ["seqnorms", "f_inf_equals_cubeavg", "fail", True]]
        problems = reference.mismatches(self.rows, changed, self.may_vary)
        self.assertEqual(len(problems), 2)
        self.assertIn("seqnorms:f_inf_equals_cubeavg is fail", problems[0])
        self.assertIn("seqnorms:m_fun_sup missing", problems[1])

    def test_non_standard_json_is_refused(self):
        for text in ('{"value": NaN}', '{"value": -Infinity}', '{"value": Infinity}'):
            with self.assertRaises(ValueError):
                reference.strict_loads(text)
        self.assertEqual(reference.strict_loads('{"value": 1e308}'), {"value": 1e308})


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, lines = bench("--workload", "verify-1d", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
