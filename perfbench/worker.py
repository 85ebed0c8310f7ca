"""One repetition of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py <request.json>

The request names the checkout root, the workload, the seed, a work
directory, the mode (`setup`, `run` or `trace`) and the result path.  Set-up
imports `tlw`, writes the weight fixture if the workload has one, and reads
and parses the configs; `time.monotonic()` at its end goes into the result, so
that run.py, which noted the same clock just before starting this process,
can take set-up time from process start.  Then each config goes through
`tlw.cli.run` and `tlw.cli.emit`, as `tlw run -c <config> -o <report>` does.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    root, workdir = Path(req["root"]), Path(req["workdir"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy
    import workloads
    from tlw import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tlw was imported from {cli.__file__}, not from {src}")

    tracer = None
    if req["mode"] == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    if workloads.needs_fixture(req["workload"]):
        cli.fixture("random-ap", workloads.fixture_params(req["workload"]), req["seed"],
                    workloads.fixture_base(workdir))
    configs = [cli.ExperimentConfig.from_dict(json.loads(Path(p).read_text()))
               for p in req["configs"]]
    result = {"setup_done": time.monotonic(), "versions": {"numpy": numpy.__version__}}

    if req["mode"] != "setup":
        suite_s: dict[str, float] = {}
        for name, runner in list(cli.SUITE_RUNNERS.items()):
            cli.SUITE_RUNNERS[name] = _timed(runner, name, suite_s)
        run_s = 0.0
        for config, report_path in zip(configs, req["reports"]):
            t0 = time.perf_counter()
            cli.emit(cli.run(config), "json", report_path)
            run_s += time.perf_counter() - t0
        result.update(run_s=run_s, suite_s=suite_s,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = tracer.metrics()

    Path(req["result"]).write_text(json.dumps(result))
    return 0


def _timed(runner, name: str, sink: dict[str, float]):
    def timed(config):
        t0 = time.perf_counter()
        try:
            return runner(config)
        finally:
            sink[name] = sink.get(name, 0.0) + time.perf_counter() - t0

    return timed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
