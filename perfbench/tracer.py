"""Spans around calls into `tlw`'s modules, installed from outside the package.

`install` wraps every public function and method of the traced modules and
each suite runner, and rebinds every name under which `tlw` holds them: `cli`
imports most library functions by name, so patching only
`tlw.weights.ap_constant` would miss the suites' calls to
`tlw.cli.ap_constant`.  A span's self time is its duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("dyadic", "weights", "maximal", "seqspace", "duality", "phitransform", "io", "cli")

# Public methods get spans too, with two exceptions.  dyadic's classes are
# small value types whose methods run hundreds of thousands of times, so only
# Grid.cube_slices gets a span there; of the constructors, only
# WeightSequence.__init__ (its positivity scan) does.
DYADIC_METHODS = {("Grid", "cube_slices")}
CONSTRUCTORS = {("WeightSequence", "__init__")}

FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn")


class Tracer:
    """Call counts, self times and computed counters, keyed by span name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # per open span: time spent in its child spans
        self._phi_depth = 0  # open phitransform spans, for counting FFTs made inside them
        self._maximal_inputs: set[bytes] = set()

    def span(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(args, kwargs, result)` updates counters."""
        in_phi = name.startswith("phitransform.")

        def traced(*args, **kwargs):
            self._children.append(0.0)
            self._phi_depth += in_phi
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._phi_depth -= in_phi
                child = self._children.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if self._children:
                    self._children[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def fft_counter(self, fn):
        def counted(*args, **kwargs):
            if self._phi_depth:
                a = args[0] if args else kwargs["a"]
                self.counters["phitransform.fft.calls"] += 1
                self.counters["phitransform.fft.points"] += int(getattr(a, "size", 0))
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # Counters computed from argument and result sizes.
    def _ap_cells(self, args, kwargs, result):
        self.counters["weights.ap_cells_scanned"] += args[0].values.size

    def _level_cubes(self, args, kwargs, result):
        self.counters["dyadic.cubes_at_level.cubes"] += len(result)

    def _maximal_input(self, args, kwargs, result):
        f, cfg = args[0], args[1]
        self.counters["maximal.window_cells"] += f.values.size * sum(cfg.window_cells())
        self._maximal_inputs.add(hashlib.blake2b(f.values.tobytes(), digest_size=16).digest())
        self.counters["maximal.maximal.distinct_inputs"] = len(self._maximal_inputs)

    def _loaded_bytes(self, args, kwargs, result):
        self.counters["io.load_grid_function.bytes"] += result.values.nbytes

    def _saved_bytes(self, args, kwargs, result):
        w = args[0]
        self.counters["io.save_weight_sequence.bytes"] += sum(w.tk[k].nbytes for k in w.levels)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        return out


def install(tracer: Tracer) -> None:
    """Wrap `tlw`'s public functions, public methods and suite runners in spans of `tracer`."""
    mods = {name: importlib.import_module(f"tlw.{name}") for name in MODULES}
    cli = mods["cli"]
    after = {
        "weights.per_cube_ap_value": tracer._ap_cells,
        "dyadic.cubes_at_level": tracer._level_cubes,
        "maximal.maximal": tracer._maximal_input,
        "io.load_grid_function": tracer._loaded_bytes,
        "io.save_weight_sequence": tracer._saved_bytes,
    }
    suite_names = {fn: f"cli.suite.{suite}" for suite, fn in cli.SUITE_RUNNERS.items()}

    wrapped = {}  # original function -> span
    for modname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = suite_names.get(obj, f"{modname}.{attr}")
            wrapped[obj] = tracer.span(name, obj, after.get(name))

    # Rebind every module-level name and suite-table entry that holds an original.
    for modname in [m for m in sys.modules if m == "tlw" or m.startswith("tlw.")]:
        mod = sys.modules[modname]
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for suite, fn in cli.SUITE_RUNNERS.items():
        cli.SUITE_RUNNERS[suite] = wrapped[fn]

    for modname, mod in mods.items():
        for clsname, cls in list(vars(mod).items()):
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for attr, raw in list(vars(cls).items()):
                key = (clsname, attr)
                if modname == "dyadic" and key not in DYADIC_METHODS:
                    continue
                if attr.startswith("_") and key not in CONSTRUCTORS:
                    continue
                name = f"{modname}.{clsname}.{'init' if attr == '__init__' else attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.span(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    setattr(cls, attr, tracer.span(name, raw))

    import numpy.fft

    for attr in FFT_FUNCTIONS:
        setattr(numpy.fft, attr, tracer.fft_counter(getattr(numpy.fft, attr)))
