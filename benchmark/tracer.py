"""In-process run of a batch of CLI calls, plain or traced.

Run as ``python3 benchmark/tracer.py CALLS.json RESULT.json [SPANS.json]``
with ``PYTHONPATH`` set to the checkout's ``src``. It imports ``real2sim``
and calls ``real2sim.cli.main(argv)`` once for each argument vector in
CALLS.json, with the wall time taken from before the import to after the
last call. Given SPANS.json it traces: every ``real2sim.<layer>`` import and
every call of a public function or method of a layer module becomes a span
(name, start, end, parent). The wrappers replace the module attributes
through which other modules call those functions, such as
``real2sim.controller.ik_dls``. Spans stay in memory and are written to
SPANS.json when the batch ends; RESULT.json gets the per-layer totals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time

import numpy  # noqa: F401  (imported before the clock starts: not a layer of real2sim)

LAYERS = ("geometry", "chain", "profile", "controller", "jointsim", "sysid", "metrics", "report", "imaging", "cli")
IMPORT = "<import>"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.ik_iterations = 0
        self.ik_unconverged = 0

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def wrap_ik(self, fn, name: str):
        inner = self.wrap(fn, name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.ik_iterations += result.iterations
            self.ik_unconverged += not result.converged
            return result

        return counted


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, inner, traced_exec):
        self.inner = inner
        self.exec_module = traced_exec

    def create_module(self, spec):
        return self.inner.create_module(spec)


class _TimedFinder(importlib.abc.MetaPathFinder):
    """Makes the execution of each layer module's body a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        package, _, layer = name.rpartition(".")
        if package != "real2sim" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        spec.loader = _TimedLoader(spec.loader, self.tracer.wrap(spec.loader.exec_module, f"{layer}.{IMPORT}"))
        return spec


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module, and
    rebind every module attribute that refers to one of them."""
    modules = {name: sys.modules[f"real2sim.{name}"] for name in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrap = tracer.wrap_ik if (layer, attr) == ("chain", "ik_dls") else tracer.wrap
                wrapped[id(obj)] = wrap(obj, f"{layer}.{attr}")
            elif inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if isinstance(member, staticmethod):
                        setattr(obj, meth, staticmethod(tracer.wrap(member.__func__, f"{layer}.{attr}.{meth}")))
                    elif inspect.isfunction(member):
                        setattr(obj, meth, tracer.wrap(member, f"{layer}.{attr}.{meth}"))
    for module in [sys.modules["real2sim"], *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])


class _LineCounter:
    """Stands in for stdout or stderr: counts the lines the program prints."""

    def __init__(self):
        self.lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def layer_totals(tracer: Tracer, wall: float) -> dict:
    """Per-layer call counts and self times; self time is a span's duration
    minus the durations of its child spans."""
    child = [0.0] * len(tracer.spans)
    top = 0.0
    for _, start, end, parent in tracer.spans:
        if parent < 0:
            top += end - start
        else:
            child[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for k, (name_id, start, end, _) in enumerate(tracer.spans):
        name = tracer.names[name_id]
        layer = name.split(".", 1)[0]
        self_s[layer] += end - start - child[k]
        calls[layer] += not name.endswith(IMPORT)
    return {"calls": calls, "self_s": self_s, "outside_s": wall - top, "spans": len(tracer.spans)}


def main(argv: list[str]) -> int:
    calls = json.loads(open(argv[1]).read())
    spans_path = argv[3] if len(argv) > 3 else None
    tracer = Tracer() if spans_path else None
    stderr, stdout = _LineCounter(), _LineCounter()
    codes = []
    start = time.perf_counter()
    if tracer:
        sys.meta_path.insert(0, _TimedFinder(tracer))
    import real2sim.cli

    if tracer:
        install_wrappers(tracer)
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout):
        for call in calls:
            codes.append(real2sim.cli.main(call))
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "exit_codes": codes, "stderr_lines": stderr.lines, "module": real2sim.__file__}
    if tracer:
        result.update(layer_totals(tracer, wall))
        result["ik_iterations"] = tracer.ik_iterations
        result["ik_unconverged"] = tracer.ik_unconverged
        with open(spans_path, "w") as f:
            json.dump({"names": tracer.names, "spans": tracer.spans}, f)
    with open(argv[2], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
