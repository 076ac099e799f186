"""In-memory span recorder that times csqpt's layers from outside the library.

A span is one timed interval: ``id``, ``parent`` (the span that caused it,
possibly recorded by another process), ``name``, ``start``, ``end`` and the
``run`` identifier shared by every span of one operation.  Times come from
``time.perf_counter``, which on Linux reads the system-wide monotonic clock,
so spans written by different processes of one run can be nested.

``Tracer.install`` wraps every public function that a csqpt layer module
defines and rebinds each module attribute that refers to it, including the
names other modules imported with ``from .x import y``; calls between
layers then pass through the wrappers.  ``uninstall`` restores the
originals.  Spans stay in memory until ``write`` is called at the end.

This module imports nothing from csqpt or numpy at import time.
"""

import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# The library's modules; each is one layer of the benchmark.
LAYERS = ("fock", "channel", "gates", "tomography", "reconstruct", "basis",
          "metrics", "cli")
# Self time of spans outside the library (process start, benchmark code).
BENCH_LAYER = "bench"


class Tracer:
    def __init__(self, run_id, id_prefix="", root_parent=None):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)
        self._prefix = id_prefix
        self._root_parent = root_parent
        self._patched = []

    @contextmanager
    def span(self, name):
        sid = f"{self._prefix}{next(self._ids)}"
        parent = self._stack[-1] if self._stack else self._root_parent
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "start": start, "end": end, "run": self.run_id})

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package="csqpt"):
        """Route every public layer function of ``package`` through a span."""
        pkg = importlib.import_module(package)
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, value in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{name}", value)
        for mod in (pkg, *modules.values()):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])
                    self._patched.append((mod, name, value))

    def uninstall(self):
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_of(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else BENCH_LAYER


def self_times(spans):
    """Seconds per layer: each span's duration minus that of its children."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {layer: 0.0 for layer in (*LAYERS, BENCH_LAYER)}
    for s in spans:
        out[layer_of(s["name"])] += s["end"] - s["start"] - child_time[s["id"]]
    return out


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]
