"""Span tracer installed from outside the program.

``Tracer.installed()`` wraps, for the duration of a ``with`` block:

* every public function of each mercerlab module (the layers), under every
  module attribute that refers to it, because the modules import their
  primitives by name (``from .linalg import apply_scalar_function``) and a
  patch of ``mercerlab.linalg`` alone would miss those call sites;
* ``MercerInstance.__post_init__``, the instance range check;
* ``numpy.linalg.eigh``, ``eigvalsh`` and ``qr``, which the modules look up
  as ``np.linalg.*`` at call time.  Each call is counted once in a global
  total and once against the layer of the innermost open span.

Every patched name is restored when the block exits.  Spans live in flat
in-memory arrays (name, start, end, parent, suite, trial) and are written
out by ``write`` after the run.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "maps", "mercer", "quasimeans", "sampling", "harness", "functions", "cli")
SOLVERS = ("eigh", "eigvalsh", "qr")
INSTANCE_SPAN = "mercer.MercerInstance.__post_init__"
TRIAL_SPAN = "sampling.trial_seed"
UNATTRIBUTED = "unattributed"


class LayerStats:
    """Totals of one layer: self time, calls and numpy solver calls."""

    __slots__ = ("self_ns", "calls", "solvers")

    def __init__(self):
        self.self_ns = 0
        self.calls = 0
        self.solvers = dict.fromkeys(SOLVERS, 0)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layer_of_name: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.suite = array("i")
        self.trial = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []  # frames: [span id, layer, start ns, child ns]
        self.solver_span = array("i")  # one entry per solver call: its innermost span
        self.solver_kind = array("b")  # ... and its index in SOLVERS
        self.suite_index = -1
        self.current_trial = -1
        self._patches = None
        self.layers = {layer: LayerStats() for layer in LAYERS + (UNATTRIBUTED,)}
        self.totals = dict.fromkeys(SOLVERS, 0)
        self.instance_ns = 0
        self.setup_functions_ns = 0

    def begin_suite(self) -> None:
        """Mark the start of one suite call; spans before its first trial are set-up."""
        self.suite_index += 1
        self.current_trial = -1

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of_name.append(layer)
        return len(self.names) - 1

    def _enter(self, name_id: int) -> list:
        span_id = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.suite.append(self.suite_index)
        self.trial.append(-1)
        self.end.append(0)
        now = time.perf_counter_ns()
        self.start.append(now)
        frame = [span_id, self.layer_of_name[name_id], now, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        now = time.perf_counter_ns()
        span_id, layer, started, child_ns = frame
        self._stack.pop()
        duration = now - started
        self.end[span_id] = now
        self.trial[span_id] = self.current_trial
        stats = self.layers[layer]
        stats.self_ns += duration - child_ns
        stats.calls += 1
        if self.current_trial < 0 and layer == "functions":
            self.setup_functions_ns += duration - child_ns
        if self.names[self.name_id[span_id]] == INSTANCE_SPAN:
            self.instance_ns += duration
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, fn, name: str, layer: str):
        name_id = self._intern(name, layer)
        enter, leave = self._enter, self._exit
        marks_trial = name == TRIAL_SPAN
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if marks_trial:
                tracer.current_trial = args[1] if len(args) > 1 else kwargs["trial_index"]
            return result

        return wrapper

    def _count(self, fn, kind: str):
        tracer = self

        kind_index = SOLVERS.index(kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.totals[kind] += 1
            if tracer._stack:
                span_id, layer = tracer._stack[-1][:2]
                tracer.solver_span.append(span_id)
                tracer.solver_kind.append(kind_index)
            else:
                layer = UNATTRIBUTED
            tracer.layers[layer].solvers[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _build_patches(self) -> list:
        """(owner, name, original, wrapper) for every name to patch."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mercerlab.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
        patches = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "mercerlab" or module_name.startswith("mercerlab.")):
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patches.append((module, name, obj, wrappers[id(obj)]))
        instance_cls = importlib.import_module("mercerlab.mercer").MercerInstance
        post_init = instance_cls.__dict__["__post_init__"]
        patches.append((instance_cls, "__post_init__", post_init, self._wrap(post_init, INSTANCE_SPAN, "mercer")))
        for kind in SOLVERS:
            original = getattr(np.linalg, kind)
            patches.append((np.linalg, kind, original, self._count(original, kind)))
        return patches

    @contextmanager
    def installed(self):
        """Patch the layers and numpy.linalg; restore every name on exit."""
        if self._patches is None:
            self._patches = self._build_patches()
        try:
            for owner, name, _original, wrapper in self._patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original, _wrapper in reversed(self._patches):
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def check_attribution(self) -> list:
        """Problems with the solver attribution: per-layer sums must equal the totals."""
        problems = []
        for kind in SOLVERS:
            attributed = sum(self.layers[layer].solvers[kind] for layer in LAYERS)
            if attributed != self.totals[kind]:
                problems.append(f"{kind}: layers sum to {attributed}, numpy saw {self.totals[kind]}")
        return problems

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip), times in ns from the first span.

        ``solvers`` counts the numpy solver calls made directly in the span.
        """
        solvers: dict = {}
        for span_id, kind_index in zip(self.solver_span, self.solver_kind):
            counts = solvers.setdefault(span_id, dict.fromkeys(SOLVERS, 0))
            counts[SOLVERS[kind_index]] += 1
        origin = self.start[0] if len(self.start) else 0
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self.start)):
                out.write(
                    f'{{"id": {i}, "name": {names[self.name_id[i]]}, "start_ns": {self.start[i] - origin}, '
                    f'"end_ns": {self.end[i] - origin}, "parent": {self.parent[i]}, "suite": {self.suite[i]}, '
                    f'"trial": {self.trial[i]}, "solvers": {json.dumps(solvers.get(i, {}))}}}\n'
                )
