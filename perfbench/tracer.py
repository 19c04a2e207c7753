"""Outside-in span tracer for the memlens package.

The tracer wraps the package's public functions from outside: it rebinds
them at every place they are bound (module attributes, the names other
modules imported with ``from ... import``, the CLI handler table and the
``Sequence`` methods), so no file of the package changes.  Each call of a
wrapped function records one span (id, parent, name, start, end) in
memory; spans are written out once, at the end of the run, and each
layer's self time is computed from them.

Per-element paths (``Sequence.value``) are deliberately not wrapped: a
span per element would swamp the run.  Their work is counted through the
callers that request whole windows (``truncate`` and ``values_upto``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from collections import Counter

LAYERS = ("sequences", "tensors", "models", "bounds", "experiments",
          "charts", "cli")

# Called once per element; counted through their callers instead.
NOT_WRAPPED = {("sequences", "Sequence.value")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _materialised(name):
    def count(args, kwargs):
        return "sequences.entries_materialised", int(_arg(args, kwargs, 1, name))
    return count


def _flattening(args, kwargs):
    size = 1
    for d in _arg(args, kwargs, 1, "dims"):
        size *= int(d)
    return "tensors.flatten_bytes_computed", 8 * size


def _replayed(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    return "models.filters_replayed", spec.filter_count * spec.channels[0]


# Exact work counts taken from the arguments of the wrapped call; each
# maps (args, kwargs) to (counter name, amount).
COUNTERS = {
    "sequences.Sequence.truncate": _materialised("length"),
    "sequences.Sequence.values_upto": _materialised("n"),
    "tensors.mode_flatten_general": _flattening,
    "models.cnn_representation": _replayed,
}


class Tracer:
    """Spans and counts for one traced process."""

    def __init__(self):
        self.names = []       # span name per name id
        self.spans = []       # [name id, parent span id, start, end]
        self.counts = Counter()
        self._stack = [-1]
        self._wrapped = {}    # original function -> its wrapper

    def _wrapper(self, fn, name):
        known = self._wrapped.get(fn)
        if known is not None:
            return known
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if count is not None:
                key, amount = count(args, kwargs)
                counts[key] += amount
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        self._wrapped[fn] = traced
        return traced

    def install(self):
        """Rebind every public function of the memlens layers."""
        modules = {layer: importlib.import_module(f"memlens.{layer}")
                   for layer in LAYERS}
        owner = {mod.__name__: layer for layer, mod in modules.items()}

        def wrap(fn):
            layer = owner.get(fn.__module__)
            if layer is None or (layer, fn.__qualname__) in NOT_WRAPPED:
                return fn
            return self._wrapper(fn, f"{layer}.{fn.__qualname__}")

        seq_cls = modules["sequences"].Sequence
        for attr, value in list(vars(seq_cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, classmethod):
                setattr(seq_cls, attr, classmethod(wrap(value.__func__)))
            elif inspect.isfunction(value):
                setattr(seq_cls, attr, wrap(value))

        # Module attributes cover both each layer's own functions and the
        # names it imported from other layers; the package namespace
        # re-exports them too.
        for mod in list(modules.values()) + [importlib.import_module("memlens")]:
            for attr, value in list(vars(mod).items()):
                if not attr.startswith("_") and isinstance(value, types.FunctionType):
                    setattr(mod, attr, wrap(value))

        handlers = modules["cli"]._HANDLERS
        for command, fn in list(handlers.items()):
            handlers[command] = wrap(fn)
        return self

    # -- results ----------------------------------------------------------

    def layer_stats(self):
        """Per layer: summed self time (s) and number of spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for i, (name_id, _, start, end) in enumerate(self.spans):
            layer = self.names[name_id].split(".", 1)[0]
            self_s[layer] += (end - start) - child[i]
            calls[layer] += 1
        return self_s, calls

    def root_seconds(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(end - start for _, parent, start, end in self.spans
                   if parent < 0)

    def calls_of(self, name: str) -> int:
        if name not in self.names:
            return 0
        name_id = self.names.index(name)
        return sum(1 for span in self.spans if span[0] == name_id)

    def write(self, path):
        """All spans as [id, parent, name, start, end] rows."""
        with open(path, "w") as fh:
            json.dump([[i, parent, self.names[name_id], start, end]
                       for i, (name_id, parent, start, end)
                       in enumerate(self.spans)], fh)
