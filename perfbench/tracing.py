"""Span tracing of csymcomp's modules from outside the program.

``Tracer.install`` wraps the public functions of each layer module (and the
public methods of the classes it defines) and patches every csymcomp module
namespace that holds the original object, so a function imported by name
elsewhere (``paperchecks`` and ``cli`` hold their own
``matrix_of_composition``) is traced too.  Nothing inside ``src/`` changes.

Each call records a span (id, name, start, end, parent, operation) and
adds to per-name counts and to its layer's self time: the span's duration
minus the time its child spans cover.  Counts and times are complete;
only the first ``max_spans`` spans are kept for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: Layer name -> module.  ``backend`` is the kernel dispatch.
LAYERS = ("mobius", "csym", "hardy", "backend", "compop", "paperchecks", "conjfinder", "cli")
BACKEND_DISPATCH = ("cauchy_product", "power_columns", "reciprocal")


def _public_callables(layer: str, module):
    """(owner, attribute, function) for every public function of a layer."""
    if layer == "backend":
        for name in BACKEND_DISPATCH:
            yield module, name, getattr(module, name)
        return
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, meth in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(meth):
                    yield obj, attr, meth


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.inclusive_ns: dict[str, int] = {}
        self.layer_self_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.matrix_entries = 0
        self.op = -1
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        self.calls.setdefault(full, 0)
        self.inclusive_ns.setdefault(full, 0)
        layer_self = self.layer_self_ns
        calls, incl, stack, spans = self.calls, self.inclusive_ns, self._stack, self.spans
        counts_entries = full == "compop.matrix_of_composition"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[full] += 1
                incl[full] += dur
                layer_self[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if counts_entries:
                    n = args[1] if len(args) > 1 else kwargs["n"]
                    self.matrix_entries += n * n
                if len(spans) < self.max_spans:
                    spans.append((span_id, full, start, end, parent, self.op))

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions in every csymcomp namespace."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"csymcomp.{layer}")
            for owner, attr, fn in _public_callables(layer, module):
                if id(fn) not in replace:
                    qual = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
                    replace[id(fn)] = self._wrap(layer, qual, fn)
                if not inspect.ismodule(owner):
                    self._originals.append((owner, attr, fn))
                    setattr(owner, attr, replace[id(fn)])
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "csymcomp" or modname.startswith("csymcomp.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace and replace[id(obj)] is not obj:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, replace[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(layer + "."))
