"""Span tracing of primework's layers, installed from outside the package.

Every public function of the traced modules is wrapped.  A wrapper
records the span's name, start, end and parent, and folds it at once
into an aggregate keyed by (function, parent), so memory stays bounded
however many calls a run makes.  Self time is a span's duration minus
the time covered by its traced children; time in private helpers is
charged to the innermost traced caller.  Generator functions (the point
iterator) are counted per yielded item and not timed.

The wrappers replace the function in every primework namespace that
holds it, since modules bind names such as evaluate and is_prime with
`from ... import`, and patching the defining module alone would miss
those calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# The layers: each is one module of the package.
LAYERS = ("expr", "analysis", "arith", "conditions", "witness", "counting",
          "analogy", "factorial", "fermat", "density", "checks", "cli")


class Tracer:
    def __init__(self):
        # (function, parent function or None) -> [calls, total_s, self_s, raised]
        self.spans = {}
        # generator function -> items yielded
        self.items = {}
        self._stack = []

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # name, time covered by traced children
            stack.append(frame)
            raised = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (name, parent[0] if parent is not None else None)
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, elapsed, elapsed - frame[1], raised]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[1]
                    agg[3] += raised
        return traced

    def _wrap_generator(self, name, fn):
        items = self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                items[name] = items.get(name, 0) + n
        return traced

    def install(self, package="primework"):
        """Wrap the public functions of every layer and rebind them in all
        loaded modules of the package."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrappers[obj] = self._wrap_generator(name, obj)
                else:
                    wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def summary(self):
        """{function: [calls, total_s, self_s, raised]} summed over parents,
        plus the item counts of generators."""
        per_fn = {}
        for (name, _parent), agg in self.spans.items():
            acc = per_fn.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += agg[k]
        return {"functions": per_fn, "items": dict(self.items)}
