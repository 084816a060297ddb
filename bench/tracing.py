"""Per-layer spans for the traced run, recorded from outside the library.

`Tracer.install()` wraps every public function of each charpk module, and
the public methods of its public classes, in every charpk namespace that
holds them; `uninstall()` puts the originals back.  The untraced run never
calls `install()`, so its timings carry no wrapper cost.

A span opens when control enters a module from outside it (the benchmark
or another module); calls inside the module pass straight through, so a
module's self time is the time its own code ran and its total time the
wall time during which it had an open span.  Generator functions get one
span per resumption.  Spans are aggregated in memory per module and per
operation and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("fields", "lambdafn", "linalg", "polys", "factor", "variety",
           "differential", "groups", "formula", "axioms", "instancefile",
           "cli")

_perf = time.perf_counter


class Tracer:

    def __init__(self):
        self.stack = []   # open spans: [module, child seconds, start]
        self.depth = dict.fromkeys(MODULES, 0)
        self.opened = dict.fromkeys(MODULES, 0.0)
        self.calls = dict.fromkeys(MODULES, 0)
        self.total = dict.fromkeys(MODULES, 0.0)
        self.self_time = dict.fromkeys(MODULES, 0.0)
        self.enum_points = 0
        self.enum_candidates = 0
        self._enumerating = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, module):
        now = _perf()
        if self.depth[module] == 0:
            self.opened[module] = now
        self.depth[module] += 1
        self.stack.append([module, 0.0, now])

    def _exit(self, count):
        module, child, start = self.stack.pop()
        now = _perf()
        took = now - start
        self.self_time[module] += took - child
        self.calls[module] += count
        self.depth[module] -= 1
        if self.depth[module] == 0:
            self.total[module] += now - self.opened[module]
        if self.stack:
            self.stack[-1][1] += took

    def snapshot(self):
        return {m: (self.calls[m], self.total[m], self.self_time[m])
                for m in MODULES}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, module):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == module:
                return fn(*args, **kwargs)
            tracer._enter(module)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(1)
        return traced

    def _wrap_generator(self, fn, module, enumerator=False):
        tracer = self

        def resume(inner):
            first = True
            while True:
                inside = tracer.stack and tracer.stack[-1][0] == module
                if not inside:
                    tracer._enter(module)
                tracer._enumerating += enumerator
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._enumerating -= enumerator
                    if not inside:
                        tracer._exit(1 if first else 0)
                    first = False
                tracer.enum_points += enumerator
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return resume(fn(*args, **kwargs))
        return traced

    def _wrap_candidate_check(self, fn):
        """`AffineVariety.contains_point`: counted as one candidate when it
        runs inside a resumption of `enumerate_points`."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._enumerating:
                tracer.enum_candidates += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"charpk.{m}") for m in MODULES}
        namespaces = [vars(importlib.import_module("charpk"))]
        namespaces += [vars(m) for m in mods.values()]
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(obj, name)
                elif callable(obj):
                    wrapped = self._wrapped(obj, name, attr)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self._patches.append((ns, key, value))
                                ns[key] = wrapped

    def _wrapped(self, fn, module, attr):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(
                fn, module, enumerator=(attr == "enumerate_points"))
        return self._wrap(fn, module)

    def _install_methods(self, cls, module):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrapped(raw.__func__, module, attr))
            elif inspect.isfunction(raw):
                new = self._wrapped(raw, module, attr)
                if cls.__name__ == "AffineVariety" \
                        and attr == "contains_point":
                    new = self._wrap_candidate_check(new)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()
