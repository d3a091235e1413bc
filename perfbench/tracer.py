"""Traced run of one charsum CLI call, for the per-layer metrics.

    PYTHONPATH=src python3 perfbench/tracer.py <charsum argv...>

Wraps charsum's public functions from outside the package, calls
``charsum.cli.main(argv)`` in this process on one thread, and prints one
JSON object: the exit code, the CLI's stdout, every span and the field
cache's statistics.  Nothing in ``src/`` is changed; ``run.py`` checks
that the captured stdout is byte-identical to an untraced call's.

A span is ``[name index, start ns, end ns, parent span index or -1]``.
Spans stay in memory until the call returns.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import types
from time import perf_counter_ns

import charsum.cli as cli
from charsum import (characters, cyclotomic, field, groupring, repcount,
                     shiftcount, verify)

# every public module-level function of these modules gets a span
TRACED_MODULES = (field, characters, cyclotomic, repcount, groupring,
                  shiftcount, verify)
# the vectorized FieldTable helpers; the scalar ones are too hot to wrap
FIELD_METHODS = ("add_vec", "add_outer", "add_row", "trace_vec")
# private per-field workers of the verify sweeps, traced as one layer
VERIFY_WORKERS = tuple(sorted(name for name in vars(verify)
                              if name.startswith("_") and name.endswith("_worker")))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counters = {"field.add_outer.cells": 0,
                         "groupring.gr_mul.object_calls": 0}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(span, args, result)``
        may count or rename once the span has ended."""
        spans, stack, nid = self.spans, self._stack, self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter_ns()
            if after is not None:
                after(spans[idx], args, result)
            return result
        return traced

    # -- per-call counters --

    def _count_cells(self, span, args, result):
        self.counters["field.add_outer.cells"] += len(args[1]) * len(args[2])

    def _count_object(self, span, args, result):
        if result.coeffs.dtype == object:
            self.counters["groupring.gr_mul.object_calls"] += 1

    def _sweep_wall(self, span, args, result):
        key = f"verify.{result.name}.wall_s"
        self.counters[key] = self.counters.get(key, 0.0) + (span[2] - span[1]) / 1e9


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and rebind every name that refers to them."""
    wrapped = {}
    for mod in TRACED_MODULES:
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__):
                continue
            after = None
            if obj is groupring.gr_mul:
                after = tracer._count_object
            elif mod is verify and attr.startswith("sweep_"):
                after = tracer._sweep_wall
            short = mod.__name__.rsplit(".", 1)[-1]
            wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj, after)
    for attr in VERIFY_WORKERS:
        obj = getattr(verify, attr)
        wrapped[obj] = tracer.wrap("verify.workers", obj)
    # ``from .x import f`` copies the name: rebind it in every module
    for mod in [m for n, m in sys.modules.items()
                if n == "charsum" or n.startswith("charsum.")]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for attr in FIELD_METHODS:
        after = tracer._count_cells if attr == "add_outer" else None
        setattr(field.FieldTable, attr,
                tracer.wrap(f"field.{attr}", getattr(field.FieldTable, attr), after))
    # one thread: the pool's workers would record spans out of reach
    serial_pmap = verify._pmap
    verify._pmap = lambda fn, items, threads: serial_pmap(fn, items, 1)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    traced_main = tracer.wrap("cli.main", cli.main)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = traced_main(argv)
    cache = verify.cached_field.cache_info()
    json.dump({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
               "names": tracer.names, "spans": tracer.spans,
               "counters": tracer.counters,
               "cache": {"hits": cache.hits, "misses": cache.misses}},
              sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
