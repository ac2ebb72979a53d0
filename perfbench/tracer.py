"""Span tracing of gfinv's layers from outside the package.

`Tracer.install` wraps module-level functions of gfinv by name.  Each wrapper
replaces the original in every loaded gfinv module that holds it, so calls
through `from .x import f` aliases and calls inside the defining module are
both seen.  While the tracer is active, every call records one span (name,
start, end, parent, request) in flat in-memory columns; nothing is written
until `dump`.  Self time is a span's duration minus the durations of its
direct child spans.

Counts that depend on return values (equations per system, valuations found)
are kept as named counters beside the spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# (layer, module, function): the layer boundaries that the traced run times.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("program", "gfinv.program", "parse"),
    ("algebra", "gfinv.algebra.poly", "poly_gcd"),
    ("algebra", "gfinv.algebra.closedform", "normalize"),
    ("algebra", "gfinv.algebra.closedform", "series_expand"),
    ("algebra", "gfinv.algebra.closedform", "mass"),
    ("algebra", "gfinv.algebra.closedform", "shape_nonneg"),
    ("semantics", "gfinv.semantics", "char_functional"),
    ("semantics", "gfinv.semantics", "restrict"),
    ("semantics", "gfinv.semantics", "mod_filter"),
    ("synthesis", "gfinv.synthesis", "synthesize"),
    ("synthesis", "gfinv.synthesis", "build_system"),
    ("synthesis", "gfinv.synthesis", "solve_system"),
    ("synthesis", "gfinv.synthesis", "_row_reduce"),
    ("synthesis", "gfinv.synthesis", "_factor_poly"),
    ("synthesis", "gfinv.synthesis", "_divergence_probe"),
    ("invariant", "gfinv.invariant", "certify"),
    ("invariant", "gfinv.invariant", "verify"),
    ("invariant", "gfinv.invariant", "exact_posterior"),
    ("oracle", "gfinv.oracle", "kleene_iterate"),
)


def _count_system(tracer: "Tracer", system) -> None:
    tracer.add("synthesis.equations", len(system.equations))
    tracer.add("synthesis.equation_terms", sum(len(e.terms) for e in system.equations))


def _count_valuations(tracer: "Tracer", valuations) -> None:
    tracer.add("synthesis.valuations", len(valuations))


# span name -> hook called with the wrapped function's return value
ON_RETURN: Dict[str, Callable] = {
    "synthesis.build_system": _count_system,
    "synthesis.solve_system": _count_valuations,
}


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.lstrip('_')}"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Dict[str, int] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; a name that no longer exists is noted in
        `missing` instead of failing, so its metrics are reported absent."""
        gfinv_modules = [m for name, m in list(sys.modules.items())
                         if m is not None and (name == "gfinv" or name.startswith("gfinv."))]
        for layer, module, func in targets:
            name = span_name(layer, func)
            original = getattr(sys.modules.get(module), func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name)
            for mod in gfinv_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        sid = self.name_ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        on_return = ON_RETURN.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(sid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of calls and total self time in seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def data(self) -> Dict:
        """The summary, the counters and every span, as columns."""
        return {
            "names": self.names,
            "missing": self.missing,
            "counters": self.counters,
            "summary": self.summary(),
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "request": list(self.span_request),
                "start": list(self.span_start),
                "end": list(self.span_end),
            },
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data(), fh)
