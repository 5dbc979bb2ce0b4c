"""Per-layer tracing for the benchmark worker.

The tracer wraps public functions of cayleyclass at every name a caller
looks it up by (``from .groups import closure`` binds a second name in
``cayleyclass.classify``), so no file of the program changes.  Each
call records a span: name, start, end, parent span and job index.
Spans stay in flat arrays in memory and are written out once, at the
end of the worker.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional


def _hits(result, args, kwargs) -> dict:
    return {"hits": result is not None}


def _enumerated(result, args, kwargs) -> dict:
    group = args[0] if args else kwargs["group"]
    length = args[1] if len(args) > 1 else kwargs["length"]
    return {"sequences": len(result), "candidates": math.perm(group.order, length)}


def _realized(result, args, kwargs) -> dict:
    return {"elements": result.order}


# (module, attribute, span name, observer of the call's result)
LAYERS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("groups", "closure", "groups.closure", None),
    ("groups", "order_multiset", "groups.order_multiset", None),
    ("groups", "FiniteGroup.ensure_table", "groups.ensure_table", None),
    ("groups", "from_descriptor", "groups.from_descriptor", None),
    ("classify", "enumerate_generating_sequences", "classify.enumerate", _enumerated),
    ("classify", "classify", "classify.classify", None),
    ("cayley", "build", "cayley.build", None),
    ("cayley", "undirected_view", "cayley.undirected_view", None),
    ("cayley", "is_connected", "cayley.is_connected", None),
    ("iso", "directed_iso", "iso.directed_iso", _hits),
    ("iso", "undirected_iso", "iso.undirected_iso", _hits),
    ("presentations", "parse_presentation", "presentations.parse_presentation", None),
    ("presentations", "todd_coxeter", "presentations.todd_coxeter", _realized),
    ("presentations", "verify_mutual_inverse", "presentations.verify_mutual_inverse", None),
    ("dicyclic_theory", "verify_theorem", "dicyclic_theory.verify_theorem", None),
    ("cli", "main", "cli.main", None),
]


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so a span's children run one after
    another inside it and their durations add up without overlap.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.current_job = -1
        self._stack: list[int] = []

    def wrap(self, span: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        name_id = len(self.names)
        self.names.append(span)
        names, parents, jobs, starts, ends = self.name, self.parent, self.job, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                for key, value in observe(result, args, kwargs).items():
                    counters[f"{span}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS at each binding inside cayleyclass."""
        for module, attribute, span, observe in LAYERS:
            owner = importlib.import_module(f"cayleyclass.{module}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(span, original, observe)
            setattr(owner, leaf, wrapper)
            for name, mod in list(sys.modules.items()):
                if name != "cayleyclass" and not name.startswith("cayleyclass."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def values(self) -> dict[str, float]:
        """Per-layer numbers: calls, self time and longest call per span
        name, the observers' counters, and the ratios built on them."""
        own = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        max_ns = [0] * len(self.names)
        for i, n in enumerate(self.name):
            calls[n] += 1
            self_ns[n] += own[i]
            max_ns[n] = max(max_ns[n], self.end[i] - self.start[i])
        out: dict[str, float] = dict(self.counters)
        for n, span in enumerate(self.names):
            out[f"{span}.calls"] = calls[n]
            out[f"{span}.self_s"] = self_ns[n] / 1e9
            out[f"{span}.max_call_s"] = max_ns[n] / 1e9
        for span in ("iso.directed_iso", "iso.undirected_iso"):
            calls_made = out[f"{span}.calls"]
            out[f"{span}.hit_ratio"] = out.get(f"{span}.hits", 0) / calls_made if calls_made else 0.0
        sequences = out.get("classify.enumerate.sequences", 0)
        candidates = out.get("classify.enumerate.candidates", 0)
        out["classify.sequences"] = sequences
        out["classify.enumerate.yield_ratio"] = sequences / candidates if candidates else 0.0
        out.setdefault("presentations.todd_coxeter.elements", 0)
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line: job, name, start and
        end in nanoseconds, parent span index (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("job\tname\tstart_ns\tend_ns\tparent\n")
            for i, n in enumerate(self.name):
                handle.write(
                    f"{self.job[i]}\t{self.names[n]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n"
                )
